//! Benchmarks the three ingest paths against each other on the TPC-D cube:
//! record-at-a-time `insert`, the amortized `insert_batch` descent, and the
//! bottom-up `bulk_load` builder, plus the serving engine's `INSERT_BATCH`
//! writer path end to end. Beside the bare batched path it runs the same
//! batches the way a resident shard writer does — a snapshot held after
//! every 333 records, as each publish holds one — and reports its time and
//! the bytes the tree copied per record because a snapshot shared them
//! (header and payload). Reports records/sec, time-to-queryable and the
//! time the two dynamic paths spent choosing subtrees and in the split
//! machinery, verifies all paths produce query-identical trees, times one
//! `INSERT` + `FLUSH` on the loaded engine (what a record costs to become
//! visible, publish included), and fails (exit 1) if bulk load is
//! slower than batched inserts — a ratio against the dynamic path would fail
//! whenever that path gets faster; per-record regressions are `bench_gate`'s
//! job. Emits a JSON report to `results/ingest_bench.json`.
//!
//! ```sh
//! cargo run --release -p dc-bench --bin ingest_bench [records] [batch_size]
//! ```

use std::time::{Duration, Instant};

use dc_mds::Mds;
use dc_query::{RangeQueryGen, ValuePick};
use dc_serve::{EngineConfig, PartitionPolicy, ShardedDcTree};
use dc_tpcd::{generate, TpcdConfig, TpcdData};
use dc_tree::{CopiedBytes, DcTree, DcTreeConfig};

/// Records per writer batch in the with-publish row: a two-shard engine's
/// share of a 512-record `INSERT_BATCH`, as the wire benchmark's writers
/// see it.
const PUBLISH_BATCH: usize = 333;

struct IngestRun {
    name: &'static str,
    records_per_sec: f64,
    us_per_record: f64,
    /// Wall time until the structure answers queries (build + publish).
    time_to_queryable: Duration,
}

fn run_stats(name: &'static str, n: usize, elapsed: Duration) -> IngestRun {
    IngestRun {
        name,
        records_per_sec: n as f64 / elapsed.as_secs_f64(),
        us_per_record: elapsed.as_secs_f64() * 1e6 / n as f64,
        time_to_queryable: elapsed,
    }
}

/// The paper's §5.2 query spectrum, for cross-path answer verification.
fn queries(data: &TpcdData) -> Vec<Mds> {
    let mut out = vec![Mds::all(&data.schema)];
    for (sel, seed) in [(0.01, 11), (0.05, 12), (0.25, 13)] {
        let mut gen = RangeQueryGen::new(sel, ValuePick::Scattered, seed);
        for _ in 0..15 {
            out.push(gen.generate(&data.schema));
        }
    }
    out
}

fn assert_trees_agree(a: &DcTree, b: &DcTree, data: &TpcdData, who: &str) {
    assert_eq!(a.len(), b.len(), "{who}: len mismatch");
    assert_eq!(
        a.total_summary().unwrap(),
        b.total_summary().unwrap(),
        "{who}: total mismatch"
    );
    for (qi, q) in queries(data).iter().enumerate() {
        assert_eq!(
            a.range_summary(q).unwrap(),
            b.range_summary(q).unwrap(),
            "{who}: answer mismatch on query {qi}"
        );
    }
}

fn main() {
    let records: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(200_000);
    let batch_size: usize = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4096);
    if records == 0 || batch_size == 0 {
        eprintln!("usage: ingest_bench [records > 0] [batch_size > 0]");
        std::process::exit(2);
    }

    println!("generating TPC-D cube: {records} lineitems…");
    let data = generate(&TpcdConfig::scaled(records, 42));
    let config = DcTreeConfig::default();

    // Path 1: record-at-a-time — the paper's dynamic insert, one
    // choose-subtree descent per record.
    let mut one_by_one = DcTree::new(data.schema.clone(), config);
    let t0 = Instant::now();
    for r in &data.records {
        one_by_one.insert(r.clone()).expect("insert");
    }
    let single = run_stats("record_at_a_time", records, t0.elapsed());

    // Path 2: batched inserts — hierarchy-sorted batches amortize the
    // descent and defer splits across each run of identical dims.
    let mut batched_tree = DcTree::new(data.schema.clone(), config);
    let t0 = Instant::now();
    for chunk in data.records.chunks(batch_size) {
        batched_tree.insert_batch(chunk.to_vec()).expect("batch");
    }
    let batched = run_stats("batched", records, t0.elapsed());

    // Path 2 as a shard writer runs it: a snapshot held after every
    // batch, so the next batch copies whatever it changes that the
    // snapshot shares.
    let mut published_tree = DcTree::new(data.schema.clone(), config);
    let mut snapshot = None;
    let t0 = Instant::now();
    for chunk in data.records.chunks(PUBLISH_BATCH) {
        published_tree.insert_batch(chunk.to_vec()).expect("batch");
        snapshot = Some(published_tree.clone());
    }
    let with_publish = run_stats("batched_with_publish", records, t0.elapsed());
    drop(snapshot);
    let copied: CopiedBytes = published_tree.metrics().copied;
    let per_record = |bytes: u64| bytes as f64 / records as f64;

    // Path 3: bottom-up bulk load — sort once, pack leaves to the fill
    // factor, build directory levels upward with exact aggregates.
    let mut bulk_tree = DcTree::new(data.schema.clone(), config);
    let t0 = Instant::now();
    bulk_tree.bulk_load(data.records.clone()).expect("bulk");
    let bulk = run_stats("bulk_load", records, t0.elapsed());

    // All three must be query-identical, and the bulk-built tree must
    // satisfy every structural invariant.
    bulk_tree.check_invariants().expect("bulk invariants");
    batched_tree.check_invariants().expect("batch invariants");
    assert_trees_agree(&batched_tree, &one_by_one, &data, "batched");
    assert_trees_agree(&bulk_tree, &one_by_one, &data, "bulk");
    assert_trees_agree(&published_tree, &one_by_one, &data, "with publish");

    // Path 4: the engine's INSERT_BATCH writer path end to end — raw-path
    // interning, shard routing, one command per shard per batch — timed to
    // queryable (flush barrier included).
    let engine = ShardedDcTree::new(
        data.schema.clone(),
        EngineConfig {
            num_shards: 4,
            policy: PartitionPolicy::Hash,
            ..Default::default()
        },
    )
    .expect("engine");
    let t0 = Instant::now();
    for chunk in data.records.chunks(batch_size) {
        let batch: Vec<_> = chunk
            .iter()
            .map(|r| (data.paths_for(r), r.measure))
            .collect();
        engine.insert_batch_raw(&batch).expect("engine batch");
    }
    engine.flush();
    let engine_batched = run_stats("engine_batched", records, t0.elapsed());
    assert_eq!(engine.len(), records as u64, "engine lost records");
    let all = Mds::all(&data.schema);
    assert_eq!(
        engine.range_summary(&all).unwrap(),
        one_by_one.range_summary(&all).unwrap(),
        "engine total mismatch"
    );
    // One record, then the barrier, on the fully loaded engine: the apply,
    // the publish and the ack. Snapshots share the tree's nodes, so this
    // must not grow with the cube.
    let mut trickle: Vec<Duration> = data
        .records
        .iter()
        .take(64)
        .map(|r| {
            let t0 = Instant::now();
            engine
                .insert_raw(&data.paths_for(r), r.measure)
                .expect("engine insert");
            engine.flush();
            t0.elapsed()
        })
        .collect();
    trickle.sort_unstable();
    let flush_after_one_insert_us = trickle[trickle.len() / 2].as_secs_f64() * 1e6;
    engine.shutdown();

    let runs = [&single, &batched, &with_publish, &bulk, &engine_batched];
    println!(
        "\n{:>18} {:>14} {:>12} {:>18}",
        "path", "records/s", "µs/record", "time-to-queryable"
    );
    for r in runs {
        println!(
            "{:>18} {:>14.0} {:>12.3} {:>18?}",
            r.name, r.records_per_sec, r.us_per_record, r.time_to_queryable
        );
    }
    let bulk_speedup = bulk.records_per_sec / single.records_per_sec;
    let batch_speedup = batched.records_per_sec / single.records_per_sec;
    let split_ms = |tree: &DcTree| tree.metrics().split_nanos as f64 / 1e6;
    let choose_ms = |tree: &DcTree| tree.metrics().choose_nanos as f64 / 1e6;
    println!(
        "\nbulk load: {bulk_speedup:.2}x record-at-a-time   batched: {batch_speedup:.2}x   \
         split time: {:.0} ms record-at-a-time, {:.0} ms batched   \
         choose time: {:.0} ms record-at-a-time, {:.0} ms batched",
        split_ms(&one_by_one),
        split_ms(&batched_tree),
        choose_ms(&one_by_one),
        choose_ms(&batched_tree)
    );
    println!(
        "INSERT + FLUSH on the loaded engine: {flush_after_one_insert_us:.0} µs (median of {})",
        trickle.len()
    );
    println!(
        "copied per record with a snapshot per {PUBLISH_BATCH} records: {:.0} B header \
         ({:.0} directory, {:.0} data), {:.0} B payload ({:.0} directory entries, {:.0} records)",
        per_record(copied.header()),
        per_record(copied.dir_header),
        per_record(copied.data_header),
        per_record(copied.payload()),
        per_record(copied.dir_payload),
        per_record(copied.data_payload),
    );

    // JSON report (gated keys are the per-record latencies: lower is
    // better, and they are robust to the CI preset being smaller than the
    // committed baseline's).
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"records\": {records},\n"));
    json.push_str(&format!("  \"batch_size\": {batch_size},\n"));
    for r in runs {
        json.push_str(&format!(
            "  \"{}_records_per_sec\": {:.1},\n",
            r.name, r.records_per_sec
        ));
    }
    json.push_str(&format!(
        "  \"record_at_a_time_us_per_record\": {:.4},\n",
        single.us_per_record
    ));
    json.push_str(&format!(
        "  \"batched_us_per_record\": {:.4},\n",
        batched.us_per_record
    ));
    json.push_str(&format!(
        "  \"batched_with_publish_us_per_record\": {:.4},\n",
        with_publish.us_per_record
    ));
    json.push_str(&format!(
        "  \"publish_copied_header_bytes_per_record\": {:.1},\n",
        per_record(copied.header())
    ));
    json.push_str(&format!(
        "  \"publish_copied_payload_bytes_per_record\": {:.1},\n",
        per_record(copied.payload())
    ));
    json.push_str(&format!(
        "  \"bulk_us_per_record\": {:.4},\n",
        bulk.us_per_record
    ));
    json.push_str(&format!(
        "  \"engine_batched_us_per_record\": {:.4},\n",
        engine_batched.us_per_record
    ));
    json.push_str(&format!(
        "  \"flush_after_one_insert_us\": {flush_after_one_insert_us:.1},\n"
    ));
    json.push_str(&format!(
        "  \"record_at_a_time_split_ms\": {:.2},\n",
        split_ms(&one_by_one)
    ));
    json.push_str(&format!(
        "  \"batched_split_ms\": {:.2},\n",
        split_ms(&batched_tree)
    ));
    json.push_str(&format!(
        "  \"record_at_a_time_choose_ms\": {:.2},\n",
        choose_ms(&one_by_one)
    ));
    json.push_str(&format!(
        "  \"batched_choose_ms\": {:.2},\n",
        choose_ms(&batched_tree)
    ));
    json.push_str(&format!(
        "  \"bulk_time_to_queryable_ms\": {:.2},\n",
        bulk.time_to_queryable.as_secs_f64() * 1e3
    ));
    json.push_str(&format!(
        "  \"bulk_speedup_vs_record_at_a_time\": {bulk_speedup:.3},\n"
    ));
    json.push_str(&format!(
        "  \"batched_speedup_vs_record_at_a_time\": {batch_speedup:.3}\n"
    ));
    json.push_str("}\n");

    std::fs::create_dir_all("results").expect("mkdir results");
    let path = "results/ingest_bench.json";
    std::fs::write(path, &json).expect("write report");
    println!("report written to {path}");

    if bulk.us_per_record > batched.us_per_record {
        eprintln!(
            "FAIL: bulk load ({:.3} µs/record) is slower than batched inserts ({:.3} µs/record)",
            bulk.us_per_record, batched.us_per_record
        );
        std::process::exit(1);
    }
}
