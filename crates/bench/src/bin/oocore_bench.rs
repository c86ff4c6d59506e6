//! Out-of-core serving bench (`dc-oocore`): what does it cost to serve a
//! DC-tree cube from disk through a shard's node cache, and how dense are
//! its node pages? Four sections:
//!
//! * **density** — the cube written as one standalone shard: file bytes
//!   (a count, so it repeats exactly) and records per GB.
//! * **write path** — `insert_batch(512)` of the same records into one
//!   disk tree (a node budget of `records / 500 + 3`, about a tenth of the
//!   density file's pages; final flush included) and one resident tree: µs
//!   per record each, and the node decodes + encodes the disk tree paid per
//!   record — a count, so it repeats exactly. The store keeps the nodes a
//!   batch mutates decoded; without that the count is about 2 × height.
//! * **codec** — every node of the resident tree encoded and decoded
//!   (decode fills the node's member blocks): mean µs per node, by kind.
//!   Reported, not gated.
//! * **serving** — the disk-backed engine with a node budget ≥10× below
//!   the dataset's page count vs. the RAM-resident engine, same query
//!   stream (cache off on both, so every query descends): mean latency
//!   and queries/sec, and the nodes the disk engine decoded per query (a
//!   count: the stream is read-only). Disk is expected to lose — the point
//!   is to measure the gap the node cache holds it to while RAM holds 10×
//!   less.
//!
//! Emits `results/oocore_bench.json` (gated keys: `mean_query_us` and
//! `insert_us_per_record`, two occurrences each — disk then resident —
//! `node_codec_ops_per_record` and `file_bytes`).
//!
//! ```sh
//! cargo run --release -p dc-bench --bin oocore_bench [records] [queries]
//! ```

use std::time::Instant;

use dc_common::{DimensionId, TempDir};
use dc_mds::Mds;
use dc_oocore::codec::{decode_node, encode_node};
use dc_oocore::{OocDcTree, OocOptions};
use dc_query::{RangeQueryGen, ValuePick};
use dc_serve::{DiskOptions, EngineConfig, PartitionPolicy, ShardedDcTree, StorageMode};
use dc_storage::BlockConfig;
use dc_tpcd::{generate, TpcdConfig, TpcdData};
use dc_tree::node::Node;
use dc_tree::{DcTree, DcTreeConfig};

const BLOCK: usize = 1024;
const SHARDS: usize = 2;
/// Passes over the tree's nodes the codec section times.
const CODEC_PASSES: usize = 5;

/// Mean µs per node to encode and to decode `nodes`, over
/// [`CODEC_PASSES`] passes.
fn codec_us(nodes: &[Node], num_dims: usize) -> (f64, f64) {
    let pages: Vec<Vec<u8>> = nodes.iter().map(encode_node).collect();
    let t0 = Instant::now();
    for _ in 0..CODEC_PASSES {
        for node in nodes {
            std::hint::black_box(encode_node(node));
        }
    }
    let encode = t0.elapsed();
    let t0 = Instant::now();
    for _ in 0..CODEC_PASSES {
        for page in &pages {
            std::hint::black_box(decode_node(page, num_dims).expect("decode"));
        }
    }
    let decode = t0.elapsed();
    let per_node =
        |d: std::time::Duration| d.as_secs_f64() * 1e6 / (CODEC_PASSES * nodes.len().max(1)) as f64;
    (per_node(encode), per_node(decode))
}

/// Extracts the first integer after `"key":` in hand-rolled STATS JSON.
fn json_u64(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = json
        .find(&pat)
        .unwrap_or_else(|| panic!("{key} missing in stats"));
    json[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

/// The disk engine's node-cache hits and misses (node loads) so far.
fn cache_touches(engine: &ShardedDcTree) -> (u64, u64) {
    let s = engine.stats_json();
    (json_u64(&s, "pool_hits"), json_u64(&s, "pool_misses"))
}

/// Mixed workload: scalar summaries over three selectivities plus a
/// level-1 group-by every fourth query.
fn queries(data: &TpcdData, n: usize) -> Vec<(Mds, Option<DimensionId>)> {
    let mut gens = [
        RangeQueryGen::new(0.01, ValuePick::Scattered, 3),
        RangeQueryGen::new(0.05, ValuePick::Scattered, 4),
        RangeQueryGen::new(0.25, ValuePick::Scattered, 5),
    ];
    (0..n)
        .map(|i| {
            let q = gens[i % gens.len()].generate(&data.schema);
            let group = (i % 4 == 0).then(|| DimensionId((i % data.schema.num_dims()) as u16));
            (q, group)
        })
        .collect()
}

fn run_stream(engine: &ShardedDcTree, stream: &[(Mds, Option<DimensionId>)]) -> f64 {
    let t0 = Instant::now();
    for (q, group) in stream {
        match group {
            None => {
                std::hint::black_box(engine.range_summary(q).expect("query"));
            }
            Some(dim) => {
                std::hint::black_box(engine.group_by(*dim, 1, q).expect("group-by"));
            }
        }
    }
    t0.elapsed().as_secs_f64()
}

fn main() {
    let records: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(40_000);
    let num_queries: usize = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(200);
    if records == 0 || num_queries == 0 {
        eprintln!("usage: oocore_bench [records > 0] [queries > 0]");
        std::process::exit(2);
    }

    println!("generating TPC-D cube: {records} lineitems…");
    let data = generate(&TpcdConfig::scaled(records, 42));

    // ------------------------------------------------------------------
    // Density: one standalone shard.
    // ------------------------------------------------------------------
    let dir = TempDir::new("oocbench-density");
    let tree = OocDcTree::create(
        dir.join("density.dct"),
        data.schema.clone(),
        DcTreeConfig::default(),
        OocOptions {
            block: BlockConfig::new(BLOCK),
            frames: 256,
        },
    )
    .expect("create shard");
    let t0 = Instant::now();
    {
        let mut writer = tree.write();
        for r in &data.records {
            writer.insert(r.clone()).expect("insert");
        }
    }
    tree.flush().expect("flush");
    let file_bytes = tree.file_bytes();
    let records_per_gb = records as f64 * 1e9 / file_bytes as f64;
    println!(
        "density: {file_bytes} bytes, {records_per_gb:.0} records/GB (ingest {:.2}s)",
        t0.elapsed().as_secs_f64()
    );
    drop(tree);

    // ------------------------------------------------------------------
    // Write path: insert_batch into disk pages vs. the arena.
    // ------------------------------------------------------------------
    let total_pages = file_bytes / BLOCK as u64;
    // About a tenth of the density file's pages (≈ 48 records a page),
    // from the record count so that a page-format change cannot move it.
    let write_frames = (records / 500 + 3).max(8);
    let disk_tree = OocDcTree::create(
        dir.join("write_path.dct"),
        data.schema.clone(),
        DcTreeConfig::default(),
        OocOptions {
            block: BlockConfig::new(BLOCK),
            frames: write_frames,
        },
    )
    .expect("create shard");
    let t0 = Instant::now();
    for chunk in data.records.chunks(512) {
        disk_tree
            .write()
            .insert_batch(chunk.to_vec())
            .expect("insert_batch");
    }
    disk_tree.flush().expect("flush");
    let disk_insert_us = t0.elapsed().as_secs_f64() * 1e6 / records as f64;
    let mut resident_tree = DcTree::new(data.schema.clone(), DcTreeConfig::default());
    let t0 = Instant::now();
    for chunk in data.records.chunks(512) {
        resident_tree
            .insert_batch(chunk.to_vec())
            .expect("insert_batch");
    }
    let resident_insert_us = t0.elapsed().as_secs_f64() * 1e6 / records as f64;
    assert_eq!(disk_tree.read().num_nodes(), resident_tree.num_nodes());
    let codec = disk_tree.pool_stats();
    let codec_ops = (codec.misses + codec.writebacks) as f64 / records as f64;
    println!(
        "\nwrite path ({write_frames} cached nodes, height {}): disk {disk_insert_us:.1} µs/record, \
         resident {resident_insert_us:.1} µs/record, {codec_ops:.3} node decodes + encodes per record",
        resident_tree.height()
    );
    let write_rows = [("disk", disk_insert_us), ("resident", resident_insert_us)];

    // ------------------------------------------------------------------
    // Codec: what a page costs to write and to read back, by node kind.
    // ------------------------------------------------------------------
    let (mut data_nodes, mut dir_nodes) = (Vec::new(), Vec::new());
    resident_tree
        .for_each_node(|_, _, node| {
            let kind = if node.is_data() {
                &mut data_nodes
            } else {
                &mut dir_nodes
            };
            kind.push(node.clone());
        })
        .expect("walk");
    let num_dims = data.schema.num_dims();
    let codec_rows = [
        ("data", data_nodes.len(), codec_us(&data_nodes, num_dims)),
        ("dir", dir_nodes.len(), codec_us(&dir_nodes, num_dims)),
    ];
    println!();
    for (kind, nodes, (encode, decode)) in codec_rows {
        println!(
            "codec, {kind:>4} nodes ({nodes}): decode {decode:.2} µs/node, encode {encode:.2} µs/node"
        );
    }
    drop((disk_tree, resident_tree, data_nodes, dir_nodes));

    // ------------------------------------------------------------------
    // Serving: disk at ≥10× the node budget vs. RAM-resident.
    // ------------------------------------------------------------------
    let frames = ((total_pages / (10 * SHARDS as u64)) as usize).max(8);
    let over_budget = total_pages as f64 / (frames * SHARDS) as f64;
    println!(
        "\nserving: {total_pages} pages over {SHARDS}×{frames} cached nodes \
         ({over_budget:.1}x the budget), {num_queries} queries, cache off"
    );

    let build = |storage: StorageMode| -> ShardedDcTree {
        let engine = ShardedDcTree::new(
            data.schema.clone(),
            EngineConfig {
                num_shards: SHARDS,
                policy: PartitionPolicy::Hash,
                cache: None,
                storage,
                ..Default::default()
            },
        )
        .expect("engine");
        for r in &data.records {
            engine
                .insert_raw(&data.paths_for(r), r.measure)
                .expect("insert");
        }
        engine.flush();
        engine
    };
    let serve_dir = TempDir::new("oocbench-serve");
    let disk = build(StorageMode::Disk(DiskOptions {
        dir: serve_dir.to_path_buf(),
        ooc: OocOptions {
            block: BlockConfig::new(BLOCK),
            frames,
        },
    }));
    let resident = build(StorageMode::Resident);

    let stream = queries(&data, num_queries);
    let mut rows = Vec::new();
    let mut node_loads = 0.0;
    for (mode, engine) in [("disk", &disk), ("resident", &resident)] {
        // Warmup: decode the spine, size per-thread scratch.
        run_stream(engine, &stream[..stream.len().min(8)]);
        let misses = || engine.is_disk().then(|| cache_touches(engine).1);
        let before = misses();
        let secs = run_stream(engine, &stream);
        if let (Some(before), Some(after)) = (before, misses()) {
            node_loads = (after - before) as f64 / stream.len() as f64;
        }
        let mean_query_us = secs * 1e6 / stream.len() as f64;
        let qps = stream.len() as f64 / secs;
        println!("{mode:>12}: {mean_query_us:>10.1} µs/query, {qps:>10.0} q/s");
        rows.push((mode, mean_query_us, qps));
    }
    let slowdown = rows[0].1 / rows[1].1;
    println!("{:>12}: {slowdown:.1}x resident latency", "disk pays");
    println!("{:>12}: {node_loads:.1} node loads per query", "disk");

    let stats = disk.stats_json();
    let (hits, misses) = (
        json_u64(&stats, "pool_hits"),
        json_u64(&stats, "pool_misses"),
    );

    // JSON report.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"records\": {records},\n"));
    json.push_str(&format!("  \"queries\": {num_queries},\n"));
    json.push_str(&format!(
        "  \"density\": {{\"file_bytes\": {file_bytes}, \
         \"records_per_gb\": {records_per_gb:.0}}},\n"
    ));
    json.push_str("  \"write_path\": [\n");
    for (i, (mode, us)) in write_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{mode}\", \"insert_us_per_record\": {us:.2}}}{}\n",
            if i + 1 < write_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"node_codec_ops_per_record\": {codec_ops:.3},\n"
    ));
    json.push_str("  \"codec\": [\n");
    for (i, (kind, nodes, (encode, decode))) in codec_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"kind\": \"{kind}\", \"nodes\": {nodes}, \"decode_us_per_node\": {decode:.2}, \
             \"encode_us_per_node\": {encode:.2}}}{}\n",
            if i + 1 < codec_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"frames_per_shard\": {frames},\n"));
    json.push_str(&format!("  \"dataset_over_budget_x\": {over_budget:.1},\n"));
    json.push_str("  \"serving\": [\n");
    for (i, (mode, us, qps)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{mode}\", \"mean_query_us\": {us:.1}, \"qps\": {qps:.0}}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"disk_slowdown_x\": {slowdown:.2},\n"));
    json.push_str(&format!("  \"node_loads_per_query\": {node_loads:.1},\n"));
    json.push_str(&format!(
        "  \"pool\": {{\"hits\": {hits}, \"misses\": {misses}}}\n"
    ));
    json.push_str("}\n");

    std::fs::create_dir_all("results").expect("mkdir results");
    let path = "results/oocore_bench.json";
    std::fs::write(path, &json).expect("write report");
    println!("report written to {path}");

    // Sanity: the bench must actually have run out-of-core.
    if over_budget < 10.0 {
        eprintln!(
            "FAIL: dataset only {over_budget:.1}x the node budget — raise [records] \
             so the serving section measures disk, not RAM"
        );
        std::process::exit(1);
    }
}
