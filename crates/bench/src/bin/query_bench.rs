//! Query-executor microbench: a selectivity × shards × pool-workers matrix
//! over the TPC-D cube, measuring per-query latency of the scatter-gather
//! path itself (cache disabled), plus an allocation audit proving the
//! steady-state `range_summary` path performs **zero heap allocations per
//! shard visit**: a counting global allocator tracks allocations per query
//! at 1 and 4 shards on the sequential path, and the bench exits non-zero
//! if the count grows with the number of visited shards.
//!
//! It also reports `in_place_over_compacted`: the same queries on a tree
//! grown by `insert_batch` and on `tree.copy_to(Arena::default())`, the
//! same tree copied into a fresh arena. Snapshots share the writer's
//! nodes, so readers are served the layout incremental growth leaves
//! behind; the ratio drifting above 1 says a change re-fragmented it.
//!
//! Emits a JSON report to `results/query_bench.json` (consumed by
//! `bench_gate`).
//!
//! ```sh
//! cargo run --release -p dc-bench --bin query_bench [records] [queries_per_cell]
//! ```

use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

use dc_common::DimensionId;
use dc_query::{RangeQueryGen, ValuePick};
use dc_serve::{EngineConfig, PartitionPolicy, ShardedDcTree};
use dc_tpcd::{generate, TpcdConfig, TpcdData};
use dc_tree::{Arena, DcTree, DcTreeConfig};

/// Counts every heap acquisition (allocation or reallocation) on every
/// thread in `ALLOCS`. Frees are not counted: the steady-state claim is
/// about taking memory on the query path, and the preparation scratch
/// recycles its buffers instead of freeing them.
#[path = "../../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::ALLOCS;

const SELECTIVITIES: [f64; 3] = [0.01, 0.05, 0.25];
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
/// Fixed (not sized by the host) so the report shape is identical across
/// machines — `bench_gate` matches values by position.
const POOL_WORKERS: [usize; 2] = [0, 2];

struct Cell {
    shards: usize,
    workers: usize,
    sel: f64,
    mean_us: f64,
    p50_us: f64,
    p99_us: f64,
    fanout: f64,
    allocs_per_query: f64,
}

fn quantile_us(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx].as_secs_f64() * 1e6
}

/// One engine (shards × workers), measured at every selectivity.
fn bench_engine(data: &TpcdData, shards: usize, workers: usize, queries: usize) -> Vec<Cell> {
    let dim = DimensionId(0); // Customer: Region is the top functional level
    let level = data.schema.dim(dim).top_level() - 1;
    let engine = ShardedDcTree::new(
        data.schema.clone(),
        EngineConfig {
            num_shards: shards,
            policy: PartitionPolicy::ByDimension { dim, level },
            pool_workers: Some(workers),
            // The cache would absorb descents and hide the executor; this
            // bench measures the scatter-gather path itself.
            cache: None,
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

    let mut cells = Vec::new();
    for (i, &sel) in SELECTIVITIES.iter().enumerate() {
        let mut gen = RangeQueryGen::new(sel, ValuePick::ContiguousRun, 7 + i as u64);
        let qs: Vec<_> = (0..queries).map(|_| gen.generate(&data.schema)).collect();
        // Warmup pass: faults in the shard snapshots and fills the
        // thread-local preparation scratch (the word pool and level
        // buffers), so the measured pass below is steady-state.
        for q in &qs {
            std::hint::black_box(engine.range_summary(q).expect("query"));
        }
        let visits0 = engine.metrics().shard_visits.load(Relaxed);
        let mut lat: Vec<Duration> = Vec::with_capacity(qs.len());
        let a0 = ALLOCS.load(Relaxed);
        let t0 = Instant::now();
        for q in &qs {
            let q0 = Instant::now();
            std::hint::black_box(engine.range_summary(q).expect("query"));
            lat.push(q0.elapsed()); // within capacity: no allocation
        }
        let total = t0.elapsed();
        let allocs = ALLOCS.load(Relaxed) - a0;
        let visits = engine.metrics().shard_visits.load(Relaxed) - visits0;
        lat.sort_unstable();
        cells.push(Cell {
            shards,
            workers,
            sel,
            mean_us: total.as_secs_f64() * 1e6 / qs.len() as f64,
            p50_us: quantile_us(&lat, 0.50),
            p99_us: quantile_us(&lat, 0.99),
            fanout: visits as f64 / qs.len() as f64,
            allocs_per_query: allocs as f64 / qs.len() as f64,
        });
    }
    engine.shutdown();
    cells
}

/// Mean query time on a tree built in place by `insert_batch` over the mean
/// on its copy in a fresh arena — same nodes, same queries, same answers.
/// Each side's figure is the median over alternating rounds.
fn in_place_over_compacted(data: &TpcdData, queries: usize) -> f64 {
    const ROUNDS: usize = 7;
    let mut built = DcTree::new(data.schema.clone(), DcTreeConfig::default());
    for chunk in data.records.chunks(512) {
        built.insert_batch(chunk.to_vec()).expect("batch");
    }
    let compacted = built.copy_to(Arena::default()).expect("copy");
    let qs: Vec<_> = SELECTIVITIES
        .iter()
        .enumerate()
        .flat_map(|(i, &sel)| {
            let mut gen = RangeQueryGen::new(sel, ValuePick::ContiguousRun, 7 + i as u64);
            (0..queries)
                .map(|_| gen.generate(&data.schema))
                .collect::<Vec<_>>()
        })
        .collect();
    for q in &qs {
        assert_eq!(
            built.range_summary(q).expect("query"),
            compacted.range_summary(q).expect("query"),
        );
    }
    let round = |tree: &DcTree| {
        let t0 = Instant::now();
        for q in &qs {
            std::hint::black_box(tree.range_summary(q).expect("query"));
        }
        t0.elapsed()
    };
    let (mut in_place, mut fresh) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        in_place.push(round(&built));
        fresh.push(round(&compacted));
    }
    in_place.sort_unstable();
    fresh.sort_unstable();
    in_place[ROUNDS / 2].as_secs_f64() / fresh[ROUNDS / 2].as_secs_f64()
}

/// Mean `allocs_per_query` / `fanout` across the sequential (workers = 0)
/// cells at a given shard count.
fn sequential_profile(cells: &[Cell], shards: usize) -> (f64, f64) {
    let seq: Vec<&Cell> = cells
        .iter()
        .filter(|c| c.workers == 0 && c.shards == shards)
        .collect();
    let n = seq.len() as f64;
    (
        seq.iter().map(|c| c.allocs_per_query).sum::<f64>() / n,
        seq.iter().map(|c| c.fanout).sum::<f64>() / n,
    )
}

fn main() {
    let records: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(50_000);
    let queries: usize = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(150);
    if records == 0 || queries == 0 {
        eprintln!("usage: query_bench [records > 0] [queries_per_cell > 0]");
        std::process::exit(2);
    }

    println!("generating TPC-D cube: {records} lineitems…");
    let data = generate(&TpcdConfig::scaled(records, 42));
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    println!(
        "\nexecutor matrix: shards {SHARD_COUNTS:?} × pool workers {POOL_WORKERS:?} × \
         selectivity {SELECTIVITIES:?}, {queries} queries/cell, cache off ({cores} core(s))"
    );
    println!(
        "{:>7} {:>8} {:>6} {:>11} {:>10} {:>10} {:>8} {:>13}",
        "shards", "workers", "sel", "mean µs", "p50 µs", "p99 µs", "fanout", "allocs/query"
    );
    let mut cells: Vec<Cell> = Vec::new();
    for &shards in &SHARD_COUNTS {
        for &workers in &POOL_WORKERS {
            let engine_cells = bench_engine(&data, shards, workers, queries);
            for c in &engine_cells {
                println!(
                    "{:>7} {:>8} {:>6} {:>11.1} {:>10.1} {:>10.1} {:>8.2} {:>13.1}",
                    c.shards,
                    c.workers,
                    c.sel,
                    c.mean_us,
                    c.p50_us,
                    c.p99_us,
                    c.fanout,
                    c.allocs_per_query
                );
            }
            cells.extend(engine_cells);
        }
    }

    // The zero-allocation audit: on the sequential path the per-query
    // allocation count is a constant (range preparation + a handful of
    // pre-sized gather vectors), so it must not grow as queries visit more
    // shards. Divide any growth by the extra shard visits to state it in
    // the acceptance criterion's unit.
    let (apq_1, fanout_1) = sequential_profile(&cells, 1);
    let (apq_4, fanout_4) = sequential_profile(&cells, 4);
    let extra_visits = fanout_4 - fanout_1;
    let per_extra_visit = if extra_visits > 0.25 {
        (apq_4 - apq_1) / extra_visits
    } else {
        // Degenerate workload (fanout barely grew): fall back to the raw
        // per-query delta, which the check below still bounds at ~zero.
        apq_4 - apq_1
    };
    println!(
        "\nsequential alloc audit — allocs/query: {apq_1:.2} @ 1 shard, {apq_4:.2} @ 4 shards \
         ({extra_visits:.2} extra visits/query) → {per_extra_visit:.4} allocs per extra shard visit"
    );
    // The property is "allocations do not grow with shard visits". A
    // negative slope (fewer allocations per query at 4 shards than at 1,
    // as small presets measure) is not growth, so only the positive side
    // fails; the report says which side of zero the slope fell on.
    let zero_alloc = per_extra_visit < 0.01;
    let slope = if !zero_alloc {
        "grows"
    } else if per_extra_visit > -0.01 {
        "flat"
    } else {
        "shrinks"
    };
    if zero_alloc {
        println!("PASS: steady-state range queries allocate nothing per shard visit ({slope})");
    }

    let layout_ratio = in_place_over_compacted(&data, queries);
    println!(
        "in-place over compacted: {layout_ratio:.3} (mean query time, tree grown by insert_batch \
         ÷ the same tree copied into a fresh arena)"
    );

    // JSON report.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"records\": {records},\n"));
    json.push_str(&format!("  \"queries_per_cell\": {queries},\n"));
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str(&format!(
        "  \"in_place_over_compacted\": {layout_ratio:.3},\n"
    ));
    json.push_str("  \"selectivities\": [0.01, 0.05, 0.25],\n");
    json.push_str("  \"partitioning\": \"ByDimension(Customer.Region)\",\n");
    json.push_str("  \"cache\": false,\n");
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shards\": {}, \"pool_workers\": {}, \"selectivity\": {}, \
             \"mean_query_us\": {:.1}, \"query_p50_us\": {:.1}, \"query_p99_us\": {:.1}, \
             \"avg_shards_visited\": {:.2}, \"allocs_per_query\": {:.1}}}{}\n",
            c.shards,
            c.workers,
            c.sel,
            c.mean_us,
            c.p50_us,
            c.p99_us,
            c.fanout,
            c.allocs_per_query,
            if i + 1 < cells.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"alloc_check\": {\n");
    json.push_str(&format!(
        "    \"sequential_allocs_per_query_1_shard\": {apq_1:.2},\n"
    ));
    json.push_str(&format!(
        "    \"sequential_allocs_per_query_4_shards\": {apq_4:.2},\n"
    ));
    json.push_str(&format!(
        "    \"extra_shard_visits_per_query\": {extra_visits:.2},\n"
    ));
    json.push_str(&format!(
        "    \"allocs_per_extra_shard_visit\": {per_extra_visit:.4},\n"
    ));
    json.push_str(&format!(
        "    \"zero_alloc_per_shard_visit\": {zero_alloc},\n"
    ));
    json.push_str(&format!("    \"alloc_slope\": \"{slope}\"\n"));
    json.push_str("  }\n");
    json.push_str("}\n");

    std::fs::create_dir_all("results").expect("mkdir results");
    let path = "results/query_bench.json";
    std::fs::write(path, &json).expect("write report");
    println!("report written to {path}");

    if !zero_alloc {
        eprintln!(
            "FAIL: sequential range queries allocated {per_extra_visit:.4} times per extra \
             shard visit — the steady-state query path is supposed to reuse the thread-local \
             preparation scratch and pre-sized gather buffers instead of allocating"
        );
        std::process::exit(1);
    }
}
