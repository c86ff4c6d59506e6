//! Cost-based-planner bench: the same statement stream executed twice —
//! once through the planner (`execute`, free to pick descent or a
//! materialized view per shard) and once pinned to always-descend
//! (the engine's only strategy before `dc-plan`). Three workloads:
//!
//! * `coarse_rollups` — unfiltered `GROUP BY` at the coarsest functional
//!   level of each dimension: the view lattice answers these from a handful
//!   of cells, descent walks the whole tree. The planner must win here
//!   (that gap is this bench's pass/fail criterion).
//! * `selective_scalars` — 1%-selectivity filtered scalars: descent is
//!   already optimal, so the planner's job is to *match* it (its overhead
//!   is the cost model, bounded by the `max_overhead` check).
//! * `zipf_mix` — the dashboard shape mix (scalar + grouped + multi-measure
//!   at Zipf-skewed popularity), the realistic blend.
//!
//! Emits `results/plan_bench.json` (consumed by `bench_gate`; the gated key
//! is `planner_mean_us`) plus the planner's own STATS counters so the
//! misprediction rate is visible in CI artifacts.
//!
//! ```sh
//! cargo run --release -p dc-bench --bin plan_bench [records] [queries_per_workload]
//! ```

use std::time::Instant;

use dc_common::{AggregateOp, DimensionId};
use dc_mds::Mds;
use dc_plan::Backend;
use dc_ql::ParsedStatement;
use dc_query::{QueryShape, RangeQueryGen, ValuePick, ZipfQueryMix};
use dc_serve::{EngineConfig, PartitionPolicy, PlannerOptions, ShardedDcTree};
use dc_tpcd::{generate, TpcdConfig};

struct Workload {
    name: &'static str,
    statements: Vec<ParsedStatement>,
    /// The planner must beat always-descend here.
    must_win: bool,
}

struct Row {
    name: &'static str,
    planner_mean_us: f64,
    descend_mean_us: f64,
    speedup: f64,
    must_win: bool,
}

fn stmt(shape: QueryShape) -> ParsedStatement {
    ParsedStatement {
        ops: shape.ops,
        filter: shape.filter,
        group_by: shape.group_by,
        top: None,
        joins: Vec::new(),
    }
}

fn mean_us(total_secs: f64, n: usize) -> f64 {
    total_secs * 1e6 / n as f64
}

fn main() {
    let records: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(50_000);
    let queries: usize = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(200);
    if records == 0 || queries == 0 {
        eprintln!("usage: plan_bench [records > 0] [queries_per_workload > 0]");
        std::process::exit(2);
    }

    println!("generating TPC-D cube: {records} lineitems…");
    let data = generate(&TpcdConfig::scaled(records, 42));
    let engine = ShardedDcTree::new(
        data.schema.clone(),
        EngineConfig {
            num_shards: 2,
            policy: PartitionPolicy::Hash,
            planner: Some(PlannerOptions),
            // The cache would answer repeats before the planner runs; this
            // bench measures backend choice, not caching.
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

    // Workload construction (deterministic).
    let mut workloads = Vec::new();
    {
        // Coarsest functional roll-up of each dimension, unfiltered,
        // cycled until `queries` statements.
        let mut statements = Vec::with_capacity(queries);
        let dims = data.schema.num_dims();
        for i in 0..queries {
            let dim = DimensionId((i % dims) as u16);
            let level = data.schema.dim(dim).top_level() - 1;
            statements.push(stmt(QueryShape {
                filter: Mds::all(&data.schema),
                group_by: Some((dim, level)),
                ops: vec![AggregateOp::Sum, AggregateOp::Count],
            }));
        }
        workloads.push(Workload {
            name: "coarse_rollups",
            statements,
            must_win: true,
        });
    }
    {
        let mut gen = RangeQueryGen::new(0.01, ValuePick::ContiguousRun, 7);
        let statements = (0..queries)
            .map(|_| stmt(QueryShape::scalar_sum(gen.generate(&data.schema))))
            .collect();
        workloads.push(Workload {
            name: "selective_scalars",
            statements,
            must_win: false,
        });
    }
    {
        let mut gen = RangeQueryGen::new(0.05, ValuePick::ContiguousRun, 8);
        let mut mix = ZipfQueryMix::generate_shapes(&data.schema, 64, 0.9, &mut gen, 9);
        let statements = (0..queries)
            .map(|_| stmt(mix.next_shape().clone()))
            .collect();
        workloads.push(Workload {
            name: "zipf_mix",
            statements,
            must_win: false,
        });
    }

    println!(
        "\nplanner vs always-descend: {} workloads × {queries} queries, 2 shards, cache off",
        workloads.len()
    );
    println!(
        "{:>18} {:>14} {:>14} {:>9}",
        "workload", "planner µs", "descend µs", "speedup"
    );

    let mut rows: Vec<Row> = Vec::new();
    for w in &workloads {
        // Warmup: fault in snapshots and per-thread scratch on both paths.
        for s in w.statements.iter().take(16) {
            std::hint::black_box(engine.execute(s).expect("plan warmup"));
            std::hint::black_box(
                engine
                    .execute_forced(s, Backend::Descend)
                    .expect("descend warmup"),
            );
        }
        let t0 = Instant::now();
        for s in &w.statements {
            std::hint::black_box(engine.execute(s).expect("planner query"));
        }
        let planner_mean_us = mean_us(t0.elapsed().as_secs_f64(), w.statements.len());
        let t1 = Instant::now();
        for s in &w.statements {
            std::hint::black_box(
                engine
                    .execute_forced(s, Backend::Descend)
                    .expect("descend query"),
            );
        }
        let descend_mean_us = mean_us(t1.elapsed().as_secs_f64(), w.statements.len());
        let speedup = descend_mean_us / planner_mean_us;
        println!(
            "{:>18} {:>14.1} {:>14.1} {:>8.2}x",
            w.name, planner_mean_us, descend_mean_us, speedup
        );
        rows.push(Row {
            name: w.name,
            planner_mean_us,
            descend_mean_us,
            speedup,
            must_win: w.must_win,
        });
    }

    // Planner counters (misprediction rate is the cost model's honesty
    // metric: estimated vs. measured page reads per planned query).
    let m = engine.metrics();
    let plans = m.plan.plans.load(std::sync::atomic::Ordering::Relaxed);
    let mispredictions = m
        .plan
        .mispredictions
        .load(std::sync::atomic::Ordering::Relaxed);
    let mispredict_rate = if plans > 0 {
        mispredictions as f64 / plans as f64
    } else {
        0.0
    };
    let chose: Vec<(String, u64)> = Backend::ALL
        .iter()
        .map(|&b| {
            (
                b.name().to_string(),
                m.plan.chosen(b).load(std::sync::atomic::Ordering::Relaxed),
            )
        })
        .collect();
    println!(
        "\nplanner counters: {plans} plans, chose {:?}, misprediction rate {:.1}%",
        chose,
        mispredict_rate * 100.0
    );

    let wins = rows.iter().all(|r| !r.must_win || r.speedup > 1.0);
    // On workloads where descend is already optimal the planner may only
    // add bounded overhead (cost model + stats reads), not multiples.
    let max_overhead = rows
        .iter()
        .filter(|r| !r.must_win)
        .map(|r| 1.0 / r.speedup)
        .fold(0.0f64, f64::max);

    // JSON report.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"records\": {records},\n"));
    json.push_str(&format!("  \"queries_per_workload\": {queries},\n"));
    json.push_str("  \"shards\": 2,\n");
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"planner_mean_us\": {:.1}, \"descend_mean_us\": {:.1}, \
             \"planner_speedup\": {:.3}, \"must_win\": {}}}{}\n",
            r.name,
            r.planner_mean_us,
            r.descend_mean_us,
            r.speedup,
            r.must_win,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"planner_counters\": {\n");
    json.push_str(&format!("    \"plans\": {plans},\n"));
    json.push_str("    \"chose\": {");
    for (i, (name, n)) in chose.iter().enumerate() {
        json.push_str(&format!(
            "\"{name}\": {n}{}",
            if i + 1 < chose.len() { ", " } else { "" }
        ));
    }
    json.push_str("},\n");
    json.push_str(&format!(
        "    \"misprediction_rate\": {mispredict_rate:.3}\n"
    ));
    json.push_str("  },\n");
    json.push_str(&format!("  \"planner_beats_descend_on_rollups\": {wins}\n"));
    json.push_str("}\n");

    std::fs::create_dir_all("results").expect("mkdir results");
    let path = "results/plan_bench.json";
    std::fs::write(path, &json).expect("write report");
    println!("report written to {path}");

    engine.shutdown();

    if !wins {
        eprintln!(
            "FAIL: the cost-based planner did not beat always-descend on the coarse \
             roll-up workload — the view lattice should answer those from O(groups) cells"
        );
        std::process::exit(1);
    }
    if max_overhead > 2.0 {
        eprintln!(
            "FAIL: planner overhead {max_overhead:.2}x on a descend-optimal workload — \
             the cost model should route those straight to descent at near-zero cost"
        );
        std::process::exit(1);
    }
    println!("PASS: planner beats always-descend on roll-ups, matches it when descent is optimal");
}
