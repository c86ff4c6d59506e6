//! Benchmarks segment-shipping replication for the sharded serving engine:
//! how fast a fresh follower catches up on an existing log, how stale a
//! tailing follower's reads are while the primary ingests, and how long
//! promotion to a writable primary takes.
//!
//! Three phases over one WAL-backed primary:
//!
//! * **catch-up** — ingest the cube, then bootstrap a follower from
//!   scratch and drain the whole log (`catchup_ms`, entries/s);
//! * **freshness** — with the follower tailing, run rounds of inserts and
//!   measure, per round, how long after the primary's `FLUSH` the
//!   follower's applied-and-visible frontier reaches the flushed LSN
//!   (`mean_lag_ms` / `p95_lag_ms`);
//! * **promotion** — stop tailing and promote the follower into a
//!   writable primary over its mirrored directory (`promotion_ms`).
//!
//! Emits a JSON report to `results/replication_bench.json`; the
//! `catchup_ms`, `mean_lag_ms`, and `promotion_ms` values are watched by
//! the bench-regression gate (`bench_gate`).
//!
//! ```sh
//! cargo run --release -p dc-bench --bin replication_bench [records]
//! ```

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dc_common::TempDir;
use dc_replica::{EngineSource, Follower, FollowerConfig};
use dc_serve::{EngineConfig, ShardedDcTree, SyncPolicy, WalOptions};
use dc_tpcd::{generate, TpcdConfig, TpcdData};

const SHARDS: usize = 2;
const ROUNDS: usize = 50;
const BATCH: usize = 20;

fn wal_config(dir: &Path) -> EngineConfig {
    EngineConfig {
        num_shards: SHARDS,
        wal: Some(WalOptions {
            sync: SyncPolicy::GroupCommitMs(2),
            segment_bytes: 256 << 10,
            checkpoint_every: 0,
            ..WalOptions::new(dir)
        }),
        ..EngineConfig::default()
    }
}

fn main() {
    let records: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(50_000);
    if records < 100 {
        eprintln!("usage: replication_bench [records >= 100]");
        std::process::exit(2);
    }

    println!("generating TPC-D cube: {records} lineitems…");
    let data: TpcdData = generate(&TpcdConfig::scaled(records, 17));

    let primary_dir = TempDir::new("repl-bench-primary");
    let follower_dir = TempDir::new("repl-bench-follower");

    let primary = Arc::new(
        ShardedDcTree::new(data.schema.clone(), wal_config(&primary_dir)).expect("open primary"),
    );

    // Phase 1: ingest, then cold catch-up of the full log.
    let t0 = Instant::now();
    for r in &data.records {
        primary
            .insert_raw(&data.paths_for(r), r.measure)
            .expect("insert");
    }
    primary.flush();
    let ingest = t0.elapsed();
    let log_lsn = primary.applied_lsn();

    let t0 = Instant::now();
    let follower = Arc::new(
        Follower::bootstrap(
            EngineSource(Arc::clone(&primary)),
            data.schema.clone(),
            FollowerConfig {
                poll_interval: Duration::from_millis(1),
                ..FollowerConfig::new(&follower_dir)
            },
        )
        .expect("bootstrap follower"),
    );
    let caught = follower.catch_up().expect("catch up");
    let catchup = t0.elapsed();
    assert_eq!(caught, log_lsn, "catch-up drained the whole log");
    assert_eq!(follower.engine().len(), primary.len(), "record counts");
    let catchup_ms = catchup.as_secs_f64() * 1e3;
    let catchup_per_sec = log_lsn as f64 / catchup.as_secs_f64();

    // Phase 2: freshness lag while tailing. Each round appends a batch,
    // flushes, and times the follower's frontier reaching the flushed LSN.
    follower.start_tailing();
    let mut lags_ms: Vec<f64> = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        for i in 0..BATCH {
            let r = &data.records[(round * BATCH + i) % data.records.len()];
            primary
                .insert_raw(&data.paths_for(r), r.measure)
                .expect("insert");
        }
        primary.flush();
        let lsn = primary.applied_lsn();
        let t0 = Instant::now();
        follower
            .engine()
            .wait_lsn(lsn, Duration::from_secs(30))
            .expect("follower frontier");
        lags_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let mean_lag_ms = lags_ms.iter().sum::<f64>() / lags_ms.len() as f64;
    let mut sorted = lags_ms.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let p95_lag_ms = sorted[(sorted.len() * 95 / 100).min(sorted.len() - 1)];

    // Phase 3: promotion.
    follower.stop_tailing();
    let final_len = primary.len();
    primary.shutdown();
    let t0 = Instant::now();
    let promoted = Arc::try_unwrap(follower)
        .ok()
        .expect("sole follower handle")
        .promote()
        .expect("promote");
    let promotion_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(promoted.len(), final_len, "promotion lost records");
    promoted
        .insert_raw(&data.paths_for(&data.records[0]), data.records[0].measure)
        .expect("promoted engine is writable");
    promoted.flush();
    promoted.shutdown();

    println!(
        "\n{:>12} {:>14} {:>14} {:>14} {:>12} {:>12}",
        "ingest rec/s", "catchup ms", "catchup e/s", "mean lag ms", "p95 lag ms", "promote ms"
    );
    println!(
        "{:>12.0} {:>14.2} {:>14.0} {:>14.3} {:>12.3} {:>12.2}",
        records as f64 / ingest.as_secs_f64(),
        catchup_ms,
        catchup_per_sec,
        mean_lag_ms,
        p95_lag_ms,
        promotion_ms
    );

    let json = format!(
        "{{\n  \"records\": {records},\n  \"shards\": {SHARDS},\n  \
         \"log_entries\": {log_lsn},\n  \
         \"catchup_ms\": {catchup_ms:.2},\n  \
         \"catchup_entries_per_sec\": {catchup_per_sec:.1},\n  \
         \"rounds\": {ROUNDS},\n  \"batch\": {BATCH},\n  \
         \"mean_lag_ms\": {mean_lag_ms:.3},\n  \
         \"p95_lag_ms\": {p95_lag_ms:.3},\n  \
         \"promotion_ms\": {promotion_ms:.2}\n}}\n"
    );

    std::fs::create_dir_all("results").expect("mkdir results");
    let path = "results/replication_bench.json";
    std::fs::write(path, &json).expect("write report");
    println!("report written to {path}");
}
