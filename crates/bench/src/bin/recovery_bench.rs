//! Benchmarks WAL recovery for the sharded serving engine: how long a cold
//! reopen takes, and how checkpoint cadence trades ingest-side work for
//! replay at recovery time. Ingests the cube into a WAL-backed
//! [`ShardedDcTree`], shuts it down cleanly, and times `ShardedDcTree::new`
//! over the surviving directory — once per checkpoint cadence:
//!
//! * `checkpoint_every = 0` — no checkpoints; recovery replays every entry;
//! * `records / 20` — aggressive; recovery is checkpoint load + a short tail;
//! * `records / 5` — relaxed; the middle of the trade-off.
//!
//! Emits a JSON report to `results/recovery_bench.json`; the `recovery_ms`
//! values are watched by the bench-regression gate (`bench_gate`).
//!
//! ```sh
//! cargo run --release -p dc-bench --bin recovery_bench [records]
//! ```

use std::path::Path;
use std::sync::atomic::Ordering::Relaxed;
use std::time::Instant;

use dc_common::TempDir;
use dc_serve::{EngineConfig, ShardedDcTree, SyncPolicy, WalOptions};
use dc_tpcd::{generate, TpcdConfig, TpcdData};

const SHARDS: usize = 2;

struct Run {
    checkpoint_every: u64,
    ingest_per_sec: f64,
    checkpoints: u64,
    wal_rotations: u64,
    recovery_ms: f64,
    replayed_entries: u64,
    checkpoint_lsn: u64,
}

fn config(dir: &Path, checkpoint_every: u64) -> EngineConfig {
    EngineConfig {
        num_shards: SHARDS,
        wal: Some(WalOptions {
            // Group commit keeps ingest from being fsync-bound, so the bench
            // measures recovery work rather than the host's fsync latency.
            sync: SyncPolicy::GroupCommitMs(2),
            segment_bytes: 256 << 10,
            checkpoint_every,
            ..WalOptions::new(dir)
        }),
        ..EngineConfig::default()
    }
}

fn bench(data: &TpcdData, checkpoint_every: u64) -> Run {
    let dir = TempDir::new("recovery-bench");

    let engine = ShardedDcTree::new(data.schema.clone(), config(&dir, checkpoint_every))
        .expect("open engine");
    let t0 = Instant::now();
    for r in &data.records {
        engine
            .insert_raw(&data.paths_for(r), r.measure)
            .expect("insert");
    }
    engine.flush();
    let ingest = t0.elapsed();
    let d = &engine.metrics().durability;
    let checkpoints = d.checkpoints.load(Relaxed);
    let wal_rotations = d.wal_rotations.load(Relaxed);
    engine.shutdown();
    drop(engine);

    let t0 = Instant::now();
    let recovered = ShardedDcTree::new(data.schema.clone(), config(&dir, checkpoint_every))
        .expect("recover engine");
    let recovery = t0.elapsed();
    assert_eq!(
        recovered.len(),
        data.records.len() as u64,
        "recovery lost records"
    );
    let d = &recovered.metrics().durability;
    let run = Run {
        checkpoint_every,
        ingest_per_sec: data.records.len() as f64 / ingest.as_secs_f64(),
        checkpoints,
        wal_rotations,
        recovery_ms: recovery.as_secs_f64() * 1e3,
        replayed_entries: d.recovery_replayed_entries.load(Relaxed),
        checkpoint_lsn: d.recovery_checkpoint_lsn.load(Relaxed),
    };
    recovered.shutdown();
    drop(recovered);
    run
}

fn main() {
    let records: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(50_000);
    if records < 100 {
        eprintln!("usage: recovery_bench [records >= 100]");
        std::process::exit(2);
    }

    println!("generating TPC-D cube: {records} lineitems…");
    let data = generate(&TpcdConfig::scaled(records, 17));

    let cadences = [0, records as u64 / 20, records as u64 / 5];
    let runs: Vec<Run> = cadences.iter().map(|&c| bench(&data, c)).collect();

    println!(
        "\n{:>16} {:>14} {:>12} {:>12} {:>14} {:>14}",
        "checkpoint_every", "ingest rec/s", "checkpoints", "rotations", "recovery ms", "replayed"
    );
    for r in &runs {
        println!(
            "{:>16} {:>14.0} {:>12} {:>12} {:>14.2} {:>14}",
            r.checkpoint_every,
            r.ingest_per_sec,
            r.checkpoints,
            r.wal_rotations,
            r.recovery_ms,
            r.replayed_entries
        );
    }

    let full_replay = &runs[0];
    let aggressive = &runs[1];
    let replay_cut =
        full_replay.replayed_entries as f64 / aggressive.replayed_entries.max(1) as f64;
    println!(
        "\ncheckpointing at records/20 replays {replay_cut:.0}x fewer entries than \
         full-log recovery"
    );

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"records\": {records},\n"));
    json.push_str(&format!("  \"shards\": {SHARDS},\n"));
    json.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"checkpoint_every\": {}, \"ingest_records_per_sec\": {:.1}, \
             \"checkpoints\": {}, \"wal_rotations\": {}, \"recovery_ms\": {:.2}, \
             \"replayed_entries\": {}, \"checkpoint_lsn\": {}}}{}\n",
            r.checkpoint_every,
            r.ingest_per_sec,
            r.checkpoints,
            r.wal_rotations,
            r.recovery_ms,
            r.replayed_entries,
            r.checkpoint_lsn,
            if i + 1 < runs.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"replay_reduction_at_records_over_20\": {replay_cut:.1}\n"
    ));
    json.push_str("}\n");

    std::fs::create_dir_all("results").expect("mkdir results");
    let path = "results/recovery_bench.json";
    std::fs::write(path, &json).expect("write report");
    println!("report written to {path}");
}
