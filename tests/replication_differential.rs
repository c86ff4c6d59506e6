//! Replica-vs-primary differential oracle.
//!
//! A primary takes a churn workload (interleaved inserts and deletes
//! across shards, with mid-stream checkpoints that GC its segments) while
//! a follower tails it over segment shipping. At every quiesce point the
//! follower is awaited via the wire-level `WAIT_LSN` barrier and then
//! **every dc-ql response string** — a selectivity × group-by matrix,
//! through the planner, plus `EXPLAIN` and `MIN_LSN`-prefixed reads —
//! must be bit-identical across three engines:
//!
//! * the sharded primary,
//! * the tailing follower (read-only, possibly resynced mid-run), and
//! * a monolithic single-shard oracle fed the same ops directly.
//!
//! Exactness is not statistical: measures are integers, so per-shard f64
//! summaries are exact and merge order cannot produce drift — any
//! response difference is a real replication or consistency bug. The
//! whole matrix repeats in [`StorageMode::Disk`], where checkpoint images
//! are paged shard files instead of serialized trees.

use std::sync::Arc;
use std::time::Duration;

use dctree::common::{DimensionId, TempDir};
use dctree::durable::WalEntry;
use dctree::hierarchy::CubeSchema;
use dctree::replica::{EngineSource, Follower, FollowerConfig, Progress};
use dctree::serve::protocol::handle_line;
use dctree::serve::{
    DiskOptions, EngineConfig, ShardedDcTree, StorageMode, SyncPolicy, WalOptions,
};
use dctree::tpcd::{generate, TpcdConfig, TpcdData};

const SHARDS: usize = 2;

/// Insert/delete churn with ~20% deletes, as WAL entries.
fn churn(data: &TpcdData, ops_total: usize) -> Vec<WalEntry> {
    let mut ops = Vec::with_capacity(ops_total);
    let mut live: Vec<usize> = Vec::new();
    let mut state = 0xD1FF_0A11u64;
    let mut next = |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    for i in 0..ops_total {
        let delete = !live.is_empty() && next(100) < 20;
        if delete {
            let idx = live.swap_remove(next(live.len() as u64) as usize);
            let r = &data.records[idx];
            ops.push(WalEntry::Delete {
                paths: data.paths_for(r),
                measure: r.measure,
            });
        } else {
            let idx = i % data.records.len();
            live.push(idx);
            let r = &data.records[idx];
            ops.push(WalEntry::Insert {
                paths: data.paths_for(r),
                measure: r.measure,
            });
        }
    }
    ops
}

fn apply_op(engine: &ShardedDcTree, op: &WalEntry) {
    match op {
        WalEntry::Insert { paths, measure } => engine.insert_raw(paths, *measure).unwrap(),
        WalEntry::Delete { paths, measure } => engine.delete_raw(paths, *measure).unwrap(),
    }
}

/// Quotes a value for dc-ql (embedded `'` doubled — TPC-D names have none,
/// but the printer contract is cheap to honour).
fn quote(v: &str) -> String {
    format!("'{}'", v.replace('\'', "''"))
}

/// The query matrix, rendered as protocol lines against the generator's
/// schema (which all three engines share, so every value resolves). At
/// early quiesce points many slices are empty — `NULL` renderings must be
/// bit-identical too.
fn query_matrix(schema: &CubeSchema) -> Vec<String> {
    let mut queries = Vec::new();
    for d in 0..schema.num_dims() {
        let dim = DimensionId(d as u16);
        let h = schema.dim(dim);
        let group_h = schema.dim(DimensionId(((d + 1) % schema.num_dims()) as u16));
        let group_by = format!(
            "GROUP BY {}.{}",
            group_h.schema().name(),
            group_h
                .schema()
                .attribute_name(group_h.top_level() - 1)
                .unwrap()
        );
        for level in 0..h.top_level() {
            let attr = h.schema().attribute_name(level).unwrap();
            let names: Vec<String> = h
                .values_at(level)
                .map(|id| h.name(id).unwrap().to_string())
                .collect();
            if names.is_empty() {
                continue;
            }
            // Three selectivities: one value, a handful, a broad slice.
            for k in [1usize, 3.min(names.len()), 8.min(names.len())] {
                let list: Vec<String> = names.iter().take(k).map(|n| quote(n)).collect();
                let cond = if k == 1 {
                    format!("{}.{} = {}", h.schema().name(), attr, list[0])
                } else {
                    format!("{}.{} IN ({})", h.schema().name(), attr, list.join(", "))
                };
                queries.push(format!("SELECT SUM, COUNT, MIN, MAX WHERE {cond}"));
                queries.push(format!("SELECT SUM, COUNT WHERE {cond} {group_by}"));
            }
        }
        // Unfiltered roll-up over this dimension's coarsest attribute.
        queries.push(format!(
            "SELECT SUM, COUNT, MIN, MAX GROUP BY {}.{}",
            h.schema().name(),
            h.schema().attribute_name(h.top_level() - 1).unwrap()
        ));
    }
    queries
}

fn engine_config(
    storage: StorageMode,
    num_shards: usize,
    wal_dir: Option<&std::path::Path>,
) -> EngineConfig {
    EngineConfig {
        num_shards,
        // The cache patches summaries by query history, which would make
        // EXPLAIN page counts depend on warm-up order; answers are the
        // subject here, so all three engines run uncached.
        cache: None,
        storage,
        wal: wal_dir.map(|dir| WalOptions {
            sync: SyncPolicy::Always,
            segment_bytes: 2048, // small segments: shipping crosses many
            checkpoint_every: 0,
            fs: None,
            ..WalOptions::new(dir)
        }),
        ..EngineConfig::default()
    }
}

/// Blocks (via the wire verb) until the follower's applied-and-visible
/// frontier reaches `lsn`; retries across mid-wait resync engine swaps.
fn await_follower(follower: &Follower, lsn: u64) -> Arc<ShardedDcTree> {
    for _ in 0..120 {
        let engine = follower.engine();
        let (resp, _) = handle_line(&engine, &format!("WAIT_LSN {lsn} 1000"));
        if resp.starts_with("OK APPLIED") {
            return engine;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("follower never reached lsn {lsn}");
}

/// Runs the full churn + quiesce differential for one storage mode.
fn run_differential(disk: bool) {
    let (records, ops_total) = if disk { (500, 160) } else { (1200, 360) };
    let data = generate(&TpcdConfig::scaled(records, 13));
    let ops = churn(&data, ops_total);
    let queries = query_matrix(&data.schema);

    let tag = if disk { "disk" } else { "mem" };
    let [primary_wal, follower_wal, primary_storage, follower_storage] =
        ["pwal", "fwal", "pstore", "fstore"].map(|d| TempDir::new(&format!("repl-diff-{tag}-{d}")));

    let storage = |dir: &std::path::Path| {
        if disk {
            StorageMode::Disk(DiskOptions::new(dir))
        } else {
            StorageMode::Resident
        }
    };
    // `data` is done after this point (ops and queries are pre-rendered),
    // so the schema moves out and only the two extra engines clone it.
    let schema = data.schema;
    let primary = Arc::new(
        ShardedDcTree::new(
            schema.clone(),
            engine_config(storage(&primary_storage), SHARDS, Some(&primary_wal)),
        )
        .unwrap(),
    );
    // The monolithic oracle: one shard, no WAL, fed the same ops directly.
    let oracle = ShardedDcTree::new(
        schema.clone(),
        engine_config(StorageMode::Resident, 1, None),
    )
    .unwrap();
    let follower = Arc::new(
        Follower::bootstrap(
            EngineSource(Arc::clone(&primary)),
            schema,
            FollowerConfig {
                poll_interval: Duration::from_millis(2),
                engine: engine_config(storage(&follower_storage), SHARDS, None),
                ..FollowerConfig::new(&follower_wal)
            },
        )
        .unwrap(),
    );
    follower.start_tailing();

    let quiesce_points = [ops.len() / 4, ops.len() / 2, 3 * ops.len() / 4, ops.len()];
    let checkpoints = [ops.len() / 3, 2 * ops.len() / 3];
    let mut done = 0usize;
    for &stop in &quiesce_points {
        for (i, op) in ops[done..stop].iter().enumerate() {
            apply_op(&primary, op);
            apply_op(&oracle, op);
            // Mid-stream checkpoints GC the primary's segments out from
            // under the follower — forcing the NeedCheckpoint/resync path
            // when the follower is far enough behind.
            if checkpoints.contains(&(done + i + 1)) {
                primary.checkpoint().unwrap();
            }
        }
        done = stop;
        primary.flush();
        oracle.flush();
        let lsn = primary.applied_lsn();
        assert_eq!(lsn, done as u64, "primary logged one LSN per op");
        let follower_engine = await_follower(&follower, lsn);
        assert_eq!(
            follower_engine.len(),
            primary.len(),
            "visible record counts"
        );
        for q in &queries {
            let (p, _) = handle_line(&primary, q);
            let (o, _) = handle_line(&oracle, q);
            let (f, _) = handle_line(&follower_engine, q);
            assert_eq!(p, o, "primary vs oracle diverged at op {done} on: {q}");
            assert_eq!(p, f, "primary vs follower diverged at op {done} on: {q}");
            // Read-your-LSN route: the same query prefixed with the
            // barrier must answer identically (the wait is a no-op now).
            let (g, _) = handle_line(&follower_engine, &format!("MIN_LSN {lsn} {q}"));
            assert_eq!(p, g, "MIN_LSN-prefixed read diverged at op {done} on: {q}");
        }
        if !disk {
            // EXPLAIN strings carry page counts priced off the buffer
            // pool's observed miss rate in disk mode (history-dependent);
            // resident plans are deterministic, so they must match
            // between the two sharded engines. (The oracle's differ
            // legitimately: one shard.)
            for q in queries.iter().take(40) {
                let line = format!("EXPLAIN {q}");
                let (p, _) = handle_line(&primary, &line);
                let (f, _) = handle_line(&follower_engine, &line);
                assert_eq!(p, f, "EXPLAIN diverged at op {done} on: {line}");
            }
        }
    }
    // A write against the follower must be refused, bit-identically to
    // the read-only contract in the docs.
    let (refused, _) = handle_line(&follower.engine(), "INSERT 5 EUROPE/GERMANY");
    assert!(
        refused.starts_with("ERR") && refused.contains("read-only follower"),
        "follower accepted a write: {refused}"
    );
    follower.stop_tailing();
    primary.shutdown();
    oracle.shutdown();
}

#[test]
fn replication_differential_memory() {
    run_differential(false);
}

#[test]
fn replication_differential_disk() {
    run_differential(true);
}

/// One poll ships one segment's worth of entries into one replay chunk, so
/// each follower shard gets all of its ops in one command: it must apply
/// them in the order the primary logged them. Hoisting the inserts ahead of
/// the deletes would lose `s`; hoisting the deletes would keep a third `r`.
#[test]
fn a_polled_chunk_applies_in_submission_order() {
    let data = generate(&TpcdConfig::scaled(600, 7));
    let op = |idx: usize, delete: bool| {
        let r = &data.records[idx];
        let (paths, measure) = (data.paths_for(r), r.measure);
        if delete {
            WalEntry::Delete { paths, measure }
        } else {
            WalEntry::Insert { paths, measure }
        }
    };
    let (r, r2, s) = (3, 4, 5);
    let mut miss = op(6, true);
    if let WalEntry::Delete { paths, .. } = &mut miss {
        paths[0][0] = "no-such-value".to_string();
    }
    let ops = [
        op(r, false),
        op(r, true),
        op(r, false),
        op(r2, false),
        miss,
        op(s, true),
        op(s, false),
        op(r, false),
    ];
    let queries = query_matrix(&data.schema);
    let [primary_wal, follower_wal] =
        ["pwal", "fwal"].map(|d| TempDir::new(&format!("repl-order-{d}")));
    let wal_config = |dir: &std::path::Path| {
        let mut cfg = engine_config(StorageMode::Resident, SHARDS, Some(dir));
        cfg.wal.as_mut().unwrap().segment_bytes = 1 << 20;
        cfg
    };
    let primary =
        Arc::new(ShardedDcTree::new(data.schema.clone(), wal_config(&primary_wal)).unwrap());
    let follower = Follower::bootstrap(
        EngineSource(Arc::clone(&primary)),
        data.schema.clone(),
        FollowerConfig {
            engine: engine_config(StorageMode::Resident, SHARDS, None),
            ..FollowerConfig::new(&follower_wal)
        },
    )
    .unwrap();
    for op in &ops {
        apply_op(&primary, op);
    }
    primary.flush();
    assert_eq!(primary.len(), 4);
    assert_eq!(
        follower.poll_once().unwrap(),
        Progress::Applied(ops.len() as u64)
    );
    let replica = follower.engine();
    assert_eq!(replica.applied_lsn(), ops.len() as u64);
    assert_eq!(replica.len(), primary.len());
    for q in &queries {
        let (p, _) = handle_line(&primary, q);
        let (f, _) = handle_line(&replica, q);
        assert_eq!(p, f, "follower diverged on: {q}");
    }
}
