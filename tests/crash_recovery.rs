//! Engine-level crash/fault differential harness.
//!
//! Drives a sharded, WAL-backed [`ShardedDcTree`] through a deterministic
//! workload on a [`FaultFs`] that crashes at planned byte offsets, fails
//! fsyncs, or flips bits — then reopens the directory on the real
//! filesystem and asserts the recovered engine is exactly some prefix of
//! the workload:
//!
//! * **No acked-synced write is lost**: `synced ≤ P` where `P` is the
//!   recovered prefix (`recovery_checkpoint_lsn + recovery_replayed_entries`).
//! * **No invented writes**: `P ≤ attempted` (with one op of slack when the
//!   run died mid-op: an entry can hit the disk and then fail its fsync or
//!   its auto-checkpoint, so the caller saw `Err` but recovery may keep it).
//! * **Exact prefix semantics**: every aggregate answer from the recovered
//!   engine equals a never-crashed monolith fed the same first `P` ops.
//!
//! The dense byte-offset sweep lives in `crates/durable/tests/fault_points.rs`;
//! this harness covers the full engine path — sharding, the catalog catch-up
//! barrier, checkpoint images, and recovery through `ShardedDcTree::new`.

use std::path::Path;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use dc_common::TempDir;
use dc_durable::{apply, FaultFs, FaultPlan, SyncPolicy, WalEntry};
use dc_query::{RangeQueryGen, ValuePick};
use dc_serve::{EngineConfig, ShardedDcTree, WalOptions};
use dc_tpcd::{generate, TpcdConfig, TpcdData};
use dc_tree::{DcTree, DcTreeConfig};

const OPS: usize = 120;
const SHARDS: usize = 2;

fn tpcd() -> TpcdData {
    generate(&TpcdConfig::scaled(600, 7))
}

/// One logged mutation, expressed as the WAL entry it should produce so the
/// oracle replays through exactly the same code path as recovery.
fn workload(data: &TpcdData) -> Vec<WalEntry> {
    let mut ops = Vec::with_capacity(OPS);
    let mut live: Vec<usize> = Vec::new();
    let mut state = 0xFA17_C0DEu64;
    let mut next = |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    for i in 0..OPS {
        let delete = !live.is_empty() && next(100) < 15;
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

/// A monolithic `DcTree` fed the first `prefix` ops.
fn oracle(data: &TpcdData, ops: &[WalEntry], prefix: usize) -> DcTree {
    let mut tree = DcTree::new(data.schema.clone(), DcTreeConfig::default());
    for op in &ops[..prefix] {
        apply(&mut tree, op).unwrap();
    }
    tree
}

fn config(dir: &Path, fs: Option<Arc<dyn dc_serve::WalFs>>, checkpoint_every: u64) -> EngineConfig {
    EngineConfig {
        num_shards: SHARDS,
        wal: Some(WalOptions {
            sync: SyncPolicy::Always,
            segment_bytes: 1024,
            checkpoint_every,
            fs,
            ..WalOptions::new(dir)
        }),
        ..EngineConfig::default()
    }
}

fn apply_to_engine(engine: &ShardedDcTree, op: &WalEntry) -> dc_common::DcResult<()> {
    match op {
        WalEntry::Insert { paths, measure } => engine.insert_raw(paths, *measure),
        WalEntry::Delete { paths, measure } => engine.delete_raw(paths, *measure),
    }
}

/// Runs the workload on `fs` until an injected fault surfaces (or the ops run
/// out). Returns `(attempted, synced)`: an upper bound on recoverable ops and
/// the durable lower bound read from the engine's gauges.
fn run_until_fault(
    dir: &Path,
    data: &TpcdData,
    ops: &[WalEntry],
    fs: &FaultFs,
    checkpoint_every: u64,
) -> (u64, u64) {
    let cfg = config(dir, Some(Arc::new(fs.clone())), checkpoint_every);
    let engine = match ShardedDcTree::new(data.schema.clone(), cfg) {
        Ok(engine) => engine,
        Err(_) => return (0, 0), // crashed while opening the WAL
    };
    let mut ok = 0u64;
    let mut died = false;
    for op in ops {
        match apply_to_engine(&engine, op) {
            Ok(()) => ok += 1,
            Err(_) => {
                died = true;
                break;
            }
        }
    }
    let synced = engine.metrics().durability.wal_synced_lsn.load(Relaxed);
    // An op that returned `Err` can still have landed its WAL frame (its
    // fsync or its auto-checkpoint failed after the write), so recovery may
    // legitimately keep one more entry than we counted acks for.
    let attempted = ok + u64::from(died);
    drop(engine); // shutdown tolerates the dead filesystem
    (attempted, synced)
}

/// Reopens `dir` on the real filesystem and differentially checks the
/// recovered engine against the oracle prefix. Returns the prefix `P`.
fn check_recovery(
    dir: &Path,
    data: &TpcdData,
    ops: &[WalEntry],
    attempted: u64,
    synced: u64,
) -> u64 {
    let engine = ShardedDcTree::new(data.schema.clone(), config(dir, None, 0))
        .expect("recovery on a clean filesystem must succeed");
    let d = &engine.metrics().durability;
    let ckpt = d.recovery_checkpoint_lsn.load(Relaxed);
    let replayed = d.recovery_replayed_entries.load(Relaxed);
    let p = ckpt + replayed;
    assert!(
        synced <= p,
        "lost a synced-acked write: synced={synced} recovered={p} (ckpt={ckpt} replayed={replayed})"
    );
    assert!(
        p <= attempted,
        "recovered more than was attempted: recovered={p} attempted={attempted}"
    );
    assert_answers(&engine, &oracle(data, ops, p as usize), data);
    drop(engine);
    p
}

/// `engine` holds exactly what `mono` holds: same length, same total, same
/// answer on a spread of range queries.
fn assert_answers(engine: &ShardedDcTree, mono: &DcTree, data: &TpcdData) {
    let p = mono.len();
    assert_eq!(engine.len(), p, "len mismatch");
    assert_eq!(
        engine.total_summary().unwrap(),
        mono.total_summary().unwrap()
    );
    let mut gen = RangeQueryGen::new(0.1, ValuePick::Scattered, 29);
    for _ in 0..15 {
        let q = gen.generate(&data.schema);
        assert_eq!(
            engine.range_summary(&q).unwrap(),
            mono.range_summary(&q).unwrap(),
            "answer mismatch at {p} records for {q:?}"
        );
    }
}

/// Total segment-file traffic for a fault-free run, used to place crashes.
fn total_wal_bytes(data: &TpcdData, ops: &[WalEntry]) -> u64 {
    let dir = TempDir::new("crash-dry");
    let fs = FaultFs::new(FaultPlan::default());
    let (attempted, synced) = run_until_fault(&dir, data, ops, &fs, 0);
    assert_eq!(attempted, ops.len() as u64);
    assert_eq!(synced, ops.len() as u64);
    let bytes = fs.written();
    assert!(bytes > 2048, "workload too small to exercise rotation");
    bytes
}

#[test]
fn engine_crash_sweep_over_byte_offsets() {
    let data = tpcd();
    let ops = workload(&data);
    let total = total_wal_bytes(&data, &ops);
    for i in 1..=8u64 {
        let offset = total * i / 9 + i % 3; // stride plus a little phase jitter
        let dir = TempDir::new("crash-sweep");
        let fs = FaultFs::new(FaultPlan {
            crash_after_bytes: Some(offset),
            ..FaultPlan::default()
        });
        let (attempted, synced) = run_until_fault(&dir, &data, &ops, &fs, 0);
        assert!(fs.crashed(), "crash at byte {offset} never fired");
        check_recovery(&dir, &data, &ops, attempted, synced);
    }
}

#[test]
fn engine_crash_sweep_with_checkpoints_bounds_replay() {
    let data = tpcd();
    let ops = workload(&data);
    let total = total_wal_bytes(&data, &ops);
    for i in 5..=8u64 {
        let offset = total * i / 9;
        let dir = TempDir::new("crash-ckpt");
        let fs = FaultFs::new(FaultPlan {
            crash_after_bytes: Some(offset),
            ..FaultPlan::default()
        });
        let (attempted, synced) = run_until_fault(&dir, &data, &ops, &fs, 30);
        let engine = ShardedDcTree::new(data.schema.clone(), config(&dir, None, 0)).unwrap();
        let d = &engine.metrics().durability;
        assert!(
            d.recovery_checkpoint_lsn.load(Relaxed) > 0,
            "back-half crash at {offset} should land after a checkpoint"
        );
        assert!(d.recovery_replayed_entries.load(Relaxed) < attempted);
        drop(engine);
        check_recovery(&dir, &data, &ops, attempted, synced);
    }
}

#[test]
fn engine_failed_fsyncs_never_lose_synced_writes() {
    let data = tpcd();
    let ops = workload(&data);
    for nth in [1u64, 3, 7, 40] {
        let dir = TempDir::new("crash-fsync");
        let fs = FaultFs::new(FaultPlan {
            fail_sync: Some(nth),
            ..FaultPlan::default()
        });
        let (attempted, synced) = run_until_fault(&dir, &data, &ops, &fs, 0);
        assert!(fs.crashed(), "fsync fault #{nth} never fired");
        check_recovery(&dir, &data, &ops, attempted, synced);
    }
}

#[test]
fn engine_bit_flips_recover_to_a_clean_prefix() {
    let data = tpcd();
    let ops = workload(&data);
    let total = total_wal_bytes(&data, &ops);
    for i in [2u64, 4, 6] {
        let offset = total * i / 9;
        let dir = TempDir::new("crash-flip");
        let fs = FaultFs::new(FaultPlan {
            flip_bit: Some((offset, 0x10)),
            ..FaultPlan::default()
        });
        // A bit flip is silent — the whole workload runs and every append is
        // acked, but the corrupted frame cannot be promised back: recovery
        // stops at the last frame whose CRC still holds. So the durable lower
        // bound here is 0, and the differential prefix check is the teeth.
        let (attempted, _synced) = run_until_fault(&dir, &data, &ops, &fs, 0);
        assert!(!fs.crashed());
        assert_eq!(attempted, ops.len() as u64);
        let p = check_recovery(&dir, &data, &ops, attempted, 0);
        assert!(
            p < attempted,
            "flip at byte {offset} went undetected: recovered all {attempted} ops"
        );
    }
}

#[test]
fn rejected_writes_never_poison_the_wal() {
    // A mutation the catalog rejects (wrong dimension count, wrong path
    // depth) must leave the WAL untouched: the caller already saw an Err,
    // and recovery replays the log verbatim — a logged rejection would turn
    // one bad client request into a directory that can never be reopened.
    let data = tpcd();
    let dir = TempDir::new("crash-reject");

    let good: Vec<_> = data.records[..40]
        .iter()
        .map(|r| (data.paths_for(r), r.measure))
        .collect();
    let expected_total;
    {
        let engine = ShardedDcTree::new(data.schema.clone(), config(&dir, None, 0)).unwrap();
        engine.insert_batch_raw(&good[..20]).unwrap();

        // Wrong dimension count, single insert and delete.
        let two_dims = vec![vec!["EUROPE".to_string()], vec!["1999".to_string()]];
        assert!(engine.insert_raw(&two_dims, 5).is_err());
        assert!(engine.delete_raw(&two_dims, 5).is_err());
        // Wrong path depth within one dimension.
        let mut shallow = data.paths_for(&data.records[0]);
        shallow[0].pop();
        assert!(engine.insert_raw(&shallow, 5).is_err());
        // A batch with one malformed record is rejected whole.
        let mut batch = good[20..30].to_vec();
        batch.push((two_dims, 7));
        assert!(engine.insert_batch_raw(&batch).is_err());

        engine.insert_batch_raw(&good[20..]).unwrap();
        engine.flush();
        assert_eq!(engine.len(), good.len() as u64);
        expected_total = engine.total_summary().unwrap();
    }

    // Reopen: recovery must replay only the accepted writes.
    let reopened = ShardedDcTree::new(data.schema, config(&dir, None, 0))
        .expect("recovery failed: a rejected write reached the WAL");
    assert_eq!(reopened.len(), good.len() as u64);
    assert_eq!(reopened.total_summary().unwrap(), expected_total);
}

fn entry(data: &TpcdData, idx: usize, delete: bool) -> WalEntry {
    let r = &data.records[idx];
    let (paths, measure) = (data.paths_for(r), r.measure);
    if delete {
        WalEntry::Delete { paths, measure }
    } else {
        WalEntry::Insert { paths, measure }
    }
}

/// A delete of paths no insert ever named: every name gets a prefix the
/// generator does not produce.
fn ghost_delete(data: &TpcdData, idx: usize) -> WalEntry {
    let r = &data.records[idx];
    let paths = data
        .paths_for(r)
        .into_iter()
        .map(|dim| dim.into_iter().map(|n| format!("ghost-{n}")).collect())
        .collect();
    WalEntry::Delete {
        paths,
        measure: r.measure,
    }
}

fn catalog_values(engine: &ShardedDcTree) -> usize {
    engine.with_schema(|s| s.dims().map(|h| h.num_values()).sum())
}

#[test]
fn deleting_unseen_paths_never_grows_the_hierarchy() {
    // A delete resolves its paths by lookup, as the replay oracle does: one
    // that names values the catalog has never seen is accepted and logged
    // (one LSN per accepted op) but interns nothing and reaches no shard.
    let data = tpcd();
    let dir = TempDir::new("crash-ghost");
    let mut ops: Vec<WalEntry> = (0..40).map(|i| entry(&data, i, false)).collect();
    let inserts = ops.len();
    // Unseen from the top; unseen leaf under a seen parent; a plain hit.
    ops.push(ghost_delete(&data, 0));
    let mut half_seen = data.paths_for(&data.records[1]);
    *half_seen[0].last_mut().unwrap() = "ghost-leaf".to_string();
    ops.push(WalEntry::Delete {
        paths: half_seen,
        measure: data.records[1].measure,
    });
    ops.push(entry(&data, 2, true));
    let mono = oracle(&data, &ops, ops.len());

    let values;
    {
        let engine = ShardedDcTree::new(data.schema.clone(), config(&dir, None, 0)).unwrap();
        for op in &ops[..inserts] {
            apply_to_engine(&engine, op).unwrap();
        }
        engine.flush();
        values = catalog_values(&engine);
        let d = &engine.metrics().durability;
        assert_eq!(d.wal_last_lsn.load(Relaxed), inserts as u64);
        for op in &ops[inserts..] {
            apply_to_engine(&engine, op).unwrap();
        }
        engine.flush();
        assert_eq!(catalog_values(&engine), values, "a delete interned values");
        assert_eq!(d.wal_last_lsn.load(Relaxed), ops.len() as u64);
        assert_answers(&engine, &mono, &data);
    }

    // The logged misses replay as no-ops.
    let reopened = ShardedDcTree::new(data.schema.clone(), config(&dir, None, 0)).unwrap();
    let d = &reopened.metrics().durability;
    assert_eq!(d.recovery_replayed_entries.load(Relaxed), ops.len() as u64);
    assert_eq!(catalog_values(&reopened), values);
    assert_answers(&reopened, &mono, &data);
}

#[test]
fn a_replay_chunk_applies_in_submission_order() {
    // One replay chunk, so each shard gets all of its ops in one command:
    // hoisting the inserts ahead of the deletes would lose `s`, hoisting the
    // deletes ahead would keep a third `r`.
    let data = tpcd();
    let dir = TempDir::new("crash-order");
    let (r, r2, s) = (3, 4, 5);
    let ops = vec![
        entry(&data, r, false),
        entry(&data, r, true),
        entry(&data, r, false),
        entry(&data, r2, false),
        ghost_delete(&data, 6),
        entry(&data, s, true),
        entry(&data, s, false),
        entry(&data, r, false),
    ];
    let mono = oracle(&data, &ops, ops.len());
    assert_eq!(mono.len(), 4);
    {
        let engine = ShardedDcTree::new(data.schema.clone(), config(&dir, None, 0)).unwrap();
        for op in &ops {
            apply_to_engine(&engine, op).unwrap();
        }
        engine.flush();
        assert_answers(&engine, &mono, &data);
    }
    let reopened = ShardedDcTree::new(data.schema.clone(), config(&dir, None, 0)).unwrap();
    let d = &reopened.metrics().durability;
    assert_eq!(d.recovery_replayed_entries.load(Relaxed), ops.len() as u64);
    assert_answers(&reopened, &mono, &data);
}

#[test]
fn a_recovered_tail_is_replayed_in_batches() {
    // 2 000 logged inserts come back as at most one command per shard per
    // 512-entry replay chunk, not as 2 000 commands.
    const TAIL: usize = 2000;
    let data = generate(&TpcdConfig::scaled(TAIL, 11));
    let dir = TempDir::new("crash-batched-replay");
    let mut cfg = config(&dir, None, 0);
    cfg.wal.as_mut().unwrap().segment_bytes = 1 << 20;
    let batch: Vec<_> = data
        .records
        .iter()
        .map(|r| (data.paths_for(r), r.measure))
        .collect();
    let expected_total;
    {
        let engine = ShardedDcTree::new(data.schema.clone(), cfg.clone()).unwrap();
        for group in batch.chunks(100) {
            engine.insert_batch_raw(group).unwrap();
        }
        engine.flush();
        expected_total = engine.total_summary().unwrap();
    }
    let reopened = ShardedDcTree::new(data.schema, cfg).unwrap();
    let m = reopened.metrics();
    assert_eq!(
        m.durability.recovery_replayed_entries.load(Relaxed),
        TAIL as u64
    );
    assert_eq!(reopened.len(), TAIL as u64);
    assert_eq!(reopened.total_summary().unwrap(), expected_total);
    let commands = m.apply_latency.count();
    assert!(
        commands <= (SHARDS * TAIL.div_ceil(512)) as u64,
        "{commands} commands replayed a {TAIL}-entry tail"
    );
}
