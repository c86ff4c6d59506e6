//! Deterministic fault-point sweep over [`DurableDcTree`]: crash the
//! store at a grid of byte offsets (plus fsync failures and bit flips),
//! recover from the surviving files, and check the result against a
//! never-crashed oracle.
//!
//! The contract being proven, for every fault point:
//!
//! * the recovered state equals the oracle run over some prefix of `P`
//!   operations (never a subset, never an interleaving);
//! * `synced_lsn_at_crash <= P <= attempted` — nothing durable is lost,
//!   nothing unattempted appears;
//! * with checkpoints enabled, `recovery_replayed_entries < total`.
//!
//! The sync policy is selected by `DC_SYNC_POLICY` (`always` | `every4` |
//! `group`) so CI can run the sweep as a matrix; everything else is fixed
//! by seed.

use dc_common::{DcError, TempDir};
use dc_durable::{DurabilityConfig, DurableDcTree, FaultFs, FaultPlan, SyncPolicy};
use dc_hierarchy::{CubeSchema, HierarchySchema};
use dc_mds::Mds;
use dc_tree::{DcTree, DcTreeConfig};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::sync::Arc;

fn schema() -> CubeSchema {
    CubeSchema::new(
        vec![
            HierarchySchema::new("Customer", vec!["Region".into(), "Nation".into()]),
            HierarchySchema::new("Time", vec!["Year".into(), "Month".into()]),
        ],
        "Revenue",
    )
}

fn make_tree() -> DcTree {
    DcTree::new(
        schema(),
        DcTreeConfig {
            dir_capacity: 4,
            data_capacity: 4,
            ..DcTreeConfig::default()
        },
    )
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(u64, i64),
    Delete(u64, i64),
}

fn paths(i: u64) -> [Vec<String>; 2] {
    [
        vec![format!("R{}", i % 3), format!("R{}-N{}", i % 3, i % 7)],
        vec![
            format!("199{}", i % 4),
            format!("199{}-{:02}", i % 4, i % 12 + 1),
        ],
    ]
}

fn workload(n: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(0xFA17);
    (0..n)
        .map(|_| {
            let key = rng.gen_range(0..40);
            let measure = rng.gen_range(0..100);
            if rng.gen_bool(0.8) {
                Op::Insert(key, measure)
            } else {
                Op::Delete(key, measure)
            }
        })
        .collect()
}

/// The oracle: a plain tree after the first `prefix` operations.
fn oracle(ops: &[Op], prefix: usize) -> DcTree {
    let mut tree = make_tree();
    for op in &ops[..prefix] {
        match *op {
            Op::Insert(key, m) => {
                tree.insert_raw(&paths(key), m).unwrap();
            }
            Op::Delete(key, m) => {
                let entry = dc_durable::WalEntry::Delete {
                    paths: paths(key).to_vec(),
                    measure: m,
                };
                dc_durable::apply(&mut tree, &entry).unwrap();
            }
        }
    }
    tree
}

fn sync_policy() -> SyncPolicy {
    match std::env::var("DC_SYNC_POLICY").as_deref() {
        Ok("every4") => SyncPolicy::EveryN(4),
        // An hour-long cadence: the store syncs only on explicit barriers,
        // which this harness never issues — maximum exposure.
        Ok("group") => SyncPolicy::GroupCommitMs(3_600_000),
        _ => SyncPolicy::Always,
    }
}

fn config(checkpoint_every: u64) -> DurabilityConfig {
    DurabilityConfig {
        sync: sync_policy(),
        checkpoint_every,
        segment_bytes: 1024, // small budget: sweeps cross many rotations
    }
}

/// Runs `ops` against a fault-injected store until a fault (or the end).
/// Returns `(attempted, synced_lsn_at_crash)`.
fn run_until_fault(
    dir: &std::path::Path,
    ops: &[Op],
    fs: &FaultFs,
    cfg: DurabilityConfig,
) -> (u64, u64) {
    let store = DurableDcTree::open_with_fs(Arc::new(fs.clone()), dir, make_tree, cfg);
    let mut store = match store {
        Ok(s) => s,
        Err(DcError::Fault(_)) => return (0, 0),
        Err(e) => panic!("unexpected open error: {e}"),
    };
    for (i, op) in ops.iter().enumerate() {
        let result = match *op {
            Op::Insert(key, m) => store.insert_raw(&paths(key), m).map(|_| ()),
            Op::Delete(key, m) => store.delete_raw(&paths(key), m).map(|_| ()),
        };
        match result {
            Ok(()) => {}
            Err(DcError::Fault(_)) => return (i as u64 + 1, store.synced_lsn()),
            Err(e) => panic!("unexpected mutation error: {e}"),
        }
    }
    (ops.len() as u64, store.synced_lsn())
}

/// Recovers `dir` on the clean filesystem and checks it equals the oracle
/// over the prefix recovery claims, within `[synced, attempted]`.
fn check_recovery(
    dir: &std::path::Path,
    ops: &[Op],
    attempted: u64,
    synced: u64,
) -> dc_durable::RecoveryReport {
    let store = DurableDcTree::open(dir, make_tree, DurabilityConfig::default())
        .expect("recovery must succeed on the real fs");
    let report = store.recovery_report();
    let prefix = report.checkpoint_lsn + report.replayed_entries;
    assert!(
        synced <= prefix && prefix <= attempted,
        "recovered prefix {prefix} outside [{synced}, {attempted}]"
    );
    let expected = oracle(ops, prefix as usize);
    assert_eq!(store.tree().len(), expected.len(), "prefix {prefix}");
    let q = Mds::all(store.tree().schema());
    assert_eq!(
        store.tree().range_summary(&q).unwrap(),
        expected.range_summary(&q).unwrap(),
        "prefix {prefix}"
    );
    store.tree().check_invariants().unwrap();
    report
}

/// Total WAL bytes the full workload writes (dry run, faults disabled).
fn total_wal_bytes(ops: &[Op], cfg: DurabilityConfig, name: &str) -> u64 {
    let dir = TempDir::new(name);
    let fs = FaultFs::new(FaultPlan::default());
    let (attempted, _) = run_until_fault(&dir, ops, &fs, cfg);
    assert_eq!(attempted, ops.len() as u64, "dry run must not fault");
    let written = fs.written();
    std::fs::remove_dir_all(&dir).ok();
    written
}

#[test]
fn crash_sweep_over_byte_offsets() {
    let ops = workload(120);
    let cfg = config(0);
    let total = total_wal_bytes(&ops, cfg, "sweep-dry");
    assert!(total > 4096, "workload too small to sweep ({total} bytes)");
    // ~48 crash points: a uniform stride plus ±1 to land just before and
    // just after frame boundaries the stride would straddle.
    let stride = total / 16;
    let mut offsets = Vec::new();
    for k in 0..16 {
        let base = k * stride + 1;
        offsets.extend([base, base + 1, base + stride / 2]);
    }
    for offset in offsets {
        let dir = TempDir::new(&format!("fault-sweep-{offset}"));
        let fs = FaultFs::new(FaultPlan {
            crash_after_bytes: Some(offset),
            ..FaultPlan::default()
        });
        let (attempted, synced) = run_until_fault(&dir, &ops, &fs, cfg);
        assert!(fs.crashed(), "offset {offset} must crash mid-workload");
        check_recovery(&dir, &ops, attempted, synced);
    }
}

/// Runs an insert-only workload through [`DurableDcTree::insert_batch_raw`]
/// in uneven batches (3, 1, 8, 5, …) until a fault. Returns
/// `(attempted_records, synced_lsn_at_crash)` — `attempted` counts records,
/// not batches: a fault inside a group means every record of that group was
/// attempted, and recovery may keep any clean prefix of it.
fn run_batched_until_fault(
    dir: &std::path::Path,
    ops: &[Op],
    fs: &FaultFs,
    cfg: DurabilityConfig,
) -> (u64, u64) {
    let store = DurableDcTree::open_with_fs(Arc::new(fs.clone()), dir, make_tree, cfg);
    let mut store = match store {
        Ok(s) => s,
        Err(DcError::Fault(_)) => return (0, 0),
        Err(e) => panic!("unexpected open error: {e}"),
    };
    let mut i = 0usize;
    let mut sizes = [3usize, 1, 8, 5].iter().cycle();
    while i < ops.len() {
        let n = (*sizes.next().unwrap()).min(ops.len() - i);
        let batch: Vec<_> = ops[i..i + n]
            .iter()
            .map(|op| match *op {
                Op::Insert(key, m) => (paths(key).to_vec(), m),
                Op::Delete(..) => unreachable!("the batched sweep is insert-only"),
            })
            .collect();
        match store.insert_batch_raw(&batch) {
            Ok(ids) => {
                assert_eq!(ids.len(), n);
                i += n;
            }
            Err(DcError::Fault(_)) => return ((i + n) as u64, store.synced_lsn()),
            Err(e) => panic!("unexpected batch error: {e}"),
        }
    }
    (ops.len() as u64, store.synced_lsn())
}

#[test]
fn crash_sweep_at_batch_boundaries() {
    // The batched commit path under the same contract as the
    // record-at-a-time sweep: synced ≤ recovered ≤ attempted, for crash
    // points landing before, inside, and after WAL frame groups, under
    // whichever sync policy `DC_SYNC_POLICY` selects. A torn group must
    // recover a clean *record* prefix — group atomicity is not promised,
    // losing durable records is forbidden.
    let ops: Vec<Op> = workload(140)
        .into_iter()
        .map(|op| match op {
            Op::Insert(..) => op,
            Op::Delete(k, m) => Op::Insert(k, m),
        })
        .collect();
    let cfg = config(0);
    let total = {
        let dir = TempDir::new("fault-batch-dry");
        let fs = FaultFs::new(FaultPlan::default());
        let (attempted, _) = run_batched_until_fault(&dir, &ops, &fs, cfg);
        assert_eq!(attempted, ops.len() as u64, "dry run must not fault");
        let written = fs.written();
        std::fs::remove_dir_all(&dir).ok();
        written
    };
    assert!(total > 4096, "workload too small to sweep ({total} bytes)");
    let stride = total / 12;
    let mut offsets = Vec::new();
    for k in 0..12 {
        let base = k * stride + 1;
        offsets.extend([base, base + 1, base + stride / 2]);
    }
    for offset in offsets {
        let dir = TempDir::new(&format!("fault-batch-{offset}"));
        let fs = FaultFs::new(FaultPlan {
            crash_after_bytes: Some(offset),
            ..FaultPlan::default()
        });
        let (attempted, synced) = run_batched_until_fault(&dir, &ops, &fs, cfg);
        assert!(fs.crashed(), "offset {offset} must crash mid-workload");
        check_recovery(&dir, &ops, attempted, synced);
    }
}

#[test]
fn crash_sweep_with_checkpoints_bounds_replay() {
    let ops = workload(120);
    let cfg = config(25);
    let total = total_wal_bytes(&ops, cfg, "ckpt-dry");
    // Crash points in the back half, where checkpoints have happened.
    for k in 1..8 {
        let offset = total / 2 + k * (total / 16);
        let dir = TempDir::new(&format!("fault-ckpt-{offset}"));
        let fs = FaultFs::new(FaultPlan {
            crash_after_bytes: Some(offset),
            ..FaultPlan::default()
        });
        let (attempted, synced) = run_until_fault(&dir, &ops, &fs, cfg);
        assert!(fs.crashed());
        let report = check_recovery(&dir, &ops, attempted, synced);
        assert!(
            report.checkpoint_lsn > 0,
            "offset {offset}: a checkpoint must be live"
        );
        assert!(
            report.replayed_entries < ops.len() as u64,
            "checkpoint must bound the replay"
        );
    }
}

#[test]
fn failed_fsyncs_never_lose_synced_writes() {
    let ops = workload(80);
    let cfg = config(0);
    // Lazy policies issue far fewer fsyncs than there are appends, so count
    // the syncs a clean run makes and spread the fault points across that
    // range instead of hard-coding append-based positions.
    let total_syncs = {
        let dir = TempDir::new("fault-fsync-dry");
        let fs = FaultFs::new(FaultPlan::default());
        let (attempted, _) = run_until_fault(&dir, &ops, &fs, cfg);
        assert_eq!(attempted, ops.len() as u64, "dry run must not fault");
        let syncs = fs.synced();
        std::fs::remove_dir_all(&dir).ok();
        syncs
    };
    assert!(total_syncs > 0, "the workload must fsync at least once");
    let nths: Vec<u64> = [1, 4, 12, 23, 47]
        .into_iter()
        .map(|k: u64| 1 + (k - 1) * total_syncs.saturating_sub(1) / 46)
        .collect();
    for nth in nths {
        let dir = TempDir::new(&format!("fault-fsync-{nth}"));
        let fs = FaultFs::new(FaultPlan {
            fail_sync: Some(nth),
            ..FaultPlan::default()
        });
        let (attempted, synced) = run_until_fault(&dir, &ops, &fs, cfg);
        assert!(fs.crashed(), "fsync #{nth} must fire");
        check_recovery(&dir, &ops, attempted, synced);
    }
}

#[test]
fn bit_flips_recover_to_a_clean_prefix() {
    let ops = workload(100);
    let cfg = config(0);
    let total = total_wal_bytes(&ops, cfg, "flip-dry");
    for k in 1..10 {
        let offset = k * (total / 10);
        let dir = TempDir::new(&format!("fault-flip-{offset}"));
        let fs = FaultFs::new(FaultPlan {
            flip_bit: Some((offset, 0x10)),
            ..FaultPlan::default()
        });
        // A flip is silent: the workload completes.
        let (attempted, _) = run_until_fault(&dir, &ops, &fs, cfg);
        assert_eq!(attempted, ops.len() as u64);
        assert!(!fs.crashed());
        // Recovery must detect the flip and fall back to a clean prefix —
        // durability of entries past a corrupted-on-disk frame cannot be
        // promised, so the lower bound here is 0, not synced_lsn.
        let report = check_recovery(&dir, &ops, attempted, 0);
        assert!(
            report.truncated_bytes > 0 || report.tail_lost,
            "offset {offset}: the flip must be detected"
        );
    }
}
