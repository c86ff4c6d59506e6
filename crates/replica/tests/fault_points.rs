//! The replication fault matrix: deterministic crashes at each stage of
//! the segment-shipping pipeline, always ending in a **promotion** that
//! must come up writable and LSN-continuous.
//!
//! Four crash points (ISSUE: the replication boundary, both sides):
//!
//! 1. the **primary** dies mid-segment-write — the follower tails the
//!    surviving directory and is promoted in its place;
//! 2. the **follower** dies mid-mirror-append — its directory reopens to
//!    a clean prefix of what it had replicated;
//! 3. a **bit flip** lands in the follower's mirror at the replication
//!    boundary — promotion-time recovery seals the log at the damage;
//! 4. the **first fsync fails during checkpoint-image install** at
//!    bootstrap — the manifest is never committed, so a clean retry
//!    re-bootstraps from nothing.
//!
//! Every scenario asserts the replication ordering invariant
//! `synced ≤ recovered ≤ attempted` and differentially checks the
//! promoted engine against a never-crashed monolith fed the same prefix.
//! The sync policy is `DC_SYNC_POLICY`-selected (`always` | `every4` |
//! `group`), matching the CI fault matrix.

use std::path::Path;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use dc_common::TempDir;
use dc_durable::{apply, FaultFs, FaultPlan, SyncPolicy, WalEntry};
use dc_replica::{promote_dir, DirSource, Follower, FollowerConfig};
use dc_serve::{EngineConfig, ShardedDcTree, StdFs, WalOptions};
use dc_tpcd::{generate, TpcdConfig, TpcdData};
use dc_tree::{DcTree, DcTreeConfig};

const OPS: usize = 100;
const SHARDS: usize = 2;

fn tpcd() -> TpcdData {
    generate(&TpcdConfig::scaled(500, 7))
}

fn sync_policy() -> SyncPolicy {
    match std::env::var("DC_SYNC_POLICY").as_deref() {
        Ok("every4") => SyncPolicy::EveryN(4),
        Ok("group") => SyncPolicy::GroupCommitMs(3_600_000),
        _ => SyncPolicy::Always,
    }
}

/// Deterministic insert/delete mix, expressed as WAL entries so the
/// oracle replays the exact recovery code path.
fn workload(data: &TpcdData) -> Vec<WalEntry> {
    let mut ops = Vec::with_capacity(OPS);
    let mut live: Vec<usize> = Vec::new();
    let mut state = 0x5EED_F00Du64;
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
            sync: sync_policy(),
            segment_bytes: 1024, // small budget: faults cross rotations
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

/// Runs the workload on a primary over `fs` until a fault surfaces.
/// Returns `(attempted, synced)` — the recoverable upper bound (one op of
/// slack when it died mid-op) and the durable lower bound.
fn run_primary(
    dir: &Path,
    data: &TpcdData,
    ops: &[WalEntry],
    fs: Option<Arc<dyn dc_serve::WalFs>>,
    checkpoint_every: u64,
) -> (u64, u64) {
    let engine = match ShardedDcTree::new(data.schema.clone(), config(dir, fs, checkpoint_every)) {
        Ok(engine) => engine,
        Err(_) => return (0, 0),
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
    if !died {
        engine.flush(); // durability barrier: everything acked is synced
    }
    let synced = engine.metrics().durability.wal_synced_lsn.load(Relaxed);
    (ok + u64::from(died), synced)
}

/// Asserts the promoted engine is exactly the oracle prefix `P`, is
/// writable, and continues the log at `P + 1`. Returns `P`.
fn check_promoted(
    promoted: &ShardedDcTree,
    data: &TpcdData,
    ops: &[WalEntry],
    synced: u64,
    attempted: u64,
) -> u64 {
    let d = &promoted.metrics().durability;
    let p = d.recovery_checkpoint_lsn.load(Relaxed) + d.recovery_replayed_entries.load(Relaxed);
    assert!(
        synced <= p,
        "promotion lost a synced write: synced={synced} recovered={p}"
    );
    assert!(
        p <= attempted,
        "promotion invented writes: recovered={p} attempted={attempted}"
    );
    let mono = oracle(data, ops, p as usize);
    assert_eq!(promoted.len(), mono.len(), "len mismatch at prefix {p}");
    assert_eq!(
        promoted.total_summary().unwrap(),
        mono.total_summary().unwrap()
    );
    // Writable and LSN-continuous: the first post-promotion write must
    // land at exactly P + 1 — no gap, no reuse.
    let r = &data.records[0];
    promoted
        .insert_raw(&data.paths_for(r), r.measure)
        .expect("promoted engine must accept writes");
    promoted.flush();
    assert_eq!(
        promoted.metrics().durability.wal_last_lsn.load(Relaxed),
        p + 1,
        "promoted log is not LSN-continuous"
    );
    p
}

/// Segment-file traffic of a fault-free run, used to place the crashes.
fn total_wal_bytes(data: &TpcdData, ops: &[WalEntry]) -> u64 {
    let dir = TempDir::new("repl-dry");
    let fs = FaultFs::new(FaultPlan::default());
    let (attempted, _) = run_primary(&dir, data, ops, Some(Arc::new(fs.clone())), 0);
    assert_eq!(attempted, ops.len() as u64);
    let bytes = fs.written();
    assert!(bytes > 2048, "workload too small to cross segments");
    bytes
}

/// Crash point 1: the primary dies mid-segment-write. A follower tails
/// the surviving directory (the bytes outlive the process) and is
/// promoted in the dead primary's place.
#[test]
fn primary_crash_mid_send_promotes_follower() {
    let data = tpcd();
    let ops = workload(&data);
    let total = total_wal_bytes(&data, &ops);
    for i in [2u64, 4, 6, 8] {
        let offset = total * i / 9;
        let primary_dir = TempDir::new("repl-p1-primary");
        let follower_dir = TempDir::new("repl-p1-follower");
        let fault = FaultFs::new(FaultPlan {
            crash_after_bytes: Some(offset),
            ..FaultPlan::default()
        });
        let (attempted, synced) =
            run_primary(&primary_dir, &data, &ops, Some(Arc::new(fault.clone())), 0);
        assert!(fault.crashed(), "crash at byte {offset} never fired");
        // The primary is gone; its directory survives. Reads through the
        // fault filesystem still serve (only writes are dead).
        let follower = Follower::bootstrap(
            DirSource {
                fs: Arc::new(fault.clone()),
                dir: primary_dir.to_path_buf(),
            },
            data.schema.clone(),
            FollowerConfig {
                engine: EngineConfig {
                    num_shards: SHARDS,
                    ..EngineConfig::default()
                },
                ..FollowerConfig::new(&follower_dir)
            },
        )
        .expect("bootstrap from the dead primary's directory");
        follower.catch_up().expect("tail the surviving segments");
        let promoted = follower.promote().expect("promotion must succeed");
        check_promoted(&promoted, &data, &ops, synced, attempted);
        drop(promoted);
    }
}

/// Crash point 2: the follower dies mid-mirror-append. Its directory
/// reopens (promotion after primary loss) to a clean prefix of what it
/// had replicated — never more than the primary attempted.
#[test]
fn follower_crash_mid_apply_recovers_clean_prefix() {
    let data = tpcd();
    let ops = workload(&data);
    let total = total_wal_bytes(&data, &ops);
    for i in [1u64, 3, 5, 7] {
        let offset = total * i / 9;
        let primary_dir = TempDir::new("repl-p2-primary");
        let follower_dir = TempDir::new("repl-p2-follower");
        let (attempted, _) = run_primary(&primary_dir, &data, &ops, None, 0);
        assert_eq!(attempted, ops.len() as u64);
        let fault = FaultFs::new(FaultPlan {
            crash_after_bytes: Some(offset),
            ..FaultPlan::default()
        });
        let follower = Follower::bootstrap(
            DirSource {
                fs: Arc::new(StdFs),
                dir: primary_dir.to_path_buf(),
            },
            data.schema.clone(),
            FollowerConfig {
                fs: Some(Arc::new(fault.clone())),
                engine: EngineConfig {
                    num_shards: SHARDS,
                    ..EngineConfig::default()
                },
                ..FollowerConfig::new(&follower_dir)
            },
        )
        .expect("bootstrap precedes the crash offset");
        // Tail until the injected crash kills a mirror append.
        let death = follower.catch_up();
        assert!(death.is_err(), "crash at byte {offset} never fired");
        // Everything the follower *applied* was mirror-fsynced first, so
        // reopening its directory must recover at least that much.
        let follower_synced = follower.applied_lsn();
        drop(follower);
        let promoted = promote_dir(
            Arc::new(StdFs),
            &follower_dir,
            data.schema.clone(),
            EngineConfig {
                num_shards: SHARDS,
                ..EngineConfig::default()
            },
        )
        .expect("follower directory must reopen after its crash");
        check_promoted(&promoted, &data, &ops, follower_synced, attempted);
        drop(promoted);
    }
}

/// Crash point 3: a silent bit flip lands in the follower's mirror at the
/// replication boundary. Replication itself cannot see it (the follower
/// applied the in-memory entries); promotion-time recovery's CRC sweep
/// must seal the log at the damage and keep a strict prefix.
#[test]
fn torn_frame_in_mirror_seals_on_promotion() {
    let data = tpcd();
    let ops = workload(&data);
    let total = total_wal_bytes(&data, &ops);
    for i in [2u64, 5, 7] {
        let offset = total * i / 9;
        let primary_dir = TempDir::new("repl-p3-primary");
        let follower_dir = TempDir::new("repl-p3-follower");
        let (attempted, _) = run_primary(&primary_dir, &data, &ops, None, 0);
        let fault = FaultFs::new(FaultPlan {
            flip_bit: Some((offset, 0x10)),
            ..FaultPlan::default()
        });
        let follower = Follower::bootstrap(
            DirSource {
                fs: Arc::new(StdFs),
                dir: primary_dir.to_path_buf(),
            },
            data.schema.clone(),
            FollowerConfig {
                fs: Some(Arc::new(fault.clone())),
                engine: EngineConfig {
                    num_shards: SHARDS,
                    ..EngineConfig::default()
                },
                ..FollowerConfig::new(&follower_dir)
            },
        )
        .expect("bit flips are silent at bootstrap");
        follower
            .catch_up()
            .expect("bit flips are silent while tailing");
        assert!(!fault.crashed());
        assert_eq!(follower.applied_lsn(), attempted, "follower saw every op");
        drop(follower);
        let promoted = promote_dir(
            Arc::new(StdFs),
            &follower_dir,
            data.schema.clone(),
            EngineConfig {
                num_shards: SHARDS,
                ..EngineConfig::default()
            },
        )
        .expect("promotion seals the damage instead of failing");
        // The flipped frame cannot be promised back: the durable lower
        // bound at the damage point is unknowable, so only the prefix
        // bound and the differential have teeth — plus the demand that
        // the flip was actually *detected*.
        let p = check_promoted(&promoted, &data, &ops, 0, attempted);
        assert!(
            p < attempted,
            "flip at byte {offset} went undetected: promoted all {attempted} ops"
        );
        drop(promoted);
    }
}

/// Crash point 4: the first fsync during checkpoint-image install fails
/// at bootstrap. The manifest commits *after* the images, so the wrecked
/// install leaves no manifest and a clean retry starts from nothing.
#[test]
fn fsync_failure_during_checkpoint_install_is_retryable() {
    let data = tpcd();
    let ops = workload(&data);
    let primary_dir = TempDir::new("repl-p4-primary");
    let follower_dir = TempDir::new("repl-p4-follower");
    // Half the workload, a real checkpoint (so the bundle has images),
    // then the rest — the bundle alone is a strict prefix.
    let engine = ShardedDcTree::new(data.schema.clone(), config(&primary_dir, None, 0)).unwrap();
    for op in &ops[..OPS / 2] {
        apply_to_engine(&engine, op).unwrap();
    }
    let ckpt_lsn = engine.checkpoint().expect("explicit checkpoint");
    assert_eq!(ckpt_lsn, (OPS / 2) as u64);
    for op in &ops[OPS / 2..] {
        apply_to_engine(&engine, op).unwrap();
    }
    engine.flush();
    let attempted = ops.len() as u64;
    let source = || DirSource {
        fs: Arc::new(StdFs),
        dir: primary_dir.to_path_buf(),
    };
    let fault = FaultFs::new(FaultPlan {
        fail_sync: Some(1),
        ..FaultPlan::default()
    });
    let wrecked = Follower::bootstrap(
        source(),
        data.schema.clone(),
        FollowerConfig {
            fs: Some(Arc::new(fault.clone())),
            engine: EngineConfig {
                num_shards: SHARDS,
                ..EngineConfig::default()
            },
            ..FollowerConfig::new(&follower_dir)
        },
    );
    assert!(wrecked.is_err(), "image-install fsync #1 must surface");
    assert!(fault.crashed());
    // The atomic-commit ordering held: no manifest means no half-adopted
    // checkpoint — the retry below re-installs from scratch.
    assert!(
        dc_durable::Manifest::load(&StdFs, &follower_dir)
            .unwrap()
            .is_none(),
        "failed install must not commit a manifest"
    );
    let follower = Follower::bootstrap(
        source(),
        data.schema.clone(),
        FollowerConfig {
            engine: EngineConfig {
                num_shards: SHARDS,
                ..EngineConfig::default()
            },
            ..FollowerConfig::new(&follower_dir)
        },
    )
    .expect("clean retry after the wrecked install");
    assert_eq!(
        follower
            .engine()
            .metrics()
            .durability
            .recovery_checkpoint_lsn
            .load(Relaxed),
        ckpt_lsn,
        "retry bootstraps from the shipped checkpoint"
    );
    follower.catch_up().unwrap();
    assert_eq!(follower.applied_lsn(), attempted);
    let promoted = follower.promote().unwrap();
    let p = check_promoted(&promoted, &data, &ops, attempted, attempted);
    assert_eq!(p, attempted, "nothing to lose on a fault-free tail");
    drop(promoted);
    drop(engine);
}
