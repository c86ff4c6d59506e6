//! Engine-level crash/fault differential harness.
//!
//! Drives a WAL-backed [`ShardedDcTree`] — at one shard and at two —
//! through a deterministic workload on a [`FaultFs`] that crashes at
//! planned byte offsets, fails fsyncs, or flips bits — then reopens the
//! directory on the real filesystem and asserts the recovered engine is
//! exactly some prefix of the workload:
//!
//! * **No acked-synced write is lost**: `synced ≤ P` where `P` is the
//!   recovered prefix (`recovery_checkpoint_lsn + recovery_replayed_entries`).
//! * **No invented writes**: `P ≤ attempted` (with one op of slack when the
//!   run died mid-op: an entry can hit the disk and then fail its fsync or
//!   its auto-checkpoint, so the caller saw `Err` but recovery may keep it).
//! * **Exact prefix semantics**: every aggregate answer from the recovered
//!   engine equals a never-crashed monolith fed the same first `P` ops.
//!
//! This is the repository's one crash harness: the dense byte-offset grid,
//! the uneven-batch sweep and the plain reopen cases run here against the
//! full engine path — sharding, the catalog catch-up barrier, checkpoint
//! images, and recovery through `ShardedDcTree::new`. The sync policy is
//! `DC_SYNC_POLICY`-selected (`always` | `every4` | `group`) so CI runs the
//! file as a matrix; everything else is fixed by seed.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use dc_common::{DcError, TempDir};
use dc_durable::{
    apply, fetch_checkpoint, is_scratch_image_name, parse_segment_file_name, scratch_image_name,
    segment_file_name, FaultFs, FaultPlan, Manifest, StdFs, SyncPolicy, WalEntry,
};
use dc_query::{RangeQueryGen, ValuePick};
use dc_replica::{DirSource, Follower, FollowerConfig};
use dc_serve::{
    protocol, DiskOptions, EngineConfig, OocOptions, ShardedDcTree, StorageMode, WalOptions,
};
use dc_storage::BlockConfig;
use dc_tpcd::{generate, TpcdConfig, TpcdData};
use dc_tree::{DcTree, DcTreeConfig};

const OPS: usize = 120;
/// Every sweep and reopen case runs at both: one shard is the plain
/// log-then-apply store, two add routing and the catalog catch-up barrier.
const SHARD_COUNTS: [usize; 2] = [1, 2];

fn tpcd() -> TpcdData {
    generate(&TpcdConfig::scaled(600, 7))
}

fn sync_policy() -> SyncPolicy {
    match std::env::var("DC_SYNC_POLICY").as_deref() {
        Ok("every4") => SyncPolicy::EveryN(4),
        // An hour-long cadence: the log syncs on barriers and on the shard
        // writers' group commits only — maximum exposure.
        Ok("group") => SyncPolicy::GroupCommitMs(3_600_000),
        _ => SyncPolicy::Always,
    }
}

/// Small nodes, so a 120-op workload splits on its way in and on replay.
fn tree_config() -> DcTreeConfig {
    DcTreeConfig {
        dir_capacity: 4,
        data_capacity: 4,
        ..DcTreeConfig::default()
    }
}

/// `n` logged mutations, expressed as the WAL entries they should produce so
/// the oracle replays through exactly the same code path as recovery.
fn workload(data: &TpcdData, n: usize) -> Vec<WalEntry> {
    let mut ops = Vec::with_capacity(n);
    let mut live: Vec<usize> = Vec::new();
    let mut state = 0xFA17_C0DEu64;
    let mut next = |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    for i in 0..n {
        let delete = !live.is_empty() && next(100) < 15;
        if delete {
            let idx = live.swap_remove(next(live.len() as u64) as usize);
            ops.push(entry(data, idx, true));
        } else {
            let idx = i % data.records.len();
            live.push(idx);
            ops.push(entry(data, idx, false));
        }
    }
    ops
}

/// A monolithic `DcTree` fed the first `prefix` ops.
fn oracle(data: &TpcdData, ops: &[WalEntry], prefix: usize) -> DcTree {
    let mut tree = DcTree::new(data.schema.clone(), tree_config());
    for op in &ops[..prefix] {
        apply(&mut tree, op).unwrap();
    }
    tree
}

fn config(
    dir: &Path,
    fs: Option<Arc<dyn dc_serve::WalFs>>,
    shards: usize,
    checkpoint_every: u64,
) -> EngineConfig {
    EngineConfig {
        num_shards: shards,
        tree: tree_config(),
        wal: Some(WalOptions {
            sync: sync_policy(),
            segment_bytes: 1024, // small budget: sweeps cross many rotations
            checkpoint_every,
            fs,
            ..WalOptions::new(dir)
        }),
        ..EngineConfig::default()
    }
}

/// Opens (or recovers) `dir` on the real filesystem.
fn open(dir: &Path, data: &TpcdData, shards: usize) -> ShardedDcTree {
    ShardedDcTree::new(data.schema.clone(), config(dir, None, shards, 0))
        .expect("opening on a clean filesystem must succeed")
}

fn apply_to_engine(engine: &ShardedDcTree, op: &WalEntry) -> dc_common::DcResult<()> {
    match op {
        WalEntry::Insert { paths, measure } => engine.insert_raw(paths, *measure),
        WalEntry::Delete { paths, measure } => engine.delete_raw(paths, *measure),
    }
}

/// Applies `ops` one call each on a filesystem that is not expected to fail.
fn feed(engine: &ShardedDcTree, ops: &[WalEntry]) {
    for op in ops {
        apply_to_engine(engine, op).unwrap();
    }
}

/// How a fault run drives the engine.
#[derive(Clone, Copy)]
struct Run {
    shards: usize,
    checkpoint_every: u64,
    /// Ops per engine call, cycled: `1` is an `insert_raw`/`delete_raw`,
    /// more is one `insert_batch_raw` (one WAL frame group; inserts only).
    batches: &'static [usize],
}

impl Run {
    /// One op per call, no auto-checkpoints.
    fn single(shards: usize) -> Self {
        Run {
            shards,
            checkpoint_every: 0,
            batches: &[1],
        }
    }
}

/// Runs the workload on `fs` until an injected fault surfaces (or the ops run
/// out, which ends on a `flush` barrier). Returns `(attempted, synced)`: an
/// upper bound on recoverable ops and the durable lower bound read from the
/// engine's gauges. A call that returned `Err` can still have landed its WAL
/// frames (its fsync or its auto-checkpoint failed after the write, or the
/// fault tore a frame group part-way), so every op of that call counts as
/// attempted: recovery may keep any clean prefix of them.
fn run_until_fault(
    dir: &Path,
    data: &TpcdData,
    ops: &[WalEntry],
    fs: &FaultFs,
    run: Run,
) -> (u64, u64) {
    let cfg = config(
        dir,
        Some(Arc::new(fs.clone())),
        run.shards,
        run.checkpoint_every,
    );
    let engine = match ShardedDcTree::new(data.schema.clone(), cfg) {
        Ok(engine) => engine,
        Err(DcError::Fault(_)) => return (0, 0), // crashed while opening the WAL
        Err(e) => panic!("unexpected open error: {e}"),
    };
    let mut attempted = 0;
    let mut died = false;
    let mut sizes = run.batches.iter().cycle();
    while !died && attempted < ops.len() {
        let call = &ops[attempted..ops.len().min(attempted + sizes.next().unwrap())];
        let result = match call {
            [op] => apply_to_engine(&engine, op),
            group => engine.insert_batch_raw(
                &group
                    .iter()
                    .map(|op| match op {
                        WalEntry::Insert { paths, measure } => (paths.clone(), *measure),
                        WalEntry::Delete { .. } => unreachable!("batched runs are insert-only"),
                    })
                    .collect::<Vec<_>>(),
            ),
        };
        attempted += call.len();
        died = match result {
            Ok(()) => false,
            Err(DcError::Fault(_)) => true,
            Err(e) => panic!("unexpected mutation error: {e}"),
        };
    }
    if !died {
        engine.flush();
    }
    let synced = engine.metrics().durability.wal_synced_lsn.load(Relaxed);
    drop(engine); // shutdown tolerates the dead filesystem
    (attempted as u64, synced)
}

/// What the opening recovery pass reported (the `recovery_*` gauges).
#[derive(Debug)]
struct Recovered {
    checkpoint_lsn: u64,
    replayed: u64,
    truncated_bytes: u64,
    tail_lost: bool,
}

impl Recovered {
    fn of(engine: &ShardedDcTree) -> Self {
        let d = &engine.metrics().durability;
        Recovered {
            checkpoint_lsn: d.recovery_checkpoint_lsn.load(Relaxed),
            replayed: d.recovery_replayed_entries.load(Relaxed),
            truncated_bytes: d.recovery_truncated_bytes.load(Relaxed),
            tail_lost: d.recovery_tail_lost.load(Relaxed) == 1,
        }
    }

    /// The recovered prefix `P` of the workload.
    fn prefix(&self) -> u64 {
        self.checkpoint_lsn + self.replayed
    }
}

/// Reopens `dir` on the real filesystem and differentially checks the
/// recovered engine against the oracle prefix.
fn check_recovery(
    dir: &Path,
    data: &TpcdData,
    ops: &[WalEntry],
    shards: usize,
    attempted: u64,
    synced: u64,
) -> Recovered {
    let engine = open(dir, data, shards);
    let r = Recovered::of(&engine);
    let p = r.prefix();
    assert!(
        synced <= p,
        "lost a synced-acked write: synced={synced} {r:?}"
    );
    assert!(
        p <= attempted,
        "recovered more than was attempted: attempted={attempted} {r:?}"
    );
    assert_answers(&engine, &oracle(data, ops, p as usize), data);
    r
}

/// `engine` holds exactly what `mono` holds: same length, same total, same
/// answer on a spread of range queries, over structurally sound shard trees.
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
    engine.check_invariants().unwrap();
}

/// Segment-file bytes and fsyncs of a fault-free run, used to place faults.
fn dry_run(data: &TpcdData, ops: &[WalEntry], run: Run) -> (u64, u64) {
    let dir = TempDir::new("crash-dry");
    let fs = FaultFs::new(FaultPlan::default());
    let (attempted, synced) = run_until_fault(&dir, data, ops, &fs, run);
    assert_eq!(attempted, ops.len() as u64, "dry run must not fault");
    assert_eq!(synced, ops.len() as u64, "a clean run ends on a barrier");
    let bytes = fs.written();
    assert!(bytes > 4096, "workload too small to sweep ({bytes} bytes)");
    (bytes, fs.synced())
}

/// Crashes `run` at each byte offset and checks every recovery.
fn crash_sweep(data: &TpcdData, ops: &[WalEntry], run: Run, offsets: &[u64]) -> Vec<Recovered> {
    offsets
        .iter()
        .map(|&offset| {
            let dir = TempDir::new("crash-sweep");
            let fs = FaultFs::new(FaultPlan {
                crash_after_bytes: Some(offset),
                ..FaultPlan::default()
            });
            let (attempted, synced) = run_until_fault(&dir, data, ops, &fs, run);
            assert!(fs.crashed(), "crash at byte {offset} never fired");
            check_recovery(&dir, data, ops, run.shards, attempted, synced)
        })
        .collect()
}

/// `points` strides over `total` bytes, each visited just before and just
/// after the boundary a plain stride would straddle, and half-way along.
fn byte_grid(total: u64, points: u64) -> Vec<u64> {
    let stride = total / points;
    (0..points)
        .flat_map(|k| {
            let base = k * stride + 1;
            [base, base + 1, base + stride / 2]
        })
        .collect()
}

#[test]
fn engine_crash_sweep_over_byte_offsets() {
    let data = tpcd();
    let ops = workload(&data, OPS);
    for shards in SHARD_COUNTS {
        let run = Run::single(shards);
        let (total, _) = dry_run(&data, &ops, run);
        let visited = crash_sweep(&data, &ops, run, &byte_grid(total, 16));
        assert_eq!(visited.len(), 48);
    }
}

#[test]
fn crash_sweep_at_batch_boundaries() {
    // The batched commit path under the same contract as the
    // record-at-a-time sweep: synced ≤ recovered ≤ attempted, for crash
    // points landing before, inside, and after WAL frame groups. A torn
    // group must recover a clean *record* prefix — group atomicity is not
    // promised, losing durable records is forbidden.
    let data = tpcd();
    let ops = inserts(&data, 140);
    for shards in SHARD_COUNTS {
        let run = Run {
            batches: &[3, 1, 8, 5],
            ..Run::single(shards)
        };
        let (total, _) = dry_run(&data, &ops, run);
        crash_sweep(&data, &ops, run, &byte_grid(total, 12));
    }
}

#[test]
fn engine_crash_sweep_with_checkpoints_bounds_replay() {
    let data = tpcd();
    let ops = workload(&data, OPS);
    for shards in SHARD_COUNTS {
        let run = Run {
            checkpoint_every: 25,
            ..Run::single(shards)
        };
        let (total, _) = dry_run(&data, &ops, run);
        // Crash points in the back half, where checkpoints have happened.
        let offsets: Vec<u64> = (1..8).map(|k| total / 2 + k * (total / 16)).collect();
        for (r, offset) in crash_sweep(&data, &ops, run, &offsets).iter().zip(offsets) {
            assert!(
                r.checkpoint_lsn > 0,
                "back-half crash at {offset} should land after a checkpoint"
            );
            assert!(r.replayed < OPS as u64, "checkpoint must bound the replay");
        }
    }
}

#[test]
fn engine_failed_fsyncs_never_lose_synced_writes() {
    let data = tpcd();
    let ops = workload(&data, OPS);
    // Only `group` lets the shard writers fsync on their own schedule, so
    // only there can a run finish in fewer fsyncs than the dry run counted.
    let scheduled = matches!(sync_policy(), SyncPolicy::GroupCommitMs(_));
    for shards in SHARD_COUNTS {
        let run = Run::single(shards);
        // Lazy policies issue far fewer fsyncs than there are appends, so
        // spread the fault points over the syncs a clean run makes.
        let (_, total_syncs) = dry_run(&data, &ops, run);
        for k in [1u64, 4, 12, 23, 47] {
            let nth = 1 + (k - 1) * (total_syncs - 1) / 46;
            let dir = TempDir::new("crash-fsync");
            let fs = FaultFs::new(FaultPlan {
                fail_sync: Some(nth),
                ..FaultPlan::default()
            });
            let (attempted, synced) = run_until_fault(&dir, &data, &ops, &fs, run);
            assert!(fs.crashed() || scheduled, "fsync fault #{nth} never fired");
            check_recovery(&dir, &data, &ops, shards, attempted, synced);
        }
    }
}

#[test]
fn engine_bit_flips_recover_to_a_clean_prefix() {
    let data = tpcd();
    let ops = workload(&data, OPS);
    for shards in SHARD_COUNTS {
        let run = Run::single(shards);
        let (total, _) = dry_run(&data, &ops, run);
        for k in 1..10 {
            let offset = k * (total / 10);
            let dir = TempDir::new("crash-flip");
            let fs = FaultFs::new(FaultPlan {
                flip_bit: Some((offset, 0x10)),
                ..FaultPlan::default()
            });
            // A bit flip is silent — the whole workload runs and every append
            // is acked, but the corrupted frame cannot be promised back:
            // recovery stops at the last frame whose CRC still holds. So the
            // durable lower bound here is 0, and the differential prefix
            // check is the teeth.
            let (attempted, _synced) = run_until_fault(&dir, &data, &ops, &fs, run);
            assert!(!fs.crashed());
            assert_eq!(attempted, ops.len() as u64);
            let r = check_recovery(&dir, &data, &ops, shards, attempted, 0);
            assert!(
                r.prefix() < attempted,
                "flip at byte {offset} went undetected: recovered all {attempted} ops"
            );
            assert!(
                r.truncated_bytes > 0 || r.tail_lost,
                "flip at byte {offset} must be reported: {r:?}"
            );
            // Half the log's segments lie behind an early flip and are
            // dropped whole — more than a torn tail, and reported as such.
            assert!(r.tail_lost || k > 5, "flip at byte {offset}: {r:?}");
        }
    }
}

#[test]
fn reopen_without_checkpoint_replays_the_log() {
    let data = tpcd();
    let ops = inserts(&data, 60);
    for shards in SHARD_COUNTS {
        let dir = TempDir::new("crash-replay");
        {
            let engine = open(&dir, &data, shards);
            feed(&engine, &ops);
            // Dropped without checkpoint: recovery must come from the WAL alone.
        }
        let engine = open(&dir, &data, shards);
        let r = Recovered::of(&engine);
        assert_eq!((r.checkpoint_lsn, r.replayed), (0, 60));
        assert_answers(&engine, &oracle(&data, &ops, 60), &data);
    }
}

#[test]
fn checkpoint_plus_tail_recovers_both_parts() {
    let data = tpcd();
    let mut ops = inserts(&data, 70);
    ops.push(entry(&data, 0, true)); // deletes in the tail too
    let mono = oracle(&data, &ops, ops.len());
    assert_eq!(mono.len(), 69);
    for shards in SHARD_COUNTS {
        let dir = TempDir::new("crash-mixed");
        {
            let engine = open(&dir, &data, shards);
            feed(&engine, &ops[..40]);
            assert_eq!(engine.checkpoint().unwrap(), 40);
            feed(&engine, &ops[40..]);
        }
        let engine = open(&dir, &data, shards);
        let r = Recovered::of(&engine);
        assert_eq!(r.checkpoint_lsn, 40);
        assert_eq!(r.replayed, 31, "only the tail is replayed");
        assert_answers(&engine, &mono, &data);
    }
}

/// The segment file the writer last appended to.
fn live_segment(dir: &Path) -> PathBuf {
    let seq = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| parse_segment_file_name(e.unwrap().file_name().to_str().unwrap()))
        .max()
        .expect("a live segment");
    dir.join(segment_file_name(seq))
}

#[test]
fn torn_log_tail_is_truncated_on_recovery() {
    let data = tpcd();
    let ops = inserts(&data, 25);
    let mono = oracle(&data, &ops, 25);
    for shards in SHARD_COUNTS {
        let dir = TempDir::new("crash-torn");
        {
            let engine = open(&dir, &data, shards);
            feed(&engine, &ops);
        }
        // Simulate a crash mid-append: garbage half-frame at the segment end.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(live_segment(&dir))
                .unwrap();
            f.write_all(&[0x55, 0x00, 0x00, 0x00, 0xAB]).unwrap();
        }
        let engine = open(&dir, &data, shards);
        assert_eq!(Recovered::of(&engine).truncated_bytes, 5);
        assert_answers(&engine, &mono, &data); // clean prefix fully recovered
        drop(engine);
        // The truncation made the file clean: a third open sees no
        // corruption and the same state.
        let engine = open(&dir, &data, shards);
        assert_eq!(Recovered::of(&engine).truncated_bytes, 0);
        assert_answers(&engine, &mono, &data);
    }
}

#[test]
fn recovery_is_equivalent_to_never_crashing() {
    // The same workload run continuously (the oracle) and chopped into
    // sessions with a kill (no checkpoint) every 37 ops, on a tiny segment
    // budget so recovery also crosses rotation boundaries. Final state must
    // match exactly.
    let data = tpcd();
    let ops = workload(&data, 200);
    let mono = oracle(&data, &ops, ops.len());
    for shards in SHARD_COUNTS {
        let dir = TempDir::new("crash-equivalence");
        let mut cfg = config(&dir, None, shards, 0);
        cfg.wal.as_mut().unwrap().segment_bytes = 512;
        let mut engine = ShardedDcTree::new(data.schema.clone(), cfg.clone()).unwrap();
        for (i, op) in ops.iter().enumerate() {
            if i % 37 == 36 {
                drop(engine);
                engine = ShardedDcTree::new(data.schema.clone(), cfg.clone()).unwrap();
            }
            apply_to_engine(&engine, op).unwrap();
        }
        drop(engine);
        let engine = ShardedDcTree::new(data.schema.clone(), cfg).unwrap();
        assert_answers(&engine, &mono, &data);
    }
}

#[test]
fn auto_checkpoint_bounds_the_log() {
    let data = tpcd();
    let ops = inserts(&data, 35);
    for shards in SHARD_COUNTS {
        let dir = TempDir::new("crash-autockpt");
        let mut cfg = config(&dir, None, shards, 10);
        cfg.wal.as_mut().unwrap().sync = SyncPolicy::EveryN(16);
        {
            let engine = ShardedDcTree::new(data.schema.clone(), cfg.clone()).unwrap();
            feed(&engine, &ops);
            let d = &engine.metrics().durability;
            assert_eq!(d.checkpoints.load(Relaxed), 3);
            assert!(
                d.wal_last_lsn.load(Relaxed) - d.checkpoint_last_lsn.load(Relaxed) < 10,
                "auto-checkpoints must reset the log"
            );
        }
        let engine = ShardedDcTree::new(data.schema.clone(), cfg).unwrap();
        let r = Recovered::of(&engine);
        assert_eq!(r.checkpoint_lsn, 30);
        assert_eq!(r.replayed, 5, "checkpoint bounds the replay");
        assert_answers(&engine, &oracle(&data, &ops, 35), &data);
    }
}

/// A group-commit engine whose cadence never fires on its own: only
/// barriers (and the shard writers' group commits) sync.
fn group_commit_config(dir: &Path, fs: Option<Arc<dyn dc_serve::WalFs>>) -> EngineConfig {
    let mut cfg = config(dir, fs, 2, 0);
    cfg.wal.as_mut().unwrap().sync = SyncPolicy::GroupCommitMs(3_600_000);
    cfg
}

#[test]
fn group_commit_policy_syncs_on_barrier() {
    let data = tpcd();
    let dir = TempDir::new("crash-groupcommit");
    let engine = ShardedDcTree::new(data.schema.clone(), group_commit_config(&dir, None)).unwrap();
    feed(&engine, &inserts(&data, 10));
    // The gauges move under the log's lock, at an append or a barrier: the
    // tenth append could not yet count itself as synced.
    let d = &engine.metrics().durability;
    assert_eq!(d.wal_last_lsn.load(Relaxed), 10);
    assert!(d.wal_synced_lsn.load(Relaxed) < 10, "no barrier issued yet");
    engine.flush();
    assert_eq!(d.wal_synced_lsn.load(Relaxed), 10);
}

#[test]
fn flush_reports_a_failed_fsync() {
    // The first fsync of the run fails — whether a shard writer's group
    // commit or the barrier's own sync gets there first, the barrier cannot
    // have made the insert durable, and must say so on the wire.
    let data = tpcd();
    let dir = TempDir::new("crash-flush-err");
    let fs = FaultFs::new(FaultPlan {
        fail_sync: Some(1),
        ..FaultPlan::default()
    });
    let cfg = group_commit_config(&dir, Some(Arc::new(fs.clone())));
    let engine = ShardedDcTree::new(data.schema.clone(), cfg).unwrap();
    feed(&engine, &inserts(&data, 1));
    let (reply, _) = protocol::handle_line(&engine, "FLUSH");
    assert!(
        reply.starts_with("ERR "),
        "FLUSH after a failed fsync: {reply}"
    );
    assert!(fs.crashed());
    let d = &engine.metrics().durability;
    assert!(d.wal_synced_lsn.load(Relaxed) < d.wal_last_lsn.load(Relaxed));
    assert_eq!(engine.len(), 1, "the barrier still made the insert visible");
}

#[test]
fn an_unsharded_checkpoint_is_rejected_not_half_opened() {
    // The one layout nothing writes any more: a committed checkpoint with no
    // shard images, its single image sitting beside the manifest.
    let data = tpcd();
    let dir = TempDir::new("crash-unsharded");
    let manifest = Manifest {
        checkpoint_lsn: 7,
        start_seq: 1,
        shards: 0,
    };
    manifest.store(&StdFs, &dir).unwrap();
    let image = DcTree::new(data.schema.clone(), tree_config());
    dc_oocore::write_image(&image, dir.join(format!("checkpoint.{:020}.dct", 7))).unwrap();
    let unsharded = |e: DcError| matches!(e, DcError::Corrupt(msg) if msg.contains("unsharded"));
    assert!(unsharded(fetch_checkpoint(&StdFs, &dir).unwrap_err()));
    for shards in SHARD_COUNTS {
        let cfg = config(&dir, None, shards, 0);
        assert!(unsharded(
            ShardedDcTree::new(data.schema.clone(), cfg).unwrap_err()
        ));
    }
}

/// [`config`] with the log under `dir/wal` and the shards resident or, with
/// `disk`, shard files of 512-byte pages under `dir/shards` behind an
/// eight-node cache.
fn storage_config(dir: &Path, shards: usize, disk: bool) -> EngineConfig {
    let mut cfg = config(&dir.join("wal"), None, shards, 0);
    if disk {
        cfg.storage = StorageMode::Disk(DiskOptions {
            dir: dir.join("shards"),
            ooc: OocOptions {
                block: BlockConfig::new(512),
                frames: 8,
            },
        });
    }
    cfg
}

#[test]
fn a_checkpoint_reopens_in_the_other_storage_mode() {
    // Every image is a shard file, so a directory checkpointed by resident
    // shards reopens on disk and the reverse, and a follower of either
    // kind installs the bundle either kind of primary serves.
    let data = tpcd();
    let ops = workload(&data, OPS);
    let mono = oracle(&data, &ops, OPS);
    for shards in SHARD_COUNTS {
        for disk in [false, true] {
            let dir = TempDir::new("crash-cross-mode");
            {
                let engine =
                    ShardedDcTree::new(data.schema.clone(), storage_config(&dir, shards, disk))
                        .unwrap();
                feed(&engine, &ops[..80]);
                assert_eq!(engine.checkpoint().unwrap(), 80);
                feed(&engine, &ops[80..]);
            }
            let engine =
                ShardedDcTree::new(data.schema.clone(), storage_config(&dir, shards, !disk))
                    .unwrap();
            assert_eq!(engine.is_disk(), !disk);
            let r = Recovered::of(&engine);
            assert_eq!((r.checkpoint_lsn, r.replayed), (80, 40));
            assert_answers(&engine, &mono, &data);
            drop(engine);

            for follower_disk in [false, true] {
                let replica = TempDir::new("crash-cross-mode-follower");
                let source = DirSource {
                    fs: Arc::new(StdFs),
                    dir: dir.join("wal"),
                };
                let mut follower_config = FollowerConfig::new(replica.join("wal"));
                follower_config.engine = storage_config(&replica, shards, follower_disk);
                let follower =
                    Follower::bootstrap(source, data.schema.clone(), follower_config).unwrap();
                assert_eq!(follower.engine().is_disk(), follower_disk);
                assert_eq!(follower.catch_up().unwrap(), OPS as u64);
                assert_answers(&follower.engine(), &mono, &data);
            }
        }
    }
}

#[test]
fn a_resident_recovery_rebuilds_the_checkpointed_tree() {
    // A recovered resident shard is the tree its checkpoint imaged, node
    // for node, built with the configuration the engine is opened with —
    // the image carries none.
    let data = tpcd();
    let ops = workload(&data, OPS);
    for shards in SHARD_COUNTS {
        let dir = TempDir::new("crash-same-tree");
        let imaged: Vec<_> = {
            let engine = open(&dir, &data, shards);
            feed(&engine, &ops);
            engine.checkpoint().unwrap();
            (0..shards)
                .map(|s| engine.shard_snapshot(s).structure().unwrap())
                .collect()
        };
        let mut cfg = config(&dir, None, shards, 0);
        cfg.tree.max_overlap = 0.25;
        let engine = ShardedDcTree::new(data.schema.clone(), cfg).unwrap();
        assert_eq!(Recovered::of(&engine).replayed, 0);
        for (s, want) in imaged.iter().enumerate() {
            let tree = engine.shard_snapshot(s);
            assert!(tree.structure().unwrap() == *want, "shard {s} differs");
            assert_eq!(tree.config().max_overlap, 0.25);
            assert_eq!(tree.config().dir_capacity, tree_config().dir_capacity);
            tree.check_invariants().unwrap();
        }
    }
}

#[test]
fn a_scratch_image_left_by_a_crash_is_never_loaded() {
    // A crash mid-image leaves a scratch image behind. Recovery must not
    // take it for a checkpoint, and removes it; so does the next
    // checkpoint, for one that appears while the engine runs.
    let data = tpcd();
    let ops = inserts(&data, 30);
    let mono = oracle(&data, &ops, 30);
    let scratch_files = |dir: &Path| {
        std::fs::read_dir(dir)
            .unwrap()
            .filter(|e| is_scratch_image_name(e.as_ref().unwrap().file_name().to_str().unwrap()))
            .count()
    };
    for shards in SHARD_COUNTS {
        let dir = TempDir::new("crash-scratch");
        {
            let engine = open(&dir, &data, shards);
            feed(&engine, &ops[..20]);
            engine.checkpoint().unwrap();
            feed(&engine, &ops[20..]);
        }
        for s in 0..shards as u32 {
            std::fs::write(dir.join(scratch_image_name(s)), b"half an image").unwrap();
        }
        let engine = open(&dir, &data, shards);
        let r = Recovered::of(&engine);
        assert_eq!((r.checkpoint_lsn, r.replayed), (20, 10));
        assert_answers(&engine, &mono, &data);
        assert_eq!(scratch_files(&dir), 0, "recovery removes scratch images");

        std::fs::write(dir.join(scratch_image_name(7)), b"half an image").unwrap();
        assert_eq!(engine.checkpoint().unwrap(), 30);
        assert_eq!(
            scratch_files(&dir),
            0,
            "a checkpoint removes scratch images"
        );
        let bytes = engine
            .metrics()
            .durability
            .checkpoint_last_bytes
            .load(Relaxed);
        let images: u64 = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap())
            .filter(|e| e.file_name().to_str().unwrap().ends_with(".dct"))
            .map(|e| e.metadata().unwrap().len())
            .sum();
        assert_eq!(bytes, images, "checkpoint_last_bytes counts the images");
    }
}

#[test]
fn rejected_writes_never_poison_the_wal() {
    // A mutation the catalog rejects (wrong dimension count, wrong path
    // depth) must leave the WAL untouched: the caller already saw an Err,
    // and recovery replays the log verbatim — a logged rejection would turn
    // one bad client request into a directory that can never be reopened.
    let data = tpcd();
    let good: Vec<_> = data.records[..40]
        .iter()
        .map(|r| (data.paths_for(r), r.measure))
        .collect();
    for shards in SHARD_COUNTS {
        let dir = TempDir::new("crash-reject");
        let expected_total;
        {
            let engine = open(&dir, &data, shards);
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
            let d = &engine.metrics().durability;
            assert_eq!(
                d.wal_last_lsn.load(Relaxed),
                20,
                "a rejected write was logged"
            );

            engine.insert_batch_raw(&good[20..]).unwrap();
            engine.flush();
            assert_eq!(engine.len(), good.len() as u64);
            expected_total = engine.total_summary().unwrap();
        }

        // Reopen: recovery must replay only the accepted writes.
        let reopened = open(&dir, &data, shards);
        assert_eq!(Recovered::of(&reopened).replayed, good.len() as u64);
        assert_eq!(reopened.len(), good.len() as u64);
        assert_eq!(reopened.total_summary().unwrap(), expected_total);
    }
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

/// Inserts of the generator's first `n` records.
fn inserts(data: &TpcdData, n: usize) -> Vec<WalEntry> {
    (0..n).map(|i| entry(data, i, false)).collect()
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
    let mut ops = inserts(&data, 40);
    let inserts = ops.len();
    // Unseen from the top; unseen leaf under a seen parent; seen paths with
    // a measure no record carries (reaches its shard, removes nothing); a
    // plain hit.
    ops.push(ghost_delete(&data, 0));
    let mut half_seen = data.paths_for(&data.records[1]);
    *half_seen[0].last_mut().unwrap() = "ghost-leaf".to_string();
    ops.push(WalEntry::Delete {
        paths: half_seen,
        measure: data.records[1].measure,
    });
    ops.push(WalEntry::Delete {
        paths: data.paths_for(&data.records[3]),
        measure: data.records[3].measure + 999,
    });
    ops.push(entry(&data, 2, true));
    let mono = oracle(&data, &ops, ops.len());
    assert_eq!(mono.len(), inserts as u64 - 1, "only the plain hit removes");

    for shards in SHARD_COUNTS {
        let dir = TempDir::new("crash-ghost");
        let values;
        {
            let engine = open(&dir, &data, shards);
            feed(&engine, &ops[..inserts]);
            engine.flush();
            values = catalog_values(&engine);
            let d = &engine.metrics().durability;
            assert_eq!(d.wal_last_lsn.load(Relaxed), inserts as u64);
            feed(&engine, &ops[inserts..]);
            engine.flush();
            assert_eq!(catalog_values(&engine), values, "a delete interned values");
            assert_eq!(d.wal_last_lsn.load(Relaxed), ops.len() as u64);
            assert_answers(&engine, &mono, &data);
        }

        // The logged misses replay as no-ops.
        let reopened = open(&dir, &data, shards);
        assert_eq!(Recovered::of(&reopened).replayed, ops.len() as u64);
        assert_eq!(catalog_values(&reopened), values);
        assert_answers(&reopened, &mono, &data);
    }
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
        let engine = open(&dir, &data, 2);
        feed(&engine, &ops);
        engine.flush();
        assert_answers(&engine, &mono, &data);
    }
    let reopened = open(&dir, &data, 2);
    assert_eq!(Recovered::of(&reopened).replayed, ops.len() as u64);
    assert_answers(&reopened, &mono, &data);
}

/// Writes `tail` inserts in groups of 100 into `segment_bytes` segments,
/// reopens the directory, and checks the replay: the same `len` and
/// `total_summary`, at most one command per shard per 512-entry replay
/// chunk rather than one per entry, and one publish per shard — the
/// replay's final flush — rather than one per chunk.
fn tail_replays_in_batches(tail: usize, segment_bytes: u64) {
    const SHARDS: usize = 2;
    let data = generate(&TpcdConfig::scaled(tail, 11));
    let dir = TempDir::new("crash-batched-replay");
    let mut cfg = config(&dir, None, SHARDS, 0);
    cfg.wal.as_mut().unwrap().segment_bytes = segment_bytes;
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
        tail as u64
    );
    assert_eq!(reopened.len(), tail as u64);
    assert_eq!(reopened.total_summary().unwrap(), expected_total);
    let commands = m.apply_latency.count();
    assert!(
        commands <= (SHARDS * tail.div_ceil(512)) as u64,
        "{commands} commands replayed a {tail}-entry tail over {segment_bytes}-byte segments"
    );
    for (i, shard) in m.shards.iter().enumerate() {
        assert_eq!(
            shard.publishes.load(Relaxed),
            1,
            "shard {i} published more than once replaying a {tail}-entry tail"
        );
    }
}

#[test]
fn a_recovered_tail_is_replayed_in_batches() {
    // Tails just under, at, just over and well past one replay chunk, in
    // one segment and over 8 KiB segments (a group of 100 per segment), so
    // replay chunks span segment boundaries.
    for segment_bytes in [1 << 20, 8 << 10] {
        for tail in [511, 512, 513, 2000] {
            tail_replays_in_batches(tail, segment_bytes);
        }
    }
}
