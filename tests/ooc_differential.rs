//! Disk-backed engine differential: a [`ShardedDcTree`] in
//! [`StorageMode::Disk`] — shards served from compressed pages through
//! `dc-oocore`'s node cache, with a node budget far below the working
//! set so every query path decodes and evicts — must answer every query
//! exactly like the RAM-resident engine over the same records. Pinned
//! across a selectivity × group-by matrix, through delete churn, via the
//! planned `execute`/`explain` entry points, and across a WAL
//! checkpoint → restart → recovery cycle.

use std::sync::atomic::Ordering;

use dctree::common::{AggregateOp, DimensionId, TempDir};
use dctree::plan::Backend;
use dctree::ql::ParsedStatement;
use dctree::query::{RangeQueryGen, ValuePick};
use dctree::serve::{
    CacheConfig, DiskOptions, EngineConfig, OocOptions, PartitionPolicy, PlannerOptions,
    ShardedDcTree, StorageMode, SyncPolicy, WalOptions,
};
use dctree::storage::BlockConfig;
use dctree::tpcd::{generate, TpcdConfig, TpcdData};
use dctree::{Mds, Record};

/// Disk storage with a deliberately tiny per-shard node budget (2 nodes of
/// a shard's several): the working set cannot stay cached, so the
/// equivalence below is served through real node loads, evictions, and
/// write-backs.
fn tiny_disk(dir: &TempDir) -> StorageMode {
    StorageMode::Disk(DiskOptions {
        dir: dir.to_path_buf(),
        ooc: OocOptions {
            block: BlockConfig::new(512),
            frames: 2,
        },
    })
}

fn config(storage: StorageMode) -> EngineConfig {
    EngineConfig {
        num_shards: 4,
        policy: PartitionPolicy::Hash,
        storage,
        ..EngineConfig::default()
    }
}

fn build(data: &TpcdData, storage: StorageMode) -> ShardedDcTree {
    build_with(data, config(storage))
}

fn build_with(data: &TpcdData, config: EngineConfig) -> ShardedDcTree {
    let engine = ShardedDcTree::new(data.schema.clone(), config).unwrap();
    for r in &data.records {
        engine.insert_raw(&data.paths_for(r), r.measure).unwrap();
    }
    engine.flush();
    engine
}

/// Queries across the paper's selectivity spectrum.
fn queries(data: &TpcdData) -> Vec<Mds> {
    let mut out = vec![Mds::all(&data.schema)];
    for (sel, seed) in [(0.01, 3), (0.05, 4), (0.25, 5)] {
        let mut gen = RangeQueryGen::new(sel, ValuePick::Scattered, seed);
        for _ in 0..12 {
            out.push(gen.generate(&data.schema));
        }
    }
    out
}

fn assert_engines_agree(disk: &ShardedDcTree, ram: &ShardedDcTree, data: &TpcdData) {
    disk.check_invariants().unwrap();
    assert_eq!(disk.len(), ram.len());
    assert_eq!(disk.total_summary().unwrap(), ram.total_summary().unwrap());
    for (qi, q) in queries(data).iter().enumerate() {
        assert_eq!(
            disk.range_summary(q).unwrap(),
            ram.range_summary(q).unwrap(),
            "summary mismatch on query {qi}"
        );
        for op in [AggregateOp::Sum, AggregateOp::Avg, AggregateOp::Min] {
            assert_eq!(
                disk.range_query(q, op).unwrap(),
                ram.range_query(q, op).unwrap(),
                "op {op:?} mismatch on query {qi}"
            );
        }
        for d in 0..data.schema.num_dims() {
            let dim = DimensionId(d as u16);
            assert_eq!(
                disk.group_by(dim, 1, q).unwrap(),
                ram.group_by(dim, 1, q).unwrap(),
                "group-by dim {d} mismatch on query {qi}"
            );
        }
    }
}

/// Pulls an integer gauge out of the hand-rolled STATS JSON.
fn json_u64(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = json
        .find(&pat)
        .unwrap_or_else(|| panic!("{key} missing in {json}"));
    json[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

#[test]
fn disk_engine_matches_resident_engine_through_churn() {
    let data = generate(&TpcdConfig::scaled(2000, 17));
    let dir = TempDir::new("oocdiff-churn");
    // An explicit pool, so the disk shards are scattered over it on a
    // one-core host too.
    let disk = build_with(
        &data,
        EngineConfig {
            pool_workers: Some(2),
            ..config(tiny_disk(&dir))
        },
    );
    let ram = build(&data, StorageMode::Resident);
    assert!(disk.is_disk() && !ram.is_disk());
    assert_engines_agree(&disk, &ram, &data);

    // The RAM engine's STATS has no buffer_pool section; the disk one
    // must show real evictions — proof the equivalence above ran
    // out-of-core, not from a fully cached tree.
    let ram_stats = ram.stats_json();
    assert!(!ram_stats.contains("\"buffer_pool\""));
    let disk_stats = disk.stats_json();
    assert!(disk_stats.contains("\"buffer_pool\""));
    assert!(json_u64(&disk_stats, "pool_evictions") > 0, "{disk_stats}");
    assert!(json_u64(&disk_stats, "pool_misses") > 0);

    // Churn: delete a third of the records from both, verify, reinsert.
    for r in data.records.iter().step_by(3) {
        let paths = data.paths_for(r);
        disk.delete_raw(&paths, r.measure).unwrap();
        ram.delete_raw(&paths, r.measure).unwrap();
    }
    disk.flush();
    ram.flush();
    assert_engines_agree(&disk, &ram, &data);

    for r in data.records.iter().step_by(3) {
        let paths = data.paths_for(r);
        disk.insert_raw(&paths, r.measure).unwrap();
        ram.insert_raw(&paths, r.measure).unwrap();
    }
    disk.flush();
    ram.flush();
    assert_engines_agree(&disk, &ram, &data);

    let pool = &disk.metrics().pool;
    assert!(
        pool.tasks.load(Ordering::Relaxed) + pool.inline_tasks.load(Ordering::Relaxed) > 0,
        "disk shards never ran on the query pool"
    );
}

/// A `FLUSH` of disk shards nothing has touched since their last publish
/// is acknowledged without publishing again: it touches no page, and what
/// the cache held before it still answers after it.
#[test]
fn idle_flush_of_disk_shards_neither_publishes_nor_touches_pages() {
    let data = generate(&TpcdConfig::scaled(800, 61));
    let dir = TempDir::new("oocdiff-idle");
    let disk = ShardedDcTree::new(
        data.schema.clone(),
        EngineConfig {
            cache: Some(CacheConfig::default()),
            ..config(tiny_disk(&dir))
        },
    )
    .unwrap();
    for r in &data.records {
        disk.insert_raw(&data.paths_for(r), r.measure).unwrap();
    }
    disk.flush();

    let q = Mds::all(&data.schema);
    let first = disk.range_summary(&q).unwrap();
    let touches = |e: &ShardedDcTree| {
        let stats = e.stats_json();
        json_u64(&stats, "pool_hits") + json_u64(&stats, "pool_misses")
    };
    let (touched, published) = (touches(&disk), published_at(&disk));
    disk.flush();
    disk.flush();
    assert_eq!(touches(&disk), touched, "an idle FLUSH read pages");
    assert!(
        published_at(&disk) > published,
        "the barrier still refreshes snapshot_published_at"
    );

    let hits = disk.metrics().cache.hits.load(Ordering::Relaxed);
    assert_eq!(disk.range_summary(&q).unwrap(), first);
    assert_eq!(disk.metrics().cache.hits.load(Ordering::Relaxed), hits + 1);
    assert_eq!(touches(&disk), touched, "a cache hit read pages");
    disk.check_invariants().unwrap();
}

/// A `DELETE` the shard tree answers with "no such record" changed nothing
/// a reader could see, so the barrier after it holds without a publish:
/// every shard keeps serving the very snapshot it served before, and what
/// the cache held still answers.
#[test]
fn a_delete_that_removes_nothing_does_not_republish() {
    let data = generate(&TpcdConfig::scaled(800, 62));
    let engine = ShardedDcTree::new(
        data.schema.clone(),
        EngineConfig {
            cache: Some(CacheConfig::default()),
            ..config(StorageMode::Resident)
        },
    )
    .unwrap();
    for r in &data.records {
        engine.insert_raw(&data.paths_for(r), r.measure).unwrap();
    }
    engine.flush();

    let q = Mds::all(&data.schema);
    let first = engine.range_summary(&q).unwrap();
    let before: Vec<_> = (0..engine.num_shards())
        .map(|s| engine.shard_snapshot(s))
        .collect();
    let published = published_at(&engine);

    // Known coordinates, a measure no record carries.
    let absent = &data.records[0];
    engine
        .delete_raw(&data.paths_for(absent), i64::MAX / 2)
        .unwrap();
    engine.flush();

    for (s, snap) in before.iter().enumerate() {
        assert!(
            std::sync::Arc::ptr_eq(snap, &engine.shard_snapshot(s)),
            "shard {s} republished after a no-op DELETE"
        );
    }
    assert!(
        published_at(&engine) > published,
        "the barrier still refreshes snapshot_published_at"
    );
    let hits = engine.metrics().cache.hits.load(Ordering::Relaxed);
    assert_eq!(engine.range_summary(&q).unwrap(), first);
    assert_eq!(
        engine.metrics().cache.hits.load(Ordering::Relaxed),
        hits + 1
    );
    assert_eq!(engine.len(), data.records.len() as u64);
    engine.check_invariants().unwrap();
}

/// A shard's STATS `io_reads` counts the same pages in both storage modes:
/// its writer's and every query's, although a resident shard's queries
/// read snapshots that are dropped once the next one is published.
#[test]
fn io_reads_count_the_same_pages_in_both_storage_modes() {
    let data = generate(&TpcdConfig::scaled(5000, 47));
    let dir = TempDir::new("oocdiff-io-reads");
    let io_reads = |storage: StorageMode| {
        let engine = build_with(
            &data,
            EngineConfig {
                num_shards: 1,
                cache: None,
                ..config(storage)
            },
        );
        let mut gen = RangeQueryGen::new(0.10, ValuePick::Scattered, 48);
        for _ in 0..100 {
            engine.range_summary(&gen.generate(&data.schema)).unwrap();
        }
        let r = &data.records[0];
        engine.insert_raw(&data.paths_for(r), r.measure).unwrap();
        engine.flush();
        json_u64(&engine.stats_json(), "io_reads")
    };
    let resident = io_reads(StorageMode::Resident);
    assert_eq!(io_reads(tiny_disk(&dir)), resident);
}

/// The oldest `snapshot_published_at` over the engine's shards.
fn published_at(engine: &ShardedDcTree) -> u64 {
    engine
        .metrics()
        .shards
        .iter()
        .map(|s| s.snapshot_published_at.load(Ordering::Relaxed))
        .min()
        .unwrap()
}

#[test]
fn planned_queries_agree_and_explain_prices_pool_touches() {
    let data = generate(&TpcdConfig::scaled(1200, 29));
    let dir = TempDir::new("oocdiff-plan");
    let disk = build(&data, tiny_disk(&dir));
    let ram = build(&data, StorageMode::Resident);

    let mut gen = RangeQueryGen::new(0.1, ValuePick::Scattered, 41);
    for i in 0..8 {
        let filter = gen.generate(&data.schema);
        let group_by = (i % 2 == 0).then_some((DimensionId(0), 1));
        let stmt = ParsedStatement {
            ops: vec![AggregateOp::Sum, AggregateOp::Count],
            filter,
            group_by,
            top: None,
            joins: Vec::new(),
        };
        assert_eq!(
            disk.execute(&stmt).unwrap(),
            ram.execute(&stmt).unwrap(),
            "planned execute mismatch on statement {i}"
        );
        let (out, explain) = disk.explain(&stmt).unwrap();
        assert_eq!(out, ram.execute(&stmt).unwrap());
        assert_eq!(explain.backend, Backend::Descend);
        assert!(explain.est_pages > 0.0, "descent estimate must be positive");
        // One page currency: a disk shard prices and counts the logical
        // blocks a resident shard holding the same tree does.
        assert_eq!(explain.shards, ram.explain(&stmt).unwrap().1.shards);
        // Disk shards maintain no other backend to force.
        assert!(disk.execute_forced(&stmt, Backend::Mview).is_err());
        let cmp = disk.compare_backends(&stmt).unwrap();
        assert_eq!(cmp.outputs.len(), 1);
        assert_eq!(cmp.chosen, out);
    }
}

#[test]
fn disk_mode_rejects_planner_engines() {
    let data = generate(&TpcdConfig::scaled(50, 1));
    let dir = TempDir::new("oocdiff-reject");
    let err = ShardedDcTree::new(
        data.schema,
        EngineConfig {
            planner: Some(PlannerOptions),
            ..config(tiny_disk(&dir))
        },
    );
    assert!(err.is_err());
}

#[test]
fn disk_engine_recovers_from_checkpoint_and_wal_tail() {
    recovers_from_checkpoint_and_wal_tail(false);
}

/// The checkpoint lands right behind `INSERT_BATCH` groups nobody waited
/// for: the shard writers still hold the nodes those batches mutated
/// decoded and unwritten, and the image must carry them all the same.
#[test]
fn disk_checkpoint_behind_an_unflushed_batch_recovers() {
    recovers_from_checkpoint_and_wal_tail(true);
}

fn recovers_from_checkpoint_and_wal_tail(batched: bool) {
    let data = generate(&TpcdConfig::scaled(900, 53));
    let wal_dir = TempDir::new("oocdiff-wal");
    let disk_dir = TempDir::new("oocdiff-waldisk");
    let storage = || {
        StorageMode::Disk(DiskOptions {
            dir: disk_dir.to_path_buf(),
            ooc: OocOptions {
                block: BlockConfig::new(512),
                frames: 16,
            },
        })
    };
    let cfg = || EngineConfig {
        wal: Some(WalOptions {
            sync: SyncPolicy::Always,
            ..WalOptions::new(&wal_dir)
        }),
        ..config(storage())
    };
    // Record at a time with a barrier before the checkpoint, or in groups
    // of 64 with none.
    let insert = |engine: &ShardedDcTree, records: &[Record]| {
        if batched {
            for chunk in records.chunks(64) {
                let group: Vec<_> = chunk
                    .iter()
                    .map(|r| (data.paths_for(r), r.measure))
                    .collect();
                engine.insert_batch_raw(&group).unwrap();
            }
        } else {
            for r in records {
                engine.insert_raw(&data.paths_for(r), r.measure).unwrap();
            }
        }
    };

    let half = data.records.len() / 2;
    {
        let engine = ShardedDcTree::new(data.schema.clone(), cfg()).unwrap();
        insert(&engine, &data.records[..half]);
        // A little pre-checkpoint churn so images carry delete effects.
        for r in data.records[..half].iter().step_by(5) {
            engine.delete_raw(&data.paths_for(r), r.measure).unwrap();
        }
        if batched {
            insert(&engine, &data.records[half..half + 64]);
        } else {
            engine.flush();
        }
        engine.checkpoint().unwrap();
        // Tail beyond the checkpoint, replayed from segments on reopen.
        let tail = if batched { half + 64 } else { half };
        insert(&engine, &data.records[tail..]);
        engine.flush();
    }

    let reopened = ShardedDcTree::new(data.schema.clone(), cfg()).unwrap();
    let durability = &reopened.metrics().durability;
    assert!(durability.recovery_checkpoint_lsn.load(Ordering::Relaxed) > 0);
    assert!(durability.recovery_replayed_entries.load(Ordering::Relaxed) > 0);
    let ram = ShardedDcTree::new(data.schema.clone(), config(StorageMode::Resident)).unwrap();
    for r in &data.records[..half] {
        ram.insert_raw(&data.paths_for(r), r.measure).unwrap();
    }
    for r in data.records[..half].iter().step_by(5) {
        ram.delete_raw(&data.paths_for(r), r.measure).unwrap();
    }
    for r in &data.records[half..] {
        ram.insert_raw(&data.paths_for(r), r.measure).unwrap();
    }
    ram.flush();
    assert_engines_agree(&reopened, &ram, &data);
}
