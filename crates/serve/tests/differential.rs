//! Differential tests: the sharded engine must answer every query exactly
//! like one monolithic `DcTree` over the same records — under concurrent
//! ingest, both partition policies, dynamic interning, deletes, and WAL
//! recovery.

use std::sync::Arc;

use std::sync::atomic::Ordering::Relaxed;

use dc_common::{AggregateOp, DimensionId, MeasureSummary, TempDir, ValueId};
use dc_plan::QueryOutput;
use dc_ql::ParsedStatement;
use dc_query::{RangeQueryGen, ValuePick};
use dc_serve::{EngineConfig, PartitionPolicy, ShardedDcTree, SyncPolicy, WalOptions};
use dc_tpcd::{generate, TpcdConfig, TpcdData};
use dc_tree::{DcTree, DcTreeConfig};

const RECORDS: usize = 4_000;

fn tpcd() -> TpcdData {
    generate(&TpcdConfig::scaled(RECORDS, 11))
}

fn monolith(data: &TpcdData) -> DcTree {
    let mut tree = DcTree::new(data.schema.clone(), DcTreeConfig::default());
    for r in &data.records {
        tree.insert(r.clone()).unwrap();
    }
    tree
}

/// TPC-D partitions naturally by customer region: dimension 0, whose top
/// functional level (Region) sits just below ALL.
fn region_policy(data: &TpcdData) -> PartitionPolicy {
    let dim = DimensionId(0);
    PartitionPolicy::ByDimension {
        dim,
        level: data.schema.dim(dim).top_level() - 1,
    }
}

fn engine_config(policy: PartitionPolicy) -> EngineConfig {
    EngineConfig {
        num_shards: 4,
        policy,
        ..EngineConfig::default()
    }
}

/// Concurrently ingests the cube from four producer threads.
fn ingest_concurrently(engine: &ShardedDcTree, data: &TpcdData, producers: usize) {
    std::thread::scope(|s| {
        for p in 0..producers {
            s.spawn(move || {
                for r in data.records.iter().skip(p).step_by(producers) {
                    engine.insert_raw(&data.paths_for(r), r.measure).unwrap();
                }
            });
        }
    });
    engine.flush();
}

/// A statement of `ops` over `filter`, grouped at `group_by` when set.
fn statement(
    ops: Vec<AggregateOp>,
    filter: dc_mds::Mds,
    group_by: Option<(DimensionId, u8)>,
) -> ParsedStatement {
    ParsedStatement {
        ops,
        filter,
        group_by,
        top: None,
        joins: Vec::new(),
    }
}

/// The non-empty groups of a grouped answer. Shards report groups only for
/// values they interned, so a merged answer may omit empty groups the
/// monolith reports (or the reverse).
fn nonempty(mut groups: Vec<(ValueId, MeasureSummary)>) -> Vec<(ValueId, MeasureSummary)> {
    groups.retain(|(_, s)| s.count > 0);
    groups
}

/// 100 random §5.2 queries across the paper's three selectivities.
fn queries(data: &TpcdData) -> Vec<dc_mds::Mds> {
    let mut out = Vec::new();
    for (sel, seed) in [(0.01, 3), (0.05, 4), (0.25, 5)] {
        let mut gen = RangeQueryGen::new(sel, ValuePick::Scattered, seed);
        for _ in 0..34 {
            out.push(gen.generate(&data.schema));
        }
    }
    assert!(out.len() >= 100);
    out
}

fn assert_engine_matches_monolith(engine: &ShardedDcTree, mono: &DcTree, data: &TpcdData) {
    assert_eq!(engine.len(), mono.len());
    assert_eq!(
        engine.total_summary().unwrap(),
        mono.total_summary().unwrap()
    );
    for q in queries(data) {
        assert_eq!(
            engine.range_summary(&q).unwrap(),
            mono.range_summary(&q).unwrap(),
            "summary mismatch for {q:?}"
        );
        for op in AggregateOp::ALL {
            assert_eq!(
                engine.range_query(&q, op).unwrap(),
                mono.range_query(&q, op).unwrap(),
                "{op} mismatch for {q:?}"
            );
        }
    }
}

#[test]
fn concurrent_ingest_matches_monolith_hash_partitioning() {
    let data = tpcd();
    let mono = monolith(&data);
    let engine =
        ShardedDcTree::new(data.schema.clone(), engine_config(PartitionPolicy::Hash)).unwrap();
    ingest_concurrently(&engine, &data, 4);
    assert_engine_matches_monolith(&engine, &mono, &data);
    engine.shutdown();
}

#[test]
fn concurrent_ingest_matches_monolith_dimension_partitioning() {
    let data = tpcd();
    let mono = monolith(&data);
    let engine =
        ShardedDcTree::new(data.schema.clone(), engine_config(region_policy(&data))).unwrap();
    ingest_concurrently(&engine, &data, 4);
    // Dimension partitioning must actually spread the records.
    let populated = (0..engine.num_shards())
        .filter(|&s| !engine.shard_snapshot(s).is_empty())
        .count();
    assert!(populated >= 2, "regions all hashed to one shard?");
    // … and prune: a query pinned to one region visits the one shard that
    // owns it. Asked before any other query, so the cache holds nothing
    // that could answer part of it.
    let PartitionPolicy::ByDimension { dim, level } = region_policy(&data) else {
        unreachable!()
    };
    let schema = engine.schema();
    let regions: Vec<ValueId> = schema.dim(dim).values_at(level).collect();
    assert!(regions.len() > 1);
    for region in regions {
        let q = dc_mds::Mds::new(
            (0..schema.num_dims())
                .map(|d| {
                    let h = schema.dim(DimensionId(d as u16));
                    if d == dim.as_usize() {
                        dc_mds::DimSet::new(level, vec![region])
                    } else {
                        dc_mds::DimSet::new(h.top_level(), vec![h.all()])
                    }
                })
                .collect(),
        );
        let before = engine.metrics().shard_visits.load(Relaxed);
        assert_eq!(
            engine.range_summary(&q).unwrap(),
            mono.range_summary(&q).unwrap()
        );
        assert_eq!(
            engine.metrics().shard_visits.load(Relaxed) - before,
            1,
            "a query pinned to region {region:?} was not pruned to one shard"
        );
    }
    assert_engine_matches_monolith(&engine, &mono, &data);
}

#[test]
fn group_by_merges_across_shards() {
    let data = tpcd();
    let mono = monolith(&data);
    let engine =
        ShardedDcTree::new(data.schema.clone(), engine_config(region_policy(&data))).unwrap();
    ingest_concurrently(&engine, &data, 4);
    let mut gen = RangeQueryGen::new(0.25, ValuePick::Scattered, 9);
    for case in 0..20 {
        let filter = gen.generate(&data.schema);
        let dim = DimensionId((case % data.schema.num_dims()) as u16);
        let level = (case as u8 / 4) % data.schema.dim(dim).top_level();
        let mut got: Vec<(ValueId, MeasureSummary)> = engine.group_by(dim, level, &filter).unwrap();
        let mut want = mono.group_by(dim, level, &filter).unwrap();
        got.sort_by_key(|(v, _)| *v);
        want.sort_by_key(|(v, _)| *v);
        // Shards report groups only for values they interned; the merged
        // result may omit empty groups the monolith reports (or vice
        // versa) — compare the non-empty rows.
        got.retain(|(_, s)| s.count > 0);
        want.retain(|(_, s)| s.count > 0);
        assert_eq!(got, want, "group_by({dim:?}, {level}) under {filter:?}");
    }
}

#[test]
fn parallel_scatter_gather_matches_monolith() {
    // Same assertions as the sequential tests, but with the query pool
    // force-enabled (the default only starts it when spare cores exist —
    // correctness must not depend on that).
    let data = tpcd();
    let mono = monolith(&data);
    let engine = ShardedDcTree::new(
        data.schema.clone(),
        EngineConfig {
            pool_workers: Some(2),
            ..engine_config(region_policy(&data))
        },
    )
    .unwrap();
    ingest_concurrently(&engine, &data, 4);
    assert_engine_matches_monolith(&engine, &mono, &data);
}

/// The persistent query pool must be answer-invisible: a pool-enabled
/// engine and a sequential engine, both churned by concurrent inserts and
/// then deletes (with queries issued *during* the ingest to exercise
/// catalog-prepared ranges against lagging shard schemas), end up agreeing
/// with each other and with a monolith over the same final records.
#[test]
fn pooled_executor_matches_sequential_and_monolith_under_churn() {
    let data = tpcd();
    for policy in [PartitionPolicy::Hash, region_policy(&data)] {
        let pooled = ShardedDcTree::new(
            data.schema.clone(),
            EngineConfig {
                pool_workers: Some(3),
                cache: None,
                ..engine_config(policy)
            },
        )
        .unwrap();
        let sequential = ShardedDcTree::new(
            data.schema.clone(),
            EngineConfig {
                pool_workers: Some(0),
                cache: None,
                ..engine_config(policy)
            },
        )
        .unwrap();
        let qs = queries(&data);
        std::thread::scope(|scope| {
            for p in 0..2 {
                let pooled = &pooled;
                let data = &data;
                scope.spawn(move || {
                    for r in data.records.iter().skip(p).step_by(2) {
                        pooled.insert_raw(&data.paths_for(r), r.measure).unwrap();
                    }
                });
            }
            let sequential = &sequential;
            let data = &data;
            scope.spawn(move || {
                for r in &data.records {
                    sequential
                        .insert_raw(&data.paths_for(r), r.measure)
                        .unwrap();
                }
            });
            // Two query threads race the ingest: each answer reflects *some*
            // set of published snapshots, so it must simply succeed — the
            // exact comparison happens after the flush below.
            for t in 0..2 {
                let pooled = &pooled;
                let qs = &qs;
                scope.spawn(move || {
                    for q in qs.iter().skip(t).step_by(2) {
                        pooled.range_summary(q).unwrap();
                    }
                });
            }
        });
        // Deletes flow through both engines identically.
        for r in data.records.iter().step_by(4) {
            pooled.delete_raw(&data.paths_for(r), r.measure).unwrap();
            sequential
                .delete_raw(&data.paths_for(r), r.measure)
                .unwrap();
        }
        pooled.flush();
        sequential.flush();
        let mut mono = monolith(&data);
        for r in data.records.iter().step_by(4) {
            assert!(mono.delete(r).unwrap());
        }
        assert_eq!(pooled.len(), mono.len());
        assert_eq!(sequential.len(), mono.len());
        for q in &qs {
            let want = mono.range_summary(q).unwrap();
            assert_eq!(
                pooled.range_summary(q).unwrap(),
                want,
                "pooled mismatch under {policy:?} for {q:?}"
            );
            assert_eq!(
                sequential.range_summary(q).unwrap(),
                want,
                "sequential mismatch under {policy:?} for {q:?}"
            );
        }
        // Grouped statements go through the planner's scatter, on the
        // pool and off it, and answer like the monolith's `group_by`.
        let mut gen = RangeQueryGen::new(0.25, ValuePick::Scattered, 19);
        for case in 0..12 {
            let filter = gen.generate(&data.schema);
            let dim = DimensionId((case % data.schema.num_dims()) as u16);
            let level = (case as u8 / 4) % data.schema.dim(dim).top_level();
            let stmt = statement(vec![AggregateOp::Sum], filter.clone(), Some((dim, level)));
            let want = nonempty(mono.group_by(dim, level, &filter).unwrap());
            for (name, engine) in [("pooled", &pooled), ("sequential", &sequential)] {
                let QueryOutput::Grouped(got) = engine.execute(&stmt).unwrap() else {
                    panic!("a grouped statement answered with a scalar");
                };
                assert_eq!(
                    nonempty(got),
                    want,
                    "{name} GROUP BY ({dim:?}, {level}) under {policy:?} for {filter:?}"
                );
            }
        }
        // The pooled run must actually have exercised the executor — a
        // grouped statement over several shards included.
        let pm = &pooled.metrics().pool;
        assert_eq!(pm.workers.load(Relaxed), 3);
        let ran = || pm.tasks.load(Relaxed) + pm.inline_tasks.load(Relaxed);
        let (tasks, visits) = (ran(), pooled.metrics().shard_visits.load(Relaxed));
        let whole_cube = pooled.with_schema(dc_mds::Mds::all);
        pooled
            .execute(&statement(
                vec![AggregateOp::Count],
                whole_cube,
                Some((DimensionId(0), 1)),
            ))
            .unwrap();
        let visited = pooled.metrics().shard_visits.load(Relaxed) - visits;
        assert!(visited >= 2, "the whole cube visited {visited} shard(s)");
        assert!(
            ran() > tasks,
            "a grouped execute over {visited} shards bypassed the pool under {policy:?}"
        );
        assert!(tasks > 0, "no query ever ran on the pool under {policy:?}");
        pooled.shutdown();
        sequential.shutdown();
    }
}

/// Regression for snapshot over-acquisition: a shard whose schema cannot
/// match the query (it never interned any of the query's values) must be
/// skipped *before* the `shard_visits` counter ticks, not after.
#[test]
fn schema_empty_shards_are_skipped_without_visits() {
    let data = tpcd();
    let engine = ShardedDcTree::new(
        dc_tpcd::cube_schema(),
        EngineConfig {
            num_shards: 2,
            policy: PartitionPolicy::Hash,
            cache: None,
            pool_workers: Some(0),
            ..Default::default()
        },
    )
    .unwrap();
    // One record: it routes to exactly one shard; the other shard never
    // receives a command, so its snapshot keeps the value-free construction
    // schema.
    let r = &data.records[0];
    engine.insert_raw(&data.paths_for(r), r.measure).unwrap();
    engine.flush();
    let populated = (0..2)
        .filter(|&s| !engine.shard_snapshot(s).is_empty())
        .count();
    assert_eq!(populated, 1);
    // Query the record's own leaf in dimension 0, unconstrained elsewhere.
    let s = engine.schema();
    let q = dc_mds::Mds::new(
        (0..s.num_dims())
            .map(|d| {
                let h = s.dim(DimensionId(d as u16));
                if d == 0 {
                    dc_mds::DimSet::new(0, vec![h.values_at(0).next().unwrap()])
                } else {
                    dc_mds::DimSet::new(h.top_level(), vec![h.all()])
                }
            })
            .collect(),
    );
    for _ in 0..3 {
        let before = engine.metrics().shard_visits.load(Relaxed);
        let sum = engine.range_summary(&q).unwrap();
        assert_eq!(sum.count, 1);
        assert_eq!(
            engine.metrics().shard_visits.load(Relaxed) - before,
            1,
            "schema-empty shard counted as a visit"
        );
    }
}

#[test]
fn dynamic_interning_from_empty_schema_matches_monolith() {
    // Sequential ingest starting from an empty (value-free) schema: the
    // catalog's snapshots carry every value to the shards. Sequential, so the
    // monolith's intern order matches the catalog's and IDs are comparable.
    let data = tpcd();
    let schema = dc_tpcd::cube_schema();
    let mut mono = DcTree::new(schema.clone(), DcTreeConfig::default());
    let engine = ShardedDcTree::new(
        schema,
        EngineConfig {
            num_shards: 4,
            policy: PartitionPolicy::Hash,
            ..Default::default()
        },
    )
    .unwrap();
    for r in &data.records {
        let paths = data.paths_for(r);
        mono.insert_raw(&paths, r.measure).unwrap();
        engine.insert_raw(&paths, r.measure).unwrap();
    }
    engine.flush();
    // Queries must be generated against the *engine's* schema (same IDs as
    // the monolith's, since both interned the identical sequence).
    let engine_schema = engine.schema();
    let mut gen = RangeQueryGen::new(0.05, ValuePick::Scattered, 6);
    assert_eq!(engine.len(), mono.len());
    for _ in 0..50 {
        let q = gen.generate(&engine_schema);
        assert_eq!(
            engine.range_summary(&q).unwrap(),
            mono.range_summary(&q).unwrap()
        );
    }
}

#[test]
fn deletes_flow_through_shards() {
    let data = tpcd();
    let mut mono = monolith(&data);
    let engine =
        ShardedDcTree::new(data.schema.clone(), engine_config(region_policy(&data))).unwrap();
    ingest_concurrently(&engine, &data, 2);
    // Delete every third record.
    for r in data.records.iter().step_by(3) {
        assert!(mono.delete(r).unwrap());
        engine.delete_raw(&data.paths_for(r), r.measure).unwrap();
    }
    engine.flush();
    assert_eq!(engine.len(), mono.len());
    assert_eq!(
        engine.total_summary().unwrap(),
        mono.total_summary().unwrap()
    );
    let mut gen = RangeQueryGen::new(0.25, ValuePick::Scattered, 13);
    for _ in 0..30 {
        let q = gen.generate(&data.schema);
        assert_eq!(
            engine.range_summary(&q).unwrap(),
            mono.range_summary(&q).unwrap()
        );
    }
}

#[test]
fn wal_recovery_restores_the_engine() {
    let data = tpcd();
    let dir = TempDir::new("serve-wal");
    let config = EngineConfig {
        num_shards: 4,
        policy: PartitionPolicy::Hash,
        wal: Some(WalOptions {
            sync: SyncPolicy::EveryN(64),
            ..WalOptions::new(&dir)
        }),
        ..Default::default()
    };
    let cut = data.records.len() / 2;
    {
        let engine = ShardedDcTree::new(data.schema.clone(), config.clone()).unwrap();
        for r in &data.records[..cut] {
            engine.insert_raw(&data.paths_for(r), r.measure).unwrap();
        }
        engine.flush();
        engine.shutdown();
    }
    // Reopen: the WAL replays the first half; then ingest the second half.
    let engine = Arc::new(ShardedDcTree::new(data.schema.clone(), config).unwrap());
    assert_eq!(engine.len(), cut as u64);
    for r in &data.records[cut..] {
        engine.insert_raw(&data.paths_for(r), r.measure).unwrap();
    }
    engine.flush();
    let mono = monolith(&data);
    assert_eq!(engine.len(), mono.len());
    assert_eq!(
        engine.total_summary().unwrap(),
        mono.total_summary().unwrap()
    );
    let mut gen = RangeQueryGen::new(0.05, ValuePick::Scattered, 17);
    for _ in 0..30 {
        let q = gen.generate(&data.schema);
        assert_eq!(
            engine.range_summary(&q).unwrap(),
            mono.range_summary(&q).unwrap()
        );
    }
    drop(engine);
}

/// Regression: reopening an engine (even repeatedly, even with a flush
/// before any new ingest) must not re-log the replayed entries — every
/// open sees exactly the original records, never duplicates.
#[test]
fn double_open_does_not_duplicate_records() {
    let data = tpcd();
    let dir = TempDir::new("serve-dblopen");
    let config = EngineConfig {
        num_shards: 2,
        wal: Some(WalOptions::new(&dir)),
        ..Default::default()
    };
    let n = 300;
    let expected = {
        let engine = ShardedDcTree::new(data.schema.clone(), config.clone()).unwrap();
        for r in &data.records[..n] {
            engine.insert_raw(&data.paths_for(r), r.measure).unwrap();
        }
        engine.flush();
        let total = engine.total_summary().unwrap();
        engine.shutdown();
        total
    };
    for reopen in 0..3 {
        let engine = ShardedDcTree::new(data.schema.clone(), config.clone()).unwrap();
        // The flush-before-first-insert path must not re-log the replay.
        engine.flush();
        assert_eq!(
            engine.len(),
            n as u64,
            "reopen #{reopen} duplicated records"
        );
        assert_eq!(engine.total_summary().unwrap(), expected);
        engine.shutdown();
    }
}

/// Checkpoints bound recovery: after a CHECKPOINT, reopening replays only
/// the tail (asserted via `recovery_replayed_entries`), and the recovered
/// engine still answers exactly like a never-restarted monolith.
#[test]
fn checkpoint_bounds_replay_on_recovery() {
    let data = tpcd();
    let dir = TempDir::new("serve-ckpt");
    let config = EngineConfig {
        num_shards: 4,
        policy: PartitionPolicy::Hash,
        wal: Some(WalOptions::new(&dir)),
        ..Default::default()
    };
    let total = 1_000;
    let cut = 700;
    {
        let engine = ShardedDcTree::new(data.schema.clone(), config.clone()).unwrap();
        assert!(
            engine.checkpoint().unwrap() == 0,
            "empty engine checkpoints at LSN 0"
        );
        for r in &data.records[..cut] {
            engine.insert_raw(&data.paths_for(r), r.measure).unwrap();
        }
        let lsn = engine.checkpoint().unwrap();
        assert_eq!(lsn, cut as u64);
        for r in &data.records[cut..total] {
            engine.insert_raw(&data.paths_for(r), r.measure).unwrap();
        }
        engine.flush();
        let m = engine.metrics();
        assert_eq!(m.durability.checkpoints.load(Relaxed), 2);
        assert_eq!(m.durability.checkpoint_last_lsn.load(Relaxed), cut as u64);
        engine.shutdown();
    }
    let engine = ShardedDcTree::new(data.schema.clone(), config).unwrap();
    let d = &engine.metrics().durability;
    assert_eq!(d.recovery_checkpoint_lsn.load(Relaxed), cut as u64);
    assert_eq!(
        d.recovery_replayed_entries.load(Relaxed),
        (total - cut) as u64,
        "recovery must replay only the post-checkpoint tail"
    );
    let mut mono = DcTree::new(data.schema.clone(), DcTreeConfig::default());
    for r in &data.records[..total] {
        mono.insert_raw(&data.paths_for(r), r.measure).unwrap();
    }
    assert_eq!(engine.len(), mono.len());
    assert_eq!(
        engine.total_summary().unwrap(),
        mono.total_summary().unwrap()
    );
    let mut gen = RangeQueryGen::new(0.05, ValuePick::Scattered, 23);
    for _ in 0..30 {
        let q = gen.generate(&data.schema);
        assert_eq!(
            engine.range_summary(&q).unwrap(),
            mono.range_summary(&q).unwrap()
        );
    }
    drop(engine);
}

/// Auto-checkpoints fire from the ingest path and bound the replay too.
#[test]
fn auto_checkpoint_from_ingest_path() {
    let data = tpcd();
    let dir = TempDir::new("serve-autockpt");
    let config = EngineConfig {
        num_shards: 2,
        wal: Some(WalOptions {
            checkpoint_every: 100,
            sync: SyncPolicy::GroupCommitMs(5),
            ..WalOptions::new(&dir)
        }),
        ..Default::default()
    };
    let n = 450;
    {
        let engine = ShardedDcTree::new(data.schema.clone(), config.clone()).unwrap();
        for r in &data.records[..n] {
            engine.insert_raw(&data.paths_for(r), r.measure).unwrap();
        }
        engine.flush();
        assert!(engine.metrics().durability.checkpoints.load(Relaxed) >= 4);
        engine.shutdown();
    }
    let engine = ShardedDcTree::new(data.schema, config).unwrap();
    let d = &engine.metrics().durability;
    assert!(d.recovery_checkpoint_lsn.load(Relaxed) >= 400);
    assert!(d.recovery_replayed_entries.load(Relaxed) < 100);
    assert_eq!(engine.len(), n as u64);
    drop(engine);
}

/// The aggregate cache must be answer-invisible: a cached engine, an
/// uncached engine, and the monolith agree on *repeated* queries (the
/// second ask is served from the cache) interleaved with concurrent
/// inserts and deletes, under both partition policies.
#[test]
fn cached_engine_matches_uncached_and_monolith_across_writes() {
    let data = tpcd();
    for policy in [PartitionPolicy::Hash, region_policy(&data)] {
        let mut mono = monolith(&data);
        let cached = ShardedDcTree::new(data.schema.clone(), engine_config(policy)).unwrap();
        let uncached = ShardedDcTree::new(
            data.schema.clone(),
            EngineConfig {
                cache: None,
                ..engine_config(policy)
            },
        )
        .unwrap();
        ingest_concurrently(&cached, &data, 4);
        ingest_concurrently(&uncached, &data, 4);

        let qs = queries(&data);
        // First pass populates the cache; nothing to compare yet.
        for q in &qs {
            cached.range_summary(q).unwrap();
        }
        // Writes: delete every 5th record, re-insert every 7th with a
        // flipped measure — cached entries must be patched, not stale.
        for (i, r) in data.records.iter().enumerate() {
            if i % 5 == 0 {
                assert!(mono.delete(r).unwrap());
                cached.delete_raw(&data.paths_for(r), r.measure).unwrap();
                uncached.delete_raw(&data.paths_for(r), r.measure).unwrap();
            }
            if i % 7 == 0 {
                let paths = data.paths_for(r);
                mono.insert_raw(&paths, r.measure ^ 1).unwrap();
                cached.insert_raw(&paths, r.measure ^ 1).unwrap();
                uncached.insert_raw(&paths, r.measure ^ 1).unwrap();
            }
        }
        cached.flush();
        uncached.flush();

        // Second pass: repeats served through patched cache entries (or
        // recomputed after extremum invalidation) must equal both baselines.
        for q in &qs {
            let want = mono.range_summary(q).unwrap();
            assert_eq!(
                cached.range_summary(q).unwrap(),
                want,
                "cached mismatch under {policy:?} for {q:?}"
            );
            assert_eq!(
                uncached.range_summary(q).unwrap(),
                want,
                "uncached mismatch under {policy:?} for {q:?}"
            );
            for op in AggregateOp::ALL {
                assert_eq!(
                    cached.range_query(q, op).unwrap(),
                    mono.range_query(q, op).unwrap(),
                    "cached {op} mismatch under {policy:?} for {q:?}"
                );
            }
        }
        let cm = &cached.metrics().cache;
        let hits = cm.hits.load(Relaxed);
        assert!(hits > 0, "repeat pass never hit the cache under {policy:?}");
        cached.shutdown();
        uncached.shutdown();
    }
}

/// Deleting the record that carries a cached range's extremum degrades the
/// entry's MIN/MAX (an invalidation), but every aggregate stays exact:
/// SUM/COUNT/AVG keep serving from the patched entry — through a planned
/// statement as through `range_query` — while MIN/MAX recompute.
#[test]
fn extremum_deletes_invalidate_minmax_but_stay_exact() {
    let data = tpcd();
    let mut mono = monolith(&data);
    let engine =
        ShardedDcTree::new(data.schema.clone(), engine_config(PartitionPolicy::Hash)).unwrap();
    ingest_concurrently(&engine, &data, 2);

    let all = engine.with_schema(dc_mds::Mds::all);
    engine.range_summary(&all).unwrap(); // cache the whole-cube entry

    // Delete the records holding the global max until the extremum moves.
    let max = mono.range_summary(&all).unwrap().max;
    for r in data.records.iter().filter(|r| r.measure == max) {
        assert!(mono.delete(r).unwrap());
        engine.delete_raw(&data.paths_for(r), r.measure).unwrap();
    }
    engine.flush();

    // Before any MIN/MAX recomputes the entry: a planned AVG is one hit.
    let hits = || engine.metrics().cache.hits.load(Relaxed);
    let before = hits();
    let QueryOutput::Scalar(avg) = engine
        .execute(&statement(vec![AggregateOp::Avg], all.clone(), None))
        .unwrap()
    else {
        panic!("a scalar statement answered with groups");
    };
    assert_eq!(hits() - before, 1, "AVG skipped the degraded entry");
    assert_eq!(
        avg.eval(AggregateOp::Avg),
        mono.range_query(&all, AggregateOp::Avg).unwrap()
    );

    let want = mono.range_summary(&all).unwrap();
    assert!(want.max < max, "extremum did not move");
    for op in AggregateOp::ALL {
        assert_eq!(
            engine.range_query(&all, op).unwrap(),
            mono.range_query(&all, op).unwrap(),
            "{op} drifted after extremum delete"
        );
    }
    assert_eq!(engine.range_summary(&all).unwrap(), want);
    let invalidations = engine.metrics().cache.invalidations.load(Relaxed);
    assert!(invalidations > 0, "extremum delete was not counted");
}

#[test]
fn queued_inserts_are_drained_on_shutdown() {
    let data = tpcd();
    let engine =
        ShardedDcTree::new(data.schema.clone(), engine_config(PartitionPolicy::Hash)).unwrap();
    for r in &data.records {
        engine.insert_raw(&data.paths_for(r), r.measure).unwrap();
    }
    // No flush: shutdown itself must drain the queues into the final
    // snapshots.
    engine.shutdown();
    assert_eq!(engine.len(), data.records.len() as u64);
    // Ingest after shutdown fails instead of silently dropping.
    assert!(engine
        .insert_raw(&data.paths_for(&data.records[0]), 1)
        .is_err());
}
