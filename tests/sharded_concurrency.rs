//! The streaming-updates scenario, promoted from `examples/streaming_updates`
//! into a checked integration test and pointed at the sharded engine:
//! several writer threads firehose trades into a [`ShardedDcTree`] while
//! reader threads continuously query what the shards have published;
//! afterwards the engine must hold exactly what a sequential replay into a
//! plain [`DcTree`] holds. Each race runs over resident shards and over
//! disk shards on a buffer pool far below the working set, both with the
//! query pool on, so readers scatter over the shards from several threads
//! while the writers publish.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use dctree::common::TempDir;
use dctree::serve::{DiskOptions, EngineConfig, OocOptions, PartitionPolicy, StorageMode};
use dctree::storage::BlockConfig;
use dctree::{
    AggregateOp, CubeSchema, DcTree, DcTreeConfig, DimSet, DimensionId, HierarchySchema, Mds,
    ShardedDcTree,
};
use rand::prelude::*;
use rand::rngs::StdRng;

const SECTORS: [&str; 5] = ["TECH", "ENERGY", "FINANCE", "HEALTH", "RETAIL"];
const VENUES: [&str; 3] = ["NYSE", "NASDAQ", "LSE"];

fn ticker_schema() -> CubeSchema {
    CubeSchema::new(
        vec![
            HierarchySchema::new("Instrument", vec!["Sector".into(), "Symbol".into()]),
            HierarchySchema::new("Venue", vec!["Venue".into()]),
            HierarchySchema::new("Time", vec!["Hour".into(), "Minute".into()]),
        ],
        "TradeValue",
    )
}

/// One deterministic trade per (writer, sequence) pair.
fn trade(rng: &mut StdRng) -> (Vec<Vec<String>>, i64) {
    let sector = SECTORS[rng.gen_range(0usize..SECTORS.len())];
    let symbol = format!("{sector}-{:03}", rng.gen_range(0u32..120));
    let venue = VENUES[rng.gen_range(0usize..VENUES.len())];
    let hour = format!("{:02}", rng.gen_range(9u32..17));
    let minute = format!("{hour}:{:02}", rng.gen_range(0u32..60));
    let value = rng.gen_range(1_000i64..5_000_000);
    (
        vec![
            vec![sector.to_string(), symbol],
            vec![venue.to_string()],
            vec![hour, minute],
        ],
        value,
    )
}

/// The engine a race runs on: resident shards, or (`disk`) shards paged
/// through `ooc_differential`'s tiny pool — 512-byte blocks, 16 frames —
/// so queries and writer batches fault and evict against each other. The
/// query pool is set explicitly: a one-core host would default it off.
fn config(policy: PartitionPolicy, disk: Option<&TempDir>) -> EngineConfig {
    EngineConfig {
        policy,
        parallel_queries: true,
        pool_workers: Some(2),
        storage: match disk {
            None => StorageMode::Resident,
            Some(dir) => StorageMode::Disk(DiskOptions {
                dir: dir.to_path_buf(),
                ooc: OocOptions {
                    block: BlockConfig::new(512),
                    frames: 16,
                    compress: true,
                },
            }),
        },
        ..EngineConfig::default()
    }
}

#[test]
fn writers_and_readers_race_then_agree_with_sequential_replay() {
    writers_and_readers_race(false);
}

#[test]
fn writers_and_readers_race_on_disk_shards_then_agree_with_sequential_replay() {
    writers_and_readers_race(true);
}

fn writers_and_readers_race(disk: bool) {
    const WRITERS: usize = 4;
    const READERS: usize = 2;
    const TRADES_PER_WRITER: usize = 1_500;

    let dir = disk.then(|| TempDir::new("race-ingest"));
    let engine = Arc::new(
        ShardedDcTree::new(ticker_schema(), config(PartitionPolicy::Hash, dir.as_ref())).unwrap(),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let queries_run = Arc::new(AtomicU64::new(0));

    // Readers: roll up one sector while trades stream in. Answers race the
    // writers, so only invariants are checked here — never a fixed value.
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let queries_run = Arc::clone(&queries_run);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(1000 + r as u64);
                while !stop.load(Ordering::Relaxed) {
                    let q = {
                        let schema = engine.schema();
                        let inst = schema.dim(DimensionId(0));
                        let sectors: Vec<_> = inst.values_at(1).collect();
                        let sector = if sectors.is_empty() {
                            inst.all()
                        } else {
                            sectors[rng.gen_range(0usize..sectors.len())]
                        };
                        Mds::new(vec![
                            DimSet::singleton(sector),
                            DimSet::singleton(schema.dim(DimensionId(1)).all()),
                            DimSet::singleton(schema.dim(DimensionId(2)).all()),
                        ])
                    };
                    let summary = engine.range_summary(&q).expect("query");
                    if summary.count > 0 {
                        assert!(summary.min <= summary.max);
                        assert!(summary.sum >= summary.count as i64 * 1_000);
                    }
                    queries_run.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // Writers: each streams its own deterministic trade sequence.
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let engine = Arc::clone(&engine);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(w as u64);
                for _ in 0..TRADES_PER_WRITER {
                    let (paths, value) = trade(&mut rng);
                    engine.insert_raw(&paths, value).expect("insert");
                }
            });
        }
    });
    engine.flush();
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().expect("reader");
    }
    assert!(queries_run.load(Ordering::Relaxed) > 0, "readers never ran");

    // Sequential replay of the same trades into a plain DcTree.
    let mut replay = DcTree::new(ticker_schema(), DcTreeConfig::default());
    for w in 0..WRITERS {
        let mut rng = StdRng::seed_from_u64(w as u64);
        for _ in 0..TRADES_PER_WRITER {
            let (paths, value) = trade(&mut rng);
            replay.insert_raw(&paths, value).expect("replay insert");
        }
    }

    // Final-count equality — and, since the record multiset is identical,
    // every aggregate agrees too.
    assert_eq!(engine.len(), (WRITERS * TRADES_PER_WRITER) as u64);
    assert_eq!(engine.len(), replay.len());
    assert_eq!(
        engine.total_summary().unwrap(),
        replay.total_summary().unwrap()
    );
    let q = Mds::all(&replay.schema().clone());
    assert_eq!(
        engine.range_query(&q, AggregateOp::Sum).unwrap(),
        replay.range_query(&q, AggregateOp::Sum).unwrap()
    );
    // (Finer-grained cross-checks by ValueId would be unsound here: the
    // concurrent writers interleave at the catalog, so intern order — and
    // therefore IDs — can differ from the sequential replay's. The
    // differential tests in dc-serve cover value-level equality.)
    engine.check_invariants().expect("shard invariants");
    engine.shutdown();
}

/// The same race with the aggregate cache in the line of fire and deletes
/// in the stream, under both sharding policies: readers hammer a handful of
/// sector roll-ups (so the cache serves repeats) while writers insert and
/// then deleters remove a deterministic subset; the end state must match a
/// sequential replay, per sector, with every value dynamically interned
/// during the run. Each phase pauses its writers halfway (see
/// [`race_phase`]) so the cache provably both serves and absorbs.
#[test]
fn cached_rollups_race_writers_and_deleters_then_agree() {
    cached_rollups_race(false);
}

#[test]
fn cached_rollups_race_writers_and_deleters_on_disk_shards_then_agree() {
    cached_rollups_race(true);
}

const WRITERS: usize = 3;
const TRADES_PER_WRITER: usize = 1_200;
const READERS: usize = 2;
/// Queries every reader poses while a phase's writers are paused. A miss is
/// cached only if no publish lands while it runs, and readers choose among
/// five sector roll-ups, so twelve queries in a quiet engine hold a repeat
/// of a cached entry even if the first was in flight across the pause.
const QUIET_QUERIES: u64 = 12;

/// Runs one phase of the cached race: every writer streams its own
/// deterministic trade sequence into `op`. Halfway through, the writers
/// stop at a barrier; one of them flushes the engine and waits until every
/// reader has posed [`QUIET_QUERIES`] queries since, then all resume. The
/// readers' queries in that window run while the writers are live but no
/// publish lands, so their misses are cached and their repeats hit; the
/// second half's publishes then reach those entries (patches or
/// invalidations). Without the pause both are left to the scheduler.
fn race_phase(
    engine: &ShardedDcTree,
    posed: &[AtomicU64],
    op: impl Fn(&ShardedDcTree, usize, &[Vec<String>], i64) + Sync,
) {
    let halfway = Barrier::new(WRITERS);
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let (halfway, op) = (&halfway, &op);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(w as u64);
                for i in 0..TRADES_PER_WRITER {
                    if i == TRADES_PER_WRITER / 2 {
                        if halfway.wait().is_leader() {
                            engine.flush();
                            let from: Vec<u64> =
                                posed.iter().map(|n| n.load(Ordering::Relaxed)).collect();
                            while posed
                                .iter()
                                .zip(&from)
                                .any(|(n, &f)| n.load(Ordering::Relaxed) < f + QUIET_QUERIES)
                            {
                                std::thread::yield_now();
                            }
                        }
                        halfway.wait();
                    }
                    let (paths, value) = trade(&mut rng);
                    op(engine, i, &paths, value);
                }
            });
        }
    });
}

fn cached_rollups_race(disk: bool) {
    for policy in [
        PartitionPolicy::Hash,
        // Route by Instrument.Sector (level 1 of dimension 0).
        PartitionPolicy::ByDimension {
            dim: DimensionId(0),
            level: 1,
        },
    ] {
        let dir = disk.then(|| TempDir::new("race-rollups"));
        let engine =
            Arc::new(ShardedDcTree::new(ticker_schema(), config(policy, dir.as_ref())).unwrap());
        let stop = Arc::new(AtomicBool::new(false));
        let posed: Arc<Vec<AtomicU64>> =
            Arc::new((0..READERS).map(|_| AtomicU64::new(0)).collect());

        // Readers: the dashboard shape — a small set of per-sector
        // roll-ups, asked over and over, so repeats are served (and kept
        // fresh) by the cache while the write stream mutates the cube.
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let engine = Arc::clone(&engine);
                let stop = Arc::clone(&stop);
                let posed = Arc::clone(&posed);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(2000 + r as u64);
                    while !stop.load(Ordering::Relaxed) {
                        let q = {
                            let schema = engine.schema();
                            let inst = schema.dim(DimensionId(0));
                            let sectors: Vec<_> = inst.values_at(1).collect();
                            let sector = if sectors.is_empty() {
                                inst.all()
                            } else {
                                sectors[rng.gen_range(0usize..sectors.len())]
                            };
                            Mds::new(vec![
                                DimSet::singleton(sector),
                                DimSet::singleton(schema.dim(DimensionId(1)).all()),
                                DimSet::singleton(schema.dim(DimensionId(2)).all()),
                            ])
                        };
                        let summary = engine.range_summary(&q).expect("query");
                        if summary.count > 0 {
                            assert!(summary.min <= summary.max);
                            assert!(summary.sum >= summary.count as i64 * 1_000);
                        }
                        posed[r].fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();

        // Phase 1: writers race (dynamic interning — the schema starts
        // with no values at all).
        race_phase(&engine, &posed, |engine, _, paths, value| {
            engine.insert_raw(paths, value).expect("insert");
        });
        engine.flush();

        // Phase 2: deleters race the readers, removing every 3rd trade of
        // each writer's stream (all present after the flush above).
        race_phase(&engine, &posed, |engine, i, paths, value| {
            if i % 3 == 0 {
                engine.delete_raw(paths, value).expect("delete");
            }
        });
        engine.flush();
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().expect("reader");
        }
        let queries_run: u64 = posed.iter().map(|n| n.load(Ordering::Relaxed)).sum();
        assert!(queries_run > 0, "readers never ran");

        // Sequential replay of the same stream.
        let mut replay = DcTree::new(ticker_schema(), DcTreeConfig::default());
        for w in 0..WRITERS {
            let mut rng = StdRng::seed_from_u64(w as u64);
            for _ in 0..TRADES_PER_WRITER {
                let (paths, value) = trade(&mut rng);
                replay.insert_raw(&paths, value).expect("replay insert");
            }
        }
        for w in 0..WRITERS {
            let mut rng = StdRng::seed_from_u64(w as u64);
            for i in 0..TRADES_PER_WRITER {
                let (paths, value) = trade(&mut rng);
                if i % 3 == 0 {
                    let record = replay
                        .schema()
                        .clone()
                        .intern_record(&paths, value)
                        .unwrap();
                    assert!(replay.delete(&record).expect("replay delete"));
                }
            }
        }

        assert_eq!(engine.len(), replay.len(), "under {policy:?}");
        assert_eq!(
            engine.total_summary().unwrap(),
            replay.total_summary().unwrap(),
            "under {policy:?}"
        );
        // Per-sector equality by *name* (IDs may differ: concurrent writers
        // interleave at the catalog, the replay interns sequentially).
        let engine_schema = engine.schema();
        for sector in SECTORS {
            let per_engine = {
                let v = engine_schema.dim(DimensionId(0)).lookup_path(&[sector]);
                Mds::new(vec![
                    DimSet::singleton(v.expect("sector interned")),
                    DimSet::singleton(engine_schema.dim(DimensionId(1)).all()),
                    DimSet::singleton(engine_schema.dim(DimensionId(2)).all()),
                ])
            };
            let per_replay = {
                let schema = replay.schema();
                let v = schema.dim(DimensionId(0)).lookup_path(&[sector]);
                Mds::new(vec![
                    DimSet::singleton(v.expect("sector interned")),
                    DimSet::singleton(schema.dim(DimensionId(1)).all()),
                    DimSet::singleton(schema.dim(DimensionId(2)).all()),
                ])
            };
            assert_eq!(
                engine.range_summary(&per_engine).unwrap(),
                replay.range_summary(&per_replay).unwrap(),
                "sector {sector} drifted under {policy:?}"
            );
        }
        // The cache must have both served repeats and absorbed deltas.
        let cm = &engine.metrics().cache;
        assert!(cm.hits.load(Ordering::Relaxed) > 0, "no cache hits");
        assert!(
            cm.patches.load(Ordering::Relaxed) + cm.invalidations.load(Ordering::Relaxed) > 0,
            "writes never reached the cache"
        );
        engine.check_invariants().expect("shard invariants");
        engine.shutdown();
    }
}
