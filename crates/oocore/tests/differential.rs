//! Differential test: an [`OocDcTree`] running through its node cache
//! with a deliberately tiny node budget must answer
//! every query exactly like the RAM-resident [`DcTree`], including after
//! deletes, a reopen, and under concurrent query load — and, being the same
//! tree over a different store, must *be* the same tree node for node.

use std::sync::Arc;

use dc_common::{AggregateOp, DimensionId, TempDir};
use dc_hierarchy::CubeSchema;
use dc_mds::{DimSet, Mds};
use dc_oocore::{OocDcTree, OocOptions};
use dc_storage::BlockConfig;
use dc_tpcd::{generate, TpcdConfig};
use dc_tree::{DcTree, DcTreeConfig, PreparedRange};

fn small_opts() -> OocOptions {
    OocOptions {
        block: BlockConfig::new(512),
        // Tiny budget: 2 nodes of a tree of several, so the working set
        // cannot stay cached and every query path exercises decoding and
        // eviction.
        frames: 2,
    }
}

/// Queries covering the selectivity spectrum: per-dimension prefixes of the
/// level-1 domain, plus the full cube.
fn probe_queries(schema: &CubeSchema) -> Vec<Mds> {
    let mut queries = vec![Mds::all(schema)];
    for d in 0..schema.num_dims() {
        for take in [1usize, 2, 4] {
            let dim = schema.dim(DimensionId(d as u16));
            let picked: Vec<_> = dim.values_at(1).take(take).collect();
            if picked.is_empty() {
                continue;
            }
            let mut q = Mds::all(schema);
            *q.dim_mut(d) = DimSet::new(1, picked);
            queries.push(q);
        }
    }
    queries
}

fn assert_equivalent(ram: &DcTree, ooc: &OocDcTree, queries: &[Mds]) {
    let ooc = ooc.read();
    ooc.check_invariants().unwrap();
    assert_eq!(ram.len(), ooc.len());
    let ram_total = ram.total_summary().unwrap();
    let ooc_total = ooc.total_summary().unwrap();
    assert_eq!(ram_total.sum, ooc_total.sum);
    assert_eq!(ram_total.count, ooc_total.count);
    for (qi, q) in queries.iter().enumerate() {
        let a = ram.range_summary(q).unwrap();
        let b = ooc.range_summary(q).unwrap();
        assert_eq!(
            (a.sum, a.count, a.min, a.max),
            (b.sum, b.count, b.min, b.max),
            "query {qi}"
        );
        for op in [AggregateOp::Sum, AggregateOp::Count, AggregateOp::Avg] {
            assert_eq!(
                ram.range_query(q, op).unwrap(),
                ooc.range_query(q, op).unwrap(),
                "query {qi} op {op:?}"
            );
        }
        // Group-by along each dimension at level 1.
        for d in 0..ram.schema().num_dims() {
            let mut ga = ram.group_by(DimensionId(d as u16), 1, q).unwrap();
            let mut gb = ooc.group_by(DimensionId(d as u16), 1, q).unwrap();
            ga.sort_by_key(|(v, _)| *v);
            gb.sort_by_key(|(v, _)| *v);
            let ka: Vec<_> = ga.iter().map(|(v, s)| (*v, s.sum, s.count)).collect();
            let kb: Vec<_> = gb.iter().map(|(v, s)| (*v, s.sum, s.count)).collect();
            assert_eq!(ka, kb, "group-by dim {d} query {qi}");
        }
    }
}

#[test]
fn disk_backed_tree_matches_ram_resident_baseline() {
    let cube = generate(&TpcdConfig::scaled(600, 7));
    let dir = TempDir::new("ooc-diff");
    let path = dir.join("diff_main.dct");
    let mut ram = DcTree::new(cube.schema.clone(), DcTreeConfig::default());
    let ooc = OocDcTree::create(
        &path,
        cube.schema.clone(),
        DcTreeConfig::default(),
        small_opts(),
    )
    .unwrap();

    for r in &cube.records {
        ram.insert(r.clone()).unwrap();
        ooc.write().insert(r.clone()).unwrap();
    }

    let queries = probe_queries(&cube.schema);
    assert_equivalent(&ram, &ooc, &queries);

    // The frame budget is far below the working set: the equivalence above
    // must have been served through real faults and evictions.
    let stats = ooc.pool_stats();
    assert!(
        stats.evictions > 0,
        "a 2-node cache over a 600-record cube must evict (got {stats:?})"
    );
    assert!(stats.resident <= stats.capacity);

    // Delete a third of the records from both and re-verify.
    for r in cube.records.iter().step_by(3) {
        assert!(ram.delete(r).unwrap());
        assert!(ooc.write().delete(r).unwrap());
    }
    assert_equivalent(&ram, &ooc, &queries);

    // Flush, reopen from disk, verify again: the on-disk image is complete.
    ooc.flush().unwrap();
    drop(ooc);
    let reopened = OocDcTree::open(&path, DcTreeConfig::default(), small_opts()).unwrap();
    assert_equivalent(&ram, &reopened, &queries);
}

#[test]
fn concurrent_queries_during_churn_see_consistent_states() {
    let cube = generate(&TpcdConfig::scaled(400, 23));
    let dir = TempDir::new("ooc-diff");
    let ooc = Arc::new(
        OocDcTree::create(
            dir.join("diff_churn.dct"),
            cube.schema.clone(),
            DcTreeConfig::default(),
            small_opts(),
        )
        .unwrap(),
    );
    let half = cube.records.len() / 2;
    for r in &cube.records[..half] {
        ooc.write().insert(r.clone()).unwrap();
    }

    let all = Mds::all(&cube.schema);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..3 {
        let ooc = Arc::clone(&ooc);
        let all = all.clone();
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let mut last_count = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let s = ooc.read().range_summary(&all).unwrap();
                // Writers only insert: the record count a reader observes
                // must be monotone, and sum/count must come from one
                // consistent version (count within the insert range).
                assert!(s.count >= last_count, "count went backwards");
                last_count = s.count;
            }
            last_count
        }));
    }
    for r in &cube.records[half..] {
        ooc.write().insert(r.clone()).unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for h in readers {
        let final_seen = h.join().unwrap();
        assert!(final_seen <= cube.records.len() as u64);
    }
    assert_eq!(ooc.read().len(), cube.records.len() as u64);
}

/// Four readers share one shard's node cache — 4 nodes, so they constantly
/// decode, insert and evict under its mutex — while the writer applies a
/// batch between read rounds. Every answer equals the resident tree's.
#[test]
fn concurrent_readers_share_the_node_cache() {
    let cube = generate(&TpcdConfig::scaled(1_200, 29));
    let dir = TempDir::new("ooc-diff");
    let opts = OocOptions {
        frames: 4,
        ..small_opts()
    };
    let config = DcTreeConfig::default();
    let ooc = OocDcTree::create(dir.join("readers.dct"), cube.schema.clone(), config, opts);
    let ooc = ooc.unwrap();
    let mut ram = DcTree::new(cube.schema.clone(), config);
    let queries = probe_queries(&cube.schema);
    for (round, chunk) in cube.records.chunks(200).enumerate() {
        ram.insert_batch(chunk.to_vec()).unwrap();
        ooc.write().insert_batch(chunk.to_vec()).unwrap();
        if round % 2 == 1 {
            for r in chunk.iter().step_by(3) {
                assert!(ram.delete(r).unwrap());
                assert!(ooc.write().delete(r).unwrap());
            }
        }
        let (ram, ooc, queries) = (&ram, &ooc, &queries);
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || {
                    // Each reader starts at its own query, so they race on
                    // different nodes as well as the same ones.
                    for i in 0..queries.len() {
                        let q = &queries[(i + t * 3) % queries.len()];
                        let tree = ooc.read();
                        assert_eq!(
                            tree.range_summary(q).unwrap(),
                            ram.range_summary(q).unwrap()
                        );
                        let dim = DimensionId((i % 3) as u16);
                        assert_eq!(
                            tree.group_by(dim, 1, q).unwrap(),
                            ram.group_by(dim, 1, q).unwrap(),
                            "round {round}, query {i}"
                        );
                    }
                });
            }
        });
        let stats = ooc.pool_stats();
        assert!(stats.resident <= 4, "{stats:?}");
    }
    assert!(ooc.pool_stats().evictions > 0);
}

fn roomy_opts() -> OocOptions {
    OocOptions {
        frames: 256,
        ..OocOptions::default()
    }
}

/// One algorithm, one tree, whatever the store: the same interned stream —
/// `insert_batch(256)` with deletes (condensation, supernode shrinking)
/// between batches — builds the same tree node for node in the arena and
/// in an `OocStore`.
#[test]
fn every_store_builds_the_same_tree() {
    let cube = generate(&TpcdConfig::scaled(5_000, 42));
    let config = DcTreeConfig::default();
    let dir = TempDir::new("ooc-diff");
    let mut ram = DcTree::new(cube.schema.clone(), config);
    let ooc = OocDcTree::create(
        dir.join("stores.dct"),
        cube.schema.clone(),
        config,
        roomy_opts(),
    )
    .unwrap();
    let mut paged = ooc.write();

    for (round, chunk) in cube.records.chunks(256).enumerate() {
        ram.insert_batch(chunk.to_vec()).unwrap();
        paged.insert_batch(chunk.to_vec()).unwrap();
        if round % 2 == 1 {
            for r in chunk.iter().step_by(2) {
                assert!(ram.delete(r).unwrap());
                assert!(paged.delete(r).unwrap());
            }
        }
    }

    let counts = |m: dc_tree::TreeMetrics| (m.splits, m.failed_splits, m.supernode_growths);
    paged.check_invariants().unwrap();
    assert!(
        paged.structure().unwrap() == ram.structure().unwrap(),
        "OocStore tree differs"
    );
    assert_eq!(counts(paged.metrics()), counts(ram.metrics()));

    // One page currency: a read counts the same blocks in either store.
    let dims = ram.schema().num_dims() as u16;
    let axes: Vec<_> = std::iter::once(None)
        .chain((0..dims).map(|d| Some((DimensionId(d), 1))))
        .collect();
    for (qi, q) in probe_queries(&cube.schema).iter().enumerate() {
        for &group_by in &axes {
            let prepared = match group_by {
                None => ram.prepare_range(q).unwrap(),
                Some(_) => PreparedRange::new(ram.schema(), q).unwrap(),
            };
            let (out, pages) = ram.read_counted(&prepared, group_by).unwrap();
            assert!(pages > 0, "a read visits the root at least");
            assert_eq!(
                paged.read_counted(&prepared, group_by).unwrap(),
                (out, pages),
                "query {qi} grouped by {group_by:?}"
            );
        }
    }
}

/// The stream of
/// `tests/ingest_differential.rs::batched_stream_builds_the_golden_tree`
/// fed to a paged store: the golden figures pinned there hold on disk
/// pages too, and the tree is the resident one node for node.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the full 100 k stream through a paged store; run with --release"
)]
fn paged_store_builds_the_golden_tree() {
    let cube = generate(&TpcdConfig::scaled(100_000, 42));
    let config = DcTreeConfig::default();
    let dir = TempDir::new("ooc-diff");
    let mut ram = DcTree::new(cube.schema.clone(), config);
    let ooc = OocDcTree::create(
        dir.join("golden_ooc.dct"),
        cube.schema.clone(),
        config,
        roomy_opts(),
    )
    .unwrap();
    let mut ooc = ooc.write();
    for chunk in cube.records.chunks(256) {
        ram.insert_batch(chunk.to_vec()).unwrap();
        ooc.insert_batch(chunk.to_vec()).unwrap();
    }
    let m = ooc.metrics();
    assert_eq!(
        (m.splits, m.failed_splits, m.supernode_growths),
        (1169, 38, 38)
    );
    assert_eq!((ooc.num_nodes(), ooc.height()), (1172, 3));
    ooc.check_invariants().unwrap();
    assert!(
        ooc.structure().unwrap() == ram.structure().unwrap(),
        "OocStore tree differs"
    );
}
