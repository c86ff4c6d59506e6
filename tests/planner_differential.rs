//! Planner differential: both physical backends the cost model can pick —
//! DC-tree descent and materialized-view lattice lookup — must return
//! *identical* answers on the same data wherever a view answers the query,
//! and the planner's per-shard choice must match them. Pinned over a
//! selectivity × group-by-level matrix and, crucially, while concurrent
//! ingest/delete churn is rewriting the shards: the engine publishes each
//! shard's tree + roll-up views as one atomic snapshot, so a divergence
//! here means a real consistency bug, not test flakiness. (The bitmap and
//! scan baselines are checked against the tree in `engines_agree.rs`.)

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dctree::common::{AggregateOp, DcError, TempDir};
use dctree::mds::Mds;
use dctree::plan::Backend;
use dctree::ql::ParsedStatement;
use dctree::query::{QueryShape, RangeQueryGen, ValuePick, ZipfQueryMix};
use dctree::serve::{
    DiskOptions, EngineConfig, OocOptions, PartitionPolicy, PlannerOptions, ShardedDcTree,
    StorageMode,
};
use dctree::storage::BlockConfig;
use dctree::tpcd::{generate, TpcdConfig, TpcdData};

fn stmt(shape: &QueryShape) -> ParsedStatement {
    ParsedStatement {
        ops: shape.ops.clone(),
        filter: shape.filter.clone(),
        group_by: shape.group_by,
        top: None,
        joins: Vec::new(),
    }
}

fn planner_engine(data: &TpcdData, num_shards: usize) -> ShardedDcTree {
    let engine = ShardedDcTree::new(
        data.schema.clone(),
        EngineConfig {
            num_shards,
            policy: PartitionPolicy::Hash,
            planner: Some(PlannerOptions),
            ..Default::default()
        },
    )
    .unwrap();
    for r in &data.records {
        engine.insert_raw(&data.paths_for(r), r.measure).unwrap();
    }
    engine.flush();
    engine
}

/// Quiescent matrix: scalar and grouped statements over three selectivities
/// and *every* hierarchy level of every dimension. All backends must agree
/// with each other, with the planner's choice, and with the public
/// `execute`/`explain` entry points.
#[test]
fn all_backends_agree_across_selectivity_and_level_matrix() {
    let data = generate(&TpcdConfig::scaled(2500, 31));
    let engine = planner_engine(&data, 2);
    let ops = vec![
        AggregateOp::Sum,
        AggregateOp::Count,
        AggregateOp::Min,
        AggregateOp::Max,
    ];

    let mut chosen_backends = std::collections::BTreeSet::new();
    for (sel, qseed) in [(0.02, 1u64), (0.1, 2), (0.5, 3)] {
        let mut gen = RangeQueryGen::new(sel, ValuePick::Scattered, qseed);
        // Scalar probes at this selectivity.
        for _ in 0..8 {
            let shape = QueryShape {
                filter: gen.generate(&data.schema),
                group_by: None,
                ops: ops.clone(),
            };
            check_all_agree(&engine, &shape, sel, &mut chosen_backends);
        }
        // Grouped probes: every level of every dimension, both under the
        // selective filter (descent territory) and unfiltered (the
        // whole-cube roll-ups the view lattice answers from its cells).
        for d in 0..data.schema.num_dims() {
            let dim = dctree::common::DimensionId(d as u16);
            for level in 0..data.schema.dim(dim).top_level() {
                for filter in [gen.generate(&data.schema), Mds::all(&data.schema)] {
                    let rollup = filter == Mds::all(&data.schema);
                    let shape = QueryShape {
                        filter,
                        group_by: Some((dim, level)),
                        ops: ops.clone(),
                    };
                    let compared = check_all_agree(&engine, &shape, sel, &mut chosen_backends);
                    if rollup {
                        assert!(
                            compared.contains(&Backend::Mview),
                            "the lattice holds a view for every whole-cube roll-up, \
                             got {compared:?} on {shape:?}"
                        );
                    }
                }
            }
        }
    }
    // The cost model must actually discriminate: a matrix this wide has to
    // exercise more than one physical backend.
    assert!(
        chosen_backends.len() >= 2,
        "planner picked only {chosen_backends:?} across the whole matrix"
    );
    engine.shutdown();
}

/// Compares every backend on `shape` and returns the backends compared:
/// descent always, a view lookup where a view answers the shape.
fn check_all_agree(
    engine: &ShardedDcTree,
    shape: &QueryShape,
    sel: f64,
    chosen: &mut std::collections::BTreeSet<&'static str>,
) -> Vec<Backend> {
    let s = stmt(shape);
    let cmp = engine.compare_backends(&s).unwrap();
    let compared: Vec<Backend> = cmp.outputs.iter().map(|(b, _)| *b).collect();
    assert_eq!(
        compared[0],
        Backend::Descend,
        "descent is always comparable"
    );
    let (first_backend, reference) = &cmp.outputs[0];
    for (backend, out) in &cmp.outputs[1..] {
        assert_eq!(
            out, reference,
            "{backend} vs {first_backend} diverged at sel {sel} on {shape:?}"
        );
    }
    assert_eq!(
        &cmp.chosen, reference,
        "planner choice diverged at sel {sel} on {shape:?}"
    );
    // The serving entry points run on the same published snapshots, so on a
    // quiescent engine they must agree too.
    let executed = engine.execute(&s).unwrap();
    assert_eq!(&executed, reference, "execute() diverged at sel {sel}");
    let (explained, explain) = engine.explain(&s).unwrap();
    assert_eq!(&explained, reference, "explain() diverged at sel {sel}");
    chosen.insert(explain.backend.name());
    for (b, _) in &cmp.outputs {
        // Forcing each backend through the public API must agree as well.
        let (forced, _) = engine.execute_forced(&s, *b).unwrap();
        assert_eq!(&forced, reference, "forced {b} diverged at sel {sel}");
    }
    compared
}

/// Mid-churn differential: writer threads continuously insert and delete
/// while queries compare every backend. Answers may drift between *calls*
/// (snapshots advance) but within one comparison every backend sees the
/// same atomically-published state, so they must agree exactly.
#[test]
fn backends_agree_under_concurrent_churn() {
    let data = Arc::new(generate(&TpcdConfig::scaled(2000, 32)));
    let engine = Arc::new(planner_engine(&data, 2));
    let stop = Arc::new(AtomicBool::new(false));

    let mut churners = Vec::new();
    for t in 0..2u64 {
        let engine = Arc::clone(&engine);
        let data = Arc::clone(&data);
        let stop = Arc::clone(&stop);
        churners.push(std::thread::spawn(move || {
            let mut i = (t as usize) * 7919;
            while !stop.load(Ordering::Relaxed) {
                let r = &data.records[i % data.records.len()];
                if i.is_multiple_of(3) {
                    engine.delete_raw(&data.paths_for(r), r.measure).unwrap();
                } else {
                    engine.insert_raw(&data.paths_for(r), r.measure).unwrap();
                }
                i += 1;
                if i.is_multiple_of(64) {
                    engine.flush();
                }
            }
        }));
    }

    let mut gen = RangeQueryGen::new(0.15, ValuePick::Scattered, 33);
    let mut mix = ZipfQueryMix::generate_shapes(&data.schema, 48, 0.8, &mut gen, 34);
    for _ in 0..120 {
        let shape = mix.next_shape().clone();
        let s = stmt(&shape);
        let cmp = engine.compare_backends(&s).unwrap();
        let (first_backend, reference) = &cmp.outputs[0];
        for (backend, out) in &cmp.outputs[1..] {
            assert_eq!(
                out, reference,
                "{backend} vs {first_backend} diverged mid-churn on {shape:?}"
            );
        }
        assert_eq!(&cmp.chosen, reference, "planner diverged mid-churn");
    }

    stop.store(true, Ordering::Relaxed);
    for c in churners {
        c.join().unwrap();
    }
    engine.flush();
    // Quiescent again: the serving path agrees with a final comparison.
    let shape = mix.next_shape().clone();
    let s = stmt(&shape);
    let cmp = engine.compare_backends(&s).unwrap();
    assert_eq!(&engine.execute(&s).unwrap(), &cmp.chosen);
    engine.shutdown();
}

/// Forcing a backend the shards do not maintain is the caller's mistake,
/// reported as such — `Config`, naming the backend — whether the shards are
/// resident with the planner's views off or on disk (descent only).
#[test]
fn forcing_an_unmaintained_backend_is_a_config_error_in_both_storage_modes() {
    let data = generate(&TpcdConfig::scaled(400, 35));
    let dir = TempDir::new("plandiff-forced");
    let disk = StorageMode::Disk(DiskOptions {
        dir: dir.to_path_buf(),
        ooc: OocOptions {
            block: BlockConfig::new(512),
            frames: 16,
        },
    });
    let s = stmt(&QueryShape {
        filter: Mds::all(&data.schema),
        group_by: None,
        ops: vec![AggregateOp::Sum],
    });
    for storage in [StorageMode::Resident, disk] {
        let engine = ShardedDcTree::new(
            data.schema.clone(),
            EngineConfig {
                num_shards: 2,
                planner: None,
                storage: storage.clone(),
                ..Default::default()
            },
        )
        .unwrap();
        for r in &data.records {
            engine.insert_raw(&data.paths_for(r), r.measure).unwrap();
        }
        engine.flush();
        let (descended, _) = engine.execute_forced(&s, Backend::Descend).unwrap();
        assert_eq!(descended, engine.execute(&s).unwrap());
        match engine.execute_forced(&s, Backend::Mview) {
            Err(DcError::Config(msg)) => assert!(
                msg.contains(Backend::Mview.name()),
                "{msg:?} does not name mview under {storage:?}"
            ),
            other => panic!("forced mview under {storage:?}: {other:?}"),
        }
        engine.shutdown();
    }
}
