//! Behavioural tests of the DC-tree: correctness against a brute-force
//! oracle, structural invariants after every mutation batch, supernode
//! dynamics, and the fully dynamic insert/delete cycle.

use std::borrow::Cow;
use std::cell::RefCell;

use dc_common::{AggregateOp, DcResult, DimensionId, MeasureSummary, ValueId};
use dc_hierarchy::{CubeSchema, HierarchySchema, Record};
use dc_mds::{DimSet, Mds};
use dc_tree::node::{Node, NodeId};
use dc_tree::{Arena, DcTree, DcTreeConfig, NodeStore, PreparedRange};
use rand::prelude::*;
use rand::rngs::StdRng;

/// A small 3-dimensional cube: Customer (Region→Nation→Cust),
/// Part (Type→Part), Time (Year→Month).
fn schema() -> CubeSchema {
    CubeSchema::new(
        vec![
            HierarchySchema::new(
                "Customer",
                vec!["Region".into(), "Nation".into(), "Cust".into()],
            ),
            HierarchySchema::new("Part", vec!["Type".into(), "Part".into()]),
            HierarchySchema::new("Time", vec!["Year".into(), "Month".into()]),
        ],
        "Price",
    )
}

/// Deterministic random raw record paths.
fn random_paths(rng: &mut StdRng) -> [Vec<String>; 3] {
    let region = rng.gen_range(0..4);
    let nation = rng.gen_range(0..5);
    let cust = rng.gen_range(0..8);
    let ptype = rng.gen_range(0..6);
    let part = rng.gen_range(0..10);
    let year = rng.gen_range(1995..1999);
    let month = rng.gen_range(1..13);
    [
        vec![
            format!("R{region}"),
            format!("R{region}-N{nation}"),
            format!("R{region}-N{nation}-C{cust}"),
        ],
        vec![format!("T{ptype}"), format!("T{ptype}-P{part}")],
        vec![format!("{year}"), format!("{year}-{month:02}")],
    ]
}

/// Builds a tree plus a mirrored flat record list (the oracle).
fn build(n: usize, seed: u64, config: DcTreeConfig) -> (DcTree, Vec<Record>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tree = DcTree::new(schema(), config);
    let mut oracle = Vec::with_capacity(n);
    for _ in 0..n {
        let paths = random_paths(&mut rng);
        let measure = rng.gen_range(-500..=5000);
        tree.insert_raw(&paths, measure).unwrap();
        // Mirror through an identical interning sequence on the tree's
        // schema (idempotent, so re-interning is safe).
        let record = {
            let dims: Vec<ValueId> = (0..3)
                .map(|d| {
                    tree.schema()
                        .dim(DimensionId(d as u16))
                        .lookup_path(&paths[d])
                        .expect("interned by insert_raw")
                })
                .collect();
            Record::new(dims, measure)
        };
        oracle.push(record);
    }
    (tree, oracle)
}

/// A random query MDS: per dimension pick a level, then a random subset of
/// the values on that level (mirrors the paper's §5.2 generator in spirit).
fn random_query(schema: &CubeSchema, rng: &mut StdRng) -> Mds {
    let dims = (0..schema.num_dims())
        .map(|d| {
            let h = schema.dim(DimensionId(d as u16));
            let level = rng.gen_range(0..=h.top_level());
            let values: Vec<ValueId> = h.values_at(level).collect();
            let take = rng.gen_range(1..=values.len().min(4));
            let chosen: Vec<ValueId> = values.choose_multiple(rng, take).copied().collect();
            DimSet::new(level, chosen)
        })
        .collect();
    Mds::new(dims)
}

/// Oracle evaluation of a range query over the flat record list.
fn oracle_summary(schema: &CubeSchema, records: &[Record], q: &Mds) -> MeasureSummary {
    records
        .iter()
        .filter(|r| q.contains_record(schema, r).unwrap())
        .map(|r| r.measure)
        .collect()
}

#[test]
fn empty_tree_answers_empty() {
    let tree = DcTree::new(schema(), DcTreeConfig::default());
    assert!(tree.is_empty());
    assert_eq!(tree.total_summary().unwrap(), MeasureSummary::empty());
    let q = Mds::all(tree.schema());
    assert_eq!(tree.range_summary(&q).unwrap(), MeasureSummary::empty());
    assert_eq!(tree.range_query(&q, AggregateOp::Sum).unwrap(), Some(0.0));
    assert_eq!(tree.range_query(&q, AggregateOp::Min).unwrap(), None);
    tree.check_invariants().unwrap();
}

#[test]
fn single_record_roundtrip() {
    let mut tree = DcTree::new(schema(), DcTreeConfig::default());
    tree.insert_raw(
        &[
            vec!["R0", "R0-N0", "R0-N0-C0"],
            vec!["T0", "T0-P0"],
            vec!["1996", "1996-01"],
        ],
        1234,
    )
    .unwrap();
    assert_eq!(tree.len(), 1);
    let all = Mds::all(tree.schema());
    assert_eq!(
        tree.range_query(&all, AggregateOp::Sum).unwrap(),
        Some(1234.0)
    );
    assert_eq!(
        tree.range_query(&all, AggregateOp::Count).unwrap(),
        Some(1.0)
    );
    tree.check_invariants().unwrap();
}

#[test]
fn inserts_grow_and_stay_consistent() {
    // Small capacities force plenty of splits.
    let config = DcTreeConfig {
        dir_capacity: 4,
        data_capacity: 4,
        ..DcTreeConfig::default()
    };
    let (tree, oracle) = build(500, 42, config);
    assert_eq!(tree.len(), 500);
    tree.check_invariants().unwrap();
    assert!(
        tree.height() >= 3,
        "500 records at capacity 4 must grow, got {}",
        tree.height()
    );
    // Root summary is the total.
    let expected: MeasureSummary = oracle.iter().map(|r| r.measure).collect();
    assert_eq!(tree.total_summary().unwrap(), expected);
}

#[test]
fn range_queries_match_brute_force() {
    let config = DcTreeConfig {
        dir_capacity: 6,
        data_capacity: 8,
        ..DcTreeConfig::default()
    };
    let (tree, oracle) = build(800, 7, config);
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..200 {
        let q = random_query(tree.schema(), &mut rng);
        let got = tree.range_summary(&q).unwrap();
        let want = oracle_summary(tree.schema(), &oracle, &q);
        assert_eq!(got, want, "query {q:?}");
    }
}

#[test]
fn all_aggregation_operators_agree_with_oracle() {
    let config = DcTreeConfig {
        dir_capacity: 6,
        data_capacity: 8,
        ..DcTreeConfig::default()
    };
    let (tree, oracle) = build(300, 13, config);
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..50 {
        let q = random_query(tree.schema(), &mut rng);
        let want = oracle_summary(tree.schema(), &oracle, &q);
        for op in AggregateOp::ALL {
            let got = tree.range_query(&q, op).unwrap();
            assert_eq!(got, want.eval(op), "{op} over {q:?}");
        }
    }
}

#[test]
fn materialization_ablation_gives_identical_answers() {
    let base = DcTreeConfig {
        dir_capacity: 6,
        data_capacity: 8,
        ..DcTreeConfig::default()
    };
    let no_mat = DcTreeConfig {
        use_materialized_aggregates: false,
        ..base
    };
    let (tree_mat, _) = build(400, 21, base);
    let (tree_raw, _) = build(400, 21, no_mat);
    let mut rng = StdRng::seed_from_u64(22);
    let mut io_mat = 0u64;
    let mut io_raw = 0u64;
    for _ in 0..60 {
        let q = random_query(tree_mat.schema(), &mut rng);
        let (mat_before, raw_before) = (tree_mat.io_stats(), tree_raw.io_stats());
        let a = tree_mat.range_summary(&q).unwrap();
        let b = tree_raw.range_summary(&q).unwrap();
        assert_eq!(a, b);
        io_mat += tree_mat.io_stats().since(&mat_before).reads;
        io_raw += tree_raw.io_stats().since(&raw_before).reads;
    }
    assert!(
        io_mat < io_raw,
        "materialized aggregates must save page reads ({io_mat} vs {io_raw})"
    );
}

#[test]
fn coarse_queries_do_not_touch_data_pages() {
    // A query covering everything must be answered from the root's entries.
    let config = DcTreeConfig {
        dir_capacity: 6,
        data_capacity: 8,
        ..DcTreeConfig::default()
    };
    let (tree, oracle) = build(400, 3, config);
    let before = tree.io_stats();
    let q = Mds::all(tree.schema());
    let got = tree.range_summary(&q).unwrap();
    let want: MeasureSummary = oracle.iter().map(|r| r.measure).collect();
    assert_eq!(got, want);
    // Only the root itself is read (it may span several blocks if it grew
    // into a supernode).
    let root_blocks = tree.stats().unwrap().levels[0].avg_blocks as u64;
    assert_eq!(tree.io_stats().since(&before).reads, root_blocks);
}

#[test]
fn supernodes_appear_under_duplicate_heavy_load() {
    // Insert many records with identical leaf values: the data node cannot
    // be split (all member MDSs equal) and must become a supernode.
    let config = DcTreeConfig {
        dir_capacity: 4,
        data_capacity: 4,
        ..DcTreeConfig::default()
    };
    let mut tree = DcTree::new(schema(), config);
    for i in 0..32 {
        tree.insert_raw(
            &[
                vec!["R0", "R0-N0", "R0-N0-C0"],
                vec!["T0", "T0-P0"],
                vec!["1996", "1996-01"],
            ],
            i,
        )
        .unwrap();
    }
    tree.check_invariants().unwrap();
    let stats = tree.stats().unwrap();
    assert!(
        stats.supernodes > 0,
        "identical records must force supernodes: {stats:?}"
    );
    let all = Mds::all(tree.schema());
    assert_eq!(
        tree.range_query(&all, AggregateOp::Sum).unwrap(),
        Some((0..32).sum::<i64>() as f64)
    );
}

#[test]
fn forced_splits_when_supernodes_disabled() {
    let config = DcTreeConfig {
        dir_capacity: 4,
        data_capacity: 4,
        allow_supernodes: false,
        ..DcTreeConfig::default()
    };
    let (tree, oracle) = build(300, 17, config);
    let stats = tree.stats().unwrap();
    assert_eq!(stats.supernodes, 0, "supernodes were disabled");
    // Queries still correct even with forced (possibly overlapping) splits.
    let mut rng = StdRng::seed_from_u64(18);
    for _ in 0..40 {
        let q = random_query(tree.schema(), &mut rng);
        assert_eq!(
            tree.range_summary(&q).unwrap(),
            oracle_summary(tree.schema(), &oracle, &q)
        );
    }
}

#[test]
fn delete_removes_exactly_one_match() {
    let config = DcTreeConfig {
        dir_capacity: 4,
        data_capacity: 4,
        ..DcTreeConfig::default()
    };
    let (mut tree, mut oracle) = build(250, 31, config);
    let mut rng = StdRng::seed_from_u64(32);
    for _ in 0..150 {
        let victim_idx = rng.gen_range(0..oracle.len());
        let victim = oracle[victim_idx].clone();
        assert!(
            tree.delete(&victim).unwrap(),
            "stored record must be deletable"
        );
        oracle.swap_remove(victim_idx);
        assert_eq!(tree.len() as usize, oracle.len());
    }
    tree.check_invariants().unwrap();
    // Remaining contents still answer queries correctly.
    for _ in 0..60 {
        let q = random_query(tree.schema(), &mut rng);
        assert_eq!(
            tree.range_summary(&q).unwrap(),
            oracle_summary(tree.schema(), &oracle, &q)
        );
    }
}

#[test]
fn delete_missing_record_returns_false() {
    let (mut tree, oracle) = build(50, 8, DcTreeConfig::default());
    let mut ghost = oracle[0].clone();
    ghost.measure += 999_999; // same dims, different measure → no match
    assert!(!tree.delete(&ghost).unwrap());
    assert_eq!(tree.len(), 50);
    tree.check_invariants().unwrap();
}

#[test]
fn delete_everything_returns_to_empty() {
    let config = DcTreeConfig {
        dir_capacity: 4,
        data_capacity: 4,
        ..DcTreeConfig::default()
    };
    let (mut tree, oracle) = build(120, 55, config);
    for r in &oracle {
        assert!(tree.delete(r).unwrap());
    }
    assert!(tree.is_empty());
    assert_eq!(tree.total_summary().unwrap(), MeasureSummary::empty());
    tree.check_invariants().unwrap();
    // And the tree is still usable afterwards.
    tree.insert_raw(
        &[
            vec!["R1", "R1-N1", "R1-N1-C1"],
            vec!["T1", "T1-P1"],
            vec!["1997", "1997-05"],
        ],
        77,
    )
    .unwrap();
    assert_eq!(tree.len(), 1);
    tree.check_invariants().unwrap();
}

#[test]
fn interleaved_inserts_and_deletes_stay_consistent() {
    let config = DcTreeConfig {
        dir_capacity: 5,
        data_capacity: 6,
        ..DcTreeConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(77);
    let mut tree = DcTree::new(schema(), config);
    let mut oracle: Vec<Record> = Vec::new();
    for step in 0..600 {
        if oracle.is_empty() || rng.gen_bool(0.65) {
            let paths = random_paths(&mut rng);
            let measure = rng.gen_range(0..1000);
            tree.insert_raw(&paths, measure).unwrap();
            let dims: Vec<ValueId> = (0..3)
                .map(|d| {
                    tree.schema()
                        .dim(DimensionId(d as u16))
                        .lookup_path(&paths[d])
                        .unwrap()
                })
                .collect();
            oracle.push(Record::new(dims, measure));
        } else {
            let idx = rng.gen_range(0..oracle.len());
            let victim = oracle.swap_remove(idx);
            assert!(tree.delete(&victim).unwrap(), "step {step}");
        }
        if step % 97 == 0 {
            tree.check_invariants().unwrap();
        }
    }
    tree.check_invariants().unwrap();
    assert_eq!(tree.len() as usize, oracle.len());
    let q = Mds::all(tree.schema());
    let want: MeasureSummary = oracle.iter().map(|r| r.measure).collect();
    assert_eq!(tree.range_summary(&q).unwrap(), want);
}

#[test]
fn stats_reflect_structure() {
    let config = DcTreeConfig {
        dir_capacity: 4,
        data_capacity: 4,
        ..DcTreeConfig::default()
    };
    let (tree, _) = build(400, 11, config);
    let stats = tree.stats().unwrap();
    assert_eq!(stats.height, tree.height());
    assert_eq!(stats.records, 400);
    assert_eq!(stats.levels.len(), stats.height);
    assert_eq!(stats.levels[0].nodes, 1, "exactly one root");
    assert_eq!(stats.dir_nodes + stats.data_nodes, tree.num_nodes());
    // Level-0 average entries equals the root's entry count.
    let root_entries = stats.levels[0].avg_entries;
    assert!(root_entries >= 2.0, "a split root has at least two entries");
    // Deeper levels host more nodes.
    for w in stats.levels.windows(2) {
        assert!(w[1].nodes >= w[0].nodes);
    }
}

/// An arena that records every block of every node read through it,
/// keyed `node * 4096 + block` as the A6 ablation keys its trace.
#[derive(Default)]
struct Recording {
    nodes: Arena,
    trace: RefCell<Vec<u64>>,
}

impl NodeStore for Recording {
    fn get(&self, id: NodeId) -> DcResult<Cow<'_, Node>> {
        let node = self.nodes.get(id)?;
        let key = u64::from(id.raw()) * 4096;
        let blocks = (0..u64::from(node.blocks)).map(|b| key + b);
        self.trace.borrow_mut().extend(blocks);
        Ok(node)
    }

    fn update<R>(&mut self, id: NodeId, f: impl FnOnce(&mut Node) -> DcResult<R>) -> DcResult<R> {
        self.nodes.update(id, f)
    }

    fn alloc(&mut self, node: Node) -> DcResult<NodeId> {
        self.nodes.alloc(node)
    }

    fn free(&mut self, id: NodeId) -> DcResult<Node> {
        self.nodes.free(id)
    }
}

#[test]
fn io_counters_track_reads_and_writes() {
    let (mut tree, _) = build(100, 23, DcTreeConfig::default());
    let after_build = tree.io_stats();
    assert!(after_build.reads > 0 && after_build.writes > 0);
    let q = Mds::all(tree.schema());
    let (_, pages) = tree
        .read_counted(&tree.prepare_range(&q).unwrap(), None)
        .unwrap();
    let io = tree.io_stats().since(&after_build);
    assert!(io.reads >= 1);
    assert_eq!(io.reads, pages, "a read adds the pages it counted");
    assert_eq!(io.writes, 0, "queries never write");
    // Grouped reads count like scalar ones: one page per block the store
    // was read for.
    let recorded = tree.copy_to(Recording::default()).unwrap();
    let grouped = PreparedRange::new(tree.schema(), &q).unwrap();
    let by_region = Some((DimensionId(0), 1));
    recorded.store().trace.take();
    let (groups, pages) = recorded.read_counted(&grouped, by_region).unwrap();
    let trace = recorded.store().trace.take();
    assert!(!trace.is_empty(), "a group_by traces the blocks it reads");
    assert_eq!(trace.len() as u64, pages);
    assert_eq!(
        tree.read_counted(&grouped, by_region).unwrap(),
        (groups, pages)
    );
    let before = tree.io_stats();
    tree.insert_raw(
        &[
            vec!["R0", "R0-N0", "R0-N0-C7"],
            vec!["T5", "T5-P9"],
            vec!["1998", "1998-12"],
        ],
        1,
    )
    .unwrap();
    let io = tree.io_stats().since(&before);
    assert!(io.writes >= 1, "inserts write the touched path");
}

#[test]
fn duplicate_records_are_individually_deletable() {
    let mut tree = DcTree::new(schema(), DcTreeConfig::default());
    let paths = [
        vec![
            "R0".to_string(),
            "R0-N0".to_string(),
            "R0-N0-C0".to_string(),
        ],
        vec!["T0".to_string(), "T0-P0".to_string()],
        vec!["1996".to_string(), "1996-01".to_string()],
    ];
    for _ in 0..3 {
        tree.insert_raw(&paths, 500).unwrap();
    }
    let rec = {
        let dims: Vec<ValueId> = (0..3)
            .map(|d| {
                tree.schema()
                    .dim(DimensionId(d as u16))
                    .lookup_path(&paths[d])
                    .unwrap()
            })
            .collect();
        Record::new(dims, 500)
    };
    assert!(tree.delete(&rec).unwrap());
    assert_eq!(tree.len(), 2);
    assert!(tree.delete(&rec).unwrap());
    assert!(tree.delete(&rec).unwrap());
    assert!(!tree.delete(&rec).unwrap());
    assert!(tree.is_empty());
}

#[test]
fn count_matching_counts_duplicates() {
    let (mut tree, oracle) = build(200, 61, DcTreeConfig::default());
    let target = oracle[0].clone();
    let expected = oracle.iter().filter(|r| **r == target).count() as u64;
    assert_eq!(tree.count_matching(&target).unwrap(), expected);
    // Insert two more copies and recount.
    tree.insert(target.clone()).unwrap();
    tree.insert(target.clone()).unwrap();
    assert_eq!(tree.count_matching(&target).unwrap(), expected + 2);
    // A record that was never inserted counts zero.
    let mut ghost = target;
    ghost.measure = i64::MIN / 2;
    assert_eq!(tree.count_matching(&ghost).unwrap(), 0);
}

#[test]
fn group_by_matches_per_group_queries() {
    let config = DcTreeConfig {
        dir_capacity: 5,
        data_capacity: 6,
        ..DcTreeConfig::default()
    };
    let (tree, oracle) = build(600, 71, config);
    let mut rng = StdRng::seed_from_u64(72);
    for _ in 0..25 {
        let filter = random_query(tree.schema(), &mut rng);
        for dim in 0..tree.schema().num_dims() {
            let dim = DimensionId(dim as u16);
            let h = tree.schema().dim(dim);
            for level in 0..=h.top_level() {
                let groups = tree.group_by(dim, level, &filter).unwrap();
                // Oracle: classify matching records by ancestor.
                let mut expected: std::collections::BTreeMap<ValueId, MeasureSummary> =
                    Default::default();
                for r in &oracle {
                    if filter.contains_record(tree.schema(), r).unwrap() {
                        let key = h.ancestor_at(r.dims[dim.as_usize()], level).unwrap();
                        expected.entry(key).or_default().add(r.measure);
                    }
                }
                let got: std::collections::BTreeMap<ValueId, MeasureSummary> =
                    groups.into_iter().collect();
                assert_eq!(got, expected, "dim {dim} level {level}");
            }
        }
    }
}

#[test]
fn group_by_rejects_bad_level() {
    let (tree, _) = build(20, 81, DcTreeConfig::default());
    let filter = Mds::all(tree.schema());
    let top = tree.schema().dim(DimensionId(0)).top_level();
    assert!(tree.group_by(DimensionId(0), top + 1, &filter).is_err());
    // Grouping at the ALL level returns a single group with the total.
    let groups = tree.group_by(DimensionId(0), top, &filter).unwrap();
    assert_eq!(groups.len(), 1);
    assert_eq!(groups[0].1, tree.total_summary().unwrap());
}

#[test]
fn bulk_insert_equals_incremental_semantics() {
    let config = DcTreeConfig {
        dir_capacity: 5,
        data_capacity: 6,
        ..DcTreeConfig::default()
    };
    let (incremental, oracle) = build(400, 91, config);
    // Same records via bulk_load into a fresh tree sharing the schema.
    let mut bulk = DcTree::new(incremental.schema().clone(), config);
    let ids = bulk.bulk_load(oracle.clone()).unwrap();
    assert_eq!(ids.len(), oracle.len());
    bulk.check_invariants().unwrap();
    assert_eq!(
        bulk.total_summary().unwrap(),
        incremental.total_summary().unwrap()
    );
    let mut rng = StdRng::seed_from_u64(92);
    for _ in 0..60 {
        let q = random_query(bulk.schema(), &mut rng);
        assert_eq!(
            bulk.range_summary(&q).unwrap(),
            oracle_summary(bulk.schema(), &oracle, &q)
        );
    }
}

/// Demonstrates the reproduction erratum: the paper's literal Fig. 7
/// adaptation ("adapt the MDS with the lower level to the one with the
/// higher level", then test containment) over-approximates when the *query*
/// is the finer side, adding whole materialized summaries for entries that
/// are only partially selected.
#[test]
fn paper_fig7_containment_overcounts() {
    let mut schema_paper = schema();
    let _ = &mut schema_paper;
    let sound_cfg = DcTreeConfig {
        dir_capacity: 4,
        data_capacity: 4,
        ..DcTreeConfig::default()
    };
    let paper_cfg = DcTreeConfig {
        use_paper_fig7_containment: true,
        ..sound_cfg
    };
    let (sound, oracle) = build(400, 101, sound_cfg);
    let (paper, _) = build(400, 101, paper_cfg);

    // Fine-grained queries (leaf level in every dimension): the paper-mode
    // shortcut lifts them to coarse entry levels and overcounts.
    let mut rng = StdRng::seed_from_u64(102);
    let mut any_overcount = false;
    for _ in 0..200 {
        let dims = (0..3)
            .map(|d| {
                let h = sound.schema().dim(DimensionId(d as u16));
                let values: Vec<ValueId> = h.values_at(0).collect();
                let take = values.len().div_ceil(3).max(1);
                DimSet::new(0, values.choose_multiple(&mut rng, take).copied().collect())
            })
            .collect();
        let q = Mds::new(dims);
        let truth = oracle_summary(sound.schema(), &oracle, &q);
        assert_eq!(
            sound.range_summary(&q).unwrap(),
            truth,
            "sound mode is exact"
        );
        let paper_answer = paper.range_summary(&q).unwrap();
        if paper_answer.count > truth.count {
            any_overcount = true;
        }
        assert!(
            paper_answer.count >= truth.count,
            "paper mode over-approximates, never under"
        );
    }
    assert!(
        any_overcount,
        "the erratum must be observable: at least one query overcounts"
    );
}

#[test]
fn update_measure_moves_aggregates() {
    let config = DcTreeConfig {
        dir_capacity: 4,
        data_capacity: 4,
        ..DcTreeConfig::default()
    };
    let (mut tree, mut oracle) = build(200, 111, config);
    let mut rng = StdRng::seed_from_u64(112);
    for _ in 0..60 {
        let idx = rng.gen_range(0..oracle.len());
        let old = oracle[idx].clone();
        let new_measure = rng.gen_range(-1000..10_000);
        assert!(tree.update_measure(&old, new_measure).unwrap());
        oracle[idx].measure = new_measure;
    }
    tree.check_invariants().unwrap();
    let want: MeasureSummary = oracle.iter().map(|r| r.measure).collect();
    assert_eq!(tree.total_summary().unwrap(), want);
    // Updating a non-existent record reports false and changes nothing.
    let mut ghost = oracle[0].clone();
    ghost.measure = i64::MAX / 4;
    assert!(!tree.update_measure(&ghost, 0).unwrap());
    assert_eq!(tree.total_summary().unwrap(), want);
}

#[test]
fn dead_space_report_quantifies_fig3() {
    let config = DcTreeConfig {
        dir_capacity: 6,
        data_capacity: 8,
        ..DcTreeConfig::default()
    };
    let (tree, _) = build(500, 121, config);
    let report = tree.dead_space_report().unwrap();
    assert!(report.data_nodes > 0);
    assert!(report.mds_cells > 0);
    // An interval always covers at least the occupied cells…
    assert!(report.mbr_cells >= report.mds_cells);
    // …and on multi-dimensional data it covers strictly more (Fig. 3).
    assert!(report.blowup() > 1.0, "blowup {}", report.blowup());
}

#[test]
fn metrics_expose_split_activity() {
    let config = DcTreeConfig {
        dir_capacity: 4,
        data_capacity: 4,
        ..DcTreeConfig::default()
    };
    let (tree, _) = build(300, 131, config);
    let m = tree.metrics();
    assert!(m.splits > 0, "300 records at capacity 4 must split");
    let q = Mds::all(tree.schema());
    let _ = tree.range_summary(&q).unwrap();
    let m2 = tree.metrics();
    assert!(
        m2.shortcut_hits + m2.descents > m.shortcut_hits + m.descents,
        "queries must account entry decisions"
    );
    let top = tree.schema().dim(DimensionId(0)).top_level();
    let _ = tree.group_by(DimensionId(0), top, &q).unwrap();
    assert!(
        tree.metrics().shortcut_hits > m2.shortcut_hits,
        "a group_by over everything answers entries from their summaries"
    );
}

#[test]
fn pivot_matches_nested_group_by() {
    let config = DcTreeConfig {
        dir_capacity: 5,
        data_capacity: 6,
        ..DcTreeConfig::default()
    };
    // A pivot prepares its filter soundly like `group_by`, so the paper's
    // containment switch (which only scalar queries honour) changes nothing.
    let paper = DcTreeConfig {
        use_paper_fig7_containment: true,
        ..config
    };
    for config in [config, paper] {
        pivot_matches_oracle(config);
    }
}

fn pivot_matches_oracle(config: DcTreeConfig) {
    let (tree, oracle) = build(500, 141, config);
    let mut rng = StdRng::seed_from_u64(142);
    for _ in 0..10 {
        let filter = random_query(tree.schema(), &mut rng);
        let row = (DimensionId(0), 1u8);
        let col = (DimensionId(2), 1u8);
        let cells = tree.pivot(row, col, &filter).unwrap();
        // Oracle: classify by both axes.
        let mut expected: std::collections::BTreeMap<(ValueId, ValueId), MeasureSummary> =
            Default::default();
        let hr = tree.schema().dim(row.0);
        let hc = tree.schema().dim(col.0);
        for r in &oracle {
            if filter.contains_record(tree.schema(), r).unwrap() {
                let rk = hr.ancestor_at(r.dims[0], row.1).unwrap();
                let ck = hc.ancestor_at(r.dims[2], col.1).unwrap();
                expected.entry((rk, ck)).or_default().add(r.measure);
            }
        }
        let got: std::collections::BTreeMap<(ValueId, ValueId), MeasureSummary> =
            cells.into_iter().collect();
        assert_eq!(got, expected);
    }
}

#[test]
fn a_copy_into_a_fresh_arena_is_the_same_tree() {
    let config = DcTreeConfig {
        dir_capacity: 4,
        data_capacity: 4,
        ..DcTreeConfig::default()
    };
    let (mut tree, mut oracle) = build(600, 161, config);
    // Deletes leave recycled slots behind; the copy does not care.
    let mut rng = StdRng::seed_from_u64(162);
    for _ in 0..200 {
        let victim = oracle.swap_remove(rng.gen_range(0..oracle.len()));
        assert!(tree.delete(&victim).unwrap());
    }
    let mut copy = tree.copy_to(Arena::default()).unwrap();
    copy.check_invariants().unwrap();
    assert!(copy.structure().unwrap() == tree.structure().unwrap());
    assert_eq!(
        (copy.len(), copy.num_nodes(), copy.height()),
        (tree.len(), tree.num_nodes(), tree.height())
    );
    assert_eq!(copy.config().dir_capacity, 4);
    // The copy stays fully dynamic and numbers records on from where the
    // original stopped.
    let id = copy.insert_raw(&random_paths(&mut rng), 7).unwrap();
    assert_eq!(id.0, 600);
    copy.check_invariants().unwrap();
    assert_eq!(tree.len(), 400, "the original is untouched");
}

#[test]
fn rebuild_compacts_without_changing_answers() {
    let config = DcTreeConfig {
        dir_capacity: 4,
        data_capacity: 4,
        ..DcTreeConfig::default()
    };
    let (mut tree, mut oracle) = build(400, 151, config);
    // Heavy churn: delete two thirds.
    let mut rng = StdRng::seed_from_u64(152);
    for _ in 0..260 {
        let idx = rng.gen_range(0..oracle.len());
        let victim = oracle.swap_remove(idx);
        assert!(tree.delete(&victim).unwrap());
    }
    let nodes_before = tree.num_nodes();
    tree.rebuild().unwrap();
    tree.check_invariants().unwrap();
    assert!(tree.num_nodes() <= nodes_before, "rebuild must not bloat");
    assert_eq!(tree.len() as usize, oracle.len());
    for _ in 0..40 {
        let q = random_query(tree.schema(), &mut rng);
        assert_eq!(
            tree.range_summary(&q).unwrap(),
            oracle_summary(tree.schema(), &oracle, &q)
        );
    }
    // The tree remains dynamic after a rebuild.
    tree.insert_raw(
        &[
            vec!["R9", "R9-N9", "R9-N9-C9"],
            vec!["T9", "T9-P9"],
            vec!["1999", "1999-09"],
        ],
        9,
    )
    .unwrap();
    tree.check_invariants().unwrap();
}

#[test]
fn range_selection_returns_exactly_the_matching_records() {
    let config = DcTreeConfig {
        dir_capacity: 5,
        data_capacity: 6,
        ..DcTreeConfig::default()
    };
    let (tree, oracle) = build(500, 171, config);
    let mut rng = StdRng::seed_from_u64(172);
    for _ in 0..40 {
        let q = random_query(tree.schema(), &mut rng);
        let mut got = tree.range_records(&q).unwrap();
        let mut want: Vec<Record> = oracle
            .iter()
            .filter(|r| q.contains_record(tree.schema(), r).unwrap())
            .cloned()
            .collect();
        let key = |r: &Record| (r.dims.clone(), r.measure);
        got.sort_by_key(key);
        want.sort_by_key(key);
        assert_eq!(got, want);
        // Selection and aggregation agree on cardinality.
        assert_eq!(
            got.len() as f64,
            tree.range_query(&q, AggregateOp::Count).unwrap().unwrap()
        );
    }
}

/// `insert` is `insert_batch`'s run of one. These are the counts the 100 k
/// TPC-D stream built record by record through the separate single-record
/// descent, read before that descent was folded into the run's.
#[test]
fn run_of_one_builds_the_record_at_a_time_tree() {
    let data = dc_tpcd::generate(&dc_tpcd::TpcdConfig::scaled(100_000, 42));
    let mut tree = DcTree::new(data.schema.clone(), DcTreeConfig::default());
    for r in &data.records {
        tree.insert(r.clone()).unwrap();
    }
    let m = tree.metrics();
    assert_eq!(
        (m.splits, m.failed_splits, m.supernode_growths),
        (1169, 38, 38)
    );
    assert_eq!((tree.num_nodes(), tree.height()), (1172, 3));
}
