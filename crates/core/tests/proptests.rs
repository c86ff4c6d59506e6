//! Property-based tests of the DC-tree: random workloads against a
//! brute-force oracle, with the structural invariant checker run after
//! every case.

use dc_common::{AggregateOp, DimensionId, MeasureSummary, ValueId};
use dc_hierarchy::{CubeSchema, HierarchySchema, Record};
use dc_mds::{DimSet, Mds};
use dc_tree::{DcTree, DcTreeConfig};
use proptest::prelude::*;

/// One raw record, expressed as small indices so proptest can shrink it.
#[derive(Clone, Debug)]
struct RawRec {
    a: u8,
    b: u8,
    c: u8,
    y: u8,
    m: u8,
    measure: i16,
}

fn raw_rec() -> impl Strategy<Value = RawRec> {
    (0u8..4, 0u8..4, 0u8..5, 0u8..3, 0u8..6, any::<i16>()).prop_map(|(a, b, c, y, m, measure)| {
        RawRec {
            a,
            b,
            c,
            y,
            m,
            measure,
        }
    })
}

/// A workload step: insert a fresh record or delete a previous one.
#[derive(Clone, Debug)]
enum Step {
    Insert(RawRec),
    /// Delete the record inserted at `index % live_records` (skipped when
    /// nothing is live).
    Delete(u16),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => raw_rec().prop_map(Step::Insert),
        1 => any::<u16>().prop_map(Step::Delete),
    ]
}

fn schema() -> CubeSchema {
    CubeSchema::new(
        vec![
            HierarchySchema::new("D0", vec!["A".into(), "B".into(), "C".into()]),
            HierarchySchema::new("D1", vec!["Y".into(), "M".into()]),
        ],
        "m",
    )
}

fn paths_of(r: &RawRec) -> [Vec<String>; 2] {
    [
        vec![
            format!("a{}", r.a),
            format!("a{}b{}", r.a, r.b),
            format!("a{}b{}c{}", r.a, r.b, r.c),
        ],
        vec![format!("y{}", r.y), format!("y{}m{}", r.y, r.m)],
    ]
}

fn insert_raw(tree: &mut DcTree, r: &RawRec) -> Record {
    let paths = paths_of(r);
    tree.insert_raw(&paths, r.measure as i64).unwrap();
    let dims: Vec<ValueId> = (0..2)
        .map(|d| {
            tree.schema()
                .dim(DimensionId(d))
                .lookup_path(&paths[d as usize])
                .unwrap()
        })
        .collect();
    Record::new(dims, r.measure as i64)
}

/// Every query MDS over the live schema, at one level per dimension with a
/// deterministic subset selection.
fn queries_for(tree: &DcTree, salt: u64) -> Vec<Mds> {
    let mut out = Vec::new();
    for l0 in 0..=tree.schema().dim(DimensionId(0)).top_level() {
        for l1 in 0..=tree.schema().dim(DimensionId(1)).top_level() {
            let mk = |d: u16, l: u8| {
                let h = tree.schema().dim(DimensionId(d));
                let vals: Vec<ValueId> = h.values_at(l).collect();
                if vals.is_empty() {
                    // Nothing interned on this level yet (empty tree):
                    // fall back to the always-present ALL.
                    return DimSet::singleton(h.all());
                }
                let take = (salt as usize % vals.len()) + 1;
                DimSet::new(l, vals.into_iter().take(take).collect())
            };
            out.push(Mds::new(vec![mk(0, l0), mk(1, l1)]));
        }
    }
    out
}

fn oracle(schema: &CubeSchema, records: &[Record], q: &Mds) -> MeasureSummary {
    records
        .iter()
        .filter(|r| q.contains_record(schema, r).unwrap())
        .map(|r| r.measure)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random insert/delete workloads: the tree answers every query like
    /// the flat oracle and keeps all invariants, under aggressive
    /// capacities that force splits and supernodes.
    #[test]
    fn workload_matches_oracle(
        steps in prop::collection::vec(step(), 1..120),
        salt in 0u64..7,
    ) {
        let config = DcTreeConfig {
            dir_capacity: 3,
            data_capacity: 3,
            ..DcTreeConfig::default()
        };
        let mut tree = DcTree::new(schema(), config);
        let mut live: Vec<Record> = Vec::new();
        for s in &steps {
            match s {
                Step::Insert(r) => {
                    live.push(insert_raw(&mut tree, r));
                }
                Step::Delete(i) => {
                    if !live.is_empty() {
                        let victim = live.swap_remove(*i as usize % live.len());
                        prop_assert!(tree.delete(&victim).unwrap());
                    }
                }
            }
        }
        tree.check_invariants().unwrap();
        prop_assert_eq!(tree.len() as usize, live.len());
        for q in queries_for(&tree, salt) {
            let got = tree.range_summary(&q).unwrap();
            let want = oracle(tree.schema(), &live, &q);
            prop_assert_eq!(got, want, "query {:?}", q);
        }
    }

    /// Persistence round-trips arbitrary trees exactly.
    #[test]
    fn persistence_roundtrip(recs in prop::collection::vec(raw_rec(), 1..80)) {
        let config = DcTreeConfig {
            dir_capacity: 3,
            data_capacity: 4,
            ..DcTreeConfig::default()
        };
        let mut tree = DcTree::new(schema(), config);
        for r in &recs {
            insert_raw(&mut tree, r);
        }
        let bytes = tree.to_bytes();
        let loaded = DcTree::from_bytes(&bytes).unwrap();
        prop_assert_eq!(loaded.to_bytes(), bytes);
        prop_assert_eq!(loaded.total_summary().unwrap(), tree.total_summary().unwrap());
        for q in queries_for(&tree, 3) {
            prop_assert_eq!(
                loaded.range_summary(&q).unwrap(),
                tree.range_summary(&q).unwrap()
            );
        }
    }

    /// The materialization flag changes I/O, never answers.
    #[test]
    fn materialization_is_transparent(recs in prop::collection::vec(raw_rec(), 1..80)) {
        let base = DcTreeConfig { dir_capacity: 3, data_capacity: 3, ..DcTreeConfig::default() };
        let mut with = DcTree::new(schema(), base);
        let mut without = DcTree::new(
            schema(),
            DcTreeConfig { use_materialized_aggregates: false, ..base },
        );
        for r in &recs {
            insert_raw(&mut with, r);
            insert_raw(&mut without, r);
        }
        for q in queries_for(&with, 1) {
            for op in AggregateOp::ALL {
                prop_assert_eq!(
                    with.range_query(&q, op).unwrap(),
                    without.range_query(&q, op).unwrap()
                );
            }
        }
    }

    /// A bottom-up bulk-built tree answers every query exactly like the
    /// record-at-a-time tree and keeps every structural invariant —
    /// including exact materialized directory aggregates (the checker
    /// verifies every entry summary against its subtree).
    #[test]
    fn bulk_load_matches_record_at_a_time(
        recs in prop::collection::vec(raw_rec(), 1..150),
        salt in 0u64..7,
    ) {
        let config = DcTreeConfig { dir_capacity: 3, data_capacity: 3, ..DcTreeConfig::default() };
        let mut incremental = DcTree::new(schema(), config);
        let mut records = Vec::new();
        for r in &recs {
            records.push(insert_raw(&mut incremental, r));
        }
        incremental.check_invariants().unwrap();
        let mut bulk = DcTree::new(incremental.schema().clone(), config);
        let ids = bulk.bulk_load(records.clone()).unwrap();
        prop_assert_eq!(ids.len(), records.len());
        bulk.check_invariants().unwrap();
        prop_assert_eq!(bulk.len(), incremental.len());
        prop_assert_eq!(bulk.total_summary().unwrap(), incremental.total_summary().unwrap());
        for q in queries_for(&incremental, salt) {
            prop_assert_eq!(
                bulk.range_summary(&q).unwrap(),
                incremental.range_summary(&q).unwrap(),
                "query {:?}", q
            );
        }
    }

    /// Splitting the same record stream into a record-at-a-time prefix and
    /// a batched suffix changes nothing semantically: `insert_batch` on a
    /// populated tree keeps invariants and answers.
    #[test]
    fn insert_batch_matches_record_at_a_time(
        recs in prop::collection::vec(raw_rec(), 2..150),
        cut in 1usize..149,
        salt in 0u64..7,
    ) {
        let config = DcTreeConfig { dir_capacity: 3, data_capacity: 3, ..DcTreeConfig::default() };
        let mut incremental = DcTree::new(schema(), config);
        let mut records = Vec::new();
        for r in &recs {
            records.push(insert_raw(&mut incremental, r));
        }
        let cut = cut.min(records.len() - 1).max(1);
        let mut batched = DcTree::new(incremental.schema().clone(), config);
        for r in &records[..cut] {
            batched.insert(r.clone()).unwrap();
        }
        batched.insert_batch(records[cut..].to_vec()).unwrap();
        batched.check_invariants().unwrap();
        prop_assert_eq!(batched.len(), incremental.len());
        prop_assert_eq!(batched.total_summary().unwrap(), incremental.total_summary().unwrap());
        for q in queries_for(&incremental, salt) {
            prop_assert_eq!(
                batched.range_summary(&q).unwrap(),
                incremental.range_summary(&q).unwrap(),
                "query {:?}", q
            );
        }
    }

    /// Inserting the same multiset in any order yields the same answers
    /// (structure may differ; semantics may not).
    #[test]
    fn insertion_order_is_semantically_irrelevant(
        mut recs in prop::collection::vec(raw_rec(), 1..60),
        rotate in 0usize..60,
    ) {
        let config = DcTreeConfig { dir_capacity: 3, data_capacity: 3, ..DcTreeConfig::default() };
        let mut forward = DcTree::new(schema(), config);
        for r in &recs {
            insert_raw(&mut forward, r);
        }
        let k = rotate % recs.len();
        recs.rotate_left(k);
        recs.reverse();
        let mut shuffled = DcTree::new(schema(), config);
        for r in &recs {
            insert_raw(&mut shuffled, r);
        }
        forward.check_invariants().unwrap();
        shuffled.check_invariants().unwrap();
        prop_assert_eq!(forward.total_summary().unwrap(), shuffled.total_summary().unwrap());
        // Queries built against `forward`'s schema may reference values in
        // a different ID order than `shuffled`'s; compare on shared levels
        // via the ALL query plus per-level totals, which are order-free.
        let all = Mds::all(forward.schema());
        prop_assert_eq!(
            forward.range_summary(&all).unwrap(),
            shuffled.range_summary(&Mds::all(shuffled.schema())).unwrap()
        );
    }
}
