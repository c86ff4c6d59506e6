//! Property-based tests of the DC-tree: random workloads against a
//! brute-force oracle, with the structural invariant checker run after
//! every case.

use std::collections::BTreeMap;

use dc_common::{AggregateOp, DimensionId, MeasureSummary, ValueId};
use dc_hierarchy::{CubeSchema, HierarchySchema, Record};
use dc_mds::{DimSet, Mds};
use dc_tree::node::{DirEntry, Node, TAIL_MEMBERS};
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

/// What the writer does after a snapshot was taken.
#[derive(Clone, Debug)]
enum WriterStep {
    Insert(RawRec),
    /// `n` records on one coordinate in one batch: no hierarchy split
    /// separates them, so the leaf grows into a supernode.
    Duplicates(RawRec, u8),
    Batch(Vec<RawRec>),
    /// Delete the live record at `index % live` — with capacities of 3 this
    /// condenses nodes, frees their slots, and later splits reuse them.
    Delete(u16),
    /// Intern names no record carries (`raw_rec` never draws `a ≥ 4`).
    Intern(u8),
    /// Take one more snapshot of the writer as it is now.
    Snapshot,
    /// Hand the held snapshot at `index % held` to the reader thread, which
    /// checks it once more beside the running writer and drops it there.
    Release(u16),
}

fn writer_step() -> impl Strategy<Value = WriterStep> {
    prop_oneof![
        6 => raw_rec().prop_map(WriterStep::Insert),
        1 => (raw_rec(), 4u8..9).prop_map(|(r, n)| WriterStep::Duplicates(r, n)),
        1 => prop::collection::vec(raw_rec(), 1..12).prop_map(WriterStep::Batch),
        5 => any::<u16>().prop_map(WriterStep::Delete),
        1 => (4u8..8).prop_map(WriterStep::Intern),
        1 => Just(WriterStep::Snapshot),
        1 => any::<u16>().prop_map(WriterStep::Release),
    ]
}

/// Interns `r`'s paths and returns the record, without inserting it.
fn interned(tree: &mut DcTree, r: &RawRec) -> Record {
    Record::new(tree.intern_paths(&paths_of(r)).unwrap(), r.measure as i64)
}

/// A snapshot with everything it must keep answering, frozen at `take`.
struct Snap {
    tree: DcTree,
    frozen: Vec<(usize, DirEntry, Node)>,
    values: Vec<usize>,
    queries: Vec<Mds>,
    answers: Vec<MeasureSummary>,
}

impl Snap {
    fn take(writer: &DcTree, salt: u64) -> Snap {
        let tree = writer.clone();
        let queries = queries_for(&tree, salt);
        Snap {
            frozen: tree.structure().unwrap(),
            values: tree.schema().dims().map(|h| h.num_values()).collect(),
            answers: queries
                .iter()
                .map(|q| tree.range_summary(q).unwrap())
                .collect(),
            queries,
            tree,
        }
    }

    fn verify(&self) {
        assert!(
            self.tree.structure().unwrap() == self.frozen,
            "snapshot moved"
        );
        self.tree.check_invariants().unwrap();
        let values: Vec<usize> = self.tree.schema().dims().map(|h| h.num_values()).collect();
        assert_eq!(values, self.values, "snapshot schema grew");
        for (q, want) in self.queries.iter().zip(&self.answers) {
            assert_eq!(&self.tree.range_summary(q).unwrap(), want, "query {q:?}");
        }
    }
}

fn oracle(schema: &CubeSchema, records: &[Record], q: &Mds) -> MeasureSummary {
    records
        .iter()
        .filter(|r| q.contains_record(schema, r).unwrap())
        .map(|r| r.measure)
        .collect()
}

/// Every read of `q` — the summary, a `group_by` on `(dim, level)` and the
/// selection — against folds over the live records.
fn reads_match_oracle(tree: &DcTree, live: &[Record], q: &Mds, (dim, level): (DimensionId, u8)) {
    let schema = tree.schema();
    let held = || {
        live.iter()
            .filter(|r| q.contains_record(schema, r).unwrap())
    };
    prop_assert_eq!(
        tree.range_summary(q).unwrap(),
        oracle(schema, live, q),
        "query {:?}",
        q
    );
    let h = schema.dim(dim);
    let mut want: BTreeMap<ValueId, MeasureSummary> = BTreeMap::new();
    for r in held() {
        let key = h.ancestor_at(r.dims[dim.as_usize()], level).unwrap();
        want.entry(key).or_default().add(r.measure);
    }
    let got: BTreeMap<_, _> = tree.group_by(dim, level, q).unwrap().into_iter().collect();
    prop_assert_eq!(got, want, "group_by {:?} over {:?}", (dim, level), q);
    let key = |r: &Record| (r.dims.clone(), r.measure);
    let mut got = tree.range_records(q).unwrap();
    let mut want: Vec<Record> = held().cloned().collect();
    got.sort_by_key(key);
    want.sort_by_key(key);
    prop_assert_eq!(got, want, "selection {:?}", q);
}

/// `count_matching(record)` against the number of equal live records.
fn count_matches_oracle(tree: &DcTree, live: &[Record], record: &Record) {
    let want = live.iter().filter(|r| *r == record).count() as u64;
    prop_assert_eq!(tree.count_matching(record).unwrap(), want, "{:?}", record);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random insert/delete workloads: the tree answers every read like
    /// the flat oracle and keeps all invariants, under aggressive
    /// capacities that force splits and supernodes, with and without the
    /// materialized shortcut. After each step one query's reads and the
    /// touched record's count are checked; at the end, every query's and
    /// every live record's.
    #[test]
    fn workload_matches_oracle(
        steps in prop::collection::vec(step(), 1..120),
        salt in 0u64..7,
        group in (0u16..2, 0u8..4),
    ) {
        for materialized in [true, false] {
            let config = DcTreeConfig {
                dir_capacity: 3,
                data_capacity: 3,
                use_materialized_aggregates: materialized,
                ..DcTreeConfig::default()
            };
            let mut tree = DcTree::new(schema(), config);
            let dim = DimensionId(group.0);
            let group = (dim, group.1 % (tree.schema().dim(dim).top_level() + 1));
            let mut live: Vec<Record> = Vec::new();
            for (i, s) in steps.iter().enumerate() {
                let touched = match s {
                    Step::Insert(r) => {
                        live.push(insert_raw(&mut tree, r));
                        live.last().cloned()
                    }
                    Step::Delete(i) => {
                        if live.is_empty() {
                            None
                        } else {
                            let victim = live.swap_remove(*i as usize % live.len());
                            prop_assert!(tree.delete(&victim).unwrap());
                            Some(victim)
                        }
                    }
                };
                if let Some(record) = touched {
                    count_matches_oracle(&tree, &live, &record);
                }
                let queries = queries_for(&tree, salt);
                reads_match_oracle(&tree, &live, &queries[i % queries.len()], group);
            }
            tree.check_invariants().unwrap();
            prop_assert_eq!(tree.len() as usize, live.len());
            for q in queries_for(&tree, salt) {
                reads_match_oracle(&tree, &live, &q, group);
            }
            for record in &live {
                count_matches_oracle(&tree, &live, record);
            }
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
        bulk.bulk_load(records.clone()).unwrap();
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

    /// A clone shares every node (and the schema) with the tree it was
    /// taken from, and every node's member blocks, so this is what keeps a
    /// published snapshot a snapshot: whatever the writer does afterwards —
    /// splits, supernode growth, condensing deletes that free slots, reuse
    /// of those slots, new hierarchy values — no held snapshot's structure,
    /// schema, invariants or answers move, while snapshots are dropped in
    /// arbitrary order and some are still being read on a second thread.
    /// Capacities of 3 churn the structure.
    #[test]
    fn snapshots_are_isolated_from_the_writer(
        initial in prop::collection::vec(raw_rec(), 1..60),
        steps in prop::collection::vec(writer_step(), 1..70),
        salt in 0u64..7,
    ) {
        let config = DcTreeConfig { dir_capacity: 3, data_capacity: 3, ..DcTreeConfig::default() };
        check_snapshot_isolation(config, &initial, &steps, salt);
    }

    /// [`snapshots_are_isolated_from_the_writer`] with one node kind's
    /// capacity past two tails, so its nodes append into, merge and remove
    /// across a body and tail that snapshots share (see also
    /// `snapshots_are_isolated_across_shared_member_blocks`).
    #[test]
    fn snapshots_of_wide_nodes_are_isolated_from_the_writer(
        initial in prop::collection::vec(raw_rec(), 1..60),
        steps in prop::collection::vec(writer_step(), 1..70),
        salt in 0u64..7,
        wide_dirs in any::<bool>(),
    ) {
        let wide = 2 * TAIL_MEMBERS + 8;
        let config = if wide_dirs {
            DcTreeConfig { dir_capacity: wide, data_capacity: 3, ..DcTreeConfig::default() }
        } else {
            DcTreeConfig { dir_capacity: 3, data_capacity: wide, ..DcTreeConfig::default() }
        };
        check_snapshot_isolation(config, &initial, &steps, salt);
    }
}

/// Runs `steps` on a writer of `config` seeded with `initial`, taking,
/// holding, releasing and checking snapshots as the steps say (see
/// `snapshots_are_isolated_from_the_writer`), then checks the writer.
fn check_snapshot_isolation(
    config: DcTreeConfig,
    initial: &[RawRec],
    steps: &[WriterStep],
    salt: u64,
) {
    use std::sync::mpsc::channel;

    let mut writer = DcTree::new(schema(), config);
    let mut live: Vec<Record> = initial.iter().map(|r| interned(&mut writer, r)).collect();
    writer.insert_batch(live.clone()).unwrap();
    let mut held = vec![Snap::take(&writer, salt)];

    std::thread::scope(|scope| {
        let (to_reader, released) = channel::<Snap>();
        let (started, reader_started) = channel::<()>();
        let reader = scope.spawn(move || {
            for snap in released {
                // The writer resumes once it knows this check is under
                // way, so the two overlap.
                started.send(()).unwrap();
                snap.verify();
            }
        });
        for step in steps {
            match step {
                WriterStep::Insert(r) => live.push(insert_raw(&mut writer, r)),
                WriterStep::Duplicates(r, n) => {
                    let record = interned(&mut writer, r);
                    let batch = vec![record; *n as usize];
                    live.extend(batch.iter().cloned());
                    writer.insert_batch(batch).unwrap();
                }
                WriterStep::Batch(rs) => {
                    let batch: Vec<Record> = rs.iter().map(|r| interned(&mut writer, r)).collect();
                    live.extend(batch.iter().cloned());
                    writer.insert_batch(batch).unwrap();
                }
                WriterStep::Delete(i) => {
                    if !live.is_empty() {
                        let victim = live.swap_remove(*i as usize % live.len());
                        assert!(writer.delete(&victim).unwrap());
                    }
                }
                WriterStep::Intern(a) => {
                    let fresh = RawRec {
                        a: *a,
                        b: 0,
                        c: 0,
                        y: 0,
                        m: 0,
                        measure: 0,
                    };
                    interned(&mut writer, &fresh);
                }
                WriterStep::Snapshot => held.push(Snap::take(&writer, salt)),
                WriterStep::Release(i) => {
                    if !held.is_empty() {
                        let snap = held.swap_remove(*i as usize % held.len());
                        to_reader.send(snap).unwrap();
                        reader_started.recv().unwrap();
                    }
                }
            }
            for snap in &held {
                snap.verify();
            }
        }
        drop(to_reader);
        reader
            .join()
            .expect("a released snapshot moved under the reader");
    });

    // Sharing must not cost the writer anything either.
    writer.check_invariants().unwrap();
    assert_eq!(writer.len() as usize, live.len());
    for q in queries_for(&writer, salt) {
        assert_eq!(
            writer.range_summary(&q).unwrap(),
            oracle(writer.schema(), &live, &q),
            "query {:?}",
            q
        );
    }
}

/// The three writes that reach into a shared member block, each on a lone
/// data node after a snapshot: an append into the shared tail, a delete in
/// the body that shifts every record of the still shared tail back one
/// position, and the split of the node. The snapshot keeps its structure and answers; the writer copies
/// exactly the blocks it writes.
#[test]
fn snapshots_are_isolated_across_shared_member_blocks() {
    const RECORD: u64 = std::mem::size_of::<Record>() as u64;
    const T: usize = TAIL_MEMBERS;
    let config = DcTreeConfig {
        data_capacity: 2 * T + 8,
        ..DcTreeConfig::default()
    };
    let rec = |i: u8| RawRec {
        a: i % 4,
        b: (i / 4) % 4,
        c: (i / 16) % 5,
        y: i % 3,
        m: (i / 3) % 6,
        measure: i16::from(i),
    };
    let grown = |n: usize| {
        let mut tree = DcTree::new(schema(), config);
        let live: Vec<Record> = (0..n as u8)
            .map(|i| insert_raw(&mut tree, &rec(i)))
            .collect();
        assert_eq!((tree.height(), tree.num_nodes()), (1, 1));
        (tree, live)
    };
    let payload = |tree: &DcTree| tree.metrics().copied.data_payload;

    // An append: the tail overflowed once into a body of T + 1 records,
    // and holds 4 since.
    let (mut writer, mut live) = grown(T + 5);
    let snap = Snap::take(&writer, 3);
    live.push(insert_raw(&mut writer, &rec((T + 5) as u8)));
    assert_eq!(payload(&writer), 4 * RECORD);
    assert!(writer.metrics().copied.data_header > 0);
    snap.verify();
    assert_eq!(
        writer.range_summary(&Mds::all(writer.schema())).unwrap(),
        live.iter().map(|r| r.measure).collect()
    );

    // A delete in the body copies the body alone: the tail stays shared,
    // its records one position lower.
    let n = 2 * T + 8;
    let (mut writer, live) = grown(n);
    let blocks = |tree: &DcTree| {
        let mut lens = [0; 2];
        tree.for_each_node(|_, _, node| lens = node.records().blocks().map(<[_]>::len))
            .unwrap();
        lens
    };
    let [body, tail] = blocks(&writer);
    assert_eq!([body, tail], [n - n % (T + 1), n % (T + 1)]);
    let snap = Snap::take(&writer, 4);
    assert!(writer.delete(&live[2]).unwrap());
    assert_eq!(payload(&writer), body as u64 * RECORD);
    assert_eq!(blocks(&writer), [body - 1, tail]);
    snap.verify();
    writer.check_invariants().unwrap();
    assert_eq!(writer.len(), n as u64 - 1);

    // One record more than the node holds: the split builds both halves
    // from the shared blocks, which the snapshot keeps.
    let (mut writer, mut live) = grown(n);
    let snap = Snap::take(&writer, 5);
    live.push(insert_raw(&mut writer, &rec(n as u8)));
    assert_eq!(writer.height(), 2, "the node split");
    assert!(payload(&writer) >= n as u64 * RECORD);
    snap.verify();
    writer.check_invariants().unwrap();
    for q in queries_for(&writer, 5) {
        assert_eq!(
            writer.range_summary(&q).unwrap(),
            oracle(writer.schema(), &live, &q)
        );
    }
}
