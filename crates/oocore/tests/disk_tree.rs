//! Differential tests: one `DcTree`, whatever the store. Over disk pages it
//! must build the very tree, node for node, that it builds in the arena,
//! answer identically, survive close/reopen cycles, exercise the node cache
//! for real, and turn a damaged page chain into `DcError::Corrupt` rather
//! than a panic or an unbounded walk.

use std::path::Path;

use dc_common::{AggregateOp, DcError, DimensionId, MeasureSummary, TempDir, ValueId};
use dc_hierarchy::{CubeSchema, HierarchySchema, Record};
use dc_mds::{DimSet, Mds};
use dc_oocore::{OocDcTree, OocOptions, OocStore};
use dc_storage::BlockConfig;
use dc_tree::node::NodeId;
use dc_tree::{DcTree, DcTreeConfig, NodeStore, PersistentStore};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

type DiskTree = DcTree<OocStore>;

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

/// Small capacities: a few hundred records already give a deep tree with
/// splits on every level and supernodes.
fn config(capacity: usize) -> DcTreeConfig {
    DcTreeConfig {
        dir_capacity: capacity,
        data_capacity: capacity,
        ..DcTreeConfig::default()
    }
}

fn opts(config: &DcTreeConfig, frames: usize) -> OocOptions {
    OocOptions {
        block: config.block,
        frames,
    }
}

fn create(path: &Path, config: DcTreeConfig, frames: usize) -> DiskTree {
    let store = OocStore::create(path, opts(&config, frames)).unwrap();
    DcTree::create_in(store, schema(), config).unwrap()
}

fn open(path: &Path, config: DcTreeConfig, frames: usize) -> DiskTree {
    let store = OocStore::open(path, opts(&config, frames)).unwrap();
    DcTree::open_in(store, config).unwrap()
}

/// `[region, nation, cust, type, part, year, month]` as the three paths.
fn paths_of(i: [u8; 7]) -> [Vec<String>; 3] {
    let [region, nation, cust, ptype, part, year, month] = i;
    let year = 1995 + u32::from(year);
    [
        vec![
            format!("R{region}"),
            format!("R{region}-N{nation}"),
            format!("R{region}-N{nation}-C{cust}"),
        ],
        vec![format!("T{ptype}"), format!("T{ptype}-P{part}")],
        vec![format!("{year}"), format!("{year}-{:02}", month + 1)],
    ]
}

fn random_paths(rng: &mut StdRng) -> [Vec<String>; 3] {
    paths_of([4u8, 5, 8, 6, 10, 4, 12].map(|n| rng.gen_range(0..n)))
}

fn random_query(schema: &CubeSchema, rng: &mut StdRng) -> Mds {
    let dims = (0..schema.num_dims())
        .map(|d| {
            let h = schema.dim(DimensionId(d as u16));
            let level = rng.gen_range(0..=h.top_level());
            let values: Vec<ValueId> = h.values_at(level).collect();
            if values.is_empty() {
                // Nothing interned on this level yet: the always-present ALL.
                return DimSet::singleton(h.all());
            }
            let take = rng.gen_range(1..=values.len().min(4));
            DimSet::new(level, values.choose_multiple(rng, take).copied().collect())
        })
        .collect();
    Mds::new(dims)
}

#[test]
fn disk_tree_matches_in_memory_tree() {
    let dir = TempDir::new("disk-differential");
    let mut mem = DcTree::new(schema(), config(4));
    let mut disk = create(&dir.join("tree.dct"), config(4), 16);

    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..400 {
        let paths = random_paths(&mut rng);
        let measure = rng.gen_range(-100..1000);
        mem.insert_raw(&paths, measure).unwrap();
        disk.insert_raw(&paths, measure).unwrap();
    }
    assert_eq!(disk.len(), mem.len());
    assert_eq!(disk.total_summary().unwrap(), mem.total_summary().unwrap());
    assert_eq!(disk.height(), mem.height());
    assert_eq!(disk.num_nodes(), mem.num_nodes());
    disk.check_invariants().unwrap();
    assert_eq!(disk.structure().unwrap(), mem.structure().unwrap());

    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..80 {
        let q = random_query(mem.schema(), &mut rng);
        assert_eq!(
            disk.range_summary(&q).unwrap(),
            mem.range_summary(&q).unwrap(),
            "query {q:?}"
        );
        for op in AggregateOp::ALL {
            assert_eq!(
                disk.range_query(&q, op).unwrap(),
                mem.range_query(&q, op).unwrap()
            );
        }
    }
}

#[test]
fn disk_tree_survives_reopen() {
    let dir = TempDir::new("disk-reopen");
    let path = dir.join("tree.dct");
    let mut rng = StdRng::seed_from_u64(3);
    let mut expected = MeasureSummary::empty();
    {
        let mut disk = create(&path, config(4), 16);
        for _ in 0..200 {
            let paths = random_paths(&mut rng);
            let measure = rng.gen_range(0..1000);
            disk.insert_raw(&paths, measure).unwrap();
            expected.add(measure);
        }
        disk.flush().unwrap();
    }
    let mut disk = open(&path, config(4), 16);
    assert_eq!(disk.len(), 200);
    disk.check_invariants().unwrap();
    assert_eq!(disk.total_summary().unwrap(), expected);
    // Still fully dynamic after reopen (including schema growth).
    disk.insert_raw(
        &[
            vec!["R9", "R9-N9", "R9-N9-C9"],
            vec!["T9", "T9-P9"],
            vec!["2001", "2001-01"],
        ],
        123,
    )
    .unwrap();
    disk.flush().unwrap();
    drop(disk);
    let disk = open(&path, config(4), 16);
    assert_eq!(disk.len(), 201);
    disk.check_invariants().unwrap();
    drop(disk);
    // A file of 4 KiB pages does not open as one of 512-byte pages.
    let wrong = OocOptions {
        block: BlockConfig::new(512),
        ..opts(&config(4), 16)
    };
    assert!(OocDcTree::open(&path, config(4), wrong).is_err());
}

#[test]
fn disk_tree_deletes_like_memory_tree() {
    let dir = TempDir::new("disk-deletes");
    let mut mem = DcTree::new(schema(), config(4));
    let mut disk = create(&dir.join("tree.dct"), config(4), 16);

    let mut rng = StdRng::seed_from_u64(5);
    let mut records: Vec<Record> = Vec::new();
    for _ in 0..200 {
        let paths = random_paths(&mut rng);
        let measure = rng.gen_range(0..500);
        mem.insert_raw(&paths, measure).unwrap();
        disk.insert_raw(&paths, measure).unwrap();
        let dims: Vec<ValueId> = (0..3)
            .map(|d| {
                mem.schema()
                    .dim(DimensionId(d as u16))
                    .lookup_path(&paths[d])
                    .unwrap()
            })
            .collect();
        records.push(Record::new(dims, measure));
    }
    for _ in 0..120 {
        let idx = rng.gen_range(0..records.len());
        let victim = records.swap_remove(idx);
        assert_eq!(
            disk.delete(&victim).unwrap(),
            mem.delete(&victim).unwrap(),
            "delete outcome must agree"
        );
    }
    assert_eq!(disk.len(), mem.len());
    mem.check_invariants().unwrap();
    disk.check_invariants().unwrap();
    assert_eq!(disk.structure().unwrap(), mem.structure().unwrap());
    let mut rng = StdRng::seed_from_u64(6);
    for _ in 0..40 {
        let q = random_query(mem.schema(), &mut rng);
        assert_eq!(
            disk.range_summary(&q).unwrap(),
            mem.range_summary(&q).unwrap()
        );
    }
}

#[test]
fn buffer_pool_pressure_still_answers_correctly() {
    // A node cache of 1, 2 or 4 nodes forces constant eviction and reload;
    // at 1 and 2 it gives a node up between the steps of one insertion.
    for frames in [1, 2, 4] {
        let dir = TempDir::new("disk-pressure");
        let mut mem = DcTree::new(schema(), config(4));
        let mut disk = create(&dir.join("tree.dct"), config(4), frames);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..300 {
            let paths = random_paths(&mut rng);
            let m = rng.gen_range(0..100);
            mem.insert_raw(&paths, m).unwrap();
            disk.insert_raw(&paths, m).unwrap();
            assert!(disk.store().pool_stats().resident <= frames as u64);
        }
        let stats = disk.store().pool_stats();
        assert!(
            stats.evictions > 0,
            "{frames} frames must thrash: {stats:?}"
        );
        assert!(stats.writebacks > 0, "dirty nodes must be written back");
        disk.check_invariants().unwrap();
        assert_eq!(disk.structure().unwrap(), mem.structure().unwrap());
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..30 {
            let q = random_query(mem.schema(), &mut rng);
            assert_eq!(
                disk.range_summary(&q).unwrap(),
                mem.range_summary(&q).unwrap()
            );
        }
    }
}

#[test]
fn opening_garbage_fails_cleanly() {
    let dir = TempDir::new("disk-garbage");
    let path = dir.join("tree.dct");
    std::fs::write(&path, vec![0u8; 8192]).unwrap();
    let config = DcTreeConfig::default();
    assert!(OocDcTree::open(&path, config, opts(&config, 8)).is_err());
}

// ----------------------------------------------------------------------
// Damaged page chains. Pages are `[next: u64][len: u32][payload]`; page 1
// heads the metadata chain and page 2 is the first node allocated, the
// root.
// ----------------------------------------------------------------------

const PAGE: usize = 512;

fn small_pages() -> OocOptions {
    OocOptions {
        block: BlockConfig::new(PAGE),
        frames: 8,
    }
}

/// Writes a small flushed tree to `path` (pages 1 and 2 are then the
/// metadata head and the root) and returns the file's page count.
fn write_small_tree(path: &Path) -> u64 {
    let tree = OocDcTree::create(path, schema(), config(4), small_pages()).unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..40 {
        tree.write().insert_raw(&random_paths(&mut rng), 1).unwrap();
    }
    tree.flush().unwrap();
    tree.file_bytes() / PAGE as u64
}

/// The chain header `(next, len)` of `page` in the file at `path`.
fn header_of(path: &Path, page: u64) -> (u64, u32) {
    let bytes = std::fs::read(path).unwrap();
    let at = page as usize * PAGE;
    (
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()),
        u32::from_le_bytes(bytes[at + 8..at + 12].try_into().unwrap()),
    )
}

/// Overwrites the chain header of `page` in the file at `path`.
fn patch_header(path: &Path, page: u64, (next, len): (u64, u32)) {
    let mut bytes = std::fs::read(path).unwrap();
    let at = page as usize * PAGE;
    bytes[at..at + 8].copy_from_slice(&next.to_le_bytes());
    bytes[at + 8..at + 12].copy_from_slice(&len.to_le_bytes());
    std::fs::write(path, bytes).unwrap();
}

fn assert_corrupt<T: std::fmt::Debug>(result: Result<T, DcError>) {
    match result {
        Err(DcError::Corrupt(_)) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// Reads node 2 straight from the store at `path`.
fn get_node_2(path: &Path) -> Result<(), DcError> {
    let mut store = OocStore::open(path, small_pages())?;
    store.set_num_dims(3);
    store.get(NodeId::from_raw(2)).map(|_| ())
}

/// A `next` link pointing back into its own chain ends the walk after at
/// most one step per page of the file — with `Corrupt`, not after copying
/// 2²² payloads (≈ 17 GB of 4 KiB pages) into memory.
#[test]
fn a_cyclic_chain_is_corrupt_not_an_endless_walk() {
    let dir = TempDir::new("disk-cycle");
    let path = dir.join("tree.dct");
    let pages = write_small_tree(&path);
    assert!(
        pages < 1_000,
        "the walks below are bounded by this: {pages}"
    );
    let (meta, node) = (header_of(&path, 1), header_of(&path, 2));

    // Metadata chain 1 → 2 → 1 → …: the tree does not open.
    patch_header(&path, 1, (2, meta.1));
    patch_header(&path, 2, (1, node.1));
    assert_corrupt(OocDcTree::open(&path, config(4), small_pages()));

    // Node chain 2 → 2 → …: the store opens, reading the node does not,
    // nor does rewriting or freeing it follow the cycle.
    patch_header(&path, 1, meta);
    patch_header(&path, 2, (2, node.1));
    let mut store = OocStore::open(&path, small_pages()).unwrap();
    store.set_num_dims(3);
    assert_corrupt(store.get(NodeId::from_raw(2)));
    assert_corrupt(store.update(NodeId::from_raw(2), |_| Ok(())));
    assert_corrupt(store.free(NodeId::from_raw(2)));
    // Each of the three walks gave up after one step per page of the file.
    let touched = store.pool_stats();
    assert!(touched.page_reads <= 3 * pages, "{touched:?}");
    drop(store);

    // Undamaged again, the file opens.
    patch_header(&path, 2, node);
    let tree = OocDcTree::open(&path, config(4), small_pages()).unwrap();
    tree.read().check_invariants().unwrap();
}

/// A page cannot carry more payload than fits behind its header.
#[test]
fn an_oversized_payload_length_is_corrupt() {
    let dir = TempDir::new("disk-len");
    let path = dir.join("tree.dct");
    write_small_tree(&path);
    let (meta, node) = (header_of(&path, 1), header_of(&path, 2));
    for len in [(PAGE - 12 + 1) as u32, u32::MAX] {
        patch_header(&path, 1, (meta.0, len));
        assert_corrupt(OocDcTree::open(&path, config(4), small_pages()));
        patch_header(&path, 1, meta);
        patch_header(&path, 2, (node.0, len));
        assert_corrupt(get_node_2(&path));
        patch_header(&path, 2, node);
    }
    get_node_2(&path).unwrap();
}

// ----------------------------------------------------------------------
// Property test
// ----------------------------------------------------------------------

/// A workload step: insert a fresh record or delete a previous one.
#[derive(Clone, Debug)]
enum Step {
    Insert([u8; 7], i16),
    /// Delete the record inserted at `index % live_records` (skipped when
    /// nothing is live).
    Delete(u16),
}

fn step() -> impl Strategy<Value = Step> {
    let coords = (0u8..4, 0u8..4, 0u8..5, 0u8..3, 0u8..4, 0u8..3, 0u8..6)
        .prop_map(|(a, b, c, d, e, f, g)| [a, b, c, d, e, f, g]);
    prop_oneof![
        3 => (coords, any::<i16>()).prop_map(|(c, m)| Step::Insert(c, m)),
        1 => any::<u16>().prop_map(Step::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One algorithm, one tree, whatever the store: the same interned
    /// stream — inserts batched, deletes interleaved — builds the same tree
    /// node for node in the arena and on disk pages, under node-cache
    /// pressure — and, at 1, 2 and 4 frames, with the
    /// store writing decoded nodes back between the steps of a split, a
    /// supernode growth and a condensing delete.
    #[test]
    fn disk_tree_matches_memory_tree(
        steps in prop::collection::vec(step(), 1..60),
        frames in prop::sample::select(vec![1usize, 2, 4, 9, 23]),
        batch in 1usize..6,
    ) {
        let dir = TempDir::new("disk-proptest");
        let mut mem = DcTree::new(schema(), config(3));
        let mut disk = create(&dir.join("tree.dct"), config(3), frames);
        let mut live: Vec<Record> = Vec::new();
        let mut pending: Vec<Record> = Vec::new();
        // `None` is the end of the stream: whatever is pending goes in.
        for s in steps.iter().map(Some).chain([None]) {
            match s {
                Some(Step::Insert(coords, measure)) => {
                    let paths = paths_of(*coords);
                    let dims = mem.intern_paths(&paths).unwrap();
                    prop_assert_eq!(&disk.intern_paths(&paths).unwrap(), &dims);
                    pending.push(Record::new(dims, i64::from(*measure)));
                }
                Some(Step::Delete(i)) if !live.is_empty() => {
                    let victim = live.swap_remove(*i as usize % live.len());
                    prop_assert!(mem.delete(&victim).unwrap());
                    prop_assert!(disk.delete(&victim).unwrap());
                }
                Some(Step::Delete(_)) | None => {}
            }
            if pending.len() >= batch || s.is_none() {
                live.extend(pending.iter().cloned());
                mem.insert_batch(pending.clone()).unwrap();
                disk.insert_batch(pending.clone()).unwrap();
                pending.clear();
            }
        }

        let mut rng = StdRng::seed_from_u64(2);
        let queries: Vec<Mds> = (0..6).map(|_| random_query(mem.schema(), &mut rng)).collect();
        disk.check_invariants().unwrap();
        prop_assert_eq!(disk.structure().unwrap(), mem.structure().unwrap());
        prop_assert_eq!(disk.len(), mem.len());
        prop_assert_eq!((disk.num_nodes(), disk.height()), (mem.num_nodes(), mem.height()));
        for q in &queries {
            prop_assert_eq!(
                disk.range_summary(q).unwrap(),
                mem.range_summary(q).unwrap()
            );
        }
    }
}
