//! Image round-trip tests. A tree's image is a shard file: written by
//! [`write_image`] and read back by [`read_image`], it must give the same
//! tree — same schema IDs, same node structure, same query answers — and a
//! corrupt, truncated or arbitrary image must fail with an error, never a
//! panic, or load as a tree that passes its own invariant check.

use dc_common::{AggregateOp, DcError, DcResult, DimensionId, TempDir, ValueId};
use dc_hierarchy::{CubeSchema, HierarchySchema};
use dc_mds::{DimSet, Mds};
use dc_oocore::{read_image, write_image, OocOptions, OocStore};
use dc_storage::BlockConfig;
use dc_tree::node::{Node, NodeId, NodeKind};
use dc_tree::store::{NodeStore, PersistentStore};
use dc_tree::{DcTree, DcTreeConfig};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Small nodes on small pages, so that a few hundred records fill a
/// multi-level tree and a corruption lands in node bytes, not in padding.
fn config(capacity: usize) -> DcTreeConfig {
    DcTreeConfig {
        block: BlockConfig::new(256),
        dir_capacity: capacity,
        data_capacity: capacity,
        ..DcTreeConfig::default()
    }
}

/// The tree's image: the bytes of the shard file [`write_image`] writes.
fn to_bytes(tree: &DcTree) -> Vec<u8> {
    let dir = TempDir::new("image");
    let path = dir.join("tree.dct");
    write_image(tree, &path).unwrap();
    std::fs::read(&path).unwrap()
}

/// Reads image bytes back the way recovery does: laid down as a file and
/// opened through the paged store.
fn from_bytes(bytes: &[u8], config: DcTreeConfig) -> DcResult<DcTree> {
    let dir = TempDir::new("image");
    let path = dir.join("tree.dct");
    std::fs::write(&path, bytes).unwrap();
    read_image(&path, config)
}

fn build_tree(n: usize, seed: u64) -> DcTree {
    let schema = CubeSchema::new(
        vec![
            HierarchySchema::new(
                "Customer",
                vec!["Region".into(), "Nation".into(), "Cust".into()],
            ),
            HierarchySchema::new("Time", vec!["Year".into(), "Month".into()]),
        ],
        "Price",
    );
    let mut tree = DcTree::new(schema, config(4));
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..n {
        let r = rng.gen_range(0..3);
        let nn = rng.gen_range(0..4);
        let c = rng.gen_range(0..6);
        let y = rng.gen_range(1995..1998);
        let m = rng.gen_range(1..13);
        tree.insert_raw(
            &[
                vec![
                    format!("R{r}"),
                    format!("N{r}-{nn}"),
                    format!("C{r}-{nn}-{c}"),
                ],
                vec![format!("{y}"), format!("{y}-{m:02}")],
            ],
            rng.gen_range(0..10_000),
        )
        .unwrap();
    }
    tree
}

fn random_query(tree: &DcTree, rng: &mut StdRng) -> Mds {
    let dims = (0..tree.schema().num_dims())
        .map(|d| {
            let h = tree.schema().dim(DimensionId(d as u16));
            let level = rng.gen_range(0..=h.top_level());
            let values: Vec<ValueId> = h.values_at(level).collect();
            let take = rng.gen_range(1..=values.len().min(3));
            DimSet::new(level, values.choose_multiple(rng, take).copied().collect())
        })
        .collect();
    Mds::new(dims)
}

#[test]
fn roundtrip_preserves_structure_and_answers() {
    let tree = build_tree(300, 1);
    let loaded = from_bytes(&to_bytes(&tree), config(4)).unwrap();

    assert_eq!(loaded.len(), tree.len());
    assert_eq!(loaded.height(), tree.height());
    assert_eq!(loaded.num_nodes(), tree.num_nodes());
    assert_eq!(
        loaded.total_summary().unwrap(),
        tree.total_summary().unwrap()
    );
    assert!(loaded.structure().unwrap() == tree.structure().unwrap());
    loaded.check_invariants().unwrap();

    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..50 {
        let q = random_query(&tree, &mut rng);
        assert_eq!(
            loaded.range_summary(&q).unwrap(),
            tree.range_summary(&q).unwrap()
        );
    }
}

#[test]
fn roundtrip_is_deterministic() {
    let tree = build_tree(150, 3);
    let bytes = to_bytes(&tree);
    let loaded = from_bytes(&bytes, config(4)).unwrap();
    assert!(
        to_bytes(&loaded) == bytes,
        "save → load → save must be a fixpoint"
    );
}

#[test]
fn loaded_tree_remains_fully_dynamic() {
    let tree = build_tree(120, 4);
    let mut loaded = from_bytes(&to_bytes(&tree), config(4)).unwrap();
    // Insert new values including brand-new hierarchy members.
    loaded
        .insert_raw(&[vec!["R9", "N9-0", "C9-0-0"], vec!["2001", "2001-01"]], 42)
        .unwrap();
    assert_eq!(loaded.len(), 121);
    loaded.check_invariants().unwrap();
    let q = Mds::all(loaded.schema());
    assert_eq!(
        loaded.range_query(&q, AggregateOp::Count).unwrap(),
        Some(121.0)
    );
}

#[test]
fn save_and_load_via_file() {
    let tree = build_tree(80, 5);
    let dir = TempDir::new("persistence-test");
    let path = dir.join("tree.dct");
    write_image(&tree, &path).unwrap();
    let loaded = read_image(&path, config(4)).unwrap();
    assert_eq!(
        loaded.total_summary().unwrap(),
        tree.total_summary().unwrap()
    );
}

#[test]
fn bad_magic_is_rejected() {
    let tree = build_tree(10, 6);
    let mut bytes = to_bytes(&tree);
    let mut huge_pages = bytes.clone();
    bytes[0] ^= 0xFF;
    assert!(from_bytes(&bytes, config(4)).is_err());
    // The header's page size is believed only within reason.
    huge_pages[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
    assert!(matches!(
        from_bytes(&huge_pages, config(4)),
        Err(DcError::Corrupt(_))
    ));
}

#[test]
fn truncated_image_is_rejected() {
    let tree = build_tree(50, 7);
    let bytes = to_bytes(&tree);
    for cut in [bytes.len() / 4, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            from_bytes(&bytes[..cut], config(4)).is_err(),
            "truncation at {cut} must be detected"
        );
    }
}

#[test]
fn bit_flips_never_panic() {
    // Corruption may surface as Corrupt or as a failed invariant check —
    // but must never panic.
    let tree = build_tree(40, 8);
    let bytes = to_bytes(&tree);
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..200 {
        let mut corrupted = bytes.clone();
        let pos = rng.gen_range(0..corrupted.len());
        corrupted[pos] ^= 1u8 << rng.gen_range(0u32..8);
        let _ = from_bytes(&corrupted, config(4)); // Ok(valid) or Err — no panic
    }
}

#[test]
fn a_cycle_in_an_image_is_refused() {
    // Point the root's first child's first entry back at the root: a walk
    // that never ends unless the copy stops it.
    let tree = build_tree(200, 10);
    let dir = TempDir::new("image-cycle");
    let path = dir.join("tree.dct");
    write_image(&tree, &path).unwrap();
    let opts = OocOptions {
        block: BlockConfig::new(256),
        frames: 8,
    };
    let mut store = OocStore::open(&path, opts).unwrap();
    store.set_num_dims(tree.schema().num_dims());
    let meta = store.read_meta().unwrap();
    let root = NodeId::from_raw(u32::from_le_bytes(meta[8..12].try_into().unwrap()));
    let first_child = |node: &Node| match &node.kind {
        NodeKind::Dir(entries) => entries[0].child,
        NodeKind::Data(_) => panic!("200 records need three levels"),
    };
    let child = first_child(&store.get(root).unwrap());
    first_child(&store.get(child).unwrap());
    store
        .update(child, |node| {
            if let NodeKind::Dir(entries) = &mut node.kind {
                entries[0].child = root;
            }
            Ok(())
        })
        .unwrap();
    store.sync().unwrap();
    drop(store);
    assert!(matches!(
        read_image(&path, config(4)),
        Err(DcError::Corrupt(_))
    ));
}

// ----------------------------------------------------------------------
// Property tests: arbitrary trees round-trip exactly, and arbitrary or
// mutated bytes never panic the loader.
// ----------------------------------------------------------------------

fn small_tree() -> DcTree {
    let schema = CubeSchema::new(
        vec![
            HierarchySchema::new("D0", vec!["A".into(), "B".into()]),
            HierarchySchema::new("D1", vec!["Y".into(), "M".into()]),
        ],
        "m",
    );
    let mut tree = DcTree::new(schema, config(3));
    for i in 0..40 {
        tree.insert_raw(
            &[
                vec![format!("a{}", i % 3), format!("a{}b{}", i % 3, i % 5)],
                vec![format!("y{}", i % 2), format!("y{}m{}", i % 2, i % 4)],
            ],
            i,
        )
        .unwrap();
    }
    tree
}

/// One raw record as small indices: Customer-like `a/b/c` × Time-like
/// `y/m`, plus a measure.
fn raw_rec() -> impl Strategy<Value = ([u8; 5], i16)> {
    ((0u8..4, 0u8..4, 0u8..5, 0u8..3, 0u8..6), any::<i16>())
        .prop_map(|((a, b, c, y, m), measure)| ([a, b, c, y, m], measure))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Persistence round-trips arbitrary trees exactly.
    #[test]
    fn persistence_roundtrip(recs in prop::collection::vec(raw_rec(), 1..80)) {
        let schema = CubeSchema::new(
            vec![
                HierarchySchema::new("D0", vec!["A".into(), "B".into(), "C".into()]),
                HierarchySchema::new("D1", vec!["Y".into(), "M".into()]),
            ],
            "m",
        );
        let config = DcTreeConfig { data_capacity: 4, ..config(3) };
        let mut tree = DcTree::new(schema, config);
        for ([a, b, c, y, m], measure) in &recs {
            let paths = [
                vec![format!("a{a}"), format!("a{a}b{b}"), format!("a{a}b{b}c{c}")],
                vec![format!("y{y}"), format!("y{y}m{m}")],
            ];
            tree.insert_raw(&paths, i64::from(*measure)).unwrap();
        }
        let bytes = to_bytes(&tree);
        let loaded = from_bytes(&bytes, config).unwrap();
        prop_assert!(to_bytes(&loaded) == bytes);
        prop_assert!(loaded.structure().unwrap() == tree.structure().unwrap());
        prop_assert_eq!(loaded.total_summary().unwrap(), tree.total_summary().unwrap());
        let mut rng = StdRng::seed_from_u64(recs.len() as u64);
        for _ in 0..10 {
            let q = random_query(&tree, &mut rng);
            prop_assert_eq!(
                loaded.range_summary(&q).unwrap(),
                tree.range_summary(&q).unwrap()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes fed to the image loader: never a panic.
    #[test]
    fn from_bytes_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = from_bytes(&bytes, config(3));
    }

    /// A valid image with arbitrary byte-range mutations: never a panic,
    /// and on success the structure passes its own invariant check (which
    /// `read_image` runs internally).
    #[test]
    fn mutated_image_never_panics(
        offset_frac in 0.0f64..1.0,
        len in 1usize..64,
        xor in 1u8..=255,
    ) {
        let mut corrupt = to_bytes(&small_tree());
        let start = ((corrupt.len() - 1) as f64 * offset_frac) as usize;
        let end = (start + len).min(corrupt.len());
        for b in &mut corrupt[start..end] {
            *b ^= xor;
        }
        if let Ok(tree) = from_bytes(&corrupt, config(3)) {
            // Accepted images must be fully coherent.
            tree.check_invariants().unwrap();
        }
    }

    /// Truncations at every length: never a panic.
    #[test]
    fn truncated_image_never_panics(cut_frac in 0.0f64..1.0) {
        let image = to_bytes(&small_tree());
        let cut = ((image.len() - 1) as f64 * cut_frac) as usize;
        let _ = from_bytes(&image[..cut], config(3));
    }
}
