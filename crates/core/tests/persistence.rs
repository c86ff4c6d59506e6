//! Persistence round-trip tests: a saved and reloaded tree must be
//! byte-identical in behaviour — same schema IDs, same node structure, same
//! query answers — and corrupt images must fail gracefully.

use dc_common::{AggregateOp, DimensionId, ValueId};
use dc_hierarchy::{CubeSchema, HierarchySchema};
use dc_mds::{DimSet, Mds};
use dc_tree::{DcTree, DcTreeConfig};
use rand::prelude::*;
use rand::rngs::StdRng;

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
    let config = DcTreeConfig {
        dir_capacity: 4,
        data_capacity: 4,
        ..DcTreeConfig::default()
    };
    let mut tree = DcTree::new(schema, config);
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
    let bytes = tree.to_bytes();
    let loaded = DcTree::from_bytes(&bytes).unwrap();

    assert_eq!(loaded.len(), tree.len());
    assert_eq!(loaded.height(), tree.height());
    assert_eq!(loaded.num_nodes(), tree.num_nodes());
    assert_eq!(
        loaded.total_summary().unwrap(),
        tree.total_summary().unwrap()
    );
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
    let bytes = tree.to_bytes();
    let loaded = DcTree::from_bytes(&bytes).unwrap();
    assert_eq!(
        loaded.to_bytes(),
        bytes,
        "save → load → save must be a fixpoint"
    );
}

#[test]
fn loaded_tree_remains_fully_dynamic() {
    let tree = build_tree(120, 4);
    let mut loaded = DcTree::from_bytes(&tree.to_bytes()).unwrap();
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
    let dir = dc_common::TempDir::new("persistence-test");
    let path = dir.join("tree.dct");
    tree.save_to(&path).unwrap();
    let loaded = DcTree::load_from(&path).unwrap();
    assert_eq!(
        loaded.total_summary().unwrap(),
        tree.total_summary().unwrap()
    );
}

#[test]
fn bad_magic_is_rejected() {
    let tree = build_tree(10, 6);
    let mut bytes = tree.to_bytes();
    bytes[0] ^= 0xFF;
    assert!(DcTree::from_bytes(&bytes).is_err());
}

#[test]
fn truncated_image_is_rejected() {
    let tree = build_tree(50, 7);
    let bytes = tree.to_bytes();
    for cut in [bytes.len() / 4, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            DcTree::from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} must be detected"
        );
    }
}

#[test]
fn bit_flips_never_panic() {
    // Corruption may surface as Corrupt or as a failed invariant check —
    // but must never panic.
    let tree = build_tree(40, 8);
    let bytes = tree.to_bytes();
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..200 {
        let mut corrupted = bytes.clone();
        let pos = rng.gen_range(0..corrupted.len());
        corrupted[pos] ^= 1u8 << rng.gen_range(0u32..8);
        let _ = DcTree::from_bytes(&corrupted); // Ok(valid) or Err — no panic
    }
}
