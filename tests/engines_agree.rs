//! Cross-engine integration tests: on identical TPC-D-style workloads the
//! DC-tree, the X-tree (via the MDS→MBR conversion), the WAH bitmap index
//! and the sequential scan must produce *identical* answers — the property
//! that makes the paper's head-to-head timings meaningful.

use dctree::bitmap::BitmapIndex;
use dctree::common::Level;
use dctree::query::{mds_to_mbr, RangeQueryGen, ValuePick};
use dctree::scan::FlatTable;
use dctree::storage::BlockConfig;
use dctree::tpcd::{generate, TpcdConfig, TpcdData};
use dctree::xtree::{XTree, XTreeConfig};
use dctree::{AggregateOp, DcTree, DcTreeConfig, DimensionId, Mds, MeasureSummary};

struct Engines {
    data: dctree::tpcd::TpcdData,
    dc: DcTree,
    x: XTree,
    scan: FlatTable,
}

fn build_engines(lineitems: usize, seed: u64) -> Engines {
    let data = generate(&TpcdConfig::scaled(lineitems, seed));
    let mut dc = DcTree::new(
        data.schema.clone(),
        DcTreeConfig {
            dir_capacity: 8,
            data_capacity: 16,
            ..DcTreeConfig::default()
        },
    );
    let mut x = XTree::new(
        data.schema.num_flat_axes(),
        XTreeConfig {
            dir_capacity: 8,
            data_capacity: 16,
            ..XTreeConfig::default()
        },
    );
    let mut scan = FlatTable::for_schema(BlockConfig::DEFAULT, &data.schema);
    for r in &data.records {
        dc.insert(r.clone()).unwrap();
        x.insert(data.schema.flatten_record(r).unwrap(), r.measure);
        scan.insert(r.clone());
    }
    Engines { data, dc, x, scan }
}

#[test]
fn three_engines_agree_across_selectivities() {
    let e = build_engines(3000, 11);
    e.dc.check_invariants().unwrap();
    e.x.check_invariants().unwrap();
    for (sel, qseed) in [(0.01, 1u64), (0.05, 2), (0.25, 3)] {
        let mut gen = RangeQueryGen::new(sel, ValuePick::ContiguousRun, qseed);
        for _ in 0..40 {
            let q = gen.generate(&e.data.schema);
            let dc = e.dc.range_summary(&q).unwrap();
            let sc = e.scan.range_summary(&e.data.schema, &q).unwrap();
            let xm = e.x.range_summary(&mds_to_mbr(&e.data.schema, &q));
            assert_eq!(dc, sc, "DC-tree vs scan at selectivity {sel}");
            assert_eq!(dc, xm, "DC-tree vs X-tree at selectivity {sel}");
        }
    }
}

/// The two Fig. 12 baselines beside the tree: a WAH bitmap index and a
/// flat table over the same records.
struct Baselines {
    dc: DcTree,
    bitmap: BitmapIndex,
    scan: FlatTable,
}

fn build_baselines(data: &TpcdData) -> Baselines {
    let mut dc = DcTree::new(data.schema.clone(), DcTreeConfig::default());
    let mut bitmap = BitmapIndex::new(&data.schema, BlockConfig::DEFAULT);
    let mut scan = FlatTable::for_schema(BlockConfig::DEFAULT, &data.schema);
    for r in &data.records {
        dc.insert(r.clone()).unwrap();
        bitmap.insert(&data.schema, r).unwrap();
        scan.insert(r.clone());
    }
    Baselines { dc, bitmap, scan }
}

impl Baselines {
    /// Asserts the bitmap index and the scan answer `filter` as the tree
    /// does: its summary, and its groups at `(dim, level)`.
    fn agree(&self, data: &TpcdData, filter: &Mds, group_by: Option<(DimensionId, Level)>) {
        let schema = &data.schema;
        match group_by {
            None => {
                let want = self.dc.range_summary(filter).unwrap();
                assert_eq!(self.bitmap.range_summary(schema, filter).unwrap(), want);
                assert_eq!(self.scan.range_summary(schema, filter).unwrap(), want);
            }
            Some((dim, level)) => {
                let want = self.dc.group_by(dim, level, filter).unwrap();
                let at = format!("GROUP BY ({}, {level})", dim.0);
                let bitmap = self.bitmap.group_by(schema, dim, level, filter).unwrap();
                assert_eq!(bitmap, want, "bitmap {at}");
                let scan = self.scan.group_by(schema, dim, level, filter).unwrap();
                assert_eq!(scan, want, "scan {at}");
            }
        }
    }
}

/// The planner differential's selectivity × group-by-level matrix, with
/// the bitmap index and the scan checked against the tree: scalar probes at
/// three selectivities, and every level of every dimension grouped, under a
/// selective filter and over the whole cube.
#[test]
fn bitmap_and_scan_agree_with_the_tree_across_selectivity_and_level_matrix() {
    let data = generate(&TpcdConfig::scaled(2500, 31));
    let b = build_baselines(&data);
    for (sel, qseed) in [(0.02, 1u64), (0.1, 2), (0.5, 3)] {
        let mut gen = RangeQueryGen::new(sel, ValuePick::Scattered, qseed);
        for _ in 0..8 {
            b.agree(&data, &gen.generate(&data.schema), None);
        }
        for d in 0..data.schema.num_dims() {
            let dim = DimensionId(d as u16);
            for level in 0..data.schema.dim(dim).top_level() {
                for filter in [gen.generate(&data.schema), Mds::all(&data.schema)] {
                    b.agree(&data, &filter, Some((dim, level)));
                }
            }
        }
    }
}

/// Contiguous ranges at 2 % and 25 % selectivity, and the whole cube
/// grouped by its coarsest customer level, on both baselines.
#[test]
fn bitmap_and_scan_agree_with_the_tree_on_contiguous_ranges_and_rollups() {
    let data = generate(&TpcdConfig::scaled(2000, 7));
    let b = build_baselines(&data);
    for (sel, seed) in [(0.02, 1u64), (0.25, 2)] {
        let mut gen = RangeQueryGen::new(sel, ValuePick::ContiguousRun, seed);
        for _ in 0..20 {
            b.agree(&data, &gen.generate(&data.schema), None);
        }
    }
    let dim = DimensionId(0);
    let top = data.schema.dim(dim).top_level();
    b.agree(&data, &Mds::all(&data.schema), Some((dim, top - 1)));
}

#[test]
fn scattered_queries_agree_between_dc_and_scan() {
    // Scattered value sets cannot be converted losslessly to MBRs, but the
    // DC-tree and the scan evaluate them natively.
    let e = build_engines(2000, 13);
    let mut gen = RangeQueryGen::new(0.10, ValuePick::Scattered, 5);
    for _ in 0..40 {
        let q = gen.generate(&e.data.schema);
        assert_eq!(
            e.dc.range_summary(&q).unwrap(),
            e.scan.range_summary(&e.data.schema, &q).unwrap()
        );
    }
}

#[test]
fn totals_agree() {
    let e = build_engines(1500, 17);
    let want: MeasureSummary = e.data.records.iter().map(|r| r.measure).collect();
    assert_eq!(e.dc.total_summary().unwrap(), want);
    let all = Mds::all(&e.data.schema);
    assert_eq!(e.scan.range_summary(&e.data.schema, &all).unwrap(), want);
    assert_eq!(e.x.range_summary(&dctree::xtree::Mbr::universe(13)), want);
}

#[test]
fn dc_tree_reads_fewer_pages_than_scan_on_selective_queries() {
    // Paper-realistic capacities (the default config) and enough records
    // that the indexes have structure to exploit; at toy scale a scan's
    // denser record packing wins trivially.
    let data = generate(&TpcdConfig::scaled(12_000, 19));
    let mut dc = DcTree::new(data.schema.clone(), DcTreeConfig::default());
    let mut scan = FlatTable::for_schema(BlockConfig::DEFAULT, &data.schema);
    for r in &data.records {
        dc.insert(r.clone()).unwrap();
        scan.insert(r.clone());
    }
    let mut gen = RangeQueryGen::new(0.05, ValuePick::ContiguousRun, 7);
    let mut dc_reads = 0u64;
    let mut scan_reads = 0u64;
    for _ in 0..20 {
        let q = gen.generate(&data.schema);
        dc.reset_io();
        scan.reset_io();
        let a = dc.range_summary(&q).unwrap();
        let b = scan.range_summary(&data.schema, &q).unwrap();
        assert_eq!(a, b);
        dc_reads += dc.io_stats().reads;
        scan_reads += scan.io_stats().reads;
    }
    assert!(
        dc_reads < scan_reads,
        "DC-tree must beat the scan in page reads ({dc_reads} vs {scan_reads})"
    );
}

#[test]
fn aggregate_operators_agree_everywhere() {
    let e = build_engines(1000, 23);
    let mut gen = RangeQueryGen::new(0.25, ValuePick::ContiguousRun, 9);
    for _ in 0..15 {
        let q = gen.generate(&e.data.schema);
        let want = e.scan.range_summary(&e.data.schema, &q).unwrap();
        for op in AggregateOp::ALL {
            assert_eq!(e.dc.range_query(&q, op).unwrap(), want.eval(op), "{op}");
            assert_eq!(
                e.x.range_summary(&mds_to_mbr(&e.data.schema, &q)).eval(op),
                want.eval(op),
                "{op}"
            );
        }
    }
}

#[test]
fn dc_tree_persistence_survives_tpcd_load() {
    let e = build_engines(1200, 29);
    let loaded = DcTree::from_bytes(&e.dc.to_bytes()).unwrap();
    let mut gen = RangeQueryGen::new(0.05, ValuePick::ContiguousRun, 10);
    for _ in 0..20 {
        let q = gen.generate(&e.data.schema);
        assert_eq!(
            loaded.range_summary(&q).unwrap(),
            e.dc.range_summary(&q).unwrap()
        );
    }
}

#[test]
fn deletion_keeps_engines_in_agreement() {
    let mut e = build_engines(800, 31);
    // Delete every third record from the DC-tree and from the oracle set.
    let mut remaining = Vec::new();
    for (i, r) in e.data.records.iter().enumerate() {
        if i % 3 == 0 {
            assert!(e.dc.delete(r).unwrap());
        } else {
            remaining.push(r.clone());
        }
    }
    e.dc.check_invariants().unwrap();
    let mut gen = RangeQueryGen::new(0.25, ValuePick::ContiguousRun, 12);
    for _ in 0..20 {
        let q = gen.generate(&e.data.schema);
        let want: MeasureSummary = remaining
            .iter()
            .filter(|r| q.contains_record(&e.data.schema, r).unwrap())
            .map(|r| r.measure)
            .collect();
        assert_eq!(e.dc.range_summary(&q).unwrap(), want);
    }
}

#[test]
fn group_by_agrees_with_scan_groups() {
    let e = build_engines(1500, 37);
    let mut gen = RangeQueryGen::new(0.25, ValuePick::ContiguousRun, 14);
    for _ in 0..10 {
        let filter = gen.generate(&e.data.schema);
        for d in 0..e.data.schema.num_dims() {
            let dim = DimensionId(d as u16);
            let h = e.data.schema.dim(dim);
            for level in [0, h.top_level() - 1] {
                let groups = e.dc.group_by(dim, level, &filter).unwrap();
                // Scan oracle.
                let mut expected: std::collections::BTreeMap<dctree::ValueId, MeasureSummary> =
                    Default::default();
                for r in e.scan.iter() {
                    if filter.contains_record(&e.data.schema, r).unwrap() {
                        let key = h.ancestor_at(r.dims[d], level).unwrap();
                        expected.entry(key).or_default().add(r.measure);
                    }
                }
                let got: std::collections::BTreeMap<_, _> = groups.into_iter().collect();
                assert_eq!(got, expected);
            }
        }
    }
}

#[test]
fn bulk_loaded_tree_agrees_with_all_engines() {
    let e = build_engines(1500, 41);
    let mut bulk = DcTree::new(
        e.data.schema.clone(),
        DcTreeConfig {
            dir_capacity: 8,
            data_capacity: 16,
            ..DcTreeConfig::default()
        },
    );
    bulk.bulk_load(e.data.records.clone()).unwrap();
    bulk.check_invariants().unwrap();
    let mut gen = RangeQueryGen::new(0.05, ValuePick::ContiguousRun, 15);
    for _ in 0..30 {
        let q = gen.generate(&e.data.schema);
        assert_eq!(
            bulk.range_summary(&q).unwrap(),
            e.dc.range_summary(&q).unwrap()
        );
    }
}

/// More dimensions than a record keeps inline (`Dims::INLINE`), so every
/// record here carries a spilled coordinate list — through the
/// batched insert path with splits on every level, deletes, the flat image
/// and both page codecs, with the sequential scan as the oracle.
#[test]
fn a_cube_wider_than_the_inline_record_agrees_with_the_scan() {
    use dctree::common::TempDir;
    use dctree::hierarchy::Dims;
    use dctree::oocore::{OocOptions, OocStore};
    use dctree::{CubeSchema, HierarchySchema, Record};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const DIMS: usize = Dims::INLINE + 2;
    let schema = CubeSchema::new(
        (0..DIMS)
            .map(|d| HierarchySchema::new(format!("D{d}"), vec!["Group".into(), "Leaf".into()]))
            .collect(),
        "m",
    );
    let config = DcTreeConfig {
        dir_capacity: 6,
        data_capacity: 8,
        ..DcTreeConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(77);
    let mut dc = DcTree::new(schema, config);
    let batches: Vec<Vec<Record>> = (0..12)
        .map(|_| {
            (0..100)
                .map(|_| {
                    let paths: Vec<Vec<String>> = (0..DIMS)
                        .map(|d| {
                            let g = rng.gen_range(0..3 + d);
                            let l = rng.gen_range(0..4);
                            vec![format!("g{g}"), format!("g{g}l{l}")]
                        })
                        .collect();
                    let dims = dc.intern_paths(&paths).unwrap();
                    assert_eq!(dims.len(), DIMS);
                    Record::new(dims, rng.gen_range(-500..500))
                })
                .collect()
        })
        .collect();
    let schema = dc.schema().clone();

    let dir = TempDir::new("wide-cube");
    let mut paged: Vec<DcTree<OocStore>> = [false, true]
        .into_iter()
        .map(|compress| {
            let opts = OocOptions {
                block: config.block,
                frames: 24,
                compress,
            };
            let store = OocStore::create(dir.join(format!("wide-{compress}.dct")), opts).unwrap();
            DcTree::create_in(store, schema.clone(), config).unwrap()
        })
        .collect();
    let mut scan = FlatTable::for_schema(BlockConfig::DEFAULT, &schema);
    for batch in &batches {
        dc.insert_batch(batch.clone()).unwrap();
        for tree in &mut paged {
            tree.insert_batch(batch.clone()).unwrap();
        }
        for r in batch {
            scan.insert(r.clone());
        }
    }
    assert!(dc.metrics().splits > 50 && dc.height() >= 3);
    for (i, r) in batches.iter().flatten().enumerate() {
        if i % 3 == 0 {
            assert!(dc.delete(r).unwrap());
            for tree in &mut paged {
                assert!(tree.delete(r).unwrap());
            }
            assert!(scan.delete(r));
        }
    }
    dc.check_invariants().unwrap();
    assert_eq!(dc.len() as usize, scan.len());

    let image = dc.to_bytes();
    let reloaded = DcTree::from_bytes(&image).unwrap();
    assert_eq!(reloaded.to_bytes(), image);
    assert!(reloaded.structure().unwrap() == dc.structure().unwrap());
    for tree in &mut paged {
        tree.check_invariants().unwrap();
        assert!(tree.structure().unwrap() == dc.structure().unwrap());
        tree.flush().unwrap();
    }

    let mut gen = RangeQueryGen::new(0.25, ValuePick::Scattered, 5);
    for _ in 0..40 {
        let q = gen.generate(&schema);
        let want = scan.range_summary(&schema, &q).unwrap();
        assert_eq!(dc.range_summary(&q).unwrap(), want);
        assert_eq!(reloaded.range_summary(&q).unwrap(), want);
        for tree in &paged {
            assert_eq!(tree.range_summary(&q).unwrap(), want);
        }
    }
}
