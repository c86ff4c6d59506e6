//! # dc-plan
//!
//! The cost-based query planner that turns this repository's collection of
//! baselines into one engine. The DC-tree paper evaluates its index against
//! a sequential scan and static alternatives; the surrounding crates grew
//! all of them — DC-tree descent, dc-bitmap WAH algebra, dc-mview lattice
//! lookups, dc-scan — and this crate is the component that *chooses*
//! between them per query.
//!
//! The pipeline has three layers:
//!
//! * **Logical** ([`LogicalPlan`]): the filter MDS (dc-ql's resolver has
//!   already pushed the WHERE predicates down into the range, joining
//!   same-dimension predicates through the dimension tables), the requested
//!   aggregates, and an optional group-by level.
//! * **Cost** ([`price`], [`choose`], [`PartitionStats`]): page-read
//!   estimates per backend from statistics captured when a shard publishes
//!   a snapshot — tree height and node count for descent, compressed bitmap
//!   bytes for the set algebra, per-view cell counts for the lattice, block
//!   counts for the scan. All O(1) at plan time.
//! * **Physical** ([`execute`], [`Backend`], [`BackendRefs`]): runs the
//!   chosen operator against the engines that hold the partition's data and
//!   reports the *actual* page reads, so `EXPLAIN` (and the misprediction
//!   counters) can show estimated vs. measured cost side by side.
//!
//! Every backend answers every query identically (the differential suite
//! pins this, including under churn); the planner only changes *cost*.

pub mod cost;
pub mod explain;
pub mod logical;
pub mod physical;

pub use cost::{
    choose, cold_factor, price, CostEstimate, PartitionPlan, PartitionStats, COLD_FETCH_PENALTY,
};
pub use explain::{Explain, ShardExplain};
pub use logical::LogicalPlan;
pub use physical::{execute, Backend, BackendRefs, QueryOutput};

#[cfg(test)]
mod tests {
    use super::*;
    use dc_bitmap::BitmapIndex;
    use dc_common::{AggregateOp, DimensionId};
    use dc_mview::{rollup_lattice, MaterializedView};
    use dc_scan::FlatTable;
    use dc_storage::BlockConfig;
    use dc_tpcd::{generate, TpcdConfig};
    use dc_tree::{DcTree, DcTreeConfig};

    struct Partition {
        data: dc_tpcd::TpcdData,
        tree: DcTree,
        bitmap: BitmapIndex,
        views: Vec<MaterializedView>,
        table: FlatTable,
    }

    fn build(lineitems: usize, seed: u64) -> Partition {
        let data = generate(&TpcdConfig::scaled(lineitems, seed));
        let mut tree = DcTree::new(data.schema.clone(), DcTreeConfig::default());
        let mut bitmap = BitmapIndex::new(&data.schema, BlockConfig::DEFAULT);
        let mut views: Vec<MaterializedView> = rollup_lattice(&data.schema)
            .into_iter()
            .map(MaterializedView::new)
            .collect();
        let mut table = FlatTable::for_schema(BlockConfig::DEFAULT, &data.schema);
        for r in &data.records {
            tree.insert(r.clone()).unwrap();
            bitmap.insert(&data.schema, r).unwrap();
            for v in &mut views {
                v.apply(&data.schema, r).unwrap();
            }
            table.insert(r.clone());
        }
        Partition {
            data,
            tree,
            bitmap,
            views,
            table,
        }
    }

    fn stats(p: &Partition) -> PartitionStats {
        PartitionStats {
            records: p.tree.len(),
            tree_nodes: p.tree.num_nodes(),
            tree_height: p.tree.height(),
            records_per_block: p.table.records_per_block(),
            bitmap_bytes: p.bitmap.bitmap_bytes(),
            has_bitmap: true,
            has_table: true,
            view_cells: p
                .views
                .iter()
                .map(|v| (v.spec().levels.clone(), v.num_cells()))
                .collect(),
            views_stale: false,
            ..PartitionStats::default()
        }
    }

    fn refs(p: &Partition) -> BackendRefs<'_> {
        BackendRefs {
            tree: &p.tree,
            bitmap: Some(&p.bitmap),
            views: Some(&p.views),
            table: Some(&p.table),
        }
    }

    #[test]
    fn all_backends_agree_on_random_ranges() {
        use dc_query::{RangeQueryGen, ValuePick};
        let p = build(2000, 7);
        for (sel, seed) in [(0.02, 1u64), (0.25, 2)] {
            let mut gen = RangeQueryGen::new(sel, ValuePick::ContiguousRun, seed);
            for _ in 0..20 {
                let q = gen.generate(&p.data.schema);
                let plan = LogicalPlan::scalar(AggregateOp::Sum, q);
                let want = p.table.range_summary(&p.data.schema, &plan.filter).unwrap();
                for backend in [Backend::Descend, Backend::Bitmap, Backend::Scan] {
                    let (out, pages) =
                        execute(&p.data.schema, &plan, backend, &refs(&p), None).unwrap();
                    assert_eq!(out, QueryOutput::Scalar(want), "{backend}");
                    assert!(pages > 0, "{backend} must charge I/O");
                }
            }
        }
    }

    #[test]
    fn mview_answers_rollups_identically() {
        let p = build(1500, 11);
        // A single-dimension roll-up is in the lattice.
        let h = p.data.schema.dim(DimensionId(0));
        let region = h.values_at(h.top_level() - 1).next().unwrap();
        let mut dims: Vec<dc_mds::DimSet> = p
            .data
            .schema
            .dims()
            .map(|h| dc_mds::DimSet::singleton(h.all()))
            .collect();
        dims[0] = dc_mds::DimSet::singleton(region);
        let plan = LogicalPlan::scalar(AggregateOp::Sum, dc_mds::Mds::new(dims));
        let want = p.table.range_summary(&p.data.schema, &plan.filter).unwrap();
        let (out, pages) = execute(&p.data.schema, &plan, Backend::Mview, &refs(&p), None).unwrap();
        assert_eq!(out, QueryOutput::Scalar(want));
        assert!(pages >= 1);
    }

    #[test]
    fn grouped_execution_agrees_across_backends() {
        let p = build(1500, 13);
        let dim = DimensionId(0);
        let top = p.data.schema.dim(dim).top_level();
        let mut plan = LogicalPlan::scalar(AggregateOp::Sum, dc_mds::Mds::all(&p.data.schema));
        plan.group_by = Some((dim, top - 1));
        let (want, _) = execute(&p.data.schema, &plan, Backend::Scan, &refs(&p), None).unwrap();
        for backend in [Backend::Descend, Backend::Bitmap, Backend::Mview] {
            let (out, _) = execute(&p.data.schema, &plan, backend, &refs(&p), None).unwrap();
            assert_eq!(out, want, "{backend}");
        }
    }

    #[test]
    fn cost_model_prefers_mview_for_coarse_rollups_and_descend_when_selective() {
        let p = build(4000, 17);
        let s = stats(&p);
        // Coarse roll-up: group by region over everything → tiny lattice view.
        let dim = DimensionId(0);
        let top = p.data.schema.dim(dim).top_level();
        let mut rollup = LogicalPlan::scalar(AggregateOp::Sum, dc_mds::Mds::all(&p.data.schema));
        rollup.group_by = Some((dim, top - 1));
        let choice = choose(&p.data.schema, &rollup, &s);
        assert_eq!(choice.backend, Backend::Mview, "{:?}", choice.candidates);
        // Selective point-ish query: descent beats a full scan.
        let h = p.data.schema.dim(dim);
        let leaf = h.values_at(0).next().unwrap();
        let mut dims: Vec<dc_mds::DimSet> = p
            .data
            .schema
            .dims()
            .map(|h| dc_mds::DimSet::singleton(h.all()))
            .collect();
        dims[0] = dc_mds::DimSet::singleton(leaf);
        let narrow = LogicalPlan::scalar(AggregateOp::Sum, dc_mds::Mds::new(dims));
        let choice = choose(&p.data.schema, &narrow, &s);
        let descend = choice
            .candidates
            .iter()
            .find(|c| c.backend == Backend::Descend)
            .unwrap();
        let scan = choice
            .candidates
            .iter()
            .find(|c| c.backend == Backend::Scan)
            .unwrap();
        assert!(descend.pages < scan.pages, "{:?}", choice.candidates);
    }

    #[test]
    fn stale_views_are_never_chosen() {
        let p = build(1000, 19);
        let mut s = stats(&p);
        s.views_stale = true;
        let dim = DimensionId(0);
        let top = p.data.schema.dim(dim).top_level();
        let mut rollup = LogicalPlan::scalar(AggregateOp::Sum, dc_mds::Mds::all(&p.data.schema));
        rollup.group_by = Some((dim, top - 1));
        let priced = price(&p.data.schema, &rollup, &s);
        assert!(priced.iter().all(|c| c.backend != Backend::Mview));
    }

    #[test]
    fn disk_residency_inflates_descend_pricing_by_observed_miss_rate() {
        let p = build(1500, 23);
        let ram = stats(&p);
        let plan = LogicalPlan::scalar(AggregateOp::Sum, dc_mds::Mds::all(&p.data.schema));
        let descend_pages = |s: &PartitionStats| {
            price(&p.data.schema, &plan, s)
                .iter()
                .find(|c| c.backend == Backend::Descend)
                .unwrap()
                .pages
        };
        let base = descend_pages(&ram);

        // A fully-warm pool (miss rate 0) prices like RAM residency.
        let mut warm = ram.clone();
        warm.disk_resident = true;
        warm.pool_miss_rate = 0.0;
        assert_eq!(descend_pages(&warm), base);

        // A cold pool pays the full penalty; a half-warm one half of it.
        let mut cold = warm.clone();
        cold.pool_miss_rate = 1.0;
        assert!((descend_pages(&cold) - base * COLD_FETCH_PENALTY).abs() < 1e-9);
        let mut half = warm;
        half.pool_miss_rate = 0.5;
        assert!(descend_pages(&half) > base && descend_pages(&half) < descend_pages(&cold));

        // Disk residency can flip the choice toward an aux engine: with a
        // cold pool, a scan of a table it *also* holds in RAM... is not the
        // scenario dc-serve builds (disk mode maintains no aux engines), but
        // the model must stay monotone: pricier descent never *gains* rank.
        let ram_rank = price(&p.data.schema, &plan, &ram)
            .iter()
            .position(|c| c.backend == Backend::Descend)
            .unwrap();
        let cold_rank = price(&p.data.schema, &plan, &cold)
            .iter()
            .position(|c| c.backend == Backend::Descend)
            .unwrap();
        assert!(cold_rank >= ram_rank);
    }

    #[test]
    fn merge_combines_partition_outputs() {
        let mut a = QueryOutput::Scalar(dc_common::MeasureSummary::empty());
        let mut one = dc_common::MeasureSummary::empty();
        one.add(5);
        a.merge(&QueryOutput::Scalar(one));
        match a {
            QueryOutput::Scalar(s) => assert_eq!(s.count, 1),
            _ => unreachable!(),
        }
        let mut g = QueryOutput::empty(true);
        let v = dc_common::ValueId::new(0, 3);
        let mut s1 = dc_common::MeasureSummary::empty();
        s1.add(2);
        g.merge(&QueryOutput::Grouped(vec![(v, s1)]));
        g.merge(&QueryOutput::Grouped(vec![(v, s1)]));
        match g {
            QueryOutput::Grouped(groups) => {
                assert_eq!(groups.len(), 1);
                assert_eq!(groups[0].1.count, 2);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn explain_rolls_up_shard_fragments() {
        let e = Explain::from_shards(vec![
            ShardExplain {
                shard: 0,
                backend: Backend::Mview,
                est_pages: 2.0,
                actual_pages: Some(1),
            },
            ShardExplain {
                shard: 1,
                backend: Backend::Mview,
                est_pages: 2.0,
                actual_pages: Some(2),
            },
            ShardExplain {
                shard: 2,
                backend: Backend::Descend,
                est_pages: 9.0,
                actual_pages: None,
            },
        ]);
        assert_eq!(e.backend, Backend::Mview);
        assert_eq!(e.actual_pages, 3);
        let line = e.to_string();
        assert!(line.contains("backend=mview"), "{line}");
        assert!(line.contains("2:skipped"), "{line}");
    }
}
