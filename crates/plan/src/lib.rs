//! # dc-plan
//!
//! The cost-based query planner. The DC-tree paper argues that a fully
//! dynamic index beats static structures that charge every insert an
//! update cost; the one static structure a serving engine keeps beside its
//! DC-tree is the small roll-up lattice of dc-mview, and this crate decides
//! per query and per shard whether a lookup in those views or a DC-tree
//! descent answers it more cheaply.
//!
//! The dc-bitmap index and the dc-scan table are not plan backends: they
//! stay as the Fig. 12 baselines. No measured workload ever chose them, so
//! the engine no longer maintains them on its write path.
//!
//! The pipeline has three layers:
//!
//! * **Logical** ([`LogicalPlan`]): the filter MDS (dc-ql's resolver has
//!   already pushed the WHERE predicates down into the range, joining
//!   same-dimension predicates through the dimension tables), the requested
//!   aggregates, and an optional group-by level.
//! * **Cost** ([`price`], [`choose`], [`PartitionStats`]): page-read
//!   estimates per backend from statistics captured when a shard publishes
//!   a snapshot — tree height and node count for descent, per-view cell
//!   counts for the lattice, both in the flat-record density of
//!   [`records_per_block`]. All O(1) at plan time.
//! * **Physical** ([`execute`], [`Backend`], [`BackendRefs`]): runs the
//!   chosen operator against the engines that hold the partition's data and
//!   reports the *actual* page reads, so `EXPLAIN` (and the misprediction
//!   counters) can show estimated vs. measured cost side by side.
//!
//! Both backends answer every query a view can answer identically (the
//! differential suite pins this, including under churn); the planner only
//! changes *cost*.

pub mod cost;
pub mod explain;
pub mod logical;
pub mod physical;

pub use cost::{choose, price, records_per_block, CostEstimate, PartitionPlan, PartitionStats};
pub use dc_tree::QueryOutput;
pub use explain::{Explain, ShardExplain};
pub use logical::LogicalPlan;
pub use physical::{execute, Backend, BackendRefs};

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use dc_common::{AggregateOp, DcError, DcResult, DimensionId, MeasureSummary};
    use dc_mview::{rollup_lattice, MaterializedView};
    use dc_tpcd::{generate, TpcdConfig};
    use dc_tree::{DcTree, DcTreeConfig};

    struct Partition {
        data: dc_tpcd::TpcdData,
        tree: DcTree,
        views: Vec<MaterializedView>,
    }

    fn build(lineitems: usize, seed: u64) -> Partition {
        let data = generate(&TpcdConfig::scaled(lineitems, seed));
        let mut tree = DcTree::new(data.schema.clone(), DcTreeConfig::default());
        let mut views: Vec<MaterializedView> = rollup_lattice(&data.schema)
            .into_iter()
            .map(MaterializedView::new)
            .collect();
        for r in &data.records {
            tree.insert(r.clone()).unwrap();
            for v in &mut views {
                v.apply(&data.schema, r).unwrap();
            }
        }
        Partition { data, tree, views }
    }

    fn stats(p: &Partition) -> PartitionStats {
        PartitionStats {
            records: p.tree.len(),
            tree_nodes: p.tree.num_nodes(),
            tree_height: p.tree.height(),
            view_cells: p
                .views
                .iter()
                .map(|v| (v.spec().levels.clone(), v.num_cells()))
                .collect(),
            views_stale: false,
        }
    }

    fn refs(p: &Partition) -> BackendRefs<'_> {
        BackendRefs {
            tree: &p.tree,
            views: Some(&p.views),
        }
    }

    /// [`execute`] with `plan`'s filter prepared the way the partition's
    /// tree prepares its own queries.
    fn run(p: &Partition, plan: &LogicalPlan, backend: Backend) -> DcResult<(QueryOutput, u64)> {
        let prepared = p.tree.prepare_range(&plan.filter)?;
        execute(&p.data.schema, plan, backend, &refs(p), &prepared)
    }

    /// `plan` answered by folding every record the filter holds — an
    /// oracle that shares nothing with either backend.
    fn oracle(p: &Partition, plan: &LogicalPlan) -> QueryOutput {
        let schema = &p.data.schema;
        let held = p
            .data
            .records
            .iter()
            .filter(|r| plan.filter.contains_record(schema, r).unwrap());
        match plan.group_by {
            None => QueryOutput::Scalar(held.map(|r| r.measure).collect()),
            Some((dim, level)) => {
                let h = schema.dim(dim);
                let mut groups = BTreeMap::<_, MeasureSummary>::new();
                for r in held {
                    let key = h.ancestor_at(r.dims[dim.as_usize()], level).unwrap();
                    groups.entry(key).or_default().add(r.measure);
                }
                QueryOutput::Grouped(groups.into_iter().collect())
            }
        }
    }

    #[test]
    fn all_backends_agree_on_random_ranges() {
        use dc_query::{RangeQueryGen, ValuePick};
        let p = build(2000, 7);
        let schema = &p.data.schema;
        for (sel, seed) in [(0.02, 1u64), (0.25, 2)] {
            let mut gen = RangeQueryGen::new(sel, ValuePick::ContiguousRun, seed);
            for _ in 0..20 {
                let q = gen.generate(schema);
                // The range itself restricts every dimension, which no
                // single-dimension view covers; each one-dimension slice of
                // it is a roll-up both backends answer.
                let mut plans = vec![LogicalPlan::scalar(AggregateOp::Sum, q.clone())];
                for (d, set) in q.dims().enumerate() {
                    let mut dims: Vec<dc_mds::DimSet> = schema
                        .dims()
                        .map(|h| dc_mds::DimSet::singleton(h.all()))
                        .collect();
                    dims[d] = set.clone();
                    plans.push(LogicalPlan::scalar(
                        AggregateOp::Sum,
                        dc_mds::Mds::new(dims),
                    ));
                }
                for (i, plan) in plans.iter().enumerate() {
                    let want = oracle(&p, plan);
                    let backends: &[Backend] = if i == 0 {
                        &[Backend::Descend]
                    } else {
                        &Backend::ALL
                    };
                    for &backend in backends {
                        let (out, pages) = run(&p, plan, backend).unwrap();
                        assert_eq!(out, want, "{backend}");
                        assert!(pages > 0, "{backend} must charge I/O");
                    }
                }
                assert!(matches!(
                    run(&p, &plans[0], Backend::Mview),
                    Err(DcError::IncomparableMds(_))
                ));
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
        let (out, pages) = run(&p, &plan, Backend::Mview).unwrap();
        assert_eq!(out, oracle(&p, &plan));
        assert!(pages >= 1);
    }

    #[test]
    fn grouped_execution_agrees_across_backends() {
        let p = build(1500, 13);
        let dim = DimensionId(0);
        let top = p.data.schema.dim(dim).top_level();
        let mut plan = LogicalPlan::scalar(AggregateOp::Sum, dc_mds::Mds::all(&p.data.schema));
        plan.group_by = Some((dim, top - 1));
        let want = oracle(&p, &plan);
        for backend in Backend::ALL {
            let (out, _) = run(&p, &plan, backend).unwrap();
            assert_eq!(out, want, "{backend}");
        }
    }

    #[test]
    fn view_lookups_are_priced_and_charged_at_one_density() {
        let p = build(4000, 43);
        let s = stats(&p);
        let rpb = records_per_block(&p.data.schema);
        // Four dimensions: 4 × 4-byte leaf IDs + an 8-byte measure.
        assert_eq!(rpb, 4096 / 24);
        for d in 0..p.data.schema.num_dims() {
            let dim = DimensionId(d as u16);
            for level in 0..p.data.schema.dim(dim).top_level() {
                let mut plan =
                    LogicalPlan::scalar(AggregateOp::Sum, dc_mds::Mds::all(&p.data.schema));
                plan.group_by = Some((dim, level));
                let est = price(&p.data.schema, &plan, &s)
                    .into_iter()
                    .find(|c| c.backend == Backend::Mview)
                    .expect("the lattice answers every whole-cube roll-up");
                let (_, charged) = run(&p, &plan, Backend::Mview).unwrap();
                assert_eq!(est.pages, charged as f64, "GROUP BY ({d}, {level})");
            }
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
        // Selective point-ish query over two dimensions: no single-dimension
        // view answers it, so descent is the plan.
        let mut dims: Vec<dc_mds::DimSet> = p
            .data
            .schema
            .dims()
            .map(|h| dc_mds::DimSet::singleton(h.all()))
            .collect();
        for (d, set) in dims.iter_mut().enumerate().take(2) {
            let leaf = p.data.schema.dim(DimensionId(d as u16)).values_at(0).next();
            *set = dc_mds::DimSet::singleton(leaf.unwrap());
        }
        let narrow = LogicalPlan::scalar(AggregateOp::Sum, dc_mds::Mds::new(dims));
        let choice = choose(&p.data.schema, &narrow, &s);
        assert_eq!(choice.backend, Backend::Descend, "{:?}", choice.candidates);
        assert_eq!(choice.candidates.len(), 1, "{:?}", choice.candidates);
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
