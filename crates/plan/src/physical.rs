//! Physical execution: binding a chosen backend to the engines that hold
//! the partition's data, and measuring what the run actually cost.

use std::collections::BTreeMap;

use dc_common::{DcError, DcResult, MeasureSummary, ValueId};
use dc_hierarchy::CubeSchema;
use dc_mview::MaterializedView;
use dc_tree::{Arena, DcTree, NodeStore, PreparedRange};

use crate::cost::records_per_block;
use crate::logical::LogicalPlan;

/// The execution engines a plan can bind to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Backend {
    /// DC-tree descent (always available).
    Descend,
    /// dc-mview lattice lookup.
    Mview,
}

impl Backend {
    /// Stable lowercase name (STATS keys, EXPLAIN output).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Descend => "descend",
            Backend::Mview => "mview",
        }
    }

    /// Every backend, in preference order on cost ties.
    pub const ALL: [Backend; 2] = [Backend::Descend, Backend::Mview];
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The result of one (partition-level or merged) query execution.
#[derive(Clone, PartialEq, Debug)]
pub enum QueryOutput {
    /// An ungrouped aggregate.
    Scalar(MeasureSummary),
    /// Non-empty groups, sorted by value id.
    Grouped(Vec<(ValueId, MeasureSummary)>),
}

impl QueryOutput {
    /// The empty output matching `grouped`ness.
    pub fn empty(grouped: bool) -> Self {
        if grouped {
            QueryOutput::Grouped(Vec::new())
        } else {
            QueryOutput::Scalar(MeasureSummary::empty())
        }
    }

    /// Merges another partition's output into this one (scatter-gather).
    pub fn merge(&mut self, other: &QueryOutput) {
        match (self, other) {
            (QueryOutput::Scalar(a), QueryOutput::Scalar(b)) => a.merge(b),
            (QueryOutput::Grouped(a), QueryOutput::Grouped(b)) => {
                let mut map: BTreeMap<ValueId, MeasureSummary> = a.drain(..).collect();
                for (v, s) in b {
                    map.entry(*v).or_default().merge(s);
                }
                *a = map.into_iter().collect();
            }
            _ => unreachable!("scalar and grouped outputs never mix in one plan"),
        }
    }
}

/// Borrowed handles to one partition's engines. The tree is always there,
/// in whichever store holds its nodes; the roll-up views only when the
/// partition maintains them.
pub struct BackendRefs<'a, S: NodeStore = Arena> {
    /// The authoritative DC-tree.
    pub tree: &'a DcTree<S>,
    /// Materialized roll-up views, if maintained (callers must not pass
    /// stale views — staleness is tracked upstream).
    pub views: Option<&'a [MaterializedView]>,
}

/// Runs `plan` on `backend` against one partition and returns the output
/// plus the **actual** logical page reads the run charged.
///
/// Descent takes an optional pre-prepared range (shared across shards by
/// dc-serve); a view lookup evaluates the raw MDS. Descent's page count is
/// the tree's `IoTracker` delta — concurrent queries on the same snapshot
/// can inflate one another's deltas, which is the same accounting the serve
/// layer already accepts for its cost gauges.
pub fn execute<S: NodeStore>(
    schema: &CubeSchema,
    plan: &LogicalPlan,
    backend: Backend,
    refs: &BackendRefs<'_, S>,
    prepared: Option<&PreparedRange>,
) -> DcResult<(QueryOutput, u64)> {
    match backend {
        Backend::Descend => {
            let before = refs.tree.io_stats().reads;
            let out = match plan.group_by {
                None => match prepared {
                    Some(p) => QueryOutput::Scalar(refs.tree.range_summary_prepared(p)?),
                    None => QueryOutput::Scalar(refs.tree.range_summary(&plan.filter)?),
                },
                Some((dim, level)) => QueryOutput::Grouped(match prepared {
                    Some(p) => refs.tree.group_by_prepared(dim, level, p)?,
                    None => refs.tree.group_by(dim, level, &plan.filter)?,
                }),
            };
            Ok((out, refs.tree.io_stats().reads - before))
        }
        Backend::Mview => {
            let views = refs.views.ok_or_else(no_backend)?;
            let query_levels = plan.filter.levels();
            let best = match plan.group_by {
                None => views
                    .iter()
                    .filter(|v| v.spec().answers(&query_levels))
                    .min_by_key(|v| v.num_cells()),
                Some((dim, level)) => views
                    .iter()
                    .filter(|v| v.answers_group_by(&query_levels, dim, level))
                    .min_by_key(|v| v.num_cells()),
            };
            let view = best.ok_or_else(|| {
                DcError::IncomparableMds("no materialized view answers this query".into())
            })?;
            let out = match plan.group_by {
                None => QueryOutput::Scalar(view.answer(schema, &plan.filter)?),
                Some((dim, level)) => {
                    QueryOutput::Grouped(view.group_by(schema, dim, level, &plan.filter)?)
                }
            };
            // Views have no block store of their own: a lookup sweeps the
            // occupied cells once, priced like records in the flat layout.
            let pages = view.num_cells().div_ceil(records_per_block(schema)).max(1);
            Ok((out, pages as u64))
        }
    }
}

fn no_backend() -> DcError {
    DcError::Corrupt("plan chose a backend this partition does not maintain".into())
}
