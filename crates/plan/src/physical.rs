//! Physical execution: binding a chosen backend to the engines that hold
//! the partition's data, and measuring what the run actually cost.

use dc_common::{DcError, DcResult};
use dc_hierarchy::CubeSchema;
use dc_mview::MaterializedView;
use dc_tree::{Arena, DcTree, NodeStore, PreparedRange, QueryOutput};

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
/// Descent evaluates `prepared`: `plan.filter` prepared against a schema
/// this partition's is a prefix of (dc-serve prepares once per query and
/// shares it across shards). A view lookup evaluates the raw MDS.
/// Descent's page count is the one [`DcTree::read_counted`] returns: the
/// blocks this run's descent visited, exact whatever other queries read
/// the same tree at the same time, and the same in every node store.
pub fn execute<S: NodeStore>(
    schema: &CubeSchema,
    plan: &LogicalPlan,
    backend: Backend,
    refs: &BackendRefs<'_, S>,
    prepared: &PreparedRange,
) -> DcResult<(QueryOutput, u64)> {
    match backend {
        Backend::Descend => refs.tree.read_counted(prepared, plan.group_by),
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
