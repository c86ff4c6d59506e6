//! The logical plan: what the query computes, independent of any engine.

use dc_common::{AggregateOp, DimensionId, Level};
use dc_hierarchy::CubeSchema;
use dc_mds::Mds;
use dc_ql::ParsedStatement;

/// A logical query plan: the range filter (predicates already pushed down
/// into the MDS by dc-ql's resolver), the aggregates to produce, and an
/// optional group-by. This is the planner's input; backend choice is the
/// planner's output.
#[derive(Clone, Debug)]
pub struct LogicalPlan {
    /// Aggregates to evaluate, in output order (at least one).
    pub ops: Vec<AggregateOp>,
    /// The range filter (unconstrained dimensions hold `ALL`).
    pub filter: Mds,
    /// Optional `GROUP BY (dimension, hierarchy level)`.
    pub group_by: Option<(DimensionId, Level)>,
    /// Optional `TOP k` applied to grouped output at render time.
    pub top: Option<usize>,
}

impl LogicalPlan {
    /// A single-aggregate plan over `filter`.
    pub fn scalar(op: AggregateOp, filter: Mds) -> Self {
        LogicalPlan {
            ops: vec![op],
            filter,
            group_by: None,
            top: None,
        }
    }

    /// Lowers a resolved dc-ql statement (predicate pushdown — the WHERE
    /// clauses — already happened inside [`dc_ql::resolve`]'s semi-join).
    pub fn from_statement(stmt: &ParsedStatement) -> Self {
        LogicalPlan {
            ops: stmt.ops.clone(),
            filter: stmt.filter.clone(),
            group_by: stmt.group_by,
            top: stmt.top,
        }
    }

    /// `true` when any aggregate is MIN or MAX — the ones a cache entry
    /// whose extrema a delete degraded cannot serve (affects cache reuse,
    /// not backend correctness — every backend returns full summaries).
    /// `AVG` is sum over count, which such an entry keeps exact.
    pub fn needs_extrema(&self) -> bool {
        self.ops
            .iter()
            .any(|op| matches!(op, AggregateOp::Min | AggregateOp::Max))
    }

    /// Estimated fraction of records the filter selects, assuming uniform
    /// value frequencies and independent dimensions: the product over
    /// constrained dimensions of `|selected| / |values at that level|`.
    pub fn selectivity(&self, schema: &CubeSchema) -> f64 {
        let mut sel = 1.0_f64;
        for (set, h) in self.filter.dims().zip(schema.dims()) {
            if set.level() >= h.top_level() {
                continue; // ALL
            }
            let universe = h.num_values_at(set.level()).max(1) as f64;
            sel *= (set.len() as f64 / universe).clamp(0.0, 1.0);
        }
        sel
    }
}
