//! The correctness oracle: expected response lines computed by sequential
//! scan ([`dc_scan::FlatTable`]) over the same records, sharing nothing
//! with the DC-tree, the planner, the cache or `dc_ql::resolve`.
//!
//! A generated [`Query`] carries its predicates as names per hierarchy
//! level; the oracle turns them into a range MDS itself (every value with
//! that name on the level, several predicates on one dimension joined by
//! ancestor membership — the semantics the dc-ql reference documents) and
//! renders the scan's summary exactly as the text protocol does.

use std::collections::HashMap;

use dc_common::{AggregateOp, DimensionId, Level, MeasureSummary, ValueId};
use dc_hierarchy::{CubeSchema, Record};
use dc_mds::{DimSet, Mds};
use dc_scan::FlatTable;
use dc_storage::BlockConfig;

use crate::gen::{Cond, Query, RawRecord};

pub struct Oracle {
    schema: CubeSchema,
    table: FlatTable,
    /// `(dim, level)` → name → every value carrying it. Rebuilt lazily
    /// after inserts, which may intern new values.
    names: HashMap<(usize, Level), HashMap<String, Vec<ValueId>>>,
}

impl Oracle {
    /// An oracle over `records`, which must be in `schema`'s id space.
    pub fn new(schema: CubeSchema, records: impl IntoIterator<Item = Record>) -> Oracle {
        let mut table = FlatTable::for_schema(BlockConfig::DEFAULT, &schema);
        for r in records {
            table.insert(r);
        }
        Oracle {
            schema,
            table,
            names: HashMap::new(),
        }
    }

    /// Adds one raw record (a writer's `INSERT`).
    pub fn insert(&mut self, (paths, measure): &RawRecord) {
        let record = self
            .schema
            .intern_record(paths, *measure)
            .expect("generated paths match the schema");
        self.table.insert(record);
        self.names.clear();
    }

    pub fn len(&self) -> usize {
        self.table.len()
    }

    fn values_named(&mut self, dim: usize, level: Level, name: &str) -> Vec<ValueId> {
        let schema = &self.schema;
        let index = self.names.entry((dim, level)).or_insert_with(|| {
            let h = schema.dim(DimensionId(dim as u16));
            let mut index: HashMap<String, Vec<ValueId>> = HashMap::new();
            for v in h.values_at(level) {
                let name = h.name(v).expect("interned value has a name");
                index.entry(name.to_string()).or_default().push(v);
            }
            index
        });
        index.get(name).cloned().unwrap_or_default()
    }

    /// The range MDS `conds` select: unconstrained dimensions are `ALL`; a
    /// dimension's predicates are joined at the finest constrained level.
    fn filter(&mut self, conds: &[Cond]) -> Mds {
        let dims = (0..self.schema.num_dims())
            .map(|dim| {
                let mut sets: Vec<(Level, Vec<ValueId>)> = conds
                    .iter()
                    .filter(|c| c.dim == dim)
                    .map(|c| {
                        let mut values = Vec::new();
                        for name in &c.names {
                            values.extend(self.values_named(dim, c.level, name));
                        }
                        (c.level, values)
                    })
                    .collect();
                let h = self.schema.dim(DimensionId(dim as u16));
                if sets.is_empty() {
                    return DimSet::singleton(h.all());
                }
                sets.sort_by_key(|(level, _)| *level);
                let (finest, mut candidates) = sets.remove(0);
                for (level, admitted) in &sets {
                    candidates.retain(|v| {
                        let anc = h.ancestor_at(*v, *level).expect("coarser level exists");
                        admitted.contains(&anc)
                    });
                }
                DimSet::new(finest, candidates)
            })
            .collect();
        Mds::new(dims)
    }

    /// The response line a correct server gives `q` over the oracle's
    /// current records. Grouped answers come back in [`Expected::Groups`]
    /// form because row order depends on the server's value ids.
    pub fn expected(&mut self, q: &Query) -> Expected {
        let filter = self.filter(&q.conds);
        match q.group_by {
            None => {
                let summary = self
                    .table
                    .range_summary(&self.schema, &filter)
                    .expect("oracle MDS has the schema's width");
                Expected::Line(render_scalar(&q.ops, &summary))
            }
            Some((dim, level)) => {
                let groups = self
                    .table
                    .group_by(&self.schema, DimensionId(dim as u16), level, &filter)
                    .expect("oracle MDS has the schema's width");
                let h = self.schema.dim(DimensionId(dim as u16));
                let rank = q.ops[0];
                let mut rows: Vec<(f64, String)> = groups
                    .iter()
                    .map(|(v, s)| {
                        let name = h.name(*v).expect("group key is interned");
                        (
                            s.eval(rank).unwrap_or(f64::MIN),
                            format!("{name}={}", render_ops(&q.ops, s)),
                        )
                    })
                    .collect();
                rows.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
                Expected::Groups { rows, top: q.top }
            }
        }
    }
}

/// What a correct response looks like.
#[derive(Clone, Debug)]
pub enum Expected {
    /// Exactly this line.
    Line(String),
    /// `OK row,row,…` holding these rows in any order — or, under `TOP k`,
    /// `k` of them whose ranking values are the `k` largest (ties at the
    /// cut may fall either way). `rows` is sorted by ranking value,
    /// largest first.
    Groups {
        rows: Vec<(f64, String)>,
        top: Option<usize>,
    },
}

impl Expected {
    pub fn matches(&self, response: &str) -> bool {
        match self {
            Expected::Line(line) => response == line,
            Expected::Groups { rows, top } => {
                let Some(body) = response.strip_prefix("OK ") else {
                    return response == "OK" && rows.is_empty();
                };
                let mut got: Vec<&str> = if body.is_empty() {
                    Vec::new()
                } else {
                    body.split(',').collect()
                };
                let keep = top.map_or(rows.len(), |k| k.min(rows.len()));
                if got.len() != keep {
                    return false;
                }
                if keep == rows.len() {
                    let mut want: Vec<&str> = rows.iter().map(|(_, r)| r.as_str()).collect();
                    want.sort_unstable();
                    got.sort_unstable();
                    return got == want;
                }
                // TOP k: every returned row is a real group, no row twice,
                // and the ranking values are exactly the k largest.
                let cut = rows[keep - 1].0;
                let mut pool: Vec<&(f64, String)> =
                    rows.iter().filter(|(v, _)| *v >= cut).collect();
                let mut values = Vec::with_capacity(keep);
                for row in got {
                    let Some(at) = pool.iter().position(|(_, r)| r == row) else {
                        return false;
                    };
                    values.push(pool.swap_remove(at).0);
                }
                values.sort_by(|a, b| b.total_cmp(a));
                values
                    .iter()
                    .zip(rows.iter())
                    .all(|(got, (want, _))| got == want)
            }
        }
    }
}

/// `12.34` or `NULL`, as the text protocol prints a value.
pub fn render_value(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.2}"),
        None => "NULL".into(),
    }
}

/// The values of every SELECTed aggregate, pipe-joined in list order.
pub fn render_ops(ops: &[AggregateOp], summary: &MeasureSummary) -> String {
    ops.iter()
        .map(|&op| render_value(summary.eval(op)))
        .collect::<Vec<_>>()
        .join("|")
}

/// `OK 12.00` for one aggregate, `OK sum=12.00 count=3.00` for several.
pub fn render_scalar(ops: &[AggregateOp], summary: &MeasureSummary) -> String {
    if let [op] = ops {
        return format!("OK {}", render_value(summary.eval(*op)));
    }
    let parts: Vec<String> = ops
        .iter()
        .map(|&op| {
            format!(
                "{}={}",
                op.to_string().to_ascii_lowercase(),
                render_value(summary.eval(op))
            )
        })
        .collect();
    format!("OK {}", parts.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn groups(top: Option<usize>) -> Expected {
        Expected::Groups {
            rows: vec![
                (9.0, "a=9.00".into()),
                (5.0, "b=5.00".into()),
                (5.0, "c=5.00".into()),
                (1.0, "d=1.00".into()),
            ],
            top,
        }
    }

    #[test]
    fn grouped_rows_match_in_any_order() {
        assert!(groups(None).matches("OK d=1.00,a=9.00,c=5.00,b=5.00"));
        assert!(!groups(None).matches("OK a=9.00,c=5.00,b=5.00"));
        assert!(!groups(None).matches("OK a=9.00,c=5.00,b=5.00,d=2.00"));
    }

    #[test]
    fn top_k_accepts_either_side_of_a_tie_but_nothing_else() {
        assert!(groups(Some(2)).matches("OK a=9.00,b=5.00"));
        assert!(groups(Some(2)).matches("OK a=9.00,c=5.00"));
        assert!(!groups(Some(2)).matches("OK b=5.00,c=5.00"));
        assert!(!groups(Some(2)).matches("OK a=9.00,d=1.00"));
        assert!(!groups(Some(2)).matches("OK a=9.00,a=9.00"));
        assert!(groups(Some(9)).matches("OK a=9.00,b=5.00,c=5.00,d=1.00"));
    }

    #[test]
    fn scalar_lines_render_like_the_protocol() {
        let s: MeasureSummary = [3i64, 4, 5].into_iter().collect();
        assert_eq!(render_scalar(&[AggregateOp::Sum], &s), "OK 12.00");
        assert_eq!(
            render_scalar(&[AggregateOp::Sum, AggregateOp::Avg], &s),
            "OK sum=12.00 avg=4.00"
        );
        assert_eq!(
            render_scalar(&[AggregateOp::Min], &MeasureSummary::empty()),
            "OK NULL"
        );
    }
}
