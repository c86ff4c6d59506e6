//! # dc-mview
//!
//! Materialized group-by views over the data cube — the *static* warehouse
//! acceleration the DC-tree paper positions itself against (§1–§2):
//!
//! > "it is a common approach to materialize the results of many of the
//! > relevant queries in order to speed-up query processing. This approach,
//! > however, fails in a dynamic environment where the queries are not
//! > known in advance … The proposed approach is static, i.e. it is useful
//! > only for the initial load of the cube but does not support incremental
//! > changes."
//!
//! A [`ViewSpec`] fixes one hierarchy level per dimension; the
//! [`MaterializedView`] stores one [`MeasureSummary`] per occupied cell of
//! that sub-cube (Harinarayan-style aggregate lattice node). A query is
//! answerable from a view iff the view is at least as fine as the query in
//! every dimension; the [`ViewSet`] picks the cheapest (fewest-cells)
//! answerable view, falling back to `None` when the lattice cannot serve
//! the query — which is where a caller needs a dynamic index instead.
//!
//! The crate deliberately exhibits the static trade-offs the paper
//! describes: inserts must touch *every* view ([`ViewSet::insert`]),
//! deletes invalidate min/max and force a rebuild
//! ([`ViewSet::needs_rebuild`]), and unanticipated query shapes miss the
//! lattice entirely.

use std::collections::HashMap;

use dc_common::{DcError, DcResult, DimensionId, Level, MeasureSummary, ValueId};
use dc_hierarchy::{CubeSchema, Dims, Record};
use dc_mds::Mds;

/// One lattice node: the hierarchy level to pre-aggregate at, per dimension
/// (`top_level` = `ALL`, i.e. the dimension is rolled all the way up).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ViewSpec {
    /// One level per cube dimension.
    pub levels: Vec<Level>,
}

impl ViewSpec {
    /// A spec from per-dimension levels.
    pub fn new(levels: Vec<Level>) -> Self {
        ViewSpec { levels }
    }

    /// Validates the spec against a schema.
    pub fn validate(&self, schema: &CubeSchema) -> DcResult<()> {
        if self.levels.len() != schema.num_dims() {
            return Err(DcError::DimensionMismatch {
                expected: schema.num_dims(),
                got: self.levels.len(),
            });
        }
        for (h, &level) in schema.dims().zip(&self.levels) {
            if level > h.top_level() {
                return Err(DcError::BadLevel {
                    dim: h.dimension(),
                    id: h.all(),
                    requested: level,
                });
            }
        }
        Ok(())
    }

    /// `true` iff this view can answer a query whose per-dimension relevant
    /// levels are `query_levels`: the view must be at least as fine
    /// (`view ≤ query` per dimension).
    pub fn answers(&self, query_levels: &[Level]) -> bool {
        self.levels.len() == query_levels.len()
            && self.levels.iter().zip(query_levels).all(|(v, q)| v <= q)
    }
}

/// One materialized group-by view: summaries per occupied cell.
#[derive(Clone, Debug)]
pub struct MaterializedView {
    spec: ViewSpec,
    /// Keyed by one value per dimension — a record's coordinates lifted to
    /// the spec's levels, held inline like the record's own ([`Dims`]), so
    /// copying a view allocates the table and nothing per cell.
    cells: HashMap<Dims, MeasureSummary>,
}

impl MaterializedView {
    /// An empty view for `spec`.
    pub fn new(spec: ViewSpec) -> Self {
        MaterializedView {
            spec,
            cells: HashMap::new(),
        }
    }

    /// The spec this view materializes.
    pub fn spec(&self) -> &ViewSpec {
        &self.spec
    }

    /// Number of occupied cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    fn key_for(&self, schema: &CubeSchema, record: &Record) -> DcResult<Dims> {
        schema
            .dims()
            .zip(&record.dims)
            .zip(&self.spec.levels)
            .map(|((h, &leaf), &level)| h.ancestor_at(leaf, level))
            .collect()
    }

    /// Folds one record into the view.
    pub fn apply(&mut self, schema: &CubeSchema, record: &Record) -> DcResult<()> {
        let key = self.key_for(schema, record)?;
        self.cells.entry(key).or_default().add(record.measure);
        Ok(())
    }

    /// `true` iff the view can serve `GROUP BY (dim, level)` over a query
    /// whose relevant levels are `query_levels`: it must answer the filter
    /// *and* be at least as fine as the grouping level in that dimension
    /// (a coarser cell could not be attributed to one group).
    pub fn answers_group_by(&self, query_levels: &[Level], dim: DimensionId, level: Level) -> bool {
        self.spec.answers(query_levels)
            && self
                .spec
                .levels
                .get(dim.as_usize())
                .is_some_and(|&v| v <= level)
    }

    /// Groups the cells selected by `range` on `(dim, level)`, rolling each
    /// cell up to its group key. Errors if the view is too coarse for the
    /// filter or the grouping level; groups come back sorted by value id.
    pub fn group_by(
        &self,
        schema: &CubeSchema,
        dim: DimensionId,
        level: Level,
        range: &Mds,
    ) -> DcResult<Vec<(ValueId, MeasureSummary)>> {
        let query_levels = range.levels();
        if !self.answers_group_by(&query_levels, dim, level) {
            return Err(DcError::IncomparableMds(
                "view is coarser than the group-by in some dimension".into(),
            ));
        }
        let group_dim = schema.dim(dim);
        let mut groups: std::collections::BTreeMap<ValueId, MeasureSummary> = Default::default();
        'cells: for (key, summary) in &self.cells {
            for ((h, &cell_value), set) in schema.dims().zip(key).zip(range.dims()) {
                let lifted = h.ancestor_at(cell_value, set.level())?;
                if !set.contains_value(lifted) {
                    continue 'cells;
                }
            }
            let group = group_dim.ancestor_at(key[dim.as_usize()], level)?;
            groups.entry(group).or_default().merge(summary);
        }
        Ok(groups.into_iter().collect())
    }

    /// Answers `range` from the cells, or errors if the view is too coarse.
    pub fn answer(&self, schema: &CubeSchema, range: &Mds) -> DcResult<MeasureSummary> {
        let query_levels = range.levels();
        if !self.spec.answers(&query_levels) {
            return Err(DcError::IncomparableMds(
                "view is coarser than the query in some dimension".into(),
            ));
        }
        let mut acc = MeasureSummary::empty();
        'cells: for (key, summary) in &self.cells {
            for ((h, &cell_value), set) in schema.dims().zip(key).zip(range.dims()) {
                let lifted = h.ancestor_at(cell_value, set.level())?;
                if !set.contains_value(lifted) {
                    continue 'cells;
                }
            }
            acc.merge(summary);
        }
        Ok(acc)
    }
}

/// A set of materialized views with the paper's static life cycle.
#[derive(Clone, Debug)]
pub struct ViewSet {
    schema: CubeSchema,
    views: Vec<MaterializedView>,
    records: u64,
    needs_rebuild: bool,
}

impl ViewSet {
    /// Builds the views over an initial load (one pass, all views).
    pub fn build(schema: CubeSchema, specs: Vec<ViewSpec>, records: &[Record]) -> DcResult<Self> {
        for spec in &specs {
            spec.validate(&schema)?;
        }
        let mut set = ViewSet {
            views: specs.into_iter().map(MaterializedView::new).collect(),
            schema,
            records: 0,
            needs_rebuild: false,
        };
        for r in records {
            set.insert(r)?;
        }
        Ok(set)
    }

    /// The schema the views aggregate.
    pub fn schema(&self) -> &CubeSchema {
        &self.schema
    }

    /// The materialized views.
    pub fn views(&self) -> &[MaterializedView] {
        &self.views
    }

    /// Records folded in so far.
    pub fn len(&self) -> u64 {
        self.records
    }

    /// `true` iff no records are loaded.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Incremental insert: touches **every** view — the cost structure the
    /// paper criticizes ("on the insertion of a data record all index
    /// entries have to be updated").
    pub fn insert(&mut self, record: &Record) -> DcResult<()> {
        self.schema.validate_record(record)?;
        for v in &mut self.views {
            v.apply(&self.schema, record)?;
        }
        self.records += 1;
        Ok(())
    }

    /// Registers a deletion. Summaries cannot subtract min/max, so the set
    /// is only marked stale; answers are refused until [`Self::rebuild`].
    pub fn delete(&mut self, _record: &Record) {
        self.needs_rebuild = true;
    }

    /// `true` once a delete has invalidated the views.
    pub fn needs_rebuild(&self) -> bool {
        self.needs_rebuild
    }

    /// Rebuilds every view from the authoritative record stream (the
    /// nightly batch window in the paper's framing).
    pub fn rebuild(&mut self, records: &[Record]) -> DcResult<()> {
        for v in &mut self.views {
            *v = MaterializedView::new(v.spec.clone());
        }
        self.records = 0;
        self.needs_rebuild = false;
        for r in records {
            self.insert(r)?;
        }
        Ok(())
    }

    /// Answers `range` from the cheapest answerable view. Returns
    /// `Ok(None)` when no view is fine enough (the lattice miss) and an
    /// error when the set is stale.
    pub fn answer(&self, range: &Mds) -> DcResult<Option<MeasureSummary>> {
        if self.needs_rebuild {
            return Err(DcError::Corrupt(
                "materialized views are stale after a delete; rebuild first".into(),
            ));
        }
        let query_levels = range.levels();
        let best = self
            .views
            .iter()
            .filter(|v| v.spec.answers(&query_levels))
            .min_by_key(|v| v.num_cells());
        match best {
            None => Ok(None),
            Some(v) => Ok(Some(v.answer(&self.schema, range)?)),
        }
    }

    /// Total occupied cells over all views (the storage bill of the
    /// lattice).
    pub fn total_cells(&self) -> usize {
        self.views.iter().map(MaterializedView::num_cells).sum()
    }
}

/// The canonical small lattice for a schema: the per-dimension roll-ups
/// (one dimension at each functional level, the rest at `ALL`) plus the
/// all-`ALL` grand total — the views a dashboard of per-dimension charts
/// needs.
pub fn rollup_lattice(schema: &CubeSchema) -> Vec<ViewSpec> {
    let tops: Vec<Level> = schema.dims().map(|h| h.top_level()).collect();
    let mut specs = vec![ViewSpec::new(tops.clone())];
    for (d, h) in schema.dims().enumerate() {
        for level in 0..h.top_level() {
            let mut levels = tops.clone();
            levels[d] = level;
            specs.push(ViewSpec::new(levels));
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_common::DimensionId;
    use dc_hierarchy::HierarchySchema;
    use dc_mds::DimSet;

    fn setup() -> (CubeSchema, Vec<Record>) {
        let mut schema = CubeSchema::new(
            vec![
                HierarchySchema::new("Customer", vec!["Region".into(), "Nation".into()]),
                HierarchySchema::new("Time", vec!["Year".into(), "Month".into()]),
            ],
            "Price",
        );
        let mut records = Vec::new();
        for (r, n, y, m, price) in [
            ("EU", "DE", "1996", "01", 100),
            ("EU", "FR", "1996", "02", 250),
            ("AS", "JP", "1997", "01", 400),
            ("EU", "DE", "1997", "03", 50),
        ] {
            records.push(
                schema
                    .intern_record(&[vec![r, n], vec![y, m]], price)
                    .unwrap(),
            );
        }
        (schema, records)
    }

    #[test]
    fn view_answers_matching_rollups() {
        let (schema, records) = setup();
        let specs = rollup_lattice(&schema);
        let set = ViewSet::build(schema.clone(), specs, &records).unwrap();
        // Region roll-up: EU.
        let eu = schema.dim(DimensionId(0)).lookup_path(&["EU"]).unwrap();
        let q = Mds::new(vec![
            DimSet::singleton(eu),
            DimSet::singleton(schema.dim(DimensionId(1)).all()),
        ]);
        let s = set
            .answer(&q)
            .unwrap()
            .expect("region roll-up is in the lattice");
        assert_eq!(s.sum, 400);
        assert_eq!(s.count, 3);
        // Grand total.
        let s = set.answer(&Mds::all(&schema)).unwrap().unwrap();
        assert_eq!(s.count, 4);
    }

    #[test]
    fn lattice_misses_unanticipated_shapes() {
        let (schema, records) = setup();
        let set = ViewSet::build(schema.clone(), rollup_lattice(&schema), &records).unwrap();
        // A two-dimensional constraint needs a view finer than any
        // single-dimension roll-up: the lattice misses.
        let eu = schema.dim(DimensionId(0)).lookup_path(&["EU"]).unwrap();
        let y96 = schema.dim(DimensionId(1)).lookup_path(&["1996"]).unwrap();
        let q = Mds::new(vec![DimSet::singleton(eu), DimSet::singleton(y96)]);
        assert_eq!(
            set.answer(&q).unwrap(),
            None,
            "the static lattice cannot serve this"
        );
    }

    #[test]
    fn inserts_touch_every_view_and_stay_correct() {
        let (mut schema, records) = setup();
        let extra = schema
            .intern_record(&[vec!["EU", "DE"], vec!["1996", "04"]], 75)
            .unwrap();
        // Build against the fully interned schema, then insert dynamically.
        let mut set = ViewSet::build(schema.clone(), rollup_lattice(&schema), &records).unwrap();
        set.insert(&extra).unwrap();
        let eu = schema.dim(DimensionId(0)).lookup_path(&["EU"]).unwrap();
        let q = Mds::new(vec![
            DimSet::singleton(eu),
            DimSet::singleton(schema.dim(DimensionId(1)).all()),
        ]);
        assert_eq!(set.answer(&q).unwrap().unwrap().sum, 475);
    }

    #[test]
    fn deletes_invalidate_until_rebuild() {
        let (schema, records) = setup();
        let mut set = ViewSet::build(schema.clone(), rollup_lattice(&schema), &records).unwrap();
        set.delete(&records[0]);
        assert!(set.needs_rebuild());
        assert!(
            set.answer(&Mds::all(&schema)).is_err(),
            "stale views must refuse"
        );
        let remaining = &records[1..];
        set.rebuild(remaining).unwrap();
        assert_eq!(set.answer(&Mds::all(&schema)).unwrap().unwrap().count, 3);
    }

    #[test]
    fn view_group_by_rolls_cells_up_to_groups() {
        let (schema, records) = setup();
        // Nation-level view answers GROUP BY Region by rolling cells up.
        let mut view = MaterializedView::new(ViewSpec::new(vec![0, 2]));
        for r in &records {
            view.apply(&schema, r).unwrap();
        }
        let all = Mds::all(&schema);
        assert!(view.answers_group_by(&all.levels(), DimensionId(0), 1));
        let groups = view.group_by(&schema, DimensionId(0), 1, &all).unwrap();
        let h = schema.dim(DimensionId(0));
        let by_name: Vec<(&str, u64, i64)> = groups
            .iter()
            .map(|(v, s)| (h.name(*v).unwrap(), s.count, s.sum))
            .collect();
        assert!(by_name.contains(&("EU", 3, 400)));
        assert!(by_name.contains(&("AS", 1, 400)));
        // A region-level view cannot serve GROUP BY Nation.
        let mut coarse = MaterializedView::new(ViewSpec::new(vec![1, 2]));
        for r in &records {
            coarse.apply(&schema, r).unwrap();
        }
        assert!(!coarse.answers_group_by(&all.levels(), DimensionId(0), 0));
        assert!(coarse.group_by(&schema, DimensionId(0), 0, &all).is_err());
    }

    #[test]
    fn bad_specs_are_rejected() {
        let (schema, _) = setup();
        assert!(ViewSpec::new(vec![0]).validate(&schema).is_err());
        assert!(ViewSpec::new(vec![0, 9]).validate(&schema).is_err());
        assert!(ViewSpec::new(vec![0, 0]).validate(&schema).is_ok());
    }

    #[test]
    fn cheapest_view_is_chosen() {
        let (schema, records) = setup();
        // Two views can answer a region roll-up: region-level (coarse, few
        // cells) and nation-level (finer, more cells). The set must pick
        // the coarse one.
        let specs = vec![
            ViewSpec::new(vec![1, 2]), // region × ALL
            ViewSpec::new(vec![0, 2]), // nation × ALL
        ];
        let set = ViewSet::build(schema.clone(), specs, &records).unwrap();
        let eu = schema.dim(DimensionId(0)).lookup_path(&["EU"]).unwrap();
        let q = Mds::new(vec![
            DimSet::singleton(eu),
            DimSet::singleton(schema.dim(DimensionId(1)).all()),
        ]);
        // Both agree on the answer…
        assert_eq!(set.answer(&q).unwrap().unwrap().sum, 400);
        // …and the chosen (minimal) one is the 2-cell region view.
        let answerable: Vec<usize> = set
            .views()
            .iter()
            .filter(|v| v.spec().answers(&q.levels()))
            .map(MaterializedView::num_cells)
            .collect();
        assert_eq!(answerable.iter().min(), Some(&2));
    }
}
