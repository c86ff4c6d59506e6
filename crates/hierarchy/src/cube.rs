//! The cube schema: one concept hierarchy per dimension plus the measure.

use dc_common::{DcError, DcResult, DimensionId, Level, Measure, ValueId};

use crate::dims::Dims;
use crate::hierarchy::{ConceptHierarchy, HierarchySchema};

/// A data record of the cube (Definition 2): one leaf-level attribute value
/// per dimension plus the measure value.
///
/// Ancestor values on higher hierarchy levels are *derived* through the
/// [`CubeSchema`], never stored — mirroring the paper, where each record
/// carries one value per functional attribute and the DC-tree keeps the
/// is-a relationships in its dictionaries.
///
/// A record is pointer-free for cubes of up to [`Dims::INLINE`] dimensions
/// (see [`Dims`]): the records of a data node are one contiguous block, as
/// in the paper's disk page, not one heap fragment each.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Record {
    /// Leaf-level value per dimension (`dims[i].level() == 0`).
    pub dims: Dims,
    /// The measure (fixed-point, e.g. extended price in cents).
    pub measure: Measure,
}

impl Record {
    /// Convenience constructor.
    pub fn new(dims: Vec<ValueId>, measure: Measure) -> Self {
        Record {
            dims: dims.into(),
            measure,
        }
    }
}

/// The schema of a data cube: `d` concept hierarchies and a measure name.
///
/// This is the shared, dynamically growing context that the DC-tree, the
/// X-tree conversion and the sequential scan all consult.
#[derive(Clone, Debug)]
pub struct CubeSchema {
    dimensions: Vec<ConceptHierarchy>,
    measure_name: String,
}

impl CubeSchema {
    /// Builds a cube schema from per-dimension hierarchy schemata.
    pub fn new(dimension_schemas: Vec<HierarchySchema>, measure_name: impl Into<String>) -> Self {
        let dimensions = dimension_schemas
            .into_iter()
            .enumerate()
            .map(|(i, s)| ConceptHierarchy::new(DimensionId(i as u16), s))
            .collect();
        CubeSchema {
            dimensions,
            measure_name: measure_name.into(),
        }
    }

    /// Number of dimensions `d`.
    pub fn num_dims(&self) -> usize {
        self.dimensions.len()
    }

    /// The measure attribute's name.
    pub fn measure_name(&self) -> &str {
        &self.measure_name
    }

    /// The concept hierarchy of one dimension.
    pub fn dim(&self, dim: DimensionId) -> &ConceptHierarchy {
        &self.dimensions[dim.as_usize()]
    }

    /// Mutable access to one dimension's hierarchy (for interning).
    pub fn dim_mut(&mut self, dim: DimensionId) -> &mut ConceptHierarchy {
        &mut self.dimensions[dim.as_usize()]
    }

    /// Iterates over all dimensions.
    pub fn dims(&self) -> impl Iterator<Item = &ConceptHierarchy> {
        self.dimensions.iter()
    }

    /// Total number of values over all dimensions and levels (`ALL`s
    /// included).
    pub fn num_values(&self) -> usize {
        self.dimensions
            .iter()
            .map(ConceptHierarchy::num_values)
            .sum()
    }

    /// A read-only view of the schema as it is now: every hierarchy's
    /// [`snapshot`](ConceptHierarchy::snapshot), sharing its value storage
    /// and without its name dictionary. Later interns into `self` never
    /// show through it.
    pub fn snapshot(&self) -> CubeSchema {
        CubeSchema {
            dimensions: self.dimensions.iter().map(|h| h.snapshot()).collect(),
            measure_name: self.measure_name.clone(),
        }
    }

    /// `true` iff `self` extends `base`: the same dimensions and hierarchy
    /// schemata, and at least as many values on every level. Between
    /// states of one interner — which never reassigns an id — that means
    /// `self` knows every value `base` knows, under the same id.
    pub fn extends(&self, base: &CubeSchema) -> bool {
        self.num_dims() == base.num_dims()
            && self.dims().zip(base.dims()).all(|(h, b)| {
                h.schema().name() == b.schema().name()
                    && h.top_level() == b.top_level()
                    && (0..=h.top_level()).all(|l| h.num_values_at(l) >= b.num_values_at(l))
            })
    }

    /// Interns a raw record: one top→leaf attribute path per dimension plus
    /// the measure. This is the "assignment of IDs" step the DC-tree performs
    /// on every insertion (§3.1).
    pub fn intern_record<S: AsRef<str>>(
        &mut self,
        paths: &[Vec<S>],
        measure: Measure,
    ) -> DcResult<Record> {
        if paths.len() != self.num_dims() {
            return Err(DcError::DimensionMismatch {
                expected: self.num_dims(),
                got: paths.len(),
            });
        }
        let dims = self
            .dimensions
            .iter_mut()
            .zip(paths)
            .map(|(h, path)| h.intern_path(path))
            .collect::<DcResult<Dims>>()?;
        Ok(Record { dims, measure })
    }

    /// Structurally validates one raw record — one path per dimension,
    /// each exactly as deep as its hierarchy — **without interning
    /// anything**. Durable layers call this before logging a mutation:
    /// interning accepts any *names* dynamically, so this is the complete
    /// set of checks that could later reject the record, and a record that
    /// would be rejected must never reach the WAL (recovery replays the
    /// log and would fail on it).
    pub fn validate_paths<S: AsRef<str>>(&self, paths: &[Vec<S>]) -> DcResult<()> {
        if paths.len() != self.num_dims() {
            return Err(DcError::DimensionMismatch {
                expected: self.num_dims(),
                got: paths.len(),
            });
        }
        for (h, path) in self.dimensions.iter().zip(paths) {
            if path.len() != h.schema().num_attributes() {
                return Err(DcError::BadPathLength {
                    dim: h.dimension(),
                    expected: h.schema().num_attributes(),
                    got: path.len(),
                });
            }
        }
        Ok(())
    }

    /// Validates that a record's leaf IDs all belong to this schema.
    pub fn validate_record(&self, record: &Record) -> DcResult<()> {
        if record.dims.len() != self.num_dims() {
            return Err(DcError::DimensionMismatch {
                expected: self.num_dims(),
                got: record.dims.len(),
            });
        }
        for (h, &id) in self.dimensions.iter().zip(&record.dims) {
            if id.level() != 0 || !h.contains(id) {
                return Err(DcError::UnknownValue {
                    dim: h.dimension(),
                    id,
                });
            }
        }
        Ok(())
    }

    /// Total number of functional attributes over all dimensions — the
    /// dimensionality of the X-tree in the paper's evaluation (Fig. 10 maps
    /// every hierarchy level of every dimension to one X-tree axis; the
    /// TPC-D cube yields 13).
    pub fn num_flat_axes(&self) -> usize {
        self.dimensions.iter().map(|h| h.top_level() as usize).sum()
    }

    /// The flat-axis index of `(dim, level)` in [`flatten_record`].
    ///
    /// Axes are laid out dimension-major; within a dimension from the
    /// broadest attribute (level `top-1`) down to the leaf (level 0),
    /// matching the column order of the paper's Fig. 10.
    ///
    /// [`flatten_record`]: Self::flatten_record
    pub fn flat_axis(&self, dim: DimensionId, level: Level) -> usize {
        let mut base = 0usize;
        for h in &self.dimensions[..dim.as_usize()] {
            base += h.top_level() as usize;
        }
        let top = self.dimensions[dim.as_usize()].top_level();
        assert!(level < top, "ALL has no flat axis");
        base + (top - 1 - level) as usize
    }

    /// Expands a record to its full attribute-ID vector: for every dimension,
    /// the raw IDs of the leaf value and all its ancestors below `ALL`.
    /// This is the point the X-tree indexes (Fig. 10).
    pub fn flatten_record(&self, record: &Record) -> DcResult<Vec<u32>> {
        let mut out = Vec::with_capacity(self.num_flat_axes());
        for (h, &leaf) in self.dimensions.iter().zip(&record.dims) {
            for level in (0..h.top_level()).rev() {
                out.push(h.ancestor_at(leaf, level)?.raw());
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> CubeSchema {
        CubeSchema::new(
            vec![
                HierarchySchema::new(
                    "Customer",
                    vec!["Region".into(), "Nation".into(), "CustomerId".into()],
                ),
                HierarchySchema::new("Time", vec!["Year".into(), "Month".into()]),
            ],
            "ExtendedPrice",
        )
    }

    #[test]
    fn intern_record_assigns_leaf_ids() {
        let mut s = schema();
        let r = s
            .intern_record(&[vec!["Europe", "Germany", "c1"], vec!["1996", "03"]], 1500)
            .unwrap();
        assert_eq!(r.dims.len(), 2);
        assert!(r.dims.iter().all(|d| d.level() == 0));
        assert_eq!(r.measure, 1500);
        s.validate_record(&r).unwrap();
    }

    #[test]
    fn dimension_count_is_checked() {
        let mut s = schema();
        let paths: [Vec<&str>; 1] = [vec!["Europe", "Germany", "c1"]];
        assert!(matches!(
            s.intern_record(&paths, 0),
            Err(DcError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn flat_axes_cover_all_functional_attributes() {
        let s = schema();
        // Customer has 3 functional levels, Time has 2 → 5 axes.
        assert_eq!(s.num_flat_axes(), 5);
        assert_eq!(s.flat_axis(DimensionId(0), 2), 0); // Region
        assert_eq!(s.flat_axis(DimensionId(0), 1), 1); // Nation
        assert_eq!(s.flat_axis(DimensionId(0), 0), 2); // CustomerId
        assert_eq!(s.flat_axis(DimensionId(1), 1), 3); // Year
        assert_eq!(s.flat_axis(DimensionId(1), 0), 4); // Month
    }

    #[test]
    fn flatten_record_emits_ancestor_chain() {
        let mut s = schema();
        let r = s
            .intern_record(&[vec!["Europe", "Germany", "c1"], vec!["1996", "03"]], 7)
            .unwrap();
        let flat = s.flatten_record(&r).unwrap();
        assert_eq!(flat.len(), 5);
        let cust = s.dim(DimensionId(0));
        let europe = cust.lookup_path(&["Europe"]).unwrap();
        let germany = cust.lookup_path(&["Europe", "Germany"]).unwrap();
        assert_eq!(flat[0], europe.raw());
        assert_eq!(flat[1], germany.raw());
        assert_eq!(flat[2], r.dims[0].raw());
    }

    #[test]
    fn validate_rejects_foreign_ids() {
        let mut s = schema();
        let r = s
            .intern_record(&[vec!["Europe", "Germany", "c1"], vec!["1996", "03"]], 7)
            .unwrap();
        let mut bad = r.clone();
        bad.dims[0] = ValueId::new(0, 999); // never interned
        assert!(s.validate_record(&bad).is_err());
        let mut bad2 = r;
        bad2.dims[1] = s.dim(DimensionId(1)).all(); // not leaf level
        assert!(s.validate_record(&bad2).is_err());
    }
}
