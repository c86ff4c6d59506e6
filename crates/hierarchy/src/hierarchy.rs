//! A single dimension's concept hierarchy with its dynamic dictionary.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use dc_common::{DcError, DcResult, DimensionId, Level, ValueId};

/// The *hierarchy schema* of one dimension: the ordered list of functional
/// attribute names, from the broadest one directly below `ALL` down to the
/// leaf attribute (Fig. 1: Region, Nation, Customer ID).
#[derive(Clone, Debug)]
pub struct HierarchySchema {
    name: String,
    /// Attribute names ordered top → leaf (index 0 is directly below ALL).
    attributes: Vec<String>,
}

impl HierarchySchema {
    /// Creates a schema. `attributes` are ordered from the level directly
    /// below `ALL` down to the leaves.
    ///
    /// # Panics
    /// Panics if `attributes` is empty or has 15 or more entries (the 4-bit
    /// level encoding supports `ALL` + at most 15 functional levels).
    pub fn new(name: impl Into<String>, attributes: Vec<String>) -> Self {
        assert!(
            !attributes.is_empty(),
            "a dimension needs at least one attribute"
        );
        assert!(
            attributes.len() < 15,
            "at most 14 functional levels fit the 4-bit encoding"
        );
        HierarchySchema {
            name: name.into(),
            attributes,
        }
    }

    /// Dimension name (e.g. "Customer").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of functional attribute levels (excluding `ALL`).
    pub fn num_attributes(&self) -> usize {
        self.attributes.len()
    }

    /// Name of the attribute at `level` (0 = leaf).
    ///
    /// Returns `None` for the `ALL` level or beyond.
    pub fn attribute_name(&self, level: Level) -> Option<&str> {
        let depth = self.attributes.len().checked_sub(1 + level as usize)?;
        self.attributes.get(depth).map(String::as_str)
    }
}

/// A dictionary key `(parent, name)` seen through a borrowed name, so a
/// probe with a `&str` finds the owned `(ValueId, String)` entry without
/// building a `String`. Both forms hash and compare as `(ValueId, &str)`.
trait DictKey {
    fn key(&self) -> (ValueId, &str);
}

impl DictKey for (ValueId, String) {
    fn key(&self) -> (ValueId, &str) {
        (self.0, &self.1)
    }
}

impl DictKey for (ValueId, &str) {
    fn key(&self) -> (ValueId, &str) {
        *self
    }
}

impl<'a> Borrow<dyn DictKey + 'a> for (ValueId, String) {
    fn borrow(&self) -> &(dyn DictKey + 'a) {
        self
    }
}

impl Hash for dyn DictKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl PartialEq for dyn DictKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for dyn DictKey + '_ {}

#[derive(Clone, Debug)]
struct ValueInfo {
    name: String,
    /// Parent ID; for the root `ALL` this is the root itself.
    parent: ValueId,
    /// Children in insertion order.
    children: Vec<ValueId>,
}

/// A concept hierarchy: the dynamic tree of attribute values of one
/// dimension, with `ALL` as root (Definition 1), plus the dictionary that
/// interns attribute-value strings to [`ValueId`]s.
///
/// Levels follow the paper: leaves are level 0, `ALL` is the top level
/// (`num_attributes`, i.e. the distance from the leaves).
#[derive(Clone)]
pub struct ConceptHierarchy {
    dim: DimensionId,
    schema: HierarchySchema,
    /// `tables[level][index]` holds the value with `ValueId::new(level, index)`.
    tables: Vec<Vec<ValueInfo>>,
    /// Dictionary: (parent, name) → child ID. The paper stores "the ID of the
    /// father for each ID in one concept hierarchy"; we additionally keep the
    /// reverse map so that insertions of already-known values are O(1).
    dict: HashMap<(ValueId, String), ValueId>,
    /// Flat ancestor tables: `anc[l]` is row-major with one row per value at
    /// level `l`, holding the value's ancestor *indices* at levels
    /// `l+1 ..= top_level` (row width `top_level - l`). Maintained
    /// incrementally on intern — a child's row is its parent's index followed
    /// by the parent's row — so [`Self::ancestor_at`] is a single array load
    /// instead of a parent-pointer walk. This sits in the innermost loops of
    /// every range query (each entry/record test lifts values to the query
    /// level), where the walk used to dominate.
    anc: Vec<Vec<u32>>,
}

impl ConceptHierarchy {
    /// Creates an empty hierarchy for dimension `dim`: only `ALL` exists.
    pub fn new(dim: DimensionId, schema: HierarchySchema) -> Self {
        let top = schema.num_attributes(); // level of ALL
        let mut tables: Vec<Vec<ValueInfo>> = (0..=top).map(|_| Vec::new()).collect();
        let all = ValueId::new(top as Level, 0);
        tables[top].push(ValueInfo {
            name: "ALL".to_string(),
            parent: all,
            children: Vec::new(),
        });
        ConceptHierarchy {
            dim,
            schema,
            tables,
            dict: HashMap::new(),
            anc: (0..=top).map(|_| Vec::new()).collect(),
        }
    }

    /// The dimension this hierarchy describes.
    pub fn dimension(&self) -> DimensionId {
        self.dim
    }

    /// The hierarchy schema.
    pub fn schema(&self) -> &HierarchySchema {
        &self.schema
    }

    /// The level of the `ALL` root (= number of functional attributes).
    pub fn top_level(&self) -> Level {
        self.schema.num_attributes() as Level
    }

    /// The root value `ALL`.
    pub fn all(&self) -> ValueId {
        ValueId::new(self.top_level(), 0)
    }

    /// Number of values currently known at `level`.
    pub fn num_values_at(&self, level: Level) -> usize {
        self.tables.get(level as usize).map_or(0, Vec::len)
    }

    /// Total number of values across all levels (including `ALL`).
    pub fn num_values(&self) -> usize {
        self.tables.iter().map(Vec::len).sum()
    }

    /// Iterates over all values at `level` in insertion (ID) order.
    pub fn values_at(&self, level: Level) -> impl Iterator<Item = ValueId> + '_ {
        (0..self.num_values_at(level) as u32).map(move |i| ValueId::new(level, i))
    }

    fn info(&self, id: ValueId) -> DcResult<&ValueInfo> {
        self.tables
            .get(id.level() as usize)
            .and_then(|t| t.get(id.index() as usize))
            .ok_or(DcError::UnknownValue { dim: self.dim, id })
    }

    /// `true` iff `id` was issued by this hierarchy.
    pub fn contains(&self, id: ValueId) -> bool {
        self.info(id).is_ok()
    }

    /// Human-readable name of a value.
    pub fn name(&self, id: ValueId) -> DcResult<&str> {
        Ok(&self.info(id)?.name)
    }

    /// Parent of `id`; `None` for `ALL`.
    pub fn parent(&self, id: ValueId) -> DcResult<Option<ValueId>> {
        let info = self.info(id)?;
        Ok((id != self.all()).then_some(info.parent))
    }

    /// Children of `id` in insertion order.
    pub fn children(&self, id: ValueId) -> DcResult<&[ValueId]> {
        Ok(&self.info(id)?.children)
    }

    /// The ancestor of `id` at `level` — one bounds check plus one array
    /// load against the incrementally maintained ancestor tables.
    ///
    /// `level` must satisfy `id.level() <= level <= top_level()`; the
    /// ancestor at `id.level()` is `id` itself.
    pub fn ancestor_at(&self, id: ValueId, level: Level) -> DcResult<ValueId> {
        let from = id.level();
        if level < from || level > self.top_level() {
            return Err(DcError::BadLevel {
                dim: self.dim,
                id,
                requested: level,
            });
        }
        if level == from {
            // Still validate the id — callers rely on the error contract.
            self.info(id)?;
            return Ok(id);
        }
        let width = (self.top_level() - from) as usize;
        let base = id.index() as usize * width;
        let offset = (level - from) as usize - 1;
        match self
            .anc
            .get(from as usize)
            .and_then(|t| t.get(base + offset))
        {
            Some(&idx) => Ok(ValueId::new(level, idx)),
            None => Err(DcError::UnknownValue { dim: self.dim, id }),
        }
    }

    /// The ancestor of `id` at `level`, computed by the original
    /// parent-pointer walk. Semantically identical to
    /// [`Self::ancestor_at`]; kept as the independent oracle the
    /// property tests compare the O(1) tables against.
    pub fn ancestor_at_walk(&self, id: ValueId, level: Level) -> DcResult<ValueId> {
        if level < id.level() || level > self.top_level() {
            return Err(DcError::BadLevel {
                dim: self.dim,
                id,
                requested: level,
            });
        }
        let mut cur = id;
        while cur.level() < level {
            cur = self.info(cur)?.parent;
        }
        // Validate `cur == id` lookups too (the walk only touches `info`
        // when it moves).
        self.info(cur)?;
        Ok(cur)
    }

    /// The partial ordering of Definition 1: `a ⊑ b` iff `a == b` or `a` is
    /// a (direct or indirect) descendant of `b`.
    pub fn le(&self, a: ValueId, b: ValueId) -> DcResult<bool> {
        if b.level() < a.level() {
            return Ok(false);
        }
        Ok(self.ancestor_at(a, b.level())? == b)
    }

    /// Interns the attribute-value chain of one record for this dimension.
    ///
    /// `path` is ordered top → leaf (e.g. `["EUROPE", "GERMANY", "cust#17"]`)
    /// and must contain exactly one value per functional attribute. Unknown
    /// values are appended dynamically — "the DC-tree manages its concept
    /// hierarchies dynamically" (§3.1). Returns the leaf [`ValueId`].
    pub fn intern_path<S: AsRef<str>>(&mut self, path: &[S]) -> DcResult<ValueId> {
        if path.len() != self.schema.num_attributes() {
            return Err(DcError::BadPathLength {
                dim: self.dim,
                expected: self.schema.num_attributes(),
                got: path.len(),
            });
        }
        let mut parent = self.all();
        for (depth, name) in path.iter().enumerate() {
            let level = self.top_level() - 1 - depth as Level;
            parent = self.intern_child(parent, level, name.as_ref())?;
        }
        Ok(parent)
    }

    /// Looks up (without creating) the value with this top→leaf prefix path.
    pub fn lookup_path<S: AsRef<str>>(&self, path: &[S]) -> Option<ValueId> {
        let mut parent = self.all();
        for name in path {
            parent = self.child(parent, name.as_ref())?;
        }
        Some(parent)
    }

    /// Inserts (or finds) a direct child of `parent` named `name`.
    ///
    /// The child's level is `parent.level() - 1`; inserting below a leaf is
    /// an error. Because IDs are assigned in per-level insertion order,
    /// replaying insertions in ID order reproduces identical IDs — the
    /// property the tree-persistence codec relies on.
    pub fn insert_child(&mut self, parent: ValueId, name: &str) -> DcResult<ValueId> {
        let info_level = self.info(parent)?; // validates parent
        let _ = info_level;
        if parent.level() == 0 {
            return Err(DcError::BadLevel {
                dim: self.dim,
                id: parent,
                requested: 0,
            });
        }
        self.intern_child(parent, parent.level() - 1, name)
    }

    /// The known child of `parent` named `name`; allocates nothing.
    fn child(&self, parent: ValueId, name: &str) -> Option<ValueId> {
        self.dict.get(&(parent, name) as &dyn DictKey).copied()
    }

    fn intern_child(&mut self, parent: ValueId, level: Level, name: &str) -> DcResult<ValueId> {
        if let Some(id) = self.child(parent, name) {
            return Ok(id);
        }
        let table = &mut self.tables[level as usize];
        if table.len() > dc_common::id::MAX_INDEX as usize {
            return Err(DcError::IdSpaceExhausted {
                dim: self.dim,
                level,
            });
        }
        let id = ValueId::new(level, table.len() as u32);
        table.push(ValueInfo {
            name: name.to_string(),
            parent,
            children: Vec::new(),
        });
        self.tables[parent.level() as usize][parent.index() as usize]
            .children
            .push(id);
        self.dict.insert((parent, name.to_string()), id);
        // Extend the ancestor table: the child's row is its parent's index
        // followed by the parent's own row (ancestors at parent.level()+1
        // and up). O(levels) per *new* value, O(1) per lookup forever after.
        let parent_width = (self.top_level() - parent.level()) as usize;
        let parent_row_base = parent.index() as usize * parent_width;
        let (row, parent_rows) = {
            let (lo, hi) = self.anc.split_at_mut(parent.level() as usize);
            (&mut lo[level as usize], &hi[0])
        };
        row.push(parent.index());
        row.extend_from_slice(&parent_rows[parent_row_base..parent_row_base + parent_width]);
        Ok(id)
    }

    /// All descendants of `id` on `level` (in ID order); `id` itself when
    /// `level == id.level()`. The downward mate of [`ancestor_at`]
    /// (Self::ancestor_at): `d ∈ descendants_at(v, l)` iff
    /// `ancestor_at(d, v.level()) == v`. Used by the aggregate cache to
    /// expand a coarse query down to a cached entry's relevant level.
    ///
    /// Errors when `level > id.level()` (that direction is `ancestor_at`).
    pub fn descendants_at(&self, id: ValueId, level: Level) -> DcResult<Vec<ValueId>> {
        if level > id.level() {
            return Err(DcError::BadLevel {
                dim: self.dim,
                id,
                requested: level,
            });
        }
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(v) = stack.pop() {
            if v.level() == level {
                out.push(v);
            } else {
                stack.extend(self.children(v)?.iter().copied());
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// All leaf-level descendants of `id` (in ID order). `id` itself if it is
    /// a leaf. Used by the sequential-scan baseline and for tests.
    pub fn leaves_under(&self, id: ValueId) -> DcResult<Vec<ValueId>> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(v) = stack.pop() {
            if v.level() == 0 {
                out.push(v);
            } else {
                stack.extend(self.children(v)?.iter().copied());
            }
        }
        out.sort_unstable();
        Ok(out)
    }
}

impl fmt::Debug for ConceptHierarchy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConceptHierarchy")
            .field("dim", &self.dim)
            .field("name", &self.schema.name())
            .field(
                "values_per_level",
                &(0..=self.top_level())
                    .map(|l| self.num_values_at(l))
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn customer_hierarchy() -> ConceptHierarchy {
        let schema = HierarchySchema::new(
            "Customer",
            vec!["Region".into(), "Nation".into(), "CustomerId".into()],
        );
        ConceptHierarchy::new(DimensionId(0), schema)
    }

    #[test]
    fn fresh_hierarchy_has_only_all() {
        let h = customer_hierarchy();
        assert_eq!(h.top_level(), 3);
        assert_eq!(h.num_values(), 1);
        assert_eq!(h.name(h.all()).unwrap(), "ALL");
        assert_eq!(h.parent(h.all()).unwrap(), None);
    }

    #[test]
    fn intern_builds_paper_example() {
        // Figure 1: ALL → Europe → Germany → customers.
        let mut h = customer_hierarchy();
        let c1 = h.intern_path(&["Europe", "Germany", "c1"]).unwrap();
        let c2 = h.intern_path(&["Europe", "Germany", "c2"]).unwrap();
        let c3 = h.intern_path(&["Europe", "France", "c3"]).unwrap();
        assert_eq!(c1.level(), 0);
        assert_ne!(c1, c2);
        let germany = h.parent(c1).unwrap().unwrap();
        assert_eq!(h.name(germany).unwrap(), "Germany");
        assert_eq!(h.parent(c2).unwrap().unwrap(), germany);
        let france = h.parent(c3).unwrap().unwrap();
        let europe = h.parent(germany).unwrap().unwrap();
        assert_eq!(h.parent(france).unwrap().unwrap(), europe);
        assert_eq!(h.parent(europe).unwrap().unwrap(), h.all());
        assert_eq!(h.num_values_at(2), 1); // Europe
        assert_eq!(h.num_values_at(1), 2); // Germany, France
        assert_eq!(h.num_values_at(0), 3);
    }

    #[test]
    fn intern_is_idempotent() {
        let mut h = customer_hierarchy();
        let a = h.intern_path(&["Europe", "Germany", "c1"]).unwrap();
        let b = h.intern_path(&["Europe", "Germany", "c1"]).unwrap();
        assert_eq!(a, b);
        assert_eq!(h.num_values(), 4);
    }

    #[test]
    fn same_name_under_different_parents_gets_distinct_ids() {
        // Month "01" exists under every year; they must be distinct nodes.
        let schema = HierarchySchema::new("Time", vec!["Year".into(), "Month".into()]);
        let mut h = ConceptHierarchy::new(DimensionId(3), schema);
        let a = h.intern_path(&["1996", "01"]).unwrap();
        let b = h.intern_path(&["1997", "01"]).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn partial_order_of_definition_1() {
        let mut h = customer_hierarchy();
        let c1 = h.intern_path(&["Europe", "Germany", "c1"]).unwrap();
        let germany = h.parent(c1).unwrap().unwrap();
        let europe = h.parent(germany).unwrap().unwrap();
        // "Germany ⊑ Europe and a ⊑ ALL holds for each value a."
        assert!(h.le(germany, europe).unwrap());
        assert!(h.le(c1, h.all()).unwrap());
        assert!(h.le(germany, h.all()).unwrap());
        assert!(h.le(germany, germany).unwrap());
        assert!(!h.le(europe, germany).unwrap());
        let c9 = h.intern_path(&["Asia", "Japan", "c9"]).unwrap();
        assert!(!h.le(c9, europe).unwrap());
    }

    #[test]
    fn ancestor_at_walks_exactly_to_level() {
        let mut h = customer_hierarchy();
        let c1 = h.intern_path(&["Europe", "Germany", "c1"]).unwrap();
        assert_eq!(h.name(h.ancestor_at(c1, 1).unwrap()).unwrap(), "Germany");
        assert_eq!(h.name(h.ancestor_at(c1, 2).unwrap()).unwrap(), "Europe");
        assert_eq!(h.ancestor_at(c1, 3).unwrap(), h.all());
        assert_eq!(h.ancestor_at(c1, 0).unwrap(), c1);
        assert!(h.ancestor_at(h.all(), 0).is_err());
    }

    #[test]
    fn bad_path_length_is_rejected() {
        let mut h = customer_hierarchy();
        assert!(matches!(
            h.intern_path(&["Europe", "Germany"]),
            Err(DcError::BadPathLength { .. })
        ));
    }

    #[test]
    fn unknown_id_is_rejected() {
        let h = customer_hierarchy();
        let bogus = ValueId::new(1, 7);
        assert!(matches!(h.name(bogus), Err(DcError::UnknownValue { .. })));
    }

    #[test]
    fn leaves_under_collects_subtree() {
        let mut h = customer_hierarchy();
        let c1 = h.intern_path(&["Europe", "Germany", "c1"]).unwrap();
        let c2 = h.intern_path(&["Europe", "Germany", "c2"]).unwrap();
        let c3 = h.intern_path(&["Europe", "France", "c3"]).unwrap();
        let c4 = h.intern_path(&["Asia", "Japan", "c4"]).unwrap();
        let europe = h.ancestor_at(c1, 2).unwrap();
        assert_eq!(h.leaves_under(europe).unwrap(), vec![c1, c2, c3]);
        assert_eq!(h.leaves_under(h.all()).unwrap(), vec![c1, c2, c3, c4]);
        assert_eq!(h.leaves_under(c4).unwrap(), vec![c4]);
    }

    #[test]
    fn attribute_names_map_to_levels() {
        let h = customer_hierarchy();
        assert_eq!(h.schema().attribute_name(0), Some("CustomerId"));
        assert_eq!(h.schema().attribute_name(1), Some("Nation"));
        assert_eq!(h.schema().attribute_name(2), Some("Region"));
        assert_eq!(h.schema().attribute_name(3), None); // ALL
    }

    #[test]
    fn insert_child_builds_and_rejects_below_leaves() {
        let mut h = customer_hierarchy();
        let europe = h.insert_child(h.all(), "Europe").unwrap();
        assert_eq!(europe.level(), 2);
        let germany = h.insert_child(europe, "Germany").unwrap();
        let c1 = h.insert_child(germany, "c1").unwrap();
        assert_eq!(c1.level(), 0);
        // Idempotent.
        assert_eq!(h.insert_child(europe, "Germany").unwrap(), germany);
        // Below a leaf is an error.
        assert!(matches!(
            h.insert_child(c1, "x"),
            Err(DcError::BadLevel { .. })
        ));
        // Unknown parent is an error.
        assert!(h.insert_child(ValueId::new(2, 99), "y").is_err());
    }

    #[test]
    fn lookup_path_finds_prefixes() {
        let mut h = customer_hierarchy();
        let c1 = h.intern_path(&["Europe", "Germany", "c1"]).unwrap();
        assert_eq!(h.lookup_path(&["Europe", "Germany", "c1"]), Some(c1));
        let germany = h.lookup_path(&["Europe", "Germany"]).unwrap();
        assert_eq!(h.name(germany).unwrap(), "Germany");
        assert_eq!(h.lookup_path(&["Europe", "Spain"]), None);
    }
}
