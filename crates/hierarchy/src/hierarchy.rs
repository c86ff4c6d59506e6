//! A single dimension's concept hierarchy with its dynamic dictionary.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::sync::atomic::AtomicU32;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, OnceLock};

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

/// The name dictionary's hash: each 8-byte word of a key is folded into
/// the state by a 64 × 64 → 128-bit multiply with a key, whose halves are
/// XORed. State and key are drawn once per process from [`RandomState`],
/// so names a client picks cannot be precomputed to collide; and because
/// the product's high half depends on the key through its carries, no
/// difference between two inputs cancels whatever the key (as it does
/// through a plain wrapping multiply). SipHash-1-3, the default, costs
/// several times as much on the short names a record path holds.
#[derive(Clone, Copy)]
struct NameHash {
    seed: u64,
    key: u64,
}

impl Default for NameHash {
    fn default() -> Self {
        static KEYS: OnceLock<NameHash> = OnceLock::new();
        *KEYS.get_or_init(|| {
            let random = RandomState::new();
            NameHash {
                seed: random.hash_one(0u8),
                key: random.hash_one(1u8),
            }
        })
    }
}

impl BuildHasher for NameHash {
    type Hasher = NameHasher;

    fn build_hasher(&self) -> NameHasher {
        NameHasher {
            state: self.seed,
            key: self.key,
        }
    }
}

struct NameHasher {
    state: u64,
    key: u64,
}

impl NameHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * u128::from(self.key);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for NameHasher {
    /// The length, then each word; a short last word is zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        self.add(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.add(v.into());
    }

    fn write_u32(&mut self, v: u32) {
        self.add(v.into());
    }

    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// Values per chunk of a level's names. A power of two, so a value index
/// splits into its chunk and its slot with a shift and a mask.
const CHUNK_BITS: u32 = 8;
const CHUNK: usize = 1 << CHUNK_BITS;

/// The names of up to [`CHUNK`] consecutive values of one level. A
/// hierarchy and its snapshots share chunks through `Arc`s: only a level's
/// last, *open* chunk ever grows, and a full chunk is *sealed* — never
/// written again.
#[derive(Clone, Default)]
struct Chunk {
    /// The names back to back; slot `s` owns `names[ends[s-1]..ends[s]]`.
    names: String,
    ends: Vec<u32>,
}

impl Chunk {
    fn name(&self, slot: usize) -> &str {
        let start = slot.checked_sub(1).map_or(0, |s| self.ends[s] as usize);
        &self.names[start..self.ends[slot] as usize]
    }
}

/// One level's values in ID order: names in [`CHUNK`]-sized shared chunks,
/// ancestor rows in one shared buffer.
#[derive(Clone)]
struct LevelTable {
    /// Ancestor-row width: `top_level - level`.
    width: usize,
    len: usize,
    /// Ancestor rows, row-major, one per value: the value's ancestor
    /// *indices* at levels `l+1 ..= top_level`, parent first. Row `i`
    /// fills cells `1 + i * width ..`; cell 0 counts the rows claimed by
    /// every hierarchy sharing the buffer. Rows are only ever appended, so
    /// the one table whose `len` equals the claim count writes its next
    /// row in place — past every other sharer's `len`, where nobody reads
    /// — and any other table, or a full buffer, copies its rows into a
    /// fresh buffer of twice the capacity. One contiguous buffer keeps
    /// [`ConceptHierarchy::ancestor_at`] a single load past the table.
    rows: Arc<[AtomicU32]>,
    chunks: Vec<Arc<Chunk>>,
}

impl LevelTable {
    fn new(width: usize) -> Self {
        LevelTable {
            width,
            len: 0,
            rows: Arc::new([AtomicU32::new(0)]),
            chunks: Vec::new(),
        }
    }

    /// The chunk holding value `index`, and its slot there.
    fn locate(&self, index: u32) -> Option<(usize, usize)> {
        let index = index as usize;
        (index < self.len).then_some((index >> CHUNK_BITS, index & (CHUNK - 1)))
    }

    /// Cell `at` of value `index`'s row, `index` known to be below `len`.
    fn cell(&self, index: usize, at: usize) -> u32 {
        self.rows[1 + index * self.width + at].load(Relaxed)
    }

    /// The cells of row `index`, which may lie past `len`.
    fn row(&self, index: usize) -> &[AtomicU32] {
        &self.rows[1 + index * self.width..1 + (index + 1) * self.width]
    }

    /// Appends a value. Only the open name chunk is written, and it is
    /// copied first if a snapshot shares it; the row goes in place unless
    /// another sharer claimed that slot or the buffer is full.
    fn push(&mut self, name: &str, row: impl IntoIterator<Item = u32>) {
        let (width, len) = (self.width, self.len);
        let claimed = u32::try_from(len).expect("row counts fit in u32");
        // Room for row `len` past the claim count in cell 0.
        let in_place = (len + 1) * width < self.rows.len()
            && (self.rows[0].compare_exchange(claimed, claimed + 1, Relaxed, Relaxed)).is_ok();
        if !in_place {
            let capacity = 1 + (2 * len).max(CHUNK) * width;
            let kept = 1 + len * width;
            self.rows = (0..capacity)
                .map(|i| match i {
                    0 => AtomicU32::new(claimed + 1),
                    i if i < kept => AtomicU32::new(self.rows[i].load(Relaxed)),
                    _ => AtomicU32::new(0),
                })
                .collect();
        }
        for (cell, a) in self.row(len).iter().zip(row) {
            cell.store(a, Relaxed);
        }
        if len % CHUNK == 0 {
            self.chunks.push(Arc::default());
        }
        let chunk = Arc::make_mut(self.chunks.last_mut().expect("an open chunk"));
        chunk.names.push_str(name);
        chunk
            .ends
            .push(u32::try_from(chunk.names.len()).expect("a chunk's names fit in 4 GiB"));
        self.len += 1;
    }
}

/// A concept hierarchy: the dynamic tree of attribute values of one
/// dimension, with `ALL` as root (Definition 1), plus the dictionary that
/// interns attribute-value strings to [`ValueId`]s.
///
/// Levels follow the paper: leaves are level 0, `ALL` is the top level
/// (`num_attributes`, i.e. the distance from the leaves).
///
/// A [`snapshot`](Self::snapshot) shares every level's storage with its
/// source: the names in fixed-size `Arc` chunks, of which an intern after
/// the snapshot copies at most the open tail of each level it touches, and
/// the ancestor rows in one append-only buffer per level, which the intern
/// writes past the snapshot's end (copying it only when it is full, as a
/// `Vec` would). Clones share storage the same way. The name dictionary
/// belongs to the interner and is not part of a snapshot.
#[derive(Clone)]
pub struct ConceptHierarchy {
    dim: DimensionId,
    schema: Arc<HierarchySchema>,
    /// `levels[l]` holds the values of level `l` in ID order. Every value's
    /// ancestor row is filled in on intern — a child's row is its parent's
    /// index followed by the parent's row — so [`Self::ancestor_at`] is one
    /// array load instead of a parent-pointer walk. This
    /// sits in the innermost loops of every range query (each entry/record
    /// test lifts values to the query level), where the walk used to
    /// dominate.
    levels: Vec<LevelTable>,
    /// Dictionary: (parent, name) → child ID, so that insertions of
    /// already-known values are O(1). `None` in a snapshot; built from the
    /// tables if a snapshot is ever interned into.
    dict: Option<HashMap<(ValueId, String), ValueId, NameHash>>,
}

impl ConceptHierarchy {
    /// Creates an empty hierarchy for dimension `dim`: only `ALL` exists.
    pub fn new(dim: DimensionId, schema: HierarchySchema) -> Self {
        let top = schema.num_attributes(); // level of ALL
        let mut levels: Vec<LevelTable> = (0..=top).map(|l| LevelTable::new(top - l)).collect();
        levels[top].push("ALL", []);
        ConceptHierarchy {
            dim,
            schema: Arc::new(schema),
            levels,
            dict: Some(HashMap::default()),
        }
    }

    /// A read-only view of the hierarchy as it is now: it shares every
    /// value chunk with `self` and carries no name dictionary (a path
    /// lookup searches the children instead). Later interns into `self`
    /// never show through it.
    pub fn snapshot(&self) -> ConceptHierarchy {
        ConceptHierarchy {
            dim: self.dim,
            schema: Arc::clone(&self.schema),
            levels: self.levels.clone(),
            dict: None,
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
        self.levels.get(level as usize).map_or(0, |t| t.len)
    }

    /// Total number of values across all levels (including `ALL`).
    pub fn num_values(&self) -> usize {
        self.levels.iter().map(|t| t.len).sum()
    }

    /// Iterates over all values at `level` in insertion (ID) order.
    pub fn values_at(&self, level: Level) -> impl Iterator<Item = ValueId> + '_ {
        (0..self.num_values_at(level) as u32).map(move |i| ValueId::new(level, i))
    }

    fn unknown(&self, id: ValueId) -> DcError {
        DcError::UnknownValue { dim: self.dim, id }
    }

    /// `id`'s level table, chunk and slot.
    fn locate(&self, id: ValueId) -> DcResult<(&LevelTable, usize, usize)> {
        let table = self.levels.get(id.level() as usize);
        let found = table.and_then(|t| Some((t, t.locate(id.index())?)));
        let (table, (c, s)) = found.ok_or_else(|| self.unknown(id))?;
        Ok((table, c, s))
    }

    /// `true` iff `id` was issued by this hierarchy.
    pub fn contains(&self, id: ValueId) -> bool {
        self.locate(id).is_ok()
    }

    /// Human-readable name of a value.
    pub fn name(&self, id: ValueId) -> DcResult<&str> {
        let (table, c, s) = self.locate(id)?;
        Ok(table.chunks[c].name(s))
    }

    /// Parent of `id`; `None` for `ALL`.
    pub fn parent(&self, id: ValueId) -> DcResult<Option<ValueId>> {
        let (table, _, _) = self.locate(id)?;
        let index = id.index() as usize;
        Ok((table.width > 0).then(|| ValueId::new(id.level() + 1, table.cell(index, 0))))
    }

    /// Children of `id` in insertion (ID) order.
    pub fn children(&self, id: ValueId) -> DcResult<Vec<ValueId>> {
        match id.level() {
            0 => self.locate(id).map(|_| Vec::new()),
            level => self.descendants_at(id, level - 1),
        }
    }

    /// The ancestor of `id` at `level` — one bounds check plus one array
    /// load from the level's row buffer.
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
            self.locate(id)?;
            return Ok(id);
        }
        let table = &self.levels[from as usize];
        let index = id.index() as usize;
        if index >= table.len {
            return Err(self.unknown(id));
        }
        let at = (level - from) as usize - 1;
        Ok(ValueId::new(level, table.cell(index, at)))
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
            cur = self.parent(cur)?.ok_or_else(|| self.unknown(id))?;
        }
        // Validate `cur == id` lookups too (the walk only reads a row when
        // it moves).
        self.locate(cur)?;
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
        self.locate(parent)?;
        if parent.level() == 0 {
            return Err(DcError::BadLevel {
                dim: self.dim,
                id: parent,
                requested: 0,
            });
        }
        self.intern_child(parent, parent.level() - 1, name)
    }

    /// The known child of `parent` named `name`. Through the dictionary it
    /// allocates nothing; a snapshot, which has none, searches the
    /// children.
    fn child(&self, parent: ValueId, name: &str) -> Option<ValueId> {
        match &self.dict {
            Some(dict) => dict.get(&(parent, name) as &dyn DictKey).copied(),
            None => (self.children(parent).ok()?)
                .into_iter()
                .find(|&c| self.name(c).is_ok_and(|n| n == name)),
        }
    }

    fn intern_child(&mut self, parent: ValueId, level: Level, name: &str) -> DcResult<ValueId> {
        if self.dict.is_none() {
            let mut dict =
                HashMap::with_capacity_and_hasher(self.num_values(), NameHash::default());
            for level in 0..self.top_level() {
                for v in self.values_at(level) {
                    let parent = self.parent(v)?.expect("below ALL");
                    dict.insert((parent, self.name(v)?.to_string()), v);
                }
            }
            self.dict = Some(dict);
        }
        if let Some(id) = self.child(parent, name) {
            return Ok(id);
        }
        let (lo, hi) = self.levels.split_at_mut(parent.level() as usize);
        let table = &mut lo[level as usize];
        if table.len > dc_common::id::MAX_INDEX as usize {
            return Err(DcError::IdSpaceExhausted {
                dim: self.dim,
                level,
            });
        }
        let id = ValueId::new(level, table.len as u32);
        // The child's row is its parent's index followed by the parent's
        // own row (ancestors at parent.level()+1 and up): O(levels) per
        // *new* value, O(1) per lookup forever after.
        let parent_row = hi[0].row(parent.index() as usize).iter();
        let row = std::iter::once(parent.index()).chain(parent_row.map(|a| a.load(Relaxed)));
        table.push(name, row);
        let dict = self.dict.as_mut().expect("built above");
        dict.insert((parent, name.to_string()), id);
        Ok(id)
    }

    /// All descendants of `id` on `level` (in ID order); `id` itself when
    /// `level == id.level()`. The downward mate of
    /// [`ancestor_at`](Self::ancestor_at): `d ∈ descendants_at(v, l)` iff
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
        self.locate(id)?;
        if level == id.level() {
            return Ok(vec![id]);
        }
        // Scan `level`'s ancestor rows for `id` at its offset, in ID order.
        let table = &self.levels[level as usize];
        let at = (id.level() - level) as usize - 1;
        Ok((0..table.len)
            .filter(|&i| table.cell(i, at) == id.index())
            .map(|i| ValueId::new(level, i as u32))
            .collect())
    }

    /// All leaf-level descendants of `id` (in ID order). `id` itself if it is
    /// a leaf. Used by the sequential-scan baseline and for tests.
    pub fn leaves_under(&self, id: ValueId) -> DcResult<Vec<ValueId>> {
        self.descendants_at(id, 0)
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

    /// One key per process, and the length is hashed: a name and the same
    /// name zero-padded to a full word land apart.
    #[test]
    fn name_hash_is_per_process_and_hashes_the_length() {
        let (a, b) = (NameHash::default(), NameHash::default());
        assert_eq!(
            a.hash_one((ValueId::new(2, 7), "GERMANY")),
            b.hash_one((ValueId::new(2, 7), "GERMANY"))
        );
        assert_ne!(a.hash_one("abcdefg"), a.hash_one("abcdefg\0"));
        assert_ne!(
            a.hash_one((ValueId::new(2, 7), "x")),
            a.hash_one((ValueId::new(2, 8), "x"))
        );
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

    /// Structural sharing of snapshots, at sizes that seal chunks: interns
    /// and snapshots interleaved at random.
    mod snapshots {
        use super::*;
        use proptest::prelude::*;

        #[derive(Clone, Debug)]
        enum Op {
            Intern(u8, u8, u8),
            Snapshot,
        }

        /// Up to 4 × 120 values on the middle level and 8 leaves under
        /// each, so both lower levels seal chunks.
        fn ops() -> impl Strategy<Value = Vec<Op>> {
            let op = prop_oneof![
                60 => (0u8..4, 0u8..120, 0u8..8).prop_map(|(a, b, c)| Op::Intern(a, b, c)),
                1 => Just(Op::Snapshot),
            ];
            prop::collection::vec(op, 300..900)
        }

        fn path(a: u8, b: u8, c: u8) -> [String; 3] {
            [
                format!("a{a}"),
                format!("a{a}b{b}"),
                format!("a{a}b{b}c{c}"),
            ]
        }

        fn empty() -> ConceptHierarchy {
            ConceptHierarchy::new(
                DimensionId(0),
                HierarchySchema::new("D", vec!["A".into(), "B".into(), "C".into()]),
            )
        }

        /// `v`'s names from the top down.
        fn names_of(h: &ConceptHierarchy, v: ValueId) -> Vec<String> {
            let mut names = Vec::new();
            let mut cur = v;
            while let Some(parent) = h.parent(cur).unwrap() {
                names.push(h.name(cur).unwrap().to_string());
                cur = parent;
            }
            names.reverse();
            names
        }

        /// `snap` answers every read exactly like `fresh`, a hierarchy that
        /// interned the same prefix itself, and like the parent-pointer
        /// walk and a scan of the level.
        fn agrees(snap: &ConceptHierarchy, fresh: &ConceptHierarchy) {
            let top = fresh.top_level();
            prop_assert!(snap.dict.is_none());
            prop_assert_eq!(snap.num_values(), fresh.num_values());
            for level in 0..=top {
                prop_assert!(snap.values_at(level).eq(fresh.values_at(level)));
                for v in fresh.values_at(level) {
                    prop_assert_eq!(snap.name(v).unwrap(), fresh.name(v).unwrap());
                    prop_assert_eq!(snap.parent(v).unwrap(), fresh.parent(v).unwrap());
                    prop_assert_eq!(snap.children(v).unwrap(), fresh.children(v).unwrap());
                    for up in level..=top {
                        let at = snap.ancestor_at(v, up).unwrap();
                        prop_assert_eq!(at, fresh.ancestor_at(v, up).unwrap());
                        prop_assert_eq!(at, snap.ancestor_at_walk(v, up).unwrap());
                    }
                    if level > 0 {
                        for down in 0..level {
                            let scan: Vec<ValueId> = (fresh.values_at(down))
                                .filter(|&d| fresh.ancestor_at_walk(d, level).unwrap() == v)
                                .collect();
                            prop_assert_eq!(&snap.descendants_at(v, down).unwrap(), &scan);
                            prop_assert_eq!(&fresh.descendants_at(v, down).unwrap(), &scan);
                        }
                    }
                    let names = names_of(fresh, v);
                    prop_assert_eq!(snap.lookup_path(&names), Some(v));
                }
            }
            prop_assert_eq!(snap.lookup_path(&["a0", "nowhere"]), None);
            prop_assert!(!snap.contains(ValueId::new(0, fresh.num_values_at(0) as u32)));
        }

        /// After a snapshot and one intern, the two share every name chunk
        /// but the open tail of each level the intern grew, and every row
        /// buffer the intern did not outgrow.
        fn shares_all_but_tails(snap: &ConceptHierarchy, h: &ConceptHierarchy) {
            for (s, t) in snap.levels.iter().zip(&h.levels) {
                let grown = t.len != s.len;
                for (i, chunk) in s.chunks.iter().enumerate() {
                    let open_tail = i + 1 == s.chunks.len() && s.len % CHUNK != 0;
                    if !(grown && open_tail) {
                        prop_assert!(Arc::ptr_eq(chunk, &t.chunks[i]));
                    }
                }
                let full = (s.len + 1) * s.width >= s.rows.len();
                prop_assert_eq!(Arc::ptr_eq(&s.rows, &t.rows), !(grown && full));
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]

            #[test]
            fn snapshots_match_fresh_prefixes_and_share_chunks(ops in ops()) {
                let mut h = empty();
                let mut interned = Vec::new();
                let mut taken: Vec<(ConceptHierarchy, usize)> = Vec::new();
                let mut last: Option<ConceptHierarchy> = None;
                for op in &ops {
                    match *op {
                        Op::Intern(a, b, c) => {
                            h.intern_path(&path(a, b, c)).unwrap();
                            interned.push((a, b, c));
                            if let Some(snap) = last.take() {
                                shares_all_but_tails(&snap, &h);
                            }
                        }
                        Op::Snapshot => {
                            let snap = h.snapshot();
                            last = Some(snap.clone());
                            taken.push((snap, interned.len()));
                        }
                    }
                }
                taken.push((h.snapshot(), interned.len()));
                // Checked once everything is interned: a snapshot does not
                // change when its source interns later.
                for (snap, prefix) in &taken {
                    let mut fresh = empty();
                    for &(a, b, c) in &interned[..*prefix] {
                        fresh.intern_path(&path(a, b, c)).unwrap();
                    }
                    agrees(snap, &fresh);
                }
                // A snapshot and its source that append different values
                // to the rows they share each keep their own row.
                let (mut snap, _) = taken.pop().unwrap();
                let (a, b, _) = interned[0];
                let parent = h.lookup_path(&path(a, b, 0)[..2]).unwrap();
                let mine = snap.insert_child(parent, "extra").unwrap();
                let next = path(9, 9, 9);
                let theirs = h.intern_path(&next).unwrap();
                prop_assert_eq!(mine, theirs);
                prop_assert_eq!(snap.parent(mine).unwrap(), Some(parent));
                prop_assert_eq!(h.parent(theirs).unwrap(), h.lookup_path(&next[..2]));
                // The snapshot built its own dictionary and assigns what its
                // source would.
                let next = path(9, 9, 8);
                prop_assert_eq!(snap.intern_path(&next).unwrap(), h.intern_path(&next).unwrap());
                prop_assert_eq!(snap.lookup_path(&next), h.lookup_path(&next));
            }
        }
    }
}
