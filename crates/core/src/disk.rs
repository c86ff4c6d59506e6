//! The **paged** (disk-resident) DC-tree: nodes live behind a
//! [`NodeStore`], loaded and decoded on demand.
//!
//! The paper's trees are disk-based; the in-memory [`DcTree`](crate::DcTree)
//! models their I/O with logical counters, while this implementation makes
//! it physical: every node visit goes through the store's buffer pool, node
//! capacity and supernode growth follow the same rules as the in-memory
//! tree, and the whole store — schema, nodes, counters — round-trips
//! through [`flush`](PagedDcTree::flush)/[`open`](DiskDcTree::open).
//!
//! The algorithms (choose-subtree, hierarchy split with lazy refinement,
//! supernodes, materialized range queries and group-bys, deletion with
//! condensation) are the same as the in-memory tree's; the differential
//! test suite in `tests/disk_tree.rs` holds the two implementations to
//! identical answers on identical workloads.
//!
//! [`PagedDcTree`] is generic over its [`NodeStore`] so the same tree runs
//! over the single-threaded [`ChainStore`] (the classic [`DiskDcTree`]) and
//! over `dc-oocore`'s concurrent, scan-resistant pool with compressed node
//! pages. Queries take `&self`; only structural mutation (insert, delete,
//! flush) needs `&mut self`, which is what lets the out-of-core engine
//! serve concurrent readers under an `RwLock`.
//!
//! Chain layout (for chain-based stores): page 1 heads the metadata chain
//! (magic, root, counters, schema); every node occupies a chain of pages
//! (`[next: u64][len: u32][payload]` per page, like the paged checkpoint
//! store). Entry `child` handles store the head page of the child's chain.

use std::path::Path;

use dc_common::{
    AggregateOp, DcError, DcResult, DimensionId, Level, Measure, MeasureSummary, RecordId, ValueId,
};
use dc_hierarchy::{CubeSchema, Record};
use dc_mds::Mds;
use dc_storage::{ByteReader, ByteWriter, PageId, PoolStats};

use crate::config::DcTreeConfig;
use crate::node::{DirEntry, Node, NodeId, NodeKind, StoredRecord};
use crate::query::PreparedRange;
use crate::split::{align_members, hierarchy_split, SplitOutcome};
use crate::store::{ChainStore, NodeStore};

const META_MAGIC: u64 = 0x4443_4449_534b_3032; // "DCDISK02"

fn pid(id: NodeId) -> PageId {
    PageId(id.raw() as u64)
}

fn nid(page: PageId) -> NodeId {
    debug_assert!(
        page.0 <= u32::MAX as u64,
        "page id exceeds node-handle width"
    );
    NodeId::from_raw(page.0 as u32)
}

/// A DC-tree whose nodes live in a [`NodeStore`].
#[derive(Debug)]
pub struct PagedDcTree<S: NodeStore> {
    schema: CubeSchema,
    config: DcTreeConfig,
    store: S,
    root: PageId,
    next_record_id: u64,
    len: u64,
    nodes: u64,
}

/// The classic single-threaded disk tree: a [`PagedDcTree`] over the
/// uncompressed [`ChainStore`].
pub type DiskDcTree = PagedDcTree<ChainStore>;

impl DiskDcTree {
    /// Creates a fresh disk tree at `path` (truncating any existing file).
    /// `frames` bounds the buffer pool.
    pub fn create(
        path: impl AsRef<Path>,
        schema: CubeSchema,
        config: DcTreeConfig,
        frames: usize,
    ) -> DcResult<Self> {
        config.validate();
        let store = ChainStore::create(path, config.block, frames)?;
        Self::create_in(store, schema, config)
    }

    /// Opens an existing disk tree.
    pub fn open(path: impl AsRef<Path>, config: DcTreeConfig, frames: usize) -> DcResult<Self> {
        let store = ChainStore::open(path, config.block, frames)?;
        Self::open_in(store, config)
    }

    /// Buffer-pool counters: real page hits, misses, write-backs.
    pub fn pool_stats(&self) -> PoolStats {
        self.store.pool_stats()
    }
}

impl<S: NodeStore> PagedDcTree<S> {
    /// Creates a fresh tree inside `store` (which must be empty).
    pub fn create_in(store: S, schema: CubeSchema, config: DcTreeConfig) -> DcResult<Self> {
        config.validate();
        let mut tree = PagedDcTree {
            schema,
            config,
            store,
            root: PageId(0), // placeholder until the root is allocated
            next_record_id: 0,
            len: 0,
            nodes: 0,
        };
        let root_node = Node::new_data(Mds::all(&tree.schema));
        tree.root = tree.alloc_node(&root_node)?;
        tree.flush()?;
        Ok(tree)
    }

    /// Opens the tree persisted in `store`.
    pub fn open_in(store: S, config: DcTreeConfig) -> DcResult<Self> {
        config.validate();
        let bytes = store.read_meta()?;
        let mut r = ByteReader::new(&bytes);
        if r.get_u64()? != META_MAGIC {
            return Err(DcError::Corrupt("not a disk DC-tree".into()));
        }
        let root = r.get_u64()?;
        let next_record_id = r.get_u64()?;
        let len = r.get_u64()?;
        let nodes = r.get_u64()?;
        let schema = crate::persist::read_schema(&mut r)?;
        r.expect_end()?;
        Ok(PagedDcTree {
            schema,
            config,
            store,
            root: PageId(root),
            next_record_id,
            len,
            nodes,
        })
    }

    /// The cube schema.
    pub fn schema(&self) -> &CubeSchema {
        &self.schema
    }

    /// The configuration.
    pub fn config(&self) -> &DcTreeConfig {
        &self.config
    }

    /// The backing store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Stored records.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` iff empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Live nodes (directory + data), maintained across alloc/free.
    pub fn num_nodes(&self) -> u64 {
        self.nodes
    }

    /// Tree height (number of node levels).
    pub fn height(&self) -> DcResult<usize> {
        let mut h = 1;
        let mut page = self.root;
        loop {
            let node = self.load_node(page)?;
            match &node.kind {
                NodeKind::Dir(entries) => {
                    h += 1;
                    page = pid(entries[0].child);
                }
                NodeKind::Data(_) => return Ok(h),
            }
        }
    }

    /// The materialized total, read from the root.
    pub fn total_summary(&self) -> DcResult<MeasureSummary> {
        Ok(self.load_node(self.root)?.summary)
    }

    /// Interns attribute paths into the schema without storing a record —
    /// the catalog-replay hook that keeps shard `ValueId` spaces aligned
    /// (see `SchemaCatalog` in dc-serve).
    pub fn intern_paths<T: AsRef<str>>(&mut self, paths: &[Vec<T>]) -> DcResult<Vec<ValueId>> {
        Ok(self.schema.intern_record(paths, 0)?.dims)
    }

    // ------------------------------------------------------------------
    // Node I/O through the store
    // ------------------------------------------------------------------

    fn load_node(&self, page: PageId) -> DcResult<Node> {
        self.store.load_node(page, self.schema.num_dims())
    }

    fn store_node(&self, page: PageId, node: &Node) -> DcResult<()> {
        self.store.store_node(page, node)
    }

    fn alloc_node(&mut self, node: &Node) -> DcResult<PageId> {
        let page = self.store.alloc_node(node)?;
        self.nodes += 1;
        Ok(page)
    }

    fn free_node(&mut self, page: PageId) -> DcResult<()> {
        self.store.free_node(page)?;
        self.nodes = self.nodes.saturating_sub(1);
        Ok(())
    }

    /// Persists metadata + schema and flushes the store to disk.
    pub fn flush(&mut self) -> DcResult<()> {
        let mut w = ByteWriter::new();
        w.put_u64(META_MAGIC);
        w.put_u64(self.root.0);
        w.put_u64(self.next_record_id);
        w.put_u64(self.len);
        w.put_u64(self.nodes);
        crate::persist::write_schema(&mut w, &self.schema);
        self.store.write_meta(&w.into_vec())?;
        self.store.sync()
    }

    // ------------------------------------------------------------------
    // Insertion — the same algorithm as the in-memory tree, via load/store
    // ------------------------------------------------------------------

    /// Inserts a raw record (paths are interned dynamically).
    pub fn insert_raw<T: AsRef<str>>(
        &mut self,
        paths: &[Vec<T>],
        measure: Measure,
    ) -> DcResult<RecordId> {
        let record = self.schema.intern_record(paths, measure)?;
        self.insert(record)
    }

    /// Inserts a pre-interned record.
    pub fn insert(&mut self, record: Record) -> DcResult<RecordId> {
        self.schema.validate_record(&record)?;
        let id = RecordId(self.next_record_id);
        self.next_record_id += 1;
        let stored = StoredRecord { id, record };
        if let Some(sibling) = self.insert_rec(self.root, &stored)? {
            self.grow_root(sibling)?;
        }
        self.len += 1;
        Ok(id)
    }

    /// Installs a new directory root over the old root and `sibling`.
    fn grow_root(&mut self, sibling: PageId) -> DcResult<()> {
        let old_root = self.load_node(self.root)?;
        let new_node = self.load_node(sibling)?;
        let mds = old_root.mds.cover(&new_node.mds, &self.schema)?;
        let entries = vec![
            DirEntry {
                mds: old_root.mds.clone(),
                summary: old_root.summary,
                child: nid(self.root),
            },
            DirEntry {
                mds: new_node.mds.clone(),
                summary: new_node.summary,
                child: nid(sibling),
            },
        ];
        let root = Node::new_dir(mds, entries);
        self.root = self.alloc_node(&root)?;
        Ok(())
    }

    fn insert_rec(&mut self, page: PageId, stored: &StoredRecord) -> DcResult<Option<PageId>> {
        let mut node = self.load_node(page)?;
        match &mut node.kind {
            NodeKind::Data(records) => {
                node.summary.add(stored.record.measure);
                node.mds
                    .extend_to_cover_record(&self.schema, &stored.record)?;
                records.push(stored.clone());
                let over = records.len() > self.config.data_capacity * node.blocks as usize;
                self.store_node(page, &node)?;
                if over {
                    return self.split_node(page);
                }
                Ok(None)
            }
            NodeKind::Dir(_) => {
                let choice = choose_subtree(&self.schema, &node, &stored.record)?;
                node.summary.add(stored.record.measure);
                node.mds
                    .extend_to_cover_record(&self.schema, &stored.record)?;
                let child = {
                    let entries = node.entries_mut();
                    entries[choice].summary.add(stored.record.measure);
                    entries[choice]
                        .mds
                        .extend_to_cover_record(&self.schema, &stored.record)?;
                    entries[choice].child
                };
                self.store_node(page, &node)?;

                if let Some(sibling) = self.insert_rec(pid(child), stored)? {
                    let refreshed = self.load_node(pid(child))?;
                    let new_node = self.load_node(sibling)?;
                    let mut node = self.load_node(page)?;
                    {
                        let entries = node.entries_mut();
                        let e = entries
                            .iter_mut()
                            .find(|e| e.child == child)
                            .expect("split child still referenced");
                        e.mds = refreshed.mds.clone();
                        e.summary = refreshed.summary;
                        entries.push(DirEntry {
                            mds: new_node.mds.clone(),
                            summary: new_node.summary,
                            child: nid(sibling),
                        });
                    }
                    let over = node.len() > self.config.dir_capacity * node.blocks as usize;
                    self.store_node(page, &node)?;
                    if over {
                        return self.split_node(page);
                    }
                }
                Ok(None)
            }
        }
    }

    /// The split of §4.2 with the same calibration as the in-memory tree
    /// (level descent, lazy refinement, disjoint acceptance, geometric
    /// supernode growth, block bound).
    fn split_node(&mut self, page: PageId) -> DcResult<Option<PageId>> {
        let node = self.load_node(page)?;
        let (member_mds, children): (Vec<Mds>, Option<Vec<NodeId>>) = match &node.kind {
            NodeKind::Dir(entries) => (
                entries.iter().map(|e| e.mds.clone()).collect(),
                Some(entries.iter().map(|e| e.child).collect()),
            ),
            NodeKind::Data(records) => (
                records
                    .iter()
                    .map(|r| Mds::from_record(&r.record))
                    .collect(),
                None,
            ),
        };
        let node_levels = node.mds.levels();
        let node_dim_lens: Vec<usize> = (0..node.mds.num_dims())
            .map(|d| node.mds.dim(d).len())
            .collect();
        let num_members = member_mds.len();
        let min_group = self.config.min_group(num_members);

        let mut dims: Vec<usize> = (0..node_levels.len()).collect();
        dims.sort_by_key(|&d| std::cmp::Reverse(node_levels[d]));
        let align_levels: Vec<u8> = (0..node_levels.len())
            .map(|dim| {
                member_mds
                    .iter()
                    .map(|m| m.dim(dim).level())
                    .max()
                    .unwrap_or(node_levels[dim])
                    .max(node_levels[dim])
            })
            .collect();

        let mut best_rejected: Option<(SplitOutcome, f64)> = None;
        for &d in &dims {
            let start = if node_dim_lens[d] < 2 && node_levels[d] > 0 {
                node_levels[d] - 1
            } else {
                node_levels[d]
            };
            for level in (0..=start).rev() {
                let (analysis, refinements) =
                    align_members(&self.schema, &member_mds, &align_levels, d, level, |i| {
                        match &children {
                            Some(kids) => self.subtree_dimset_at(pid(kids[i]), d, level),
                            None => unreachable!("records sit on leaf level 0"),
                        }
                    })?;
                let Some(outcome) = hierarchy_split(&self.schema, &analysis, d, min_group)? else {
                    break;
                };
                let ratio = outcome.overlap_ratio();
                let balanced = outcome.min_group_len() >= min_group
                    || (ratio == 0.0 && outcome.min_group_len() >= 2);
                let low_overlap = ratio <= self.config.max_overlap;
                if balanced && low_overlap {
                    // Commit lazy refinement to children and this node's
                    // entries before partitioning.
                    if !refinements.is_empty() {
                        let mut node = self.load_node(page)?;
                        for (i, refined) in &refinements {
                            let child = children.as_ref().expect("dir refinement")[*i];
                            let mut child_node = self.load_node(pid(child))?;
                            *child_node.mds.dim_mut(d) = refined.clone();
                            self.store_node(pid(child), &child_node)?;
                            *node.entries_mut()[*i].mds.dim_mut(d) = refined.clone();
                        }
                        self.store_node(page, &node)?;
                    }
                    return Ok(Some(self.apply_split(page, outcome)?));
                }
                let better = match &best_rejected {
                    None => true,
                    Some((prev, prev_ratio)) => {
                        (outcome.min_group_len(), -ratio) > (prev.min_group_len(), -prev_ratio)
                    }
                };
                if better && outcome.min_group_len() >= 1 && refinements.is_empty() {
                    best_rejected = Some((outcome, ratio));
                }
            }
        }

        let may_grow = self.config.allow_supernodes
            && self.load_node(page)?.blocks < self.config.max_supernode_blocks;
        if may_grow {
            let mut node = self.load_node(page)?;
            node.blocks += (node.blocks / 4).max(1);
            self.store_node(page, &node)?;
            Ok(None)
        } else {
            let outcome = match best_rejected {
                Some((outcome, _)) => outcome,
                None => {
                    let mid = num_members / 2;
                    let group1: Vec<usize> = (0..mid).collect();
                    let group2: Vec<usize> = (mid..num_members).collect();
                    let cover_of = |idx: &[usize]| -> DcResult<Mds> {
                        let mut cover: Option<Mds> = None;
                        for &i in idx {
                            cover = Some(match cover {
                                None => member_mds[i].clone(),
                                Some(c) => c.cover(&member_mds[i], &self.schema)?,
                            });
                        }
                        Ok(cover.expect("non-empty group"))
                    };
                    SplitOutcome {
                        cover1: cover_of(&group1)?,
                        cover2: cover_of(&group2)?,
                        group1,
                        group2,
                    }
                }
            };
            Ok(Some(self.apply_split(page, outcome)?))
        }
    }

    fn apply_split(&mut self, page: PageId, outcome: SplitOutcome) -> DcResult<PageId> {
        let SplitOutcome {
            group1,
            group2,
            cover1,
            cover2,
        } = outcome;
        let node = self.load_node(page)?;
        let (mut keep, sibling) = match node.kind {
            NodeKind::Data(records) => {
                let mut in1 = vec![false; records.len()];
                for &i in &group1 {
                    in1[i] = true;
                }
                let _ = &group2;
                let (mut part1, mut part2) = (Vec::new(), Vec::new());
                for (i, r) in records.into_iter().enumerate() {
                    if in1[i] {
                        part1.push(r);
                    } else {
                        part2.push(r);
                    }
                }
                let summary1: MeasureSummary = part1.iter().map(|r| r.record.measure).collect();
                let summary2: MeasureSummary = part2.iter().map(|r| r.record.measure).collect();
                let mut keep = Node::new_data(cover1);
                keep.summary = summary1;
                *keep.records_mut() = part1;
                let mut sib = Node::new_data(cover2);
                sib.summary = summary2;
                *sib.records_mut() = part2;
                (keep, sib)
            }
            NodeKind::Dir(entries) => {
                let mut in1 = vec![false; entries.len()];
                for &i in &group1 {
                    in1[i] = true;
                }
                let (mut part1, mut part2) = (Vec::new(), Vec::new());
                for (i, e) in entries.into_iter().enumerate() {
                    if in1[i] {
                        part1.push(e);
                    } else {
                        part2.push(e);
                    }
                }
                let keep = Node::new_dir(cover1, part1);
                let sib = Node::new_dir(cover2, part2);
                (keep, sib)
            }
        };
        let shrink = |n: &Node, cfg: &DcTreeConfig| -> u32 {
            let cap = if n.is_data() {
                cfg.data_capacity
            } else {
                cfg.dir_capacity
            };
            (n.len().div_ceil(cap)).max(1) as u32
        };
        keep.blocks = shrink(&keep, &self.config);
        let mut sibling = sibling;
        sibling.blocks = shrink(&sibling, &self.config);
        self.store_node(page, &keep)?;
        let sib_page = self.alloc_node(&sibling)?;
        Ok(sib_page)
    }

    fn subtree_dimset_at(&self, page: PageId, d: usize, level: u8) -> DcResult<dc_mds::DimSet> {
        let node = self.load_node(page)?;
        if node.mds.dim(d).level() <= level {
            let h = self.schema.dims().nth(d).expect("dimension in schema");
            return node.mds.dim(d).adapt_to(h, level);
        }
        match &node.kind {
            NodeKind::Data(records) => {
                let h = self.schema.dims().nth(d).expect("dimension in schema");
                let mut values = Vec::with_capacity(records.len());
                for r in records {
                    values.push(h.ancestor_at(r.record.dims[d], level)?);
                }
                values.sort_unstable();
                values.dedup();
                Ok(dc_mds::DimSet::new(level, values))
            }
            NodeKind::Dir(entries) => {
                let parts: Vec<(dc_mds::DimSet, Option<NodeId>)> = entries
                    .iter()
                    .map(|e| {
                        if e.mds.dim(d).level() <= level {
                            Ok((e.mds.dim(d).clone(), None))
                        } else {
                            Ok((dc_mds::DimSet::new(level, Vec::new()), Some(e.child)))
                        }
                    })
                    .collect::<DcResult<_>>()?;
                let mut acc: Option<dc_mds::DimSet> = None;
                for (set, descend) in parts {
                    let part = match descend {
                        None => {
                            let h = self.schema.dims().nth(d).expect("dimension in schema");
                            set.adapt_to(h, level)?
                        }
                        Some(child) => self.subtree_dimset_at(pid(child), d, level)?,
                    };
                    acc = Some(match acc {
                        None => part,
                        Some(mut a) => {
                            a.union_with(&part);
                            a
                        }
                    });
                }
                acc.ok_or_else(|| DcError::Corrupt("directory node without entries".into()))
            }
        }
    }

    // ------------------------------------------------------------------
    // Queries — `&self`, so concurrent readers can share the tree
    // ------------------------------------------------------------------

    /// Prepares a range against this tree's schema and containment mode.
    pub fn prepare_range(&self, range: &Mds) -> DcResult<PreparedRange> {
        PreparedRange::with_mode(&self.schema, range, self.config.use_paper_fig7_containment)
    }

    /// Range query with one aggregation operator.
    pub fn range_query(&self, range: &Mds, op: AggregateOp) -> DcResult<Option<f64>> {
        Ok(self.range_summary(range)?.eval(op))
    }

    /// Range query returning the mergeable summary (Fig. 7 with the
    /// materialized shortcut, pages loaded through the buffer pool).
    pub fn range_summary(&self, range: &Mds) -> DcResult<MeasureSummary> {
        if range.num_dims() != self.schema.num_dims() {
            return Err(DcError::DimensionMismatch {
                expected: self.schema.num_dims(),
                got: range.num_dims(),
            });
        }
        let prepared = self.prepare_range(range)?;
        self.range_summary_prepared(&prepared)
    }

    /// Range query from an already-[prepared](Self::prepare_range) range.
    /// Same cross-schema contract as the in-memory tree: the range may have
    /// been prepared against any schema assigning the same `ValueId`s.
    pub fn range_summary_prepared(&self, prepared: &PreparedRange) -> DcResult<MeasureSummary> {
        if prepared.num_dims() != self.schema.num_dims() {
            return Err(DcError::DimensionMismatch {
                expected: self.schema.num_dims(),
                got: prepared.num_dims(),
            });
        }
        let mut acc = MeasureSummary::empty();
        self.query_rec(self.root, prepared, &mut acc)?;
        Ok(acc)
    }

    fn query_rec(
        &self,
        page: PageId,
        range: &PreparedRange,
        acc: &mut MeasureSummary,
    ) -> DcResult<()> {
        let node = self.load_node(page)?;
        match &node.kind {
            NodeKind::Data(records) => {
                for r in records {
                    if range.contains_record(&self.schema, &r.record)? {
                        acc.add(r.record.measure);
                    }
                }
            }
            NodeKind::Dir(entries) => {
                for e in entries {
                    if !range.overlaps(&self.schema, &e.mds)? {
                        continue;
                    }
                    if self.config.use_materialized_aggregates
                        && range.contains_entry(&self.schema, &e.mds)?
                    {
                        acc.merge(&e.summary);
                    } else {
                        self.query_rec(pid(e.child), range, acc)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Groups the records inside `filter` by their ancestor on
    /// `(group_dim, group_level)` — same single-traversal algorithm (and
    /// materialized shortcut) as the in-memory tree.
    pub fn group_by(
        &self,
        group_dim: DimensionId,
        group_level: Level,
        filter: &Mds,
    ) -> DcResult<Vec<(ValueId, MeasureSummary)>> {
        if filter.num_dims() != self.schema.num_dims() {
            return Err(DcError::DimensionMismatch {
                expected: self.schema.num_dims(),
                got: filter.num_dims(),
            });
        }
        let prepared = PreparedRange::new(&self.schema, filter)?;
        self.group_by_prepared(group_dim, group_level, &prepared)
    }

    /// [`Self::group_by`] from an already-prepared filter.
    pub fn group_by_prepared(
        &self,
        group_dim: DimensionId,
        group_level: Level,
        prepared: &PreparedRange,
    ) -> DcResult<Vec<(ValueId, MeasureSummary)>> {
        if prepared.num_dims() != self.schema.num_dims() {
            return Err(DcError::DimensionMismatch {
                expected: self.schema.num_dims(),
                got: prepared.num_dims(),
            });
        }
        let h = self.schema.dim(group_dim);
        if group_level > h.top_level() {
            return Err(DcError::BadLevel {
                dim: group_dim,
                id: h.all(),
                requested: group_level,
            });
        }
        let mut groups: Vec<MeasureSummary> =
            vec![MeasureSummary::empty(); h.num_values_at(group_level)];
        self.group_rec(self.root, prepared, group_dim, group_level, &mut groups)?;
        Ok(groups
            .into_iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(|(i, s)| (ValueId::new(group_level, i as u32), s))
            .collect())
    }

    fn group_rec(
        &self,
        page: PageId,
        filter: &PreparedRange,
        group_dim: DimensionId,
        group_level: Level,
        groups: &mut [MeasureSummary],
    ) -> DcResult<()> {
        let node = self.load_node(page)?;
        let h = self.schema.dim(group_dim);
        match &node.kind {
            NodeKind::Data(records) => {
                for r in records {
                    if filter.contains_record(&self.schema, &r.record)? {
                        let key =
                            h.ancestor_at(r.record.dims[group_dim.as_usize()], group_level)?;
                        groups[key.index() as usize].add(r.record.measure);
                    }
                }
            }
            NodeKind::Dir(entries) => {
                for e in entries {
                    if !filter.overlaps(&self.schema, &e.mds)? {
                        continue;
                    }
                    // The materialized shortcut applies when the entry lies
                    // fully inside the filter AND maps to a single group
                    // value (its group-dim set collapses to one ancestor).
                    let single_group = self.single_group_of(&e.mds, group_dim, group_level)?;
                    if self.config.use_materialized_aggregates
                        && filter.contains_entry(&self.schema, &e.mds)?
                    {
                        if let Some(key) = single_group {
                            groups[key.index() as usize].merge(&e.summary);
                            continue;
                        }
                    }
                    self.group_rec(pid(e.child), filter, group_dim, group_level, groups)?;
                }
            }
        }
        Ok(())
    }

    /// If every value of `mds`'s group dimension lies below one single value
    /// on `group_level`, returns that value.
    fn single_group_of(
        &self,
        mds: &Mds,
        group_dim: DimensionId,
        group_level: Level,
    ) -> DcResult<Option<ValueId>> {
        let h = self.schema.dim(group_dim);
        let set = mds.dim(group_dim.as_usize());
        if set.level() > group_level {
            return Ok(None); // coarser than the grouping level: spans many
        }
        let mut single: Option<ValueId> = None;
        for &v in set.values() {
            let anc = h.ancestor_at(v, group_level)?;
            match single {
                None => single = Some(anc),
                Some(prev) if prev == anc => {}
                Some(_) => return Ok(None),
            }
        }
        Ok(single)
    }

    // ------------------------------------------------------------------
    // Deletion
    // ------------------------------------------------------------------

    /// Deletes one record equal to `record`; `false` when absent.
    pub fn delete(&mut self, record: &Record) -> DcResult<bool> {
        self.schema.validate_record(record)?;
        let mut orphans = Vec::new();
        if !self.delete_rec(self.root, record, &mut orphans)? {
            return Ok(false);
        }
        self.len -= 1;
        // Collapse single-entry roots.
        loop {
            let node = self.load_node(self.root)?;
            match &node.kind {
                NodeKind::Dir(entries) if entries.len() == 1 => {
                    let child = pid(entries[0].child);
                    self.free_node(self.root)?;
                    self.root = child;
                }
                NodeKind::Dir(entries) if entries.is_empty() => {
                    let fresh = Node::new_data(Mds::all(&self.schema));
                    self.store_node(self.root, &fresh)?;
                    break;
                }
                _ => break,
            }
        }
        for orphan in orphans {
            // Re-insert without consuming new record ids.
            if let Some(sibling) = self.insert_rec(self.root, &orphan)? {
                self.grow_root(sibling)?;
            }
        }
        Ok(true)
    }

    fn delete_rec(
        &mut self,
        page: PageId,
        record: &Record,
        orphans: &mut Vec<StoredRecord>,
    ) -> DcResult<bool> {
        let mut node = self.load_node(page)?;
        match &mut node.kind {
            NodeKind::Data(records) => {
                let Some(pos) = records.iter().position(|r| &r.record == record) else {
                    return Ok(false);
                };
                records.remove(pos);
                recompute_node(&self.schema, &mut node)?;
                self.store_node(page, &node)?;
                Ok(true)
            }
            NodeKind::Dir(_) => {
                let candidates: Vec<(usize, NodeId)> = node
                    .entries()
                    .iter()
                    .enumerate()
                    .filter_map(|(i, e)| match e.mds.contains_record(&self.schema, record) {
                        Ok(true) => Some(Ok((i, e.child))),
                        Ok(false) => None,
                        Err(e) => Some(Err(e)),
                    })
                    .collect::<DcResult<_>>()?;
                for (i, child) in candidates {
                    if !self.delete_rec(pid(child), record, orphans)? {
                        continue;
                    }
                    let child_node = self.load_node(pid(child))?;
                    let min_fill_len = self.config.min_group(if child_node.is_data() {
                        self.config.data_capacity
                    } else {
                        self.config.dir_capacity
                    });
                    let mut node = self.load_node(page)?;
                    if child_node.len() < min_fill_len {
                        self.collect_subtree(pid(child), orphans)?;
                        node.entries_mut().remove(i);
                    } else {
                        let cap = if child_node.is_data() {
                            self.config.data_capacity
                        } else {
                            self.config.dir_capacity
                        };
                        let needed = (child_node.len().div_ceil(cap)).max(1) as u32;
                        if needed < child_node.blocks {
                            let mut shrunk = child_node;
                            shrunk.blocks = needed;
                            self.store_node(pid(child), &shrunk)?;
                        }
                        let refreshed = self.load_node(pid(child))?;
                        node.entries_mut()[i] = DirEntry {
                            mds: refreshed.mds.clone(),
                            summary: refreshed.summary,
                            child,
                        };
                    }
                    recompute_node(&self.schema, &mut node)?;
                    self.store_node(page, &node)?;
                    return Ok(true);
                }
                Ok(false)
            }
        }
    }

    fn collect_subtree(&mut self, page: PageId, out: &mut Vec<StoredRecord>) -> DcResult<()> {
        let node = self.load_node(page)?;
        match node.kind {
            NodeKind::Data(mut records) => out.append(&mut records),
            NodeKind::Dir(entries) => {
                for e in entries {
                    self.collect_subtree(pid(e.child), out)?;
                }
            }
        }
        self.free_node(page)
    }
}

/// Choose-subtree identical to the in-memory tree's criterion.
fn choose_subtree(schema: &CubeSchema, node: &Node, record: &Record) -> DcResult<usize> {
    let entries = node.entries();
    debug_assert!(!entries.is_empty());
    let mut best_covering: Option<(u128, usize, usize)> = None;
    for (i, e) in entries.iter().enumerate() {
        if e.mds.contains_record(schema, record)? {
            let key = (e.mds.volume(), e.mds.size(), i);
            if best_covering.is_none_or(|b| key < b) {
                best_covering = Some(key);
            }
        }
    }
    if let Some((_, _, i)) = best_covering {
        return Ok(i);
    }
    let d = schema.num_dims();
    let mut holds = vec![false; entries.len() * d];
    let mut holders_per_dim = vec![0usize; d];
    for (i, e) in entries.iter().enumerate() {
        for (dim, h) in schema.dims().enumerate() {
            let anc = h.ancestor_at(record.dims[dim], e.mds.dim(dim).level())?;
            if e.mds.dim(dim).contains_value(anc) {
                holds[i * d + dim] = true;
                holders_per_dim[dim] += 1;
            }
        }
    }
    let mut best: Option<(usize, u128, u128, usize, usize)> = None;
    for (i, e) in entries.iter().enumerate() {
        let mut overlap_penalty = 0usize;
        for dim in 0..d {
            if !holds[i * d + dim] {
                overlap_penalty += holders_per_dim[dim];
            }
        }
        let enlargement = e.mds.enlargement_for_record(schema, record)?;
        let key = (
            overlap_penalty,
            enlargement,
            e.mds.volume(),
            e.mds.size(),
            i,
        );
        if best.is_none_or(|b| key < b) {
            best = Some(key);
        }
    }
    Ok(best.expect("non-empty entries").4)
}

/// Recompute summary + minimal MDS after a deletion (same as in-memory).
fn recompute_node(schema: &CubeSchema, node: &mut Node) -> DcResult<()> {
    let levels = node.mds.levels();
    let (mds, summary) = match &node.kind {
        NodeKind::Data(records) => {
            if records.is_empty() {
                (node.mds.clone(), MeasureSummary::empty())
            } else {
                let mut mds: Option<Mds> = None;
                let mut summary = MeasureSummary::empty();
                for r in records {
                    summary.add(r.record.measure);
                    let p = Mds::from_record(&r.record).adapt_to_levels(schema, &levels)?;
                    mds = Some(match mds {
                        None => p,
                        Some(m) => m.union_aligned(&p),
                    });
                }
                (mds.expect("non-empty records"), summary)
            }
        }
        NodeKind::Dir(entries) => {
            let levels: Vec<u8> = (0..node.mds.num_dims())
                .map(|dim| {
                    entries
                        .iter()
                        .map(|e| e.mds.dim(dim).level())
                        .max()
                        .unwrap_or(levels[dim])
                })
                .collect();
            let mut mds: Option<Mds> = None;
            let mut summary = MeasureSummary::empty();
            for e in entries {
                summary.merge(&e.summary);
                let p = e.mds.adapt_to_levels(schema, &levels)?;
                mds = Some(match mds {
                    None => p,
                    Some(m) => m.union_aligned(&p),
                });
            }
            (mds.unwrap_or_else(|| node.mds.clone()), summary)
        }
    };
    node.mds = mds;
    node.summary = summary;
    Ok(())
}
