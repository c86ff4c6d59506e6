//! The DC-tree proper: construction, record-at-a-time insertion with
//! hierarchy splits and supernodes, measure-materialized range queries, and
//! deletion — written once against a [`NodeStore`], so the same algorithms
//! run over the in-memory [`Arena`] and over disk pages.

use std::collections::HashMap;
use std::sync::Arc;

use dc_common::{
    AggregateOp, DcError, DcResult, DimensionId, Level, Measure, MeasureSummary, ValueId,
};
use dc_hierarchy::{CubeSchema, Dims, Record};
use dc_mds::Mds;
use dc_storage::{ByteReader, ByteWriter, IoStats};

use crate::choose::MembershipIndex;
use crate::config::DcTreeConfig;
use crate::node::{DirEntry, Members, Node, NodeId, NodeKind};
use crate::query::{Cells, PreparedRange, QueryOutput, Select, Visitor};
use crate::split::{align_members, connected, hierarchy_split, SplitOutcome};
use crate::store::{Arena, CopiedBytes, NodeStore, PersistentStore};

/// Records of a data child the split path's connectivity test reads for a
/// member it would otherwise have to refine. Fewer connect fewer attempts,
/// so more pay for the refinement walk; more cost more to read than the
/// walks they save. Replaying a two-shard 200 k-record TPC-D writer stream
/// (2-vCPU guest), failed directory splits took 0.7–0.9 / 1.6–1.9 µs per
/// record (shard 0 / 1) at 16, against 1.9–2.1 / 2.5–2.8 at 4, 2.1 /
/// 2.4–3.7 at 64 and 2.9–3.0 / 3.3–3.6 reading every record.
const SAMPLED_RECORDS: usize = 16;

/// Tree metadata: counters, schema and the root entry.
const META_MAGIC: u64 = 0x4443_4449_534b_3034; // "DCDISK04"
/// Tree metadata that also holds a record-id counter, read and dropped.
const META_MAGIC_WITH_ID_COUNTER: u64 = 0x4443_4449_534b_3033; // "DCDISK03"
/// Tree metadata with the id counter and without the root entry: the
/// root's MDS and summary sit in its page's header (node format 1).
const META_MAGIC_NO_ROOT_ENTRY: u64 = 0x4443_4449_534b_3032; // "DCDISK02"

/// Internal operation counters, useful for performance diagnosis and the
/// benchmark harness. All counters are cumulative since construction.
#[derive(Clone, Copy, Default, Debug)]
pub struct TreeMetrics {
    /// Node splits that succeeded.
    pub splits: u64,
    /// Split attempts that failed in every dimension (→ supernode growth or
    /// forced split).
    pub failed_splits: u64,
    /// Supernode block-growth events.
    pub supernode_growths: u64,
    /// Wall time spent inside the split machinery, in nanoseconds.
    pub split_nanos: u64,
    /// Wall time spent choosing the subtree to descend into (and extending
    /// the chosen entry), in nanoseconds.
    pub choose_nanos: u64,
    /// Range-query directory entries answered from the materialized
    /// summary (Fig. 7's contained-entry shortcut).
    pub shortcut_hits: u64,
    /// Range-query directory entries that had to be descended.
    pub descents: u64,
    /// Bytes the store copied because a snapshot shared the nodes and
    /// blocks mutations changed (see [`crate::store`]).
    pub copied: CopiedBytes,
}

/// Interior-mutable query counters (queries take `&self`).
#[derive(Debug, Default)]
struct QueryCounters {
    shortcut_hits: std::sync::atomic::AtomicU64,
    descents: std::sync::atomic::AtomicU64,
    pages: std::sync::atomic::AtomicU64,
}

impl Clone for QueryCounters {
    fn clone(&self) -> Self {
        use std::sync::atomic::Ordering::Relaxed;
        let c = QueryCounters::default();
        c.shortcut_hits
            .store(self.shortcut_hits.load(Relaxed), Relaxed);
        c.descents.store(self.descents.load(Relaxed), Relaxed);
        c.pages.store(self.pages.load(Relaxed), Relaxed);
        c
    }
}

/// One read's own work — its entry decisions and the blocks of every node
/// it visited — added to [`QueryCounters`] once when the read ends.
#[derive(Default)]
struct Tally {
    shortcut_hits: u64,
    descents: u64,
    pages: u64,
}

/// The DC-tree: a fully dynamic, MDS-based index over a data cube with
/// materialized measures in every directory entry.
///
/// The nodes live in `S`: the in-memory [`Arena`] by default, or any paged
/// [`NodeStore`] — the paper's nodes are disk blocks, and every algorithm
/// here touches a node only by reading it or by running one mutation step
/// on it, which is one load and at most one store for a paged store.
/// Queries take `&self`; only structural mutation needs `&mut self`, which
/// is what lets a disk-backed shard serve concurrent readers under an
/// `RwLock`.
///
/// See the [crate-level documentation](crate) for an overview and a usage
/// example.
///
/// `clone` on the default store is the snapshot operation: it copies one
/// pointer per node plus the schema pointer, and the two trees share every
/// node until one of them mutates it (see [`crate::store`]). The schema is
/// shared the same way. The first intern that follows a clone copies it,
/// name dictionaries included, while its value storage stays shared (see
/// [`dc_hierarchy::ConceptHierarchy`]).
#[derive(Clone, Debug)]
pub struct DcTree<S = Arena> {
    schema: Arc<CubeSchema>,
    config: DcTreeConfig,
    pub(crate) store: S,
    /// The root's entry: the tree's MDS and materialized summary, and the
    /// root node. A child's sit in its parent's entries.
    pub(crate) root: DirEntry,
    /// The writer's logical page I/O: every block of every node a mutation
    /// reads or writes. Reads add theirs to [`QueryCounters`].
    io: IoStats,
    len: u64,
    /// Live nodes, maintained across alloc/free.
    nodes: usize,
    /// Node levels, maintained wherever the root moves.
    height: usize,
    metrics: TreeMetrics,
    query_counters: QueryCounters,
    /// The writer's choose-subtree index over large directory nodes; a
    /// clone starts without it (see [`crate::choose`]).
    pub(crate) members: MembershipIndex,
}

impl DcTree {
    /// Creates an empty DC-tree over `schema`. The root starts as a data
    /// node with the MDS `(ALL, …, ALL)` — "the relevant level is
    /// initialized to the top level for each dimension" (§3.2).
    pub fn new(schema: CubeSchema, config: DcTreeConfig) -> Self {
        Self::with_store(Arena::default(), schema, config).expect("arena allocation cannot fail")
    }

    /// Rebuilds the tree from scratch via a hierarchy-sorted bulk load —
    /// compaction after heavy churn (deletes leave recycled arena slots and
    /// per-node slack that a fresh load removes).
    pub fn rebuild(&mut self) -> DcResult<()> {
        let records: Vec<Record> = self.iter_records().cloned().collect();
        let sorted = self.sorted_by_hierarchy(records)?;
        let mut fresh = DcTree::new(CubeSchema::clone(&self.schema), self.config);
        fresh.len = sorted.len() as u64;
        if !sorted.is_empty() {
            fresh.build_from_sorted(sorted)?;
        }
        // Keep the I/O counters; the rebuild itself is not charged.
        let io = self.io_stats();
        *self = fresh;
        self.io = io;
        Ok(())
    }

    /// Iterates over every stored record (diagnostics and tests; order is
    /// unspecified).
    pub fn iter_records(&self) -> impl Iterator<Item = &Record> {
        self.store
            .iter()
            .filter_map(|(_, n)| match &n.kind {
                NodeKind::Data(records) => Some(records.iter()),
                NodeKind::Dir(_) => None,
            })
            .flatten()
    }
}

impl<S: PersistentStore> DcTree<S> {
    /// Creates a fresh tree inside `store` (which must be empty) and
    /// persists it, so the store can be reopened from here on.
    pub fn create_in(mut store: S, schema: CubeSchema, config: DcTreeConfig) -> DcResult<Self> {
        store.set_num_dims(schema.num_dims());
        let mut tree = Self::with_store(store, schema, config)?;
        tree.flush()?;
        Ok(tree)
    }

    /// Opens the tree persisted in `store`.
    ///
    /// Metadata of the earlier forms is read too: a record-id counter is
    /// read and dropped, and metadata written before the root entry was
    /// part of it takes the root's MDS and summary from its page's header.
    pub fn open_in(mut store: S, config: DcTreeConfig) -> DcResult<Self> {
        let bytes = store.read_meta()?;
        let mut r = ByteReader::new(&bytes);
        let (id_counter, root_entry) = match r.get_u64()? {
            META_MAGIC => (false, true),
            META_MAGIC_WITH_ID_COUNTER => (true, true),
            META_MAGIC_NO_ROOT_ENTRY => (true, false),
            _ => return Err(DcError::Corrupt("not a disk DC-tree".into())),
        };
        let child = u32::try_from(r.get_u64()?)
            .map(NodeId::from_raw)
            .map_err(|_| DcError::Corrupt("root handle exceeds the node-handle width".into()))?;
        if id_counter {
            r.get_u64()?;
        }
        let len = r.get_u64()?;
        let nodes = r.get_u64()? as usize;
        let schema = Arc::new(crate::persist::read_schema(&mut r)?);
        store.set_num_dims(schema.num_dims());
        let (mds, summary) = if root_entry {
            store.decode_cover(&mut r)?
        } else {
            store.legacy_cover(child)?
        };
        r.expect_end()?;
        let root = DirEntry {
            mds,
            summary,
            child,
        };
        Self::from_stored(schema, config, store, root, len, nodes)
    }

    /// Persists metadata (counters, schema, root entry) and flushes the
    /// store to disk.
    pub fn flush(&mut self) -> DcResult<()> {
        let mut w = ByteWriter::new();
        w.put_u64(META_MAGIC);
        w.put_u64(u64::from(self.root.child.raw()));
        w.put_u64(self.len);
        w.put_u64(self.nodes as u64);
        crate::persist::write_schema(&mut w, &self.schema);
        let mut meta = w.into_vec();
        let root = &self.root;
        self.store.encode_cover(&root.mds, &root.summary, &mut meta);
        self.store.write_meta(&meta)?;
        self.store.sync()
    }
}

impl<S: NodeStore> DcTree<S> {
    /// An empty tree whose lone data-node root is allocated in `store`.
    fn with_store(mut store: S, schema: CubeSchema, config: DcTreeConfig) -> DcResult<Self> {
        config.validate();
        let root = DirEntry {
            mds: Mds::all(&schema),
            summary: MeasureSummary::empty(),
            child: store.alloc(Node::new_data())?,
        };
        Ok(DcTree {
            schema: Arc::new(schema),
            config,
            store,
            root,
            io: IoStats::default(),
            len: 0,
            nodes: 1,
            height: 1,
            metrics: TreeMetrics::default(),
            query_counters: QueryCounters::default(),
            members: MembershipIndex::default(),
        })
    }

    /// A tree over nodes `store` already holds (what [`open_in`](Self::open_in)
    /// and [`copy_to`](Self::copy_to) end with); the height is read off the
    /// leftmost path.
    fn from_stored(
        schema: Arc<CubeSchema>,
        config: DcTreeConfig,
        store: S,
        root: DirEntry,
        len: u64,
        nodes: usize,
    ) -> DcResult<Self> {
        config.validate();
        let mut tree = DcTree {
            schema,
            config,
            store,
            root,
            io: IoStats::default(),
            len,
            nodes,
            height: 1,
            metrics: TreeMetrics::default(),
            query_counters: QueryCounters::default(),
            members: MembershipIndex::default(),
        };
        let mut id = tree.root.child;
        while let NodeKind::Dir(entries) = &tree.store.get(id)?.kind {
            let first = entries
                .first()
                .ok_or_else(|| DcError::Corrupt("directory node without entries".into()))?;
            if tree.height > nodes {
                return Err(DcError::Corrupt("cycle on the leftmost path".into()));
            }
            tree.height += 1;
            id = first.child;
        }
        Ok(tree)
    }

    /// Copies the tree into `store` node for node — the same MDSs, entries
    /// in order, summaries and block counts; only the handles, and where
    /// the members sit in memory, are new. The walk is post-order, a node
    /// allocated once its children are. Walking below the tree's height or
    /// to other than its node count (a cycle or an orphan in an untrusted
    /// image) is [`DcError::Corrupt`]. A persistent target must know the
    /// dimensionality first.
    pub fn copy_to<T: NodeStore>(&self, mut store: T) -> DcResult<DcTree<T>> {
        let corrupt = || DcError::Corrupt(format!("not a tree of {} nodes", self.nodes));
        // The path being copied: each node with its children's new handles.
        let mut path = vec![(self.store.get(self.root.child)?, Vec::new())];
        let mut reached = 1;
        let root = loop {
            let (node, copied) = path.last().expect("the root is on the path");
            if let NodeKind::Dir(entries) = &node.kind {
                if let Some(child) = entries.get(copied.len()).map(|e| e.child) {
                    reached += 1;
                    if reached > self.nodes || path.len() >= self.height {
                        return Err(corrupt());
                    }
                    path.push((self.store.get(child)?, Vec::new()));
                    continue;
                }
            }
            let (node, copied) = path.pop().expect("checked above");
            // The copy is laid out afresh, each node's members in one new
            // block, not sharing the source's.
            let mut node = node.into_owned();
            node.kind = match &node.kind {
                NodeKind::Dir(entries) => NodeKind::Dir(
                    entries
                        .iter()
                        .zip(copied)
                        .map(|(e, child)| DirEntry { child, ..e.clone() })
                        .collect(),
                ),
                NodeKind::Data(records) => NodeKind::Data(records.iter().cloned().collect()),
            };
            let id = store.alloc(node)?;
            match path.last_mut() {
                Some((_, siblings)) => siblings.push(id),
                None => break id,
            }
        };
        if reached != self.nodes {
            return Err(corrupt());
        }
        let root = DirEntry {
            child: root,
            ..self.root.clone()
        };
        let schema = Arc::clone(&self.schema);
        DcTree::from_stored(schema, self.config, store, root, self.len, reached)
    }

    /// The backing store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The cube schema (grows as `insert_raw` interns new attribute values).
    pub fn schema(&self) -> &CubeSchema {
        &self.schema
    }

    /// Replaces the tree's schema with `schema`, which must
    /// [extend](CubeSchema::extends) it: every record and MDS the tree
    /// holds keeps its meaning. A sharded engine's shards adopt snapshots
    /// of the one schema their engine interns into, instead of interning
    /// themselves. Fails with [`DcError::Config`], changing nothing, when
    /// `schema` does not extend the tree's.
    pub fn adopt_schema(&mut self, schema: Arc<CubeSchema>) -> DcResult<()> {
        if !schema.extends(&self.schema) {
            return Err(DcError::Config(
                "an adopted schema must extend the tree's schema".into(),
            ));
        }
        self.schema = schema;
        Ok(())
    }

    /// The configuration the tree was built with.
    pub fn config(&self) -> &DcTreeConfig {
        &self.config
    }

    /// Number of records stored.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` iff no records are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of live nodes (directory + data).
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Height of the tree: number of node levels (1 for a lone data node).
    pub fn height(&self) -> usize {
        self.height
    }

    /// The materialized aggregate over **all** records — the root entry's,
    /// read without touching a node.
    pub fn total_summary(&self) -> DcResult<MeasureSummary> {
        Ok(self.root.summary)
    }

    /// Visits every node in pre-order — children in entry order — with its
    /// depth below the root (0 = root) and the entry that references it
    /// (the root's: the tree's root entry), which holds its MDS and
    /// summary.
    pub fn for_each_node(&self, mut f: impl FnMut(usize, &DirEntry, &Node)) -> DcResult<()> {
        self.walk(&self.root, 0, &mut f)
    }

    fn walk<F: FnMut(usize, &DirEntry, &Node)>(
        &self,
        entry: &DirEntry,
        depth: usize,
        f: &mut F,
    ) -> DcResult<()> {
        let node = self.store.get(entry.child)?;
        f(depth, entry, &node);
        if let NodeKind::Dir(entries) = &node.kind {
            for e in entries.iter() {
                self.walk(e, depth + 1, f)?;
            }
        }
        Ok(())
    }

    fn alloc(&mut self, node: Node) -> DcResult<NodeId> {
        self.nodes += 1;
        self.store.alloc(node)
    }

    fn free(&mut self, id: NodeId) -> DcResult<Node> {
        self.nodes -= 1;
        self.members.forget(id);
        self.store.free(id)
    }

    /// Logical page I/O charged since construction: the writer's, plus
    /// the pages every read counted (see [`Self::read_counted`]).
    pub fn io_stats(&self) -> IoStats {
        use std::sync::atomic::Ordering::Relaxed;
        IoStats {
            reads: self.io.reads + self.query_counters.pages.load(Relaxed),
            writes: self.io.writes,
        }
    }

    /// Internal operation counters (splits, supernode growth, split time,
    /// query shortcut hits).
    pub fn metrics(&self) -> TreeMetrics {
        use std::sync::atomic::Ordering::Relaxed;
        let mut m = self.metrics;
        m.shortcut_hits = self.query_counters.shortcut_hits.load(Relaxed);
        m.descents = self.query_counters.descents.load(Relaxed);
        m.copied = self.store.copied();
        m
    }

    // ------------------------------------------------------------------
    // Insertion (§4.1)
    // ------------------------------------------------------------------

    /// Inserts a raw record: one top→leaf attribute path per dimension plus
    /// the measure. New attribute values are interned into the concept
    /// hierarchies on the fly — the fully dynamic path of the paper.
    pub fn insert_raw<T: AsRef<str>>(
        &mut self,
        paths: &[Vec<T>],
        measure: Measure,
    ) -> DcResult<()> {
        let record = Arc::make_mut(&mut self.schema).intern_record(paths, measure)?;
        self.insert(record)
    }

    /// Interns one top→leaf attribute path per dimension into this tree's
    /// concept hierarchies **without inserting a record**, returning the
    /// leaf `ValueId`s. Because hierarchy IDs are assigned in insertion
    /// order per level, two trees that intern the same path sequence end up
    /// with identical IDs.
    pub fn intern_paths<T: AsRef<str>>(&mut self, paths: &[Vec<T>]) -> DcResult<Vec<ValueId>> {
        let record = Arc::make_mut(&mut self.schema).intern_record(paths, 0)?;
        Ok(record.dims.to_vec())
    }

    /// Inserts a pre-interned record (its leaf IDs must come from this
    /// tree's schema, e.g. via [`CubeSchema::intern_record`] on a clone the
    /// tree was constructed from).
    pub fn insert(&mut self, record: Record) -> DcResult<()> {
        self.schema.validate_record(&record)?;
        self.insert_run(std::slice::from_ref(&record))?;
        self.len += 1;
        Ok(())
    }

    /// Builds the tree **bottom-up** from a record set: sort along the
    /// hierarchy paths (dimension-major, coarse levels first), pack data
    /// nodes to the fill factor, then build each directory level upward
    /// with exact covers and exact materialized aggregates. No
    /// choose-subtree and no split machinery runs — the sorted order *is*
    /// the clustering the split algorithm works towards record-by-record.
    ///
    /// Requires an empty tree; on a populated tree this delegates to the
    /// amortized [`Self::insert_batch`] path.
    pub fn bulk_load(&mut self, records: Vec<Record>) -> DcResult<()> {
        if !self.is_empty() {
            return self.insert_batch(records);
        }
        if records.is_empty() {
            return Ok(());
        }
        for r in &records {
            self.schema.validate_record(r)?;
        }
        self.len += records.len() as u64;
        let sorted = self.sorted_by_hierarchy(records)?;
        self.build_from_sorted(sorted)
    }

    /// `records` sorted along their hierarchy paths (dimension-major,
    /// coarse levels first); equal paths keep their order.
    fn sorted_by_hierarchy(&self, records: Vec<Record>) -> DcResult<Vec<Record>> {
        let mut keyed: Vec<(Vec<u32>, Record)> = records
            .into_iter()
            .map(|r| Ok((self.schema.flatten_record(&r)?, r)))
            .collect::<DcResult<_>>()?;
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(keyed.into_iter().map(|(_, r)| r).collect())
    }

    /// Inserts a batch through a shared descent: records with identical
    /// leaf coordinates run choose-subtree and the MDS extension **once
    /// per directory level for the whole run**, data pages take the run in
    /// one append, and overflow splits are resolved once at the end of
    /// each run instead of per record.
    ///
    /// Runs are formed by *hashing* coordinates, not by sorting the batch:
    /// feeding the tree a hierarchy-sorted stream advances a single key
    /// frontier, and choose-subtree then stretches the frontier nodes'
    /// MDSs over everything the stream has passed — the classic
    /// sorted-insertion pathology, measured here as ~3× directory MDS
    /// bloat that taxes every later descent and query. Grouping keeps the
    /// arrival order's natural scatter while still deduplicating descents.
    pub fn insert_batch(&mut self, records: Vec<Record>) -> DcResult<()> {
        for r in &records {
            self.schema.validate_record(r)?;
        }
        self.len += records.len() as u64;
        let mut runs: Vec<Vec<Record>> = Vec::new();
        let mut by_dims: HashMap<Dims, usize> = HashMap::new();
        for record in records {
            let slot = *by_dims.entry(record.dims.clone()).or_insert_with(|| {
                runs.push(Vec::new());
                runs.len() - 1
            });
            runs[slot].push(record);
        }
        for run in &runs {
            self.insert_run(run)?;
        }
        Ok(())
    }

    /// Packs hierarchy-sorted records into data nodes and builds the
    /// directory levels above them. Assumes the tree is structurally empty
    /// (`len` is maintained by the callers).
    fn build_from_sorted(&mut self, sorted: Vec<Record>) -> DcResult<()> {
        let old_root = self.free(self.root.child)?;
        debug_assert!(old_root.is_data() && old_root.is_empty());
        let d = self.schema.num_dims();
        // Upper MDSs are kept from degenerating into huge leaf-level value
        // lists by adapting any dimension set beyond this bound to coarser
        // hierarchy levels — the bottom-up analogue of the paper's relevant
        // level decreasing as splits descend the hierarchy.
        let max_set = self.config.data_capacity.max(self.config.dir_capacity);
        let mut level: Vec<DirEntry> = Vec::new();
        let mut iter = sorted.into_iter().peekable();
        while iter.peek().is_some() {
            let chunk: Members<Record> = iter.by_ref().take(self.config.data_capacity).collect();
            let mut dimvals: Vec<Vec<ValueId>> = vec![Vec::new(); d];
            for r in chunk.iter() {
                for (dim, &v) in r.dims.iter().enumerate() {
                    dimvals[dim].push(v);
                }
            }
            let mds = Mds::new(
                dimvals
                    .into_iter()
                    .map(|vals| dc_mds::DimSet::new(0, vals))
                    .collect(),
            );
            level.push(self.alloc_entry(Node::new(NodeKind::Data(chunk)), mds)?);
        }
        self.height = 1;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(self.config.dir_capacity));
            let mut below = level.into_iter().peekable();
            while below.peek().is_some() {
                let entries: Members<DirEntry> =
                    below.by_ref().take(self.config.dir_capacity).collect();
                let mds = self.coarsen_mds(self.cover_of(&entries)?, max_set)?;
                next.push(self.alloc_entry(Node::new(NodeKind::Dir(entries)), mds)?);
            }
            level = next;
            self.height += 1;
        }
        self.root = level.pop().expect("a non-empty load");
        Ok(())
    }

    /// Allocates `node` (charging its write) and returns the directory
    /// entry that references it: `mds` and the fold of the node's members.
    fn alloc_entry(&mut self, node: Node, mds: Mds) -> DcResult<DirEntry> {
        self.io.writes += u64::from(node.blocks);
        let summary = node.fold_summary();
        Ok(DirEntry {
            mds,
            summary,
            child: self.alloc(node)?,
        })
    }

    /// The cover of the MDSs of `entries` (at least one): the MDS of a
    /// directory node built over them.
    fn cover_of(&self, entries: &Members<DirEntry>) -> DcResult<Mds> {
        let mut mds = entries[0].mds.clone();
        for e in entries.iter().skip(1) {
            mds = mds.cover(&e.mds, &self.schema)?;
        }
        Ok(mds)
    }

    /// Adapts any dimension set longer than `max_len` to coarser hierarchy
    /// levels until it fits (or tops out at ALL). Coverage only widens, so
    /// containment of everything below is preserved.
    fn coarsen_mds(&self, mut mds: Mds, max_len: usize) -> DcResult<Mds> {
        for (dim, h) in self.schema.dims().enumerate() {
            loop {
                let set = mds.dim(dim);
                if set.len() <= max_len || set.level() >= h.top_level() {
                    break;
                }
                *mds.dim_mut(dim) = set.adapt_to(h, set.level() + 1)?;
            }
        }
        Ok(mds)
    }

    /// Inserts one run of identical-coordinate records: the root entry
    /// takes the run, then the run descends, and a root that overflows
    /// splits, growing the tree as many times as the cascade of splits
    /// demands.
    fn insert_run(&mut self, run: &[Record]) -> DcResult<()> {
        for r in run {
            self.root.summary.add(r.measure);
        }
        self.root
            .mds
            .extend_to_cover_record(&self.schema, &run[0])?;
        if !self.insert_run_rec(self.root.child, run)? {
            return Ok(());
        }
        let mut root = self.root.clone();
        loop {
            let siblings = self.split_overflow(&mut root)?;
            if siblings.is_empty() {
                break;
            }
            root = self.grow_root(root, siblings)?;
        }
        self.root = root;
        Ok(())
    }

    /// Recursive insert (Fig. 4) of a run of identical-coordinate records
    /// into node `id`, whose entry the caller has already updated: append
    /// (data node), or choose the entry to descend into, extend its MDS and
    /// add the run to its summary (directory node) — one choose-subtree,
    /// one MDS extension and one summary pass per level for the whole run.
    /// A child that overflows is split here, under its entry. Returns
    /// whether `id` now overflows; the caller, holding its entry, resolves
    /// that.
    fn insert_run_rec(&mut self, id: NodeId, run: &[Record]) -> DcResult<bool> {
        let first = &run[0];
        let (chosen, overflow) = self.store.update(id, |node| {
            self.io.reads += u64::from(node.blocks);
            let chosen = match &mut node.kind {
                NodeKind::Data(records) => {
                    records.extend_from_slice(run);
                    None
                }
                NodeKind::Dir(entries) => {
                    let t0 = std::time::Instant::now();
                    #[cfg(test)]
                    let expected = crate::choose::reference_choose(&self.schema, entries, first)?;
                    let choice =
                        self.members
                            .choose_and_extend(id, &self.schema, entries, first)?;
                    #[cfg(test)]
                    assert_eq!(choice, expected, "indexed choice differs from the scan");
                    self.metrics.choose_nanos += t0.elapsed().as_nanos() as u64;
                    let entry = &mut entries[choice];
                    for r in run {
                        entry.summary.add(r.measure);
                    }
                    Some((choice, entry.child))
                }
            };
            self.io.writes += u64::from(node.blocks);
            Ok((chosen, chosen.is_none() && overflows(&self.config, node)))
        })?;
        let Some((pos, child)) = chosen else {
            return Ok(overflow);
        };
        if !self.insert_run_rec(child, run)? {
            return Ok(false);
        }
        // The child overflows: split it (possibly multi-way), then refresh
        // its entry, add the new sons and report this node's own overflow.
        let mut entry = self.store.get(id)?.entries()[pos].clone();
        let siblings = self.split_overflow(&mut entry)?;
        if siblings.is_empty() {
            return Ok(false);
        }
        self.adopt_split_child(id, pos, entry, siblings)
    }

    /// Resolves an arbitrary overflow of the node under `entry` (a batched
    /// append can exceed capacity by more than one): split while the
    /// content exceeds `capacity × blocks`, letting a failed split grow the
    /// supernode, and resolve the siblings split off the same way.
    /// Refreshes `entry` and returns the siblings' entries in the order
    /// they were split off.
    fn split_overflow(&mut self, entry: &mut DirEntry) -> DcResult<Vec<DirEntry>> {
        let mut siblings: Vec<DirEntry> = Vec::new();
        // `None` is `entry`, `Some(i)` is `siblings[i]`.
        let mut work = vec![None];
        while let Some(slot) = work.pop() {
            loop {
                let target = match slot {
                    None => &mut *entry,
                    Some(i) => &mut siblings[i],
                };
                if !overflows(&self.config, &*self.store.get(target.child)?) {
                    break;
                }
                // `None` means the supernode grew a block; re-check.
                if let Some(sibling) = self.split_node(target)? {
                    work.push(Some(siblings.len()));
                    siblings.push(sibling);
                }
            }
        }
        Ok(siblings)
    }

    /// Root split: grows the tree by one level, a new directory root over
    /// the old `root` and the `siblings` it split off. Returns the new
    /// root's entry.
    fn grow_root(&mut self, root: DirEntry, siblings: Vec<DirEntry>) -> DcResult<DirEntry> {
        let mut entries = Members::new();
        entries.push(root);
        for s in siblings {
            entries.push(s);
        }
        let mds = self.cover_of(&entries)?;
        self.height += 1;
        self.alloc_entry(Node::new(NodeKind::Dir(entries)), mds)
    }

    /// After a child of `id` split: replaces the child's entry at `pos`
    /// with its `refreshed` copy and appends the new sons. Returns whether
    /// `id` now overflows.
    fn adopt_split_child(
        &mut self,
        id: NodeId,
        pos: usize,
        refreshed: DirEntry,
        new_entries: Vec<DirEntry>,
    ) -> DcResult<bool> {
        self.store.update(id, |node| {
            let entries = node.entries_mut();
            self.members
                .replace_entry(id, pos, &entries[pos].mds, &refreshed.mds);
            entries[pos] = refreshed;
            for e in new_entries {
                self.members.append_entry(id, entries.len(), &e.mds);
                entries.push(e);
            }
            self.io.writes += u64::from(node.blocks);
            Ok(overflows(&self.config, node))
        })
    }

    // ------------------------------------------------------------------
    // Split (§4.2)
    // ------------------------------------------------------------------

    /// Attempts to split the node under `entry` (Fig. 5). On success the
    /// node keeps the first group, `entry` becomes its cover and summary,
    /// and the returned sibling entry holds the second. On failure the node
    /// grows into (or extends) a supernode and `None` is returned — unless
    /// supernodes are disabled, in which case the best rejected grouping is
    /// forced.
    fn split_node(&mut self, entry: &mut DirEntry) -> DcResult<Option<DirEntry>> {
        let t0 = std::time::Instant::now();
        let result = self.split_node_inner(entry);
        self.metrics.split_nanos += t0.elapsed().as_nanos() as u64;
        result
    }

    fn split_node_inner(&mut self, entry: &mut DirEntry) -> DcResult<Option<DirEntry>> {
        let id = entry.child;
        let node = self.store.get(id)?;
        let (member_mds, children): (Vec<Mds>, Option<Vec<NodeId>>) = match &node.kind {
            NodeKind::Dir(entries) => (
                entries.iter().map(|e| e.mds.clone()).collect(),
                Some(entries.iter().map(|e| e.child).collect()),
            ),
            NodeKind::Data(records) => (records.iter().map(Mds::from_record).collect(), None),
        };
        let node_levels = entry.mds.levels();
        let node_dim_lens: Vec<usize> = entry.mds.dims().map(|set| set.len()).collect();
        let node_blocks = node.blocks;
        drop(node);
        let num_members = member_mds.len();
        let min_group = self.config.min_group(num_members);

        // Candidate split dimensions, highest hierarchy level first (Fig. 5:
        // "the algorithm always selects the dimension with the highest
        // hierarchy level of the elements of the MDS").
        let mut dims: Vec<usize> = (0..node_levels.len()).collect();
        dims.sort_by_key(|&d| std::cmp::Reverse(node_levels[d]));

        // Lazy refinement can leave members coarser than the node MDS, so
        // the analysis alignment level per dimension is the coarsest of
        // (node level, member levels).
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

        // While the node may still grow and only overlap-free splits are
        // accepted, an attempt whose members are connected in every
        // dimension is rejected whatever grouping the kernel finds: both
        // groups' covers share a value in each dimension (see
        // [`connected`]), so the overlap ratio is above 0. Such attempts are
        // skipped; a rejected attempt's only effects — `best_rejected` and
        // its uncommitted refinements — are used only by a node that may
        // not grow. The other dimensions sit on their alignment levels in
        // every attempt, so their connectivity is taken once. Data nodes
        // are left out: their members are single records, connected in a
        // dimension only when all of them share one value there, so the
        // test would cost every data split and skip next to nothing (on a
        // replayed 200 k-record writer stream it took data splits from
        // 1.1 to 1.3 µs per record).
        let may_grow =
            self.config.allow_supernodes && node_blocks < self.config.max_supernode_blocks;
        let may_skip =
            may_grow && self.config.max_overlap == 0.0 && num_members >= 2 && children.is_some();
        let kids = children.as_deref().unwrap_or_default();
        let mut pairs = Vec::new();
        let connected_at_align: Vec<bool> = if may_skip {
            (0..node_levels.len())
                .map(|k| {
                    self.level_pairs(&member_mds, kids, k, align_levels[k], &mut pairs)?;
                    Ok(connected(num_members, &mut pairs))
                })
                .collect::<DcResult<_>>()?
        } else {
            Vec::new()
        };

        let mut best_rejected: Option<(SplitOutcome, f64)> = None;
        for &d in &dims {
            let others_connected =
                may_skip && (0..node_levels.len()).all(|k| k == d || connected_at_align[k]);
            // The relevant level the subgroups will use in the split
            // dimension. When the node's MDS holds a single value there
            // (e.g. ALL), it is decreased by one (§3.2) — and when the split
            // is rejected as unbalanced or too overlapping, we keep
            // descending the concept hierarchy: finer values give the
            // assignment more room to separate skewed distributions.
            // Members coarser than the target level are *refined* by
            // recomputing their extent from their subtree, so no member
            // pins the descent; their group's final cover is still taken
            // from the original (coarse) MDS, preserving coverage.
            let start = if node_dim_lens[d] < 2 && node_levels[d] > 0 {
                node_levels[d] - 1
            } else {
                node_levels[d]
            };
            for level in (0..=start).rev() {
                // Members coarser than `level` show their values there only
                // once refined; before paying for that, the test runs on a
                // subset of those values, and a miss is settled on the
                // refined sets. On the writer stream replayed at
                // [`SAMPLED_RECORDS`], testing only the refined sets took
                // failed directory splits from 0.7–0.9 / 1.6–1.9 to
                // 3.6–3.8 / 4.2–4.4 µs per record, and dropping the second
                // test to 1.1–1.2 / 2.2.
                if others_connected {
                    self.level_pairs(&member_mds, kids, d, level, &mut pairs)?;
                    if connected(num_members, &mut pairs) {
                        continue;
                    }
                }
                let (analysis, refinements) =
                    align_members(&self.schema, &member_mds, &align_levels, d, level, |i| {
                        match &children {
                            Some(kids) => self.subtree_dimset_at(&member_mds[i], kids[i], d, level),
                            None => unreachable!("records sit on leaf level 0"),
                        }
                    })?;
                if others_connected && !refinements.is_empty() {
                    pairs.clear();
                    for (i, m) in analysis.iter().enumerate() {
                        pairs.extend(m.dim(d).values().iter().map(|&v| (v, i as u32)));
                    }
                    if connected(num_members, &mut pairs) {
                        continue;
                    }
                }
                let Some(outcome) = hierarchy_split(&self.schema, &analysis, d, min_group)? else {
                    break;
                };
                let ratio = outcome.overlap_ratio();
                // A split is accepted when its overlap is low enough and it
                // is either balanced (the X-tree rule) or **disjoint**: a
                // zero-overlap split never causes multi-path descent, so an
                // uneven but clean partition beats growing a supernode —
                // the skew is the data's, not the structure's.
                let balanced = outcome.min_group_len() >= min_group
                    || (ratio == 0.0 && outcome.min_group_len() >= 2);
                let low_overlap = ratio <= self.config.max_overlap;
                if balanced && low_overlap {
                    self.metrics.splits += 1;
                    // Commit the lazy refinement: entries analysed at the
                    // finer level keep it. Their extent at the finer level
                    // is exact (computed from the subtree), so record
                    // coverage is preserved while dead space shrinks.
                    if !refinements.is_empty() {
                        self.store.update(id, |node| {
                            for (i, refined) in refinements {
                                *node.entries_mut()[i].mds.dim_mut(d) = refined;
                            }
                            Ok(())
                        })?;
                    }
                    return self.apply_split(entry, outcome).map(Some);
                }
                let better = match &best_rejected {
                    None => true,
                    Some((prev, prev_ratio)) => {
                        (outcome.min_group_len(), -ratio) > (prev.min_group_len(), -prev_ratio)
                    }
                };
                if better && outcome.min_group_len() >= 1 {
                    // Only splits needing no refinement may be forced later
                    // (the refinement is not committed for rejected levels).
                    if refinements.is_empty() {
                        best_rejected = Some((outcome, ratio));
                    }
                }
            }
        }

        // No acceptable split in any dimension.
        self.metrics.failed_splits += 1;
        if may_grow {
            // Grow the supernode. Growth is geometric (¼ of the current
            // block count, at least one block): a node that keeps failing to
            // split retries on every overflow of `capacity × blocks`, and
            // each retry re-analyses the whole subtree — linear-by-one
            // growth would make a persistently unsplittable node cost
            // O(n²) over its lifetime.
            self.metrics.supernode_growths += 1;
            self.store.update(id, |node| {
                node.blocks += (node.blocks / 4).max(1);
                self.io.writes += u64::from(node.blocks);
                Ok(())
            })?;
            Ok(None)
        } else {
            // Supernodes disabled (ablation A2) or the supernode hit its
            // block bound: force the least-bad grouping; if every candidate
            // required uncommitted refinement, fall back to halving the
            // members in storage order.
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
            self.apply_split(entry, outcome).map(Some)
        }
    }

    /// Fills `pairs` with `(value, member)` for dimension `d` on `level`,
    /// for the entries `members` of a directory node whose children are
    /// `kids`: each member's values adapted to `level`, or — for a member
    /// stored coarser, which an attempt on `level` refines — a subset of
    /// the values [`Self::subtree_dimset_at`] would find, read off its
    /// child alone: the child's entry sets stored on `level` or finer, or
    /// the first [`SAMPLED_RECORDS`] records of a data child.
    fn level_pairs(
        &self,
        members: &[Mds],
        kids: &[NodeId],
        d: usize,
        level: u8,
        pairs: &mut Vec<(ValueId, u32)>,
    ) -> DcResult<()> {
        let h = self.schema.dims().nth(d).expect("dimension in schema");
        pairs.clear();
        for (i, m) in members.iter().enumerate() {
            let member = i as u32;
            let set = m.dim(d);
            if set.level() <= level {
                for &v in set.values() {
                    pairs.push((h.ancestor_at(v, level)?, member));
                }
                continue;
            }
            match &self.store.get(kids[i])?.kind {
                NodeKind::Data(records) => {
                    for r in records.iter().take(SAMPLED_RECORDS) {
                        pairs.push((h.ancestor_at(r.dims[d], level)?, member));
                    }
                }
                NodeKind::Dir(entries) => {
                    for e in entries.iter().filter(|e| e.mds.dim(d).level() <= level) {
                        for &v in e.mds.dim(d).values() {
                            pairs.push((h.ancestor_at(v, level)?, member));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Computes the extent in dimension `d` of the subtree an entry of MDS
    /// `mds` references at `child`, expressed on `level` — descending past
    /// entries whose stored MDS is coarser than `level`. Used by the split
    /// path to refine coarse members; never stored.
    fn subtree_dimset_at(
        &self,
        mds: &Mds,
        child: NodeId,
        d: usize,
        level: u8,
    ) -> DcResult<dc_mds::DimSet> {
        let h = self.schema.dims().nth(d).expect("dimension in schema");
        if mds.dim(d).level() <= level {
            return mds.dim(d).adapt_to(h, level);
        }
        match &self.store.get(child)?.kind {
            NodeKind::Data(records) => {
                let mut values = Vec::with_capacity(records.len());
                for r in records.iter() {
                    values.push(h.ancestor_at(r.dims[d], level)?);
                }
                values.sort_unstable();
                values.dedup();
                Ok(dc_mds::DimSet::new(level, values))
            }
            NodeKind::Dir(entries) => {
                let mut acc: Option<dc_mds::DimSet> = None;
                for e in entries.iter() {
                    let part = self.subtree_dimset_at(&e.mds, e.child, d, level)?;
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

    /// Materializes a split outcome on the node under `entry`: the node
    /// keeps group 1 and `entry` becomes its cover and summary; a fresh
    /// sibling receives group 2. Returns the sibling's entry.
    fn apply_split(&mut self, entry: &mut DirEntry, outcome: SplitOutcome) -> DcResult<DirEntry> {
        let SplitOutcome {
            group1,
            group2,
            cover1,
            cover2,
        } = outcome;
        let id = entry.child;
        self.members.forget(id);
        let (sibling, summary) = self.store.update(id, |node| {
            debug_assert_eq!(group1.len() + group2.len(), node.len());
            let old_kind = std::mem::replace(&mut node.kind, NodeKind::Data(Members::new()));
            let (kind, sibling) = match old_kind {
                NodeKind::Data(records) => {
                    let (part1, part2) = partition_by_index(records, &group1);
                    (NodeKind::Data(part1), NodeKind::Data(part2))
                }
                NodeKind::Dir(entries) => {
                    let (part1, part2) = partition_by_index(entries, &group1);
                    (NodeKind::Dir(part1), NodeKind::Dir(part2))
                }
            };
            node.kind = kind;
            let mut sibling = Node::new(sibling);
            // Supernodes shrink back to the fewest blocks that hold each part.
            node.blocks = blocks_needed(&self.config, node);
            sibling.blocks = blocks_needed(&self.config, &sibling);
            self.io.writes += u64::from(node.blocks);
            Ok((sibling, node.fold_summary()))
        })?;
        *entry = DirEntry {
            mds: cover1,
            summary,
            child: id,
        };
        self.alloc_entry(sibling, cover2)
    }

    // ------------------------------------------------------------------
    // Reads (Fig. 7): one descent for every read
    // ------------------------------------------------------------------

    /// Runs a range query and evaluates one aggregation operator over the
    /// selected records. The range is an MDS: per dimension, a set of
    /// attribute values on one hierarchy level; a record is selected iff
    /// each of its leaf values lies below one of the range's values.
    ///
    /// Returns `None` for `MIN`/`MAX`/`AVG` over an empty selection.
    pub fn range_query(&self, range: &Mds, op: AggregateOp) -> DcResult<Option<f64>> {
        Ok(self.range_summary(range)?.eval(op))
    }

    /// Runs a range query, returning the full mergeable summary.
    ///
    /// Directory entries whose MDS is fully contained in the range
    /// contribute their **materialized** summary without being descended
    /// into; partially overlapping entries are recursed (Fig. 7). With
    /// `use_materialized_aggregates` disabled the query always descends —
    /// the ablation isolating the benefit of materialization.
    pub fn range_summary(&self, range: &Mds) -> DcResult<MeasureSummary> {
        self.range_summary_prepared(&self.prepare_range(range)?)
    }

    /// Prepares `range` for repeated evaluation against this tree, honouring
    /// the tree's containment-mode configuration. Pair with
    /// [`Self::range_summary_prepared`]; grouped reads take a range
    /// prepared soundly ([`PreparedRange::new`]), as [`Self::group_by`]
    /// does.
    pub fn prepare_range(&self, range: &Mds) -> DcResult<PreparedRange> {
        PreparedRange::with_mode(&self.schema, range, self.config.use_paper_fig7_containment)
    }

    /// Runs a range query from an already-[prepared](Self::prepare_range)
    /// range, skipping per-call preparation.
    ///
    /// The range may have been prepared against a *different* schema as long
    /// as that schema assigns the same `ValueId`s as this tree's (the
    /// sharded engine prepares once against its global catalog, of which
    /// every shard schema is a prefix) — the traversal only probes values
    /// this tree knows, and their bits are where the preparing schema put
    /// them. The steady-state traversal performs no heap allocation.
    pub fn range_summary_prepared(&self, prepared: &PreparedRange) -> DcResult<MeasureSummary> {
        Ok(self.summary_counted(prepared)?.0)
    }

    /// The one counted read: `prepared` aggregated whole, or grouped by
    /// the level `group_by` names (with the contract of
    /// [`Self::range_summary_prepared`] and [`Self::group_by_prepared`]),
    /// paired with the pages the read visited — every block of every node
    /// its descent read, a supernode costing all of its blocks (the
    /// paper's cost metric, §5). The count is the read's own: readers
    /// sharing the tree on other threads never change it. It is also added
    /// to [`Self::io_stats`] once, when the read ends.
    pub fn read_counted(
        &self,
        prepared: &PreparedRange,
        group_by: Option<(DimensionId, Level)>,
    ) -> DcResult<(QueryOutput, u64)> {
        Ok(match group_by {
            None => {
                let (summary, pages) = self.summary_counted(prepared)?;
                (QueryOutput::Scalar(summary), pages)
            }
            Some((dim, level)) => {
                let (groups, pages) = self.groups_counted(dim, level, prepared)?;
                (QueryOutput::Grouped(groups), pages)
            }
        })
    }

    fn summary_counted(&self, prepared: &PreparedRange) -> DcResult<(MeasureSummary, u64)> {
        let mut acc = [MeasureSummary::empty()];
        let pages = self.read_cells(prepared, [], &mut acc)?;
        let [acc] = acc;
        Ok((acc, pages))
    }

    /// Range **selection**: invokes `f` for every stored record inside the
    /// range. Aggregation queries are the paper's focus, but an index
    /// integrated into a DBMS (the paper's future work) must also produce
    /// the qualifying rows; selection cannot use the materialized shortcut,
    /// so contained subtrees are descended to their data pages.
    pub fn for_each_in_range(&self, range: &Mds, f: impl FnMut(&Record)) -> DcResult<()> {
        self.read(&PreparedRange::new(&self.schema, range)?, &mut Select(f))?;
        Ok(())
    }

    /// Range selection collecting the matching records.
    pub fn range_records(&self, range: &Mds) -> DcResult<Vec<Record>> {
        let mut out = Vec::new();
        self.for_each_in_range(range, |r| out.push(r.clone()))?;
        Ok(out)
    }

    /// Counts the stored records equal to `record` (same leaf IDs and
    /// measure) — the point-query counterpart of [`Self::range_summary`]: a
    /// selection over the record's leaf point, counting equal measures.
    pub fn count_matching(&self, record: &Record) -> DcResult<u64> {
        self.schema.validate_record(record)?;
        let point = PreparedRange::new(&self.schema, &Mds::from_record(record))?;
        let mut count = 0;
        self.read(
            &point,
            &mut Select(|r: &Record| count += u64::from(r.measure == record.measure)),
        )?;
        Ok(count)
    }

    /// Groups a range query's result by the values of one hierarchy level of
    /// one dimension — the roll-up primitive of OLAP ("revenue by region").
    ///
    /// Equivalent to one [`Self::range_summary`] per value of
    /// `(group_dim, group_level)` with `filter` additionally constrained to
    /// that value, but computed in a **single traversal**: a directory entry
    /// whose MDS maps to one group value (and is contained in the filter)
    /// contributes its materialized summary to that group directly.
    ///
    /// The filter is always prepared soundly: the paper-mode shortcut
    /// (`use_paper_fig7_containment`) applies to scalar queries only.
    ///
    /// Returns the non-empty groups in ID order.
    pub fn group_by(
        &self,
        group_dim: DimensionId,
        group_level: Level,
        filter: &Mds,
    ) -> DcResult<Vec<(ValueId, MeasureSummary)>> {
        let prepared = PreparedRange::new(&self.schema, filter)?;
        self.group_by_prepared(group_dim, group_level, &prepared)
    }

    /// [`Self::group_by`] from an already-prepared filter, which should be
    /// prepared soundly ([`PreparedRange::new`]); same cross-schema
    /// contract as [`Self::range_summary_prepared`].
    pub fn group_by_prepared(
        &self,
        group_dim: DimensionId,
        group_level: Level,
        prepared: &PreparedRange,
    ) -> DcResult<Vec<(ValueId, MeasureSummary)>> {
        Ok(self.groups_counted(group_dim, group_level, prepared)?.0)
    }

    #[allow(clippy::type_complexity)]
    fn groups_counted(
        &self,
        group_dim: DimensionId,
        group_level: Level,
        prepared: &PreparedRange,
    ) -> DcResult<(Vec<(ValueId, MeasureSummary)>, u64)> {
        let (groups, pages) = self.grouped(prepared, [(group_dim, group_level)])?;
        let groups = groups
            .map(|(i, s)| (ValueId::new(group_level, i as u32), s))
            .collect();
        Ok((groups, pages))
    }

    /// Cross-tabulates a range query over two hierarchy levels — the pivot
    /// table of OLAP ("revenue by region × year"). Computed in a single
    /// traversal like [`Self::group_by`], with the filter prepared soundly
    /// like it; a directory entry mapping to one cell (single group value
    /// on *both* axes, contained in the filter) contributes its
    /// materialized summary directly.
    ///
    /// Returns the non-empty cells as `((row_value, column_value), summary)`
    /// in row-major ID order.
    #[allow(clippy::type_complexity)]
    pub fn pivot(
        &self,
        row: (DimensionId, Level),
        column: (DimensionId, Level),
        filter: &Mds,
    ) -> DcResult<Vec<((ValueId, ValueId), MeasureSummary)>> {
        let prepared = PreparedRange::new(&self.schema, filter)?;
        let (cells, _) = self.grouped(&prepared, [row, column])?;
        let cols = self.schema.dim(column.0).num_values_at(column.1);
        Ok(cells
            .map(|(i, s)| {
                let key = (
                    ValueId::new(row.1, (i / cols) as u32),
                    ValueId::new(column.1, (i % cols) as u32),
                );
                (key, s)
            })
            .collect())
    }

    /// A grouped read over `axes`: the non-empty cells as (cell index,
    /// summary), in index order, and the pages the read visited.
    fn grouped<const N: usize>(
        &self,
        prepared: &PreparedRange,
        axes: [(DimensionId, Level); N],
    ) -> DcResult<(impl Iterator<Item = (usize, MeasureSummary)>, u64)> {
        let width =
            |&(dim, level): &(DimensionId, Level)| self.schema.dim(dim).num_values_at(level);
        let mut cells = vec![MeasureSummary::empty(); axes.iter().map(width).product()];
        let pages = self.read_cells(prepared, axes, &mut cells)?;
        let cells = cells.into_iter().enumerate().filter(|(_, s)| !s.is_empty());
        Ok((cells, pages))
    }

    /// Checks a read over `axes` against this tree — the range has the
    /// schema's dimensions, every axis is a level of its hierarchy — and
    /// folds it into `cells`, one per combination of axis values. Returns
    /// the pages the read visited.
    fn read_cells<const N: usize>(
        &self,
        prepared: &PreparedRange,
        axes: [(DimensionId, Level); N],
        cells: &mut [MeasureSummary],
    ) -> DcResult<u64> {
        if prepared.num_dims() != self.schema.num_dims() {
            return Err(DcError::DimensionMismatch {
                expected: self.schema.num_dims(),
                got: prepared.num_dims(),
            });
        }
        for (dim, level) in axes {
            let h = self.schema.dim(dim);
            if level > h.top_level() {
                return Err(DcError::BadLevel {
                    dim,
                    id: h.all(),
                    requested: level,
                });
            }
        }
        let schema = &self.schema;
        self.read(
            prepared,
            &mut Cells {
                schema,
                axes,
                cells,
            },
        )
    }

    /// Fig. 7, the one descent every read runs: from the root, visit each
    /// entry whose MDS overlaps the range, let the visitor absorb an entry
    /// the range contains when materialized aggregates are on, and hand it
    /// the selected records of every data node reached. The entries
    /// absorbed and descended, and the blocks of the nodes visited, are
    /// tallied here and added to the tree's counters once per read; the
    /// blocks are returned as the read's pages.
    fn read<V: Visitor>(&self, range: &PreparedRange, visitor: &mut V) -> DcResult<u64> {
        use std::sync::atomic::Ordering::Relaxed;
        let mut tally = Tally::default();
        let read = self.descend(self.root.child, range, visitor, &mut tally);
        let counters = &self.query_counters;
        counters
            .shortcut_hits
            .fetch_add(tally.shortcut_hits, Relaxed);
        counters.descents.fetch_add(tally.descents, Relaxed);
        counters.pages.fetch_add(tally.pages, Relaxed);
        read.map(|()| tally.pages)
    }

    fn descend<V: Visitor>(
        &self,
        id: NodeId,
        range: &PreparedRange,
        visitor: &mut V,
        tally: &mut Tally,
    ) -> DcResult<()> {
        let node = self.store.get(id)?;
        tally.pages += u64::from(node.blocks);
        match &node.kind {
            NodeKind::Data(records) => {
                for block in records.blocks() {
                    for r in block {
                        if range.contains_record(&self.schema, r)? {
                            visitor.record(r)?;
                        }
                    }
                }
            }
            NodeKind::Dir(entries) => {
                for block in entries.blocks() {
                    for e in block {
                        if !range.overlaps(&self.schema, &e.mds)? {
                            continue;
                        }
                        if V::ABSORBS
                            && self.config.use_materialized_aggregates
                            && range.contains_entry(&self.schema, &e.mds)?
                            && visitor.absorb(e)?
                        {
                            tally.shortcut_hits += 1;
                        } else {
                            tally.descents += 1;
                            self.descend(e.child, range, visitor, tally)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Deletion ("fully dynamic")
    // ------------------------------------------------------------------

    /// Deletes one record equal to `record` (same leaf IDs and measure).
    /// Returns `false` if no such record exists.
    ///
    /// Materialized measures are maintained along the path; MDSs shrink back
    /// to minimality; underflowing nodes are dissolved and their records
    /// re-inserted (R-tree-style condensation).
    pub fn delete(&mut self, record: &Record) -> DcResult<bool> {
        self.schema.validate_record(record)?;
        let mut orphans = Vec::new();
        let root = self.root.clone();
        let Some(root) = self.delete_rec(&root, record, &mut orphans)? else {
            return Ok(false);
        };
        self.root = root;
        self.len -= 1;
        // Collapse a root with a single child.
        loop {
            let only_child = match &self.store.get(self.root.child)?.kind {
                NodeKind::Dir(entries) if entries.len() <= 1 => entries.first().cloned(),
                _ => break,
            };
            match only_child {
                Some(child) => {
                    self.free(self.root.child)?;
                    self.root = child;
                    self.height -= 1;
                }
                None => {
                    self.members.forget(self.root.child);
                    self.store.update(self.root.child, |root| {
                        *root = Node::new_data();
                        Ok(())
                    })?;
                    self.root.mds = Mds::all(&self.schema);
                    self.height = 1;
                    break;
                }
            }
        }
        for orphan in orphans {
            self.insert_run(std::slice::from_ref(&orphan))?;
        }
        Ok(true)
    }

    /// Replaces the measure of one record equal to `record` — the update
    /// operation completing the "fully dynamic" triad. Implemented as an
    /// atomic delete + insert (measure changes can move aggregates at every
    /// level, so the full maintenance path runs). Returns `false` when no
    /// matching record exists.
    pub fn update_measure(&mut self, record: &Record, new_measure: Measure) -> DcResult<bool> {
        if !self.delete(record)? {
            return Ok(false);
        }
        let mut updated = record.clone();
        updated.measure = new_measure;
        self.insert(updated)?;
        Ok(true)
    }

    /// Recursive delete below `entry`; returns the entry refreshed when the
    /// record was found and removed in this subtree. Underflowing children
    /// are dissolved into `orphans`.
    fn delete_rec(
        &mut self,
        entry: &DirEntry,
        record: &Record,
        orphans: &mut Vec<Record>,
    ) -> DcResult<Option<DirEntry>> {
        let id = entry.child;
        let candidates: Vec<(usize, DirEntry)> = {
            let node = self.store.get(id)?;
            self.io.reads += u64::from(node.blocks);
            match &node.kind {
                NodeKind::Data(records) => {
                    let Some(pos) = records.iter().position(|r| r == record) else {
                        return Ok(None);
                    };
                    drop(node);
                    return self.store.update(id, |node| {
                        node.records_mut().remove(pos);
                        self.io.writes += u64::from(node.blocks);
                        recompute_entry(&self.schema, entry, node).map(Some)
                    });
                }
                NodeKind::Dir(entries) => {
                    let mut v = Vec::new();
                    for (i, e) in entries.iter().enumerate() {
                        if e.mds.contains_record(&self.schema, record)? {
                            v.push((i, e.clone()));
                        }
                    }
                    v
                }
            }
        };
        for (i, child) in candidates {
            let Some(refreshed) = self.delete_rec(&child, record, orphans)? else {
                continue;
            };
            let (child_len, child_blocks, cap_per_block) = {
                let node = self.store.get(child.child)?;
                (node.len(), node.blocks, capacity(&self.config, &node))
            };
            let dissolve = child_len < self.config.min_group(cap_per_block);
            if dissolve {
                // Dissolve the child: collect its records for re-insertion.
                self.collect_subtree(child.child, orphans)?;
            } else {
                // Maybe shrink a supernode that no longer needs its blocks.
                let needed = (child_len.div_ceil(cap_per_block)).max(1) as u32;
                if needed < child_blocks {
                    self.store.update(child.child, |node| {
                        node.blocks = needed;
                        Ok(())
                    })?;
                }
            }
            self.members.forget(id);
            return self.store.update(id, |node| {
                if dissolve {
                    node.entries_mut().remove(i);
                } else {
                    node.entries_mut()[i] = refreshed;
                }
                self.io.writes += u64::from(node.blocks);
                recompute_entry(&self.schema, entry, node).map(Some)
            });
        }
        Ok(None)
    }

    /// Collects every record below `id` and frees the whole subtree.
    fn collect_subtree(&mut self, id: NodeId, out: &mut Vec<Record>) -> DcResult<()> {
        let node = self.free(id)?;
        self.io.reads += u64::from(node.blocks);
        match node.kind {
            NodeKind::Data(records) => out.append(&mut records.into_vec()),
            NodeKind::Dir(entries) => {
                for e in entries.iter() {
                    self.collect_subtree(e.child, out)?;
                }
            }
        }
        Ok(())
    }
}

/// The entry of `node` after a delete below `entry`, its entry before: the
/// summary recomputed and the MDS shrunk to the minimal cover of the
/// node's content at `entry`'s relevant levels.
fn recompute_entry(schema: &CubeSchema, entry: &DirEntry, node: &Node) -> DcResult<DirEntry> {
    let levels = entry.mds.levels();
    let mds = match &node.kind {
        NodeKind::Data(records) => {
            let mut mds: Option<Mds> = None;
            for r in records.iter() {
                let p = Mds::from_record(r).adapt_to_levels(schema, &levels)?;
                mds = Some(match mds {
                    None => p,
                    Some(m) => m.union_aligned(&p),
                });
            }
            mds
        }
        NodeKind::Dir(entries) => {
            // Lazy refinement may have left the entry's MDS finer than some
            // entries below it; the recomputed cover can go no deeper than
            // the coarsest entry per dimension.
            let levels: Vec<u8> = (0..levels.len())
                .map(|dim| {
                    entries
                        .iter()
                        .map(|e| e.mds.dim(dim).level())
                        .max()
                        .unwrap_or(levels[dim])
                })
                .collect();
            let mut mds: Option<Mds> = None;
            for e in entries.iter() {
                let p = e.mds.adapt_to_levels(schema, &levels)?;
                mds = Some(match mds {
                    None => p,
                    Some(m) => m.union_aligned(&p),
                });
            }
            mds
        }
    };
    Ok(DirEntry {
        mds: mds.unwrap_or_else(|| entry.mds.clone()),
        summary: node.fold_summary(),
        child: entry.child,
    })
}

/// Splits `items` into the members whose index is in `first` and the rest,
/// each in storage order and in fresh blocks.
fn partition_by_index<T: Clone>(items: Members<T>, first: &[usize]) -> (Members<T>, Members<T>) {
    let mut take1 = vec![false; items.len()];
    for &i in first {
        take1[i] = true;
    }
    let mut part1 = Vec::with_capacity(first.len());
    let mut part2 = Vec::with_capacity(items.len().saturating_sub(first.len()));
    for (i, item) in items.into_vec().into_iter().enumerate() {
        if take1[i] {
            part1.push(item);
        } else {
            part2.push(item);
        }
    }
    (part1.into(), part2.into())
}

/// Entries (directory) or records (data) one block of `node` holds.
pub(crate) fn capacity(config: &DcTreeConfig, node: &Node) -> usize {
    if node.is_data() {
        config.data_capacity
    } else {
        config.dir_capacity
    }
}

fn overflows(config: &DcTreeConfig, node: &Node) -> bool {
    node.len() > capacity(config, node) * node.blocks as usize
}

fn blocks_needed(config: &DcTreeConfig, node: &Node) -> u32 {
    (node.len().div_ceil(capacity(config, node))).max(1) as u32
}
