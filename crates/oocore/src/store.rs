//! [`OocStore`]: the [`NodeStore`] serving DC-tree nodes from disk pages
//! through one cache of decoded nodes.
//!
//! This module is the only code that knows how a node is laid out on
//! pages: every node (and the metadata blob) is a chain of pages
//! `[next: u64][len: u32][payload]`, metadata headed at page 1, a node's
//! handle the head page of its chain. Node payloads go through the
//! [`codec`](crate::codec).
//!
//! # The node cache
//!
//! The codec is the expensive part of a node access — reading a page is a
//! copy the OS page cache usually serves — so the store caches *decoded
//! nodes*, not pages: one map from handle to node, holding at most
//! [`OocOptions::frames`] nodes, each with the page ids of its chain. A
//! node in it is *dirty* (mutated since it was last written to its chain)
//! or *clean* (equal to its pages).
//!
//! * **The dirty half is a write-back set.** A node the tree mutates is
//!   decoded once and stays dirty; further steps mutate it in place, and it
//!   is encoded and written to its chain once, when the dirty nodes reach
//!   the bound or [`sync`](PersistentStore::sync) writes them all. Dirty
//!   nodes are written in ascending node order — data nodes first, and all
//!   of them once directory nodes alone hold more than half the bound — so
//!   the file is a function of the operations applied to it. Between two
//!   syncs the pages of a dirty node are stale (an unwritten head page, for
//!   a node allocated since), which is safe because nothing reads a node's
//!   pages except through this store — and the file was never a valid image
//!   between syncs anyway: `sync` is what the checkpointer copies behind.
//! * **Clean nodes fill the room dirty nodes leave.** A node a read decodes
//!   is kept clean if there is room, and a written-back node stays as a
//!   clean one. Room is made by dropping clean nodes, data nodes before
//!   directory nodes and the least recently used first; a clean node is
//!   never written and never counts toward the write-back trigger, so reads
//!   cannot change which write-backs happen or in what order.
//! * **One lock.** Readers share a served shard under its read lock and the
//!   writer holds its write lock, so only readers race each other: a hit
//!   clones the node out of the cache under its mutex (two reference-count
//!   bumps, the members being shared blocks), and page reads take the
//!   file's mutex. Nothing is pinned; dropping a clean node drops the
//!   cache's copy only.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use dc_common::{DcError, DcResult, MeasureSummary};
use dc_mds::Mds;
use dc_storage::{BlockConfig, ByteReader, PageId, PagedFile};
use dc_tree::node::{Node, NodeId};
use dc_tree::store::{NodeStore, PersistentStore};
use parking_lot::Mutex;

use crate::codec::{decode_cover, decode_node, decode_v1_cover, encode_cover, encode_node};

/// Sentinel `next` link terminating a page chain.
const CHAIN_NONE: u64 = u64::MAX;
/// Per-page chain header: `[next: u64][len: u32]`.
const PAGE_HEADER: usize = 8 + 4;
/// The page holding the head of the metadata chain (page 0 is the paged
/// file's own header).
const META_PAGE: u64 = 1;

/// The page the node `id` is kept at.
fn page_of(id: NodeId) -> PageId {
    PageId(u64::from(id.raw()))
}

/// The node handle for a freshly allocated `page`; fails once a file has
/// outgrown the 32-bit handle directory entries persist.
fn node_at(page: PageId) -> DcResult<NodeId> {
    u32::try_from(page.0)
        .map(NodeId::from_raw)
        .map_err(|_| DcError::Config(format!("page {} exceeds the node-handle width", page.0)))
}

/// Counters of a store's node cache, exported as the `pool_*` gauges by the
/// server. Node-level: an access is one node's, not one page's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OocPoolStats {
    /// Node accesses the cache served, clean or dirty.
    pub hits: u64,
    /// Node accesses that read the node's chain and decoded it.
    pub misses: u64,
    /// Clean nodes dropped to make room.
    pub evictions: u64,
    /// Dirty nodes encoded and written to their chains.
    pub writebacks: u64,
    /// Nodes cached now, clean and dirty.
    pub resident: u64,
    /// Most nodes the cache holds ([`OocOptions::frames`], at least 1).
    pub capacity: u64,
    /// Pages read from the file by chain walks.
    pub page_reads: u64,
}

/// The store's counters, shared with [`OocDcTree`](crate::OocDcTree) so
/// that stats and the file size are read without the tree lock.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
    resident: AtomicU64,
    capacity: u64,
    page_reads: AtomicU64,
    /// The file's page count, mirrored at every allocation.
    pages: AtomicU64,
    page_size: u64,
}

impl Counters {
    pub(crate) fn stats(&self) -> OocPoolStats {
        OocPoolStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            evictions: self.evictions.load(Relaxed),
            writebacks: self.writebacks.load(Relaxed),
            resident: self.resident.load(Relaxed),
            capacity: self.capacity,
            page_reads: self.page_reads.load(Relaxed),
        }
    }

    /// Pages × page size: the file's footprint.
    pub(crate) fn file_bytes(&self) -> u64 {
        self.pages.load(Relaxed) * self.page_size
    }
}

/// Walks the chain headed at `head`, handing each page and its payload to
/// `visit`. Links and lengths come from disk, so both are checked: a chain
/// cannot be longer than the file (a longer walk is a cycle) and a payload
/// cannot be longer than its page.
fn walk_chain(
    file: &mut PagedFile,
    reads: &AtomicU64,
    head: PageId,
    mut visit: impl FnMut(PageId, &[u8]),
) -> DcResult<()> {
    let limit = file.num_pages();
    let mut page = head.0;
    let mut steps = 0u64;
    while page != CHAIN_NONE {
        steps += 1;
        if steps > limit {
            return Err(DcError::Corrupt(format!(
                "page chain at {} cycles (over {limit} links)",
                head.0
            )));
        }
        let d = file.read(PageId(page))?;
        reads.fetch_add(1, Relaxed);
        let next = u64::from_le_bytes(d[0..8].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(d[8..12].try_into().expect("4 bytes")) as usize;
        let payload = d[PAGE_HEADER..]
            .get(..len)
            .ok_or_else(|| DcError::Corrupt(format!("page {page} claims a {len}-byte payload")))?;
        visit(PageId(page), payload);
        page = next;
    }
    Ok(())
}

/// The payload of the chain headed at `head`, and its pages.
fn read_chain(
    file: &mut PagedFile,
    reads: &AtomicU64,
    head: PageId,
) -> DcResult<(Vec<u8>, Vec<PageId>)> {
    let (mut bytes, mut pages) = (Vec::new(), Vec::new());
    walk_chain(file, reads, head, |page, payload| {
        pages.push(page);
        bytes.extend_from_slice(payload);
    })?;
    Ok((bytes, pages))
}

/// Rewrites the chain on `pages` (whose head stays the head) to hold
/// `bytes`, reusing pages, allocating extras, freeing spares; returns the
/// chain's pages. A page's bytes past its payload are zero.
fn write_chain(
    file: &mut PagedFile,
    counters: &Counters,
    mut pages: Vec<PageId>,
    bytes: &[u8],
) -> DcResult<Vec<PageId>> {
    let size = file.page_size();
    let chunks: Vec<&[u8]> = if bytes.is_empty() {
        vec![&[][..]]
    } else {
        bytes.chunks(size - PAGE_HEADER).collect()
    };
    while pages.len() < chunks.len() {
        pages.push(file.alloc()?);
        counters.pages.store(file.num_pages(), Relaxed);
    }
    while pages.len() > chunks.len() {
        file.free(pages.pop().expect("len checked"))?;
    }
    for (i, chunk) in chunks.iter().enumerate() {
        let next = pages.get(i + 1).map_or(CHAIN_NONE, |p| p.0);
        let mut page = vec![0u8; size];
        page[0..8].copy_from_slice(&next.to_le_bytes());
        page[8..12].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
        page[PAGE_HEADER..PAGE_HEADER + chunk.len()].copy_from_slice(chunk);
        file.write(pages[i], &page)?;
    }
    Ok(pages)
}

/// Tuning knobs for an out-of-core store.
#[derive(Debug, Clone, Copy)]
pub struct OocOptions {
    /// On-disk block size.
    pub block: BlockConfig,
    /// Nodes held decoded: the node cache's budget, clean and dirty nodes
    /// together (at least 1).
    pub frames: usize,
}

impl Default for OocOptions {
    fn default() -> Self {
        OocOptions {
            block: BlockConfig::DEFAULT,
            frames: 1024,
        }
    }
}

/// One cached node.
#[derive(Debug)]
struct Cached {
    node: Node,
    /// The pages of the node's chain, head first.
    pages: Vec<PageId>,
    dirty: bool,
    /// The cache's clock at the node's last access.
    used: u64,
}

/// The node cache (see the module docs), by raw handle. Ordered, so that
/// write-backs (which allocate and free chain pages) happen in ascending
/// node order.
#[derive(Debug)]
struct Cache {
    nodes: BTreeMap<u32, Cached>,
    /// How many of `nodes` are dirty.
    dirty: usize,
    /// Most nodes `nodes` may hold (at least 1).
    bound: usize,
    clock: u64,
}

impl Cache {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// A copy of the node at `raw`, if cached.
    fn hit(&mut self, raw: u32) -> Option<Node> {
        let used = self.tick();
        let cached = self.nodes.get_mut(&raw)?;
        cached.used = used;
        Some(cached.node.clone())
    }

    /// Drops the least recently used clean node that may make room for a
    /// node of kind `data` — a data node never displaces a directory node —
    /// and reports whether it found one.
    fn evict_for(&mut self, data: bool, counters: &Counters) -> bool {
        let victim = self
            .nodes
            .iter()
            .filter(|(_, c)| !c.dirty && (c.node.is_data() || !data))
            .min_by_key(|(_, c)| (!c.node.is_data(), c.used))
            .map(|(&raw, _)| raw);
        if let Some(raw) = victim {
            self.nodes.remove(&raw);
            counters.evictions.fetch_add(1, Relaxed);
        }
        victim.is_some()
    }

    /// Caches `node` at `raw`. A dirty node always finds room: the caller
    /// left fewer dirty nodes than the bound. A clean one is dropped if
    /// only nodes it may not displace fill the cache.
    fn insert(
        &mut self,
        raw: u32,
        node: Node,
        pages: Vec<PageId>,
        dirty: bool,
        counters: &Counters,
    ) {
        if self.nodes.contains_key(&raw) {
            // A racing reader cached it first.
            return;
        }
        while self.nodes.len() >= self.bound {
            if !self.evict_for(node.is_data() && !dirty, counters) {
                debug_assert!(!dirty, "dirty nodes fill the cache");
                return;
            }
        }
        let used = self.tick();
        self.dirty += usize::from(dirty);
        self.nodes.insert(
            raw,
            Cached {
                node,
                pages,
                dirty,
                used,
            },
        );
        counters.resident.store(self.nodes.len() as u64, Relaxed);
    }

    fn remove(&mut self, raw: u32, counters: &Counters) -> Option<Cached> {
        let cached = self.nodes.remove(&raw)?;
        self.dirty -= usize::from(cached.dirty);
        counters.resident.store(self.nodes.len() as u64, Relaxed);
        Some(cached)
    }
}

/// The paged node store: a [`PagedFile`] and the node cache over it, node
/// payloads encoded with the page codec.
#[derive(Debug)]
pub struct OocStore {
    file: Mutex<PagedFile>,
    cache: Mutex<Cache>,
    counters: Arc<Counters>,
    num_dims: usize,
}

impl OocStore {
    /// Creates a fresh store at `path`, truncating any existing file.
    pub fn create(path: impl AsRef<Path>, opts: OocOptions) -> DcResult<Self> {
        let mut store = Self::over(PagedFile::create(path, opts.block)?, opts);
        let file = store.file.get_mut();
        let meta = file.alloc()?;
        debug_assert_eq!(meta.0, META_PAGE, "metadata occupies page 1");
        store.counters.pages.store(file.num_pages(), Relaxed);
        write_chain(file, &store.counters, vec![meta], &[])?;
        Ok(store)
    }

    /// Opens an existing store.
    pub fn open(path: impl AsRef<Path>, opts: OocOptions) -> DcResult<Self> {
        Ok(Self::over(PagedFile::open(path, opts.block)?, opts))
    }

    fn over(file: PagedFile, opts: OocOptions) -> Self {
        let bound = opts.frames.max(1);
        let counters = Counters {
            capacity: bound as u64,
            pages: AtomicU64::new(file.num_pages()),
            page_size: file.page_size() as u64,
            ..Counters::default()
        };
        OocStore {
            file: Mutex::new(file),
            cache: Mutex::new(Cache {
                nodes: BTreeMap::new(),
                dirty: 0,
                bound,
                clock: 0,
            }),
            counters: Arc::new(counters),
            num_dims: 0,
        }
    }

    /// The counters, shared (stats and file size without the tree lock).
    pub(crate) fn counters(&self) -> &Arc<Counters> {
        &self.counters
    }

    /// Node-cache counters.
    pub fn pool_stats(&self) -> OocPoolStats {
        self.counters.stats()
    }

    /// Reads and decodes the node at `id` from its chain.
    fn load(&self, id: NodeId) -> DcResult<(Node, Vec<PageId>)> {
        let (bytes, pages) = read_chain(
            &mut self.file.lock(),
            &self.counters.page_reads,
            page_of(id),
        )?;
        self.counters.misses.fetch_add(1, Relaxed);
        Ok((decode_node(&bytes, self.num_dims)?, pages))
    }

    /// Writes the dirty nodes that `pick` selects back to their chains, in
    /// ascending node order; they stay cached, clean.
    fn write_back(&mut self, pick: impl Fn(&Node) -> bool) -> DcResult<()> {
        let (file, cache) = (self.file.get_mut(), self.cache.get_mut());
        for cached in cache.nodes.values_mut() {
            if !cached.dirty || !pick(&cached.node) {
                continue;
            }
            // A failed write leaves the node (and every one after it) dirty.
            let bytes = encode_node(&cached.node);
            cached.pages = write_chain(file, &self.counters, cached.pages.clone(), &bytes)?;
            cached.dirty = false;
            cache.dirty -= 1;
            self.counters.writebacks.fetch_add(1, Relaxed);
        }
        Ok(())
    }

    /// Leaves room for one more dirty node. Data nodes go first: every
    /// descent comes back to the directory path, a leaf is touched by a
    /// fraction of a batch. When directory nodes alone hold more than half
    /// the bound, that buys too few steps until the next call, and every
    /// dirty node is written.
    fn make_room(&mut self) -> DcResult<()> {
        let bound = self.cache.get_mut().bound;
        if self.cache.get_mut().dirty < bound {
            return Ok(());
        }
        self.write_back(Node::is_data)?;
        if self.cache.get_mut().dirty * 2 > bound {
            self.write_back(|_| true)?;
        }
        Ok(())
    }

    fn hold_dirty(&mut self, id: NodeId, node: Node, pages: Vec<PageId>) {
        self.cache
            .get_mut()
            .insert(id.raw(), node, pages, true, &self.counters);
    }
}

impl NodeStore for OocStore {
    /// A copy of the cached node, or the node decoded from its chain —
    /// which then stays cached, clean, if there is room.
    fn get(&self, id: NodeId) -> DcResult<Cow<'_, Node>> {
        if let Some(node) = self.cache.lock().hit(id.raw()) {
            self.counters.hits.fetch_add(1, Relaxed);
            return Ok(Cow::Owned(node));
        }
        let (node, pages) = self.load(id)?;
        self.cache
            .lock()
            .insert(id.raw(), node.clone(), pages, false, &self.counters);
        Ok(Cow::Owned(node))
    }

    /// In place on a dirty node; any other node is taken from the cache or
    /// decoded, and is cached dirty when `f` succeeds. A failing `f`
    /// therefore leaves the pages of a node that was clean untouched (and
    /// the node uncached), and may leave one that was already dirty
    /// half-updated — as on the arena. Making room can write nodes back,
    /// and an I/O error from that is this call's error (before `f` runs).
    fn update<R>(&mut self, id: NodeId, f: impl FnOnce(&mut Node) -> DcResult<R>) -> DcResult<R> {
        let cache = self.cache.get_mut();
        let used = cache.tick();
        if let Some(cached) = cache.nodes.get_mut(&id.raw()).filter(|c| c.dirty) {
            self.counters.hits.fetch_add(1, Relaxed);
            cached.used = used;
            return f(&mut cached.node);
        }
        self.make_room()?;
        let (mut node, pages) = match self.cache.get_mut().remove(id.raw(), &self.counters) {
            Some(cached) => {
                self.counters.hits.fetch_add(1, Relaxed);
                (cached.node, cached.pages)
            }
            None => self.load(id)?,
        };
        let out = f(&mut node)?;
        self.hold_dirty(id, node, pages);
        Ok(out)
    }

    /// The node's head page is allocated now; its content is written with
    /// the dirty nodes. The bound holds here as in `update`: on a fresh
    /// file every node enters through `alloc`.
    fn alloc(&mut self, node: Node) -> DcResult<NodeId> {
        self.make_room()?;
        let file = self.file.get_mut();
        let head = file.alloc()?;
        self.counters.pages.store(file.num_pages(), Relaxed);
        let id = node_at(head)?;
        self.hold_dirty(id, node, vec![head]);
        Ok(id)
    }

    /// Frees the node's chain; a dirty node is never written first.
    fn free(&mut self, id: NodeId) -> DcResult<Node> {
        let (node, pages) = match self.cache.get_mut().remove(id.raw(), &self.counters) {
            Some(cached) => (cached.node, cached.pages),
            None => self.load(id)?,
        };
        let file = self.file.get_mut();
        for page in pages {
            file.free(page)?;
        }
        Ok(node)
    }
}

impl PersistentStore for OocStore {
    fn set_num_dims(&mut self, num_dims: usize) {
        self.num_dims = num_dims;
    }

    fn read_meta(&self) -> DcResult<Vec<u8>> {
        let head = PageId(META_PAGE);
        let (bytes, _) = read_chain(&mut self.file.lock(), &self.counters.page_reads, head)?;
        Ok(bytes)
    }

    fn write_meta(&mut self, bytes: &[u8]) -> DcResult<()> {
        let file = self.file.get_mut();
        let (_, pages) = read_chain(file, &self.counters.page_reads, PageId(META_PAGE))?;
        write_chain(file, &self.counters, pages, bytes).map(drop)
    }

    fn encode_cover(&self, mds: &Mds, summary: &MeasureSummary, out: &mut Vec<u8>) {
        encode_cover(out, mds, summary);
    }

    fn decode_cover(&self, r: &mut ByteReader) -> DcResult<(Mds, MeasureSummary)> {
        decode_cover(r, self.num_dims)
    }

    fn legacy_cover(&self, id: NodeId) -> DcResult<(Mds, MeasureSummary)> {
        let (bytes, _) = read_chain(
            &mut self.file.lock(),
            &self.counters.page_reads,
            page_of(id),
        )?;
        decode_v1_cover(&bytes, self.num_dims)
    }

    /// Writes every dirty node back, then fsyncs the file.
    fn sync(&mut self) -> DcResult<()> {
        self.write_back(|_| true)?;
        self.file.get_mut().sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_common::{AggregateOp, DimensionId, TempDir, ValueId};
    use dc_hierarchy::Record;
    use dc_mds::DimSet;
    use dc_tpcd::{generate, TpcdConfig};
    use dc_tree::node::NodeKind;
    use dc_tree::{DcTree, DcTreeConfig};

    fn opts(frames: usize) -> OocOptions {
        OocOptions {
            block: BlockConfig::new(512),
            frames,
        }
    }

    /// Small nodes: a few thousand records already split on every level.
    fn config() -> DcTreeConfig {
        DcTreeConfig {
            dir_capacity: 8,
            data_capacity: 8,
            ..DcTreeConfig::default()
        }
    }

    /// A one-dimensional data node of `records` records, about four bytes
    /// each encoded — several 512-byte pages at 600 records.
    fn node(records: u32) -> Node {
        let records = (0..records).map(|i| Record::new(vec![ValueId::new(0, i * 1_000)], 1));
        Node::new(NodeKind::Data(records.collect()))
    }

    fn store_at(dir: &TempDir, frames: usize) -> OocStore {
        let mut store = OocStore::create(dir.join("store.dct"), opts(frames)).unwrap();
        store.set_num_dims(1);
        store
    }

    #[test]
    fn get_sees_an_update_before_any_write_back() {
        let dir = TempDir::new("ooc-store");
        let mut store = store_at(&dir, 8);
        let id = store.alloc(node(3)).unwrap();
        store
            .update(id, |n| {
                n.blocks = 7;
                Ok(())
            })
            .unwrap();
        assert_eq!(store.get(id).unwrap().blocks, 7, "served from the cache");
        let stats = store.pool_stats();
        assert_eq!((stats.misses, stats.writebacks), (0, 0));
        assert_eq!((stats.resident, stats.hits), (1, 2));

        // Written back, the node stays cached, clean; its pages hold it.
        store.sync().unwrap();
        assert_eq!(store.get(id).unwrap().blocks, 7);
        let stats = store.pool_stats();
        assert_eq!((stats.misses, stats.writebacks), (0, 1));
        assert_eq!((stats.resident, stats.hits), (1, 3));
        let mut reopened = OocStore::open(dir.join("store.dct"), opts(8)).unwrap();
        reopened.set_num_dims(1);
        assert_eq!(reopened.get(id).unwrap().blocks, 7);
        assert_eq!(reopened.pool_stats().misses, 1);
    }

    #[test]
    fn a_failing_step_leaves_a_clean_node_out_of_the_set() {
        let dir = TempDir::new("ooc-store");
        let mut store = store_at(&dir, 8);
        let id = store.alloc(node(3)).unwrap();
        store.sync().unwrap();
        let failed: DcResult<()> = store.update(id, |n| {
            n.blocks = 9;
            Err(DcError::Config("step failed".into()))
        });
        assert!(failed.is_err());
        assert_eq!(
            store.pool_stats().resident,
            0,
            "the half-updated copy is dropped"
        );
        assert_eq!(store.get(id).unwrap().blocks, 1);
    }

    #[test]
    fn freeing_a_buffered_node_releases_its_pages_and_never_writes_it() {
        let dir = TempDir::new("ooc-store");
        let mut store = store_at(&dir, 8);

        // Allocated and freed between two syncs: never encoded.
        let id = store.alloc(node(600)).unwrap();
        assert_eq!(store.free(id).unwrap(), node(600));
        store.sync().unwrap();
        assert_eq!(store.pool_stats().writebacks, 0);
        assert_eq!(store.alloc(node(1)).unwrap(), id, "head page recycled");
        store.free(id).unwrap();

        // Written once (a chain of several pages), dirtied again, freed: the
        // whole chain is released and the dirty copy never written.
        let id = store.alloc(node(600)).unwrap();
        store.sync().unwrap();
        let pages = store.counters.pages.load(Relaxed);
        assert!(pages >= 5, "a multi-page chain: {pages} pages");
        store
            .update(id, |n| {
                n.blocks = 2;
                Ok(())
            })
            .unwrap();
        assert_eq!(store.free(id).unwrap().blocks, 2);
        store.sync().unwrap();
        assert_eq!(store.pool_stats().writebacks, 1);
        store.alloc(node(600)).unwrap();
        store.sync().unwrap();
        assert_eq!(
            store.counters.pages.load(Relaxed),
            pages,
            "the freed chain is reused"
        );
    }

    /// The write-back trigger counts dirty nodes only: a cache full of clean
    /// nodes (here, just written back) writes nothing until the dirty ones
    /// alone reach the bound.
    #[test]
    fn clean_nodes_never_trigger_a_write_back() {
        let dir = TempDir::new("ooc-store");
        let mut store = store_at(&dir, 3);
        let ids = [1, 2, 3].map(|n| store.alloc(node(n)).unwrap());
        store.sync().unwrap();
        assert_eq!(store.pool_stats().writebacks, 3);
        for (i, &id) in ids.iter().enumerate() {
            store
                .update(id, |n| {
                    n.blocks = 2;
                    Ok(())
                })
                .unwrap();
            assert_eq!(store.pool_stats().writebacks, 3, "after {} updates", i + 1);
        }
        store.alloc(node(4)).unwrap();
        assert_eq!(
            store.pool_stats().writebacks,
            6,
            "three dirty nodes at the bound"
        );
    }

    /// Room for a read is made from clean data nodes first, the least
    /// recently used first, and a data node never displaces a directory
    /// node.
    #[test]
    fn reads_drop_data_nodes_before_directory_nodes() {
        let dir = TempDir::new("ooc-store");
        let mut store = store_at(&dir, 8);
        let [d, e] = [(); 2].map(|_| {
            let dir_node = Node::new(NodeKind::Dir(Vec::new().into()));
            store.alloc(dir_node).unwrap()
        });
        let [a, b] = [1, 2].map(|n| store.alloc(node(n)).unwrap());
        store.sync().unwrap();
        drop(store);

        let mut store = OocStore::open(dir.join("store.dct"), opts(2)).unwrap();
        store.set_num_dims(1);
        let cached = |store: &OocStore| {
            let held: Vec<u32> = store.cache.lock().nodes.keys().copied().collect();
            held
        };
        let sorted = |mut ids: [NodeId; 2]| {
            ids.sort_by_key(|id| id.raw());
            ids.map(|id| id.raw()).to_vec()
        };
        for id in [a, d, b] {
            store.get(id).unwrap();
        }
        assert_eq!(
            cached(&store),
            sorted([d, b]),
            "a, the older data node, made room"
        );
        store.get(e).unwrap();
        assert_eq!(
            cached(&store),
            sorted([d, e]),
            "b made room for a directory node"
        );
        store.get(a).unwrap();
        assert_eq!(cached(&store), sorted([d, e]), "a data node displaces none");
        let stats = store.pool_stats();
        assert_eq!((stats.misses, stats.evictions, stats.hits), (5, 2, 0));
    }

    /// Asserts the cache holds at most `frames` nodes.
    fn assert_within(store: &OocStore, frames: usize) {
        let held = store.cache.lock().nodes.len();
        assert!(held <= frames, "{held} nodes held, bound {frames}");
        assert_eq!(store.pool_stats().resident, held as u64);
    }

    /// Loads `records` in batches of 64, checking the bound after each.
    fn load(tree: &mut DcTree<OocStore>, records: &[Record], frames: usize) {
        for chunk in records.chunks(64) {
            tree.insert_batch(chunk.to_vec()).unwrap();
            assert_within(tree.store(), frames);
        }
    }

    #[test]
    fn the_set_stays_within_its_bound_and_queries_still_go_through_the_pool() {
        let cube = generate(&TpcdConfig::scaled(2_000, 5));
        for frames in [1, 6] {
            let dir = TempDir::new("ooc-store");
            let store = OocStore::create(dir.join("tree.dct"), opts(frames)).unwrap();
            let mut tree = DcTree::create_in(store, cube.schema.clone(), config()).unwrap();
            load(&mut tree, &cube.records, frames);
            assert!(tree.num_nodes() > 20 * frames, "{} nodes", tree.num_nodes());
            tree.check_invariants().unwrap();

            // On a fresh file every node entered through `alloc`; had the
            // bound not held there, the whole tree would be served decoded
            // and this query would decode no node.
            let before = tree.store().pool_stats();
            let all = tree
                .range_query(&Mds::all(tree.schema()), AggregateOp::Count)
                .unwrap();
            assert_eq!(all, Some(2_000.0));
            let narrow = cube.records[0].clone();
            let q = Mds::new(narrow.dims.iter().map(|&v| DimSet::singleton(v)).collect());
            assert!(tree.range_query(&q, AggregateOp::Count).unwrap() >= Some(1.0));
            let after = tree.store().pool_stats();
            assert!(after.misses > before.misses, "{before:?} → {after:?}");
            assert!(after.page_reads > before.page_reads);
            assert_within(tree.store(), frames);
        }
    }

    #[test]
    fn flush_then_reopen_gives_the_same_tree() {
        let cube = generate(&TpcdConfig::scaled(1_500, 6));
        let dir = TempDir::new("ooc-store");
        let path = dir.join("tree.dct");
        let store = OocStore::create(&path, opts(6)).unwrap();
        let mut tree = DcTree::create_in(store, cube.schema.clone(), config()).unwrap();
        load(&mut tree, &cube.records, 6);
        for r in cube.records.iter().step_by(3) {
            assert!(tree.delete(r).unwrap());
        }
        let want = tree.structure().unwrap();
        tree.flush().unwrap();
        assert_eq!(
            tree.store().cache.lock().dirty,
            0,
            "flush writes every dirty node"
        );
        assert!(tree.structure().unwrap() == want, "flush changed the tree");
        drop(tree);

        let reopened = DcTree::open_in(OocStore::open(&path, opts(6)).unwrap(), config());
        let reopened = reopened.unwrap();
        reopened.check_invariants().unwrap();
        assert!(reopened.structure().unwrap() == want);
    }

    /// Write-backs run in node order, never in a hasher's: one input stream,
    /// one file, byte for byte.
    #[test]
    fn the_file_is_a_function_of_the_stream() {
        let cube = generate(&TpcdConfig::scaled(4_000, 8));
        let dir = TempDir::new("ooc-store");
        let files = ["a.dct", "b.dct"].map(|name| {
            let path = dir.join(name);
            let store = OocStore::create(&path, opts(12)).unwrap();
            let mut tree = DcTree::create_in(store, cube.schema.clone(), config()).unwrap();
            for (i, chunk) in cube.records.chunks(100).enumerate() {
                tree.insert_batch(chunk.to_vec()).unwrap();
                for r in chunk.iter().step_by(7) {
                    assert!(tree.delete(r).unwrap());
                }
                if i % 8 == 7 {
                    tree.flush().unwrap();
                }
            }
            tree.flush().unwrap();
            drop(tree);
            std::fs::read(path).unwrap()
        });
        assert!(files[0] == files[1]);
    }

    /// Scalar and `GROUP BY` reads at three selectivities: one level-1
    /// value on every dimension, two on the first, the whole cube.
    fn read_pass(tree: &DcTree<OocStore>) {
        let schema = tree.schema();
        let pick = |d: usize, take: usize| {
            let values: Vec<ValueId> = schema
                .dim(DimensionId(d as u16))
                .values_at(1)
                .take(take)
                .collect();
            DimSet::new(1, values)
        };
        let narrow = Mds::new((0..schema.num_dims()).map(|d| pick(d, 1)).collect());
        let mut medium = Mds::all(schema);
        *medium.dim_mut(0) = pick(0, 2);
        for q in [narrow, medium, Mds::all(schema)] {
            tree.range_summary(&q).unwrap();
            tree.group_by(DimensionId(0), 1, &q).unwrap();
        }
    }

    /// Clean nodes never count toward the write-back trigger, so a stream
    /// makes the same write-backs and writes the same file whether or not
    /// reads fill the cache between its batches — and the cache keeps its
    /// bound either way. 128-byte pages put most nodes on chains of several
    /// pages, so a write-back moved in time would move page allocations.
    #[test]
    fn reads_do_not_shape_the_file() {
        let cube = generate(&TpcdConfig::scaled(4_000, 9));
        for frames in [1, 4, 23] {
            let dir = TempDir::new("ooc-store");
            let runs = [false, true].map(|reads| {
                let path = dir.join(format!("reads-{reads}.dct"));
                let opts = OocOptions {
                    block: BlockConfig::new(128),
                    frames,
                };
                let store = OocStore::create(&path, opts).unwrap();
                let mut tree = DcTree::create_in(store, cube.schema.clone(), config()).unwrap();
                for chunk in cube.records.chunks(100) {
                    tree.insert_batch(chunk.to_vec()).unwrap();
                    assert_within(tree.store(), frames);
                    if reads {
                        read_pass(&tree);
                        assert_within(tree.store(), frames);
                    }
                    for r in chunk.iter().step_by(5) {
                        assert!(tree.delete(r).unwrap());
                    }
                }
                tree.flush().unwrap();
                let writebacks = tree.store().pool_stats().writebacks;
                drop(tree);
                (writebacks, std::fs::read(path).unwrap())
            });
            assert_eq!(runs[0].0, runs[1].0, "write-backs at {frames} frames");
            assert!(
                runs[0].1 == runs[1].1,
                "reads changed the file at {frames} frames"
            );
        }
    }
}
