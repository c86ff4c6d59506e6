//! Where DC-tree nodes live.
//!
//! [`DcTree`] holds the DC-tree *algorithms* (choose-subtree,
//! hierarchy split, condensation, materialized range queries); a
//! [`NodeStore`] holds the *nodes*. The paper's nodes are disk blocks; here
//! the same tree runs over the in-memory [`Arena`] (the default, and what
//! every resident shard uses), over the single-threaded [`ChainStore`] (a
//! `BufferPool` behind a `RefCell`, as used by tests and tools) and over the
//! concurrent, scan-resistant pool in `dc-oocore` (compressed node pages
//! served to the sharded engine) without duplicating any tree logic.
//!
//! A store hands out [`NodeId`] handles. For the arena a handle is a slot
//! index; for chain stores it is the head page of the node's page chain,
//! and directory entries persist it through [`NodeId::raw`].

use std::borrow::Cow;
use std::cell::RefCell;
use std::path::Path;

use dc_common::{DcError, DcResult};
use dc_hierarchy::CubeSchema;
use dc_storage::{BlockConfig, BufferPool, ByteReader, ByteWriter, PageId, PagedFile, PoolStats};

use crate::config::DcTreeConfig;
use crate::node::{Node, NodeId};
use crate::persist::{read_node, write_node};
use crate::tree::DcTree;

/// Sentinel `next` link terminating a page chain.
pub const CHAIN_NONE: u64 = u64::MAX;
/// Per-page chain header: `[next: u64][len: u32]`.
pub const PAGE_HEADER: usize = 8 + 4;
/// The page holding the head of the metadata chain (page 0 is the paged
/// file's own header).
pub const META_PAGE: u64 = 1;

/// Storage for DC-tree nodes, keyed by [`NodeId`].
///
/// The tree touches a node in exactly two ways: it *reads* it ([`get`]) or
/// it runs *one mutation step* on it ([`update`]). For the arena these are
/// a borrow and a mutable borrow; for a paged store a read is a load +
/// decode and an update is load → mutate → store, so every step of an
/// algorithm costs a paged store one load and at most one store.
///
/// [`get`]: NodeStore::get
/// [`update`]: NodeStore::update
pub trait NodeStore {
    /// Reads the node at `id`: borrowed from a resident store, decoded
    /// (owned) from a paged one.
    fn get(&self, id: NodeId) -> DcResult<Cow<'_, Node>>;

    /// Runs one mutation step on the node at `id`. When `f` fails the
    /// node's stored state is unspecified for resident stores (the step
    /// may have been half applied) and unchanged for paged ones.
    fn update<R>(&mut self, id: NodeId, f: impl FnOnce(&mut Node) -> DcResult<R>) -> DcResult<R>;

    /// Stores a fresh node and returns its handle.
    fn alloc(&mut self, node: Node) -> DcResult<NodeId>;

    /// Releases the node at `id`, handing back its last content.
    fn free(&mut self, id: NodeId) -> DcResult<Node>;
}

/// A [`NodeStore`] that outlives the process: besides nodes it keeps one
/// metadata blob (tree root, counters, schema), which is what
/// [`DcTree::create_in`] / [`DcTree::open_in`] / [`DcTree::flush`] write
/// and read.
pub trait PersistentStore: NodeStore {
    /// Tells the store the cube's dimensionality, which decoding a node
    /// needs (MDS sets are not counted on disk). The tree calls this before
    /// its first node access.
    fn set_num_dims(&mut self, num_dims: usize);

    /// Reads the metadata blob.
    fn read_meta(&self) -> DcResult<Vec<u8>>;

    /// Rewrites the metadata blob.
    fn write_meta(&mut self, bytes: &[u8]) -> DcResult<()>;

    /// Forces every buffered write down to durable storage.
    fn sync(&mut self) -> DcResult<()>;
}

/// The page a paged store keeps the node `id` at.
pub fn page_of(id: NodeId) -> PageId {
    PageId(u64::from(id.raw()))
}

/// The node handle for a freshly allocated `page`; fails once a file has
/// outgrown the 32-bit handle directory entries persist.
pub fn node_at(page: PageId) -> DcResult<NodeId> {
    u32::try_from(page.0)
        .map(NodeId::from_raw)
        .map_err(|_| DcError::Config(format!("page {} exceeds the node-handle width", page.0)))
}

// ----------------------------------------------------------------------
// The in-memory store
// ----------------------------------------------------------------------

/// The resident [`NodeStore`]: a slab with a free list recycling the slots
/// deletion releases.
#[derive(Clone, Debug, Default)]
pub struct Arena {
    slots: Vec<Option<Node>>,
    free: Vec<u32>,
}

impl Arena {
    /// Iterates over live `(NodeId, &Node)` pairs.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|n| (NodeId(i as u32), n)))
    }

    /// Number of live nodes.
    pub(crate) fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// All slots including holes — used by the persistence codec so that
    /// `NodeId`s survive a save/load round-trip unchanged.
    pub(crate) fn slots(&self) -> &[Option<Node>] {
        &self.slots
    }

    /// Rebuilds an arena from raw slots (persistence load path).
    pub(crate) fn from_slots(slots: Vec<Option<Node>>) -> Self {
        let free = slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_none().then_some(i as u32))
            .collect();
        Arena { slots, free }
    }
}

impl NodeStore for Arena {
    #[inline]
    fn get(&self, id: NodeId) -> DcResult<Cow<'_, Node>> {
        Ok(Cow::Borrowed(
            self.slots[id.index()].as_ref().expect("dangling NodeId"),
        ))
    }

    #[inline]
    fn update<R>(&mut self, id: NodeId, f: impl FnOnce(&mut Node) -> DcResult<R>) -> DcResult<R> {
        f(self.slots[id.index()].as_mut().expect("dangling NodeId"))
    }

    fn alloc(&mut self, node: Node) -> DcResult<NodeId> {
        Ok(if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Some(node);
            NodeId(idx)
        } else {
            self.slots.push(Some(node));
            NodeId((self.slots.len() - 1) as u32)
        })
    }

    fn free(&mut self, id: NodeId) -> DcResult<Node> {
        let node = self.slots[id.index()].take().expect("double free");
        self.free.push(id.0);
        Ok(node)
    }
}

// ----------------------------------------------------------------------
// Chain primitives: every node is a chain of pages
// `[next: u64][len: u32][payload]`.
// ----------------------------------------------------------------------

pub(crate) fn read_chain(pool: &mut BufferPool, head: PageId) -> DcResult<Vec<u8>> {
    let mut out = Vec::new();
    let mut page = head.0;
    let mut guard = 0usize;
    while page != CHAIN_NONE {
        let (next, chunk) = pool.with_page(PageId(page), |d| {
            let next = u64::from_le_bytes(d[0..8].try_into().expect("8 bytes"));
            let len = u32::from_le_bytes(d[8..12].try_into().expect("4 bytes")) as usize;
            let len = len.min(d.len() - PAGE_HEADER);
            (next, d[PAGE_HEADER..PAGE_HEADER + len].to_vec())
        })?;
        out.extend_from_slice(&chunk);
        page = next;
        guard += 1;
        if guard > 1 << 22 {
            return Err(DcError::Corrupt("page chain cycle".into()));
        }
    }
    Ok(out)
}

pub(crate) fn chain_pages(pool: &mut BufferPool, head: PageId) -> DcResult<Vec<PageId>> {
    let mut pages = vec![head];
    let mut page = head.0;
    loop {
        let next = pool.with_page(PageId(page), |d| {
            u64::from_le_bytes(d[0..8].try_into().expect("8 bytes"))
        })?;
        if next == CHAIN_NONE {
            return Ok(pages);
        }
        pages.push(PageId(next));
        page = next;
        if pages.len() > 1 << 22 {
            return Err(DcError::Corrupt("page chain cycle".into()));
        }
    }
}

/// Rewrites the chain headed at `head` (which stays the head) to hold
/// `bytes`, reusing pages, allocating extras, freeing spares.
pub(crate) fn write_chain(
    pool: &mut BufferPool,
    head: PageId,
    bytes: &[u8],
    payload_per_page: usize,
) -> DcResult<()> {
    let mut existing = chain_pages(pool, head)?;
    let chunks: Vec<&[u8]> = if bytes.is_empty() {
        vec![&[][..]]
    } else {
        bytes.chunks(payload_per_page).collect()
    };
    // Grow or shrink the page list to match.
    while existing.len() < chunks.len() {
        let p = pool.alloc()?;
        existing.push(p);
    }
    while existing.len() > chunks.len() {
        let spare = existing.pop().expect("len checked");
        pool.free(spare)?;
    }
    for (i, chunk) in chunks.iter().enumerate() {
        let next = if i + 1 < existing.len() {
            existing[i + 1].0
        } else {
            CHAIN_NONE
        };
        pool.with_page_mut(existing[i], |d| {
            d[0..8].copy_from_slice(&next.to_le_bytes());
            d[8..12].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
            d[PAGE_HEADER..PAGE_HEADER + chunk.len()].copy_from_slice(chunk);
        })?;
    }
    Ok(())
}

pub(crate) fn free_chain(pool: &mut BufferPool, head: PageId) -> DcResult<()> {
    for page in chain_pages(pool, head)? {
        pool.free(page)?;
    }
    Ok(())
}

/// Marks a fresh page as an empty, terminated chain.
pub(crate) fn init_chain(pool: &mut BufferPool, head: PageId) -> DcResult<()> {
    pool.with_page_mut(head, |d| {
        d[0..8].copy_from_slice(&CHAIN_NONE.to_le_bytes());
        d[8..12].copy_from_slice(&0u32.to_le_bytes());
    })
}

/// The single-threaded chain store: a [`BufferPool`] over a [`PagedFile`],
/// nodes encoded with the plain (uncompressed) persist codec. This is the
/// store behind [`DiskDcTree`].
#[derive(Debug)]
pub struct ChainStore {
    pool: RefCell<BufferPool>,
    payload: usize,
    num_dims: usize,
}

impl ChainStore {
    /// Creates a fresh chain store at `path` (truncating any existing
    /// file); `frames` bounds the buffer pool.
    pub fn create(path: impl AsRef<Path>, block: BlockConfig, frames: usize) -> DcResult<Self> {
        let file = PagedFile::create(path, block)?;
        let mut pool = BufferPool::new(file, frames);
        let meta = pool.alloc()?;
        debug_assert_eq!(meta.0, META_PAGE, "metadata occupies page 1");
        init_chain(&mut pool, meta)?;
        Ok(ChainStore {
            pool: RefCell::new(pool),
            payload: block.block_size - PAGE_HEADER,
            num_dims: 0,
        })
    }

    /// Opens an existing chain store.
    pub fn open(path: impl AsRef<Path>, block: BlockConfig, frames: usize) -> DcResult<Self> {
        let file = PagedFile::open(path, block)?;
        let pool = BufferPool::new(file, frames);
        Ok(ChainStore {
            pool: RefCell::new(pool),
            payload: block.block_size - PAGE_HEADER,
            num_dims: 0,
        })
    }

    /// Buffer-pool counters: real page hits, misses, write-backs.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.borrow().stats()
    }

    fn load(&self, id: NodeId) -> DcResult<Node> {
        let bytes = read_chain(&mut self.pool.borrow_mut(), page_of(id))?;
        let mut r = ByteReader::new(&bytes);
        let node = read_node(&mut r, self.num_dims)?;
        r.expect_end()?;
        Ok(node)
    }

    fn store(&self, id: NodeId, node: &Node) -> DcResult<()> {
        let mut w = ByteWriter::new();
        write_node(&mut w, node);
        write_chain(
            &mut self.pool.borrow_mut(),
            page_of(id),
            &w.into_vec(),
            self.payload,
        )
    }
}

impl NodeStore for ChainStore {
    fn get(&self, id: NodeId) -> DcResult<Cow<'_, Node>> {
        self.load(id).map(Cow::Owned)
    }

    fn update<R>(&mut self, id: NodeId, f: impl FnOnce(&mut Node) -> DcResult<R>) -> DcResult<R> {
        let mut node = self.load(id)?;
        let out = f(&mut node)?;
        self.store(id, &node)?;
        Ok(out)
    }

    fn alloc(&mut self, node: Node) -> DcResult<NodeId> {
        let head = {
            let mut pool = self.pool.borrow_mut();
            let head = pool.alloc()?;
            // Fresh pages are zeroed; initialize an empty chain terminator
            // before the real store.
            init_chain(&mut pool, head)?;
            head
        };
        let id = node_at(head)?;
        self.store(id, &node)?;
        Ok(id)
    }

    fn free(&mut self, id: NodeId) -> DcResult<Node> {
        let node = self.load(id)?;
        free_chain(&mut self.pool.borrow_mut(), page_of(id))?;
        Ok(node)
    }
}

impl PersistentStore for ChainStore {
    fn set_num_dims(&mut self, num_dims: usize) {
        self.num_dims = num_dims;
    }

    fn read_meta(&self) -> DcResult<Vec<u8>> {
        read_chain(&mut self.pool.borrow_mut(), PageId(META_PAGE))
    }

    fn write_meta(&mut self, bytes: &[u8]) -> DcResult<()> {
        write_chain(
            &mut self.pool.borrow_mut(),
            PageId(META_PAGE),
            bytes,
            self.payload,
        )
    }

    fn sync(&mut self) -> DcResult<()> {
        self.pool.borrow_mut().flush()
    }
}

/// The classic single-threaded disk tree: the DC-tree over the
/// uncompressed [`ChainStore`]. Every node visit goes through the store's
/// buffer pool, so the paper's I/O story is physically measurable.
pub type DiskDcTree = DcTree<ChainStore>;

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
        self.store().pool_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_common::ValueId;
    use dc_mds::{DimSet, Mds};

    #[test]
    fn arena_alloc_get_free_recycles() {
        let node = || Node::new_data(Mds::new(vec![DimSet::singleton(ValueId::new(1, 0))]));
        let mut a = Arena::default();
        let n1 = a.alloc(node()).unwrap();
        let n2 = a.alloc(node()).unwrap();
        assert_ne!(n1, n2);
        assert_eq!(a.len(), 2);
        a.free(n1).unwrap();
        assert_eq!(a.len(), 1);
        let n3 = a.alloc(node()).unwrap();
        assert_eq!(n3, n1); // slot reused
        assert_eq!(a.len(), 2);
        assert_eq!(a.iter().count(), 2);
    }
}
