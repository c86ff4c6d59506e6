//! [`OocStore`]: the concurrent [`NodeStore`] serving DC-tree nodes from
//! disk pages through the scan-resistant [`ConcurrentPool`].
//!
//! This module is the only code that knows how a node is laid out on
//! pages: every node (and the metadata blob) is a chain of pages
//! `[next: u64][len: u32][payload]`, metadata headed at page 1, a node's
//! handle the head page of its chain. Node payloads go through the
//! [`codec`](crate::codec).
//!
//! # The decoded write-back set
//!
//! The codec is the expensive part of a node access, and one record's
//! descent mutates the root, a directory node and a leaf. So a node the tree
//! mutates is decoded once and then kept — decoded and dirty — in a set
//! bounded by the frame budget; further steps mutate it in place, reads look
//! there first, and it is encoded and written to its chain once, when the
//! set makes room or [`sync`](PersistentStore::sync) empties it. Between
//! two syncs the pages of a node in the set are stale (an empty chain, for a
//! node allocated since), which is safe because nothing reads a node's pages
//! except through this store — and the file was never a valid image between
//! syncs anyway: `sync` is what the checkpointer copies behind.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use dc_common::{DcError, DcResult, MeasureSummary};
use dc_mds::Mds;
use dc_storage::{BlockConfig, ByteReader, PageId, PagedFile};
use dc_tree::node::{Node, NodeId};
use dc_tree::store::{NodeStore, PersistentStore};

use crate::codec::{decode_cover, decode_node, decode_v1_cover, encode_cover, encode_node};
use crate::pool::{ConcurrentPool, OocPoolStats};

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

/// Walks the chain headed at `head`, handing each page and its payload to
/// `visit`. Links and lengths come from disk, so both are checked: a chain
/// cannot be longer than the file (a longer walk is a cycle) and a payload
/// cannot be longer than its page.
fn walk_chain(
    pool: &ConcurrentPool,
    head: PageId,
    mut visit: impl FnMut(PageId, &[u8]),
) -> DcResult<()> {
    let limit = pool.num_pages();
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
        page = pool.with_page(PageId(page), |d| {
            let next = u64::from_le_bytes(d[0..8].try_into().expect("8 bytes"));
            let len = u32::from_le_bytes(d[8..12].try_into().expect("4 bytes")) as usize;
            let payload = d[PAGE_HEADER..].get(..len).ok_or_else(|| {
                DcError::Corrupt(format!("page {page} claims a {len}-byte payload"))
            })?;
            visit(PageId(page), payload);
            Ok::<u64, DcError>(next)
        })??;
    }
    Ok(())
}

fn read_chain(pool: &ConcurrentPool, head: PageId) -> DcResult<Vec<u8>> {
    let mut out = Vec::new();
    walk_chain(pool, head, |_, payload| out.extend_from_slice(payload))?;
    Ok(out)
}

fn chain_pages(pool: &ConcurrentPool, head: PageId) -> DcResult<Vec<PageId>> {
    let mut pages = Vec::new();
    walk_chain(pool, head, |page, _| pages.push(page))?;
    Ok(pages)
}

/// Rewrites the chain headed at `head` (which stays the head) to hold
/// `bytes`, reusing pages, allocating extras, freeing spares.
fn write_chain(
    pool: &ConcurrentPool,
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
    while existing.len() < chunks.len() {
        existing.push(pool.alloc()?);
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

fn free_chain(pool: &ConcurrentPool, head: PageId) -> DcResult<()> {
    for page in chain_pages(pool, head)? {
        pool.free(page)?;
    }
    Ok(())
}

/// Marks a fresh page as an empty, terminated chain.
fn init_chain(pool: &ConcurrentPool, head: PageId) -> DcResult<()> {
    pool.with_page_mut(head, |d| {
        d[0..8].copy_from_slice(&CHAIN_NONE.to_le_bytes());
        d[8..12].copy_from_slice(&0u32.to_le_bytes());
    })
}

/// Tuning knobs for an out-of-core store.
#[derive(Debug, Clone, Copy)]
pub struct OocOptions {
    /// On-disk block size.
    pub block: BlockConfig,
    /// Buffer-pool frame budget (resident pages). The decoded write-back
    /// set holds at most as many nodes.
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

/// Concurrent chain store over a [`ConcurrentPool`], node payloads encoded
/// with the page codec.
#[derive(Debug)]
pub struct OocStore {
    pool: Arc<ConcurrentPool>,
    payload: usize,
    num_dims: usize,
    /// The decoded write-back set, by raw handle: every node mutated since
    /// it was last written to its chain, and no other. Ordered, so that
    /// write-backs (which allocate and free chain pages) happen in ascending
    /// node order and the file is a function of the operations applied to
    /// it.
    decoded: BTreeMap<u32, Node>,
    /// Most nodes `decoded` may hold (at least 1).
    bound: usize,
}

impl OocStore {
    /// Creates a fresh store at `path`, truncating any existing file.
    pub fn create(path: impl AsRef<Path>, opts: OocOptions) -> DcResult<Self> {
        let store = Self::over(PagedFile::create(path, opts.block)?, opts);
        let meta = store.pool.alloc()?;
        debug_assert_eq!(meta.0, META_PAGE, "metadata occupies page 1");
        init_chain(&store.pool, meta)?;
        Ok(store)
    }

    /// Opens an existing store.
    pub fn open(path: impl AsRef<Path>, opts: OocOptions) -> DcResult<Self> {
        Ok(Self::over(PagedFile::open(path, opts.block)?, opts))
    }

    fn over(file: PagedFile, opts: OocOptions) -> Self {
        OocStore {
            pool: Arc::new(ConcurrentPool::new(file, opts.frames)),
            payload: opts.block.block_size - PAGE_HEADER,
            num_dims: 0,
            decoded: BTreeMap::new(),
            bound: opts.frames.max(1),
        }
    }

    /// The shared buffer pool (for stats and checkpoint flushes).
    pub fn pool(&self) -> &Arc<ConcurrentPool> {
        &self.pool
    }

    /// Buffer-pool counters.
    pub fn pool_stats(&self) -> OocPoolStats {
        self.pool.stats()
    }

    fn load(&self, id: NodeId) -> DcResult<Node> {
        let bytes = read_chain(&self.pool, page_of(id))?;
        self.pool.nodes.decodes.fetch_add(1, Relaxed);
        decode_node(&bytes, self.num_dims)
    }

    fn store(&self, id: NodeId, node: &Node) -> DcResult<()> {
        let bytes = encode_node(node);
        self.pool.nodes.encodes.fetch_add(1, Relaxed);
        write_chain(&self.pool, page_of(id), &bytes, self.payload)
    }

    /// Writes the nodes of the set that `pick` selects back to their chains,
    /// in ascending node order, and drops them from the set.
    fn write_back(&mut self, pick: impl Fn(&Node) -> bool) -> DcResult<()> {
        let picked: Vec<u32> = self
            .decoded
            .iter()
            .filter(|(_, node)| pick(node))
            .map(|(&raw, _)| raw)
            .collect();
        // Written before it is dropped: a failed write leaves the node (and
        // everything after it) in the set.
        let written = picked.into_iter().try_for_each(|raw| {
            self.store(NodeId::from_raw(raw), &self.decoded[&raw])?;
            self.decoded.remove(&raw);
            Ok(())
        });
        self.publish_len();
        written
    }

    /// Mirrors the set's size into the pool's counters, where stats are read
    /// without the tree lock.
    fn publish_len(&self) {
        let len = self.decoded.len() as u64;
        self.pool.nodes.held.store(len, Relaxed);
    }

    /// Leaves room for one more node in the set. Data nodes go first: every
    /// descent comes back to the directory path, a leaf is touched by a
    /// fraction of a batch. When directory nodes alone hold more than half
    /// the bound, that buys too few steps until the next call, and the
    /// whole set goes.
    fn make_room(&mut self) -> DcResult<()> {
        if self.decoded.len() < self.bound {
            return Ok(());
        }
        self.write_back(Node::is_data)?;
        if self.decoded.len() * 2 > self.bound {
            self.write_back(|_| true)?;
        }
        Ok(())
    }

    fn hold(&mut self, id: NodeId, node: Node) {
        self.decoded.insert(id.raw(), node);
        self.publish_len();
    }
}

impl NodeStore for OocStore {
    fn get(&self, id: NodeId) -> DcResult<Cow<'_, Node>> {
        if let Some(node) = self.decoded.get(&id.raw()) {
            self.pool.nodes.served.fetch_add(1, Relaxed);
            return Ok(Cow::Borrowed(node));
        }
        self.load(id).map(Cow::Owned)
    }

    /// In place on a node of the write-back set; any other node is decoded
    /// and joins the set when `f` succeeds. A failing `f` therefore leaves a
    /// node that was clean untouched, and may leave one that was already
    /// dirty half-updated — as on the arena. Making room can write nodes
    /// back, and an I/O error from that is this call's error (before `f`
    /// runs).
    fn update<R>(&mut self, id: NodeId, f: impl FnOnce(&mut Node) -> DcResult<R>) -> DcResult<R> {
        if let Some(node) = self.decoded.get_mut(&id.raw()) {
            self.pool.nodes.served.fetch_add(1, Relaxed);
            return f(node);
        }
        self.make_room()?;
        let mut node = self.load(id)?;
        let out = f(&mut node)?;
        self.hold(id, node);
        Ok(out)
    }

    /// The node's page is allocated and its (empty) chain initialised now;
    /// its content is written with the set. The bound holds here as in
    /// `update`: on a fresh file every node enters through `alloc`.
    fn alloc(&mut self, node: Node) -> DcResult<NodeId> {
        self.make_room()?;
        let head = self.pool.alloc()?;
        init_chain(&self.pool, head)?;
        let id = node_at(head)?;
        self.hold(id, node);
        Ok(id)
    }

    fn free(&mut self, id: NodeId) -> DcResult<Node> {
        let node = match self.decoded.remove(&id.raw()) {
            Some(node) => {
                self.publish_len();
                node
            }
            None => self.load(id)?,
        };
        free_chain(&self.pool, page_of(id))?;
        Ok(node)
    }
}

impl PersistentStore for OocStore {
    fn set_num_dims(&mut self, num_dims: usize) {
        self.num_dims = num_dims;
    }

    fn read_meta(&self) -> DcResult<Vec<u8>> {
        read_chain(&self.pool, PageId(META_PAGE))
    }

    fn write_meta(&mut self, bytes: &[u8]) -> DcResult<()> {
        write_chain(&self.pool, PageId(META_PAGE), bytes, self.payload)
    }

    fn encode_cover(&self, mds: &Mds, summary: &MeasureSummary, out: &mut Vec<u8>) {
        encode_cover(out, mds, summary);
    }

    fn decode_cover(&self, r: &mut ByteReader) -> DcResult<(Mds, MeasureSummary)> {
        decode_cover(r, self.num_dims)
    }

    fn legacy_cover(&self, id: NodeId) -> DcResult<(Mds, MeasureSummary)> {
        decode_v1_cover(&read_chain(&self.pool, page_of(id))?, self.num_dims)
    }

    /// Empties the write-back set into the pool, then flushes the pool.
    fn sync(&mut self) -> DcResult<()> {
        self.write_back(|_| true)?;
        self.pool.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_common::{AggregateOp, RecordId, TempDir, ValueId};
    use dc_hierarchy::Record;
    use dc_mds::DimSet;
    use dc_tpcd::{generate, TpcdConfig};
    use dc_tree::node::{NodeKind, StoredRecord};
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

    /// A one-dimensional data node of `records` records, about five bytes
    /// each encoded — several 512-byte pages at 600 records.
    fn node(records: u32) -> Node {
        let records = (0..records).map(|i| StoredRecord {
            id: RecordId(u64::from(i)),
            record: Record::new(vec![ValueId::new(0, i * 1_000)], 1),
        });
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
        let read = store.get(id).unwrap();
        assert!(matches!(read, Cow::Borrowed(_)), "served from the set");
        assert_eq!(read.blocks, 7);
        let stats = store.pool_stats();
        assert_eq!((stats.node_decodes, stats.node_encodes), (0, 0));
        assert_eq!((stats.decoded_nodes, stats.decoded_hits), (1, 2));

        // Written back, the same node comes from its pages.
        store.sync().unwrap();
        let read = store.get(id).unwrap();
        assert!(matches!(read, Cow::Owned(_)));
        assert_eq!(read.blocks, 7);
        let stats = store.pool_stats();
        assert_eq!((stats.node_decodes, stats.node_encodes), (1, 1));
        assert_eq!(stats.decoded_nodes, 0);
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
        assert_eq!(store.pool_stats().decoded_nodes, 0);
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
        assert_eq!(store.pool_stats().node_encodes, 0);
        assert_eq!(store.alloc(node(1)).unwrap(), id, "head page recycled");
        store.free(id).unwrap();

        // Written once (a chain of several pages), dirtied again, freed: the
        // whole chain is released and the dirty copy never written.
        let id = store.alloc(node(600)).unwrap();
        store.sync().unwrap();
        let pages = store.pool().num_pages();
        assert!(pages >= 5, "a multi-page chain: {pages} pages");
        store
            .update(id, |n| {
                n.blocks = 2;
                Ok(())
            })
            .unwrap();
        assert_eq!(store.free(id).unwrap().blocks, 2);
        store.sync().unwrap();
        assert_eq!(store.pool_stats().node_encodes, 1);
        store.alloc(node(600)).unwrap();
        store.sync().unwrap();
        assert_eq!(store.pool().num_pages(), pages, "the freed chain is reused");
    }

    /// Loads `records` in batches of 64, checking the bound after each.
    fn load(tree: &mut DcTree<OocStore>, records: &[Record], frames: usize) {
        for chunk in records.chunks(64) {
            tree.insert_batch(chunk.to_vec()).unwrap();
            let held = tree.store().decoded.len();
            assert!(held <= frames, "{held} nodes held, bound {frames}");
            assert_eq!(tree.store().pool_stats().decoded_nodes, held as u64);
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
            // and this query would touch no page.
            let before = tree.store().pool_stats();
            let all = tree
                .range_query(&Mds::all(tree.schema()), AggregateOp::Count)
                .unwrap();
            assert_eq!(all, Some(2_000.0));
            let narrow = cube.records[0].clone();
            let q = Mds::new(narrow.dims.iter().map(|&v| DimSet::singleton(v)).collect());
            assert!(tree.range_query(&q, AggregateOp::Count).unwrap() >= Some(1.0));
            let after = tree.store().pool_stats();
            assert!(
                after.hits + after.misses > before.hits + before.misses,
                "{before:?} → {after:?}"
            );
            assert!(after.node_decodes > before.node_decodes);
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
        assert_eq!(tree.store().pool_stats().decoded_nodes, 0);
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
}
