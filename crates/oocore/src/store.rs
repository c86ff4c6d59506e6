//! [`OocStore`]: the concurrent [`NodeStore`] serving DC-tree nodes from
//! disk pages through the scan-resistant [`ConcurrentPool`].
//!
//! This module is the only code that knows how a node is laid out on
//! pages: every node (and the metadata blob) is a chain of pages
//! `[next: u64][len: u32][payload]`, metadata headed at page 1, a node's
//! handle the head page of its chain. Node payloads go through the
//! [`codec`](crate::codec), which prefixes a format tag, so one file may mix
//! plain and compressed nodes.

use std::borrow::Cow;
use std::path::Path;
use std::sync::Arc;

use dc_common::{DcError, DcResult};
use dc_storage::{BlockConfig, PageId, PagedFile};
use dc_tree::node::{Node, NodeId};
use dc_tree::store::{NodeStore, PersistentStore};

use crate::codec::{decode_node, encode_node};
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
    /// Buffer-pool frame budget (resident pages).
    pub frames: usize,
    /// Encode node pages with the compressed codec. Decoding is
    /// self-describing, so this can differ between sessions over one file.
    pub compress: bool,
}

impl Default for OocOptions {
    fn default() -> Self {
        OocOptions {
            block: BlockConfig::DEFAULT,
            frames: 1024,
            compress: true,
        }
    }
}

/// Concurrent chain store over a [`ConcurrentPool`], node payloads encoded
/// with the (optionally compressed) page codec.
#[derive(Debug)]
pub struct OocStore {
    pool: Arc<ConcurrentPool>,
    payload: usize,
    compress: bool,
    num_dims: usize,
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
            compress: opts.compress,
            num_dims: 0,
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
        decode_node(&bytes, self.num_dims)
    }

    fn store(&self, id: NodeId, node: &Node) -> DcResult<()> {
        let bytes = encode_node(node, self.compress);
        write_chain(&self.pool, page_of(id), &bytes, self.payload)
    }
}

impl NodeStore for OocStore {
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
        let head = self.pool.alloc()?;
        init_chain(&self.pool, head)?;
        let id = node_at(head)?;
        self.store(id, &node)?;
        Ok(id)
    }

    fn free(&mut self, id: NodeId) -> DcResult<Node> {
        let node = self.load(id)?;
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

    fn sync(&mut self) -> DcResult<()> {
        self.pool.flush()
    }
}
