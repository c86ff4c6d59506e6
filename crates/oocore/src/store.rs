//! [`OocStore`]: the concurrent [`NodeStore`] serving DC-tree nodes from
//! disk pages through the scan-resistant [`ConcurrentPool`].
//!
//! The page layout is byte-identical to `dc_tree::store::ChainStore` —
//! every node (and the metadata blob) is a chain of pages
//! `[next: u64][len: u32][payload]`, metadata headed at page 1 — except
//! that node payloads go through the [`codec`](crate::codec), which
//! prefixes a format tag. A file written with `compress: false` therefore
//! differs from a `ChainStore` file only by that one tag byte per node;
//! either store can be pointed at pages the other wrote as long as both
//! sides agree on who owns the codec.

use std::borrow::Cow;
use std::path::Path;
use std::sync::Arc;

use dc_common::{DcError, DcResult};
use dc_storage::{BlockConfig, PageId, PagedFile};
use dc_tree::node::{Node, NodeId};
use dc_tree::store::{
    node_at, page_of, NodeStore, PersistentStore, CHAIN_NONE, META_PAGE, PAGE_HEADER,
};

use crate::codec::{decode_node, encode_node};
use crate::pool::{ConcurrentPool, OocPoolStats};

// ---------------------------------------------------------------------
// Chain primitives over the concurrent pool (same layout as ChainStore).
// ---------------------------------------------------------------------

fn read_chain(pool: &ConcurrentPool, head: PageId) -> DcResult<Vec<u8>> {
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

fn chain_pages(pool: &ConcurrentPool, head: PageId) -> DcResult<Vec<PageId>> {
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
        let file = PagedFile::create(path, opts.block)?;
        let pool = ConcurrentPool::new(file, opts.frames);
        let meta = pool.alloc()?;
        debug_assert_eq!(meta.0, META_PAGE, "metadata occupies page 1");
        init_chain(&pool, meta)?;
        Ok(OocStore {
            pool: Arc::new(pool),
            payload: opts.block.block_size - PAGE_HEADER,
            compress: opts.compress,
            num_dims: 0,
        })
    }

    /// Opens an existing store.
    pub fn open(path: impl AsRef<Path>, opts: OocOptions) -> DcResult<Self> {
        let file = PagedFile::open(path, opts.block)?;
        let pool = ConcurrentPool::new(file, opts.frames);
        Ok(OocStore {
            pool: Arc::new(pool),
            payload: opts.block.block_size - PAGE_HEADER,
            compress: opts.compress,
            num_dims: 0,
        })
    }

    /// The shared buffer pool (for stats and checkpoint flushes).
    pub fn pool(&self) -> &Arc<ConcurrentPool> {
        &self.pool
    }

    /// Buffer-pool counters.
    pub fn pool_stats(&self) -> OocPoolStats {
        self.pool.stats()
    }
}

impl OocStore {
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
