//! [`OocDcTree`]: a disk-backed DC-tree shard servable by many threads.
//!
//! The tree logic is `dc_tree::DcTree` over an [`OocStore`]; this
//! wrapper adds the `RwLock` discipline the serving engine needs — queries
//! take the read lock (the store underneath is fully concurrent, so any
//! number of readers fault and evict pages in parallel), mutations take the
//! write lock. The pool `Arc` is kept alongside so checkpointing and stats
//! never have to take the tree lock just to reach the buffer pool.

use std::path::Path;
use std::sync::Arc;

use dc_common::DcResult;
use dc_hierarchy::CubeSchema;
use dc_tree::{DcTree, DcTreeConfig};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::pool::{ConcurrentPool, OocPoolStats};
use crate::store::{OocOptions, OocStore};

/// A DC-tree shard served out-of-core: `RwLock<DcTree<OocStore>>`
/// plus a handle to the shared buffer pool.
#[derive(Debug)]
pub struct OocDcTree {
    inner: RwLock<DcTree<OocStore>>,
    pool: Arc<ConcurrentPool>,
}

impl OocDcTree {
    /// Creates a fresh shard file at `path`.
    pub fn create(
        path: impl AsRef<Path>,
        schema: CubeSchema,
        config: DcTreeConfig,
        opts: OocOptions,
    ) -> DcResult<Self> {
        let store = OocStore::create(path, opts)?;
        let pool = Arc::clone(store.pool());
        let tree = DcTree::create_in(store, schema, config)?;
        Ok(OocDcTree {
            inner: RwLock::new(tree),
            pool,
        })
    }

    /// Opens an existing shard file.
    pub fn open(path: impl AsRef<Path>, config: DcTreeConfig, opts: OocOptions) -> DcResult<Self> {
        let store = OocStore::open(path, opts)?;
        let pool = Arc::clone(store.pool());
        let tree = DcTree::open_in(store, config)?;
        Ok(OocDcTree {
            inner: RwLock::new(tree),
            pool,
        })
    }

    /// Read access to the tree. Hold this across a batch of queries that
    /// must see one consistent version.
    pub fn read(&self) -> RwLockReadGuard<'_, DcTree<OocStore>> {
        self.inner.read()
    }

    /// Write access to the tree. The shard writer holds this across a whole
    /// update batch *and* the cache publish that follows, so readers never
    /// see a half-applied batch.
    pub fn write(&self) -> RwLockWriteGuard<'_, DcTree<OocStore>> {
        self.inner.write()
    }

    /// The shared buffer pool (reachable without the tree lock).
    pub fn pool(&self) -> &Arc<ConcurrentPool> {
        &self.pool
    }

    /// Buffer-pool counters for the `pool_*` gauges.
    pub fn pool_stats(&self) -> OocPoolStats {
        self.pool.stats()
    }

    /// Flushes tree metadata, writes back every dirty frame, and fsyncs:
    /// after this returns, the shard file on disk is a complete image of
    /// the tree — the barrier the checkpointer copies behind.
    pub fn flush(&self) -> DcResult<()> {
        self.inner.write().flush()
    }

    /// On-disk footprint in bytes (pages × page size).
    pub fn file_bytes(&self) -> u64 {
        self.pool.num_pages() * self.pool.page_size() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_sync_bounds_hold() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<OocDcTree>();
        assert_send_sync::<ConcurrentPool>();
    }
}
