//! [`OocDcTree`]: a disk-backed DC-tree shard servable by many threads.
//!
//! The tree logic is `dc_tree::DcTree` over an [`OocStore`]; this
//! wrapper adds the `RwLock` discipline the serving engine needs — queries
//! take the read lock (readers share the store's node cache, which a mutex
//! keeps consistent between them), mutations take the write lock. The
//! store's counters are kept alongside, so stats and the file size never
//! have to take the tree lock.

use std::path::Path;
use std::sync::Arc;

use dc_common::DcResult;
use dc_hierarchy::CubeSchema;
use dc_tree::{DcTree, DcTreeConfig};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::store::{Counters, OocOptions, OocPoolStats, OocStore};

/// A DC-tree shard served out-of-core: `RwLock<DcTree<OocStore>>`
/// plus a handle to the store's counters.
#[derive(Debug)]
pub struct OocDcTree {
    inner: RwLock<DcTree<OocStore>>,
    counters: Arc<Counters>,
}

impl OocDcTree {
    fn over(tree: DcTree<OocStore>) -> Self {
        OocDcTree {
            counters: Arc::clone(tree.store().counters()),
            inner: RwLock::new(tree),
        }
    }

    /// Creates a fresh shard file at `path`.
    pub fn create(
        path: impl AsRef<Path>,
        schema: CubeSchema,
        config: DcTreeConfig,
        opts: OocOptions,
    ) -> DcResult<Self> {
        let store = OocStore::create(path, opts)?;
        Ok(Self::over(DcTree::create_in(store, schema, config)?))
    }

    /// Opens an existing shard file.
    pub fn open(path: impl AsRef<Path>, config: DcTreeConfig, opts: OocOptions) -> DcResult<Self> {
        let store = OocStore::open(path, opts)?;
        Ok(Self::over(DcTree::open_in(store, config)?))
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

    /// Node-cache counters for the `pool_*` gauges.
    pub fn pool_stats(&self) -> OocPoolStats {
        self.counters.stats()
    }

    /// Flushes tree metadata, writes back every dirty node, and fsyncs:
    /// after this returns, the shard file on disk is a complete image of
    /// the tree — the barrier the checkpointer copies behind.
    pub fn flush(&self) -> DcResult<()> {
        self.inner.write().flush()
    }

    /// On-disk footprint in bytes (pages × page size).
    pub fn file_bytes(&self) -> u64 {
        self.counters.file_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_sync_bounds_hold() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<OocDcTree>();
        assert_send_sync::<OocStore>();
    }
}
