//! Tree images. A tree's image is a shard file — the format a disk shard
//! is served from — so a resident tree and a disk shard checkpoint to the
//! same bytes and either reopens as the other. Both directions are
//! [`DcTree::copy_to`].

use std::path::Path;

use dc_common::DcResult;
use dc_storage::{BlockConfig, PagedFile};
use dc_tree::store::{NodeStore, PersistentStore};
use dc_tree::{Arena, DcTree, DcTreeConfig};

use crate::store::{OocOptions, OocStore};

/// The node budget of the store an image is written or read through:
/// it streams nodes, each touched once.
pub const IMAGE_FRAMES: usize = 64;

fn options(block: BlockConfig) -> OocOptions {
    OocOptions {
        block,
        frames: IMAGE_FRAMES,
    }
}

/// Writes `tree` to `path` as a shard file (replacing any file there) of
/// pages the size of the tree's blocks, and syncs it.
pub fn write_image<S: NodeStore>(tree: &DcTree<S>, path: impl AsRef<Path>) -> DcResult<()> {
    let mut store = OocStore::create(path, options(tree.config().block))?;
    store.set_num_dims(tree.schema().num_dims());
    tree.copy_to(store)?.flush()
}

/// Reads the shard file at `path`, whatever its page size, into a resident
/// tree built with `config`, checked: a corrupt image is an `Err`, never a
/// panic or a tree that fails its own invariant check.
pub fn read_image(path: impl AsRef<Path>, config: DcTreeConfig) -> DcResult<DcTree> {
    let store = OocStore::open(&path, options(PagedFile::block_of(&path)?))?;
    let tree = DcTree::open_in(store, config)?.copy_to(Arena::default())?;
    tree.check_invariants()?;
    Ok(tree)
}
