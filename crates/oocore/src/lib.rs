//! # dc-oocore
//!
//! Out-of-core DC-tree serving: shards answered directly from disk pages
//! through a **concurrent, scan-resistant buffer pool**, with node pages
//! stored in one **varint codec**.
//!
//! The paper's deployment target is a data warehouse that no longer fits
//! the batch-rebuild mold — always online, updated record at a time. The
//! rest of this workspace keeps every shard RAM-resident; this crate is the
//! configuration for cubes bigger than memory:
//!
//! * [`ConcurrentPool`] — a striped buffer pool with RAII pins, segmented
//!   LRU eviction (a one-touch range scan cannot flush the hot directory
//!   levels), lazy dirty write-back, and a [`flush`](ConcurrentPool::flush)
//!   barrier for the checkpointer.
//! * [`codec`] — varint node pages, each dimension set a first index plus
//!   gaps, with fully checked decoding (disk bytes never panic).
//! * [`OocStore`] — the [`NodeStore`](dc_tree::store::NodeStore) gluing the
//!   two under `dc_tree::DcTree` — the same tree, and the same algorithms,
//!   as a resident shard's. It is the workspace's one paged store and the
//!   only code that knows the page-chain layout; a single-threaded tool
//!   uses `DcTree<OocStore>` directly. Nodes the tree mutates stay decoded
//!   in a write-back set bounded by the frame budget, so a batch pays the
//!   codec once per node, not once per algorithm step.
//! * [`OocDcTree`] — the servable shard: concurrent readers, exclusive
//!   writers, pool stats and checkpoint flush without the tree lock.
//! * [`image`] — a tree's checkpoint image is a shard file: any tree is
//!   written into one and read back into an arena by the same copy.

pub mod codec;
pub mod image;
pub mod pool;
pub mod shard;
pub mod store;

pub use image::{read_image, write_image};
pub use pool::{ConcurrentPool, OocPoolStats, PinnedPage};
pub use shard::OocDcTree;
pub use store::{OocOptions, OocStore};
