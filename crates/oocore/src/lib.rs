//! # dc-oocore
//!
//! Out-of-core DC-tree serving: shards answered directly from disk pages
//! through **one cache of decoded nodes**, with node pages stored in one
//! **varint codec**.
//!
//! The paper's deployment target is a data warehouse that no longer fits
//! the batch-rebuild mold — always online, updated record at a time. The
//! rest of this workspace keeps every shard RAM-resident; this crate is the
//! configuration for cubes bigger than memory:
//!
//! * [`codec`] — varint node pages, each dimension set a first index plus
//!   gaps, with fully checked decoding (disk bytes never panic).
//! * [`OocStore`] — the [`NodeStore`](dc_tree::store::NodeStore) under
//!   `dc_tree::DcTree` — the same tree, and the same algorithms, as a
//!   resident shard's. It is the workspace's one paged store and the only
//!   code that knows the page-chain layout; a single-threaded tool uses
//!   `DcTree<OocStore>` directly. Its node cache holds at most
//!   [`OocOptions::frames`] decoded nodes: the nodes a batch mutates stay
//!   there dirty until they are written back (so a batch pays the codec
//!   once per node, not once per algorithm step), and nodes a read decodes
//!   fill the room left, clean. Page I/O goes straight to the paged file.
//! * [`OocDcTree`] — the servable shard: concurrent readers, exclusive
//!   writers, cache stats and the file size without the tree lock.
//! * [`image`] — a tree's checkpoint image is a shard file: any tree is
//!   written into one and read back into an arena by the same copy.

pub mod codec;
pub mod image;
pub mod shard;
pub mod store;

pub use image::{read_image, write_image};
pub use shard::OocDcTree;
pub use store::{OocOptions, OocPoolStats, OocStore};
