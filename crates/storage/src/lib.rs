//! # dc-storage
//!
//! The simulated block-storage layer shared by the DC-tree and the X-tree.
//!
//! The paper's trees are disk-based structures with a "standard block size"
//! and *supernodes* spanning "a multiple of the standard block size". This
//! crate supplies the pieces that make those notions concrete without tying
//! the index structures to a real disk:
//!
//! * [`BlockConfig`] — the block size and the byte↔block arithmetic used
//!   for node capacities and supernode growth;
//! * [`IoStats`] — logical page-access counts, so experiments can report
//!   page I/O alongside wall time (the machine-independent half of the
//!   paper's measurements). The DC-tree counts each read's pages in the
//!   read itself; the X-tree, scan and bitmap baselines charge an
//!   [`IoTracker`] on every node touch, which can also record a block
//!   trace (the A6 ablation replays it through an LRU simulation,
//!   `dc_bench::cachesim`);
//! * [`codec`] — a small, checked binary reader/writer used to persist
//!   trees and to compute byte-accurate node sizes;
//! * [`PagedFile`] — a block-aligned file of fixed-size pages with a free
//!   list, the on-disk substrate of a production deployment (read and
//!   written by `dc_oocore::OocStore`, whose cache holds decoded nodes).

pub mod block;
pub mod codec;
pub mod io;
pub mod paged;

pub use block::BlockConfig;
pub use codec::{crc32, ByteReader, ByteWriter};
pub use io::{IoStats, IoTracker};
pub use paged::{PageId, PagedFile};
