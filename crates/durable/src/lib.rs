//! # dc-durable
//!
//! The durability layer under the serving engine: a checksummed,
//! **segmented write-ahead log**, the **directory protocol** that ties it
//! to checkpoint images, and a deterministic **fault-injection** shim to
//! prove both.
//!
//! The paper's pitch is a warehouse that never needs a maintenance window —
//! which only holds in practice if the index also survives process death
//! without a nightly rebuild. The recipe is the engine's
//! (`dc_serve::ShardedDcTree`: log, then apply; checkpoint; recover on
//! open); this crate is the parts it is made of:
//!
//! 1. **The log** ([`WalWriter`] / [`WalReader`]). Every mutation is
//!    appended to the current segment (`wal.000017.log`; length + CRC-32
//!    framed, carrying the *raw attribute paths*, so replay re-interns
//!    values in the original order and reproduces identical IDs) before it
//!    is applied; segments rotate at a byte budget and frames never span a
//!    rotation. One [`FrameCursor`] reads frames for every consumer: it
//!    yields `(lsn, entry)` pairs and stops at the first torn, CRC-failing
//!    or undecodable frame (the partial write of a crash).
//!    [`WalReader::replay`] streams the live segments through it, one
//!    segment in memory at a time, hands each entry past the manifest's
//!    checkpoint to its caller as it is validated — the engine replays
//!    them in chunks — and repairs the directory; it keeps no entry, so
//!    recovery costs one segment plus what the caller buffers, not the
//!    length of the log. Appends encode each frame straight into the
//!    group's buffer ([`encode_frame`]) from borrowed paths.
//! 2. **The directory protocol** ([`segment`]). A checkpoint is one image
//!    per shard, `checkpoint.<lsn>.shard<i>.dct`, named by the LSN it
//!    covers; [`WalWriter::prepare_checkpoint`] /
//!    [`commit_checkpoint`](WalWriter::commit_checkpoint) bracket the
//!    caller's image writes and atomically swing `wal.manifest` to the new
//!    set before deleting superseded segments — two-phase, so a crash in
//!    between recovers through the *old* checkpoint without
//!    double-applying.
//! 3. **The replay oracle** ([`apply`]): what one logged entry does to a
//!    plain `DcTree`, for harnesses to hold the engine's recovery to.
//!
//! Sync behaviour is a [`SyncPolicy`]: `Always` fsyncs per mutation,
//! `EveryN` amortizes over batches, `GroupCommitMs` lets batch appliers
//! issue [`WalWriter::group_commit`] on their own cadence.
//!
//! Every byte of I/O goes through the [`WalFs`]/[`WalFile`] traits.
//! Production uses [`StdFs`]; with the `fault-injection` feature, `FaultFs`
//! deterministically tears writes, flips bits, or fails fsyncs so the
//! crash-recovery harnesses can kill the store at every interesting offset.
//!
//! The [`ship`] module is the read side of replication: it serves a WAL
//! directory's live segments (clean prefixes only, LSN-continuous or a
//! `NeedCheckpoint` redirect — never a silent gap) and checkpoint bundles
//! to followers, concurrently with the writer.

#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod fs;
pub mod segment;
pub mod ship;
pub mod tree;
pub mod wal;

#[cfg(feature = "fault-injection")]
pub use fault::{FaultFs, FaultPlan};
pub use fs::{StdFs, WalFile, WalFs};
pub use segment::{
    checkpoint_file_name, is_scratch_image_name, parse_checkpoint_file_name,
    parse_segment_file_name, scratch_image_name, segment_file_name, Manifest, MANIFEST_FILE,
    SEGMENT_HEADER_LEN,
};
pub use ship::{fetch_checkpoint, fetch_segments, CheckpointBundle, FetchOutcome, SegmentShipment};
pub use tree::apply;
pub use wal::{
    encode_frame, FrameCursor, SyncPolicy, WalConfig, WalEntry, WalOp, WalReader, WalWriter,
    WalWriterStats,
};
