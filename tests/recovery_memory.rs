//! Recovery memory does not grow with the log: reopening a WAL directory
//! streams the tail past the checkpoint through the write path one segment
//! and one replay chunk at a time, so the memory `ShardedDcTree::new` holds
//! only while it runs — its peak live bytes minus what the recovered engine
//! keeps — is the same for a tail four times as long.
//!
//! A counting `#[global_allocator]` tracks live and peak bytes across every
//! thread (the shard writers allocate too); this file holds one test so no
//! other test's allocations land in the window.

use std::path::Path;
use std::sync::atomic::Ordering::Relaxed;

use dc_common::TempDir;
use dc_hierarchy::Record;
use dc_serve::{EngineConfig, ShardedDcTree, WalOptions};
use dc_tpcd::{generate, TpcdConfig, TpcdData};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{LIVE, PEAK};

/// Records in the checkpoint both directories share.
const CHECKPOINTED: usize = 1_000;
/// Records the tail churns through: each round inserts them all, then
/// deletes them all, so the recovered cube is the same whatever the tail's
/// length — only the log grows.
const CHURNED: usize = 250;
/// The short tail's entries (whole rounds); the long one is four times as
/// long.
const TAIL: usize = 6 * 2 * CHURNED;
const SHARDS: usize = 2;

fn config(dir: &Path) -> EngineConfig {
    EngineConfig {
        num_shards: SHARDS,
        wal: Some(WalOptions {
            // Small segments: the tail spans many of them.
            segment_bytes: 64 << 10,
            ..WalOptions::new(dir)
        }),
        ..EngineConfig::default()
    }
}

/// Writes a WAL directory holding a checkpoint of the first
/// [`CHECKPOINTED`] records and a tail of `tail` entries churning the next
/// [`CHURNED`].
fn write_log(dir: &Path, data: &TpcdData, tail: usize) {
    let raw = |r: &Record| (data.paths_for(r), r.measure);
    let checkpointed: Vec<_> = data.records[..CHECKPOINTED].iter().map(raw).collect();
    let churned: Vec<_> = data.records[CHECKPOINTED..CHECKPOINTED + CHURNED]
        .iter()
        .map(raw)
        .collect();
    let engine = ShardedDcTree::new(dc_tpcd::cube_schema(), config(dir)).unwrap();
    for group in checkpointed.chunks(500) {
        engine.insert_batch_raw(group).unwrap();
    }
    engine.flush();
    engine.checkpoint().unwrap();
    for _ in 0..tail / (2 * CHURNED) {
        engine.insert_batch_raw(&churned).unwrap();
        for (paths, measure) in &churned {
            engine.delete_raw(paths, *measure).unwrap();
        }
    }
    engine.flush();
}

/// Reopens `dir` and returns the bytes `ShardedDcTree::new` held only
/// while it ran: its peak live bytes minus the live bytes once it returned.
fn recovery_transient(dir: &Path, tail: usize) -> usize {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let engine = ShardedDcTree::new(dc_tpcd::cube_schema(), config(dir)).unwrap();
    let after = LIVE.load(Relaxed);
    let peak = PEAK.load(Relaxed);
    let d = &engine.metrics().durability;
    assert_eq!(d.recovery_checkpoint_lsn.load(Relaxed), CHECKPOINTED as u64);
    assert_eq!(d.recovery_replayed_entries.load(Relaxed), tail as u64);
    assert_eq!(engine.len(), CHECKPOINTED as u64);
    drop(engine);
    peak.saturating_sub(after)
}

#[test]
fn recovery_memory_does_not_grow_with_the_tail() {
    let data = generate(&TpcdConfig::scaled(CHECKPOINTED + CHURNED, 17));
    let (short, long) = (
        TempDir::new("recovery-mem-short"),
        TempDir::new("recovery-mem-long"),
    );
    write_log(&short, &data, TAIL);
    write_log(&long, &data, 4 * TAIL);
    let short_bytes = recovery_transient(&short, TAIL);
    let long_bytes = recovery_transient(&long, 4 * TAIL);
    println!(
        "recovery transient: tail {TAIL} -> {short_bytes} B, tail {} -> {long_bytes} B",
        4 * TAIL
    );
    assert!(
        long_bytes < short_bytes * 3 / 2,
        "a 4x longer tail held {long_bytes} B during recovery against {short_bytes} B"
    );
}
