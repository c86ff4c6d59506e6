//! What publishing costs a shard in memory is the blocks its writer
//! changes, not copies of the nodes it touches: one shard's tree, fed a
//! TPC-D stream in writer-sized batches while a snapshot of it is held
//! after every batch (what a resident shard publishes), peaks at most a
//! quarter above the same stream fed with no snapshot at all. A writer
//! that copied every node it touched after a publish — each with its whole
//! record or entry buffer — held about twice the bytes.
//!
//! A counting `#[global_allocator]` tracks live and peak bytes; this file
//! holds one test so no other test's allocations land in the window.

use std::sync::atomic::Ordering::Relaxed;

use dc_tpcd::{generate, TpcdConfig, TpcdData};
use dc_tree::{DcTree, DcTreeConfig};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{LIVE, PEAK};

const RECORDS: usize = 20_000;
/// Records per writer batch: a two-shard engine's share of the 512-record
/// `INSERT_BATCH` minus what a batch boundary splits off, as the wire
/// benchmark's writers see it.
const BATCH: usize = 333;

/// Peak live bytes, above what was live before, while one tree takes every
/// record of `data` in [`BATCH`]es, holding a snapshot after each batch
/// when `publish` is set (the previous snapshot is dropped, as a
/// published one is once readers move on).
fn peak_bytes(data: &TpcdData, publish: bool) -> usize {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let mut tree = DcTree::new(data.schema.clone(), DcTreeConfig::default());
    let mut snapshot = None;
    for chunk in data.records.chunks(BATCH) {
        tree.insert_batch(chunk.to_vec()).unwrap();
        if publish {
            snapshot = Some(tree.clone());
        }
    }
    assert_eq!(tree.len(), RECORDS as u64);
    drop(snapshot);
    drop(tree);
    PEAK.load(Relaxed) - before
}

#[test]
fn publishing_a_snapshot_per_batch_keeps_the_peak_near_the_bare_stream() {
    let data = generate(&TpcdConfig::scaled(RECORDS, 42));
    let bare = peak_bytes(&data, false);
    let published = peak_bytes(&data, true);
    let ratio = published as f64 / bare as f64;
    println!(
        "{RECORDS} records in batches of {BATCH}: peak {bare} B bare, {published} B holding a \
         snapshot per batch ({ratio:.2}x)"
    );
    assert!(
        ratio <= 1.25,
        "holding a snapshot per batch peaked at {published} B, {ratio:.2}x the bare stream's \
         {bare} B: the writer copies more than the blocks it changes"
    );
}
