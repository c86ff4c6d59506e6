//! Property: a follower's segment fetch NEVER sees a silent LSN gap, no
//! matter how appends, rotations, checkpoints (with their segment GC),
//! crash-torn tails, and fetches from arbitrary positions interleave.
//!
//! For every `fetch_segments(from)` against a live WAL directory:
//!
//! * `from ≤ checkpoint_lsn` ⇒ `NeedCheckpoint` (the history is GC'd —
//!   redirect, don't fabricate);
//! * otherwise ⇒ a run of shipments where the first covers `from` (or
//!   starts at the log's true beginning past the checkpoint), every
//!   consecutive pair is LSN-contiguous (`next.first_lsn == prev.first_lsn
//!   + prev.entries`), and the run reaches the writer's synced tip.

use std::path::Path;
use std::sync::Arc;

use dc_common::TempDir;
use dc_durable::{
    fetch_segments, FetchOutcome, SegmentShipment, StdFs, SyncPolicy, WalConfig, WalEntry,
    WalReader, WalWriter,
};
use proptest::prelude::*;

/// A tiny entry whose frame size still forces frequent rotations under
/// the small segment budget below.
fn entry(i: u64) -> WalEntry {
    WalEntry::Insert {
        paths: vec![vec![format!("a{}", i % 7), format!("b{i}")]],
        measure: i as i64,
    }
}

fn open_writer(dir: &Path) -> WalWriter {
    let scan = WalReader::recover(&StdFs, dir).unwrap();
    WalWriter::open(
        Arc::new(StdFs),
        dir,
        WalConfig {
            segment_bytes: 256, // rotate every few frames
            sync: SyncPolicy::Always,
        },
        &scan,
        0,
    )
    .unwrap()
}

/// The `(lsn, entry)` pairs a shipment's frame cursor yields.
fn shipped(seg: &SegmentShipment) -> Vec<(u64, WalEntry)> {
    seg.entries().collect()
}

/// Checks the fetch contract at `from` against a directory whose durable
/// log currently spans `(checkpoint_lsn, tip]`.
fn check_fetch(dir: &Path, from: u64, checkpoint_lsn: u64, tip: u64) {
    let from = from.max(1);
    match fetch_segments(&StdFs, dir, from).unwrap() {
        FetchOutcome::NeedCheckpoint {
            checkpoint_lsn: redirect,
        } => {
            assert!(
                from <= redirect,
                "redirected at from={from} although the log still holds it \
                 (redirect checkpoint={redirect})"
            );
            assert_eq!(redirect, checkpoint_lsn);
        }
        FetchOutcome::Segments(segs) => {
            assert!(
                from > checkpoint_lsn,
                "fetch from={from} below checkpoint {checkpoint_lsn} must redirect"
            );
            let mut next_lsn = None;
            for seg in &segs {
                if let Some(expected) = next_lsn {
                    assert_eq!(
                        seg.first_lsn, expected,
                        "silent gap between shipped segments"
                    );
                }
                next_lsn = Some(seg.first_lsn + shipped(seg).len() as u64);
            }
            if let Some(first) = segs.first() {
                assert!(
                    first.first_lsn <= from,
                    "first shipment starts at {} — past the requested {from}",
                    first.first_lsn
                );
            }
            // A fetch with anything to say must reach the synced tip: a
            // run that silently stops early is a gap the follower can
            // never detect. (`from` past the tip legitimately ships
            // nothing.)
            if from <= tip {
                let reached = next_lsn.map_or(checkpoint_lsn, |n| n - 1);
                assert!(
                    reached >= tip,
                    "fetch from={from} reached only {reached}, tip is {tip}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Interleaves appends, checkpoints (which GC segments), torn-tail
    /// crashes, and fetches from arbitrary LSNs.
    #[test]
    fn fetch_never_skips_lsns(script in prop::collection::vec(any::<u16>(), 1..48)) {
        let dir = TempDir::new("gc-prop");
        let mut writer = open_writer(&dir);
        let mut tip = 0u64; // highest durable lsn
        let mut checkpoint_lsn = 0u64;
        for word in script {
            match word % 10 {
                // Append a burst (the common case).
                0..=5 => {
                    let burst = 1 + (word / 10) % 5;
                    for _ in 0..burst {
                        tip = writer.append(&entry(tip)).unwrap();
                    }
                    writer.sync().unwrap();
                }
                // Checkpoint: segments before it are GC'd on commit.
                6 => {
                    let (lsn, start_seq) = writer.prepare_checkpoint().unwrap();
                    writer.commit_checkpoint(lsn, start_seq, 0).unwrap();
                    checkpoint_lsn = lsn;
                }
                // Crash with a torn tail, then reopen (repairs the tail).
                7 => {
                    drop(writer);
                    let seg_name = {
                        // Tear the newest segment by a few bytes, if any.
                        let mut segs: Vec<_> = std::fs::read_dir(&dir)
                            .unwrap()
                            .filter_map(|e| {
                                let name = e.unwrap().file_name().into_string().ok()?;
                                dc_durable::parse_segment_file_name(&name).map(|seq| (seq, name))
                            })
                            .collect();
                        segs.sort();
                        segs.last().map(|(_, name)| name.clone())
                    };
                    if let Some(name) = seg_name {
                        let path = dir.join(name);
                        let len = std::fs::metadata(&path).unwrap().len();
                        let torn = len.saturating_sub(u64::from(word % 7) + 1);
                        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
                        f.set_len(torn).unwrap();
                    }
                    writer = open_writer(&dir);
                    // The torn suffix (≤ a frame or two) is gone for good.
                    tip = writer.lsn();
                    checkpoint_lsn = checkpoint_lsn.min(tip);
                }
                // Fetch from an arbitrary lsn around the live range.
                _ => {
                    let span = tip + 4;
                    let from = u64::from(word) % span.max(1) + 1;
                    check_fetch(&dir, from, checkpoint_lsn, tip);
                }
            }
        }
        // Final sweep: every position from below the checkpoint to past
        // the tip honours the contract.
        for from in 1..=tip + 2 {
            check_fetch(&dir, from, checkpoint_lsn, tip);
        }
        drop(writer);
    }
}
