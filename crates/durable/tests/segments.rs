//! Segment-level edge cases for WAL recovery: the awkward on-disk states a
//! crash (or an operator with `rm`) can leave behind. Each test manufactures
//! the state with real file surgery, recovers through [`WalReader`], and
//! asserts the repair converges — a second recovery sees a clean directory.

use std::path::{Path, PathBuf};

use dc_common::TempDir;
use dc_durable::{segment_file_name, StdFs, SyncPolicy, WalConfig, WalEntry, WalReader, WalWriter};

fn entry(i: u64) -> WalEntry {
    WalEntry::Insert {
        paths: vec![vec![format!("region-{}", i % 3), format!("cust-{i}")]],
        measure: i as i64 * 10,
    }
}

fn config(segment_bytes: u64) -> WalConfig {
    WalConfig {
        segment_bytes,
        sync: SyncPolicy::Always,
    }
}

/// Recovers `dir`, collecting the replayed entries.
fn recover_entries(dir: &Path) -> (WalReader, Vec<WalEntry>) {
    let mut entries = Vec::new();
    let scan = WalReader::replay(&StdFs, dir, |e| {
        entries.push(e);
        Ok(())
    })
    .unwrap();
    assert_eq!(scan.replayed, entries.len() as u64);
    (scan, entries)
}

/// Opens a writer over whatever is in `dir` and appends `entries`.
fn append_all(dir: &Path, cfg: WalConfig, entries: impl Iterator<Item = WalEntry>) {
    let scan = WalReader::recover(&StdFs, dir).unwrap();
    let mut w = WalWriter::open(std::sync::Arc::new(StdFs), dir, cfg, &scan, 0).unwrap();
    for e in entries {
        w.append(&e).unwrap();
    }
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(segment_file_name(seq))
}

/// Shrinks a segment file by `cut` bytes from the end.
fn truncate_tail(path: &Path, cut: u64) {
    let len = std::fs::metadata(path).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    f.set_len(len - cut).unwrap();
}

/// Byte offsets where each frame of a segment file starts (frames are
/// `[len u32][crc u32][payload]` after the 28-byte segment header).
fn frame_starts(path: &Path) -> Vec<u64> {
    let bytes = std::fs::read(path).unwrap();
    let mut starts = Vec::new();
    let mut at = dc_durable::SEGMENT_HEADER_LEN;
    while at + 8 <= bytes.len() {
        starts.push(at as u64);
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        at += 8 + len;
    }
    starts
}

/// A zero-byte segment after the live tail (created, never written — e.g. a
/// crash between `create_append` and the header write) is discarded, and the
/// next writer skips past its sequence number.
#[test]
fn empty_segment_file_is_discarded() {
    let dir = TempDir::new("seg-empty");
    append_all(&dir, config(1 << 20), (0..3).map(entry));
    std::fs::write(segment_path(&dir, 2), b"").unwrap();

    let (scan, scan_entries) = recover_entries(&dir);
    assert_eq!(scan_entries.len(), 3);
    assert_eq!(scan.max_seq_seen, 2);
    assert!(!segment_path(&dir, 2).exists(), "empty segment not retired");

    // A writer opened from this scan must not reuse the burned number.
    let mut w =
        WalWriter::open(std::sync::Arc::new(StdFs), &dir, config(1 << 20), &scan, 0).unwrap();
    w.append(&entry(3)).unwrap();
    drop(w);
    assert!(segment_path(&dir, 3).exists());
    let (rescan, rescan_entries) = recover_entries(&dir);
    assert_eq!(rescan_entries.len(), 4);
    assert_eq!(rescan.truncated_bytes, 0);
}

/// A torn write that leaves only part of the 8-byte frame header (the state a
/// crash mid-`write` produces at a segment tail, including right at a
/// rotation boundary where the frame would have opened the next segment).
#[test]
fn split_frame_header_at_the_tail_is_truncated() {
    let dir = TempDir::new("seg-split");
    append_all(&dir, config(1 << 20), (0..3).map(entry));
    let full_len = std::fs::metadata(segment_path(&dir, 1)).unwrap().len();
    let third_frame = frame_starts(&segment_path(&dir, 1))[2];
    let clean_len = third_frame; // last complete frame ends here
                                 // Keep 5 of the third frame's 8 header bytes: len field + one crc byte.
    truncate_tail(&segment_path(&dir, 1), full_len - third_frame - 5);

    let (scan, scan_entries) = recover_entries(&dir);
    assert_eq!(scan_entries.len(), 2);
    assert_eq!(scan.truncated_bytes, 5);
    assert_eq!(
        std::fs::metadata(segment_path(&dir, 1)).unwrap().len(),
        clean_len,
        "repair must cut back to the last complete frame"
    );
    let (rescan, rescan_entries) = recover_entries(&dir);
    assert_eq!(rescan_entries.len(), 2);
    assert_eq!(rescan.truncated_bytes, 0);
}

/// A frame whose header (length *and* CRC of the full payload) is intact but
/// whose payload bytes stop short: the CRC would verify if the bytes were
/// there, so the scanner must bound-check the length before trusting it.
#[test]
fn crc_valid_but_short_payload_is_torn() {
    let dir = TempDir::new("seg-short");
    append_all(&dir, config(1 << 20), (0..3).map(entry));
    // Chop 3 payload bytes off the third frame, leaving its header claiming
    // more than the file holds.
    truncate_tail(&segment_path(&dir, 1), 3);

    let (scan, scan_entries) = recover_entries(&dir);
    assert_eq!(scan_entries.len(), 2, "short frame must not be replayed");
    assert!(scan.truncated_bytes > 0);
    let (rescan, rescan_entries) = recover_entries(&dir);
    assert_eq!(rescan_entries.len(), 2);
    assert_eq!(rescan.truncated_bytes, 0);
}

/// A live segment deleted out from under the manifest (disk trouble, stray
/// `rm`): recovery keeps the entries before the gap, retires everything
/// after it — later segments cannot be ordered across the hole — and
/// reports the loss via `tail_lost`.
#[test]
fn segment_deleted_under_the_manifest_stops_at_the_gap() {
    let dir = TempDir::new("seg-gap");
    // Tiny budget so the workload spans several segments.
    append_all(&dir, config(96), (0..12).map(entry));
    let (full, full_entries) = recover_entries(&dir);
    assert!(full.max_seq_seen >= 3, "workload must span >= 3 segments");
    assert_eq!(full_entries.len(), 12);

    std::fs::remove_file(segment_path(&dir, 2)).unwrap();
    let (scan, scan_entries) = recover_entries(&dir);
    assert!(scan.tail_lost);
    assert!(scan_entries.len() < 12);
    for seq in 3..=full.max_seq_seen {
        assert!(
            !segment_path(&dir, seq).exists(),
            "segment {seq} survived past the gap"
        );
    }
    let (rescan, rescan_entries) = recover_entries(&dir);
    assert_eq!(rescan_entries.len(), scan_entries.len());
    assert!(!rescan.tail_lost);
}

/// The degenerate gap: the *first* live segment is gone. Nothing after it can
/// be trusted, so recovery falls back to the checkpoint alone.
#[test]
fn first_live_segment_deleted_recovers_to_the_checkpoint() {
    let dir = TempDir::new("seg-first");
    append_all(&dir, config(96), (0..12).map(entry));
    let full = WalReader::recover(&StdFs, &dir).unwrap();
    assert!(full.max_seq_seen >= 3);

    std::fs::remove_file(segment_path(&dir, 1)).unwrap();
    let (scan, scan_entries) = recover_entries(&dir);
    assert!(scan.tail_lost);
    assert_eq!(scan_entries.len(), 0);
    assert_eq!(scan.recovered_through(), 0);

    // A fresh writer starts over past every burned sequence number.
    append_all(&dir, config(96), (0..2).map(entry));
    let (rescan, rescan_entries) = recover_entries(&dir);
    assert_eq!(rescan_entries.len(), 2);
    assert!(!rescan.tail_lost);
}
