//! Segment shipping: the read side of WAL replication.
//!
//! A primary exposes its WAL directory to followers through two fetch
//! operations:
//!
//! * [`fetch_segments`] — every live segment holding LSNs `>= from_lsn`,
//!   each trimmed to its clean frame prefix, or a
//!   [`FetchOutcome::NeedCheckpoint`] redirect when the requested position
//!   has been garbage-collected by a checkpoint (the segments that held it
//!   are gone, so the follower must re-bootstrap from the images instead);
//! * [`fetch_checkpoint`] — the manifest plus the checkpoint images it
//!   points at: the follower's bootstrap state.
//!
//! Both are plain directory reads through [`WalFs`], safe to run
//! concurrently with the writer. Appends only ever grow a segment file, so
//! a racing read at worst sees a torn tail frame — which the scan trims,
//! exactly as recovery would; the next fetch picks up the rest. A
//! checkpoint that deletes segments mid-fetch surfaces as a vanished file,
//! which redirects to the new checkpoint instead of shipping around a
//! hole. The invariant both callers and the GC property test rely on: a
//! fetch returns either a redirect or an LSN-continuous run of frames —
//! never a silent gap.

use std::path::Path;

use dc_common::{DcError, DcResult};

use crate::fs::WalFs;
use crate::segment::{decode_segment_header, parse_segment_file_name, segment_file_name, Manifest};
use crate::wal::FrameCursor;

/// One shipped segment: its sequence number, the LSN of its first frame,
/// and the clean (CRC-valid, fully framed) prefix of its bytes — header
/// included, so the follower's copy of the file is byte-identical to the
/// primary's clean prefix.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SegmentShipment {
    /// The segment's sequence number (its file name).
    pub seq: u64,
    /// LSN of the segment's first frame (from its header).
    pub first_lsn: u64,
    /// Header plus the clean frame prefix.
    pub bytes: Vec<u8>,
}

impl SegmentShipment {
    /// Streams the shipped frames as `(lsn, entry)` pairs, in LSN order,
    /// decoding one frame at a time.
    pub fn entries(&self) -> FrameCursor<'_> {
        FrameCursor::segment(&self.bytes, self.first_lsn)
    }
}

/// What a segment fetch produced.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FetchOutcome {
    /// The requested LSN is at or below the newest checkpoint: the
    /// segments that held it are eligible for (or already gone to) GC.
    /// The follower must install the checkpoint images first, then fetch
    /// again from `checkpoint_lsn + 1`.
    NeedCheckpoint {
        /// The checkpoint the follower should bootstrap from.
        checkpoint_lsn: u64,
    },
    /// An LSN-continuous run of segments covering `from_lsn` up to the
    /// primary's clean tip (empty when the primary has nothing at or past
    /// `from_lsn`).
    Segments(Vec<SegmentShipment>),
}

/// The follower's bootstrap state: the manifest and the checkpoint images
/// it points at, in shard order. Empty images (with a zero
/// `checkpoint_lsn`) mean the primary has never checkpointed — the
/// follower starts from an empty engine and replays segments from LSN 1.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckpointBundle {
    /// The manifest in effect (defaults when the primary has none yet).
    pub manifest: Manifest,
    /// Image bytes per shard: `images[i]` is shard `i`'s.
    pub images: Vec<Vec<u8>>,
}

/// Fetches the live segments holding LSNs `>= from_lsn` from the WAL
/// directory at `dir`. See the module docs for the concurrency contract.
pub fn fetch_segments(fs: &dyn WalFs, dir: &Path, from_lsn: u64) -> DcResult<FetchOutcome> {
    let from_lsn = from_lsn.max(1);
    let manifest = Manifest::load(fs, dir)?.unwrap_or(Manifest::EMPTY);
    if from_lsn <= manifest.checkpoint_lsn {
        return Ok(FetchOutcome::NeedCheckpoint {
            checkpoint_lsn: manifest.checkpoint_lsn,
        });
    }
    let mut seqs: Vec<u64> = fs
        .list(dir)
        .unwrap_or_default()
        .iter()
        .filter_map(|n| parse_segment_file_name(n))
        .filter(|&s| s >= manifest.start_seq)
        .collect();
    seqs.sort_unstable();
    // Walk the chain exactly like recovery does: LSN continuity (not seq
    // contiguity) decides how far the shippable prefix reaches. Anything
    // past a torn tail, a corrupt header, or an LSN gap cannot be ordered
    // after what we kept, so the fetch stops there — the follower gets a
    // shorter run, never a gapped one.
    let mut next_lsn = manifest.checkpoint_lsn + 1;
    let mut out = Vec::new();
    for &seq in &seqs {
        let Some(mut bytes) = fs.read(&dir.join(segment_file_name(seq)))? else {
            // Vanished between list and read: a concurrent checkpoint
            // GC'd it. Redirect through the new manifest rather than
            // shipping around the hole.
            let m = Manifest::load(fs, dir)?.unwrap_or(manifest);
            return Ok(FetchOutcome::NeedCheckpoint {
                checkpoint_lsn: m.checkpoint_lsn,
            });
        };
        let Some((hseq, first_lsn)) = decode_segment_header(&bytes) else {
            break; // torn or corrupt header — the chain ends here
        };
        if hseq != seq || first_lsn > next_lsn {
            break; // mislabeled file or an LSN gap
        }
        // This pass keeps no entry: it only needs the clean length and the
        // next LSN.
        let frames = FrameCursor::segment(&bytes, first_lsn).exhaust();
        let (clean_len, next) = (frames.clean_len(), frames.next_lsn());
        let torn = clean_len < bytes.len();
        if next > from_lsn {
            bytes.truncate(clean_len);
            out.push(SegmentShipment {
                seq,
                first_lsn,
                bytes,
            });
        }
        next_lsn = next_lsn.max(next);
        if torn {
            break; // nothing after a torn segment can be continuous
        }
    }
    Ok(FetchOutcome::Segments(out))
}

/// Fetches the newest checkpoint (manifest + images) from the WAL
/// directory at `dir`. Retries around a concurrent checkpoint swap — the
/// manifest commit and the old-image deletion are separate steps, so an
/// image can vanish mid-read; the retry re-reads the manifest and fetches
/// the replacement set instead.
pub fn fetch_checkpoint(fs: &dyn WalFs, dir: &Path) -> DcResult<CheckpointBundle> {
    const ATTEMPTS: usize = 8;
    for _ in 0..ATTEMPTS {
        let manifest = Manifest::load(fs, dir)?.unwrap_or(Manifest::EMPTY);
        let names = manifest.image_names()?;
        let mut images = Vec::with_capacity(names.len());
        for name in &names {
            match fs.read(&dir.join(name))? {
                Some(bytes) => images.push(bytes),
                None => break, // vanished: a newer checkpoint replaced the set
            }
        }
        if images.len() == names.len() {
            return Ok(CheckpointBundle { manifest, images });
        }
    }
    Err(DcError::Corrupt(
        "checkpoint images kept vanishing during fetch (checkpoint churn outpaced the reader)"
            .into(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::StdFs;
    use crate::segment::checkpoint_file_name;
    use crate::wal::{SyncPolicy, WalConfig, WalEntry, WalReader, WalWriter};
    use dc_common::TempDir;
    use std::sync::Arc;

    fn sample(i: i64) -> WalEntry {
        WalEntry::Insert {
            paths: vec![vec!["EU".into(), format!("N{i}")]],
            measure: i,
        }
    }

    fn open_writer(dir: &Path, segment_bytes: u64) -> WalWriter {
        let fs: Arc<dyn WalFs> = Arc::new(StdFs);
        let scan = WalReader::recover(&StdFs, dir).unwrap();
        WalWriter::open(
            fs,
            dir,
            WalConfig {
                segment_bytes,
                sync: SyncPolicy::Always,
            },
            &scan,
            0,
        )
        .unwrap()
    }

    /// Concatenated `(lsn, entry)` pairs of a segment run.
    fn all_entries(ships: &[SegmentShipment]) -> Vec<(u64, WalEntry)> {
        ships.iter().flat_map(|s| s.entries()).collect()
    }

    #[test]
    fn fetch_from_one_ships_everything() {
        let dir = TempDir::new("ship-everything");
        let mut w = open_writer(&dir, 128);
        for i in 0..20 {
            w.append(&sample(i)).unwrap();
        }
        let FetchOutcome::Segments(ships) = fetch_segments(&StdFs, &dir, 1).unwrap() else {
            panic!("no checkpoint yet — must ship segments");
        };
        assert!(ships.len() > 1, "tiny budget must have rotated");
        let entries = all_entries(&ships);
        assert_eq!(entries.len(), 20);
        for (i, (lsn, e)) in entries.iter().enumerate() {
            assert_eq!(*lsn, i as u64 + 1);
            assert_eq!(e, &sample(i as i64));
        }
    }

    #[test]
    fn fetch_skips_fully_applied_segments() {
        let dir = TempDir::new("ship-partial");
        let mut w = open_writer(&dir, 128);
        for i in 0..20 {
            w.append(&sample(i)).unwrap();
        }
        let FetchOutcome::Segments(ships) = fetch_segments(&StdFs, &dir, 15).unwrap() else {
            panic!("must ship segments");
        };
        let entries = all_entries(&ships);
        // The run starts at or before 15 (a mid-segment position re-ships
        // that segment from its start) and reaches the tip with no gaps.
        assert!(entries.first().unwrap().0 <= 15);
        assert_eq!(entries.last().unwrap().0, 20);
        let lsns: Vec<u64> = entries.iter().map(|(l, _)| *l).collect();
        let want: Vec<u64> = (lsns[0]..=20).collect();
        assert_eq!(lsns, want, "run is LSN-continuous");
    }

    #[test]
    fn fetch_below_checkpoint_redirects() {
        let dir = TempDir::new("ship-redirect");
        let mut w = open_writer(&dir, 1 << 20);
        for i in 0..10 {
            w.append(&sample(i)).unwrap();
        }
        let (lsn, start_seq) = w.prepare_checkpoint().unwrap();
        w.commit_checkpoint(lsn, start_seq, 0).unwrap();
        assert_eq!(
            fetch_segments(&StdFs, &dir, 5).unwrap(),
            FetchOutcome::NeedCheckpoint { checkpoint_lsn: 10 }
        );
        // Past the checkpoint, the (empty) tail ships normally.
        w.append(&sample(99)).unwrap();
        let FetchOutcome::Segments(ships) = fetch_segments(&StdFs, &dir, 11).unwrap() else {
            panic!("position past the checkpoint must ship");
        };
        assert_eq!(all_entries(&ships), vec![(11, sample(99))]);
    }

    #[test]
    fn torn_tail_ships_clean_prefix_only() {
        let dir = TempDir::new("ship-torn");
        let mut w = open_writer(&dir, 1 << 20);
        for i in 0..6 {
            w.append(&sample(i)).unwrap();
        }
        let seq = w.segment_seq();
        drop(w);
        // Crash mid-append: garbage half-frame at the end.
        let path = dir.join(segment_file_name(seq));
        let clean = std::fs::metadata(&path).unwrap().len();
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&[0x44, 0x00, 0x00, 0x00, 0x11]).unwrap();
        }
        let FetchOutcome::Segments(ships) = fetch_segments(&StdFs, &dir, 1).unwrap() else {
            panic!("must ship the clean prefix");
        };
        assert_eq!(ships.len(), 1);
        assert_eq!(ships[0].bytes.len() as u64, clean, "torn tail trimmed");
        assert_eq!(all_entries(&ships).len(), 6);
    }

    #[test]
    fn fetch_checkpoint_round_trips_manifest_and_images() {
        let dir = TempDir::new("ship-bundle");
        // Fresh directory: empty bundle, zero checkpoint.
        let b = fetch_checkpoint(&StdFs, &dir).unwrap();
        assert_eq!(b.manifest.checkpoint_lsn, 0);
        assert!(b.images.is_empty());
        // Committed checkpoint with two shard images.
        let mut w = open_writer(&dir, 1 << 20);
        for i in 0..4 {
            w.append(&sample(i)).unwrap();
        }
        let (lsn, start_seq) = w.prepare_checkpoint().unwrap();
        for (shard, image) in [b"image-0", b"image-1"].into_iter().enumerate() {
            let name = checkpoint_file_name(lsn, shard as u32);
            StdFs.write_atomic(&dir.join(name), image).unwrap();
        }
        w.commit_checkpoint(lsn, start_seq, 2).unwrap();
        let b = fetch_checkpoint(&StdFs, &dir).unwrap();
        assert_eq!(b.manifest.checkpoint_lsn, 4);
        assert_eq!(b.images, vec![b"image-0".to_vec(), b"image-1".to_vec()]);
    }
}
