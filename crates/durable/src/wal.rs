//! The segmented write-ahead log: length- and CRC-framed mutation records
//! in numbered segment files, rotated at a byte budget, anchored by a
//! checkpoint manifest.
//!
//! Frame layout inside a segment (after the 28-byte segment header, see
//! [`crate::segment`]): `[payload_len: u32][crc32(payload): u32][payload]`.
//! The payload encodes the mutation with the checked codec of `dc-storage`.
//! Every frame has a log sequence number (LSN, 1-based, global across
//! segments); a segment's header records the LSN of its first frame.
//!
//! Recovery ([`WalReader::recover`]) reads the manifest, scans the live
//! segments in order, and stops at the first torn or corrupt frame —
//! exactly the state a crash mid-append leaves behind. The torn tail is
//! truncated and any segments past the stop point are deleted, so the next
//! scan sees a clean chain. Appending resumes in a *fresh* segment, never
//! on top of a repaired one.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dc_common::{DcError, DcResult, Measure};
use dc_storage::{crc32, ByteReader, ByteWriter};

use crate::fs::{WalFile, WalFs};
use crate::segment::{
    decode_segment_header, encode_segment_header, parse_segment_file_name, segment_file_name,
    Manifest, SEGMENT_HEADER_LEN,
};

/// One logged mutation, carrying raw attribute paths (top → leaf per
/// dimension) so replay reproduces the original dynamic interning order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WalEntry {
    /// Insert a record.
    Insert {
        /// Attribute paths, one per dimension.
        paths: Vec<Vec<String>>,
        /// The measure value.
        measure: Measure,
    },
    /// Delete one record matching the paths and measure.
    Delete {
        /// Attribute paths, one per dimension.
        paths: Vec<Vec<String>>,
        /// The measure value.
        measure: Measure,
    },
}

impl WalEntry {
    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        let (tag, paths, measure) = match self {
            WalEntry::Insert { paths, measure } => (0u8, paths, measure),
            WalEntry::Delete { paths, measure } => (1u8, paths, measure),
        };
        w.put_u8(tag);
        w.put_i64(*measure);
        w.put_u16(paths.len() as u16);
        for dim in paths {
            w.put_u16(dim.len() as u16);
            for name in dim {
                w.put_str(name);
            }
        }
        w.into_vec()
    }

    fn decode(payload: &[u8]) -> DcResult<WalEntry> {
        let mut r = ByteReader::new(payload);
        let tag = r.get_u8()?;
        let measure = r.get_i64()?;
        let dims = r.get_u16()? as usize;
        let mut paths = Vec::with_capacity(dims);
        for _ in 0..dims {
            let levels = r.get_u16()? as usize;
            let mut dim = Vec::with_capacity(levels);
            for _ in 0..levels {
                dim.push(r.get_str()?);
            }
            paths.push(dim);
        }
        r.expect_end()?;
        match tag {
            0 => Ok(WalEntry::Insert { paths, measure }),
            1 => Ok(WalEntry::Delete { paths, measure }),
            t => Err(DcError::Corrupt(format!("unknown WAL tag {t}"))),
        }
    }
}

/// When appended frames are fsynced.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SyncPolicy {
    /// fsync after every append — nothing acknowledged is ever lost.
    /// The default.
    #[default]
    Always,
    /// fsync once per `N` appends. A crash may lose up to `N-1` trailing
    /// unsynced entries, never corrupt the store.
    EveryN(u32),
    /// Group commit: appends are left unsynced; the *next* append after
    /// `ms` milliseconds — or an explicit [`WalWriter::group_commit`],
    /// which the serving engine's shard writer threads issue after each
    /// applied batch — syncs everything accumulated so far.
    GroupCommitMs(u64),
}

/// Segmented-WAL knobs.
#[derive(Clone, Copy, Debug)]
pub struct WalConfig {
    /// Rotate to a new segment once the current one reaches this many
    /// bytes. Frames never split: the budget is checked *between* appends.
    pub segment_bytes: u64,
    /// fsync policy for appended frames.
    pub sync: SyncPolicy,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_bytes: 4 << 20,
            sync: SyncPolicy::Always,
        }
    }
}

/// Monotonic counters of one writer's lifetime (exported into the serving
/// engine's STATS).
#[derive(Clone, Copy, Default, Debug)]
pub struct WalWriterStats {
    /// Frames appended.
    pub appends: u64,
    /// Successful fsyncs.
    pub syncs: u64,
    /// Segment rotations (budget-driven and checkpoint-driven).
    pub rotations: u64,
    /// Frame bytes appended (headers excluded).
    pub appended_bytes: u64,
}

/// Appender over a segmented log directory.
#[derive(Debug)]
pub struct WalWriter {
    fs: Arc<dyn WalFs>,
    dir: PathBuf,
    config: WalConfig,
    file: Box<dyn WalFile>,
    seq: u64,
    segment_len: u64,
    next_lsn: u64,
    synced_lsn: u64,
    unsynced: u32,
    dirty: bool,
    last_sync: Instant,
    stats: WalWriterStats,
}

impl WalWriter {
    /// Opens the log for appending after a [`WalReader::recover`] pass,
    /// starting a fresh segment whose first LSN continues the recovered
    /// chain. Writes an initial manifest when the directory has none.
    /// `shards` is recorded in that manifest (see [`Manifest::shards`]).
    pub fn open(
        fs: Arc<dyn WalFs>,
        dir: impl AsRef<Path>,
        config: WalConfig,
        recovered: &WalReader,
        shards: u32,
    ) -> DcResult<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs.create_dir_all(&dir)?;
        let seq = recovered.max_seq_seen.max(recovered.manifest.start_seq - 1) + 1;
        let mut file = fs.create_append(&dir.join(segment_file_name(seq)))?;
        file.write_all(&encode_segment_header(seq, recovered.next_lsn))?;
        if !recovered.manifest_found {
            Manifest {
                checkpoint_lsn: 0,
                start_seq: seq,
                shards,
            }
            .store(&*fs, &dir)?;
        }
        Ok(WalWriter {
            fs,
            dir,
            config,
            file,
            seq,
            segment_len: SEGMENT_HEADER_LEN as u64,
            next_lsn: recovered.next_lsn,
            synced_lsn: recovered.next_lsn - 1,
            unsynced: 0,
            dirty: true, // the fresh segment header is not yet synced
            last_sync: Instant::now(),
            stats: WalWriterStats::default(),
        })
    }

    /// Appends one entry, returning its LSN. Rotation and the configured
    /// [`SyncPolicy`] are applied here.
    pub fn append(&mut self, entry: &WalEntry) -> DcResult<u64> {
        self.append_batch(std::slice::from_ref(entry))
    }

    /// Appends a batch of entries as **one frame group**: one rotation
    /// check, one buffered write, and one sync-policy decision for the
    /// whole batch. Returns the LSN of the batch's *last* entry (entries
    /// take consecutive LSNs).
    ///
    /// Frames stay self-delimiting and per-frame CRC'd, so recovery of a
    /// crash mid-group truncates to a clean prefix of the batch — the
    /// `synced ≤ recovered ≤ attempted` contract is unchanged; only the
    /// write and fsync cost is amortized. A group is never split across
    /// segments (the rotation budget is checked between groups, like
    /// between single appends).
    pub fn append_batch(&mut self, entries: &[WalEntry]) -> DcResult<u64> {
        if entries.is_empty() {
            return Ok(self.lsn());
        }
        if self.segment_len >= self.config.segment_bytes {
            self.rotate()?;
        }
        let mut frames = Vec::new();
        for entry in entries {
            let payload = entry.encode();
            frames.reserve(8 + payload.len());
            frames.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frames.extend_from_slice(&crc32(&payload).to_le_bytes());
            frames.extend_from_slice(&payload);
        }
        self.file.write_all(&frames)?;
        let last_lsn = self.next_lsn + entries.len() as u64 - 1;
        self.next_lsn += entries.len() as u64;
        self.segment_len += frames.len() as u64;
        self.stats.appends += entries.len() as u64;
        self.stats.appended_bytes += frames.len() as u64;
        self.dirty = true;
        self.unsynced = self.unsynced.saturating_add(entries.len() as u32);
        match self.config.sync {
            SyncPolicy::Always => self.sync()?,
            SyncPolicy::EveryN(n) => {
                if self.unsynced >= n.max(1) {
                    self.sync()?;
                }
            }
            SyncPolicy::GroupCommitMs(ms) => {
                if self.last_sync.elapsed().as_millis() as u64 >= ms {
                    self.sync()?;
                }
            }
        }
        Ok(last_lsn)
    }

    /// Flushes and fsyncs everything appended so far (no-op when clean).
    pub fn sync(&mut self) -> DcResult<()> {
        if !self.dirty {
            return Ok(());
        }
        self.file.sync()?;
        self.synced_lsn = self.next_lsn - 1;
        self.unsynced = 0;
        self.dirty = false;
        self.last_sync = Instant::now();
        self.stats.syncs += 1;
        Ok(())
    }

    /// Syncs accumulated appends if any are pending — the group-commit
    /// half of [`SyncPolicy::GroupCommitMs`], called by batch appliers.
    pub fn group_commit(&mut self) -> DcResult<()> {
        self.sync()
    }

    fn rotate(&mut self) -> DcResult<()> {
        self.sync()?;
        self.seq += 1;
        let mut file = self
            .fs
            .create_append(&self.dir.join(segment_file_name(self.seq)))?;
        file.write_all(&encode_segment_header(self.seq, self.next_lsn))?;
        self.file = file;
        self.segment_len = SEGMENT_HEADER_LEN as u64;
        self.dirty = true;
        self.stats.rotations += 1;
        Ok(())
    }

    /// First half of a checkpoint: syncs, rotates to a fresh segment, and
    /// returns `(checkpoint_lsn, start_seq)` — every entry with
    /// `lsn <= checkpoint_lsn` now lives in segments before `start_seq`.
    /// The caller serializes its state images for `checkpoint_lsn`, then
    /// calls [`Self::commit_checkpoint`]. Until that commit, the old
    /// manifest and segments stay intact, so a crash between the two
    /// halves recovers through the *old* checkpoint.
    pub fn prepare_checkpoint(&mut self) -> DcResult<(u64, u64)> {
        self.sync()?;
        let checkpoint_lsn = self.next_lsn - 1;
        self.rotate()?;
        Ok((checkpoint_lsn, self.seq))
    }

    /// Second half of a checkpoint: durably points the manifest at the new
    /// checkpoint and deletes the superseded segments.
    pub fn commit_checkpoint(
        &mut self,
        checkpoint_lsn: u64,
        start_seq: u64,
        shards: u32,
    ) -> DcResult<()> {
        Manifest {
            checkpoint_lsn,
            start_seq,
            shards,
        }
        .store(&*self.fs, &self.dir)?;
        for name in self.fs.list(&self.dir)? {
            if let Some(seq) = parse_segment_file_name(&name) {
                if seq < start_seq {
                    self.fs.remove(&self.dir.join(&name))?;
                }
            }
        }
        Ok(())
    }

    /// The LSN of the last appended entry (0 = none yet).
    pub fn lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// The highest LSN known durable (≤ [`Self::lsn`]).
    pub fn synced_lsn(&self) -> u64 {
        self.synced_lsn
    }

    /// The current segment's sequence number.
    pub fn segment_seq(&self) -> u64 {
        self.seq
    }

    /// Lifetime counters.
    pub fn stats(&self) -> WalWriterStats {
        self.stats
    }
}

/// Result of recovering a WAL directory: the manifest, the clean entries
/// past the checkpoint, and what (if anything) had to be discarded.
///
/// `recover` also *repairs*: the torn tail of the segment it stopped in is
/// truncated, and any segments past the stop point are deleted, so the
/// surviving chain is clean for the next scan. Entries are only dropped
/// when they were never durable (a crash's torn tail) or physically
/// unreadable (bit rot, a deleted segment) — in the latter case
/// [`WalReader::tail_lost`] is set so callers can tell the two apart.
#[derive(Debug)]
pub struct WalReader {
    /// The manifest in effect (defaults when the directory is fresh).
    pub manifest: Manifest,
    /// Whether a manifest file was present.
    pub manifest_found: bool,
    /// Entries with `lsn > manifest.checkpoint_lsn`, in LSN order.
    pub entries: Vec<WalEntry>,
    /// The LSN the next appended entry must get.
    pub next_lsn: u64,
    /// Highest segment sequence number present before repair.
    pub max_seq_seen: u64,
    /// Bytes discarded: torn tails plus fully dropped segments.
    pub truncated_bytes: u64,
    /// `true` when whole segments were dropped (a sequence gap or a
    /// corrupt non-tail segment) — stronger than a routine torn tail.
    pub tail_lost: bool,
    /// Segments whose frames were scanned.
    pub segments_scanned: u32,
}

impl WalReader {
    /// Scans and repairs the WAL directory at `dir`. A fresh or missing
    /// directory recovers as empty.
    pub fn recover(fs: &dyn WalFs, dir: impl AsRef<Path>) -> DcResult<WalReader> {
        let dir = dir.as_ref();
        let manifest = Manifest::load(fs, dir)?;
        let manifest_found = manifest.is_some();
        let manifest = manifest.unwrap_or(Manifest {
            checkpoint_lsn: 0,
            start_seq: 1,
            shards: 0,
        });
        // A missing directory (not created yet) lists as empty.
        let names = fs.list(dir).unwrap_or_default();
        let mut seqs: Vec<u64> = names
            .iter()
            .filter_map(|n| parse_segment_file_name(n))
            .collect();
        seqs.sort_unstable();
        let max_seq_seen = seqs.last().copied().unwrap_or(0);

        let mut out = WalReader {
            manifest,
            manifest_found,
            entries: Vec::new(),
            next_lsn: manifest.checkpoint_lsn + 1,
            max_seq_seen,
            truncated_bytes: 0,
            tail_lost: false,
            segments_scanned: 0,
        };
        let mut stopped = false;
        for &seq in &seqs {
            if seq < manifest.start_seq {
                // Superseded by the checkpoint but not yet deleted (a crash
                // between manifest commit and segment deletion): retire it.
                fs.remove(&dir.join(segment_file_name(seq)))?;
                continue;
            }
            let path = dir.join(segment_file_name(seq));
            if stopped {
                // Past a stop point: whatever this segment holds cannot be
                // ordered after what we kept.
                let len = fs.read(&path)?.map_or(0, |b| b.len() as u64);
                out.truncated_bytes += len;
                out.tail_lost = true;
                fs.remove(&path)?;
                continue;
            }
            let bytes = fs.read(&path)?.unwrap_or_default();
            let header = decode_segment_header(&bytes);
            // Ordering is enforced by LSN continuity, not seq contiguity:
            // a repair that retires a whole segment burns its number, and
            // the resumed writer opens at `max_seq_seen + 1`, so benign seq
            // holes occur. A segment whose `first_lsn` runs past what we
            // have recovered so far, though, would skip lost entries — that
            // is the gap that must stop the scan.
            let continuous =
                header.is_some_and(|(hseq, first)| hseq == seq && first <= out.next_lsn);
            let Some((_, first_lsn)) = header.filter(|_| continuous) else {
                // Torn/corrupt header, a mislabeled file, or an LSN gap:
                // the segment is unusable.
                out.truncated_bytes += bytes.len() as u64;
                out.tail_lost = header.is_some(); // a decodable header past a hole means entries were skipped
                stopped = true;
                fs.remove(&path)?;
                continue;
            };
            let (_, clean_len, next) =
                scan_frames(&bytes, first_lsn, manifest.checkpoint_lsn, &mut out.entries);
            if clean_len < bytes.len() {
                out.truncated_bytes += (bytes.len() - clean_len) as u64;
                fs.set_len(&path, clean_len as u64)?;
                stopped = true;
            }
            out.segments_scanned += 1;
            out.next_lsn = next.max(out.next_lsn);
        }
        Ok(out)
    }

    /// `checkpoint_lsn + replayable entries` — how many mutations of the
    /// original stream survive.
    pub fn recovered_through(&self) -> u64 {
        self.manifest.checkpoint_lsn + self.entries.len() as u64
    }
}

/// Scans the frames of one segment body. Frames with `lsn <=
/// checkpoint_lsn` are skipped (already baked into the checkpoint); the
/// rest are appended to `entries`. Returns `(frames_kept, clean_len,
/// next_lsn)`, where `clean_len` is the byte length of the valid prefix.
pub(crate) fn scan_frames(
    bytes: &[u8],
    first_lsn: u64,
    checkpoint_lsn: u64,
    entries: &mut Vec<WalEntry>,
) -> (u64, usize, u64) {
    let mut pos = SEGMENT_HEADER_LEN.min(bytes.len());
    let mut lsn = first_lsn;
    let mut kept = 0u64;
    loop {
        if pos == bytes.len() {
            return (kept, pos, lsn);
        }
        if bytes.len() - pos < 8 {
            return (kept, pos, lsn); // torn frame header
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if bytes.len() - pos - 8 < len {
            return (kept, pos, lsn); // torn payload
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            return (kept, pos, lsn); // corrupted payload
        }
        match WalEntry::decode(payload) {
            Ok(e) => {
                if lsn > checkpoint_lsn {
                    entries.push(e);
                    kept += 1;
                }
            }
            Err(_) => return (kept, pos, lsn), // well-framed garbage
        }
        lsn += 1;
        pos += 8 + len;
    }
}

/// Scans a raw segment *body* (fuzzing/test helper): frames start at byte
/// 0, no header. Returns the decoded entries and the clean prefix length.
pub fn scan_raw_frames(bytes: &[u8]) -> (Vec<WalEntry>, usize) {
    let mut entries = Vec::new();
    // Offset scanning by faking a header-sized prefix.
    let mut padded = vec![0u8; SEGMENT_HEADER_LEN];
    padded.extend_from_slice(bytes);
    let (_, clean, _) = scan_frames(&padded, 1, 0, &mut entries);
    (entries, clean - SEGMENT_HEADER_LEN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::StdFs;
    use dc_common::TempDir;

    fn sample(i: i64) -> WalEntry {
        WalEntry::Insert {
            paths: vec![
                vec!["EU".into(), format!("N{i}")],
                vec!["1996".into(), "1996-01".into()],
            ],
            measure: i,
        }
    }

    fn open_writer(dir: &Path, config: WalConfig) -> WalWriter {
        let fs: Arc<dyn WalFs> = Arc::new(StdFs);
        let scan = WalReader::recover(&StdFs, dir).unwrap();
        WalWriter::open(fs, dir, config, &scan, 0).unwrap()
    }

    #[test]
    fn append_recover_round_trip() {
        let dir = TempDir::new("wal-roundtrip");
        let mut w = open_writer(&dir, WalConfig::default());
        let entries: Vec<WalEntry> = (0..20)
            .map(|i| {
                if i % 3 == 0 {
                    WalEntry::Delete {
                        paths: vec![vec![format!("v{i}")]],
                        measure: i,
                    }
                } else {
                    sample(i)
                }
            })
            .collect();
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(w.append(e).unwrap(), i as u64 + 1);
        }
        w.sync().unwrap();
        assert_eq!(w.synced_lsn(), 20);
        drop(w);
        let scan = WalReader::recover(&StdFs, &dir).unwrap();
        assert_eq!(scan.entries, entries);
        assert_eq!(scan.next_lsn, 21);
        assert!(!scan.tail_lost);
        assert_eq!(scan.truncated_bytes, 0);
    }

    #[test]
    fn rotation_never_splits_a_frame() {
        let dir = TempDir::new("wal-rotate");
        // Tiny budget: every entry (~50 B) forces a rotation.
        let mut w = open_writer(
            &dir,
            WalConfig {
                segment_bytes: 64,
                sync: SyncPolicy::Always,
            },
        );
        for i in 0..12 {
            w.append(&sample(i)).unwrap();
        }
        assert!(w.stats().rotations >= 10, "budget must force rotations");
        drop(w);
        // Every segment individually scans cleanly — no frame spans files.
        let fs = StdFs;
        for name in fs.list(&dir).unwrap() {
            if parse_segment_file_name(&name).is_some() {
                let bytes = std::fs::read(dir.join(&name)).unwrap();
                let (_, first_lsn) = decode_segment_header(&bytes).expect("valid header");
                let mut entries = Vec::new();
                let (_, clean, _) = scan_frames(&bytes, first_lsn, 0, &mut entries);
                assert_eq!(clean, bytes.len(), "{name} has a torn frame");
            }
        }
        let scan = WalReader::recover(&StdFs, &dir).unwrap();
        assert_eq!(scan.entries.len(), 12);
        assert!(scan.segments_scanned >= 10);
    }

    #[test]
    fn torn_tail_is_truncated_and_appending_resumes() {
        let dir = TempDir::new("wal-torn");
        let mut w = open_writer(&dir, WalConfig::default());
        for i in 0..5 {
            w.append(&sample(i)).unwrap();
        }
        let seq = w.segment_seq();
        drop(w);
        // Crash mid-append: half a frame header at the end.
        let path = dir.join(segment_file_name(seq));
        let clean = std::fs::metadata(&path).unwrap().len();
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&[0x21, 0x00, 0x00]).unwrap();
        }
        let scan = WalReader::recover(&StdFs, &dir).unwrap();
        assert_eq!(scan.entries.len(), 5);
        assert_eq!(scan.truncated_bytes, 3);
        assert!(!scan.tail_lost);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean);
        // Appending resumes in a fresh segment with a continuous LSN chain.
        let fs: Arc<dyn WalFs> = Arc::new(StdFs);
        let mut w = WalWriter::open(fs, &dir, WalConfig::default(), &scan, 0).unwrap();
        assert_eq!(w.append(&sample(99)).unwrap(), 6);
        drop(w);
        let scan = WalReader::recover(&StdFs, &dir).unwrap();
        assert_eq!(scan.entries.len(), 6);
        assert_eq!(scan.truncated_bytes, 0);
    }

    #[test]
    fn bit_flip_stops_the_scan_at_the_flip() {
        let dir = TempDir::new("wal-bitflip");
        let mut w = open_writer(&dir, WalConfig::default());
        for i in 0..8 {
            w.append(&sample(i)).unwrap();
        }
        let seq = w.segment_seq();
        drop(w);
        let path = dir.join(segment_file_name(seq));
        let mut bytes = std::fs::read(&path).unwrap();
        let target = SEGMENT_HEADER_LEN + (bytes.len() - SEGMENT_HEADER_LEN) / 2;
        bytes[target] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let scan = WalReader::recover(&StdFs, &dir).unwrap();
        assert!(scan.entries.len() < 8, "entries after the flip discarded");
        assert!(scan.truncated_bytes > 0);
    }

    #[test]
    fn missing_directory_recovers_empty() {
        let dir = TempDir::new("wal-missing").join("never-created-dir");
        let scan = WalReader::recover(&StdFs, &dir).unwrap();
        assert!(scan.entries.is_empty());
        assert_eq!(scan.next_lsn, 1);
        assert!(!scan.manifest_found);
    }

    #[test]
    fn append_batch_matches_looped_appends() {
        let dir = TempDir::new("wal-batch");
        let mut w = open_writer(
            &dir,
            WalConfig {
                segment_bytes: 1 << 20,
                sync: SyncPolicy::EveryN(4),
            },
        );
        let entries: Vec<WalEntry> = (0..7).map(sample).collect();
        // One group: consecutive LSNs, the returned LSN is the last one,
        // and the whole group costs one sync decision (7 ≥ 4 → one sync).
        assert_eq!(w.append_batch(&entries).unwrap(), 7);
        assert_eq!(w.lsn(), 7);
        assert_eq!(w.synced_lsn(), 7);
        let syncs_after_batch = w.stats().syncs;
        // An empty batch is a no-op that reports the current frontier.
        assert_eq!(w.append_batch(&[]).unwrap(), 7);
        assert_eq!(w.stats().syncs, syncs_after_batch);
        assert_eq!(w.append(&sample(99)).unwrap(), 8);
        drop(w);
        let scan = WalReader::recover(&StdFs, &dir).unwrap();
        assert_eq!(scan.entries.len(), 8);
        assert_eq!(scan.entries[..7], entries);
        assert_eq!(scan.next_lsn, 9);
    }

    #[test]
    fn crash_inside_a_batch_group_recovers_a_clean_prefix() {
        let dir = TempDir::new("wal-batch-torn");
        let mut w = open_writer(&dir, WalConfig::default());
        let entries: Vec<WalEntry> = (0..5).map(sample).collect();
        w.append_batch(&entries).unwrap();
        let seq = w.segment_seq();
        drop(w);
        // Tear the file in the middle of the group: the recovered log must
        // be a prefix of the batch, never a hole.
        let path = dir.join(segment_file_name(seq));
        let bytes = std::fs::read(&path).unwrap();
        let cut = SEGMENT_HEADER_LEN + (bytes.len() - SEGMENT_HEADER_LEN) * 3 / 5;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let scan = WalReader::recover(&StdFs, &dir).unwrap();
        assert!(scan.entries.len() < 5);
        assert_eq!(scan.entries[..], entries[..scan.entries.len()]);
    }

    #[test]
    fn every_n_and_group_commit_policies_track_synced_lsn() {
        let dir = TempDir::new("wal-policies");
        let mut w = open_writer(
            &dir,
            WalConfig {
                segment_bytes: 1 << 20,
                sync: SyncPolicy::EveryN(4),
            },
        );
        for i in 0..3 {
            w.append(&sample(i)).unwrap();
        }
        assert_eq!(w.synced_lsn(), 0, "below the batch threshold");
        w.append(&sample(3)).unwrap();
        assert_eq!(w.synced_lsn(), 4, "fourth append triggers the sync");
        w.append(&sample(4)).unwrap();
        assert_eq!(w.synced_lsn(), 4);
        w.group_commit().unwrap();
        assert_eq!(w.synced_lsn(), 5, "group commit flushes the remainder");
    }
}
