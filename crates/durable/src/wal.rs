//! The segmented write-ahead log: length- and CRC-framed mutation records
//! in numbered segment files, rotated at a byte budget, anchored by a
//! checkpoint manifest.
//!
//! Frame layout inside a segment (after the 28-byte segment header, see
//! [`crate::segment`]): `[payload_len: u32][crc32(payload): u32][payload]`.
//! The payload is the mutation in the layout of `dc-storage`'s checked codec
//! (little-endian integers, length-prefixed strings), written by
//! [`encode_frame`] and read back through `ByteReader`.
//! Every frame has a log sequence number (LSN, 1-based, global across
//! segments); a segment's header records the LSN of its first frame.
//!
//! Every reader of the log walks frames with one [`FrameCursor`]: it
//! yields `(lsn, entry)` pairs, decoding each frame once, and stops at the
//! first torn, CRC-failing or undecodable frame — exactly the state a crash
//! mid-append leaves behind. Recovery ([`WalReader::replay`]) reads the
//! manifest and streams the live segments through the cursor one segment at
//! a time, handing each entry past the checkpoint to its caller as it is
//! validated; it keeps no entry. The torn tail is truncated and any segments
//! past the stop point are deleted, so the next scan sees a clean chain.
//! Appending resumes in a *fresh* segment, never on top of a repaired one.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dc_common::{DcError, DcResult, Measure};
use dc_storage::{crc32, ByteReader};

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

/// One mutation as the frame writer takes it, borrowing its attribute
/// paths: `(paths, measure, delete)`.
pub type WalOp<'a, S> = (&'a [Vec<S>], Measure, bool);

impl WalEntry {
    /// This entry as a borrowed [`WalOp`].
    pub fn as_op(&self) -> WalOp<'_, String> {
        match self {
            WalEntry::Insert { paths, measure } => (paths, *measure, false),
            WalEntry::Delete { paths, measure } => (paths, *measure, true),
        }
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

/// Appends one frame — `[payload_len][crc32(payload)][payload]` — for `op`
/// to `buf`. The payload is encoded in place (tag, measure, then each
/// dimension's names, length-prefixed) and the CRC is taken over the
/// written slice, so a frame costs no buffer of its own.
pub fn encode_frame<S: AsRef<str>>(buf: &mut Vec<u8>, (paths, measure, delete): WalOp<'_, S>) {
    let start = buf.len();
    buf.extend_from_slice(&[0; 8]);
    buf.push(u8::from(delete));
    buf.extend_from_slice(&measure.to_le_bytes());
    buf.extend_from_slice(&(paths.len() as u16).to_le_bytes());
    for dim in paths {
        buf.extend_from_slice(&(dim.len() as u16).to_le_bytes());
        for name in dim {
            let name = name.as_ref().as_bytes();
            buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
            buf.extend_from_slice(name);
        }
    }
    let payload = &buf[start + 8..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Streams the frames of one segment as `(lsn, entry)` pairs, in LSN order,
/// decoding each frame once. It stops at the first torn, CRC-failing or
/// undecodable frame (and stays stopped); from then on
/// [`clean_len`](Self::clean_len) is the byte length of the valid prefix
/// and [`next_lsn`](Self::next_lsn) the LSN the next frame would get.
#[derive(Clone, Debug)]
pub struct FrameCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    lsn: u64,
}

impl<'a> FrameCursor<'a> {
    /// A cursor over a segment file's bytes, header included: the frames
    /// start after the header, and the first has LSN `first_lsn`.
    pub fn segment(bytes: &'a [u8], first_lsn: u64) -> Self {
        FrameCursor {
            bytes,
            pos: SEGMENT_HEADER_LEN.min(bytes.len()),
            lsn: first_lsn,
        }
    }

    /// Bytes consumed by the header and the frames yielded so far — the
    /// clean prefix once stopped.
    pub fn clean_len(&self) -> usize {
        self.pos
    }

    /// The LSN of the next frame.
    pub fn next_lsn(&self) -> u64 {
        self.lsn
    }

    /// Runs the cursor to its stop without keeping any entry.
    pub fn exhaust(mut self) -> Self {
        self.by_ref().for_each(drop);
        self
    }
}

impl Iterator for FrameCursor<'_> {
    type Item = (u64, WalEntry);

    fn next(&mut self) -> Option<(u64, WalEntry)> {
        let rest = &self.bytes[self.pos..];
        if rest.len() < 8 {
            return None; // the end, or a torn frame header
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        let payload = rest[8..].get(..len)?; // a torn payload
        if crc32(payload) != crc {
            return None; // a corrupted payload
        }
        let entry = WalEntry::decode(payload).ok()?; // well-framed garbage
        let lsn = self.lsn;
        self.lsn += 1;
        self.pos += 8 + len;
        Some((lsn, entry))
    }
}

impl std::iter::FusedIterator for FrameCursor<'_> {}

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
        self.append_ops(entries.iter().map(WalEntry::as_op))
    }

    /// [`Self::append_batch`] over borrowed ops: each frame is encoded
    /// straight into the group's one buffer by [`encode_frame`].
    pub fn append_ops<'a, S: AsRef<str> + 'a>(
        &mut self,
        ops: impl IntoIterator<Item = WalOp<'a, S>>,
    ) -> DcResult<u64> {
        let mut frames = Vec::new();
        let mut count = 0u64;
        for op in ops {
            encode_frame(&mut frames, op);
            count += 1;
        }
        if count == 0 {
            return Ok(self.lsn());
        }
        if self.segment_len >= self.config.segment_bytes {
            self.rotate()?;
        }
        self.file.write_all(&frames)?;
        let last_lsn = self.next_lsn + count - 1;
        self.next_lsn += count;
        self.segment_len += frames.len() as u64;
        self.stats.appends += count;
        self.stats.appended_bytes += frames.len() as u64;
        self.dirty = true;
        self.unsynced = self.unsynced.saturating_add(count as u32);
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

/// Result of recovering a WAL directory: the manifest, how many entries
/// past the checkpoint were replayed, and what (if anything) had to be
/// discarded. It holds no entry: [`WalReader::replay`] hands each one to
/// its caller as the scan validates it.
///
/// Recovery also *repairs*: the torn tail of the segment it stopped in is
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
    /// Entries with `lsn > manifest.checkpoint_lsn` that were replayed.
    pub replayed: u64,
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
    /// Scans and repairs the WAL directory at `dir`, keeping no entry. A
    /// fresh or missing directory recovers as empty.
    pub fn recover(fs: &dyn WalFs, dir: impl AsRef<Path>) -> DcResult<WalReader> {
        Self::replay(fs, dir, |_| Ok(()))
    }

    /// [`Self::recover`], handing every entry past the checkpoint to
    /// `apply` in LSN order as its frame is validated — one pass over the
    /// log, one segment's bytes in memory at a time. An error from `apply`
    /// stops the scan and is returned; segments not reached yet are left
    /// unrepaired for the next recovery.
    pub fn replay(
        fs: &dyn WalFs,
        dir: impl AsRef<Path>,
        mut apply: impl FnMut(WalEntry) -> DcResult<()>,
    ) -> DcResult<WalReader> {
        let dir = dir.as_ref();
        let manifest = Manifest::load(fs, dir)?;
        let manifest_found = manifest.is_some();
        let manifest = manifest.unwrap_or(Manifest::EMPTY);
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
            replayed: 0,
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
            let mut frames = FrameCursor::segment(&bytes, first_lsn);
            for (lsn, entry) in frames.by_ref() {
                // Frames the checkpoint already covers are skipped.
                if lsn > manifest.checkpoint_lsn {
                    apply(entry)?;
                    out.replayed += 1;
                }
            }
            let clean_len = frames.clean_len();
            if clean_len < bytes.len() {
                out.truncated_bytes += (bytes.len() - clean_len) as u64;
                fs.set_len(&path, clean_len as u64)?;
                stopped = true;
            }
            out.segments_scanned += 1;
            out.next_lsn = frames.next_lsn().max(out.next_lsn);
        }
        Ok(out)
    }

    /// `checkpoint_lsn + replayed entries` — how many mutations of the
    /// original stream survive.
    pub fn recovered_through(&self) -> u64 {
        self.manifest.checkpoint_lsn + self.replayed
    }
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
        let (scan, recovered) = recover_entries(&dir);
        assert_eq!(recovered, entries);
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
                let frames = FrameCursor::segment(&bytes, first_lsn).exhaust();
                assert_eq!(frames.clean_len(), bytes.len(), "{name} has a torn frame");
            }
        }
        let (scan, entries) = recover_entries(&dir);
        assert_eq!(entries.len(), 12);
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
        let (scan, entries) = recover_entries(&dir);
        assert_eq!(entries.len(), 5);
        assert_eq!(scan.truncated_bytes, 3);
        assert!(!scan.tail_lost);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean);
        // Appending resumes in a fresh segment with a continuous LSN chain.
        let fs: Arc<dyn WalFs> = Arc::new(StdFs);
        let mut w = WalWriter::open(fs, &dir, WalConfig::default(), &scan, 0).unwrap();
        assert_eq!(w.append(&sample(99)).unwrap(), 6);
        drop(w);
        let (scan, entries) = recover_entries(&dir);
        assert_eq!(entries.len(), 6);
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
        let (scan, entries) = recover_entries(&dir);
        assert!(entries.len() < 8, "entries after the flip discarded");
        assert!(scan.truncated_bytes > 0);
    }

    #[test]
    fn missing_directory_recovers_empty() {
        let dir = TempDir::new("wal-missing").join("never-created-dir");
        let (scan, entries) = recover_entries(&dir);
        assert!(entries.is_empty());
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
        let (scan, recovered) = recover_entries(&dir);
        assert_eq!(recovered.len(), 8);
        assert_eq!(recovered[..7], entries);
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
        let (_, recovered) = recover_entries(&dir);
        assert!(recovered.len() < 5);
        assert_eq!(recovered[..], entries[..recovered.len()]);
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
