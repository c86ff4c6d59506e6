//! Differential tests for the WAL's frame cursor and frame writer.
//!
//! The reference scanner and codec below are the log's original,
//! allocate-everything implementation: a payload built in its own
//! `ByteWriter` and then framed, and a scanner that decodes a whole segment
//! into a `Vec` through an out-parameter. [`FrameCursor`] and
//! [`encode_frame`] must agree with them byte for byte and entry for entry —
//! on clean segment bodies, on bodies cut at a random byte, with one random
//! bit flipped, and with a CRC-valid but undecodable frame appended.

use dc_common::{DcError, DcResult};
use dc_durable::{encode_frame, FrameCursor, WalEntry, SEGMENT_HEADER_LEN};
use dc_storage::{crc32, ByteReader, ByteWriter};
use proptest::prelude::*;

/// The reference payload encoding of one entry.
fn reference_payload(entry: &WalEntry) -> Vec<u8> {
    let mut w = ByteWriter::new();
    let (tag, paths, measure) = match entry {
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

/// The reference framing: `[len][crc][payload]` per entry, concatenated.
fn reference_frames(entries: &[WalEntry]) -> Vec<u8> {
    let mut frames = Vec::new();
    for entry in entries {
        let payload = reference_payload(entry);
        frames.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frames.extend_from_slice(&crc32(&payload).to_le_bytes());
        frames.extend_from_slice(&payload);
    }
    frames
}

/// The reference payload decoder.
fn reference_decode(payload: &[u8]) -> DcResult<WalEntry> {
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

/// The reference scanner over one segment's bytes (header first): frames
/// with `lsn <= checkpoint_lsn` are skipped, the rest appended to
/// `entries`. Returns `(frames_kept, clean_len, next_lsn)`.
fn reference_scan(
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
        match reference_decode(payload) {
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

/// Everything a scan reports: the `(lsn, entry)` pairs, the clean length
/// and the next LSN.
type Scan = (Vec<(u64, WalEntry)>, usize, u64);

fn cursor_scan(segment: &[u8], first_lsn: u64) -> Scan {
    let mut cursor = FrameCursor::segment(segment, first_lsn);
    let entries = cursor.by_ref().collect();
    (entries, cursor.clean_len(), cursor.next_lsn())
}

fn reference(segment: &[u8], first_lsn: u64) -> Scan {
    let mut entries = Vec::new();
    let (kept, clean, next) = reference_scan(segment, first_lsn, 0, &mut entries);
    assert_eq!(kept, entries.len() as u64);
    let lsns = first_lsn..;
    (lsns.zip(entries).collect(), clean, next)
}

fn paths() -> impl Strategy<Value = Vec<Vec<String>>> {
    prop::collection::vec(prop::collection::vec(".{0,12}", 0..4), 0..5)
}

fn entry() -> impl Strategy<Value = WalEntry> {
    (any::<bool>(), paths(), any::<i64>()).prop_map(|(delete, paths, measure)| {
        if delete {
            WalEntry::Delete { paths, measure }
        } else {
            WalEntry::Insert { paths, measure }
        }
    })
}

/// What is done to a clean segment body before it is scanned.
#[derive(Clone, Debug)]
enum Damage {
    /// Cut the segment at byte `n % len` (a torn write).
    Cut(usize),
    /// Flip bit `n % (8 × body length)` of the frames (bit rot).
    Flip(usize),
    /// Append a frame whose CRC matches but whose payload does not decode.
    Garbage(Vec<u8>),
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        any::<usize>().prop_map(Damage::Cut),
        any::<usize>().prop_map(Damage::Flip),
        prop::collection::vec(any::<u8>(), 0..24).prop_map(Damage::Garbage),
    ]
}

/// A segment file: a header-sized prefix, then `frames`.
fn segment(frames: &[u8]) -> Vec<u8> {
    let mut bytes = vec![0u8; SEGMENT_HEADER_LEN];
    bytes.extend_from_slice(frames);
    bytes
}

fn apply(damage: &Damage, mut bytes: Vec<u8>) -> Vec<u8> {
    match damage {
        Damage::Cut(n) => {
            bytes.truncate(n % (bytes.len() + 1));
        }
        Damage::Flip(n) => {
            let body_bits = (bytes.len() - SEGMENT_HEADER_LEN) * 8;
            if body_bits > 0 {
                let bit = n % body_bits;
                bytes[SEGMENT_HEADER_LEN + bit / 8] ^= 1 << (bit % 8);
            }
        }
        Damage::Garbage(tail) => {
            // An unknown tag (2..) in front of arbitrary bytes never decodes.
            let mut payload = vec![2 + tail.first().copied().unwrap_or(0) % 200];
            payload.extend_from_slice(tail);
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
            bytes.extend_from_slice(&payload);
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 1024 }))]

    /// The frame writer's bytes are the reference encoder's.
    #[test]
    fn frame_writer_matches_the_reference_encoder(
        entries in prop::collection::vec(entry(), 0..24)
    ) {
        let mut frames = Vec::new();
        for entry in &entries {
            encode_frame(&mut frames, entry.as_op());
        }
        prop_assert_eq!(&frames, &reference_frames(&entries));
        // … and borrowed `&str` paths frame exactly like owned ones.
        let mut borrowed = Vec::new();
        for entry in &entries {
            let (paths, measure, delete) = entry.as_op();
            let paths: Vec<Vec<&str>> = paths
                .iter()
                .map(|dim| dim.iter().map(String::as_str).collect())
                .collect();
            encode_frame(&mut borrowed, (&paths[..], measure, delete));
        }
        prop_assert_eq!(borrowed, frames);
    }

    /// On a clean body the cursor yields every entry, in LSN order.
    #[test]
    fn cursor_reads_back_a_clean_stream(
        entries in prop::collection::vec(entry(), 0..24),
        first_lsn in 1u64..1_000_000,
    ) {
        let bytes = segment(&reference_frames(&entries));
        let scan = cursor_scan(&bytes, first_lsn);
        prop_assert_eq!(&scan, &reference(&bytes, first_lsn));
        let want: Vec<(u64, WalEntry)> = (first_lsn..).zip(entries.iter().cloned()).collect();
        prop_assert_eq!(scan.0, want);
        prop_assert_eq!(scan.1, bytes.len());
    }

    /// A cut, a flipped bit or an undecodable frame: the cursor stops
    /// exactly where the reference scanner stops, with the same entries.
    #[test]
    fn cursor_matches_the_reference_scanner_on_damaged_segments(
        entries in prop::collection::vec(entry(), 0..24),
        first_lsn in 1u64..1_000_000,
        damage in damage(),
    ) {
        let bytes = apply(&damage, segment(&reference_frames(&entries)));
        let scan = cursor_scan(&bytes, first_lsn);
        prop_assert_eq!(&scan, &reference(&bytes, first_lsn));
        prop_assert!(scan.1 <= bytes.len());
        // Stopped means stopped: a second pull yields nothing.
        let mut cursor = FrameCursor::segment(&bytes, first_lsn);
        cursor.by_ref().for_each(drop);
        prop_assert!(cursor.next().is_none());
    }
}
