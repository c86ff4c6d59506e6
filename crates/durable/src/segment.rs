//! On-disk naming and framing shared by the segmented WAL: segment file
//! headers, the manifest, and checkpoint image names.
//!
//! Layout of a WAL directory:
//!
//! ```text
//! wal.manifest               checkpoint LSN + first live segment + shards
//! wal.000004.log             [header][frame][frame]…
//! wal.000005.log
//! checkpoint.00000000000000000217.shard0.dct   one image per shard, at LSN 217
//! checkpoint.00000000000000000217.shard1.dct
//! checkpoint.shard0.scratch                     an image being assembled
//! ```
//!
//! Images are paged shard files, opaque here. A scratch image is never a
//! checkpoint; one a crash leaves is removed by a checkpoint or recovery.
//!
//! A segment starts with a 28-byte header — magic, its own sequence
//! number, the LSN of its first frame, and a CRC over both — so recovery
//! can both verify it is reading the segment the name claims and skip
//! frames already covered by the checkpoint. Frames never span segments:
//! rotation only happens between appends.

use std::path::Path;

use dc_common::{DcError, DcResult};
use dc_storage::{crc32, ByteReader, ByteWriter};

use crate::fs::WalFs;

/// Magic prefix of every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"DCWSEG01";
/// Magic prefix of the manifest.
pub const MANIFEST_MAGIC: &[u8; 8] = b"DCWMAN01";
/// Size of the segment header: magic + seq + first_lsn + crc.
pub const SEGMENT_HEADER_LEN: usize = 28;
/// The manifest's file name inside a WAL directory.
pub const MANIFEST_FILE: &str = "wal.manifest";

/// `wal.000017.log`.
pub fn segment_file_name(seq: u64) -> String {
    format!("wal.{seq:06}.log")
}

/// Parses a segment file name back to its sequence number.
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal.")?.strip_suffix(".log")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The checkpoint image name of shard `shard` at `lsn`.
pub fn checkpoint_file_name(lsn: u64, shard: u32) -> String {
    format!("checkpoint.{lsn:020}.shard{shard}.dct")
}

/// Parses a checkpoint image name to `(lsn, shard)`.
pub fn parse_checkpoint_file_name(name: &str) -> Option<(u64, u32)> {
    let rest = name.strip_prefix("checkpoint.")?.strip_suffix(".dct")?;
    let (lsn, shard) = rest.split_once('.')?;
    Some((
        lsn.parse().ok()?,
        shard.strip_prefix("shard")?.parse().ok()?,
    ))
}

/// The scratch image name of shard `shard` — one that
/// [`parse_checkpoint_file_name`] rejects.
pub fn scratch_image_name(shard: u32) -> String {
    format!("checkpoint.shard{shard}.scratch")
}

/// Whether `name` is a scratch image (see [`scratch_image_name`]).
pub fn is_scratch_image_name(name: &str) -> bool {
    name.starts_with("checkpoint.shard") && name.ends_with(".scratch")
}

/// Encodes a segment header.
pub fn encode_segment_header(seq: u64, first_lsn: u64) -> [u8; SEGMENT_HEADER_LEN] {
    let mut out = [0u8; SEGMENT_HEADER_LEN];
    out[..8].copy_from_slice(SEGMENT_MAGIC);
    out[8..16].copy_from_slice(&seq.to_le_bytes());
    out[16..24].copy_from_slice(&first_lsn.to_le_bytes());
    let crc = crc32(&out[8..24]);
    out[24..28].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes and verifies a segment header; `None` when torn or corrupt.
pub fn decode_segment_header(bytes: &[u8]) -> Option<(u64, u64)> {
    if bytes.len() < SEGMENT_HEADER_LEN || &bytes[..8] != SEGMENT_MAGIC {
        return None;
    }
    let seq = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
    let first_lsn = u64::from_le_bytes(bytes[16..24].try_into().ok()?);
    let crc = u32::from_le_bytes(bytes[24..28].try_into().ok()?);
    (crc32(&bytes[8..24]) == crc).then_some((seq, first_lsn))
}

/// The durable root of a WAL directory: which LSN the newest checkpoint
/// covers, which segment holds the first frame past it, and how many
/// shard images make up the checkpoint.
///
/// Replaced atomically (temp + sync + rename), so recovery always sees
/// either the old or the new manifest, never a half-written one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Manifest {
    /// Every mutation with `lsn <= checkpoint_lsn` is baked into the
    /// checkpoint images; replay starts after it.
    pub checkpoint_lsn: u64,
    /// The first segment recovery must scan.
    pub start_seq: u64,
    /// Shard images in the checkpoint: `checkpoint.<lsn>.shard<i>.dct` for
    /// `i < shards`. A bare [`WalWriter`](crate::WalWriter) that keeps no
    /// images of its own records `0`.
    pub shards: u32,
}

impl Manifest {
    /// What a directory without a manifest recovers as: no checkpoint, the
    /// chain starting at segment 1, no shard images.
    pub const EMPTY: Manifest = Manifest {
        checkpoint_lsn: 0,
        start_seq: 1,
        shards: 0,
    };

    /// The file names of the committed checkpoint's images, in shard order;
    /// empty before the first checkpoint. A committed checkpoint without
    /// shard images is one this repository no longer writes or reads (a
    /// single `checkpoint.<lsn>.dct`), so whoever is about to load images
    /// gets [`DcError::Corrupt`] rather than a directory that half-opens.
    pub fn image_names(&self) -> DcResult<Vec<String>> {
        if self.checkpoint_lsn == 0 {
            return Ok(Vec::new());
        }
        if self.shards == 0 {
            return Err(DcError::Corrupt(format!(
                "WAL manifest commits an unsharded checkpoint at LSN {}: no shard images to load",
                self.checkpoint_lsn
            )));
        }
        Ok((0..self.shards)
            .map(|s| checkpoint_file_name(self.checkpoint_lsn, s))
            .collect())
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(32);
        for &b in MANIFEST_MAGIC {
            w.put_u8(b);
        }
        let mut payload = ByteWriter::with_capacity(20);
        payload.put_u64(self.checkpoint_lsn);
        payload.put_u64(self.start_seq);
        payload.put_u32(self.shards);
        let payload = payload.into_vec();
        w.put_u32(crc32(&payload));
        for &b in &payload {
            w.put_u8(b);
        }
        w.into_vec()
    }

    fn decode(bytes: &[u8]) -> DcResult<Manifest> {
        let mut r = ByteReader::new(bytes);
        for &expected in MANIFEST_MAGIC {
            if r.get_u8()? != expected {
                return Err(DcError::Corrupt("bad WAL manifest magic".into()));
            }
        }
        let crc = r.get_u32()?;
        if crc32(&bytes[12..]) != crc {
            return Err(DcError::Corrupt("WAL manifest checksum mismatch".into()));
        }
        let manifest = Manifest {
            checkpoint_lsn: r.get_u64()?,
            start_seq: r.get_u64()?,
            shards: r.get_u32()?,
        };
        r.expect_end()?;
        Ok(manifest)
    }

    /// Atomically replaces the manifest in `dir`.
    pub fn store(&self, fs: &dyn WalFs, dir: &Path) -> DcResult<()> {
        fs.write_atomic(&dir.join(MANIFEST_FILE), &self.encode())
    }

    /// Loads the manifest from `dir`; `Ok(None)` when absent, an error
    /// when present but corrupt (recovery must not guess).
    pub fn load(fs: &dyn WalFs, dir: &Path) -> DcResult<Option<Manifest>> {
        match fs.read(&dir.join(MANIFEST_FILE))? {
            None => Ok(None),
            Some(bytes) => Manifest::decode(&bytes).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::StdFs;

    #[test]
    fn segment_names_round_trip() {
        assert_eq!(segment_file_name(17), "wal.000017.log");
        assert_eq!(parse_segment_file_name("wal.000017.log"), Some(17));
        assert_eq!(parse_segment_file_name("wal.1000000.log"), Some(1_000_000));
        assert_eq!(parse_segment_file_name("wal.manifest"), None);
        assert_eq!(parse_segment_file_name("wal.00a017.log"), None);
        assert_eq!(parse_segment_file_name("checkpoint.3.dct"), None);
    }

    #[test]
    fn checkpoint_names_round_trip() {
        let name = checkpoint_file_name(217, 3);
        assert_eq!(name, "checkpoint.00000000000000000217.shard3.dct");
        assert_eq!(parse_checkpoint_file_name(&name), Some((217, 3)));
        // The pre-engine single-image name is not a checkpoint image.
        assert_eq!(
            parse_checkpoint_file_name("checkpoint.00000000000000000217.dct"),
            None
        );
        assert_eq!(parse_checkpoint_file_name("checkpoint.tmp"), None);
        let scratch = scratch_image_name(3);
        assert!(is_scratch_image_name(&scratch));
        assert_eq!(parse_checkpoint_file_name(&scratch), None);
        assert!(!is_scratch_image_name(&name));
        assert_eq!(parse_checkpoint_file_name("wal.000001.log"), None);
    }

    #[test]
    fn segment_header_round_trip_and_corruption() {
        let h = encode_segment_header(5, 101);
        assert_eq!(decode_segment_header(&h), Some((5, 101)));
        assert_eq!(decode_segment_header(&h[..20]), None, "torn header");
        let mut bad = h;
        bad[10] ^= 1;
        assert_eq!(decode_segment_header(&bad), None, "checksum catches flips");
    }

    #[test]
    fn manifest_round_trip_and_corruption() {
        let dir = dc_common::TempDir::new("manifest");
        let fs = StdFs;
        assert!(Manifest::load(&fs, &dir).unwrap().is_none());
        let m = Manifest {
            checkpoint_lsn: 42,
            start_seq: 7,
            shards: 4,
        };
        m.store(&fs, &dir).unwrap();
        assert_eq!(Manifest::load(&fs, &dir).unwrap(), Some(m));
        // A flipped byte is detected, not silently accepted.
        let path = dir.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(Manifest::load(&fs, &dir).is_err());
    }
}
