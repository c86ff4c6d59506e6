//! A small, checked binary codec.
//!
//! Used for two purposes:
//! 1. computing the exact serialized byte size of tree nodes (the quantity
//!    compared against the block size for capacity and supernode decisions);
//! 2. persisting whole trees to disk and loading them back.
//!
//! All integers are little-endian and fixed-width; strings are
//! length-prefixed UTF-8. Reads are bounds- and UTF-8-checked and fail with
//! [`DcError::Corrupt`] instead of panicking, so a damaged image can never
//! crash the process.

use bytes::{Buf, BufMut, BytesMut};
use dc_common::{DcError, DcResult};

/// Append-only binary writer.
#[derive(Default, Debug)]
pub struct ByteWriter {
    buf: BytesMut,
}

impl ByteWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: BytesMut::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` iff nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf.to_vec()
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Appends a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.put_u16_le(v);
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Appends an `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.put_i64_le(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.put_slice(s.as_bytes());
    }
}

/// Checked binary reader over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// Reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The bytes not yet consumed, for a decoder that reads them through
    /// its own cursor and then [`skip`](Self::skip)s what it read.
    pub fn rest(&self) -> &'a [u8] {
        self.buf
    }

    /// Consumes `n` bytes unread.
    pub fn skip(&mut self, n: usize) -> DcResult<()> {
        self.take(n).map(drop)
    }

    /// Fails with [`DcError::Corrupt`] unless all input was consumed.
    pub fn expect_end(&self) -> DcResult<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(DcError::Corrupt(format!(
                "{} trailing bytes",
                self.buf.len()
            )))
        }
    }

    fn take(&mut self, n: usize) -> DcResult<&'a [u8]> {
        if self.buf.len() < n {
            return Err(DcError::Corrupt(format!(
                "needed {n} bytes, only {} remain",
                self.buf.len()
            )));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> DcResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn get_u16(&mut self) -> DcResult<u16> {
        Ok(self.take(2)?.get_u16_le())
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> DcResult<u32> {
        Ok(self.take(4)?.get_u32_le())
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> DcResult<u64> {
        Ok(self.take(8)?.get_u64_le())
    }

    /// Reads an `i64`.
    pub fn get_i64(&mut self) -> DcResult<i64> {
        Ok(self.take(8)?.get_i64_le())
    }

    /// Reads an element count that will drive a `Vec::with_capacity`,
    /// validating it against the bytes actually remaining: a count claiming
    /// more than `remaining / min_elem_size` elements cannot be honest, so a
    /// corrupted length field fails with [`DcError::Corrupt`] instead of
    /// triggering a huge allocation.
    pub fn get_count(&mut self, min_elem_size: usize) -> DcResult<usize> {
        let count = self.get_u32()? as usize;
        let bound = self.remaining() / min_elem_size.max(1);
        if count > bound {
            return Err(DcError::Corrupt(format!(
                "count {count} exceeds what {} remaining bytes can hold",
                self.remaining()
            )));
        }
        Ok(count)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> DcResult<String> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| DcError::Corrupt(format!("invalid UTF-8 string: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_i64(-42);
        w.put_str("DC-tree");
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 300);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), 1 << 40);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_str().unwrap(), "DC-tree");
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_input_is_corrupt_not_panic() {
        let mut w = ByteWriter::new();
        w.put_u64(1);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes[..5]);
        assert!(matches!(r.get_u64(), Err(DcError::Corrupt(_))));
    }

    #[test]
    fn oversized_string_length_is_corrupt() {
        let mut w = ByteWriter::new();
        w.put_u32(1_000_000); // claims a huge string
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.get_str(), Err(DcError::Corrupt(_))));
    }

    #[test]
    fn invalid_utf8_is_corrupt() {
        let mut w = ByteWriter::new();
        w.put_u32(2);
        let mut bytes = w.into_vec();
        bytes.extend_from_slice(&[0xff, 0xfe]);
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.get_str(), Err(DcError::Corrupt(_))));
    }

    #[test]
    fn get_count_bounds_against_remaining() {
        let mut w = ByteWriter::new();
        w.put_u32(3);
        w.put_u32(1);
        w.put_u32(2);
        w.put_u32(3);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_count(4).unwrap(), 3);
        // A count claiming more elements than bytes remain is corrupt.
        let mut w = ByteWriter::new();
        w.put_u32(1_000);
        w.put_u32(1);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.get_count(4), Err(DcError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        let _ = r.get_u8().unwrap();
        assert!(matches!(r.expect_end(), Err(DcError::Corrupt(_))));
    }
}

/// CRC-32 (IEEE 802.3) over a byte slice — used by the write-ahead log to
/// detect torn or corrupted entries. Table-driven, computed at first use.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod crc_tests {
    use super::crc32;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"the dc-tree stays online".to_vec();
        let clean = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), clean, "flip at {i}:{bit} undetected");
            }
        }
    }
}
