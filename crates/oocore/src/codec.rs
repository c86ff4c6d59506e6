//! Node-page codec: the one encoding every node page is written in.
//!
//! Out-of-core shards are disk-bound, so bytes per node translate directly
//! into records-per-GB and fault rate. Against a fixed-width layout
//! (u32/u64/i64 everywhere) the codec saves two ways:
//!
//! * **Varints** — counts, value ids, child pointers and block counts are LEB128;
//!   measures and summaries are zigzag varints (small magnitudes, either
//!   sign, stay short).
//! * **First index + gaps** — an MDS dimension set is a sorted run of
//!   same-level [`ValueId`]s; it is stored as its first index plus one gap
//!   varint per further value.
//!
//! Every set carries an encoding tag. Shard files and checkpoint images
//! written before this was the only set form also hold sets tagged
//! `SET_WAH`, a word-aligned-hybrid bitmap ([`CompressedBitmap`]) over the
//! index domain, so that tag still decodes; nothing writes it.
//!
//! Every page starts with a format tag. A node page holds the node's block
//! count and members — a data node's records, each its leaf values and
//! measure; a node's MDS and summary are its entry's, encoded in its
//! parent's page (the root's in the tree metadata, through
//! [`encode_cover`]). Pages of the two earlier formats still decode:
//! [`FORMAT_NODE_V2`] pages carry a record id before each record, read and
//! dropped; [`FORMAT_NODE_V1`] pages carry those ids too, and the node's
//! MDS and summary in a header before the block count, parsed and skipped
//! — [`decode_v1_cover`] reads it for a tree whose metadata predates the
//! root entry.
//!
//! Decoding is fully checked: any truncation, overflow, out-of-domain
//! level/index, or inconsistent bitmap yields [`DcError::Corrupt`] — never
//! a panic — because these bytes come from disk.

use dc_bitmap::CompressedBitmap;
use dc_common::id::{MAX_INDEX, MAX_LEVEL};
use dc_common::{DcError, DcResult, MeasureSummary, ValueId};
use dc_hierarchy::{Dims, Record};
use dc_mds::{DimSet, Mds};
use dc_storage::ByteReader;
use dc_tree::node::{DirEntry, Node, NodeKind};

/// Format tag: the node encoding of this module follows.
pub const FORMAT_NODE: u8 = 3;
/// Format tag of the second node encoding: what [`FORMAT_NODE`] holds,
/// each record preceded by its id as a zigzag delta. Decode-only.
pub const FORMAT_NODE_V2: u8 = 2;
/// Format tag of the first node encoding: the node's MDS and summary, then
/// what [`FORMAT_NODE_V2`] holds. Decode-only.
pub const FORMAT_NODE_V1: u8 = 1;

const KIND_DIR: u8 = 0;
const KIND_DATA: u8 = 1;
/// Set tag: first index plus gap varints.
const SET_DELTA: u8 = 0;
/// Set tag: a WAH bitmap over the index domain. Decode-only.
const SET_WAH: u8 = 1;

/// The longest varint of a `u32`, and of a `u64`.
const VARINT32_MAX: usize = 5;
const VARINT64_MAX: usize = 10;

// ---------------------------------------------------------------------
// Varint primitives
// ---------------------------------------------------------------------

pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends to a `Vec` through a slice: the `Vec` is first grown by an
/// upper bound of what will be written, each write is then a store and an
/// index bump, and [`finish`](Self::finish) cuts the `Vec` back to what
/// was written.
struct Writer<'a> {
    out: &'a mut Vec<u8>,
    pos: usize,
}

impl<'a> Writer<'a> {
    /// A writer appending to `out` at most `bound` bytes.
    fn new(out: &'a mut Vec<u8>, bound: usize) -> Self {
        let pos = out.len();
        out.resize(pos + bound, 0);
        Writer { out, pos }
    }

    #[inline(always)]
    fn byte(&mut self, b: u8) {
        self.out[self.pos] = b;
        self.pos += 1;
    }

    #[inline(always)]
    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.byte((v as u8) | 0x80);
            v >>= 7;
        }
        self.byte(v as u8);
    }

    #[inline(always)]
    fn zigzag(&mut self, v: i64) {
        self.varint(zigzag(v));
    }

    fn finish(self) {
        self.out.truncate(self.pos);
    }
}

#[cold]
fn truncated(needed: usize, remaining: usize) -> DcError {
    DcError::Corrupt(format!("needed {needed} bytes, only {remaining} remain"))
}

/// A checked read cursor over a page's bytes. Each read is a bounds check
/// and a load, inlined into the decode loops; a read past the end, an
/// overlong or overflowing varint and an out-of-range count are
/// [`DcError::Corrupt`].
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    #[inline]
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    #[inline]
    fn u8(&mut self) -> DcResult<u8> {
        let b = *self.bytes.get(self.pos).ok_or_else(|| truncated(1, 0))?;
        self.pos += 1;
        Ok(b)
    }

    fn u64_le(&mut self) -> DcResult<u64> {
        let word = (self.bytes.get(self.pos..self.pos + 8))
            .ok_or_else(|| truncated(8, self.remaining()))?;
        self.pos += 8;
        Ok(u64::from_le_bytes(word.try_into().expect("8 bytes")))
    }

    /// An LEB128 varint of at most ten bytes whose value fits a `u64`.
    /// Ids, gaps and measures are mostly one to three bytes: those are
    /// read unrolled while three bytes remain.
    #[inline(always)]
    fn varint(&mut self) -> DcResult<u64> {
        let rest = &self.bytes[self.pos..];
        if let [b0, b1, b2, ..] = *rest {
            if b0 < 0x80 {
                self.pos += 1;
                return Ok(u64::from(b0));
            }
            let low = u64::from(b0 & 0x7f);
            if b1 < 0x80 {
                self.pos += 2;
                return Ok(low | u64::from(b1) << 7);
            }
            let low = low | u64::from(b1 & 0x7f) << 7;
            if b2 < 0x80 {
                self.pos += 3;
                return Ok(low | u64::from(b2) << 14);
            }
        }
        self.varint_long()
    }

    /// [`Self::varint`] a byte at a time.
    fn varint_long(&mut self) -> DcResult<u64> {
        let rest = &self.bytes[self.pos..];
        let mut v = 0u64;
        for (i, &b) in rest.iter().take(VARINT64_MAX).enumerate() {
            if i == VARINT64_MAX - 1 && b > 1 {
                return Err(DcError::Corrupt("varint overflows u64".into()));
            }
            v |= u64::from(b & 0x7f) << (7 * i);
            if b & 0x80 == 0 {
                self.pos += i + 1;
                return Ok(v);
            }
        }
        // Ten bytes always end in one of the returns above.
        Err(truncated(rest.len() + 1, rest.len()))
    }

    #[inline]
    fn zigzag(&mut self) -> DcResult<i64> {
        Ok(unzigzag(self.varint()?))
    }

    /// A value id: a varint that must fit 32 bits.
    #[inline(always)]
    fn value_id(&mut self) -> DcResult<ValueId> {
        let raw = self.varint()?;
        u32::try_from(raw)
            .map(ValueId::from_raw)
            .map_err(|_| DcError::Corrupt(format!("value id {raw} overflows")))
    }

    /// Bounds a count read from disk: each counted element consumes at
    /// least `min_elem` bytes, so a count the remaining buffer cannot hold
    /// is corrupt (and must not drive `Vec::with_capacity`).
    fn bounded_count(&mut self, min_elem: usize) -> DcResult<usize> {
        let n = self.varint()?;
        let n = usize::try_from(n).map_err(|_| DcError::Corrupt("count overflow".into()))?;
        if n.saturating_mul(min_elem.max(1)) > self.remaining() {
            return Err(DcError::Corrupt(format!(
                "count {n} exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    fn expect_end(&self) -> DcResult<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(DcError::Corrupt(format!("{n} trailing bytes"))),
        }
    }
}

// ---------------------------------------------------------------------
// Dimension sets
// ---------------------------------------------------------------------

fn encode_dimset(w: &mut Writer, set: &DimSet) {
    w.byte(set.level());
    w.varint(set.len() as u64);
    if set.is_empty() {
        return;
    }
    // Values are sorted and deduped, so every gap is ≥ 0.
    w.byte(SET_DELTA);
    let mut prev = 0u64;
    for (i, &v) in set.values().iter().enumerate() {
        let idx = u64::from(v.index());
        w.varint(if i == 0 { idx } else { idx - prev - 1 });
        prev = idx;
    }
}

/// At least as many bytes as [`encode_dimset`] writes for `set`.
fn dimset_len_bound(set: &DimSet) -> usize {
    2 + VARINT32_MAX * (set.len() + 1)
}

/// Reads one dimension set; `values` is scratch the set's values are
/// gathered in before they are copied into it.
fn decode_dimset(c: &mut Cursor, values: &mut Vec<ValueId>) -> DcResult<DimSet> {
    let level = c.u8()?;
    if level > MAX_LEVEL {
        return Err(DcError::Corrupt(format!(
            "dimension-set level {level} exceeds MAX_LEVEL {MAX_LEVEL}"
        )));
    }
    let count = c.varint()?;
    if count > u64::from(MAX_INDEX) + 1 {
        return Err(DcError::Corrupt(format!(
            "dimension-set cardinality {count} exceeds the index domain"
        )));
    }
    let count = count as usize;
    values.clear();
    if count == 0 {
        return Ok(DimSet::from_sorted(level, values));
    }
    match c.u8()? {
        SET_DELTA => {
            // Each gap varint is at least one byte, so the remaining buffer
            // bounds the count (and the allocation).
            if count > c.remaining() {
                return Err(DcError::Corrupt(format!(
                    "count {count} exceeds remaining {} bytes",
                    c.remaining()
                )));
            }
            values.reserve(count);
            let mut idx = c.varint()?;
            for i in 0..count {
                if i > 0 {
                    idx = idx
                        .checked_add(c.varint()?)
                        .and_then(|v| v.checked_add(1))
                        .ok_or_else(|| DcError::Corrupt("index delta overflow".into()))?;
                }
                if idx > u64::from(MAX_INDEX) {
                    return Err(DcError::Corrupt(format!(
                        "value index {idx} exceeds MAX_INDEX {MAX_INDEX}"
                    )));
                }
                values.push(ValueId::new(level, idx as u32));
            }
        }
        SET_WAH => {
            let n_words = c.bounded_count(8)?;
            let mut words = Vec::with_capacity(n_words);
            for _ in 0..n_words {
                words.push(c.u64_le()?);
            }
            let tail = c.u64_le()?;
            let len = c.varint()?;
            let bm = CompressedBitmap::from_parts(words, tail, len, u64::from(MAX_INDEX) + 1)
                .ok_or_else(|| DcError::Corrupt("inconsistent WAH dimension set".into()))?;
            // Checked before materializing: count_ones is O(words), so a
            // corrupt count cannot drive a huge allocation.
            if bm.count_ones() != count as u64 {
                return Err(DcError::Corrupt(format!(
                    "WAH set has {} bits, header says {count}",
                    bm.count_ones()
                )));
            }
            values.reserve(count);
            // from_parts bounded len, so idx ≤ MAX_INDEX holds.
            values.extend(bm.iter_ones().map(|idx| ValueId::new(level, idx as u32)));
        }
        tag => {
            return Err(DcError::Corrupt(format!(
                "bad dimension-set encoding tag {tag}"
            )))
        }
    }
    Ok(DimSet::from_sorted(level, values))
}

fn write_cover(w: &mut Writer, mds: &Mds, s: &MeasureSummary) {
    for set in mds.dims() {
        encode_dimset(w, set);
    }
    w.zigzag(s.sum);
    w.varint(s.count);
    w.zigzag(s.min);
    w.zigzag(s.max);
}

/// At least as many bytes as [`write_cover`] writes for `mds`.
fn cover_len_bound(mds: &Mds) -> usize {
    mds.dims().map(dimset_len_bound).sum::<usize>() + 4 * VARINT64_MAX
}

/// Appends an entry's MDS and summary to `out`, as a directory page holds
/// them.
pub fn encode_cover(out: &mut Vec<u8>, mds: &Mds, summary: &MeasureSummary) {
    let mut w = Writer::new(out, cover_len_bound(mds));
    write_cover(&mut w, mds, summary);
    w.finish();
}

fn cover(
    c: &mut Cursor,
    num_dims: usize,
    values: &mut Vec<ValueId>,
) -> DcResult<(Mds, MeasureSummary)> {
    let mds = (0..num_dims)
        .map(|_| decode_dimset(c, values))
        .collect::<DcResult<Mds>>()?;
    let summary = MeasureSummary {
        sum: c.zigzag()?,
        count: c.varint()?,
        min: c.zigzag()?,
        max: c.zigzag()?,
    };
    Ok((mds, summary))
}

/// Reads what [`encode_cover`] wrote.
pub fn decode_cover(r: &mut ByteReader, num_dims: usize) -> DcResult<(Mds, MeasureSummary)> {
    let mut c = Cursor::new(r.rest());
    let out = cover(&mut c, num_dims, &mut Vec::new())?;
    r.skip(c.pos)?;
    Ok(out)
}

// ---------------------------------------------------------------------
// Nodes
// ---------------------------------------------------------------------

/// At least as many bytes as [`encode_node`] writes for `node`: every
/// varint at its longest.
fn node_len_bound(node: &Node) -> usize {
    let body: usize = match &node.kind {
        NodeKind::Dir(entries) => entries
            .iter()
            .map(|e| cover_len_bound(&e.mds) + VARINT32_MAX)
            .sum(),
        NodeKind::Data(records) => records
            .iter()
            .map(|r| VARINT32_MAX * r.dims.len() + VARINT64_MAX)
            .sum(),
    };
    1 + VARINT32_MAX + 1 + VARINT64_MAX + body
}

/// Encodes `node` for storage; [`decode_node`] reads it back.
pub fn encode_node(node: &Node) -> Vec<u8> {
    let mut out = Vec::new();
    let mut w = Writer::new(&mut out, node_len_bound(node));
    w.byte(FORMAT_NODE);
    w.varint(u64::from(node.blocks));
    match &node.kind {
        NodeKind::Dir(entries) => {
            w.byte(KIND_DIR);
            w.varint(entries.len() as u64);
            for e in entries.iter() {
                write_cover(&mut w, &e.mds, &e.summary);
                w.varint(u64::from(e.child.raw()));
            }
        }
        NodeKind::Data(records) => {
            w.byte(KIND_DATA);
            w.varint(records.len() as u64);
            for rec in records.iter() {
                for &d in &rec.dims {
                    w.varint(u64::from(d.raw()));
                }
                w.zigzag(rec.measure);
            }
        }
    }
    w.finish();
    out
}

/// Decodes a node produced by [`encode_node`], or a page of an earlier
/// format, whose header and record ids are checked and dropped. All
/// failures are checked [`DcError::Corrupt`]s — disk bytes must never
/// panic the server.
pub fn decode_node(bytes: &[u8], num_dims: usize) -> DcResult<Node> {
    let mut c = Cursor::new(bytes);
    let mut values = Vec::new();
    let record_ids = match c.u8()? {
        FORMAT_NODE => false,
        FORMAT_NODE_V2 => true,
        FORMAT_NODE_V1 => {
            cover(&mut c, num_dims, &mut values)?;
            true
        }
        tag => return Err(DcError::Corrupt(format!("bad node format tag {tag}"))),
    };
    let node = decode_body(&mut c, num_dims, record_ids, &mut values)?;
    c.expect_end()?;
    Ok(node)
}

/// The MDS and summary in the header of a [`FORMAT_NODE_V1`] page; any
/// other page is [`DcError::Corrupt`].
pub fn decode_v1_cover(bytes: &[u8], num_dims: usize) -> DcResult<(Mds, MeasureSummary)> {
    let mut c = Cursor::new(bytes);
    match c.u8()? {
        FORMAT_NODE_V1 => cover(&mut c, num_dims, &mut Vec::new()),
        tag => Err(DcError::Corrupt(format!(
            "node format tag {tag} carries no header"
        ))),
    }
}

/// A node's block count and members; `record_ids` skips the id each
/// record of an earlier format carries.
fn decode_body(
    c: &mut Cursor,
    num_dims: usize,
    record_ids: bool,
    values: &mut Vec<ValueId>,
) -> DcResult<Node> {
    let blocks = c.varint()?;
    let blocks = u32::try_from(blocks)
        .map_err(|_| DcError::Corrupt(format!("block count {blocks} overflows u32")))?;
    if blocks == 0 {
        return Err(DcError::Corrupt("node with zero blocks".into()));
    }
    let kind = match c.u8()? {
        KIND_DIR => {
            let n = c.bounded_count(2 * num_dims.max(1) + 5)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let (mds, summary) = cover(c, num_dims, values)?;
                let child = c.varint()?;
                let child = u32::try_from(child)
                    .map_err(|_| DcError::Corrupt(format!("child handle {child} overflows")))?;
                entries.push(DirEntry {
                    mds,
                    summary,
                    child: dc_tree::node::NodeId::from_raw(child),
                });
            }
            NodeKind::Dir(entries.into())
        }
        KIND_DATA => {
            let n = c.bounded_count(num_dims.max(1) + 1 + usize::from(record_ids))?;
            let mut records = Vec::with_capacity(n);
            // A record's ids are gathered on the stack, or in `values` for
            // a cube wider than an inline record.
            let mut row = [ValueId::from_raw(0); Dims::INLINE];
            for _ in 0..n {
                if record_ids {
                    c.varint()?;
                }
                let dims = match row.get_mut(..num_dims) {
                    Some(row) => {
                        for id in row.iter_mut() {
                            *id = c.value_id()?;
                        }
                        Dims::from(&*row)
                    }
                    None => {
                        values.clear();
                        for _ in 0..num_dims {
                            values.push(c.value_id()?);
                        }
                        Dims::from(&values[..])
                    }
                };
                let measure = c.zigzag()?;
                records.push(Record { dims, measure });
            }
            NodeKind::Data(records.into())
        }
        tag => return Err(DcError::Corrupt(format!("bad node kind tag {tag}"))),
    };
    Ok(Node { blocks, kind })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_and_overflow() {
        let cases = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for v in cases {
            let mut buf = Vec::new();
            let mut w = Writer::new(&mut buf, VARINT64_MAX);
            w.varint(v);
            w.finish();
            assert!(buf.len() <= 10);
            let mut c = Cursor::new(&buf);
            assert_eq!(c.varint().unwrap(), v);
            c.expect_end().unwrap();
        }
        // 10 bytes of continuation with a fat final byte: overflow.
        let bad = [0xffu8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        assert!(matches!(
            Cursor::new(&bad).varint(),
            Err(DcError::Corrupt(_))
        ));
        // 11-byte varint: too long.
        let long = [0x80u8; 11];
        assert!(matches!(
            Cursor::new(&long).varint(),
            Err(DcError::Corrupt(_))
        ));
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn dense_sets_are_written_as_gaps() {
        // 2000 consecutive indices: a first index and 1999 one-byte zero
        // gaps.
        let values: Vec<ValueId> = (0..2000).map(|i| ValueId::new(3, i)).collect();
        let set = DimSet::new(3, values);
        let mut out = Vec::new();
        let mut w = Writer::new(&mut out, dimset_len_bound(&set));
        encode_dimset(&mut w, &set);
        w.finish();
        // level + 2-byte count varint + tag + 2000 one-byte varints.
        assert_eq!(out[3], SET_DELTA);
        assert_eq!(out.len(), 1 + 2 + 1 + 2000);
        let mut c = Cursor::new(&out);
        let back = decode_dimset(&mut c, &mut Vec::new()).unwrap();
        assert_eq!(back, set);
        c.expect_end().unwrap();
    }

    #[test]
    fn sparse_sets_roundtrip() {
        let values: Vec<ValueId> = (0..8).map(|i| ValueId::new(2, i * 1_000_000)).collect();
        let set = DimSet::new(2, values);
        let mut out = Vec::new();
        let mut w = Writer::new(&mut out, dimset_len_bound(&set));
        encode_dimset(&mut w, &set);
        w.finish();
        assert_eq!(out[2], SET_DELTA);
        let back = decode_dimset(&mut Cursor::new(&out), &mut Vec::new()).unwrap();
        assert_eq!(back.values(), set.values());
    }
}
