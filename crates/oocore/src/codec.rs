//! Compressed node-page codec.
//!
//! Out-of-core shards are disk-bound, so bytes per node translate directly
//! into records-per-GB and fault rate. This codec shrinks the plain persist
//! encoding (fixed-width u32/u64/i64 everywhere) three ways:
//!
//! * **Varints** — counts, ids, child pointers and block counts are LEB128;
//!   measures and summaries are zigzag varints (small magnitudes, either
//!   sign, stay short).
//! * **Per-dimension value-set deltas** — an MDS dimension set is a sorted
//!   run of same-level [`ValueId`]s; it is stored as a first index plus
//!   gap varints.
//! * **WAH bitmap sets** — a dense dimension set compresses better as a
//!   word-aligned-hybrid bitmap ([`CompressedBitmap`]) over the index
//!   domain; the encoder builds both forms and keeps the smaller, tagging
//!   each set with the encoding chosen.
//!
//! Every page starts with a format tag, so plain and compressed nodes can
//! coexist in one file and decoding is self-describing. Decoding is fully
//! checked: any truncation, overflow, out-of-domain level/index, or
//! inconsistent bitmap yields [`DcError::Corrupt`] — never a panic — because
//! these bytes come from disk.

use dc_bitmap::CompressedBitmap;
use dc_common::id::{MAX_INDEX, MAX_LEVEL};
use dc_common::{DcError, DcResult, RecordId, ValueId};
use dc_hierarchy::Record;
use dc_mds::{DimSet, Mds};
use dc_storage::{ByteReader, ByteWriter};
use dc_tree::node::{DirEntry, Node, NodeKind, StoredRecord};
use dc_tree::persist::{read_node, write_node};

/// Format tag: the plain `dc_tree::persist` encoding follows.
pub const FORMAT_PLAIN: u8 = 0;
/// Format tag: the compressed encoding of this module follows.
pub const FORMAT_COMPRESSED: u8 = 1;

const KIND_DIR: u8 = 0;
const KIND_DATA: u8 = 1;
const SET_DELTA: u8 = 0;
const SET_WAH: u8 = 1;

// ---------------------------------------------------------------------
// Varint primitives
// ---------------------------------------------------------------------

pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

pub(crate) fn get_varint(r: &mut ByteReader) -> DcResult<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = r.get_u8()?;
        if shift == 63 && b > 1 {
            return Err(DcError::Corrupt("varint overflows u64".into()));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(DcError::Corrupt("varint longer than 10 bytes".into()));
        }
    }
}

pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    put_varint(out, zigzag(v));
}

fn get_zigzag(r: &mut ByteReader) -> DcResult<i64> {
    Ok(unzigzag(get_varint(r)?))
}

/// Bounds a count read from disk: each counted element consumes at least
/// `min_elem` bytes, so a count the remaining buffer cannot hold is corrupt
/// (and must not drive `Vec::with_capacity`).
fn get_bounded_count(r: &mut ByteReader, min_elem: usize) -> DcResult<usize> {
    let n = get_varint(r)?;
    let n = usize::try_from(n).map_err(|_| DcError::Corrupt("count overflow".into()))?;
    if n.saturating_mul(min_elem.max(1)) > r.remaining() {
        return Err(DcError::Corrupt(format!(
            "count {n} exceeds remaining {} bytes",
            r.remaining()
        )));
    }
    Ok(n)
}

// ---------------------------------------------------------------------
// Dimension sets
// ---------------------------------------------------------------------

fn encode_dimset(out: &mut Vec<u8>, set: &DimSet) {
    out.push(set.level());
    put_varint(out, set.len() as u64);
    if set.is_empty() {
        return;
    }
    // Candidate 1: first index + gap varints (values are sorted, deduped).
    let mut delta = Vec::new();
    let mut prev = 0u64;
    for (i, &v) in set.values().iter().enumerate() {
        let idx = u64::from(v.index());
        if i == 0 {
            put_varint(&mut delta, idx);
        } else {
            put_varint(&mut delta, idx - prev - 1);
        }
        prev = idx;
    }
    // Candidate 2: WAH bitmap over the index domain.
    let mut bm = CompressedBitmap::new();
    for &v in set.values() {
        bm.set(u64::from(v.index()));
    }
    let (words, tail, len) = bm.to_parts();
    let wah_size = 1 + words.len() * 8 + 8 + 10;
    if wah_size < delta.len() {
        out.push(SET_WAH);
        put_varint(out, words.len() as u64);
        for &w in words.iter() {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&tail.to_le_bytes());
        put_varint(out, len);
    } else {
        out.push(SET_DELTA);
        out.extend_from_slice(&delta);
    }
}

fn decode_dimset(r: &mut ByteReader) -> DcResult<DimSet> {
    let level = r.get_u8()?;
    if level > MAX_LEVEL {
        return Err(DcError::Corrupt(format!(
            "dimension-set level {level} exceeds MAX_LEVEL {MAX_LEVEL}"
        )));
    }
    let count = get_varint(r)?;
    if count > u64::from(MAX_INDEX) + 1 {
        return Err(DcError::Corrupt(format!(
            "dimension-set cardinality {count} exceeds the index domain"
        )));
    }
    let count = count as usize;
    if count == 0 {
        return Ok(DimSet::new(level, Vec::new()));
    }
    let mut values;
    match r.get_u8()? {
        SET_DELTA => {
            // Each gap varint is at least one byte, so the remaining buffer
            // bounds the count (and the allocation).
            if count > r.remaining() {
                return Err(DcError::Corrupt(format!(
                    "count {count} exceeds remaining {} bytes",
                    r.remaining()
                )));
            }
            values = Vec::with_capacity(count);
            let mut idx = 0u64;
            for i in 0..count {
                let gap = get_varint(r)?;
                idx = if i == 0 {
                    gap
                } else {
                    idx.checked_add(gap)
                        .and_then(|v| v.checked_add(1))
                        .ok_or_else(|| DcError::Corrupt("index delta overflow".into()))?
                };
                if idx > u64::from(MAX_INDEX) {
                    return Err(DcError::Corrupt(format!(
                        "value index {idx} exceeds MAX_INDEX {MAX_INDEX}"
                    )));
                }
                values.push(ValueId::new(level, idx as u32));
            }
        }
        SET_WAH => {
            let n_words = get_bounded_count(r, 8)?;
            let mut words = Vec::with_capacity(n_words);
            for _ in 0..n_words {
                words.push(r.get_u64()?);
            }
            let tail = r.get_u64()?;
            let len = get_varint(r)?;
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
            values = Vec::with_capacity(count);
            for idx in bm.iter_ones() {
                // from_parts bounded len, so idx ≤ MAX_INDEX holds.
                values.push(ValueId::new(level, idx as u32));
            }
        }
        tag => {
            return Err(DcError::Corrupt(format!(
                "bad dimension-set encoding tag {tag}"
            )))
        }
    }
    Ok(DimSet::new(level, values))
}

fn encode_mds(out: &mut Vec<u8>, mds: &Mds) {
    for set in mds.dims() {
        encode_dimset(out, set);
    }
}

fn decode_mds(r: &mut ByteReader, num_dims: usize) -> DcResult<Mds> {
    let mut dims = Vec::with_capacity(num_dims);
    for _ in 0..num_dims {
        dims.push(decode_dimset(r)?);
    }
    Ok(Mds::new(dims))
}

fn encode_summary(out: &mut Vec<u8>, s: &dc_common::MeasureSummary) {
    put_zigzag(out, s.sum);
    put_varint(out, s.count);
    put_zigzag(out, s.min);
    put_zigzag(out, s.max);
}

fn decode_summary(r: &mut ByteReader) -> DcResult<dc_common::MeasureSummary> {
    Ok(dc_common::MeasureSummary {
        sum: get_zigzag(r)?,
        count: get_varint(r)?,
        min: get_zigzag(r)?,
        max: get_zigzag(r)?,
    })
}

// ---------------------------------------------------------------------
// Nodes
// ---------------------------------------------------------------------

/// Encodes `node` for storage; `compress` selects the format (both decode
/// through [`decode_node`]).
pub fn encode_node(node: &Node, compress: bool) -> Vec<u8> {
    if !compress {
        let mut w = ByteWriter::new();
        write_node(&mut w, node);
        let mut out = vec![FORMAT_PLAIN];
        out.extend_from_slice(&w.into_vec());
        return out;
    }
    let mut out = vec![FORMAT_COMPRESSED];
    encode_mds(&mut out, &node.mds);
    encode_summary(&mut out, &node.summary);
    put_varint(&mut out, u64::from(node.blocks));
    match &node.kind {
        NodeKind::Dir(entries) => {
            out.push(KIND_DIR);
            put_varint(&mut out, entries.len() as u64);
            for e in entries {
                encode_mds(&mut out, &e.mds);
                encode_summary(&mut out, &e.summary);
                put_varint(&mut out, u64::from(e.child.raw()));
            }
        }
        NodeKind::Data(records) => {
            out.push(KIND_DATA);
            put_varint(&mut out, records.len() as u64);
            let mut prev_id = 0i64;
            for rec in records {
                // Ids are near-sequential but not sorted after splits move
                // records around; zigzag deltas handle both directions.
                let id = rec.id.0 as i64;
                put_zigzag(&mut out, id.wrapping_sub(prev_id));
                prev_id = id;
                for &d in &rec.record.dims {
                    put_varint(&mut out, u64::from(d.raw()));
                }
                put_zigzag(&mut out, rec.record.measure);
            }
        }
    }
    out
}

/// Decodes a node produced by [`encode_node`]. All failures are checked
/// [`DcError::Corrupt`]s — disk bytes must never panic the server.
pub fn decode_node(bytes: &[u8], num_dims: usize) -> DcResult<Node> {
    let mut r = ByteReader::new(bytes);
    match r.get_u8()? {
        FORMAT_PLAIN => {
            let node = read_node(&mut r, num_dims)?;
            r.expect_end()?;
            Ok(node)
        }
        FORMAT_COMPRESSED => {
            let node = decode_compressed(&mut r, num_dims)?;
            r.expect_end()?;
            Ok(node)
        }
        tag => Err(DcError::Corrupt(format!("bad node format tag {tag}"))),
    }
}

fn decode_compressed(r: &mut ByteReader, num_dims: usize) -> DcResult<Node> {
    let mds = decode_mds(r, num_dims)?;
    let summary = decode_summary(r)?;
    let blocks = get_varint(r)?;
    let blocks = u32::try_from(blocks)
        .map_err(|_| DcError::Corrupt(format!("block count {blocks} overflows u32")))?;
    if blocks == 0 {
        return Err(DcError::Corrupt("node with zero blocks".into()));
    }
    let kind = match r.get_u8()? {
        KIND_DIR => {
            let n = get_bounded_count(r, 2 * num_dims.max(1) + 5)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let mds = decode_mds(r, num_dims)?;
                let summary = decode_summary(r)?;
                let child = get_varint(r)?;
                let child = u32::try_from(child)
                    .map_err(|_| DcError::Corrupt(format!("child handle {child} overflows")))?;
                entries.push(DirEntry {
                    mds,
                    summary,
                    child: dc_tree::node::NodeId::from_raw(child),
                });
            }
            NodeKind::Dir(entries)
        }
        KIND_DATA => {
            let n = get_bounded_count(r, num_dims.max(1) + 2)?;
            let mut records = Vec::with_capacity(n);
            let mut prev_id = 0i64;
            for _ in 0..n {
                let id = prev_id.wrapping_add(get_zigzag(r)?);
                prev_id = id;
                let dims = (0..num_dims)
                    .map(|_| {
                        let raw = get_varint(r)?;
                        u32::try_from(raw)
                            .map(ValueId::from_raw)
                            .map_err(|_| DcError::Corrupt(format!("value id {raw} overflows")))
                    })
                    .collect::<DcResult<_>>()?;
                let measure = get_zigzag(r)?;
                records.push(StoredRecord {
                    id: RecordId(id as u64),
                    record: Record { dims, measure },
                });
            }
            NodeKind::Data(records)
        }
        tag => return Err(DcError::Corrupt(format!("bad node kind tag {tag}"))),
    };
    Ok(Node {
        mds,
        summary,
        blocks,
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_and_overflow() {
        let cases = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for v in cases {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut r = ByteReader::new(&buf);
            assert_eq!(get_varint(&mut r).unwrap(), v);
        }
        // 10 bytes of continuation with a fat final byte: overflow.
        let bad = [0xffu8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        let mut r = ByteReader::new(&bad);
        assert!(matches!(get_varint(&mut r), Err(DcError::Corrupt(_))));
        // 11-byte varint: too long.
        let long = [0x80u8; 11];
        let mut r = ByteReader::new(&long);
        assert!(matches!(get_varint(&mut r), Err(DcError::Corrupt(_))));
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn dense_sets_pick_the_wah_encoding() {
        // 2000 consecutive indices: gaps of 0 → delta ≈ 2 KB; WAH collapses
        // the run into a couple of fill words.
        let values: Vec<ValueId> = (0..2000).map(|i| ValueId::new(3, i)).collect();
        let set = DimSet::new(3, values);
        let mut out = Vec::new();
        encode_dimset(&mut out, &set);
        // level + count varint + tag + a handful of words.
        assert!(out.len() < 64, "dense set must compress, got {}", out.len());
        let mut r = ByteReader::new(&out);
        let back = decode_dimset(&mut r).unwrap();
        assert_eq!(back.values(), set.values());
        assert_eq!(back.level(), set.level());
    }

    #[test]
    fn sparse_sets_pick_the_delta_encoding() {
        let values: Vec<ValueId> = (0..8).map(|i| ValueId::new(2, i * 1_000_000)).collect();
        let set = DimSet::new(2, values);
        let mut out = Vec::new();
        encode_dimset(&mut out, &set);
        assert_eq!(out[2], SET_DELTA);
        let mut r = ByteReader::new(&out);
        let back = decode_dimset(&mut r).unwrap();
        assert_eq!(back.values(), set.values());
    }
}
