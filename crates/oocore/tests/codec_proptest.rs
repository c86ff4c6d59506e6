//! Property tests for the node codec: random nodes round-trip exactly, pages
//! written by the earlier encoders (which stored a record id before each
//! record, and first also some dimension sets as WAH bitmaps and every
//! node's MDS and summary in a page header) still decode, and corrupt pages
//! produce *checked* [`DcError`]s — never a panic — because these bytes
//! come from disk. The encoder's bytes are pinned for two fixture nodes,
//! and the decoder answers every flipped and truncated page exactly as the
//! [`reference`] decoder does.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dc_common::{DcError, MeasureSummary, ValueId};
use dc_hierarchy::Record;
use dc_mds::{DimSet, Mds};
use dc_oocore::codec::{decode_node, decode_v1_cover, encode_node, FORMAT_NODE};
use dc_tree::node::{DirEntry, Node, NodeId, NodeKind};
use proptest::prelude::*;

const NUM_DIMS: usize = 3;

/// The byte count of a fixed-width layout of `node` (u32 ids and counts,
/// i64 measures and summaries, one byte per level and tag): the yardstick
/// the varint codec is held to.
fn fixed_width_len(node: &Node) -> usize {
    let mds = |m: &Mds| m.dims().map(|d| 1 + 4 + 4 * d.len()).sum::<usize>();
    let summary = 4 * 8;
    let body = match &node.kind {
        NodeKind::Dir(entries) => entries.iter().map(|e| mds(&e.mds) + summary + 4).sum(),
        NodeKind::Data(records) => records.iter().map(|r| 4 * r.dims.len() + 8).sum::<usize>(),
    };
    1 + 4 + 1 + 4 + body
}

fn dimset_strategy(level: u8) -> impl Strategy<Value = DimSet> {
    let scattered = prop::collection::btree_set(0u32..4_000, 1..40).prop_map(move |idx| {
        DimSet::new(
            level,
            idx.into_iter().map(|i| ValueId::new(level, i)).collect(),
        )
    });
    // Consecutive runs: the sets the earlier encoder wrote as WAH.
    let run = (0u32..100_000, 1u32..200).prop_map(move |(first, len)| {
        DimSet::new(
            level,
            (first..first + len)
                .map(|i| ValueId::new(level, i))
                .collect(),
        )
    });
    prop_oneof![4 => scattered, 1 => run]
}

fn mds_strategy() -> impl Strategy<Value = Mds> {
    (dimset_strategy(0), dimset_strategy(2), dimset_strategy(5))
        .prop_map(|(a, b, c)| Mds::new(vec![a, b, c]))
}

fn summary_strategy() -> impl Strategy<Value = MeasureSummary> {
    prop::collection::vec(-1_000_000i64..1_000_000, 0..10).prop_map(|vals| {
        let mut s = MeasureSummary::empty();
        for v in vals {
            s.add(v);
        }
        s
    })
}

fn data_node_strategy() -> impl Strategy<Value = Node> {
    (
        prop::collection::vec(
            (
                prop::collection::vec(0u32..100_000, NUM_DIMS..=NUM_DIMS),
                -1_000_000i64..1_000_000,
            ),
            0..30,
        ),
        1u32..4,
    )
        .prop_map(|(recs, blocks)| Node {
            blocks,
            kind: NodeKind::Data(
                recs.into_iter()
                    .map(|(dims, measure)| {
                        Record::new(
                            dims.into_iter().map(|i| ValueId::new(0, i)).collect(),
                            measure,
                        )
                    })
                    .collect(),
            ),
        })
}

fn dir_node_strategy() -> impl Strategy<Value = Node> {
    (
        prop::collection::vec((mds_strategy(), summary_strategy(), 2u32..1 << 30), 1..12),
        1u32..4,
    )
        .prop_map(|(entries, blocks)| Node {
            blocks,
            kind: NodeKind::Dir(
                entries
                    .into_iter()
                    .map(|(mds, summary, child)| DirEntry {
                        mds,
                        summary,
                        child: NodeId::from_raw(child),
                    })
                    .collect(),
            ),
        })
}

fn node_strategy() -> impl Strategy<Value = Node> {
    prop_oneof![data_node_strategy(), dir_node_strategy()]
}

/// Whether `decode_node` and the [`reference`] decoder agree on `page`: the
/// same node, or both a `Corrupt` error.
fn agrees_with_reference(page: &[u8]) -> bool {
    match (
        decode_node(page, NUM_DIMS),
        reference::decode_node(page, NUM_DIMS),
    ) {
        (Ok(a), Ok(b)) => a == b,
        (Err(DcError::Corrupt(_)), Err(DcError::Corrupt(_))) => true,
        _ => false,
    }
}

/// The first single-byte mutation of `page` by `xor`, or the first strict
/// prefix of it, on which the two decoders disagree.
fn first_disagreement(page: &[u8], xor: u8) -> Option<String> {
    let mut bad = page.to_vec();
    for pos in 0..page.len() {
        bad[pos] ^= xor;
        let agrees = agrees_with_reference(&bad);
        bad[pos] ^= xor;
        if !agrees {
            return Some(format!("flip of byte {pos} by {xor:#04x}"));
        }
    }
    (0..=page.len())
        .find(|&cut| !agrees_with_reference(&page[..cut]))
        .map(|cut| format!("truncation at {cut}"))
}

/// Every single-byte mutation of `page` by `xor` either decodes to *some*
/// node or fails with a checked error; returns the first position that
/// panicked.
fn first_panicking_flip(page: &[u8], xor: u8) -> Option<usize> {
    let mut bad = page.to_vec();
    (0..page.len()).find(|&pos| {
        bad[pos] ^= xor;
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            let _ = decode_node(&bad, NUM_DIMS);
        }))
        .is_err();
        bad[pos] ^= xor;
        panicked
    })
}

/// Every strict prefix of `page` is a checked `Corrupt` error (counts live
/// in the prefix, so some field is always left unreadable); returns the
/// first cut that was not.
fn first_unchecked_truncation(page: &[u8]) -> Option<usize> {
    (0..page.len()).find(|&cut| {
        !matches!(
            decode_node(&page[..cut], NUM_DIMS),
            Err(DcError::Corrupt(_))
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Data nodes survive encode → decode exactly.
    #[test]
    fn data_nodes_roundtrip_compressed(node in data_node_strategy()) {
        let back = decode_node(&encode_node(&node), NUM_DIMS).expect("decode own encoding");
        prop_assert_eq!(back, node);
    }

    /// Directory nodes survive encode → decode exactly.
    #[test]
    fn dir_nodes_roundtrip_compressed(node in dir_node_strategy()) {
        let back = decode_node(&encode_node(&node), NUM_DIMS).expect("decode own encoding");
        prop_assert_eq!(back, node);
    }

    /// The codec earns its keep on realistic nodes. Varints can lose on
    /// pathological values but must stay in the same ballpark as the
    /// fixed-width layout; real nodes come out well below 1×.
    #[test]
    fn compressed_is_never_wildly_larger(node in data_node_strategy()) {
        prop_assert!(encode_node(&node).len() <= fixed_width_len(&node) * 2);
    }

    /// Every single-byte mutation of a valid page, data or directory,
    /// either decodes to *some* node or fails with a checked error. No
    /// input may panic: corrupt disk bytes must never take the server down.
    #[test]
    fn corrupt_bytes_never_panic(node in node_strategy(), xor in 1u8..=255) {
        let pos = first_panicking_flip(&encode_node(&node), xor);
        prop_assert!(pos.is_none(), "decode panicked at byte {:?}", pos);
    }

    /// Truncating a page, data or directory, anywhere yields a checked
    /// `DcError`.
    #[test]
    fn truncations_are_checked_errors(node in node_strategy()) {
        let bad = first_unchecked_truncation(&encode_node(&node));
        prop_assert!(bad.is_none(), "truncation at {:?} not a Corrupt error", bad);
    }
}

proptest! {
    // Each case decodes every flip and every prefix of its page twice.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On every single-byte mutation and every truncation of a page, the
    /// decoder returns what the reference decoder returns: the same node or
    /// a `Corrupt` error.
    #[test]
    fn decode_matches_the_reference_on_damaged_pages(node in node_strategy(), xor in 1u8..=255) {
        let bad = first_disagreement(&encode_node(&node), xor);
        prop_assert!(bad.is_none(), "decoders disagree on the {:?}", bad);
    }
}

// ----------------------------------------------------------------------
// Pages written by the earlier encoder, in node format 1. It wrote a
// dimension set as a WAH bitmap whenever that came out smaller, which long
// consecutive runs do; every shard file and checkpoint image of a few
// thousand records holds such sets. And it wrote each node's MDS and
// summary into a header before the block count. The bytes below are that
// encoder's output for the two nodes built next to them: each node's
// header, then the node it decodes to now (the records' ids dropped).
// ----------------------------------------------------------------------

fn run(level: u8, range: std::ops::Range<u32>) -> DimSet {
    DimSet::new(level, range.map(|i| ValueId::new(level, i)).collect())
}

fn set(level: u8, idx: &[u32]) -> DimSet {
    DimSet::new(level, idx.iter().map(|&i| ValueId::new(level, i)).collect())
}

fn summary(vals: &[i64]) -> MeasureSummary {
    let mut s = MeasureSummary::empty();
    for &v in vals {
        s.add(v);
    }
    s
}

/// The header of a directory node whose first entry holds 2 000
/// consecutive values.
fn fixture_dir_header() -> (Mds, MeasureSummary) {
    (
        Mds::new(vec![
            run(1, 100..2_140),
            set(0, &[7, 4_000]),
            set(3, &[5, 9, 200]),
        ]),
        summary(&[-12, 40_000, 3]),
    )
}

fn fixture_dir_node() -> Node {
    Node {
        blocks: 2,
        kind: NodeKind::Dir(
            vec![
                DirEntry {
                    mds: Mds::new(vec![run(1, 100..2_100), set(0, &[7]), set(3, &[5, 9])]),
                    summary: summary(&[-12, 40_000]),
                    child: NodeId::from_raw(17),
                },
                DirEntry {
                    mds: Mds::new(vec![run(1, 2_100..2_140), set(0, &[4_000]), set(3, &[200])]),
                    summary: summary(&[3]),
                    child: NodeId::from_raw(300),
                },
            ]
            .into(),
        ),
    }
}

/// The header of a data node whose MDS holds 2 500 consecutive values.
fn fixture_data_header() -> (Mds, MeasureSummary) {
    (
        Mds::new(vec![run(0, 0..2_500), set(0, &[12, 13]), set(0, &[90_000])]),
        summary(&[5, -7_000_000, 123]),
    )
}

fn fixture_data_node() -> Node {
    let rec = |dims: [u32; 3], measure: i64| {
        Record::new(dims.iter().map(|&i| ValueId::new(0, i)).collect(), measure)
    };
    Node {
        blocks: 1,
        kind: NodeKind::Data(
            vec![
                rec([0, 12, 90_000], 5),
                rec([2_499, 13, 90_000], -7_000_000),
                rec([1_234, 12, 90_000], 123),
            ]
            .into(),
        ),
    }
}

#[rustfmt::skip]
const WAH_DIR_PAGE: [u8; 159] = [
    0x01, 0x01, 0xf8, 0x0f, 0x01, 0x03, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x80, 0x00, 0x00, 0x00, 0x00, 0xe0, 0xff, 0xff, 0x7f, 0x1f, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0x1f, 0xdc, 0x10, 0x00, 0x02, 0x00, 0x07, 0x98, 0x1f, 0x03, 0x03,
    0x00, 0x05, 0x03, 0xbe, 0x01, 0xee, 0xf0, 0x04, 0x03, 0x17, 0x80, 0xf1,
    0x04, 0x02, 0x00, 0x02, 0x01, 0xd0, 0x0f, 0x01, 0x03, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0x00, 0x00, 0xe0, 0xff, 0xff,
    0x7f, 0x1f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0xff, 0xff, 0x1f,
    0x00, 0x00, 0x00, 0x00, 0x00, 0xb4, 0x10, 0x00, 0x01, 0x00, 0x07, 0x03,
    0x02, 0x00, 0x05, 0x03, 0xe8, 0xf0, 0x04, 0x02, 0x17, 0x80, 0xf1, 0x04,
    0x11, 0x01, 0x28, 0x01, 0x01, 0x21, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x80, 0x00, 0x00, 0xe0, 0xff, 0xff, 0xff, 0xff, 0x1f, 0xdc, 0x10, 0x00,
    0x01, 0x00, 0xa0, 0x1f, 0x03, 0x01, 0x00, 0xc8, 0x01, 0x06, 0x01, 0x06,
    0x06, 0xac, 0x02,
];

#[rustfmt::skip]
const WAH_DATA_PAGE: [u8; 79] = [
    0x01, 0x00, 0xc4, 0x13, 0x01, 0x01, 0x27, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0xc0, 0xff, 0xff, 0xff, 0xff, 0xff, 0x07, 0x00, 0x00, 0xc4, 0x13,
    0x00, 0x02, 0x00, 0x0c, 0x00, 0x00, 0x01, 0x00, 0x90, 0xbf, 0x05, 0xff,
    0xbc, 0xd6, 0x06, 0x03, 0xff, 0xbe, 0xd6, 0x06, 0xf6, 0x01, 0x01, 0x01,
    0x03, 0xd0, 0x0f, 0x00, 0x0c, 0x90, 0xbf, 0x05, 0x0a, 0xc7, 0x0f, 0xc3,
    0x13, 0x0d, 0x90, 0xbf, 0x05, 0xff, 0xbe, 0xd6, 0x06, 0xca, 0x0f, 0xd2,
    0x09, 0x0c, 0x90, 0xbf, 0x05, 0xf6, 0x01,
];

#[allow(clippy::type_complexity)]
fn fixtures() -> [(&'static [u8], (Mds, MeasureSummary), Node); 2] {
    [
        (&WAH_DIR_PAGE, fixture_dir_header(), fixture_dir_node()),
        (&WAH_DATA_PAGE, fixture_data_header(), fixture_data_node()),
    ]
}

/// Old pages decode to the nodes they were written from, their headers
/// to the MDS and summary written there; written again, the same nodes
/// take the one set form and the headerless format, and still round-trip.
#[test]
fn pages_with_wah_sets_still_decode() {
    for (page, header, node) in fixtures() {
        assert_eq!(decode_node(page, NUM_DIMS).unwrap(), node);
        assert_eq!(decode_v1_cover(page, NUM_DIMS).unwrap(), header);
        let rewritten = encode_node(&node);
        assert_ne!(rewritten, page, "the encoder no longer writes WAH sets");
        assert_eq!(decode_node(&rewritten, NUM_DIMS).unwrap(), node);
        assert!(
            decode_v1_cover(&rewritten, NUM_DIMS).is_err(),
            "a page of the current format has no header"
        );
    }
}

/// The format-2 encoder's output for [`fixture_data_node`] with record
/// ids 1 000, 4 and 1 001: each record preceded by its id as a zigzag
/// delta from the previous one.
#[rustfmt::skip]
const V2_DATA_PAGE: [u8; 34] = [
    0x02, 0x01, 0x01, 0x03, 0xd0, 0x0f, 0x00, 0x0c, 0x90, 0xbf, 0x05, 0x0a,
    0xc7, 0x0f, 0xc3, 0x13, 0x0d, 0x90, 0xbf, 0x05, 0xff, 0xbe, 0xd6, 0x06,
    0xca, 0x0f, 0xd2, 0x09, 0x0c, 0x90, 0xbf, 0x05, 0xf6, 0x01,
];

/// A format-2 page decodes to its node, the ids read and dropped; written
/// again, the node takes the current format, two bytes shorter per record
/// (each of these id deltas takes two).
#[test]
fn format2_pages_still_decode() {
    let node = fixture_data_node();
    assert_eq!(decode_node(&V2_DATA_PAGE, NUM_DIMS).unwrap(), node);
    let rewritten = encode_node(&node);
    assert_eq!(rewritten[0], FORMAT_NODE);
    assert_eq!(rewritten.len(), V2_DATA_PAGE.len() - 6);
    assert_eq!(decode_node(&rewritten, NUM_DIMS).unwrap(), node);
    for xor in (0..8).map(|bit| 1u8 << bit).chain([0xff]) {
        let pos = first_panicking_flip(&V2_DATA_PAGE, xor);
        assert!(pos.is_none(), "xor {xor:#04x} panicked at byte {pos:?}");
    }
    let bad = first_unchecked_truncation(&V2_DATA_PAGE);
    assert!(bad.is_none(), "truncation at {bad:?} not a Corrupt error");
}

/// The decode-only WAH arm is swept like the encoder's output: every
/// single-bit flip and every inversion of every byte, and every truncation.
#[test]
fn corrupt_wah_pages_are_checked_errors() {
    for (page, _, _) in fixtures() {
        for xor in (0..8).map(|bit| 1u8 << bit).chain([0xff]) {
            let pos = first_panicking_flip(page, xor);
            assert!(pos.is_none(), "xor {xor:#04x} panicked at byte {pos:?}");
        }
        let bad = first_unchecked_truncation(page);
        assert!(bad.is_none(), "truncation at {bad:?} not a Corrupt error");
    }
}

/// The tag-3 bytes of [`fixture_data_node`]: format tag, block count, kind,
/// record count, then each record's three value ids and zigzag measure.
#[rustfmt::skip]
const FORMAT3_DATA_PAGE: [u8; 28] = [
    0x03, 0x01, 0x01, 0x03,
    0x00, 0x0c, 0x90, 0xbf, 0x05, 0x0a,
    0xc3, 0x13, 0x0d, 0x90, 0xbf, 0x05, 0xff, 0xbe, 0xd6, 0x06,
    0xd2, 0x09, 0x0c, 0x90, 0xbf, 0x05, 0xf6, 0x01,
];

/// The tag-3 bytes of [`fixture_dir_node`]: each entry's three dimension
/// sets (level, count, set tag, first index, one gap varint per further
/// value), its zigzag summary and its child handle.
fn format3_dir_page() -> Vec<u8> {
    let mut page = vec![0x03, 0x02, 0x00, 0x02];
    // Entry 1: 2 000 level-1 values from 100, {7}, {5, 9}; sum 39 988 over
    // 2 values, min -12, max 40 000; child 17.
    page.extend([0x01, 0xd0, 0x0f, 0x00, 0x64]);
    page.extend([0x00; 1_999]);
    page.extend([0x00, 0x01, 0x00, 0x07]);
    page.extend([0x03, 0x02, 0x00, 0x05, 0x03]);
    page.extend([0xe8, 0xf0, 0x04, 0x02, 0x17, 0x80, 0xf1, 0x04, 0x11]);
    // Entry 2: 40 level-1 values from 2 100, {4 000}, {200}; the summary of
    // the one value 3; child 300.
    page.extend([0x01, 0x28, 0x00, 0xb4, 0x10]);
    page.extend([0x00; 39]);
    page.extend([0x00, 0x01, 0x00, 0xa0, 0x1f]);
    page.extend([0x03, 0x01, 0x00, 0xc8, 0x01]);
    page.extend([0x06, 0x01, 0x06, 0x06, 0xac, 0x02]);
    page
}

/// The encoder writes the fixture nodes byte for byte as pinned: the page
/// format does not drift under a faster codec.
#[test]
fn format3_pages_are_pinned() {
    assert_eq!(encode_node(&fixture_data_node()), FORMAT3_DATA_PAGE);
    assert_eq!(encode_node(&fixture_dir_node()), format3_dir_page());
    assert_eq!(
        decode_node(&FORMAT3_DATA_PAGE, NUM_DIMS).unwrap(),
        fixture_data_node()
    );
    assert_eq!(
        decode_node(&format3_dir_page(), NUM_DIMS).unwrap(),
        fixture_dir_node()
    );
}

/// Every page of every format the fixtures hold, flipped bit by bit and
/// byte by byte and cut at every length, decodes as the reference decoder
/// decodes it.
#[test]
fn fixture_pages_decode_as_the_reference_decodes_them() {
    let pages: [&[u8]; 5] = [
        &WAH_DIR_PAGE,
        &WAH_DATA_PAGE,
        &V2_DATA_PAGE,
        &FORMAT3_DATA_PAGE,
        &format3_dir_page(),
    ];
    for page in pages {
        for xor in (0..8).map(|bit| 1u8 << bit).chain([0xff]) {
            let bad = first_disagreement(page, xor);
            assert!(bad.is_none(), "decoders disagree on the {bad:?}");
        }
    }
}

/// Targeted corruptions hit the specific checked paths.
#[test]
fn targeted_corruptions_yield_dc_errors() {
    let node = Node {
        blocks: 1,
        kind: NodeKind::Dir(
            vec![DirEntry {
                mds: Mds::new(vec![
                    DimSet::new(1, (0..50).map(|i| ValueId::new(1, i)).collect()),
                    DimSet::new(0, vec![ValueId::new(0, 7)]),
                    DimSet::new(3, (0..2000).map(|i| ValueId::new(3, i * 3)).collect()),
                ]),
                summary: MeasureSummary::of(42),
                child: NodeId::from_raw(9),
            }]
            .into(),
        ),
    };
    let encoded = encode_node(&node);

    // Unknown format tag.
    let mut bad = encoded.clone();
    bad[0] = 0x7f;
    assert!(matches!(
        decode_node(&bad, 3),
        Err(DcError::Corrupt(msg)) if msg.contains("format tag")
    ));

    // Level beyond MAX_LEVEL (bytes 1–3 are the block count, the kind tag
    // and the entry count; byte 4 is the entry's first dimension's level).
    let mut bad = encoded.clone();
    bad[4] = 0xff;
    assert!(matches!(decode_node(&bad, 3), Err(DcError::Corrupt(_))));

    // Empty input.
    assert!(matches!(decode_node(&[], 3), Err(DcError::Corrupt(_))));

    // Wrong dimensionality shears the layout apart: must error, not panic.
    let outcome = catch_unwind(AssertUnwindSafe(|| decode_node(&encoded, 2)));
    assert!(outcome.is_ok(), "wrong num_dims must not panic");
}

/// The node decoder as written over [`ByteReader`], one checked call per
/// byte, before the slice-cursor decoder replaced it. Kept as the oracle
/// the decoder must equal on every page, damaged or not.
mod reference {
    use dc_bitmap::CompressedBitmap;
    use dc_common::id::{MAX_INDEX, MAX_LEVEL};
    use dc_common::{DcError, DcResult, MeasureSummary, ValueId};
    use dc_hierarchy::Record;
    use dc_mds::{DimSet, Mds};
    use dc_storage::ByteReader;
    use dc_tree::node::{DirEntry, Node, NodeId, NodeKind};

    fn get_varint(r: &mut ByteReader) -> DcResult<u64> {
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

    fn get_zigzag(r: &mut ByteReader) -> DcResult<i64> {
        let v = get_varint(r)?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    fn get_bounded_count(r: &mut ByteReader, min_elem: usize) -> DcResult<usize> {
        let n = get_varint(r)?;
        let n = usize::try_from(n).map_err(|_| DcError::Corrupt("count overflow".into()))?;
        if n.saturating_mul(min_elem.max(1)) > r.remaining() {
            return Err(DcError::Corrupt("count exceeds remaining bytes".into()));
        }
        Ok(n)
    }

    fn decode_dimset(r: &mut ByteReader) -> DcResult<DimSet> {
        let level = r.get_u8()?;
        if level > MAX_LEVEL {
            return Err(DcError::Corrupt("level exceeds MAX_LEVEL".into()));
        }
        let count = get_varint(r)?;
        if count > u64::from(MAX_INDEX) + 1 {
            return Err(DcError::Corrupt("cardinality exceeds the domain".into()));
        }
        let count = count as usize;
        if count == 0 {
            return Ok(DimSet::new(level, Vec::new()));
        }
        let mut values;
        match r.get_u8()? {
            0 => {
                if count > r.remaining() {
                    return Err(DcError::Corrupt("count exceeds remaining bytes".into()));
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
                        return Err(DcError::Corrupt("index exceeds MAX_INDEX".into()));
                    }
                    values.push(ValueId::new(level, idx as u32));
                }
            }
            1 => {
                let n_words = get_bounded_count(r, 8)?;
                let mut words = Vec::with_capacity(n_words);
                for _ in 0..n_words {
                    words.push(r.get_u64()?);
                }
                let tail = r.get_u64()?;
                let len = get_varint(r)?;
                let bm = CompressedBitmap::from_parts(words, tail, len, u64::from(MAX_INDEX) + 1)
                    .ok_or_else(|| DcError::Corrupt("inconsistent WAH set".into()))?;
                if bm.count_ones() != count as u64 {
                    return Err(DcError::Corrupt("WAH count mismatch".into()));
                }
                values = Vec::with_capacity(count);
                for idx in bm.iter_ones() {
                    values.push(ValueId::new(level, idx as u32));
                }
            }
            _ => return Err(DcError::Corrupt("bad set tag".into())),
        }
        Ok(DimSet::new(level, values))
    }

    fn decode_cover(r: &mut ByteReader, num_dims: usize) -> DcResult<(Mds, MeasureSummary)> {
        let mut dims = Vec::with_capacity(num_dims);
        for _ in 0..num_dims {
            dims.push(decode_dimset(r)?);
        }
        let summary = MeasureSummary {
            sum: get_zigzag(r)?,
            count: get_varint(r)?,
            min: get_zigzag(r)?,
            max: get_zigzag(r)?,
        };
        Ok((Mds::new(dims), summary))
    }

    pub fn decode_node(bytes: &[u8], num_dims: usize) -> DcResult<Node> {
        let mut r = ByteReader::new(bytes);
        let record_ids = match r.get_u8()? {
            3 => false,
            2 => true,
            1 => {
                decode_cover(&mut r, num_dims)?;
                true
            }
            _ => return Err(DcError::Corrupt("bad node format tag".into())),
        };
        let blocks = get_varint(&mut r)?;
        let blocks =
            u32::try_from(blocks).map_err(|_| DcError::Corrupt("block count overflow".into()))?;
        if blocks == 0 {
            return Err(DcError::Corrupt("node with zero blocks".into()));
        }
        let kind = match r.get_u8()? {
            0 => {
                let n = get_bounded_count(&mut r, 2 * num_dims.max(1) + 5)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let (mds, summary) = decode_cover(&mut r, num_dims)?;
                    let child = get_varint(&mut r)?;
                    let child = u32::try_from(child)
                        .map_err(|_| DcError::Corrupt("child handle overflow".into()))?;
                    entries.push(DirEntry {
                        mds,
                        summary,
                        child: NodeId::from_raw(child),
                    });
                }
                NodeKind::Dir(entries.into())
            }
            1 => {
                let n = get_bounded_count(&mut r, num_dims.max(1) + 1 + usize::from(record_ids))?;
                let mut records = Vec::with_capacity(n);
                for _ in 0..n {
                    if record_ids {
                        get_varint(&mut r)?;
                    }
                    let dims = (0..num_dims)
                        .map(|_| {
                            let raw = get_varint(&mut r)?;
                            u32::try_from(raw)
                                .map(ValueId::from_raw)
                                .map_err(|_| DcError::Corrupt("value id overflow".into()))
                        })
                        .collect::<DcResult<_>>()?;
                    let measure = get_zigzag(&mut r)?;
                    records.push(Record { dims, measure });
                }
                NodeKind::Data(records.into())
            }
            _ => return Err(DcError::Corrupt("bad node kind tag".into())),
        };
        r.expect_end()?;
        Ok(Node { blocks, kind })
    }
}
