//! Property tests: the WAH bitmap against a naive `Vec<bool>` oracle and a
//! flat reference encoder, and the bitmap index against a sequential scan
//! on TPC-D-style cubes.

use dc_bitmap::{BitmapIndex, CompressedBitmap};
use dc_query::{RangeQueryGen, ValuePick};
use dc_storage::BlockConfig;
use dc_tpcd::{generate, TpcdConfig};
use proptest::prelude::*;

/// Strategy: a sorted, deduplicated set of bit positions.
fn positions() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::btree_set(0u64..5_000, 0..200).prop_map(|s| s.into_iter().collect())
}

fn build(pos: &[u64]) -> CompressedBitmap {
    let mut b = CompressedBitmap::new();
    for &p in pos {
        b.set(p);
    }
    b
}

/// Strategy: runs of positions long enough to seal several chunks —
/// sparse bits (a literal and a zero-fill each), near-adjacent bits, and
/// dense runs (one-fills), so fills coalesce across chunk boundaries too.
fn chunked_runs() -> impl Strategy<Value = Vec<Vec<u64>>> {
    let step = (
        prop_oneof![0u64..3, 60u64..70, 126u64..3_000],
        prop_oneof![4 => 1u64..2, 1 => 60u64..200],
    );
    prop::collection::vec(step, 600..900).prop_map(|steps| {
        let mut cursor = 0u64;
        steps
            .into_iter()
            .map(|(gap, run)| {
                cursor += gap + run;
                (cursor - run..cursor).collect()
            })
            .collect()
    })
}

/// The flat WAH encoder the chunked one must match word for word: one
/// `Vec` of words, coalescing a fill into the preceding fill of the same
/// bit.
#[derive(Default)]
struct FlatWah {
    words: Vec<u64>,
    groups: u64,
    tail: u64,
    len: u64,
}

impl FlatWah {
    const FILL: u64 = 1 << 63;
    const ONES: u64 = 1 << 62;
    const COUNT: u64 = (1 << 62) - 1;

    fn push_fill(&mut self, bit: bool, count: u64) {
        let flag = if bit {
            Self::FILL | Self::ONES
        } else {
            Self::FILL
        };
        match self.words.last_mut() {
            Some(last)
                if *last & (Self::FILL | Self::ONES) == flag
                    && (*last & Self::COUNT) + count <= Self::COUNT =>
            {
                *last += count
            }
            _ => self.words.push(flag | count),
        }
        self.groups += count;
    }

    fn set(&mut self, pos: u64) {
        let group = pos / 63;
        if group > self.groups {
            if self.len > self.groups * 63 || self.tail != 0 {
                match std::mem::take(&mut self.tail) {
                    0 => self.push_fill(false, 1),
                    t if t == (1 << 63) - 1 => self.push_fill(true, 1),
                    t => {
                        self.words.push(t);
                        self.groups += 1;
                    }
                }
            }
            if group > self.groups {
                self.push_fill(false, group - self.groups);
            }
        }
        self.tail |= 1 << (pos % 63);
        self.len = pos + 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// set → iter_ones is the identity on sorted position sets.
    #[test]
    fn roundtrip(pos in positions()) {
        let b = build(&pos);
        prop_assert_eq!(b.iter_ones().collect::<Vec<_>>(), pos);
        prop_assert_eq!(b.count_ones() as usize, pos.len());
    }

    /// OR and AND agree with set union and intersection.
    #[test]
    fn or_and_match_set_algebra(a in positions(), b in positions()) {
        let ba = build(&a);
        let bb = build(&b);
        let sa: std::collections::BTreeSet<u64> = a.iter().copied().collect();
        let sb: std::collections::BTreeSet<u64> = b.iter().copied().collect();
        let union: Vec<u64> = sa.union(&sb).copied().collect();
        let inter: Vec<u64> = sa.intersection(&sb).copied().collect();
        prop_assert_eq!(ba.or(&bb).iter_ones().collect::<Vec<_>>(), union);
        prop_assert_eq!(ba.and(&bb).iter_ones().collect::<Vec<_>>(), inter);
    }

    /// Operations compose: (a ∪ b) ∩ c computed via bitmaps equals sets.
    #[test]
    fn composition(a in positions(), b in positions(), c in positions()) {
        let (ba, bb, bc) = (build(&a), build(&b), build(&c));
        let sa: std::collections::BTreeSet<u64> = a.iter().copied().collect();
        let sb: std::collections::BTreeSet<u64> = b.iter().copied().collect();
        let sc: std::collections::BTreeSet<u64> = c.iter().copied().collect();
        let expected: Vec<u64> =
            sa.union(&sb).copied().collect::<std::collections::BTreeSet<_>>()
                .intersection(&sc)
                .copied()
                .collect();
        prop_assert_eq!(
            ba.or(&bb).and(&bc).iter_ones().collect::<Vec<_>>(),
            expected
        );
    }

    /// Compression never loses bits on adversarial run structures
    /// (alternating dense runs and long gaps).
    #[test]
    fn dense_runs_and_gaps(runs in prop::collection::vec((0u64..50, 1u64..200), 1..20)) {
        let mut pos = Vec::new();
        let mut cursor = 0u64;
        for (gap, run) in runs {
            cursor += gap * 63;
            for _ in 0..run {
                pos.push(cursor);
                cursor += 1;
            }
        }
        let b = build(&pos);
        prop_assert_eq!(b.iter_ones().collect::<Vec<_>>(), pos);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 24 } else { 256 }))]

    /// Across several sealed chunks, with clones taken along the way: the
    /// encoding matches the flat encoder word for word, every clone still
    /// reads what it held when it was taken, and the parts round-trip.
    #[test]
    fn sealed_chunks_match_the_flat_encoder_and_clones_keep_their_bits(
        runs in chunked_runs(),
        clone_every in 4usize..64,
    ) {
        let mut b = CompressedBitmap::new();
        let mut flat = FlatWah::default();
        let mut pos = Vec::new();
        let mut clones = Vec::new();
        for (i, run) in runs.iter().enumerate() {
            for &p in run {
                b.set(p);
                flat.set(p);
            }
            pos.extend_from_slice(run);
            if i % clone_every == 0 {
                clones.push((b.clone(), pos.len()));
            }
        }
        // 3 sealed chunks need at least 4 chunks' worth of words.
        prop_assert!(flat.words.len() >= 4 * 64, "only {} words", flat.words.len());

        let (words, tail, len) = b.to_parts();
        prop_assert_eq!(&words[..], &flat.words[..]);
        prop_assert_eq!((tail, len), (flat.tail, flat.len));
        prop_assert_eq!(b.size_in_bytes(), flat.words.len() * 8 + 24);
        prop_assert_eq!(b.count_ones() as usize, pos.len());

        let back = CompressedBitmap::from_parts(words.into_owned(), tail, len, u64::MAX).unwrap();
        prop_assert_eq!(&back, &b);
        prop_assert!(back.iter_ones().eq(pos.iter().copied()));

        for (snap, n) in &clones {
            prop_assert!(snap.iter_ones().eq(pos[..*n].iter().copied()));
        }
        // A bitmap rebuilt from parts keeps appending like the original.
        let mut grown = back;
        let next = len + 1_000;
        grown.set(next);
        b.set(next);
        prop_assert_eq!(grown, b);
    }
}

#[test]
fn bitmap_index_agrees_with_brute_force_on_tpcd() {
    let data = generate(&TpcdConfig::scaled(2_000, 5));
    let mut idx = BitmapIndex::new(&data.schema, BlockConfig::DEFAULT);
    for r in &data.records {
        idx.insert(&data.schema, r).unwrap();
    }
    for (sel, seed) in [(0.01, 1u64), (0.05, 2), (0.25, 3)] {
        let mut gen = RangeQueryGen::new(sel, ValuePick::ContiguousRun, seed);
        for _ in 0..40 {
            let q = gen.generate(&data.schema);
            let got = idx.range_summary(&data.schema, &q).unwrap();
            let want: dc_common::MeasureSummary = data
                .records
                .iter()
                .filter(|r| q.contains_record(&data.schema, r).unwrap())
                .map(|r| r.measure)
                .collect();
            assert_eq!(got, want, "selectivity {sel}");
        }
    }
}

#[test]
fn bitmap_index_handles_scattered_queries() {
    let data = generate(&TpcdConfig::scaled(1_500, 7));
    let mut idx = BitmapIndex::new(&data.schema, BlockConfig::DEFAULT);
    for r in &data.records {
        idx.insert(&data.schema, r).unwrap();
    }
    let mut gen = RangeQueryGen::new(0.10, ValuePick::Scattered, 9);
    for _ in 0..30 {
        let q = gen.generate(&data.schema);
        let got = idx.range_summary(&data.schema, &q).unwrap();
        let want: dc_common::MeasureSummary = data
            .records
            .iter()
            .filter(|r| q.contains_record(&data.schema, r).unwrap())
            .map(|r| r.measure)
            .collect();
        assert_eq!(got, want);
    }
}

#[test]
fn deletes_interleave_with_queries() {
    let data = generate(&TpcdConfig::scaled(600, 11));
    let mut idx = BitmapIndex::new(&data.schema, BlockConfig::DEFAULT);
    for r in &data.records {
        idx.insert(&data.schema, r).unwrap();
    }
    let mut live: Vec<_> = data.records.clone();
    for i in (0..data.records.len()).step_by(3) {
        assert!(idx.delete(&data.schema, &data.records[i]).unwrap());
        let pos = live.iter().position(|r| r == &data.records[i]).unwrap();
        live.remove(pos);
    }
    let mut gen = RangeQueryGen::new(0.25, ValuePick::ContiguousRun, 13);
    for _ in 0..20 {
        let q = gen.generate(&data.schema);
        let got = idx.range_summary(&data.schema, &q).unwrap();
        let want: dc_common::MeasureSummary = live
            .iter()
            .filter(|r| q.contains_record(&data.schema, r).unwrap())
            .map(|r| r.measure)
            .collect();
        assert_eq!(got, want);
    }
}

#[test]
fn compressed_size_stays_reasonable() {
    let data = generate(&TpcdConfig::scaled(5_000, 17));
    let mut idx = BitmapIndex::new(&data.schema, BlockConfig::DEFAULT);
    for r in &data.records {
        idx.insert(&data.schema, r).unwrap();
    }
    // 13 bitmap families over 5k records: compressed size must stay far
    // below the uncompressed total (#values × 5000 bits).
    let bytes = idx.bitmap_bytes();
    assert!(bytes < 4 << 20, "compressed index too large: {bytes} bytes");
}

#[test]
fn running_bitmap_bytes_equals_the_walked_sum() {
    use rand::{Rng, SeedableRng};
    let data = generate(&TpcdConfig::scaled(3_000, 23));
    let schema = &data.schema;
    let mut idx = BitmapIndex::new(schema, BlockConfig::DEFAULT);
    let mut rng = rand::rngs::StdRng::seed_from_u64(29);
    let mut inserted = Vec::new();
    for r in &data.records {
        idx.insert(schema, r).unwrap();
        inserted.push(r);
        if rng.gen_bool(0.2) {
            let victim = inserted[rng.gen_range(0..inserted.len())];
            idx.delete(schema, victim).unwrap();
        }
    }
    let walked: usize = schema
        .dims()
        .enumerate()
        .flat_map(|(d, h)| {
            (0..h.top_level()).flat_map(move |level| {
                h.values_at(level)
                    .map(move |v| (dc_common::DimensionId(d as u16), v))
            })
        })
        .filter_map(|(dim, v)| idx.bitmap_for(dim, v))
        .map(CompressedBitmap::size_in_bytes)
        .sum();
    assert!(walked > 0);
    assert_eq!(idx.bitmap_bytes(), walked);
}
