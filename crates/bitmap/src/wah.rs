//! Word-aligned-hybrid (WAH-style) compressed bitmaps.
//!
//! The encoding uses 64-bit words of two kinds:
//! * **literal** (MSB = 0): 63 payload bits verbatim;
//! * **fill** (MSB = 1): bit 62 is the fill bit, the low 62 bits count how
//!   many consecutive 63-bit groups consist entirely of that bit.
//!
//! Warehouse bitmaps are extremely sparse (each record sets one bit per
//! attribute), so zero-fills dominate and the index stays small. Bitmaps
//! are append-only (bits are set in increasing record order — exactly how
//! an index ingests records) and support the two bulk operations a bitmap
//! index needs: OR (within a dimension) and AND (across dimensions), plus
//! iteration over set bits.

use std::borrow::Cow;
use std::sync::Arc;

const GROUP: u64 = 63;
const FILL_FLAG: u64 = 1 << 63;
const FILL_BIT: u64 = 1 << 62;
const COUNT_MASK: u64 = (1 << 62) - 1;
/// Words per sealed chunk.
pub(crate) const CHUNK_WORDS: usize = 64;

/// A WAH-style compressed bitmap.
///
/// The encoded words are held as sealed chunks of `CHUNK_WORDS` words,
/// each behind its own `Arc` and listed in one shared `Arc` slice,
/// followed by an owned open part: a `clone` copies one pointer plus the
/// open part, and an append writes only the open part (sealing a chunk
/// relists the chunk pointers, once per `CHUNK_WORDS` words). [`Self::set`] seals a chunk once the open
/// part holds two of them, so the open part of an appended-to bitmap stays
/// under two chunks, the last word — the one fill coalescing rewrites — is
/// always open, and the word sequence is exactly the one a flat encoder
/// would produce. Merge results and decoded parts, which are read rather
/// than appended to, keep all their words open until their next `set`.
///
/// Equality compares that word sequence (and the tail and length), not the
/// chunk layout; logically equal bitmaps with different flush states
/// compare unequal — compare `iter_ones()` streams for logical equality.
#[derive(Default, Debug)]
pub struct CompressedBitmap {
    /// Immutable full chunks, shared by every clone (and the list of them
    /// too, until the next seal).
    sealed: Arc<[Arc<[u64]>]>,
    /// The words after the sealed chunks.
    open: Vec<u64>,
    /// Number of 63-bit groups encoded in the words.
    groups: u64,
    /// Pending (not yet flushed) literal group.
    tail: u64,
    /// Number of bits in the logical bitmap (set via `set`/`push_group`).
    len: u64,
}

impl Clone for CompressedBitmap {
    /// Shares the sealed chunks and copies the open part, with room for
    /// the word or two the next `set` appends (a bitmap is cloned to be
    /// written to: `Arc::make_mut` after a publish).
    fn clone(&self) -> Self {
        let mut open = Vec::with_capacity(self.open.len() + 2);
        open.extend_from_slice(&self.open);
        CompressedBitmap {
            sealed: self.sealed.clone(),
            open,
            groups: self.groups,
            tail: self.tail,
            len: self.len,
        }
    }
}

impl PartialEq for CompressedBitmap {
    fn eq(&self, other: &Self) -> bool {
        (self.groups, self.tail, self.len) == (other.groups, other.tail, other.len)
            && self.num_words() == other.num_words()
            && self.words().eq(other.words())
    }
}

impl Eq for CompressedBitmap {}

impl CompressedBitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Logical length in bits (highest position passed to [`Self::set`],
    /// plus one; unset trailing bits are implicit zeros).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` iff no bit was ever set or skipped over.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap footprint of the compressed representation, in bytes.
    pub fn size_in_bytes(&self) -> usize {
        self.num_words() * 8 + 8 * 3
    }

    fn num_words(&self) -> usize {
        self.sealed.len() * CHUNK_WORDS + self.open.len()
    }

    /// The encoded words in order: sealed chunks, then the open part.
    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        self.sealed
            .iter()
            .flat_map(|c| c.iter())
            .chain(&self.open)
            .copied()
    }

    /// Chunk `i` of the word sequence; index `sealed.len()` is the open
    /// part.
    fn chunk(&self, i: usize) -> Option<&[u64]> {
        match self.sealed.get(i) {
            Some(c) => Some(c),
            None => (i == self.sealed.len()).then_some(&self.open[..]),
        }
    }

    /// Seals leading chunks of the open part until it holds under two.
    fn seal(&mut self) {
        let full = self.open.len().saturating_sub(CHUNK_WORDS) / CHUNK_WORDS;
        if full > 0 {
            let words = full * CHUNK_WORDS;
            let chunks = self.open[..words].chunks_exact(CHUNK_WORDS);
            self.sealed = self
                .sealed
                .iter()
                .cloned()
                .chain(chunks.map(Arc::from))
                .collect();
            self.open.drain(..words);
        }
    }

    fn push_fill(&mut self, bit: bool, count: u64) {
        if count == 0 {
            return;
        }
        // Coalesce with a preceding fill of the same bit.
        if let Some(last) = self.open.last_mut() {
            let same = *last & FILL_FLAG != 0
                && ((*last & FILL_BIT != 0) == bit)
                && (*last & COUNT_MASK) + count <= COUNT_MASK;
            if same {
                *last += count;
                self.groups += count;
                return;
            }
        }
        let mut w = FILL_FLAG | count;
        if bit {
            w |= FILL_BIT;
        }
        self.open.push(w);
        self.groups += count;
    }

    fn push_literal(&mut self, payload: u64) {
        debug_assert_eq!(payload & !((1 << GROUP) - 1), 0);
        if payload == 0 {
            self.push_fill(false, 1);
        } else if payload == (1 << GROUP) - 1 {
            self.push_fill(true, 1);
        } else {
            self.open.push(payload);
            self.groups += 1;
        }
    }

    /// Sets bit `pos`. Positions must be strictly increasing across calls —
    /// the append-only discipline of index construction.
    ///
    /// # Panics
    /// Panics if `pos` is not beyond every previously set bit.
    pub fn set(&mut self, pos: u64) {
        assert!(
            pos >= self.len,
            "bits must be set in increasing order ({pos} < {})",
            self.len
        );
        let group = pos / GROUP;
        assert!(
            group >= self.groups,
            "append-only: group {group} already flushed (merged bitmaps are read-only)"
        );
        // The tail accumulates group index `self.groups`; everything below
        // is flushed. Entering a later group flushes the tail and zero-fills
        // any wholly skipped groups.
        if group > self.groups {
            if self.len > self.groups * GROUP || self.tail != 0 {
                let tail = self.tail;
                self.tail = 0;
                self.push_literal(tail);
            }
            if group > self.groups {
                let skipped = group - self.groups;
                self.push_fill(false, skipped);
            }
            self.seal();
        }
        debug_assert_eq!(group, self.groups, "tail now accumulates this group");
        self.tail |= 1 << (pos % GROUP);
        self.len = pos + 1;
    }

    /// Extends the logical length to `len` bits without setting anything.
    pub fn pad_to(&mut self, len: u64) {
        if len > self.len {
            self.len = len;
        }
    }

    /// Iterates over the positions of set bits, in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = u64> + '_ {
        OnesIter {
            cursor: GroupCursor::new(self),
            group: 0,
            payload: 0,
            base: 0,
        }
    }

    /// Bitwise OR. Lengths may differ; the result has the longer length.
    pub fn or(&self, other: &Self) -> Self {
        merge(self, other, |a, b| a | b)
    }

    /// Bitwise AND. The result has the longer length (all-zero beyond the
    /// shorter operand).
    pub fn and(&self, other: &Self) -> Self {
        merge(self, other, |a, b| a & b)
    }

    /// The raw encoded parts `(words, tail, len)` for persistence. Feed
    /// them back through [`Self::from_parts`] to reconstruct the bitmap.
    /// The words are borrowed while they all sit in the open part and
    /// concatenated otherwise.
    pub fn to_parts(&self) -> (Cow<'_, [u64]>, u64, u64) {
        let words = if self.sealed.is_empty() {
            Cow::Borrowed(&self.open[..])
        } else {
            Cow::Owned(self.words().collect())
        };
        (words, self.tail, self.len)
    }

    /// Reassembles a bitmap from persisted parts, validating the encoding
    /// (this is the disk-decode path, so the input is untrusted). `max_len`
    /// bounds the logical length — callers know their domain size, and the
    /// bound keeps a corrupt fill count from turning `iter_ones` into an
    /// effectively unbounded loop. Returns `None` on any inconsistency.
    pub fn from_parts(words: Vec<u64>, tail: u64, len: u64, max_len: u64) -> Option<Self> {
        if len > max_len || tail & FILL_FLAG != 0 {
            return None;
        }
        let mut groups: u64 = 0;
        for &w in &words {
            if w & FILL_FLAG != 0 {
                let count = w & COUNT_MASK;
                if count == 0 {
                    return None; // the encoder never writes empty fills
                }
                groups = groups.checked_add(count)?;
            } else {
                groups = groups.checked_add(1)?;
            }
            // Flushed groups may extend at most one group past `len`
            // (see `merge`), so anything beyond that is corrupt.
            if groups > len / GROUP + 1 {
                return None;
            }
        }
        if tail != 0 && len <= groups * GROUP {
            return None; // a tail the cursor would never surface
        }
        Some(CompressedBitmap {
            sealed: Arc::default(),
            open: words,
            groups,
            tail,
            len,
        })
    }

    /// Words of `self` that `other` (an earlier clone, if any) does not
    /// share: the open part plus every sealed chunk not pointer-equal to
    /// `other`'s.
    #[cfg(test)]
    pub(crate) fn unshared_words(&self, other: Option<&Self>) -> usize {
        let shared = |i: usize| {
            other
                .and_then(|o| o.sealed.get(i))
                .is_some_and(|c| Arc::ptr_eq(c, &self.sealed[i]))
        };
        let sealed = (0..self.sealed.len()).filter(|&i| !shared(i)).count();
        sealed * CHUNK_WORDS + self.open.len()
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        let mut n = 0;
        for w in self.words() {
            if w & FILL_FLAG != 0 {
                if w & FILL_BIT != 0 {
                    n += (w & COUNT_MASK) * GROUP;
                }
            } else {
                n += w.count_ones() as u64;
            }
        }
        n + self.tail.count_ones() as u64
    }
}

/// Decodes a bitmap group by group (63-bit payloads).
struct GroupCursor<'a> {
    bitmap: &'a CompressedBitmap,
    /// The chunk being read and the index of the next one.
    words: &'a [u64],
    next_chunk: usize,
    /// Groups remaining in the current fill word.
    fill_left: u64,
    fill_payload: u64,
    tail_done: bool,
}

impl<'a> GroupCursor<'a> {
    fn new(bitmap: &'a CompressedBitmap) -> Self {
        GroupCursor {
            bitmap,
            words: &[],
            next_chunk: 0,
            fill_left: 0,
            fill_payload: 0,
            tail_done: false,
        }
    }

    fn next_word(&mut self) -> Option<u64> {
        loop {
            if let Some((&w, rest)) = self.words.split_first() {
                self.words = rest;
                return Some(w);
            }
            self.words = self.bitmap.chunk(self.next_chunk)?;
            self.next_chunk += 1;
        }
    }

    /// Next 63-bit group payload, or `None` past the end (the caller pads
    /// with zeros as needed).
    fn next_group(&mut self) -> Option<u64> {
        if self.fill_left > 0 {
            self.fill_left -= 1;
            return Some(self.fill_payload);
        }
        if let Some(w) = self.next_word() {
            if w & FILL_FLAG != 0 {
                let payload = if w & FILL_BIT != 0 {
                    (1 << GROUP) - 1
                } else {
                    0
                };
                let count = w & COUNT_MASK;
                self.fill_left = count - 1;
                self.fill_payload = payload;
                return Some(payload);
            }
            return Some(w);
        }
        if !self.tail_done {
            self.tail_done = true;
            // The tail is only meaningful if the logical length extends
            // beyond the flushed groups.
            if self.bitmap.len > self.bitmap.groups * GROUP {
                return Some(self.bitmap.tail);
            }
        }
        None
    }
}

fn merge(a: &CompressedBitmap, b: &CompressedBitmap, op: fn(u64, u64) -> u64) -> CompressedBitmap {
    let mut out = CompressedBitmap::new();
    let mut ca = GroupCursor::new(a);
    let mut cb = GroupCursor::new(b);
    loop {
        let ga = ca.next_group();
        let gb = cb.next_group();
        if ga.is_none() && gb.is_none() {
            break;
        }
        out.push_literal(op(ga.unwrap_or(0), gb.unwrap_or(0)));
    }
    // All groups are flushed (tail stays empty); the logical length is the
    // longer operand's. Flushed groups may extend slightly past it, but
    // only with zero bits (operand tails never carry bits beyond `len`).
    out.len = a.len.max(b.len);
    out
}

struct OnesIter<'a> {
    cursor: GroupCursor<'a>,
    /// Index of the group currently held in `payload`.
    group: u64,
    /// Remaining unemitted bits of the current group.
    payload: u64,
    /// Bit position of the current group's first bit.
    base: u64,
}

impl Iterator for OnesIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            if self.payload != 0 {
                let bit = self.payload.trailing_zeros() as u64;
                self.payload &= self.payload - 1;
                return Some(self.base + bit);
            }
            let g = self.cursor.next_group()?;
            self.base = self.group * GROUP;
            self.group += 1;
            self.payload = g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_positions(pos: &[u64]) -> CompressedBitmap {
        let mut b = CompressedBitmap::new();
        for &p in pos {
            b.set(p);
        }
        b
    }

    #[test]
    fn set_and_iterate_roundtrip() {
        let pos = [0u64, 1, 62, 63, 64, 126, 1000, 1001, 100_000];
        let b = from_positions(&pos);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), pos);
        assert_eq!(b.count_ones(), pos.len() as u64);
        assert_eq!(b.len(), 100_001);
    }

    #[test]
    fn parts_roundtrip_preserves_encoding() {
        for pos in [
            &[0u64, 5, 63, 200][..],
            &[][..],
            &[62, 63][..],
            &[100_000][..],
        ] {
            let b = from_positions(pos);
            let (words, tail, len) = b.to_parts();
            let back = CompressedBitmap::from_parts(words.to_vec(), tail, len, 1 << 32)
                .expect("valid parts reassemble");
            assert_eq!(back, b, "structural equality for {pos:?}");
            assert_eq!(back.iter_ones().collect::<Vec<_>>(), pos);
        }
    }

    #[test]
    fn corrupt_parts_are_rejected() {
        // A zero-count fill word never comes from the encoder.
        assert!(CompressedBitmap::from_parts(vec![FILL_FLAG], 0, 63, 1 << 32).is_none());
        // Fill count extending far past the declared length.
        assert!(CompressedBitmap::from_parts(
            vec![FILL_FLAG | FILL_BIT | 1_000_000],
            0,
            63,
            1 << 32
        )
        .is_none());
        // Length beyond the caller's domain bound.
        assert!(CompressedBitmap::from_parts(vec![], 0, u64::MAX, 1 << 32).is_none());
        // Tail with the fill flag set is not a 63-bit payload.
        assert!(CompressedBitmap::from_parts(vec![], FILL_FLAG | 1, 64, 1 << 32).is_none());
        // A non-zero tail the group cursor would never surface.
        assert!(CompressedBitmap::from_parts(vec![0b1010], 1, 63, 1 << 32).is_none());
    }

    #[test]
    fn sparse_bitmaps_compress_well() {
        let mut b = CompressedBitmap::new();
        for i in 0..100 {
            b.set(i * 1_000_000);
        }
        // 100 M bits sparse: far below 1 KiB compressed.
        assert!(b.size_in_bytes() < 8_192, "{} bytes", b.size_in_bytes());
        assert_eq!(b.count_ones(), 100);
    }

    #[test]
    fn dense_runs_become_fills() {
        let mut b = CompressedBitmap::new();
        for i in 0..63 * 10 {
            b.set(i);
        }
        assert_eq!(b.count_ones(), 630);
        // Ten full groups coalesce into one fill word (plus bookkeeping).
        assert!(
            b.size_in_bytes() <= 8 * 2 + 24,
            "{} bytes",
            b.size_in_bytes()
        );
        assert_eq!(b.iter_ones().count(), 630);
    }

    #[test]
    fn or_unions_and_and_intersects() {
        let a = from_positions(&[1, 5, 100, 200]);
        let b = from_positions(&[5, 100, 300, 5000]);
        let or: Vec<u64> = a.or(&b).iter_ones().collect();
        assert_eq!(or, vec![1, 5, 100, 200, 300, 5000]);
        let and: Vec<u64> = a.and(&b).iter_ones().collect();
        assert_eq!(and, vec![5, 100]);
        assert_eq!(a.or(&b).len(), 5001);
    }

    #[test]
    fn operations_with_empty() {
        let a = from_positions(&[7, 70]);
        let e = CompressedBitmap::new();
        // Logical (not structural) equality: a merge flushes the tail, so
        // the representation may differ while the bit set is identical.
        assert_eq!(
            a.or(&e).iter_ones().collect::<Vec<_>>(),
            a.iter_ones().collect::<Vec<_>>()
        );
        assert_eq!(a.or(&e).len(), a.len());
        assert_eq!(a.and(&e).count_ones(), 0);
        assert_eq!(e.or(&e).count_ones(), 0);
    }

    #[test]
    fn out_of_order_set_panics() {
        let mut b = from_positions(&[10]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.set(5)));
        assert!(result.is_err());
    }

    #[test]
    fn merge_results_are_composable() {
        let a = from_positions(&[0, 64, 128]);
        let b = from_positions(&[64, 129]);
        let c = from_positions(&[0, 129, 10_000]);
        let u = a.or(&b).or(&c);
        assert_eq!(
            u.iter_ones().collect::<Vec<_>>(),
            vec![0, 64, 128, 129, 10_000]
        );
        let i = a.or(&b).and(&c);
        assert_eq!(i.iter_ones().collect::<Vec<_>>(), vec![0, 129]);
    }

    #[test]
    fn pad_to_extends_length_only() {
        let mut b = from_positions(&[3]);
        b.pad_to(1_000);
        assert_eq!(b.len(), 1_000);
        assert_eq!(b.count_ones(), 1);
        // Still appendable past the pad.
        b.set(2_000);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![3, 2_000]);
    }
}
