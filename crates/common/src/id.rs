//! Attribute-value identifiers.
//!
//! The DC-tree paper (§3.1) represents every attribute value of a concept
//! hierarchy by a 32-bit integer whose *highest four bits* encode the
//! hierarchy level of the value, "to distinguish IDs from different levels".
//! The remaining 28 bits are a sequence number assigned in insertion order
//! within one (dimension, level) pair — that insertion order is exactly the
//! total ordering the paper later uses to map MDSs onto X-tree MBRs (§5.2).

use std::fmt;

/// Number of bits reserved for the hierarchy level (the paper uses the
/// "highest four bits" of the 32-bit ID).
pub const LEVEL_BITS: u32 = 4;
/// Number of bits available for the per-level sequence number.
pub const INDEX_BITS: u32 = 32 - LEVEL_BITS;
/// Maximum representable hierarchy level (inclusive).
pub const MAX_LEVEL: u8 = (1 << LEVEL_BITS) - 1;
/// Maximum representable per-level index (inclusive).
pub const MAX_INDEX: u32 = (1 << INDEX_BITS) - 1;

/// A hierarchy level. Leaves are level `0` (Definition 1: "the leaves have a
/// hierarchy level of 0"); the root `ALL` sits at the top level of its
/// dimension.
pub type Level = u8;

/// A 32-bit attribute-value identifier: 4 level bits + 28 index bits.
///
/// `ValueId`s are only meaningful relative to the [`ConceptHierarchy`] of one
/// dimension; comparing IDs from different dimensions is a logic error that
/// the higher layers guard against.
///
/// The derived `Ord` orders first by level (because the level occupies the
/// high bits) and then by insertion order within the level. Within a single
/// level — the only situation in which the DC-tree compares IDs — this *is*
/// the paper's artificial total order.
///
/// [`ConceptHierarchy`]: https://docs.rs/dc-hierarchy
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValueId(u32);

impl ValueId {
    /// Builds an ID from a level and a per-level index.
    ///
    /// # Panics
    /// Panics if `index` does not fit in 28 bits (more than ~268 M values on
    /// one hierarchy level) — a capacity the paper's 4-byte encoding shares.
    #[inline]
    pub fn new(level: Level, index: u32) -> Self {
        assert!(
            level <= MAX_LEVEL,
            "hierarchy level {level} exceeds 4-bit encoding"
        );
        assert!(
            index <= MAX_INDEX,
            "per-level index {index} exceeds 28-bit encoding"
        );
        ValueId(((level as u32) << INDEX_BITS) | index)
    }

    /// The hierarchy level encoded in the high four bits.
    #[inline]
    pub fn level(self) -> Level {
        (self.0 >> INDEX_BITS) as Level
    }

    /// The per-(dimension, level) sequence number.
    #[inline]
    pub fn index(self) -> u32 {
        self.0 & MAX_INDEX
    }

    /// The raw 32-bit representation (used by the storage codec and as the
    /// X-tree coordinate in the MDS→MBR conversion of §5.2).
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds an ID from its raw representation.
    #[inline]
    pub fn from_raw(raw: u32) -> Self {
        ValueId(raw)
    }
}

impl fmt::Debug for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}@L{}", self.index(), self.level())
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Index of a dimension within a data cube (0-based).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DimensionId(pub u16);

impl DimensionId {
    /// The dimension index as a `usize`, for slice addressing.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DimensionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dim{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_level_and_index() {
        for level in [0u8, 1, 7, 15] {
            for index in [0u32, 1, 12345, MAX_INDEX] {
                let id = ValueId::new(level, index);
                assert_eq!(id.level(), level);
                assert_eq!(id.index(), index);
                assert_eq!(ValueId::from_raw(id.raw()), id);
            }
        }
    }

    #[test]
    fn ordering_within_level_follows_insertion_order() {
        let a = ValueId::new(2, 10);
        let b = ValueId::new(2, 11);
        assert!(a < b);
    }

    #[test]
    fn level_occupies_high_bits() {
        // An ID on a higher level always compares greater than any ID on a
        // lower level — the encoding "distinguish[es] IDs from different
        // levels" structurally.
        let low = ValueId::new(1, MAX_INDEX);
        let high = ValueId::new(2, 0);
        assert!(low < high);
    }

    #[test]
    #[should_panic(expected = "exceeds 4-bit")]
    fn level_overflow_panics() {
        let _ = ValueId::new(16, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds 28-bit")]
    fn index_overflow_panics() {
        let _ = ValueId::new(0, MAX_INDEX + 1);
    }

    #[test]
    fn debug_format_is_compact() {
        assert_eq!(format!("{:?}", ValueId::new(3, 42)), "v42@L3");
    }
}
