//! Short [`ValueId`] sequences stored inline: a record's coordinates, one
//! dimension's value set in an MDS.

use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

use dc_common::ValueId;

/// A short sequence of [`ValueId`]s of which up to `N` live **inside** the
/// value instead of behind a pointer; longer ones spill to a boxed slice
/// and work unchanged.
///
/// Behaves as the slice it derefs to (`Eq`/`Ord`/`Hash`/`Debug` are the
/// slice's). It exists so that a DC-tree node is a disk block in memory
/// too: the paper's node holds its records (and a directory entry its MDS)
/// *in* the block, and a node built of `Vec`s is instead a hundred to a
/// thousand heap fragments — one per record, five per directory entry —
/// scattered in the order the tree happened to grow. With the ids inline a
/// node is a few allocations, copying it is a `memcpy`, decoding a page
/// allocates per node rather than per member, and a tree grown record by
/// record reads like one freshly loaded.
#[derive(Clone)]
pub struct IdVec<const N: usize>(Repr<N>);

/// Leaf-level [`ValueId`]s of one record, one per dimension. Five 4-byte
/// ids plus the length fit the 24 bytes a `Vec` header occupied, so a
/// [`Record`](crate::Record) is 32 bytes with nothing behind it — and so is
/// a member of a DC-tree data node, which is the record itself.
pub type Dims = IdVec<5>;

#[derive(Clone)]
enum Repr<const N: usize> {
    Inline { len: u8, buf: [ValueId; N] },
    Spilled(Box<[ValueId]>),
}

impl<const N: usize> IdVec<N> {
    /// How many ids are stored without a heap allocation (the inline
    /// length is a byte).
    pub const INLINE: usize = {
        assert!(N <= u8::MAX as usize);
        N
    };

    /// What unused inline cells hold; never observable (every accessor
    /// goes through the `len`-bounded slice).
    #[inline]
    fn blank() -> [ValueId; N] {
        [ValueId::from_raw(0); N]
    }

    /// Inserts `value` at `index`, shifting what follows — in place while
    /// the sequence stays within the inline capacity.
    ///
    /// # Panics
    /// Panics if `index > len`.
    pub fn insert(&mut self, index: usize, value: ValueId) {
        if let Repr::Inline { len, buf } = &mut self.0 {
            let n = usize::from(*len);
            if n < N {
                buf.copy_within(index..n, index + 1);
                buf[index] = value;
                *len += 1;
                return;
            }
        }
        let mut values = Vec::with_capacity(self.len() + 1);
        values.extend_from_slice(&self[..index]);
        values.push(value);
        values.extend_from_slice(&self[index..]);
        self.0 = Repr::Spilled(values.into_boxed_slice());
    }
}

impl<const N: usize> Deref for IdVec<N> {
    type Target = [ValueId];

    #[inline]
    fn deref(&self) -> &[ValueId] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Spilled(values) => values,
        }
    }
}

impl<const N: usize> DerefMut for IdVec<N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [ValueId] {
        match &mut self.0 {
            Repr::Inline { len, buf } => &mut buf[..usize::from(*len)],
            Repr::Spilled(values) => values,
        }
    }
}

impl<const N: usize> From<&[ValueId]> for IdVec<N> {
    fn from(values: &[ValueId]) -> Self {
        if values.len() <= Self::INLINE {
            let mut buf = Self::blank();
            buf[..values.len()].copy_from_slice(values);
            IdVec(Repr::Inline {
                len: values.len() as u8,
                buf,
            })
        } else {
            IdVec(Repr::Spilled(values.into()))
        }
    }
}

impl<const N: usize> From<Vec<ValueId>> for IdVec<N> {
    fn from(values: Vec<ValueId>) -> Self {
        if values.len() <= Self::INLINE {
            Self::from(&values[..])
        } else {
            IdVec(Repr::Spilled(values.into_boxed_slice()))
        }
    }
}

impl<const N: usize> FromIterator<ValueId> for IdVec<N> {
    fn from_iter<I: IntoIterator<Item = ValueId>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut buf = Self::blank();
        let mut len = 0;
        while let Some(v) = iter.next() {
            if len == Self::INLINE {
                let mut spilled = buf.to_vec();
                spilled.push(v);
                spilled.extend(iter);
                return IdVec(Repr::Spilled(spilled.into_boxed_slice()));
            }
            buf[len] = v;
            len += 1;
        }
        IdVec(Repr::Inline {
            len: len as u8,
            buf,
        })
    }
}

impl<'a, const N: usize> IntoIterator for &'a IdVec<N> {
    type Item = &'a ValueId;
    type IntoIter = std::slice::Iter<'a, ValueId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<const N: usize> PartialEq for IdVec<N> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<const N: usize> Eq for IdVec<N> {}

impl<const N: usize> PartialOrd for IdVec<N> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<const N: usize> Ord for IdVec<N> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (**self).cmp(&**other)
    }
}

impl<const N: usize> Hash for IdVec<N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl<const N: usize> std::fmt::Debug for IdVec<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Record;
    use std::collections::hash_map::DefaultHasher;

    fn ids(n: usize) -> Vec<ValueId> {
        (0..n as u32).map(|i| ValueId::new(0, i * 7 + 1)).collect()
    }

    fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    fn is_inline(d: &Dims) -> bool {
        matches!(d.0, Repr::Inline { .. })
    }

    #[test]
    fn every_constructor_agrees_with_the_slice_on_both_sides_of_the_boundary() {
        for n in 0..=Dims::INLINE + 3 {
            let v = ids(n);
            let built = [
                Dims::from(v.clone()),
                Dims::from(&v[..]),
                v.iter().copied().collect::<Dims>(),
            ];
            for d in &built {
                assert_eq!(&d[..], &v[..], "n = {n}");
                assert_eq!(d.len(), n);
                assert_eq!(is_inline(d), n <= Dims::INLINE, "n = {n}");
                assert_eq!(hash_of(d), hash_of(&v[..]));
                assert_eq!(format!("{d:?}"), format!("{v:?}"));
                assert_eq!(d, &built[0]);
                assert_eq!(d.iter().count(), n);
                assert_eq!(d.into_iter().copied().collect::<Vec<_>>(), v);
            }
        }
    }

    #[test]
    fn ordering_is_the_slices() {
        let mut vs: Vec<Vec<ValueId>> = Vec::new();
        for n in [0, 1, 4, 5, 6, 8] {
            let mut v = ids(n);
            vs.push(v.clone());
            if let Some(last) = v.last_mut() {
                *last = ValueId::new(0, 9_999);
                vs.push(v);
            }
        }
        for a in &vs {
            for b in &vs {
                let (da, db) = (Dims::from(a.clone()), Dims::from(b.clone()));
                assert_eq!(da.cmp(&db), a.cmp(b), "{a:?} vs {b:?}");
                assert_eq!(da == db, a == b);
                assert_eq!(da.partial_cmp(&db), a.partial_cmp(b));
            }
        }
    }

    #[test]
    fn writes_through_deref_mut_land_in_either_representation() {
        for n in [3, Dims::INLINE, Dims::INLINE + 1] {
            let mut d = Dims::from(ids(n));
            let before = d.clone();
            d[n - 1] = ValueId::new(0, 424_242);
            assert_ne!(d, before);
            assert_eq!(d[n - 1], ValueId::new(0, 424_242));
            assert_eq!(&d[..n - 1], &before[..n - 1]);
            // A clone of a spilled value owns its own heap block.
            let mut c = d.clone();
            c[0] = ValueId::new(0, 5);
            assert_ne!(c[0], d[0]);
            drop(d);
            assert_eq!(c[0], ValueId::new(0, 5));
        }
    }

    #[test]
    fn insert_shifts_in_place_and_spills_at_the_boundary() {
        for n in 0..=Dims::INLINE + 2 {
            for at in 0..=n {
                let mut want = ids(n);
                let mut d = Dims::from(want.clone());
                want.insert(at, ValueId::new(0, 777));
                d.insert(at, ValueId::new(0, 777));
                assert_eq!(&d[..], &want[..], "n = {n}, at = {at}");
                assert_eq!(is_inline(&d), n < Dims::INLINE);
            }
        }
    }

    #[test]
    fn record_stays_one_cache_half_line() {
        // A later field (or a larger inline capacity) must not silently
        // re-bloat every leaf: a data node holds `data_capacity` of these.
        assert_eq!(std::mem::size_of::<Dims>(), 24);
        assert_eq!(std::mem::size_of::<Record>(), 32);
    }
}
