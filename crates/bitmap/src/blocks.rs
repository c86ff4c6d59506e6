//! A growable vector held in fixed-size blocks, each behind its own `Arc`.
//!
//! A `clone` copies one pointer per block and shares the elements; a write
//! copies only the block it lands in (the last one for a `push`). The
//! bitmap index keeps its measure column, its per-level bitmap slots and
//! its deleted mask this way, so a snapshot taken after every writer batch
//! costs the index a few block copies, not the index.

use std::ops::Index;
use std::sync::Arc;

#[derive(Clone, Debug)]
pub(crate) struct Blocks<T, const B: usize> {
    /// All blocks but the last hold exactly `B` elements.
    blocks: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T: Clone, const B: usize> Blocks<T, B> {
    pub(crate) fn new() -> Self {
        Blocks {
            blocks: Vec::new(),
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        (i < self.len).then(|| &self.blocks[i / B][i % B])
    }

    /// Element `i`, copying its block first if a clone shares it.
    pub(crate) fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        (i < self.len).then(|| &mut unshare::<T, B>(&mut self.blocks[i / B])[i % B])
    }

    pub(crate) fn push(&mut self, value: T) {
        if self.len.is_multiple_of(B) {
            self.blocks.push(Arc::new(Vec::with_capacity(B)));
        }
        let last = self.blocks.last_mut().expect("a block was just ensured");
        unshare::<T, B>(last).push(value);
        self.len += 1;
    }

    /// Grows to `len` elements by appending `fill`; never shrinks.
    pub(crate) fn grow_to(&mut self, len: usize, fill: T) {
        while self.len < len {
            self.push(fill.clone());
        }
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.blocks.iter().flat_map(|b| b.iter())
    }

    /// The blocks themselves, for sharing checks in tests.
    #[cfg(test)]
    pub(crate) fn blocks(&self) -> &[Arc<Vec<T>>] {
        &self.blocks
    }
}

impl<T: Clone, const B: usize> Index<usize> for Blocks<T, B> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        self.get(i).expect("block index out of range")
    }
}

/// `Arc::make_mut` that keeps the full block capacity on a copy, so the
/// copied last block does not reallocate on its next push.
fn unshare<T: Clone, const B: usize>(block: &mut Arc<Vec<T>>) -> &mut Vec<T> {
    if Arc::strong_count(block) != 1 {
        let mut copy = Vec::with_capacity(B);
        copy.extend_from_slice(block);
        *block = Arc::new(copy);
    }
    Arc::make_mut(block)
}
