//! A node's members — directory entries or records — in two shared blocks.
//!
//! [`Members`] holds a node's members in order in two reference-counted
//! blocks: the *body*, laid out when the node was last built (a split, a
//! page decode, a bulk load) or merged, and the *tail*, the at most
//! [`TAIL_MEMBERS`] members appended since. The body holds exactly its
//! members, with no spare room; the tail grows in place up to
//! [`TAIL_MEMBERS`]. A reader finds a node's members behind two pointers it
//! can follow at once, nearly all of them in one run.
//!
//! Cloning copies two pointers and no member; the clone and the original
//! then share both blocks until one of them writes to one. A write copies
//! only the block it changes, and only when a clone shares it: an append
//! copies the tail (at most [`TAIL_MEMBERS`] members), changing or removing
//! one member copies the block it sits in, and an append that overflows
//! the tail merges the tail into the body — which copies the body too when
//! it is shared, once per [`TAIL_MEMBERS`] appends. A resident shard
//! publishes a snapshot after every writer batch (see [`crate::store`]), so
//! this is what the first write to a node after a publish costs: a leaf
//! that takes a record copies its tail, not its records. A block no clone
//! shares is written in place, and taken apart ([`Members::into_vec`]) by
//! moving its members, as one `Vec` would be.
//!
//! Member `i` is member `i` of the body, or member `i - body` of the tail,
//! so member numbering is that of one `Vec`.

use std::cell::Cell;
use std::fmt;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// Members a tail holds before the next append merges it into the body:
/// what an append after a publish copies at most. A shorter tail is
/// cheaper to copy but merges — a whole-node copy while a snapshot shares
/// the body — more often: on one shard's 100 k-record TPC-D stream with a
/// snapshot held after every 333-record batch, leaves copied 481 record
/// bytes per record with a tail of 8, 392 with 16, 455 with 32 and 671
/// with 64.
pub const TAIL_MEMBERS: usize = 16;

thread_local! {
    /// Member bytes this thread has copied out of shared blocks.
    static COPIED: Cell<u64> = const { Cell::new(0) };
}

/// Member bytes the calling thread has copied out of shared blocks so far
/// — the difference across one store operation is what that operation
/// copied.
pub(crate) fn copied_on_this_thread() -> u64 {
    COPIED.with(Cell::get)
}

/// Counts the members of a shared `block` as copied.
fn count_copy<T>(block: &[T]) {
    COPIED.with(|c| c.set(c.get() + std::mem::size_of_val(block) as u64));
}

/// `block` made writable: copied first, with room for exactly `extra`
/// more members, when a clone shares it. An unshared block is returned as
/// it is, to be written in place.
fn writable<T: Clone>(block: &mut Arc<Vec<T>>, extra: usize) -> &mut Vec<T> {
    if Arc::get_mut(block).is_none() {
        count_copy(block);
        let mut copy = Vec::with_capacity(block.len() + extra);
        copy.extend_from_slice(block);
        *block = Arc::new(copy);
    }
    Arc::get_mut(block).expect("an unshared block")
}

/// `block`'s members by value: moved out when no clone shares it, else
/// copied.
fn into_members<T: Clone>(block: Arc<Vec<T>>) -> Vec<T> {
    Arc::try_unwrap(block).unwrap_or_else(|shared| {
        count_copy(&shared);
        shared.to_vec()
    })
}

/// A node's members in order, in a shared body and tail (see the
/// [module docs](self)).
#[derive(Clone)]
pub struct Members<T> {
    body: Arc<Vec<T>>,
    tail: Arc<Vec<T>>,
}

impl<T> Default for Members<T> {
    fn default() -> Self {
        Members {
            body: Arc::default(),
            tail: Arc::default(),
        }
    }
}

impl<T> Members<T> {
    /// No members.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.body.len() + self.tail.len()
    }

    /// `true` iff there are no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Member `i`, if there is one.
    pub fn get(&self, i: usize) -> Option<&T> {
        match i.checked_sub(self.body.len()) {
            None => self.body.get(i),
            Some(j) => self.tail.get(j),
        }
    }

    /// The first member, if there is one.
    pub fn first(&self) -> Option<&T> {
        self.get(0)
    }

    /// The two blocks, body then tail, each a contiguous run of members.
    pub fn blocks(&self) -> [&[T]; 2] {
        [&self.body, &self.tail]
    }

    /// The members in order.
    pub fn iter(&self) -> std::iter::Chain<std::slice::Iter<'_, T>, std::slice::Iter<'_, T>> {
        self.body.iter().chain(self.tail.iter())
    }
}

impl<T: Clone> Members<T> {
    /// Appends `member` (see [`Self::extend_from_slice`]).
    pub fn push(&mut self, member: T) {
        self.extend_from_slice(std::slice::from_ref(&member));
    }

    /// Appends clones of `members` in order: to the tail while it stays
    /// within [`TAIL_MEMBERS`], else to the body, which then takes the
    /// tail's members too and leaves it empty.
    pub fn extend_from_slice(&mut self, members: &[T]) {
        if members.is_empty() {
            return;
        }
        let tail = self.tail.len();
        if tail + members.len() <= TAIL_MEMBERS {
            writable(&mut self.tail, members.len()).extend_from_slice(members);
            return;
        }
        let body = writable(&mut self.body, tail + members.len());
        body.reserve_exact(tail + members.len());
        match Arc::get_mut(&mut self.tail) {
            Some(own) => {
                body.append(own);
                own.shrink_to_fit();
            }
            None => {
                count_copy(&self.tail);
                body.extend_from_slice(&self.tail);
                self.tail = Arc::default();
            }
        }
        body.extend_from_slice(members);
    }

    /// Removes and returns member `i`, shifting every later member back by
    /// one, within the block that holds it.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn remove(&mut self, i: usize) -> T {
        assert!(i < self.len(), "remove index {i} out of bounds");
        match i.checked_sub(self.body.len()) {
            None => writable(&mut self.body, 0).remove(i),
            Some(j) => writable(&mut self.tail, 0).remove(j),
        }
    }

    /// The members in order, each written to in place — both blocks are
    /// unshared first.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        let Members { body, tail } = self;
        writable(body, 0)
            .iter_mut()
            .chain(writable(tail, 0).iter_mut())
    }

    /// The members by value, in order: moved out of an unshared block,
    /// cloned (and counted as copied) out of a shared one.
    pub fn into_vec(self) -> Vec<T> {
        let mut members = into_members(self.body);
        members.append(&mut into_members(self.tail));
        members
    }
}

impl<T> Index<usize> for Members<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        match i.checked_sub(self.body.len()) {
            None => &self.body[i],
            Some(j) => &self.tail[j],
        }
    }
}

/// Copies member `i`'s block first when it is shared.
impl<T: Clone> IndexMut<usize> for Members<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        match i.checked_sub(self.body.len()) {
            None => &mut writable(&mut self.body, 0)[i],
            Some(j) => &mut writable(&mut self.tail, 0)[j],
        }
    }
}

/// All of `members` in the body, with no spare room.
impl<T> From<Vec<T>> for Members<T> {
    fn from(mut members: Vec<T>) -> Self {
        members.shrink_to_fit();
        Members {
            body: Arc::new(members),
            tail: Arc::default(),
        }
    }
}

impl<T> FromIterator<T> for Members<T> {
    fn from_iter<I: IntoIterator<Item = T>>(members: I) -> Self {
        Members::from(members.into_iter().collect::<Vec<T>>())
    }
}

impl<T: PartialEq> PartialEq for Members<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<T: fmt::Debug> fmt::Debug for Members<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: usize = TAIL_MEMBERS;

    fn numbers(n: usize) -> Members<usize> {
        (0..n).collect()
    }

    fn block_lens(m: &Members<usize>) -> [usize; 2] {
        m.blocks().map(<[usize]>::len)
    }

    /// Per block, whether `m` holds it in the same allocation as `snap`.
    fn shared(m: &Members<usize>, snap: &Members<usize>) -> [bool; 2] {
        let [a, b] = m.blocks();
        let [c, d] = snap.blocks();
        [std::ptr::eq(a, c), std::ptr::eq(b, d)]
    }

    #[test]
    fn appends_fill_the_tail_then_merge_into_the_body() {
        let mut m = numbers(40);
        assert_eq!(block_lens(&m), [40, 0]);
        m.push(40);
        m.extend_from_slice(&[41, 42]);
        assert_eq!(block_lens(&m), [40, 3]);
        assert_eq!((m.len(), m[41], m.get(43)), (43, 41, None));
        let more: Vec<usize> = (43..40 + T).collect();
        m.extend_from_slice(&more);
        assert_eq!(block_lens(&m), [40, T]);
        m.push(40 + T);
        assert_eq!(block_lens(&m), [41 + T, 0]);
        assert!(m.iter().copied().eq(0..41 + T));
        assert!(m.iter().rev().copied().eq((0..41 + T).rev()));
        assert_eq!(Members::from((0..41 + T).collect::<Vec<_>>()), m);
        assert!(Members::<usize>::new().is_empty());
    }

    #[test]
    fn a_remove_shifts_members_within_their_block() {
        let mut m = numbers(40);
        m.extend_from_slice(&[40, 41, 42]);
        assert_eq!(m.remove(41), 41);
        assert_eq!(block_lens(&m), [40, 2]);
        assert_eq!(m.remove(3), 3);
        assert_eq!(block_lens(&m), [39, 2]);
        assert!(m.iter().copied().eq((0..43).filter(|&x| x != 3 && x != 41)));
        let mut one = numbers(1);
        one.remove(0);
        assert!(one.is_empty());
    }

    #[test]
    fn a_write_copies_only_the_shared_block_it_changes() {
        const WORD: u64 = std::mem::size_of::<usize>() as u64;
        let mut m = numbers(40);
        m.extend_from_slice(&[40, 41]);
        let snap = m.clone();
        let copied = copied_on_this_thread();

        // An append copies the shared tail, once.
        m.push(42);
        m.push(43);
        assert_eq!(shared(&m, &snap), [true, false]);
        assert_eq!(copied_on_this_thread() - copied, 2 * WORD);

        // Changing a member of the body copies the body, once.
        m[20] = 99;
        m[21] = 98;
        assert_eq!(shared(&m, &snap), [false, false]);
        assert_eq!(copied_on_this_thread() - copied, (2 + 40) * WORD);

        assert!(snap.iter().copied().eq(0..42));
        assert_eq!((m[20], m[21], m.len()), (99, 98, 44));
    }

    #[test]
    fn a_remove_and_an_overflowing_append_leave_the_snapshot_alone() {
        const WORD: u64 = std::mem::size_of::<usize>() as u64;
        let mut m = numbers(40);
        m.push(40);
        let snap = m.clone();
        let copied = copied_on_this_thread();
        // A remove in the tail copies the tail alone; one in the body, the
        // body alone.
        m.remove(40);
        assert!(shared(&m, &snap)[0]);
        assert_eq!(copied_on_this_thread() - copied, WORD);
        m.push(40);
        m.remove(5);
        assert_eq!(copied_on_this_thread() - copied, 41 * WORD);
        assert!(m.iter().copied().eq((0..41).filter(|&x| x != 5)));
        let more: Vec<usize> = (100..101 + T).collect();
        m.extend_from_slice(&more);
        assert_eq!(block_lens(&m), [40 + 1 + T, 0]);
        assert!(snap.iter().copied().eq(0..41));
        assert_eq!(snap.into_vec().len(), 41);
    }
}
