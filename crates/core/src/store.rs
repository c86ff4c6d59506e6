//! Where DC-tree nodes live.
//!
//! [`DcTree`](crate::DcTree) holds the DC-tree *algorithms* (choose-subtree,
//! hierarchy split, condensation, materialized range queries); a
//! [`NodeStore`] holds the *nodes*. The paper's nodes are disk blocks; here
//! the same tree runs over the in-memory [`Arena`] (the default, and what
//! every resident shard uses) and over `dc_oocore::OocStore` (node pages
//! behind the concurrent, scan-resistant buffer pool) without duplicating
//! any tree logic. This crate knows neither pages nor pools: how a node is
//! laid out on disk is the paged store's business alone.
//!
//! A store hands out [`NodeId`] handles. For the arena a handle is a slot
//! index; for a paged store it is whatever locates the node there (the head
//! page of its chain), and directory entries persist it through
//! [`NodeId::raw`].

use std::borrow::Cow;

use dc_common::DcResult;

use crate::node::{Node, NodeId};

/// Storage for DC-tree nodes, keyed by [`NodeId`].
///
/// The tree touches a node in exactly two ways: it *reads* it ([`get`]) or
/// it runs *one mutation step* on it ([`update`]). For the arena these are
/// a borrow and a mutable borrow; for a paged store a read is a load +
/// decode and an update is load → mutate → store, so every step of an
/// algorithm costs a paged store one load and at most one store.
///
/// [`get`]: NodeStore::get
/// [`update`]: NodeStore::update
pub trait NodeStore {
    /// Reads the node at `id`: borrowed from a resident store, decoded
    /// (owned) from a paged one.
    fn get(&self, id: NodeId) -> DcResult<Cow<'_, Node>>;

    /// Runs one mutation step on the node at `id`. When `f` fails the
    /// node's stored state is unspecified for resident stores (the step
    /// may have been half applied) and unchanged for paged ones.
    fn update<R>(&mut self, id: NodeId, f: impl FnOnce(&mut Node) -> DcResult<R>) -> DcResult<R>;

    /// Stores a fresh node and returns its handle.
    fn alloc(&mut self, node: Node) -> DcResult<NodeId>;

    /// Releases the node at `id`, handing back its last content.
    fn free(&mut self, id: NodeId) -> DcResult<Node>;
}

/// A [`NodeStore`] that outlives the process: besides nodes it keeps one
/// metadata blob (tree root, counters, schema), which is what
/// [`create_in`] / [`open_in`] / [`flush`] write and read.
///
/// [`create_in`]: crate::DcTree::create_in
/// [`open_in`]: crate::DcTree::open_in
/// [`flush`]: crate::DcTree::flush
pub trait PersistentStore: NodeStore {
    /// Tells the store the cube's dimensionality, which decoding a node
    /// needs (MDS sets are not counted on disk). The tree calls this before
    /// its first node access.
    fn set_num_dims(&mut self, num_dims: usize);

    /// Reads the metadata blob.
    fn read_meta(&self) -> DcResult<Vec<u8>>;

    /// Rewrites the metadata blob.
    fn write_meta(&mut self, bytes: &[u8]) -> DcResult<()>;

    /// Forces every buffered write down to durable storage.
    fn sync(&mut self) -> DcResult<()>;
}

// ----------------------------------------------------------------------
// The in-memory store
// ----------------------------------------------------------------------

/// The resident [`NodeStore`]: a slab with a free list recycling the slots
/// deletion releases.
#[derive(Clone, Debug, Default)]
pub struct Arena {
    slots: Vec<Option<Node>>,
    free: Vec<u32>,
}

impl Arena {
    /// Iterates over live `(NodeId, &Node)` pairs.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|n| (NodeId(i as u32), n)))
    }

    /// Number of live nodes.
    pub(crate) fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// All slots including holes — used by the persistence codec so that
    /// `NodeId`s survive a save/load round-trip unchanged.
    pub(crate) fn slots(&self) -> &[Option<Node>] {
        &self.slots
    }

    /// Rebuilds an arena from raw slots (persistence load path).
    pub(crate) fn from_slots(slots: Vec<Option<Node>>) -> Self {
        let free = slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_none().then_some(i as u32))
            .collect();
        Arena { slots, free }
    }
}

impl NodeStore for Arena {
    #[inline]
    fn get(&self, id: NodeId) -> DcResult<Cow<'_, Node>> {
        Ok(Cow::Borrowed(
            self.slots[id.index()].as_ref().expect("dangling NodeId"),
        ))
    }

    #[inline]
    fn update<R>(&mut self, id: NodeId, f: impl FnOnce(&mut Node) -> DcResult<R>) -> DcResult<R> {
        f(self.slots[id.index()].as_mut().expect("dangling NodeId"))
    }

    fn alloc(&mut self, node: Node) -> DcResult<NodeId> {
        Ok(if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Some(node);
            NodeId(idx)
        } else {
            self.slots.push(Some(node));
            NodeId((self.slots.len() - 1) as u32)
        })
    }

    fn free(&mut self, id: NodeId) -> DcResult<Node> {
        let node = self.slots[id.index()].take().expect("double free");
        self.free.push(id.0);
        Ok(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_common::ValueId;
    use dc_mds::{DimSet, Mds};

    #[test]
    fn arena_alloc_get_free_recycles() {
        let node = || Node::new_data(Mds::new(vec![DimSet::singleton(ValueId::new(1, 0))]));
        let mut a = Arena::default();
        let n1 = a.alloc(node()).unwrap();
        let n2 = a.alloc(node()).unwrap();
        assert_ne!(n1, n2);
        assert_eq!(a.len(), 2);
        a.free(n1).unwrap();
        assert_eq!(a.len(), 1);
        let n3 = a.alloc(node()).unwrap();
        assert_eq!(n3, n1); // slot reused
        assert_eq!(a.len(), 2);
        assert_eq!(a.iter().count(), 2);
    }
}
