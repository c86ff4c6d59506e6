//! Where DC-tree nodes live.
//!
//! [`DcTree`](crate::DcTree) holds the DC-tree *algorithms* (choose-subtree,
//! hierarchy split, condensation, materialized range queries); a
//! [`NodeStore`] holds the *nodes*. The paper's nodes are disk blocks; here
//! the same tree runs over the in-memory [`Arena`] (the default, and what
//! every resident shard uses) and over `dc_oocore::OocStore` (node pages
//! behind a cache of decoded nodes) without duplicating
//! any tree logic. This crate knows neither pages nor pools: how a node is
//! laid out on disk, and how long a mutated node stays decoded before it is
//! written back, is the paged store's business alone.
//!
//! A store hands out [`NodeId`] handles. For the arena a handle is a slot
//! index; for a paged store it is whatever locates the node there (the head
//! page of its chain), and directory entries persist it through
//! [`NodeId::raw`].
//!
//! # Snapshots share nodes, and nodes share blocks
//!
//! Every [`Arena`] slot is an `Arc<Node>`, so cloning an arena — which is
//! what `DcTree::clone` does, and what the serving engine publishes after
//! each writer batch — copies one pointer per node and no node. The clone
//! and the original then *share* every node until one of them mutates it:
//! [`NodeStore::update`] goes through [`Arc::make_mut`], which mutates in
//! place when the slot holds the only reference and otherwise copies that
//! one node's *header* first — its block count and the two pointers to its
//! members; its MDS and summary are not in it but in the entry that
//! references it. The members themselves sit in
//! [`Members`](crate::node::Members), a shared body and tail, so the header
//! copy shares both with the snapshot, and the step then copies only the
//! block it writes: appending a record copies the tail (at most
//! [`TAIL_MEMBERS`](crate::node::TAIL_MEMBERS) records), extending a
//! directory entry copies the block holding it, and a split builds its two
//! halves afresh. An insert therefore copies, once per snapshot taken, the
//! headers on its root-to-leaf path, the directory blocks it passes and its
//! leaf's tail — never the tree, and no longer a leaf's records — and a
//! node no snapshot references is mutated in place at no cost beyond the
//! reference-count checks. [`NodeStore::get`] stays a
//! plain borrow: a shared node or block is immutable by construction
//! (nobody holds a `&mut` to it without passing the copy), so readers of a
//! snapshot need neither a lock nor a copy, and dropping the last snapshot
//! that references a superseded node or block is what frees it. The arena
//! counts what it copies ([`CopiedBytes`], reported in
//! [`TreeMetrics::copied`](crate::TreeMetrics::copied)).

use std::borrow::Cow;
use std::sync::Arc;

use dc_common::{DcResult, MeasureSummary};
use dc_mds::Mds;
use dc_storage::ByteReader;

use crate::members::copied_on_this_thread;
use crate::node::{Node, NodeId};

/// Storage for DC-tree nodes, keyed by [`NodeId`].
///
/// The tree touches a node in exactly two ways: it *reads* it ([`get`]) or
/// it runs *one mutation step* on it ([`update`]). For the arena these are
/// a borrow and a mutable borrow. A paged store decodes a node it reads
/// from its pages, but it need not pay the codec per step: the paged store
/// keeps the nodes it has mutated decoded (its dirty nodes, written back
/// when they fill its bound and when the store syncs), so the steps an
/// insertion takes on one node cost one decode and one encode between
/// them, and nodes it read stay decoded while there is room.
///
/// [`get`]: NodeStore::get
/// [`update`]: NodeStore::update
pub trait NodeStore {
    /// Reads the node at `id`: borrowed from a resident store; from a paged
    /// one owned — decoded, or a copy of the node it holds decoded.
    fn get(&self, id: NodeId) -> DcResult<Cow<'_, Node>>;

    /// Runs one mutation step on the node at `id`. When `f` fails the
    /// node's state is unspecified (the step may have been half applied) on
    /// a resident store and for a node a paged store already held decoded
    /// and dirty; a node a paged store held clean or had to load for the
    /// step keeps its stored state. No caller retries a failed step: the
    /// tree propagates the error. On a paged store the call may first write
    /// other nodes back to make room, and an I/O error from that is
    /// returned here.
    fn update<R>(&mut self, id: NodeId, f: impl FnOnce(&mut Node) -> DcResult<R>) -> DcResult<R>;

    /// Stores a fresh node and returns its handle. May write other nodes
    /// back first, as [`update`](Self::update) does.
    fn alloc(&mut self, node: Node) -> DcResult<NodeId>;

    /// Releases the node at `id`, handing back its last content.
    fn free(&mut self, id: NodeId) -> DcResult<Node>;

    /// Bytes this store has copied so far because a snapshot shared what a
    /// step changed. Only a store whose clones share nodes copies any.
    fn copied(&self) -> CopiedBytes {
        CopiedBytes::default()
    }
}

/// Bytes a resident store copied because a snapshot shared what a
/// mutation changed, by node kind: *header* is the node itself, copied by
/// the first step on a shared node and by freeing one; *payload* is the
/// members of the blocks a step wrote while a snapshot shared them — the
/// entries a step changes included, which hold the MDSs and summaries.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct CopiedBytes {
    /// Directory-node headers.
    pub dir_header: u64,
    /// Directory entries.
    pub dir_payload: u64,
    /// Data-node headers.
    pub data_header: u64,
    /// Data records.
    pub data_payload: u64,
}

impl CopiedBytes {
    /// Header bytes of both kinds.
    pub fn header(&self) -> u64 {
        self.dir_header + self.data_header
    }

    /// Payload bytes of both kinds.
    pub fn payload(&self) -> u64 {
        self.dir_payload + self.data_payload
    }

    fn add_header(&mut self, node: &Node) {
        let bytes = std::mem::size_of::<Node>() as u64;
        if node.is_data() {
            self.data_header += bytes;
        } else {
            self.dir_header += bytes;
        }
    }
}

/// A [`NodeStore`] that outlives the process: besides nodes it keeps one
/// metadata blob (root entry, counters, schema), which is what
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

    /// Appends `mds` and `summary` to `out` as the store's pages encode an
    /// entry's: how the metadata blob carries the root entry.
    fn encode_cover(&self, mds: &Mds, summary: &MeasureSummary, out: &mut Vec<u8>);

    /// Reads what [`encode_cover`](Self::encode_cover) wrote.
    fn decode_cover(&self, r: &mut ByteReader) -> DcResult<(Mds, MeasureSummary)>;

    /// The MDS and summary in the header of the node page at `id`, which
    /// only pages of the first node format carry. A tree whose metadata
    /// predates the root entry reads its root's here; nothing else does.
    fn legacy_cover(&self, id: NodeId) -> DcResult<(Mds, MeasureSummary)>;

    /// Forces every buffered write — nodes held decoded included — down
    /// to durable storage.
    fn sync(&mut self) -> DcResult<()>;
}

// ----------------------------------------------------------------------
// The in-memory store
// ----------------------------------------------------------------------

/// The resident [`NodeStore`]: a slab with a free list recycling the slots
/// deletion releases. Slots are reference-counted, so `clone` is a
/// snapshot that shares every node with the original (see the
/// [module docs](self)).
#[derive(Clone, Debug, Default)]
pub struct Arena {
    slots: Vec<Option<Arc<Node>>>,
    free: Vec<u32>,
    copied: CopiedBytes,
}

impl Arena {
    /// Iterates over live `(NodeId, &Node)` pairs.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_deref().map(|n| (NodeId(i as u32), n)))
    }

    /// Slots `free` released that no `alloc` has reused yet.
    #[cfg(test)]
    pub(crate) fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Number of slots whose node this arena does **not** share with
    /// `other` (a live slot on either side holding a different allocation,
    /// or live on one side only) — i.e. what mutation since a `clone` has
    /// copied or created.
    #[cfg(test)]
    pub(crate) fn slots_not_shared_with(&self, other: &Arena) -> usize {
        let n = self.slots.len().max(other.slots.len());
        (0..n)
            .filter(|&i| {
                match (
                    self.slots.get(i).and_then(Option::as_ref),
                    other.slots.get(i).and_then(Option::as_ref),
                ) {
                    (Some(a), Some(b)) => !Arc::ptr_eq(a, b),
                    (None, None) => false,
                    _ => true,
                }
            })
            .count()
    }
}

impl NodeStore for Arena {
    #[inline]
    fn get(&self, id: NodeId) -> DcResult<Cow<'_, Node>> {
        Ok(Cow::Borrowed(
            self.slots[id.index()].as_deref().expect("dangling NodeId"),
        ))
    }

    /// In place when this arena holds the node's only reference; a node
    /// shared with a snapshot has its header copied first (once — the copy
    /// is unshared), and `f` copies the shared blocks it writes.
    #[inline]
    fn update<R>(&mut self, id: NodeId, f: impl FnOnce(&mut Node) -> DcResult<R>) -> DcResult<R> {
        let slot = self.slots[id.index()].as_mut().expect("dangling NodeId");
        if Arc::strong_count(slot) > 1 {
            self.copied.add_header(slot);
        }
        let node = Arc::make_mut(slot);
        let data = node.is_data();
        let before = copied_on_this_thread();
        let result = f(node);
        let payload = copied_on_this_thread() - before;
        if data {
            self.copied.data_payload += payload;
        } else {
            self.copied.dir_payload += payload;
        }
        result
    }

    fn alloc(&mut self, node: Node) -> DcResult<NodeId> {
        let node = Some(Arc::new(node));
        Ok(if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = node;
            NodeId(idx)
        } else {
            self.slots.push(node);
            NodeId((self.slots.len() - 1) as u32)
        })
    }

    /// Hands back the node itself when unshared, a copy of its header when
    /// a snapshot still references it (the snapshot keeps the original,
    /// and the copy shares its blocks).
    fn free(&mut self, id: NodeId) -> DcResult<Node> {
        let node = self.slots[id.index()].take().expect("double free");
        self.free.push(id.0);
        Ok(Arc::try_unwrap(node).unwrap_or_else(|shared| {
            self.copied.add_header(&shared);
            (*shared).clone()
        }))
    }

    fn copied(&self) -> CopiedBytes {
        self.copied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::DirEntry;
    use crate::{DcTree, DcTreeConfig};
    use dc_hierarchy::{CubeSchema, HierarchySchema, Record};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn node() -> Node {
        Node::new_data()
    }

    #[test]
    fn arena_alloc_get_free_recycles() {
        let mut a = Arena::default();
        let n1 = a.alloc(node()).unwrap();
        let n2 = a.alloc(node()).unwrap();
        assert_ne!(n1, n2);
        assert_eq!(a.iter().count(), 2);
        a.free(n1).unwrap();
        assert_eq!(a.iter().count(), 1);
        let n3 = a.alloc(node()).unwrap();
        assert_eq!(n3, n1); // slot reused
        assert_eq!(a.iter().count(), 2);
        assert_eq!(a.iter().count(), 2);
    }

    #[test]
    fn a_clone_shares_nodes_until_one_side_mutates_them() {
        let mut a = Arena::default();
        let (kept, changed, freed) = (
            a.alloc(node()).unwrap(),
            a.alloc(node()).unwrap(),
            a.alloc(node()).unwrap(),
        );
        let snap = a.clone();
        assert_eq!(a.slots_not_shared_with(&snap), 0);

        // The first update of a shared node copies it; the second finds the
        // copy unshared and mutates it where it is.
        a.update(changed, |n| {
            n.blocks = 7;
            Ok(())
        })
        .unwrap();
        let copy = Arc::as_ptr(a.slots[changed.index()].as_ref().unwrap());
        a.update(changed, |n| {
            n.blocks = 8;
            Ok(())
        })
        .unwrap();
        assert_eq!(
            Arc::as_ptr(a.slots[changed.index()].as_ref().unwrap()),
            copy
        );
        assert_eq!(a.get(changed).unwrap().blocks, 8);
        assert_eq!(snap.get(changed).unwrap().blocks, 1);

        // Freeing a shared node hands out a copy; the snapshot keeps its
        // own, also once the writer has recycled the slot.
        let mut replacement = node();
        replacement.blocks = 3;
        assert_eq!(a.free(freed).unwrap(), node());
        assert_eq!(a.alloc(replacement).unwrap(), freed);
        assert_eq!(a.get(freed).unwrap().blocks, 3);
        assert_eq!(*snap.get(freed).unwrap(), node());

        assert_eq!(a.slots_not_shared_with(&snap), 2);
        assert!(Arc::ptr_eq(
            a.slots[kept.index()].as_ref().unwrap(),
            snap.slots[kept.index()].as_ref().unwrap()
        ));
    }

    #[test]
    fn an_insert_after_a_snapshot_copies_its_path_not_the_tree() {
        let schema = CubeSchema::new(
            vec![
                HierarchySchema::new("D0", vec!["A".into(), "B".into(), "C".into()]),
                HierarchySchema::new("D1", vec!["Y".into(), "M".into()]),
                HierarchySchema::new("D2", vec!["P".into()]),
            ],
            "m",
        );
        let mut rng = StdRng::seed_from_u64(19);
        let mut paths = || {
            let (a, b, c) = (
                rng.gen_range(0..8),
                rng.gen_range(0..8),
                rng.gen_range(0..40),
            );
            let (y, m, p) = (
                rng.gen_range(0..6),
                rng.gen_range(0..12),
                rng.gen_range(0..300),
            );
            [
                vec![
                    format!("a{a}"),
                    format!("a{a}b{b}"),
                    format!("a{a}b{b}c{c}"),
                ],
                vec![format!("y{y}"), format!("y{y}m{m}")],
                vec![format!("p{p}")],
            ]
        };
        let mut tree = DcTree::new(schema, DcTreeConfig::default());
        for _ in 0..20 {
            let batch = (0..500)
                .map(|i| Record::new(tree.intern_paths(&paths()).unwrap(), i))
                .collect();
            tree.insert_batch(batch).unwrap();
        }
        assert_eq!(tree.len(), 10_000);

        let snap = tree.clone();
        let frozen = snap.structure().unwrap();
        assert_eq!(tree.store.slots_not_shared_with(&snap.store), 0);
        let nodes_before = tree.num_nodes();
        assert!(nodes_before > 20 * tree.height());

        tree.insert_raw(&paths(), 1).unwrap();
        let created = tree.num_nodes() - nodes_before;
        let copied = tree.store.slots_not_shared_with(&snap.store);
        assert!(
            (1..=tree.height() + created).contains(&copied),
            "{copied} slots diverged; height {}, {created} created",
            tree.height()
        );
        // And of each node on the path, one header and one block: the
        // largest directory block of the tree bounds both kinds.
        assert_eq!(created, 0, "the probe record must not split a node");
        let header = std::mem::size_of::<Node>();
        let block = snap
            .store
            .iter()
            .filter(|(_, n)| !n.is_data())
            .flat_map(|(_, n)| n.entries().blocks())
            .map(std::mem::size_of_val::<[DirEntry]>)
            .max()
            .unwrap();
        let bytes = tree.metrics().copied;
        assert!(
            bytes.header() + bytes.payload() <= (tree.height() * (block + header)) as u64,
            "{bytes:?} copied; height {}, header {header}, block {block}",
            tree.height()
        );
        assert!(bytes.payload() > 0 && bytes.header() > 0);
        assert_eq!(snap.len(), 10_000);
        assert!(snap.structure().unwrap() == frozen);
        snap.check_invariants().unwrap();
        tree.check_invariants().unwrap();
    }
}
