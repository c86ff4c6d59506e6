//! Nodes of the DC-tree.
//!
//! Nodes live in a [`NodeStore`](crate::store::NodeStore) under explicit
//! [`NodeId`] handles. As in the paper's directory layout (§3, Fig. 4), a
//! subtree's MDS and materialized [`MeasureSummary`] live in one place:
//! the [`DirEntry`] that references it — in its parent node, or, for the
//! root, in the tree itself. A range query prunes and applies the
//! contained-entry shortcut of Fig. 7 on the entry alone, *without
//! touching the child's page*, and a node holds nothing but its block
//! count and its members.
//!
//! A data node's members are the records themselves — a leaf value per
//! dimension plus the measure, 32 bytes each (§3); a directory node's are
//! its entries. They sit in [`Members`]: a body and a tail that a snapshot
//! shares with the writer, so the first write to a node after a publish
//! copies the node's header (its block count and two block pointers) and
//! the block it changes — for a leaf taking a record, its tail.

use dc_common::MeasureSummary;
use dc_hierarchy::Record;
use dc_mds::Mds;

pub use crate::members::{Members, TAIL_MEMBERS};

/// Handle of a node inside its store.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw handle value. For arena trees this is the slot index; for
    /// paged trees it is the head page of the node's chain. Exposed for
    /// external [`NodeStore`](crate::store::NodeStore) implementations.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds a handle from its raw value (see [`raw`](Self::raw)).
    pub fn from_raw(raw: u32) -> Self {
        NodeId(raw)
    }
}

/// One directory entry: the child's MDS and materialized measure summary,
/// plus the child pointer — the only place either value is kept.
#[derive(Clone, PartialEq, Debug)]
pub struct DirEntry {
    /// MDS of the referenced subtree.
    pub mds: Mds,
    /// Materialized aggregate over all records below the child.
    pub summary: MeasureSummary,
    /// The referenced child node.
    pub child: NodeId,
}

/// Payload of a node: directory entries or data records, in storage order.
#[derive(Clone, PartialEq, Debug)]
pub enum NodeKind {
    /// An internal (directory) node.
    Dir(Members<DirEntry>),
    /// A data (leaf) node.
    Data(Members<Record>),
}

/// A DC-tree node: its supernode block count and its payload. Its MDS
/// and summary sit in the entry that references it.
#[derive(Clone, PartialEq, Debug)]
pub struct Node {
    /// Number of blocks this node spans; > 1 makes it a *supernode*.
    pub blocks: u32,
    /// Directory entries or data records.
    pub kind: NodeKind,
}

impl Node {
    /// A fresh one-block node holding `kind`.
    pub fn new(kind: NodeKind) -> Self {
        Node { blocks: 1, kind }
    }

    /// A fresh, empty data node.
    pub fn new_data() -> Self {
        Node::new(NodeKind::Data(Members::new()))
    }

    /// The fold of the node's members: its records' measures or its
    /// entries' summaries — what the entry referencing it materializes.
    pub(crate) fn fold_summary(&self) -> MeasureSummary {
        match &self.kind {
            NodeKind::Data(records) => records.iter().map(|r| r.measure).collect(),
            NodeKind::Dir(entries) => entries.iter().fold(MeasureSummary::empty(), |mut a, e| {
                a.merge(&e.summary);
                a
            }),
        }
    }

    /// `true` iff this is a data (leaf) node.
    pub fn is_data(&self) -> bool {
        matches!(self.kind, NodeKind::Data(_))
    }

    /// `true` iff this node spans more than one block.
    pub fn is_supernode(&self) -> bool {
        self.blocks > 1
    }

    /// Number of entries (directory) or records (data) stored.
    pub fn len(&self) -> usize {
        match &self.kind {
            NodeKind::Dir(entries) => entries.len(),
            NodeKind::Data(records) => records.len(),
        }
    }

    /// `true` iff the node stores nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Directory entries; panics on data nodes (internal use).
    pub fn entries(&self) -> &Members<DirEntry> {
        match &self.kind {
            NodeKind::Dir(entries) => entries,
            NodeKind::Data(_) => panic!("entries() on a data node"),
        }
    }

    /// Mutable directory entries; panics on data nodes (internal use).
    pub(crate) fn entries_mut(&mut self) -> &mut Members<DirEntry> {
        match &mut self.kind {
            NodeKind::Dir(entries) => entries,
            NodeKind::Data(_) => panic!("entries_mut() on a data node"),
        }
    }

    /// Data records; panics on directory nodes (internal use).
    pub fn records(&self) -> &Members<Record> {
        match &self.kind {
            NodeKind::Data(records) => records,
            NodeKind::Dir(_) => panic!("records() on a directory node"),
        }
    }

    /// Mutable data records; panics on directory nodes (internal use).
    pub(crate) fn records_mut(&mut self) -> &mut Members<Record> {
        match &mut self.kind {
            NodeKind::Data(records) => records,
            NodeKind::Dir(_) => panic!("records_mut() on a directory node"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_common::ValueId;
    use dc_mds::DimSet;

    fn dummy_mds() -> Mds {
        Mds::new(vec![DimSet::singleton(ValueId::new(1, 0))])
    }

    #[test]
    fn new_dir_aggregates_entry_summaries() {
        let (c1, c2) = (NodeId(0), NodeId(1));
        let entries = Members::from(vec![
            DirEntry {
                mds: dummy_mds(),
                summary: MeasureSummary::of(10),
                child: c1,
            },
            DirEntry {
                mds: dummy_mds(),
                summary: MeasureSummary::of(-4),
                child: c2,
            },
        ]);
        let dir = Node::new(NodeKind::Dir(entries));
        let summary = dir.fold_summary();
        assert_eq!(summary.sum, 6);
        assert_eq!(summary.count, 2);
        assert_eq!(summary.min, -4);
        assert_eq!(summary.max, 10);
        assert!(!dir.is_data());
        assert!(!dir.is_supernode());
        assert_eq!(dir.len(), 2);
    }

    #[test]
    fn a_node_is_a_small_header() {
        // A node is its block count and two member-block pointers; its MDS
        // and summary live in the entry referencing it. A field re-added
        // here is copied by every write after a publish.
        assert!(std::mem::size_of::<Node>() <= 64);
    }

    #[test]
    fn members_are_inline_and_their_size_is_pinned() {
        // What a node's member blocks are runs of: a later field must not
        // silently re-bloat every leaf and directory node.
        assert_eq!(std::mem::size_of::<Record>(), 32);
        assert_eq!(std::mem::size_of::<DirEntry>(), 408);
    }

    #[test]
    #[should_panic(expected = "data node")]
    fn entries_on_data_node_panics() {
        let _ = Node::new_data().entries();
    }
}
