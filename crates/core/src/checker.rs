//! Structural invariant checker.
//!
//! Run inside tests (and available to embedders) after mutation batches:
//! verifies coverage, materialized-measure consistency, capacity accounting
//! and store reachability. Any violation is reported as
//! [`DcError::Corrupt`] with a description of the failing node.

use std::collections::HashSet;

use dc_common::{DcError, DcResult, MeasureSummary};
use dc_mds::Mds;

use crate::node::{DirEntry, Node, NodeId, NodeKind};
use crate::store::NodeStore;
use crate::tree::{capacity, DcTree};

impl<S: NodeStore> DcTree<S> {
    /// Verifies every structural invariant of the tree:
    ///
    /// 1. **record coverage**: every stored record is contained in the MDS
    ///    of *every* entry on its path from the root entry (Definition 3's
    ///    coverage — checked at record granularity because lazy split
    ///    refinement may legitimately leave an entry's MDS on a finer level
    ///    than a not-yet-refined entry below it);
    /// 2. each entry's summary equals the fold of the referenced node's
    ///    content (materialized measures are exact) — an entry is the only
    ///    copy of its child's MDS and summary, so there is no second copy
    ///    to compare;
    /// 3. node occupancy never exceeds `capacity × blocks`, `blocks ≥ 1`;
    /// 4. every live node is reachable from the root exactly once, and
    ///    every data node sits on level `height`;
    /// 5. the recorded record count matches the stored records.
    pub fn check_invariants(&self) -> DcResult<()> {
        let mut seen: HashSet<u32> = HashSet::new();
        let mut records = 0u64;
        let mut path: Vec<Mds> = Vec::new();
        self.check_node(&self.root, &mut path, &mut seen, &mut records)?;
        if seen.len() != self.num_nodes() {
            return Err(DcError::Corrupt(format!(
                "{} live nodes but only {} reachable from the root",
                self.num_nodes(),
                seen.len()
            )));
        }
        if records != self.len() {
            return Err(DcError::Corrupt(format!(
                "tree reports {} records but stores {records}",
                self.len()
            )));
        }
        Ok(())
    }

    /// The tree's nodes in pre-order with their depth and the entry that
    /// references them (the root's: the tree's root entry), child handles
    /// blanked. Two trees are the same tree — per node: kind, `blocks`,
    /// MDS, summary and members in storage order — iff their structures
    /// are equal, wherever their nodes live.
    pub fn structure(&self) -> DcResult<Vec<(usize, DirEntry, Node)>> {
        let mut out = Vec::with_capacity(self.num_nodes());
        self.for_each_node(|depth, entry, node| {
            let entry = DirEntry {
                child: NodeId(0),
                ..entry.clone()
            };
            let mut node = node.clone();
            if let NodeKind::Dir(entries) = &mut node.kind {
                for e in entries.iter_mut() {
                    e.child = NodeId(0);
                }
            }
            out.push((depth, entry, node));
        })?;
        Ok(out)
    }

    fn check_node(
        &self,
        entry: &DirEntry,
        path: &mut Vec<Mds>,
        seen: &mut HashSet<u32>,
        records: &mut u64,
    ) -> DcResult<()> {
        let id = entry.child;
        if !seen.insert(id.0) {
            return Err(DcError::Corrupt(format!("{id:?} reachable via two paths")));
        }
        let node = self.store.get(id)?;
        let fail = |msg: String| Err(DcError::Corrupt(format!("{id:?}: {msg}")));

        if node.blocks == 0 {
            return fail("zero blocks".into());
        }

        let cap = capacity(self.config(), &node) * node.blocks as usize;
        if node.len() > cap {
            return fail(format!("{} members exceed capacity {cap}", node.len()));
        }
        path.push(entry.mds.clone());
        let result = (|| {
            match &node.kind {
                NodeKind::Data(stored) => {
                    if path.len() != self.height() {
                        return fail(format!(
                            "data node on level {} of a tree of height {}",
                            path.len(),
                            self.height()
                        ));
                    }
                    let mut summary = MeasureSummary::empty();
                    for r in stored.iter() {
                        for (depth, mds) in path.iter().enumerate() {
                            if !mds.contains_record(self.schema(), &r.record)? {
                                return fail(format!(
                                    "record {:?} escapes the MDS at path depth {depth}",
                                    r.id
                                ));
                            }
                        }
                        summary.add(r.record.measure);
                    }
                    if summary != entry.summary {
                        return fail("summary does not equal the fold of the records".into());
                    }
                    *records += stored.len() as u64;
                }
                NodeKind::Dir(entries) => {
                    if entries.is_empty() {
                        return fail("directory node without entries".into());
                    }
                    let mut summary = MeasureSummary::empty();
                    for e in entries.iter() {
                        summary.merge(&e.summary);
                        self.check_node(e, path, seen, records)?;
                    }
                    if summary != entry.summary {
                        return fail("summary does not equal the fold of the entries".into());
                    }
                }
            }
            Ok(())
        })();
        path.pop();
        result
    }
}
