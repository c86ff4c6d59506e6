//! Choose-subtree (Fig. 4) and the writer's **membership index** that
//! answers it.
//!
//! Choose-subtree asks, for every entry of a directory node and every
//! dimension, one question: does the entry's set already hold the record's
//! ancestor on the entry's relevant level? The answers form one bitset per
//! dimension over the node's entries (a *holder row*); the covering entries
//! are the AND of the rows, and every tie-breaker of the non-covering case
//! is a popcount of a row plus the entries' set lengths.
//!
//! Every directory node a descent passes keeps a [`NodeMembers`] index:
//! per dimension, value → bitset of the entries holding it, on node-local
//! entry positions (the layout of the split kernel's bitsets). A row is the
//! OR of the bitsets of the record's ancestors on the levels the node's
//! sets use, so a descent reads only the entries that cover the record
//! instead of every entry. The index is built on a node's first descent.
//!
//! The index belongs to the writer alone. It is keyed by [`NodeId`], so it
//! serves any [`NodeStore`](crate::NodeStore); it is patched where an
//! insertion extends the chosen entry and where a split child's entry is
//! refreshed and its sibling appended, and forgotten on every other
//! mutation of the node's entries and on `free` (a bulk build starts from a
//! lone root and frees it; `rebuild` starts a fresh tree). A clone of the
//! tree — the snapshot a serving engine publishes — starts without it, and
//! nothing of it is persisted.

use std::collections::HashMap;

use dc_common::id::MAX_LEVEL;
use dc_common::{DcResult, ValueId};
use dc_hierarchy::{CubeSchema, Record};
use dc_mds::Mds;

use crate::node::{DirEntry, Members, NodeId};

/// Slots per dimension in the record's ancestor table: one per level.
const LEVELS: usize = MAX_LEVEL as usize + 1;

/// The writer's per-node membership indexes plus the scratch one
/// choose-subtree reuses. Cloning yields an empty index: a snapshot never
/// carries the writer's.
#[derive(Default)]
pub(crate) struct MembershipIndex {
    nodes: HashMap<NodeId, NodeMembers>,
    /// The record's ancestor per `(dimension, level)`.
    ancestors: Vec<ValueId>,
    /// Holder rows, one per dimension.
    rows: Vec<u64>,
    /// Split-child adoptions patched into an index (tests assert the path
    /// is reached).
    #[cfg(test)]
    pub(crate) patched_adoptions: u64,
}

impl Clone for MembershipIndex {
    fn clone(&self) -> Self {
        MembershipIndex::default()
    }
}

impl std::fmt::Debug for MembershipIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MembershipIndex")
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

impl MembershipIndex {
    /// Chooses the entry of directory node `id` to descend into for
    /// `record` and extends that entry's MDS to cover the record (keeping
    /// its relevant levels), patching the node's index — built first if
    /// the node has none.
    pub(crate) fn choose_and_extend(
        &mut self,
        id: NodeId,
        schema: &CubeSchema,
        entries: &mut Members<DirEntry>,
        record: &Record,
    ) -> DcResult<usize> {
        debug_assert!(!entries.is_empty(), "directory node without entries");
        let d = schema.num_dims();
        self.ancestors.clear();
        self.ancestors
            .resize(d * LEVELS, ValueId::new(MAX_LEVEL, 0));
        for (dim, (h, &leaf)) in schema.dims().zip(&record.dims).enumerate() {
            for level in leaf.level()..=h.top_level() {
                self.ancestors[dim * LEVELS + usize::from(level)] = h.ancestor_at(leaf, level)?;
            }
        }
        let members = self
            .nodes
            .entry(id)
            .or_insert_with(|| NodeMembers::build(entries, d));
        let words = members.words;
        self.rows.clear();
        self.rows.resize(d * words, 0);
        for (dim, (dm, row)) in members
            .dims
            .iter()
            .zip(self.rows.chunks_mut(words))
            .enumerate()
        {
            dm.holders(&self.ancestors[dim * LEVELS..][..LEVELS], words, row);
        }
        if let Some(i) = best_covering(entries, covering_bits(&self.rows, words)) {
            return Ok(i);
        }
        let choice = least_overlap(entries, &self.rows, words);

        // Extend the chosen entry wherever it lacks the record's ancestor.
        let (word, bit) = (choice / 64, 1u64 << (choice % 64));
        let mds = &mut entries[choice].mds;
        for dim in 0..d {
            if self.rows[dim * words + word] & bit == 0 {
                let set = mds.dim_mut(dim);
                let anc = self.ancestors[dim * LEVELS + usize::from(set.level())];
                set.insert(anc);
                members.dims[dim].add(anc, choice, words);
            }
        }
        Ok(choice)
    }

    /// Entry `pos` of node `id` changes from `old` to `new` (a split
    /// child's refreshed entry).
    pub(crate) fn replace_entry(&mut self, id: NodeId, pos: usize, old: &Mds, new: &Mds) {
        if let Some(m) = self.nodes.get_mut(&id) {
            for (dm, set) in m.dims.iter_mut().zip(old.dims()) {
                for &v in set.values() {
                    dm.remove(v, pos, m.words);
                }
            }
            m.insert(pos, new);
            #[cfg(test)]
            {
                self.patched_adoptions += 1;
            }
        }
    }

    /// `mds` is appended to node `id` as entry `pos` (a split child's new
    /// sibling).
    pub(crate) fn append_entry(&mut self, id: NodeId, pos: usize, mds: &Mds) {
        if let Some(m) = self.nodes.get_mut(&id) {
            if pos >= m.words * 64 {
                m.widen(pos / 64 + 2);
            }
            m.insert(pos, mds);
        }
    }

    /// Drops node `id`'s index: its entries changed in a way no patch
    /// follows, or the node is gone.
    pub(crate) fn forget(&mut self, id: NodeId) {
        self.nodes.remove(&id);
    }
}

/// One directory node's index: per dimension, which entries hold which
/// value. Rows are `words` words wide, entry `i` is bit `i`.
struct NodeMembers {
    words: usize,
    dims: Vec<DimMembers>,
}

/// One dimension of a [`NodeMembers`].
struct DimMembers {
    /// Bit `l` set when some entry's set sits on level `l` (a superset
    /// after removals, which only costs a lookup that finds nothing).
    levels: u16,
    /// The values held, sorted, and the bitset row each one owns.
    keys: Vec<ValueId>,
    slots: Vec<u32>,
    /// Rows of `words` words, by slot.
    bits: Vec<u64>,
}

impl NodeMembers {
    fn build(entries: &Members<DirEntry>, num_dims: usize) -> Self {
        // Room for at least one sibling a child split appends; `widen`
        // makes more.
        let words = entries.len() / 64 + 1;
        let mut pairs: Vec<(ValueId, usize)> = Vec::new();
        let dims = (0..num_dims)
            .map(|dim| {
                pairs.clear();
                let mut levels = 0u16;
                for (i, e) in entries.iter().enumerate() {
                    let set = e.mds.dim(dim);
                    levels |= 1 << set.level();
                    pairs.extend(set.values().iter().map(|&v| (v, i)));
                }
                pairs.sort_unstable();
                let mut dm = DimMembers {
                    levels,
                    keys: Vec::new(),
                    slots: Vec::new(),
                    bits: Vec::new(),
                };
                for &(v, i) in &pairs {
                    if dm.keys.last() != Some(&v) {
                        dm.slots.push(dm.keys.len() as u32);
                        dm.keys.push(v);
                        dm.bits.resize(dm.bits.len() + words, 0);
                    }
                    let slot = dm.keys.len() - 1;
                    dm.bits[slot * words + i / 64] |= 1 << (i % 64);
                }
                dm
            })
            .collect();
        NodeMembers { words, dims }
    }

    /// Records every value of `mds` as held by entry `pos`.
    fn insert(&mut self, pos: usize, mds: &Mds) {
        for (dm, set) in self.dims.iter_mut().zip(mds.dims()) {
            for &v in set.values() {
                dm.add(v, pos, self.words);
            }
        }
    }

    /// Re-lays every row out `words` wide.
    fn widen(&mut self, words: usize) {
        for dm in &mut self.dims {
            let mut bits = vec![0; dm.keys.len() * words];
            for (to, from) in bits.chunks_mut(words).zip(dm.bits.chunks(self.words)) {
                to[..from.len()].copy_from_slice(from);
            }
            dm.bits = bits;
        }
        self.words = words;
    }
}

impl DimMembers {
    fn row_of(&self, v: ValueId) -> Option<usize> {
        self.keys
            .binary_search(&v)
            .ok()
            .map(|p| self.slots[p] as usize)
    }

    fn add(&mut self, v: ValueId, entry: usize, words: usize) {
        let slot = match self.keys.binary_search(&v) {
            Ok(p) => self.slots[p] as usize,
            Err(p) => {
                let slot = self.bits.len() / words;
                self.keys.insert(p, v);
                self.slots.insert(p, slot as u32);
                self.bits.resize(self.bits.len() + words, 0);
                self.levels |= 1 << v.level();
                slot
            }
        };
        self.bits[slot * words + entry / 64] |= 1 << (entry % 64);
    }

    fn remove(&mut self, v: ValueId, entry: usize, words: usize) {
        if let Some(slot) = self.row_of(v) {
            self.bits[slot * words + entry / 64] &= !(1 << (entry % 64));
        }
    }

    /// ORs into `row` the entries holding the record's ancestor on their
    /// own level; `ancestors[l]` is that ancestor on level `l`.
    fn holders(&self, ancestors: &[ValueId], words: usize, row: &mut [u64]) {
        let mut levels = self.levels;
        while levels != 0 {
            let level = levels.trailing_zeros() as usize;
            levels &= levels - 1;
            if let Some(slot) = self.row_of(ancestors[level]) {
                for (r, b) in row.iter_mut().zip(&self.bits[slot * words..][..words]) {
                    *r |= b;
                }
            }
        }
    }
}

/// The entries set in every holder row (`words` words per dimension).
fn covering_bits(rows: &[u64], words: usize) -> impl Iterator<Item = usize> + '_ {
    (0..words).flat_map(move |w| {
        let mut bits = rows.chunks(words).fold(!0u64, |acc, row| acc & row[w]);
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                i
            })
        })
    })
}

/// Among the `covering` entries (ascending), the one of smallest volume,
/// then size; ties go to the first.
fn best_covering(
    entries: &Members<DirEntry>,
    covering: impl Iterator<Item = usize>,
) -> Option<usize> {
    covering.min_by_key(|&i| (entries[i].mds.volume(), entries[i].mds.size(), i))
}

/// When no entry covers the record: the entry whose extension creates the
/// least overlap with its siblings, then the least volume enlargement, the
/// smallest volume and the smallest size — the order of
/// [`reference_choose`]; ties go to the first entry. Bit `i` of holder row
/// `dim` says entry `i` holds the record's ancestor in `dim`.
///
/// The overlap criterion uses a linear-time surrogate: inserting the record
/// adds, per dimension, its ancestor on the entry's relevant level; each
/// sibling already holding that value is a newly shared value, i.e.
/// prospective overlap. It is read off the rows alone, so only the entries
/// tied on it are read.
fn least_overlap(entries: &Members<DirEntry>, rows: &[u64], words: usize) -> usize {
    let holders: Vec<usize> = rows
        .chunks(words)
        .map(|row| row.iter().map(|w| w.count_ones() as usize).sum())
        .collect();
    let held = |i: usize, dim: usize| rows[dim * words + i / 64] & (1 << (i % 64)) != 0;
    let penalty = |i: usize| -> usize {
        (0..holders.len())
            .filter(|&dim| !held(i, dim))
            .map(|dim| holders[dim])
            .sum()
    };
    let least = (0..entries.len())
        .map(penalty)
        .min()
        .expect("non-empty entries");
    (0..entries.len())
        .filter(|&i| penalty(i) == least)
        .min_by_key(|&i| {
            let (mut volume, mut grown) = (1u128, 1u128);
            for (dim, set) in entries[i].mds.dims().enumerate() {
                let len = set.len() as u128;
                volume = volume.saturating_mul(len);
                grown = grown.saturating_mul(len + u128::from(!held(i, dim)));
            }
            (grown - volume, volume, entries[i].mds.size(), i)
        })
        .expect("the least penalty is some entry's")
}

/// Choose-subtree as a linear scan over the entries, the way it ran before
/// the membership index: prefer entries already covering the record
/// (smallest volume wins); otherwise minimize the prospective overlap with
/// sibling entries (the X-tree's criterion), then the volume enlargement,
/// the volume, and the size. Kept as the oracle every indexed choice is
/// asserted equal to.
#[cfg(test)]
pub(crate) fn reference_choose(
    schema: &CubeSchema,
    entries: &Members<DirEntry>,
    record: &Record,
) -> DcResult<usize> {
    debug_assert!(!entries.is_empty(), "directory node without entries");
    let mut best_covering: Option<(u128, usize, usize)> = None;
    for (i, e) in entries.iter().enumerate() {
        if e.mds.contains_record(schema, record)? {
            let key = (e.mds.volume(), e.mds.size(), i);
            if best_covering.is_none_or(|b| key < b) {
                best_covering = Some(key);
            }
        }
    }
    if let Some((_, _, i)) = best_covering {
        return Ok(i);
    }

    // Per (entry, dim): does the entry already hold the record's
    // ancestor on its relevant level? One pass, reused below.
    let d = schema.num_dims();
    let mut holds = vec![false; entries.len() * d];
    let mut holders_per_dim = vec![0usize; d];
    for (i, e) in entries.iter().enumerate() {
        for (dim, h) in schema.dims().enumerate() {
            let anc = h.ancestor_at(record.dims[dim], e.mds.dim(dim).level())?;
            if e.mds.dim(dim).contains_value(anc) {
                holds[i * d + dim] = true;
                holders_per_dim[dim] += 1;
            }
        }
    }

    let mut best: Option<(usize, u128, u128, usize, usize)> = None;
    for (i, e) in entries.iter().enumerate() {
        // Newly shared values this insertion would create: for every
        // dimension whose ancestor the entry lacks, all sibling entries
        // already holding it become overlap partners.
        let mut overlap_penalty = 0usize;
        for dim in 0..d {
            if !holds[i * d + dim] {
                overlap_penalty += holders_per_dim[dim];
            }
        }
        let enlargement = e.mds.enlargement_for_record(schema, record)?;
        let key = (
            overlap_penalty,
            enlargement,
            e.mds.volume(),
            e.mds.size(),
            i,
        );
        if best.is_none_or(|b| key < b) {
            best = Some(key);
        }
    }
    Ok(best.expect("non-empty entries").4)
}

#[cfg(test)]
mod tests {
    use dc_hierarchy::HierarchySchema;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::node::NodeKind;
    use crate::{DcTree, DcTreeConfig};

    /// Three dimensions of three, two and one functional attributes.
    fn schema() -> dc_hierarchy::CubeSchema {
        dc_hierarchy::CubeSchema::new(
            vec![
                HierarchySchema::new("D0", vec!["A".into(), "B".into(), "C".into()]),
                HierarchySchema::new("D1", vec!["Y".into(), "M".into()]),
                HierarchySchema::new("D2", vec!["P".into()]),
            ],
            "m",
        )
    }

    /// A record over `spread` values per level: a small spread makes every
    /// entry overlap every other (failed splits, supernodes), a large one
    /// lets splits descend the hierarchies.
    fn paths(rng: &mut StdRng, spread: u32) -> [Vec<String>; 3] {
        let mut pick = |n: u32| rng.gen_range(0..n.max(1));
        let (a, b, c) = (pick(spread), pick(spread), pick(4 * spread));
        let (y, m, p) = (pick(spread), pick(3 * spread), pick(8 * spread));
        [
            vec![
                format!("a{a}"),
                format!("a{a}b{b}"),
                format!("a{a}b{b}c{c}"),
            ],
            vec![format!("y{y}"), format!("y{y}m{m}")],
            vec![format!("p{p}")],
        ]
    }

    /// What one stream exercised.
    #[derive(Default, Debug)]
    struct Reached {
        patched_adoptions: u64,
        supernode_growths: u64,
        /// A directory node whose entries sit on different levels in one
        /// dimension (lazy refinement).
        mixed_levels: bool,
        /// Nodes allocated into slots a `free` released.
        reused_slots: bool,
    }

    /// Runs a stream of single inserts, batches and deletes. Every descent
    /// asserts its indexed choice equal to [`super::reference_choose`]
    /// (see `DcTree::insert_run_rec`); the tree's invariants and contents
    /// are checked at the end.
    fn run_stream(seed: u64, dir_capacity: usize, steps: usize) -> Reached {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = DcTreeConfig {
            dir_capacity,
            data_capacity: rng.gen_range(4..=8),
            max_supernode_blocks: 16,
            ..DcTreeConfig::default()
        };
        let mut tree = DcTree::new(schema(), config);
        let mut live = Vec::new();
        let mut reached = Reached::default();
        for step in 0..steps {
            // Phases alternate overlapping and spread-out data.
            let spread = if (step / 150) % 2 == 0 { 2 } else { 6 };
            match rng.gen_range(0..10) {
                0..=5 => {
                    let p = paths(&mut rng, spread);
                    let measure = rng.gen_range(-50..50);
                    tree.insert_raw(&p, measure).unwrap();
                    live.push(dc_hierarchy::Record::new(
                        tree.intern_paths(&p).unwrap(),
                        measure,
                    ));
                }
                6 => {
                    let batch: Vec<_> = (0..rng.gen_range(1..24))
                        .map(|_| {
                            let p = paths(&mut rng, spread);
                            dc_hierarchy::Record::new(
                                tree.intern_paths(&p).unwrap(),
                                rng.gen_range(-50..50),
                            )
                        })
                        .collect();
                    live.extend(batch.iter().cloned());
                    tree.insert_batch(batch).unwrap();
                }
                _ if !live.is_empty() => {
                    let victim = live.swap_remove(rng.gen_range(0..live.len()));
                    assert!(tree.delete(&victim).unwrap());
                }
                _ => {}
            }
            let free = tree.store.free_slots();
            if free > 0 {
                let p = paths(&mut rng, spread);
                let measure = rng.gen_range(-50..50);
                let nodes = tree.num_nodes();
                tree.insert_raw(&p, measure).unwrap();
                live.push(dc_hierarchy::Record::new(
                    tree.intern_paths(&p).unwrap(),
                    measure,
                ));
                reached.reused_slots |= tree.num_nodes() > nodes && tree.store.free_slots() < free;
            }
            if step % 25 == 0 {
                tree.for_each_node(|_, _, node| {
                    if let NodeKind::Dir(entries) = &node.kind {
                        reached.mixed_levels |= (0..3).any(|d| {
                            let level = entries[0].mds.dim(d).level();
                            entries.iter().any(|e| e.mds.dim(d).level() != level)
                        });
                    }
                })
                .unwrap();
            }
        }
        tree.check_invariants().unwrap();
        assert_eq!(tree.len(), live.len() as u64);
        reached.patched_adoptions = tree.members.patched_adoptions;
        reached.supernode_growths = tree.metrics().supernode_growths;
        reached
    }

    /// One fixed stream reaches every path the index has: adoptions
    /// patched into an index, supernode growth, entries on mixed
    /// levels, and slots reused after `free`.
    #[test]
    fn a_stream_reaches_every_index_path() {
        let r = run_stream(7, 4, 1500);
        assert!(r.patched_adoptions > 0, "{r:?}");
        assert!(r.supernode_growths > 0, "{r:?}");
        assert!(r.mixed_levels, "{r:?}");
        assert!(r.reused_slots, "{r:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Insert/delete streams at directory capacities 4–16: every
        /// indexed choose-subtree equals the linear scan.
        #[test]
        fn indexed_choices_equal_the_scan(
            seed in any::<u64>(),
            dir_capacity in 4usize..=16,
            steps in 300usize..=900,
        ) {
            run_stream(seed, dir_capacity, steps);
        }
    }
}
