//! The **hierarchy split** (§4.3, Fig. 6).
//!
//! A quadratic-split in the tradition of Guttman's R-tree, re-engineered
//! around the partial ordering of the concept hierarchies:
//!
//! 1. the covering MDS of every pair of members is computed and the pair
//!    with the *largest* cover becomes the two seeds;
//! 2. in every round, the member with the **greatest difference between the
//!    enlargements of the two groups in the split dimension** is assigned
//!    next — splitting along a split dimension aims at two groups with
//!    *disjoint attribute values* in that dimension;
//! 3. the member joins the group yielding the **minimum resulting overlap**
//!    between the groups; ties prefer the group "sharing as many
//!    attribute values as possible in the split dimension" (§4.3) and then
//!    fall back to the minimum sum of extensions and the minimum sum of
//!    volumes (Fig. 6's tie chain).
//!
//! Because all members of a node sit on the *same* relevant level, set
//! cardinalities alone cannot see that two values share a parent concept
//! while two others do not (e.g. {Germany, France} and {Germany, Japan} are
//! both two-element nation sets). Wherever Fig. 6's metrics tie, we
//! therefore consult the split dimension **one level up the hierarchy**:
//! the pair spanning more parent concepts is the "larger" seed pair, and a
//! member preferably joins the group with which it shares parent concepts.
//! This is exactly the partial-order information the DC-tree is built to
//! exploit (Fig. 2's discussion of partial versus total orderings).
//!
//! The function operates on *aligned* members: the caller (the DC-tree's
//! insert path) has already adapted every member MDS to the splitting node's
//! MDS — "all MDSs corresponding to the entries of a node have to be
//! comparable to each other" (§4.2).

use dc_common::{DcResult, Level, ValueId};
use dc_hierarchy::CubeSchema;
use dc_mds::{DimSet, Mds};

/// Result of a hierarchy split: member indices and covering MDS per group.
#[derive(Clone, Debug)]
pub struct SplitOutcome {
    /// Indices (into the input slice) assigned to the first group.
    pub group1: Vec<usize>,
    /// Indices assigned to the second group.
    pub group2: Vec<usize>,
    /// Covering MDS of the first group.
    pub cover1: Mds,
    /// Covering MDS of the second group.
    pub cover2: Mds,
}

impl SplitOutcome {
    /// Size of the smaller group.
    pub fn min_group_len(&self) -> usize {
        self.group1.len().min(self.group2.len())
    }

    /// `overlap(G1, G2) / extension(G1, G2)` — the quantity tested against
    /// the acceptance threshold ("overlap is not too high", Fig. 5).
    /// Zero when the extension is zero (degenerate).
    pub fn overlap_ratio(&self) -> f64 {
        let ext = self.cover1.extension(&self.cover2);
        if ext == 0 {
            return 0.0;
        }
        self.cover1.overlap(&self.cover2) as f64 / ext as f64
    }
}

/// Beyond this many members the seed scan and Decision 1 stop being
/// quadratic (only reachable inside large supernodes, where every retry
/// would cost O(n²·d)) and switch to Guttman's *linear* variants.
const QUADRATIC_LIMIT: usize = 128;

/// Members whose split-dimension set was recomputed from their subtree
/// during one split attempt: `(member index, refined set)`.
pub(crate) type Refinements = Vec<(usize, DimSet)>;

/// Adapts the members of a splitting node for one attempt along `split_dim`
/// on `level`: every other dimension goes to its alignment level, and the
/// split dimension to `level` — members stored coarser than that are
/// *refined* through `refine(member index)`, which recomputes their extent
/// from the subtree. Returns the aligned members and the refinements made,
/// which the caller commits only if the attempt is accepted.
pub(crate) fn align_members(
    schema: &CubeSchema,
    members: &[Mds],
    align_levels: &[Level],
    split_dim: usize,
    level: Level,
    mut refine: impl FnMut(usize) -> DcResult<DimSet>,
) -> DcResult<(Vec<Mds>, Refinements)> {
    let mut aligned = Vec::with_capacity(members.len());
    let mut refinements = Vec::new();
    for (i, m) in members.iter().enumerate() {
        let mut dims = Vec::with_capacity(m.num_dims());
        for (k, (set, h)) in m.dims().zip(schema.dims()).enumerate() {
            dims.push(if k != split_dim {
                set.adapt_to(h, align_levels[k])?
            } else if set.level() > level {
                let refined = refine(i)?;
                refinements.push((i, refined.clone()));
                refined
            } else {
                set.adapt_to(h, level)?
            });
        }
        aligned.push(Mds::new(dims));
    }
    Ok((aligned, refinements))
}

/// Whether `members` members are **connected** in one dimension, given
/// `(value, member)` pairs for the values each member holds there: the
/// bipartite graph joining every member to its values has one component.
/// Reorders `pairs`.
///
/// Connected members cannot be split without overlap in that dimension:
/// any two non-empty groups have some value in both covers, since a path
/// from a member of one group to a member of the other crosses a value
/// held on both sides. Members connected in *every* dimension therefore
/// give every grouping an overlap of at least 1 — a ratio above 0. Extra
/// values only join components, so members connected on subsets of their
/// values are connected on the full sets.
pub(crate) fn connected(members: usize, pairs: &mut [(ValueId, u32)]) -> bool {
    fn root(parent: &mut [u32], mut i: u32) -> u32 {
        while parent[i as usize] != i {
            parent[i as usize] = parent[parent[i as usize] as usize];
            i = parent[i as usize];
        }
        i
    }
    let mut parent: Vec<u32> = (0..members as u32).collect();
    let mut components = members;
    pairs.sort_unstable();
    for w in pairs.windows(2) {
        if w[0].0 == w[1].0 {
            let (a, b) = (root(&mut parent, w[0].1), root(&mut parent, w[1].1));
            if a != b {
                parent[a as usize] = b;
                components -= 1;
            }
        }
    }
    components <= 1
}

/// The members of one split attempt as **node-local dense bitsets**.
///
/// Per dimension — and, as one more *plane*, for the split dimension seen
/// one level up — every value is ranked among the sorted union of the
/// members' values, so a plane is as wide as what the node holds, never as
/// the level's cardinality. A *row* is the concatenation of all planes;
/// rows `0..n` are the members and rows `n`, `n + 1` the two running
/// covers. Every quantity of Definition 4 is then a popcount of an OR/AND
/// over a plane.
struct Bitsets {
    /// Number of cube dimensions; plane `dims` is the parent view.
    dims: usize,
    /// Word range of plane `k` within a row: `plane_off[k]..plane_off[k + 1]`.
    plane_off: Vec<usize>,
    /// Rank → value of plane `k < dims`: `universe[rank_off[k]..rank_off[k + 1]]`.
    universe: Vec<ValueId>,
    rank_off: Vec<usize>,
    /// `(members + 2)` rows of `plane_off[dims + 1]` words each.
    words: Vec<u64>,
}

impl Bitsets {
    fn new(schema: &CubeSchema, members: &[Mds], split_dim: usize) -> DcResult<Self> {
        let dims = members[0].num_dims();
        let mut universe = Vec::new();
        let mut rank_off = vec![0];
        let mut plane_off = vec![0];
        let mut values = Vec::new();
        for k in 0..dims {
            values.clear();
            for m in members {
                values.extend_from_slice(m.dim(k).values());
            }
            values.sort_unstable();
            values.dedup();
            universe.extend_from_slice(&values);
            rank_off.push(universe.len());
            plane_off.push(plane_off[k] + values.len().div_ceil(64));
        }

        // The split dimension one level up: used for all hierarchy-aware
        // tie-breaking. At the top level the parent view degenerates to ALL
        // and stops discriminating, which is fine. `parent_rank` maps a
        // rank in the split plane to its parent's rank in the parent plane.
        let h = schema
            .dims()
            .nth(split_dim)
            .expect("split dimension within schema");
        let parent_level = (members[0].dim(split_dim).level() + 1).min(h.top_level());
        let split_universe = &universe[rank_off[split_dim]..rank_off[split_dim + 1]];
        let mut parent_of = Vec::with_capacity(split_universe.len());
        for &v in split_universe {
            parent_of.push(h.ancestor_at(v, parent_level)?);
        }
        values.clone_from(&parent_of);
        values.sort_unstable();
        values.dedup();
        let parent_rank: Vec<usize> = parent_of
            .iter()
            .map(|p| values.binary_search(p).expect("parent ranked above"))
            .collect();
        plane_off.push(plane_off[dims] + values.len().div_ceil(64));

        let stride = plane_off[dims + 1];
        let mut words = vec![0u64; (members.len() + 2) * stride];
        for (i, m) in members.iter().enumerate() {
            let row = &mut words[i * stride..][..stride];
            for k in 0..dims {
                let ranks = &universe[rank_off[k]..rank_off[k + 1]];
                let mut rank = 0;
                for v in m.dim(k).values() {
                    // Both sides are sorted: search only past the last hit.
                    rank += ranks[rank..]
                        .binary_search(v)
                        .expect("member value in the union of member values");
                    set_bit(&mut row[plane_off[k]..], rank);
                    if k == split_dim {
                        set_bit(&mut row[plane_off[dims]..], parent_rank[rank]);
                    }
                    rank += 1;
                }
            }
        }
        Ok(Bitsets {
            dims,
            plane_off,
            universe,
            rank_off,
            words,
        })
    }

    fn stride(&self) -> usize {
        self.plane_off[self.dims + 1]
    }

    /// Plane `k` of row `row`.
    fn plane(&self, row: usize, k: usize) -> &[u64] {
        let base = row * self.stride();
        &self.words[base + self.plane_off[k]..base + self.plane_off[k + 1]]
    }

    /// `cover |= member` in every plane; cover rows come after member rows.
    fn absorb(&mut self, cover: usize, member: usize) {
        let stride = self.stride();
        let (lower, upper) = self.words.split_at_mut(cover * stride);
        for (c, m) in upper[..stride]
            .iter_mut()
            .zip(&lower[member * stride..][..stride])
        {
            *c |= *m;
        }
    }

    /// `Π_k f(k)` over the cube dimensions, saturating like [`Mds::volume`].
    fn product(&self, f: impl Fn(usize) -> usize) -> u128 {
        (0..self.dims).fold(1u128, |acc, k| acc.saturating_mul(f(k) as u128))
    }

    /// `volume(row)`.
    fn volume(&self, row: usize) -> u128 {
        self.product(|k| count(self.plane(row, k)))
    }

    /// `volume(a ∪ b)`.
    fn union_volume(&self, a: usize, b: usize) -> u128 {
        self.product(|k| or_count(self.plane(a, k), self.plane(b, k)))
    }

    /// `overlap(a ∪ b, c)`.
    fn union_overlap(&self, a: usize, b: usize, c: usize) -> u128 {
        self.product(|k| {
            self.plane(a, k)
                .iter()
                .zip(self.plane(b, k))
                .zip(self.plane(c, k))
                .map(|((a, b), c)| ((a | b) & c).count_ones() as usize)
                .sum()
        })
    }

    /// Turns a row back into an MDS on the members' levels.
    fn to_mds(&self, row: usize, levels: &[Level]) -> Mds {
        Mds::new(
            (0..self.dims)
                .map(|k| {
                    let ranks = &self.universe[self.rank_off[k]..self.rank_off[k + 1]];
                    let mut values = Vec::with_capacity(count(self.plane(row, k)));
                    for (w, &word) in self.plane(row, k).iter().enumerate() {
                        let mut rest = word;
                        while rest != 0 {
                            values.push(ranks[w * 64 + rest.trailing_zeros() as usize]);
                            rest &= rest - 1;
                        }
                    }
                    DimSet::new(levels[k], values)
                })
                .collect(),
        )
    }
}

fn set_bit(plane: &mut [u64], rank: usize) {
    plane[rank / 64] |= 1 << (rank % 64);
}

fn count(a: &[u64]) -> usize {
    a.iter().map(|w| w.count_ones() as usize).sum()
}

fn or_count(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(a, b)| (a | b).count_ones() as usize)
        .sum()
}

fn and_count(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(a, b)| (a & b).count_ones() as usize)
        .sum()
}

/// Runs the hierarchy split of Fig. 6 over aligned member MDSs.
///
/// Returns `Ok(None)` when fewer than two members exist (nothing to split).
///
/// `min_group` is Guttman's minimum-fill parameter: the hierarchy split "is
/// based on the quadratic split of [Guttman 1984]", whose assignment loop
/// force-assigns all remaining members to a group once the other group could
/// no longer reach the minimum — without this rule the greedy min-overlap
/// criterion degenerates to n−1 : 1 partitions on homogeneous members. The
/// caller still *checks* balance and overlap afterwards and rejects
/// (→ supernode) when the forced assignment spoiled the split.
///
/// All set algebra runs word-parallel on `Bitsets` built once per call;
/// the covers are turned back into MDSs at the end.
pub fn hierarchy_split(
    schema: &CubeSchema,
    members: &[Mds],
    split_dim: usize,
    min_group: usize,
) -> DcResult<Option<SplitOutcome>> {
    if members.len() < 2 {
        return Ok(None);
    }
    let mut sets = Bitsets::new(schema, members, split_dim)?;
    let parents = sets.dims;
    // Rows of the two running covers.
    let (c1, c2) = (members.len(), members.len() + 1);

    // Seed selection: the pair with the largest covering MDS — volume first,
    // then the number of distinct parent concepts spanned in the split
    // dimension, then total size; index order keeps it deterministic.
    //
    // The exhaustive pair scan is quadratic; large inputs switch to
    // Guttman's *linear* seed heuristic: a double sweep picking the member
    // "farthest" from member 0 under the same key, then the member farthest
    // from that one.
    let seed_key = |i: usize, j: usize| {
        let (mut volume, mut size) = (1u128, 0usize);
        for k in 0..sets.dims {
            let len = or_count(sets.plane(i, k), sets.plane(j, k));
            volume = volume.saturating_mul(len as u128);
            size += len;
        }
        let spread = or_count(sets.plane(i, parents), sets.plane(j, parents));
        (volume, spread, size)
    };
    let (mut s1, mut s2) = (0usize, 1usize);
    if members.len() <= QUADRATIC_LIMIT {
        let mut best: Option<(u128, usize, usize)> = None;
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                let key = seed_key(i, j);
                if best.is_none_or(|b| key > b) {
                    best = Some(key);
                    (s1, s2) = (i, j);
                }
            }
        }
    } else {
        let far_from = |origin: usize| {
            (0..members.len())
                .filter(|&j| j != origin)
                .max_by_key(|&j| seed_key(origin.min(j), origin.max(j)))
                .expect("at least two members")
        };
        s1 = far_from(0);
        s2 = far_from(s1);
        if s1 == s2 {
            s2 = usize::from(s1 == 0);
        }
        if s1 > s2 {
            std::mem::swap(&mut s1, &mut s2);
        }
    }

    let mut group1 = vec![s1];
    let mut group2 = vec![s2];
    sets.absorb(c1, s1);
    sets.absorb(c2, s2);

    let mut remaining: Vec<usize> = (0..members.len()).filter(|&i| i != s1 && i != s2).collect();

    let total = members.len();
    let min_group = min_group.max(1);
    while !remaining.is_empty() {
        // Guttman's force-assignment: if one group must receive every
        // remaining member to reach the minimum fill, hand them over.
        // Symmetrically, stop a group from hoarding: once it can no longer
        // leave the other group its minimum share, route the rest there.
        let forced = if group2.len() + remaining.len() <= min_group {
            Some((&mut group2, c2))
        } else if group1.len() + remaining.len() <= min_group {
            Some((&mut group1, c1))
        } else if group1.len() >= total.saturating_sub(min_group) {
            Some((&mut group2, c2))
        } else if group2.len() >= total.saturating_sub(min_group) {
            Some((&mut group1, c1))
        } else {
            None
        };
        if let Some((group, cover)) = forced {
            for idx in remaining.drain(..) {
                group.push(idx);
                sets.absorb(cover, idx);
            }
            break;
        }
        // Decision 1 — which member next: greatest difference between the
        // enlargements of the two groups in the split dimension; the parent
        // level breaks ties among same-level singletons. Rescanning all
        // remaining members every round is quadratic, so beyond the same
        // limit as the seed scan the members are simply taken in input
        // order (Guttman's linear variant).
        let idx = if total <= QUADRATIC_LIMIT {
            let len = |row: usize, k: usize| count(sets.plane(row, k)) as i64;
            let (e1_base, e2_base) = (len(c1, split_dim), len(c2, split_dim));
            let (p1_base, p2_base) = (len(c1, parents), len(c2, parents));
            let grown = |cover: usize, idx: usize, k: usize| {
                or_count(sets.plane(cover, k), sets.plane(idx, k)) as i64
            };
            let mut pick = 0usize;
            let mut pick_key = (-1i64, -1i64);
            for (pos, &idx) in remaining.iter().enumerate() {
                let e1 = grown(c1, idx, split_dim) - e1_base;
                let e2 = grown(c2, idx, split_dim) - e2_base;
                let p1 = grown(c1, idx, parents) - p1_base;
                let p2 = grown(c2, idx, parents) - p2_base;
                let key = ((e1 - e2).abs(), (p1 - p2).abs());
                if key > pick_key {
                    pick_key = key;
                    pick = pos;
                }
            }
            remaining.swap_remove(pick)
        } else {
            remaining.pop().expect("non-empty remaining")
        };

        // Decision 2 — which group: minimum resulting overlap between the
        // groups; ties prefer the group sharing more parent concepts with
        // the member in the split dimension (§4.3), then the minimum sum of
        // extensions (covered volume after insertion), the minimum volume,
        // and finally the smaller group.
        let shared = |cover: usize| and_count(sets.plane(cover, parents), sets.plane(idx, parents));
        let (volume1, volume2) = (sets.volume(c1), sets.volume(c2));
        let key1 = (
            sets.union_overlap(c1, idx, c2),
            usize::MAX - shared(c1),
            sets.union_volume(c1, idx).saturating_add(volume2),
            volume1,
            group1.len(),
        );
        let key2 = (
            sets.union_overlap(c2, idx, c1),
            usize::MAX - shared(c2),
            volume1.saturating_add(sets.union_volume(c2, idx)),
            volume2,
            group2.len(),
        );
        if key1 <= key2 {
            group1.push(idx);
            sets.absorb(c1, idx);
        } else {
            group2.push(idx);
            sets.absorb(c2, idx);
        }
    }

    let levels = members[0].levels();
    Ok(Some(SplitOutcome {
        group1,
        group2,
        cover1: sets.to_mds(c1, &levels),
        cover2: sets.to_mds(c2, &levels),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_common::DimensionId;
    use dc_hierarchy::HierarchySchema;
    use proptest::prelude::*;
    use rand::prelude::*;

    /// The hierarchy split as it was before the bitset kernel: every union,
    /// overlap and volume a fresh sorted-`Vec` merge on [`Mds`] / [`DimSet`].
    /// Kept as the oracle the kernel must equal group for group and cover
    /// for cover.
    fn reference_split(
        schema: &CubeSchema,
        members: &[Mds],
        split_dim: usize,
        min_group: usize,
    ) -> DcResult<Option<SplitOutcome>> {
        if members.len() < 2 {
            return Ok(None);
        }

        // The split dimension one level up: used for all hierarchy-aware
        // tie-breaking. At the top level the parent view degenerates to ALL and
        // stops discriminating, which is fine.
        let h = schema
            .dims()
            .nth(split_dim)
            .expect("split dimension within schema");
        let level = members[0].dim(split_dim).level();
        let parent_level = (level + 1).min(h.top_level());
        let parent_sets: Vec<DimSet> = members
            .iter()
            .map(|m| m.dim(split_dim).adapt_to(h, parent_level))
            .collect::<DcResult<_>>()?;

        // Seed selection: the pair with the largest covering MDS — volume first,
        // then the number of distinct parent concepts spanned in the split
        // dimension, then total size; index order keeps it deterministic.
        //
        // The exhaustive pair scan is quadratic; beyond `QUADRATIC_LIMIT`
        // members (only reachable inside large supernodes) every retry would
        // cost O(n²·d), so large inputs switch to Guttman's *linear* seed
        // heuristic: a double sweep picking the member "farthest" from member
        // 0 under the same key, then the member farthest from that one.
        let seed_key = |i: usize, j: usize| {
            let cover = members[i].union_aligned(&members[j]);
            let spread = parent_sets[i].union_len(&parent_sets[j]);
            (cover.volume(), spread, cover.size())
        };
        let (mut s1, mut s2) = (0usize, 1usize);
        if members.len() <= QUADRATIC_LIMIT {
            let mut best: Option<(u128, usize, usize)> = None;
            for i in 0..members.len() {
                for j in (i + 1)..members.len() {
                    let key = seed_key(i, j);
                    if best.is_none_or(|b| key > b) {
                        best = Some(key);
                        (s1, s2) = (i, j);
                    }
                }
            }
        } else {
            let far_from = |origin: usize| {
                (0..members.len())
                    .filter(|&j| j != origin)
                    .max_by_key(|&j| seed_key(origin.min(j), origin.max(j)))
                    .expect("at least two members")
            };
            s1 = far_from(0);
            s2 = far_from(s1);
            if s1 == s2 {
                s2 = usize::from(s1 == 0);
            }
            if s1 > s2 {
                std::mem::swap(&mut s1, &mut s2);
            }
        }

        let mut group1 = vec![s1];
        let mut group2 = vec![s2];
        let mut cover1 = members[s1].clone();
        let mut cover2 = members[s2].clone();
        let mut parents1 = parent_sets[s1].clone();
        let mut parents2 = parent_sets[s2].clone();

        let mut remaining: Vec<usize> =
            (0..members.len()).filter(|&i| i != s1 && i != s2).collect();

        let total = members.len();
        while !remaining.is_empty() {
            // Guttman's force-assignment: if one group must receive every
            // remaining member to reach the minimum fill, hand them over.
            if group2.len() + remaining.len() <= min_group.max(1) {
                for idx in remaining.drain(..) {
                    group2.push(idx);
                    cover2 = cover2.union_aligned(&members[idx]);
                }
                break;
            }
            if group1.len() + remaining.len() <= min_group.max(1) {
                for idx in remaining.drain(..) {
                    group1.push(idx);
                    cover1 = cover1.union_aligned(&members[idx]);
                }
                break;
            }
            // Symmetrically, stop a group from hoarding: once it can no longer
            // leave the other group its minimum share, route the rest there.
            if group1.len() >= total.saturating_sub(min_group.max(1)) {
                for idx in remaining.drain(..) {
                    group2.push(idx);
                    cover2 = cover2.union_aligned(&members[idx]);
                }
                break;
            }
            if group2.len() >= total.saturating_sub(min_group.max(1)) {
                for idx in remaining.drain(..) {
                    group1.push(idx);
                    cover1 = cover1.union_aligned(&members[idx]);
                }
                break;
            }
            // Decision 1 — which member next: greatest difference between the
            // enlargements of the two groups in the split dimension; the parent
            // level breaks ties among same-level singletons. Rescanning all
            // remaining members every round is quadratic, so beyond the same
            // limit as the seed scan the members are simply taken in input
            // order (Guttman's linear variant).
            let idx = if total <= QUADRATIC_LIMIT {
                let mut pick = 0usize;
                let mut pick_key = (-1i64, -1i64);
                for (pos, &idx) in remaining.iter().enumerate() {
                    let m = members[idx].dim(split_dim);
                    let e1 = cover1.dim(split_dim).union_len(m) as i64
                        - cover1.dim(split_dim).len() as i64;
                    let e2 = cover2.dim(split_dim).union_len(m) as i64
                        - cover2.dim(split_dim).len() as i64;
                    let p = &parent_sets[idx];
                    let p1 = parents1.union_len(p) as i64 - parents1.len() as i64;
                    let p2 = parents2.union_len(p) as i64 - parents2.len() as i64;
                    let key = ((e1 - e2).abs(), (p1 - p2).abs());
                    if key > pick_key {
                        pick_key = key;
                        pick = pos;
                    }
                }
                remaining.swap_remove(pick)
            } else {
                remaining.pop().expect("non-empty remaining")
            };
            let m = &members[idx];

            // Decision 2 — which group: minimum resulting overlap between the
            // groups; ties prefer the group sharing more parent concepts with
            // the member in the split dimension (§4.3), then the minimum sum of
            // extensions (covered volume after insertion), the minimum volume,
            // and finally the smaller group.
            let grown1 = cover1.union_aligned(m);
            let grown2 = cover2.union_aligned(m);
            let shared1 = parents1.intersection_len(&parent_sets[idx]);
            let shared2 = parents2.intersection_len(&parent_sets[idx]);
            let key1 = (
                grown1.overlap(&cover2),
                usize::MAX - shared1,
                grown1.volume().saturating_add(cover2.volume()),
                cover1.volume(),
                group1.len(),
            );
            let key2 = (
                cover1.overlap(&grown2),
                usize::MAX - shared2,
                cover1.volume().saturating_add(grown2.volume()),
                cover2.volume(),
                group2.len(),
            );
            if key1 <= key2 {
                group1.push(idx);
                cover1 = grown1;
                parents1.union_with(&parent_sets[idx]);
            } else {
                group2.push(idx);
                cover2 = grown2;
                parents2.union_with(&parent_sets[idx]);
            }
        }

        Ok(Some(SplitOutcome {
            group1,
            group2,
            cover1,
            cover2,
        }))
    }

    /// Two dimensions: Customer (Region→Nation), Time (Year→Month).
    fn schema() -> CubeSchema {
        let mut s = CubeSchema::new(
            vec![
                HierarchySchema::new("Customer", vec!["Region".into(), "Nation".into()]),
                HierarchySchema::new("Time", vec!["Year".into(), "Month".into()]),
            ],
            "Price",
        );
        for (r, n) in [
            ("Europe", "Germany"),
            ("Europe", "France"),
            ("Europe", "Netherlands"),
            ("Asia", "Japan"),
            ("Asia", "China"),
            ("Asia", "India"),
        ] {
            for m in ["01", "02"] {
                s.intern_record(&[vec![r, n], vec!["1996", m]], 1).unwrap();
            }
        }
        s
    }

    fn nation(s: &CubeSchema, name: &str) -> ValueId {
        let h = s.dim(DimensionId(0));
        h.values_at(0)
            .find(|&v| h.name(v).unwrap() == name)
            .unwrap()
    }

    fn year(s: &CubeSchema) -> ValueId {
        s.dim(DimensionId(1)).lookup_path(&["1996"]).unwrap()
    }

    fn member(s: &CubeSchema, nations: &[&str]) -> Mds {
        Mds::new(vec![
            DimSet::new(0, nations.iter().map(|n| nation(s, n)).collect()),
            DimSet::new(1, vec![year(s)]),
        ])
    }

    #[test]
    fn splits_disjoint_clusters_cleanly() {
        let s = schema();
        // Three European and three Asian members — the hierarchy-aware
        // tie-breaking must keep the continents together.
        let members = vec![
            member(&s, &["Germany"]),
            member(&s, &["France"]),
            member(&s, &["Netherlands"]),
            member(&s, &["Japan"]),
            member(&s, &["China"]),
            member(&s, &["India"]),
        ];
        let out = hierarchy_split(&s, &members, 0, 2).unwrap().unwrap();
        assert_eq!(out.group1.len() + out.group2.len(), 6);
        assert_eq!(
            out.cover1.overlap(&out.cover2),
            0,
            "groups must be disjoint"
        );
        assert_eq!(out.overlap_ratio(), 0.0);
        let europe: Vec<usize> = vec![0, 1, 2];
        let in1 = europe.iter().all(|i| out.group1.contains(i));
        let in2 = europe.iter().all(|i| out.group2.contains(i));
        assert!(
            in1 || in2,
            "the European cluster must stay together: {out:?}"
        );
        assert_eq!(out.min_group_len(), 3);
    }

    #[test]
    fn seeds_are_the_pair_with_largest_cover() {
        let s = schema();
        // Germany/Japan span two regions (largest cover one level up);
        // France sits next to Germany. France must join Germany's group.
        let members = vec![
            member(&s, &["Germany"]),
            member(&s, &["France"]),
            member(&s, &["Japan"]),
        ];
        let out = hierarchy_split(&s, &members, 0, 1).unwrap().unwrap();
        let g_with_f = (out.group1.contains(&0) && out.group1.contains(&1))
            || (out.group2.contains(&0) && out.group2.contains(&1));
        assert!(g_with_f, "{out:?}");
    }

    #[test]
    fn overlapping_members_produce_valid_covers() {
        let s = schema();
        let members = vec![
            member(&s, &["Germany", "Japan"]),
            member(&s, &["Germany", "China"]),
            member(&s, &["France"]),
            member(&s, &["India"]),
        ];
        let out = hierarchy_split(&s, &members, 0, 2).unwrap().unwrap();
        assert_eq!(out.group1.len() + out.group2.len(), 4);
        for (&i, cover) in out
            .group1
            .iter()
            .map(|i| (i, &out.cover1))
            .chain(out.group2.iter().map(|i| (i, &out.cover2)))
        {
            assert!(members[i].contained_in(cover, &s).unwrap());
        }
    }

    #[test]
    fn single_member_cannot_split() {
        let s = schema();
        assert!(hierarchy_split(&s, &[member(&s, &["Germany"])], 0, 1)
            .unwrap()
            .is_none());
        assert!(hierarchy_split(&s, &[], 0, 1).unwrap().is_none());
    }

    #[test]
    fn two_members_become_the_two_groups() {
        let s = schema();
        let members = vec![member(&s, &["Germany"]), member(&s, &["Japan"])];
        let out = hierarchy_split(&s, &members, 0, 2).unwrap().unwrap();
        assert_eq!(out.group1, vec![0]);
        assert_eq!(out.group2, vec![1]);
        assert_eq!(out.cover1, members[0]);
        assert_eq!(out.cover2, members[1]);
    }

    #[test]
    fn region_level_members_split_disjointly() {
        let s = schema();
        let h = s.dim(DimensionId(0));
        let europe = h.lookup_path(&["Europe"]).unwrap();
        let asia = h.lookup_path(&["Asia"]).unwrap();
        let mk = |r: ValueId| {
            Mds::new(vec![
                DimSet::new(1, vec![r]),
                DimSet::new(1, vec![year(&s)]),
            ])
        };
        let members = vec![mk(europe), mk(asia), mk(europe), mk(asia)];
        let out = hierarchy_split(&s, &members, 0, 2).unwrap().unwrap();
        assert_eq!(out.cover1.overlap(&out.cover2), 0);
        assert_eq!(out.min_group_len(), 2);
    }

    const PROP_DIMS: usize = 5;
    const PROP_LEAVES: usize = 4096;

    /// Five dimensions of 4 096 leaves, 512 mids and 64 tops each.
    fn prop_schema() -> &'static CubeSchema {
        static SCHEMA: std::sync::OnceLock<CubeSchema> = std::sync::OnceLock::new();
        SCHEMA.get_or_init(|| {
            let mut s = CubeSchema::new(
                (0..PROP_DIMS)
                    .map(|d| {
                        HierarchySchema::new(
                            format!("D{d}"),
                            vec!["Top".into(), "Mid".into(), "Leaf".into()],
                        )
                    })
                    .collect(),
                "m",
            );
            for leaf in 0..PROP_LEAVES {
                let path = vec![
                    format!("t{}", leaf / 64),
                    format!("m{}", leaf / 8),
                    format!("l{leaf}"),
                ];
                s.intern_record(&vec![path; PROP_DIMS], 1).unwrap();
            }
            s
        })
    }

    /// Random aligned members over the first `levels.len()` dimensions of
    /// [`prop_schema`] (the rest pinned to ALL): per dimension, sets of
    /// 1…`max_len` values drawn from the first `pool` values of the level,
    /// so a small pool makes members share values.
    fn random_members(
        rng: &mut StdRng,
        n: usize,
        levels: &[Level],
        max_len: usize,
        pool: usize,
    ) -> Vec<Mds> {
        let s = prop_schema();
        let pools: Vec<Vec<ValueId>> = s
            .dims()
            .enumerate()
            .map(|(d, h)| match levels.get(d) {
                Some(&l) => h.values_at(l).take(pool).collect(),
                None => vec![h.all()],
            })
            .collect();
        (0..n)
            .map(|_| {
                Mds::new(
                    pools
                        .iter()
                        .map(|values| {
                            let len = rng.gen_range(1..=max_len);
                            let picked = (0..len)
                                .map(|_| values[rng.gen_range(0..values.len())])
                                .collect();
                            DimSet::new(values[0].level(), picked)
                        })
                        .collect(),
                )
            })
            .collect()
    }

    /// `(value, member)` pairs of aligned members in one dimension.
    fn pairs_of(members: &[Mds], dim: usize) -> Vec<(ValueId, u32)> {
        members
            .iter()
            .enumerate()
            .flat_map(|(i, m)| m.dim(dim).values().iter().map(move |&v| (v, i as u32)))
            .collect()
    }

    #[test]
    fn connectivity_joins_members_through_shared_values() {
        let s = schema();
        let chain = vec![
            member(&s, &["Germany", "France"]),
            member(&s, &["France", "Japan"]),
            member(&s, &["Japan"]),
        ];
        assert!(connected(3, &mut pairs_of(&chain, 0)));
        let apart = vec![member(&s, &["Germany"]), member(&s, &["Japan"])];
        assert!(!connected(2, &mut pairs_of(&apart, 0)));
        // The shared year connects them in the other dimension.
        assert!(connected(2, &mut pairs_of(&apart, 1)));
        assert!(connected(1, &mut pairs_of(&apart[..1], 0)));
    }

    /// The split path skips directory attempts whose entries are connected
    /// in every dimension; one disconnected dimension is enough for the
    /// kernel to run. Every entry here shares the one month, and the
    /// nations, which no two records share, let directory nodes split
    /// without overlap.
    #[test]
    fn one_disconnected_dimension_still_splits() {
        use crate::{DcTree, DcTreeConfig};
        let config = DcTreeConfig {
            data_capacity: 2,
            dir_capacity: 2,
            ..DcTreeConfig::default()
        };
        let mut tree = DcTree::new(schema(), config);
        for i in 0..16 {
            let (region, nation) = if i % 2 == 0 {
                ("Europe", format!("E{i}"))
            } else {
                ("Asia", format!("A{i}"))
            };
            tree.insert_raw(&[vec![region, nation.as_str()], vec!["1996", "01"]], 1)
                .unwrap();
        }
        tree.check_invariants().unwrap();
        let m = tree.metrics();
        assert_eq!(m.failed_splits, 0);
        assert!(tree.height() >= 3, "no directory node split");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The lemma behind the split path's skip: members connected in
        /// every dimension leave every grouping the kernel can return —
        /// for every split dimension and minimum group — an overlap ratio
        /// above 0, so `max_overlap = 0` rejects it.
        #[test]
        fn connected_members_never_split_without_overlap(
            seed in any::<u64>(),
            n in prop_oneof![2usize..=24, 129usize..=140],
            levels in proptest::collection::vec(0u8..=3, 1..=PROP_DIMS),
            max_len in 1usize..=4,
            pool in 1usize..=12,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut members = random_members(&mut rng, n, &levels, max_len, pool);
            // Chain any disconnected dimension: member i also takes a value
            // of member i − 1.
            for k in 0..PROP_DIMS {
                if !connected(n, &mut pairs_of(&members, k)) {
                    for i in 1..n {
                        let v = members[i - 1].dim(k).values()[0];
                        members[i].dim_mut(k).insert(v);
                    }
                }
                prop_assert!(connected(n, &mut pairs_of(&members, k)));
            }
            let s = prop_schema();
            for split_dim in 0..PROP_DIMS {
                for min_group in [0, 1, n / 4, n / 2] {
                    let out = hierarchy_split(s, &members, split_dim, min_group).unwrap().unwrap();
                    prop_assert!(out.overlap_ratio() > 0.0, "dim {} min {}: {:?}", split_dim, min_group, out);
                }
            }
        }

        /// The bitset kernel equals the `Vec`-merge reference on both sides
        /// of `QUADRATIC_LIMIT`, from singleton members to 2 000-value sets,
        /// with and without shared values, on every hierarchy level.
        #[test]
        fn kernel_equals_reference(
            seed in any::<u64>(),
            n in prop_oneof![2usize..=24, 100usize..=160, 2usize..=300],
            levels in proptest::collection::vec(0u8..=3, 1..=PROP_DIMS),
            max_len in prop_oneof![Just(1usize), 1usize..=8, 1usize..=200, 1usize..=2000],
            pool in prop_oneof![1usize..=16, 1usize..=PROP_LEAVES],
            min_fill in 0.0f64..=0.5,
            identical in 0u8..8,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut members = random_members(&mut rng, n, &levels, max_len, pool);
            if identical == 0 {
                members = vec![members[0].clone(); n];
            }
            let split_dim = rng.gen_range(0..levels.len());
            let min_group = (n as f64 * min_fill).ceil() as usize;
            let s = prop_schema();
            let got = hierarchy_split(s, &members, split_dim, min_group).unwrap().unwrap();
            let want = reference_split(s, &members, split_dim, min_group).unwrap().unwrap();
            prop_assert_eq!(&got.group1, &want.group1);
            prop_assert_eq!(&got.group2, &want.group2);
            prop_assert_eq!(&got.cover1, &want.cover1);
            prop_assert_eq!(&got.cover2, &want.cover2);
        }
    }
}
