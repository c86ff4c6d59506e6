//! The X-tree proper: R\*-style insertion, topological split,
//! overlap-minimal split via split history, and supernodes.

use dc_common::MeasureSummary;
use dc_storage::{IoStats, IoTracker};

use crate::mbr::Mbr;

/// Configuration of an [`XTree`]. Defaults mirror the DC-tree's: the same
/// block-relative capacities and the same split-acceptance thresholds, so
/// head-to-head experiments normalize resources the way the paper did
/// ("the main memory available for the X-tree was restricted to the memory
/// size that the DC-tree uses").
#[derive(Clone, Copy, Debug)]
pub struct XTreeConfig {
    /// Directory entries per block.
    pub dir_capacity: usize,
    /// Data points per block.
    pub data_capacity: usize,
    /// Minimum fraction of entries in the smaller split group.
    pub min_fill: f64,
    /// Maximum tolerated `overlap / union-area` of a topological split
    /// before the overlap-minimal split is attempted.
    pub max_overlap: f64,
    /// Whether failed splits produce supernodes (the X-tree's signature
    /// behaviour). Disabling forces best-effort splits.
    pub allow_supernodes: bool,
}

impl Default for XTreeConfig {
    fn default() -> Self {
        XTreeConfig {
            dir_capacity: 16,
            data_capacity: 64,
            min_fill: 0.35,
            max_overlap: 0.20,
            allow_supernodes: true,
        }
    }
}

impl XTreeConfig {
    fn min_group(&self, members: usize) -> usize {
        ((members as f64) * self.min_fill).ceil().max(1.0) as usize
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct NodeId(u32);

#[derive(Clone, Debug)]
struct Entry {
    mbr: Mbr,
    child: NodeId,
}

/// A data point: coordinates plus the measure (needed because range queries
/// aggregate the measure at the data pages).
#[derive(Clone, Debug)]
pub struct XPoint {
    /// One coordinate per axis (raw attribute IDs in the cube mapping).
    pub coords: Vec<u32>,
    /// The measure value.
    pub measure: i64,
}

#[derive(Clone, Debug)]
enum Kind {
    Dir(Vec<Entry>),
    Data(Vec<XPoint>),
}

#[derive(Clone, Debug)]
struct Node {
    mbr: Mbr,
    blocks: u32,
    /// Bitmask of axes along which splits in this subtree's history took
    /// place — the X-tree's split history, consulted by the
    /// overlap-minimal split.
    history: u64,
    kind: Kind,
}

impl Node {
    fn len(&self) -> usize {
        match &self.kind {
            Kind::Dir(v) => v.len(),
            Kind::Data(v) => v.len(),
        }
    }
    fn is_data(&self) -> bool {
        matches!(self.kind, Kind::Data(_))
    }
}

/// The X-tree over `dims` integer axes.
#[derive(Clone, Debug)]
pub struct XTree {
    dims: usize,
    config: XTreeConfig,
    nodes: Vec<Node>,
    root: NodeId,
    io: IoTracker,
    len: u64,
}

impl XTree {
    /// Creates an empty X-tree over `dims` axes.
    pub fn new(dims: usize, config: XTreeConfig) -> Self {
        assert!(dims > 0, "at least one axis");
        assert!(config.dir_capacity >= 2 && config.data_capacity >= 2);
        let root_node = Node {
            mbr: Mbr::point(&vec![0; dims]),
            blocks: 1,
            history: 0,
            kind: Kind::Data(Vec::new()),
        };
        XTree {
            dims,
            config,
            nodes: vec![root_node],
            root: NodeId(0),
            io: IoTracker::new(),
            len: 0,
        }
    }

    /// Number of axes.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of stored points.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` iff empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of supernodes.
    pub fn num_supernodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.blocks > 1).count()
    }

    /// Tree height.
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut id = self.root;
        while let Kind::Dir(entries) = &self.node(id).kind {
            h += 1;
            id = entries[0].child;
        }
        h
    }

    /// Logical page-I/O counters.
    pub fn io_stats(&self) -> IoStats {
        self.io.stats()
    }

    /// Resets the I/O counters.
    pub fn reset_io(&self) {
        self.io.reset();
    }

    /// Starts recording a block-access trace (see [`IoTracker::begin_trace`]).
    pub fn begin_trace(&self) {
        self.io.begin_trace();
    }

    /// Stops recording and returns the trace.
    pub fn end_trace(&self) -> Vec<u64> {
        self.io.end_trace()
    }

    fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0 as usize]
    }

    fn alloc(&mut self, node: Node) -> NodeId {
        self.nodes.push(node);
        NodeId((self.nodes.len() - 1) as u32)
    }

    // ------------------------------------------------------------------
    // Insertion
    // ------------------------------------------------------------------

    /// Inserts a point.
    ///
    /// # Panics
    /// Panics if `coords.len() != dims`.
    pub fn insert(&mut self, coords: Vec<u32>, measure: i64) {
        assert_eq!(coords.len(), self.dims, "coordinate arity mismatch");
        let point = XPoint { coords, measure };
        if self.len == 0 {
            // Initialize the root MBR on the very first point.
            let root = self.root;
            self.node_mut(root).mbr = Mbr::point(&point.coords);
        }
        if let Some((sibling, sibling_mbr)) = self.insert_rec(self.root, &point) {
            let old_root = self.root;
            let old_mbr = self.node(old_root).mbr.clone();
            let history = self.node(old_root).history;
            let union = old_mbr.union(&sibling_mbr);
            let entries = vec![
                Entry {
                    mbr: old_mbr,
                    child: old_root,
                },
                Entry {
                    mbr: sibling_mbr,
                    child: sibling,
                },
            ];
            let new_root = self.alloc(Node {
                mbr: union,
                blocks: 1,
                history,
                kind: Kind::Dir(entries),
            });
            self.io.write(1);
            self.root = new_root;
        }
        self.len += 1;
    }

    fn insert_rec(&mut self, id: NodeId, point: &XPoint) -> Option<(NodeId, Mbr)> {
        self.io.read(self.node(id).blocks);
        if self.node(id).is_data() {
            let node = self.node_mut(id);
            node.mbr.extend_point(&point.coords);
            if let Kind::Data(points) = &mut node.kind {
                points.push(point.clone());
            }
            let blocks = self.node(id).blocks;
            self.io.write(blocks);
            if self.node(id).len() > self.config.data_capacity * blocks as usize {
                return self.split(id);
            }
            return None;
        }

        let choice = self.choose_subtree(id, point);
        let child = {
            let node = self.node_mut(id);
            node.mbr.extend_point(&point.coords);
            if let Kind::Dir(entries) = &mut node.kind {
                entries[choice].mbr.extend_point(&point.coords);
                entries[choice].child
            } else {
                unreachable!()
            }
        };
        self.io.write(self.node(id).blocks);

        if let Some((sibling, sibling_mbr)) = self.insert_rec(child, point) {
            let child_mbr = self.node(child).mbr.clone();
            let node = self.node_mut(id);
            if let Kind::Dir(entries) = &mut node.kind {
                let e = entries
                    .iter_mut()
                    .find(|e| e.child == child)
                    .expect("child entry");
                e.mbr = child_mbr;
                entries.push(Entry {
                    mbr: sibling_mbr,
                    child: sibling,
                });
            }
            self.io.write(self.node(id).blocks);
            if self.node(id).len() > self.config.dir_capacity * self.node(id).blocks as usize {
                return self.split(id);
            }
        }
        None
    }

    /// R\*-style subtree choice: for nodes whose children are leaves,
    /// minimize overlap enlargement; otherwise minimize area enlargement
    /// (ties: smaller area).
    fn choose_subtree(&self, id: NodeId, point: &XPoint) -> usize {
        // The overlap-enlargement criterion is quadratic in the entry
        // count, which explodes inside large supernodes; beyond 32 entries
        // it degrades to the plain area criterion.
        const OVERLAP_SCAN_LIMIT: usize = 32;
        let Kind::Dir(entries) = &self.node(id).kind else {
            unreachable!()
        };
        let children_are_leaves =
            self.node(entries[0].child).is_data() && entries.len() <= OVERLAP_SCAN_LIMIT;
        let pm = Mbr::point(&point.coords);
        let mut best = 0usize;
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for (i, e) in entries.iter().enumerate() {
            let grown = e.mbr.union(&pm);
            let overlap_delta = if children_are_leaves {
                let before: f64 = entries
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, o)| e.mbr.overlap_area(&o.mbr))
                    .sum();
                let after: f64 = entries
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, o)| grown.overlap_area(&o.mbr))
                    .sum();
                after - before
            } else {
                0.0
            };
            let key = (overlap_delta, grown.area() - e.mbr.area(), e.mbr.area());
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    // ------------------------------------------------------------------
    // Split: topological → overlap-minimal → supernode
    // ------------------------------------------------------------------

    fn member_mbrs(&self, id: NodeId) -> Vec<Mbr> {
        match &self.node(id).kind {
            Kind::Dir(entries) => entries.iter().map(|e| e.mbr.clone()).collect(),
            Kind::Data(points) => points.iter().map(|p| Mbr::point(&p.coords)).collect(),
        }
    }

    fn split(&mut self, id: NodeId) -> Option<(NodeId, Mbr)> {
        let members = self.member_mbrs(id);
        let min_group = self.config.min_group(members.len());

        // 1. Topological (R*) split.
        if let Some((axis, g1)) = topological_split(&members, min_group) {
            let (m1, m2) = group_mbrs(&members, &g1);
            let ratio = overlap_ratio(&m1, &m2);
            if ratio <= self.config.max_overlap {
                return Some(self.apply_split(id, &g1, m1, m2, axis));
            }
            // 2. Overlap-minimal split guided by the split history.
            let history = self.node(id).history;
            if let Some((haxis, hg1)) = history_split(&members, history, min_group) {
                let (hm1, hm2) = group_mbrs(&members, &hg1);
                if overlap_ratio(&hm1, &hm2) <= self.config.max_overlap {
                    return Some(self.apply_split(id, &hg1, hm1, hm2, haxis));
                }
            }
            // 3. Supernode (or forced split when disabled).
            if !self.config.allow_supernodes {
                return Some(self.apply_split(id, &g1, m1, m2, axis));
            }
        }
        // Geometric growth, mirroring the DC-tree: a persistently
        // unsplittable supernode retries splitting O(log n) times instead
        // of on every block overflow.
        let node = self.node_mut(id);
        node.blocks += (node.blocks / 4).max(1);
        self.io.write(self.node(id).blocks);
        None
    }

    fn apply_split(
        &mut self,
        id: NodeId,
        group1: &[bool],
        mbr1: Mbr,
        mbr2: Mbr,
        axis: usize,
    ) -> (NodeId, Mbr) {
        let history = self.node(id).history | (1u64 << (axis % 64));
        let node = self.node_mut(id);
        node.history = history;
        let sibling_kind = match &mut node.kind {
            Kind::Data(points) => {
                let drained = std::mem::take(points);
                let mut keep = Vec::new();
                let mut out = Vec::new();
                for (i, p) in drained.into_iter().enumerate() {
                    if group1[i] {
                        keep.push(p);
                    } else {
                        out.push(p);
                    }
                }
                *points = keep;
                Kind::Data(out)
            }
            Kind::Dir(entries) => {
                let drained = std::mem::take(entries);
                let mut keep = Vec::new();
                let mut out = Vec::new();
                for (i, e) in drained.into_iter().enumerate() {
                    if group1[i] {
                        keep.push(e);
                    } else {
                        out.push(e);
                    }
                }
                *entries = keep;
                Kind::Dir(out)
            }
        };
        node.mbr = mbr1;
        let sibling = Node {
            mbr: mbr2.clone(),
            blocks: 1,
            history,
            kind: sibling_kind,
        };
        // Shrink supernodes back to the blocks each part needs.
        let (data_cap, dir_cap) = (self.config.data_capacity, self.config.dir_capacity);
        let shrink = |n: &Node| -> u32 {
            let cap = if n.is_data() { data_cap } else { dir_cap };
            (n.len().div_ceil(cap)).max(1) as u32
        };
        let mut sibling = sibling;
        sibling.blocks = shrink(&sibling);
        let node = self.node_mut(id);
        node.blocks = shrink(node);
        self.io.write(self.node(id).blocks);
        let sid = self.alloc(sibling);
        self.io.write(self.node(sid).blocks);
        (sid, mbr2)
    }

    // ------------------------------------------------------------------
    // Range queries — no materialized aggregates: always descend
    // ------------------------------------------------------------------

    /// Aggregates the measure over all points inside `range`. The X-tree
    /// holds no materialized measures, so every overlapping subtree is
    /// descended to its data pages.
    pub fn range_summary(&self, range: &Mbr) -> MeasureSummary {
        let mut acc = MeasureSummary::empty();
        self.query_rec(self.root, range, &mut acc);
        acc
    }

    fn query_rec(&self, id: NodeId, range: &Mbr, acc: &mut MeasureSummary) {
        let node = self.node(id);
        self.io.read_keyed(id.0 as u64, node.blocks);
        match &node.kind {
            Kind::Data(points) => {
                for p in points {
                    if range.contains_point(&p.coords) {
                        acc.add(p.measure);
                    }
                }
            }
            Kind::Dir(entries) => {
                for e in entries {
                    if range.intersects(&e.mbr) {
                        self.query_rec(e.child, range, acc);
                    }
                }
            }
        }
    }

    /// Validates the structural invariants (tests/diagnostics).
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut count = 0u64;
        self.check_rec(self.root, None, &mut count)?;
        if count != self.len {
            return Err(format!(
                "stored {count} points but len() reports {}",
                self.len
            ));
        }
        Ok(())
    }

    fn check_rec(
        &self,
        id: NodeId,
        parent_mbr: Option<&Mbr>,
        count: &mut u64,
    ) -> Result<(), String> {
        let node = self.node(id);
        if let Some(pm) = parent_mbr {
            if pm != &node.mbr {
                return Err(format!("node {id:?} MBR differs from its parent entry"));
            }
        }
        match &node.kind {
            Kind::Data(points) => {
                let cap = self.config.data_capacity * node.blocks as usize;
                if points.len() > cap {
                    return Err(format!("data node {id:?} over capacity"));
                }
                for p in points {
                    if !node.mbr.contains_point(&p.coords) {
                        return Err(format!("point escapes MBR of {id:?}"));
                    }
                }
                *count += points.len() as u64;
            }
            Kind::Dir(entries) => {
                let cap = self.config.dir_capacity * node.blocks as usize;
                if entries.len() > cap {
                    return Err(format!("dir node {id:?} over capacity"));
                }
                if entries.is_empty() {
                    return Err(format!("dir node {id:?} empty"));
                }
                for e in entries {
                    if !node.mbr.contains(&e.mbr) {
                        return Err(format!("entry escapes MBR of {id:?}"));
                    }
                    self.check_rec(e.child, Some(&e.mbr), count)?;
                }
            }
        }
        Ok(())
    }
}

fn group_mbrs(members: &[Mbr], group1: &[bool]) -> (Mbr, Mbr) {
    let mut m1: Option<Mbr> = None;
    let mut m2: Option<Mbr> = None;
    for (i, m) in members.iter().enumerate() {
        let slot = if group1[i] { &mut m1 } else { &mut m2 };
        *slot = Some(match slot.take() {
            None => m.clone(),
            Some(acc) => acc.union(m),
        });
    }
    (
        m1.expect("group 1 non-empty"),
        m2.expect("group 2 non-empty"),
    )
}

fn overlap_ratio(a: &Mbr, b: &Mbr) -> f64 {
    let union = a.union(b).area();
    if union == 0.0 {
        0.0
    } else {
        a.overlap_area(b) / union
    }
}

/// The R\*-tree topological split: choose the axis with the minimum total
/// margin over all balanced distributions, then the distribution with the
/// minimum overlap (tie: minimum total area). Returns the axis and a
/// membership mask for group 1, or `None` for fewer than two members.
fn topological_split(members: &[Mbr], min_group: usize) -> Option<(usize, Vec<bool>)> {
    if members.len() < 2 {
        return None;
    }
    let dims = members[0].dims();
    let n = members.len();
    let m = min_group.min(n / 2).max(1);

    let mut best_axis = 0;
    let mut best_axis_margin = f64::INFINITY;
    let mut orders: Vec<Vec<usize>> = Vec::with_capacity(dims);
    for axis in 0..dims {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            (members[a].lo(axis), members[a].hi(axis))
                .cmp(&(members[b].lo(axis), members[b].hi(axis)))
        });
        let (prefix, suffix) = prefix_suffix_unions(&order, members);
        let mut margin_sum = 0.0;
        for k in m..=(n - m) {
            margin_sum += prefix[k - 1].margin() + suffix[k].margin();
        }
        if margin_sum < best_axis_margin {
            best_axis_margin = margin_sum;
            best_axis = axis;
        }
        orders.push(order);
    }

    let order = &orders[best_axis];
    let (prefix, suffix) = prefix_suffix_unions(order, members);
    let mut best_k = m;
    let mut best_key = (f64::INFINITY, f64::INFINITY);
    for k in m..=(n - m) {
        let (g1, g2) = (&prefix[k - 1], &suffix[k]);
        let key = (g1.overlap_area(g2), g1.area() + g2.area());
        if key < best_key {
            best_key = key;
            best_k = k;
        }
    }
    let mut mask = vec![false; n];
    for &i in &order[..best_k] {
        mask[i] = true;
    }
    Some((best_axis, mask))
}

/// `prefix[i]` = union of the first `i + 1` members in `order`;
/// `suffix[i]` = union of members from position `i` on. Lets every
/// distribution of a split be evaluated in O(1) after O(n) setup.
fn prefix_suffix_unions(order: &[usize], members: &[Mbr]) -> (Vec<Mbr>, Vec<Mbr>) {
    let n = order.len();
    let mut prefix = Vec::with_capacity(n);
    let mut acc = members[order[0]].clone();
    prefix.push(acc.clone());
    for &i in &order[1..] {
        acc = acc.union(&members[i]);
        prefix.push(acc.clone());
    }
    let mut suffix = vec![members[order[n - 1]].clone(); n];
    for pos in (0..n - 1).rev() {
        suffix[pos] = suffix[pos + 1].union(&members[order[pos]]);
    }
    (prefix, suffix)
}

/// The X-tree overlap-minimal split: try each axis recorded in the split
/// history (most recent bits first is irrelevant — all are candidates),
/// order by center and find the balanced cut with zero (or minimal)
/// overlap. Returns the best history axis cut, if any axis is in history.
fn history_split(members: &[Mbr], history: u64, min_group: usize) -> Option<(usize, Vec<bool>)> {
    if members.len() < 2 || history == 0 {
        return None;
    }
    let dims = members[0].dims();
    let n = members.len();
    let m = min_group.min(n / 2).max(1);
    let mut best: Option<(f64, usize, usize, Vec<usize>)> = None;
    for axis in (0..dims).filter(|&a| history & (1u64 << (a % 64)) != 0) {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            members[a]
                .center(axis)
                .partial_cmp(&members[b].center(axis))
                .expect("finite centers")
        });
        let (prefix, suffix) = prefix_suffix_unions(&order, members);
        for k in m..=(n - m) {
            let overlap = prefix[k - 1].overlap_area(&suffix[k]);
            if best.as_ref().is_none_or(|(o, ..)| overlap < *o) {
                best = Some((overlap, axis, k, order.clone()));
            }
        }
    }
    let (_, axis, k, order) = best?;
    let mut mask = vec![false; n];
    for &i in &order[..k] {
        mask[i] = true;
    }
    Some((axis, mask))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn random_points(n: usize, dims: usize, seed: u64) -> Vec<XPoint> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| XPoint {
                coords: (0..dims).map(|_| rng.gen_range(0..1000)).collect(),
                measure: rng.gen_range(-100..1000),
            })
            .collect()
    }

    fn brute(points: &[XPoint], range: &Mbr) -> MeasureSummary {
        points
            .iter()
            .filter(|p| range.contains_point(&p.coords))
            .map(|p| p.measure)
            .collect()
    }

    #[test]
    fn empty_tree() {
        let t = XTree::new(3, XTreeConfig::default());
        assert!(t.is_empty());
        assert_eq!(t.range_summary(&Mbr::universe(3)), MeasureSummary::empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_and_query_matches_brute_force() {
        let config = XTreeConfig {
            dir_capacity: 4,
            data_capacity: 4,
            ..Default::default()
        };
        let points = random_points(600, 3, 1);
        let mut tree = XTree::new(3, config);
        for p in &points {
            tree.insert(p.coords.clone(), p.measure);
        }
        tree.check_invariants().unwrap();
        assert_eq!(tree.len(), 600);
        assert!(tree.height() >= 3);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let ranges: Vec<(u32, u32)> = (0..3)
                .map(|_| {
                    let a = rng.gen_range(0u32..1000);
                    let b = rng.gen_range(0u32..1000);
                    (a.min(b), a.max(b))
                })
                .collect();
            let q = Mbr::from_ranges(&ranges);
            assert_eq!(tree.range_summary(&q), brute(&points, &q));
        }
    }

    #[test]
    fn universe_query_returns_total() {
        let points = random_points(200, 5, 3);
        let mut tree = XTree::new(5, XTreeConfig::default());
        for p in &points {
            tree.insert(p.coords.clone(), p.measure);
        }
        let total: MeasureSummary = points.iter().map(|p| p.measure).collect();
        assert_eq!(tree.range_summary(&Mbr::universe(5)), total);
    }

    #[test]
    fn supernodes_form_on_identical_points() {
        let config = XTreeConfig {
            dir_capacity: 4,
            data_capacity: 4,
            ..Default::default()
        };
        let mut tree = XTree::new(2, config);
        for i in 0..40 {
            tree.insert(vec![7, 7], i);
        }
        tree.check_invariants().unwrap();
        assert!(tree.num_supernodes() > 0, "identical points cannot split");
        assert_eq!(
            tree.range_summary(&Mbr::point(&[7, 7])).sum,
            (0..40).sum::<i64>()
        );
    }

    #[test]
    fn high_dimensional_insert_stays_correct() {
        // 13 axes, the dimensionality of the paper's X-tree (Fig. 10).
        let config = XTreeConfig {
            dir_capacity: 8,
            data_capacity: 16,
            ..Default::default()
        };
        let points = random_points(500, 13, 4);
        let mut tree = XTree::new(13, config);
        for p in &points {
            tree.insert(p.coords.clone(), p.measure);
        }
        tree.check_invariants().unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..40 {
            // Constrain a few random axes, leave the rest unbounded — the
            // shape of converted MDS queries.
            let mut ranges = vec![(0u32, u32::MAX); 13];
            for _ in 0..rng.gen_range(1..4) {
                let axis = rng.gen_range(0usize..13);
                let a = rng.gen_range(0u32..1000);
                let b = rng.gen_range(0u32..1000);
                ranges[axis] = (a.min(b), a.max(b));
            }
            let q = Mbr::from_ranges(&ranges);
            assert_eq!(tree.range_summary(&q), brute(&points, &q));
        }
    }

    #[test]
    fn query_io_grows_with_selectivity() {
        let config = XTreeConfig {
            dir_capacity: 8,
            data_capacity: 8,
            ..Default::default()
        };
        let points = random_points(2000, 2, 6);
        let mut tree = XTree::new(2, config);
        for p in &points {
            tree.insert(p.coords.clone(), p.measure);
        }
        tree.reset_io();
        let _ = tree.range_summary(&Mbr::from_ranges(&[(0, 9), (0, 9)]));
        let small = tree.io_stats().reads;
        tree.reset_io();
        let _ = tree.range_summary(&Mbr::universe(2));
        let full = tree.io_stats().reads;
        assert!(
            small < full,
            "selective query must read fewer pages ({small} vs {full})"
        );
    }

    #[test]
    fn forced_splits_without_supernodes() {
        let config = XTreeConfig {
            dir_capacity: 4,
            data_capacity: 4,
            allow_supernodes: false,
            ..Default::default()
        };
        let points = random_points(300, 4, 7);
        let mut tree = XTree::new(4, config);
        for p in &points {
            tree.insert(p.coords.clone(), p.measure);
        }
        assert_eq!(tree.num_supernodes(), 0);
        tree.check_invariants().unwrap();
        assert_eq!(
            tree.range_summary(&Mbr::universe(4)),
            points.iter().map(|p| p.measure).collect()
        );
    }
}
