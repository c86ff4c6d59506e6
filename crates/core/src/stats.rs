//! Tree statistics — in particular the per-level node sizes the paper plots
//! in Fig. 13 (average entries of the two highest levels below the root).

use dc_common::DcResult;

use crate::node::NodeKind;
use crate::store::NodeStore;
use crate::tree::DcTree;

/// Aggregate dead-space comparison between MDS and MBR descriptions of the
/// same data nodes (the paper's Fig. 3 argument made quantitative).
///
/// For every data node and every dimension, the node's records occupy a set
/// of leaf-level IDs. The MDS lists exactly those (no dead space at its
/// relevant level); an MBR over the artificial total order spans the whole
/// `[min, max]` ID interval. `mbr_cells / mds_cells` per dimension measures
/// the dead space a totally ordered description would cover.
#[derive(Clone, PartialEq, Debug)]
pub struct DeadSpaceReport {
    /// Number of data nodes inspected.
    pub data_nodes: usize,
    /// Σ over nodes and dims of occupied leaf IDs (the MDS description).
    pub mds_cells: u64,
    /// Σ over nodes and dims of `max − min + 1` leaf IDs (the MBR
    /// description).
    pub mbr_cells: u64,
}

impl DeadSpaceReport {
    /// `mbr_cells / mds_cells` — how many times more leaf cells the interval
    /// description covers; 1.0 means no dead space.
    pub fn blowup(&self) -> f64 {
        if self.mds_cells == 0 {
            1.0
        } else {
            self.mbr_cells as f64 / self.mds_cells as f64
        }
    }
}

/// Aggregate statistics of one tree depth (0 = root).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct LevelStat {
    /// Depth below the root (0 = root itself).
    pub depth: usize,
    /// Number of nodes on this depth.
    pub nodes: usize,
    /// Number of supernodes (blocks > 1) among them.
    pub supernodes: usize,
    /// Average number of entries / records per node — the y-axis of Fig. 13.
    pub avg_entries: f64,
    /// Average number of blocks per node.
    pub avg_blocks: f64,
}

/// Whole-tree statistics.
#[derive(Clone, PartialEq, Debug)]
pub struct TreeStats {
    /// Tree height (number of levels).
    pub height: usize,
    /// Stored records.
    pub records: u64,
    /// Total directory nodes.
    pub dir_nodes: usize,
    /// Total data nodes.
    pub data_nodes: usize,
    /// Total supernodes (of either kind).
    pub supernodes: usize,
    /// Per-depth statistics, root first.
    pub levels: Vec<LevelStat>,
    /// Sum of `size(MDS)` over the MDSs of all nodes' entries (the root's
    /// included) — a proxy for the directory's variable-size storage cost.
    pub total_mds_size: usize,
}

impl<S: NodeStore> DcTree<S> {
    /// Computes per-level and whole-tree statistics in one walk.
    pub fn stats(&self) -> DcResult<TreeStats> {
        // Per depth: (nodes, supernodes, Σ entries, Σ blocks).
        let mut sums: Vec<(usize, usize, usize, u64)> = Vec::new();
        let (mut dir_nodes, mut data_nodes) = (0, 0);
        let mut total_mds_size = 0;
        self.for_each_node(|depth, entry, node| {
            if sums.len() <= depth {
                sums.resize(depth + 1, (0, 0, 0, 0));
            }
            let level = &mut sums[depth];
            level.0 += 1;
            level.1 += usize::from(node.is_supernode());
            level.2 += node.len();
            level.3 += u64::from(node.blocks);
            if node.is_data() {
                data_nodes += 1;
            } else {
                dir_nodes += 1;
            }
            total_mds_size += entry.mds.size();
        })?;
        let levels: Vec<LevelStat> = sums
            .iter()
            .enumerate()
            .map(|(depth, &(nodes, supernodes, entries, blocks))| LevelStat {
                depth,
                nodes,
                supernodes,
                avg_entries: entries as f64 / nodes as f64,
                avg_blocks: blocks as f64 / nodes as f64,
            })
            .collect();
        Ok(TreeStats {
            height: levels.len(),
            records: self.len(),
            dir_nodes,
            data_nodes,
            supernodes: levels.iter().map(|l| l.supernodes).sum(),
            levels,
            total_mds_size,
        })
    }

    /// Computes the [`DeadSpaceReport`] over all data nodes: per node and
    /// dimension, the distinct leaf IDs its records occupy (MDS view) versus
    /// the enclosing `[min, max]` ID interval (MBR view).
    pub fn dead_space_report(&self) -> DcResult<DeadSpaceReport> {
        let mut report = DeadSpaceReport {
            data_nodes: 0,
            mds_cells: 0,
            mbr_cells: 0,
        };
        self.for_each_node(|_, _, node| {
            let NodeKind::Data(records) = &node.kind else {
                return;
            };
            if records.is_empty() {
                return;
            }
            report.data_nodes += 1;
            for d in 0..self.schema().num_dims() {
                let mut ids: Vec<u32> = records.iter().map(|r| r.record.dims[d].index()).collect();
                ids.sort_unstable();
                ids.dedup();
                report.mds_cells += ids.len() as u64;
                report.mbr_cells += (ids[ids.len() - 1] - ids[0] + 1) as u64;
            }
        })?;
        Ok(report)
    }
}
