//! DC-tree tuning knobs.

use dc_storage::BlockConfig;

/// Configuration of a [`DcTree`](crate::tree::DcTree).
///
/// The defaults use 4 KiB blocks, supernodes, and materialized aggregates,
/// with split-acceptance thresholds of `min_fill = 0.20` and
/// `max_overlap = 0.0` (only overlap-free directory splits are accepted;
/// everything else grows supernodes). The paper inherits the X-tree's 35% /
/// 20% thresholds instead — the ablation harness (`dc-bench`, ablation A3)
/// sweeps both knobs and shows that on the TPC-D cube the zero-overlap
/// setting dominates for query time *and* page I/O: tolerated overlap
/// compounds across directory levels and forces multi-path descents,
/// while the supernodes it avoids are exactly the behaviour the paper
/// itself reports on the level below the root (Fig. 13).
#[derive(Clone, Copy, Debug)]
pub struct DcTreeConfig {
    /// The simulated block device.
    pub block: BlockConfig,
    /// Directory-node capacity: entries per block. A supernode of `b` blocks
    /// holds up to `dir_capacity · b` entries before it must split (§4.2).
    pub dir_capacity: usize,
    /// Data-node capacity: records per block. A stored record is
    /// `4·d + 8` bytes (one leaf ID per dimension plus the measure); the
    /// default of 128 fills a 4 KiB block for the 4-dimensional TPC-D cube
    /// while leaving room for the node's MDS and summary.
    pub data_capacity: usize,
    /// A split is *balanced* iff the smaller group holds at least this
    /// fraction of the entries (the X-tree's unbalanced-split threshold).
    pub min_fill: f64,
    /// A split is accepted only if `overlap(G1,G2) / extension(G1,G2)` does
    /// not exceed this ratio ("overlap is not too high", Fig. 5).
    pub max_overlap: f64,
    /// When `false`, failed splits fall back to a forced best-effort split
    /// instead of creating a supernode (ablation A2 in `DESIGN.md`).
    pub allow_supernodes: bool,
    /// Upper bound on a supernode's size in blocks. Beyond it the node is
    /// force-split with the least-bad grouping found: an unbounded
    /// supernode makes every choose-subtree scan (and every failed split
    /// retry) linear in the node's entry count, turning bulk loads
    /// quadratic. 32 blocks ≈ 512 directory entries with the default
    /// capacity.
    pub max_supernode_blocks: u32,
    /// When `false`, range queries ignore the materialized measures and
    /// always descend to the data pages (ablation A1) — this degrades the
    /// DC-tree to a "structure-only" index, isolating the contribution of
    /// the materialization.
    pub use_materialized_aggregates: bool,
    /// **Reproduction erratum switch — leave `false` for correct answers.**
    ///
    /// The paper's range-query algorithm (Fig. 7) makes a directory entry
    /// and the query comparable by adapting "the MDS with the lower level to
    /// the one with the higher level" and then testing set containment.
    /// When the *query* is the finer side this over-approximates: a query
    /// selecting one day of March, adapted up to month level, *contains*
    /// an entry covering all of March, so the entry's whole materialized
    /// measure is added — an overcount. This implementation defaults to the
    /// sound direction (an entry only counts as contained when every value
    /// is dominated by a query value); setting this flag reproduces the
    /// paper's literal algorithm, which fires the shortcut far more often
    /// at the price of wrong answers on mixed-level queries (demonstrated
    /// by `paper_fig7_containment_overcounts` in the test suite). A tree
    /// switch for that ablation: the sharded engine refuses it.
    pub use_paper_fig7_containment: bool,
}

impl DcTreeConfig {
    /// Validates the configuration, panicking on nonsensical values.
    /// Called by `DcTree::new`.
    pub(crate) fn validate(&self) {
        assert!(
            self.dir_capacity >= 2,
            "directory capacity must be at least 2"
        );
        assert!(self.data_capacity >= 2, "data capacity must be at least 2");
        assert!(
            (0.0..=0.5).contains(&self.min_fill),
            "min_fill must be in [0, 0.5], got {}",
            self.min_fill
        );
        assert!(
            (0.0..=1.0).contains(&self.max_overlap),
            "max_overlap must be in [0, 1], got {}",
            self.max_overlap
        );
        assert!(
            self.max_supernode_blocks >= 1,
            "max_supernode_blocks must be at least 1"
        );
    }

    /// Smallest group size acceptable when splitting `members` entries.
    pub(crate) fn min_group(&self, members: usize) -> usize {
        ((members as f64) * self.min_fill).ceil().max(1.0) as usize
    }
}

impl Default for DcTreeConfig {
    fn default() -> Self {
        DcTreeConfig {
            block: BlockConfig::DEFAULT,
            dir_capacity: 16,
            data_capacity: 128,
            min_fill: 0.20,
            max_overlap: 0.0,
            allow_supernodes: true,
            max_supernode_blocks: 32,
            use_materialized_aggregates: true,
            use_paper_fig7_containment: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        DcTreeConfig::default().validate();
    }

    #[test]
    fn min_group_rounds_up_and_is_positive() {
        let c = DcTreeConfig {
            min_fill: 0.35,
            ..DcTreeConfig::default()
        };
        assert_eq!(c.min_group(17), 6); // ceil(5.95)
        let c0 = DcTreeConfig {
            min_fill: 0.0,
            ..DcTreeConfig::default()
        };
        assert_eq!(c0.min_group(10), 1);
    }

    #[test]
    #[should_panic(expected = "min_fill")]
    fn unbalanced_min_fill_rejected() {
        DcTreeConfig {
            min_fill: 0.9,
            ..DcTreeConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn tiny_capacity_rejected() {
        DcTreeConfig {
            dir_capacity: 1,
            ..DcTreeConfig::default()
        }
        .validate();
    }
}
