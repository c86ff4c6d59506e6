//! The cost model: page-read estimates per backend, fed by statistics a
//! shard captures when it publishes a snapshot (never by walking a tree at
//! plan time).

use dc_common::Level;
use dc_hierarchy::CubeSchema;
use dc_mview::ViewSpec;

use crate::logical::LogicalPlan;
use crate::physical::Backend;

/// Statistics of one partition (shard), captured at snapshot-publish time.
/// Everything here must be O(1) to read at plan time.
#[derive(Clone, Default, Debug)]
pub struct PartitionStats {
    /// Live records in the partition.
    pub records: u64,
    /// DC-tree nodes (directory + data).
    pub tree_nodes: usize,
    /// DC-tree height.
    pub tree_height: usize,
    /// Records per simulated disk block (from the block config).
    pub records_per_block: usize,
    /// Total compressed bitmap bytes; 0 when the bitmap index is absent.
    pub bitmap_bytes: usize,
    /// `true` when a bitmap index is maintained.
    pub has_bitmap: bool,
    /// `true` when a flat table is maintained.
    pub has_table: bool,
    /// Per materialized view: its lattice levels and occupied cell count.
    /// Empty when views are absent.
    pub view_cells: Vec<(Vec<Level>, usize)>,
    /// `true` while the views await a rebuild (deletes since last publish);
    /// stale views are never chosen.
    pub views_stale: bool,
    /// `true` when the partition's tree is served out-of-core through a
    /// buffer pool (dc-oocore): a visited page is a *possibly cold* page.
    pub disk_resident: bool,
    /// Observed fraction of the shard's node reads that went to disk at
    /// publish time: `misses / (hits + misses + decoded_hits)`, the reads
    /// its decoded write-back set absorbed counting as hot. Only meaningful
    /// when [`disk_resident`](Self::disk_resident); a pool with no reads
    /// yet reports `1.0`.
    pub pool_miss_rate: f64,
}

/// How much a cold (disk) page fetch costs relative to a hot buffer-frame
/// touch, in the logical-page currency the rest of the model prices in.
/// Decompression plus a read syscall against a warm OS page cache is tens
/// of microseconds vs. ~a microsecond for a resident frame.
pub const COLD_FETCH_PENALTY: f64 = 24.0;

/// The multiplier a partition's descent estimate carries for out-of-core
/// service: hot touches cost 1, the observed miss fraction costs
/// [`COLD_FETCH_PENALTY`]. RAM-resident partitions always price at 1.
pub fn cold_factor(stats: &PartitionStats) -> f64 {
    if !stats.disk_resident {
        return 1.0;
    }
    1.0 + stats.pool_miss_rate.clamp(0.0, 1.0) * (COLD_FETCH_PENALTY - 1.0)
}

/// One backend's page-read estimate.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CostEstimate {
    /// The engine this estimate prices.
    pub backend: Backend,
    /// Estimated logical page reads.
    pub pages: f64,
}

/// The planner's verdict for one partition.
#[derive(Clone, Debug)]
pub struct PartitionPlan {
    /// The chosen (cheapest) backend.
    pub backend: Backend,
    /// Its estimated page reads.
    pub est_pages: f64,
    /// Every candidate that was priced, cheapest first.
    pub candidates: Vec<CostEstimate>,
}

/// Prices every available backend for `plan` over a partition described by
/// `stats`, cheapest first. DC-tree descent is always available; the other
/// engines only when the partition maintains them.
pub fn price(schema: &CubeSchema, plan: &LogicalPlan, stats: &PartitionStats) -> Vec<CostEstimate> {
    let sel = plan.selectivity(schema);
    let records = stats.records as f64;
    let rpb = stats.records_per_block.max(1) as f64;
    let blocks = (records / rpb).ceil().max(1.0);

    let mut out = Vec::with_capacity(4);

    // DC-tree descent: one root-to-leaf spine plus the overlapping
    // fringe. A grouped descent decomposes fewer containments (a node
    // fully inside the filter still splits across groups below the group
    // level), so it visits a larger fringe — priced with a heavier
    // selectivity exponent.
    let nodes = stats.tree_nodes.max(1) as f64;
    let fringe = if plan.group_by.is_some() {
        sel.sqrt()
    } else {
        sel
    };
    out.push(CostEstimate {
        backend: Backend::Descend,
        pages: (stats.tree_height.max(1) as f64 + fringe * nodes) * cold_factor(stats),
    });

    if stats.has_bitmap {
        // Bytes per bitmap, averaged over every (dim, level, value) slot
        // the schema defines — compressed WAH bitmaps are near-uniform on
        // the uniform workloads the estimate targets.
        let slots: usize = schema
            .dims()
            .map(|h| {
                (0..h.top_level())
                    .map(|l| h.num_values_at(l))
                    .sum::<usize>()
            })
            .sum();
        let per_bitmap_blocks =
            ((stats.bitmap_bytes as f64 / slots.max(1) as f64) / 4096.0).max(1.0);
        let mut pages = 0.0;
        for (set, h) in plan.filter.dims().zip(schema.dims()) {
            if set.level() >= h.top_level() {
                continue;
            }
            pages += set.len() as f64 * per_bitmap_blocks;
        }
        if let Some((dim, level)) = plan.group_by {
            pages += schema.dim(dim).num_values_at(level) as f64 * per_bitmap_blocks;
        }
        // The unclustered measure gather: one page per selected record,
        // capped by the column size.
        pages += (sel * records).min(blocks);
        out.push(CostEstimate {
            backend: Backend::Bitmap,
            pages,
        });
    }

    if !stats.view_cells.is_empty() && !stats.views_stale {
        let query_levels = plan.filter.levels();
        let best = stats
            .view_cells
            .iter()
            .filter(|(levels, _)| {
                let spec = ViewSpec::new(levels.clone());
                match plan.group_by {
                    None => spec.answers(&query_levels),
                    Some((dim, glevel)) => {
                        spec.answers(&query_levels)
                            && levels.get(dim.as_usize()).is_some_and(|&v| v <= glevel)
                    }
                }
            })
            .map(|(_, cells)| *cells)
            .min();
        if let Some(cells) = best {
            out.push(CostEstimate {
                backend: Backend::Mview,
                pages: (cells as f64 / rpb).ceil().max(1.0),
            });
        }
    }

    if stats.has_table {
        out.push(CostEstimate {
            backend: Backend::Scan,
            pages: blocks,
        });
    }

    out.sort_by(|a, b| a.pages.total_cmp(&b.pages));
    out
}

/// Prices the backends and picks the cheapest.
pub fn choose(schema: &CubeSchema, plan: &LogicalPlan, stats: &PartitionStats) -> PartitionPlan {
    let candidates = price(schema, plan, stats);
    let best = candidates[0];
    PartitionPlan {
        backend: best.backend,
        est_pages: best.pages,
        candidates,
    }
}
