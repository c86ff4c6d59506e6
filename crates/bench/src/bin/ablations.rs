//! **Ablations** — quantifying the design choices called out in `DESIGN.md`.
//!
//! * **A1** materialized aggregates on/off: how much of the DC-tree's query
//!   advantage comes from Fig. 7's contained-entry shortcut versus pure MDS
//!   pruning.
//! * **A2** supernodes on/off: forced (possibly overlapping/unbalanced)
//!   splits instead of multi-block nodes.
//! * **A3** split-acceptance thresholds: sweep of `max_overlap` (and the
//!   paper's X-tree-inherited 35% `min_fill`) — the knob where this
//!   reproduction's default deviates from the paper (see `DcTreeConfig`).
//! * **A4** MDS vs MBR dead space: the volume an MBR wastes relative to the
//!   MDS describing the same node content (the paper's Fig. 3 argument).
//! * **A5** data skew: TPC-D draws entities uniformly; real warehouses are
//!   Zipf-skewed. Sweeps the generator's Zipf exponent and reports how the
//!   structure and the query costs respond.
//! * **A6** memory normalization: replays each engine's block-access trace
//!   through an LRU cache of a fixed frame budget, making the paper's
//!   "memory available for the X-tree was restricted to the memory size the
//!   DC-tree uses" comparison executable (physical reads per query). The
//!   DC-tree's trace comes from the node store it reads through
//!   ([`Recording`]); the X-tree and the scan record their own.
//!
//! ```sh
//! cargo run --release -p dc-bench --bin ablations [records]
//! ```

use std::borrow::Cow;
use std::cell::RefCell;
use std::time::Instant;

use dc_common::DcResult;
use dc_query::{RangeQueryGen, ValuePick};
use dc_tpcd::{generate, TpcdConfig, TpcdData};
use dc_tree::node::{Node, NodeId};
use dc_tree::{Arena, DcTree, DcTreeConfig, NodeStore};

/// An arena that records every block of every node read through it, keyed
/// `node * 4096 + block`: the access trace A6 replays through
/// [`dc_bench::cachesim::CacheSim`].
#[derive(Default)]
struct Recording {
    nodes: Arena,
    trace: RefCell<Vec<u64>>,
}

impl NodeStore for Recording {
    fn get(&self, id: NodeId) -> DcResult<Cow<'_, Node>> {
        let node = self.nodes.get(id)?;
        let key = u64::from(id.raw()) * 4096;
        let blocks = (0..u64::from(node.blocks)).map(|b| key + b);
        self.trace.borrow_mut().extend(blocks);
        Ok(node)
    }

    fn update<R>(&mut self, id: NodeId, f: impl FnOnce(&mut Node) -> DcResult<R>) -> DcResult<R> {
        self.nodes.update(id, f)
    }

    fn alloc(&mut self, node: Node) -> DcResult<NodeId> {
        self.nodes.alloc(node)
    }

    fn free(&mut self, id: NodeId) -> DcResult<Node> {
        self.nodes.free(id)
    }
}

fn load(data: &TpcdData, config: DcTreeConfig) -> (DcTree, std::time::Duration) {
    let mut dc = DcTree::new(data.schema.clone(), config);
    let t0 = Instant::now();
    for r in &data.records {
        dc.insert(r.clone()).expect("insert");
    }
    (dc, t0.elapsed())
}

fn query_batch(data: &TpcdData, dc: &DcTree, sel: f64, n: usize) -> (std::time::Duration, f64) {
    let mut gen = RangeQueryGen::new(sel, ValuePick::ContiguousRun, 7);
    let queries: Vec<_> = (0..n).map(|_| gen.generate(&data.schema)).collect();
    let before = dc.io_stats().reads;
    let t0 = Instant::now();
    for q in &queries {
        let _ = dc.range_summary(q).expect("query");
    }
    (
        t0.elapsed() / n as u32,
        (dc.io_stats().reads - before) as f64 / n as f64,
    )
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(50_000);
    let queries = 100;
    let data = generate(&TpcdConfig::scaled(n, 42));
    let base = DcTreeConfig::default();

    println!("A1 — materialized aggregates ({n} records, {queries} queries/point)");
    println!(
        "{:>22} {:>7} {:>14} {:>10} {:>10}",
        "config", "sel", "time/query", "reads", "shortcuts"
    );
    for (label, config) in [
        ("sound containment", base),
        (
            "descend-to-leaves",
            DcTreeConfig {
                use_materialized_aggregates: false,
                ..base
            },
        ),
        (
            "paper Fig.7 (UNSOUND)",
            DcTreeConfig {
                use_paper_fig7_containment: true,
                ..base
            },
        ),
    ] {
        let (dc, _) = load(&data, config);
        for sel in [0.01, 0.05, 0.25] {
            let before = dc.metrics().shortcut_hits;
            let (t, reads) = query_batch(&data, &dc, sel, queries);
            let hits = dc.metrics().shortcut_hits - before;
            println!(
                "{label:>22} {:>6.0}% {t:>14?} {reads:>10.0} {hits:>10}",
                sel * 100.0
            );
        }
    }
    println!(
        "  NOTE: under the paper's literal Fig. 7 adaptation the shortcut fires\n           far more often — and overcounts on mixed-level queries (see the\n           `paper_fig7_containment_overcounts` test). Under sound containment,\n           conjunctive random-level workloads rarely fully contain an entry, so\n           the DC-tree's advantage on this workload comes from MDS pruning.\n"
    );

    println!("A1b — roll-up workload (one dimension at a coarse level, rest ALL)");
    println!(
        "{:>22} {:>14} {:>10} {:>10}",
        "config", "time/query", "reads", "shortcuts"
    );
    {
        use dc_common::DimensionId;
        use dc_mds::{DimSet, Mds};
        let mut rollups = Vec::new();
        for d in 0..data.schema.num_dims() as u16 {
            let h = data.schema.dim(DimensionId(d));
            for level in 1..h.top_level() {
                for v in h.values_at(level) {
                    let dims = (0..data.schema.num_dims() as u16)
                        .map(|dd| {
                            if dd == d {
                                DimSet::singleton(v)
                            } else {
                                DimSet::singleton(data.schema.dim(DimensionId(dd)).all())
                            }
                        })
                        .collect();
                    rollups.push(Mds::new(dims));
                }
            }
        }
        rollups.truncate(300);
        for (label, config) in [
            ("sound containment", base),
            (
                "descend-to-leaves",
                DcTreeConfig {
                    use_materialized_aggregates: false,
                    ..base
                },
            ),
        ] {
            let (dc, _) = load(&data, config);
            let (before, reads_before) = (dc.metrics().shortcut_hits, dc.io_stats().reads);
            let t0 = Instant::now();
            for q in &rollups {
                let _ = dc.range_summary(q).expect("query");
            }
            let t = t0.elapsed() / rollups.len() as u32;
            let reads = (dc.io_stats().reads - reads_before) as f64 / rollups.len() as f64;
            let hits = dc.metrics().shortcut_hits - before;
            println!("{label:>22} {t:>14?} {reads:>10.0} {hits:>10}");
        }
    }

    println!("\nA2 — supernodes vs forced splits");
    println!(
        "{:>22} {:>14} {:>7} {:>7} {:>14} {:>10}",
        "config", "insert", "nodes", "super", "5% query", "reads"
    );
    for (label, config) in [
        ("supernodes (paper)", base),
        (
            "forced splits",
            DcTreeConfig {
                allow_supernodes: false,
                ..base
            },
        ),
    ] {
        let (dc, ins) = load(&data, config);
        let stats = dc.stats().unwrap();
        let (t, reads) = query_batch(&data, &dc, 0.05, queries);
        println!(
            "{label:>22} {ins:>14?} {:>7} {:>7} {t:>14?} {reads:>10.0}",
            dc.num_nodes(),
            stats.supernodes
        );
    }

    println!("\nA3 — split-acceptance thresholds (max_overlap × min_fill)");
    println!(
        "{:>22} {:>14} {:>7} {:>14} {:>10} {:>14} {:>10}",
        "config", "insert", "dirs", "5% query", "reads", "25% query", "reads"
    );
    for max_overlap in [0.0, 0.05, 0.20] {
        for min_fill in [0.20, 0.35] {
            let config = DcTreeConfig {
                max_overlap,
                min_fill,
                ..base
            };
            let (dc, ins) = load(&data, config);
            let stats = dc.stats().unwrap();
            let (t5, r5) = query_batch(&data, &dc, 0.05, queries);
            let (t25, r25) = query_batch(&data, &dc, 0.25, queries);
            let label = format!("ov={max_overlap:.2} mf={min_fill:.2}");
            println!(
                "{label:>22} {ins:>14?} {:>7} {t5:>14?} {r5:>10.0} {t25:>14?} {r25:>10.0}",
                stats.dir_nodes
            );
        }
    }

    println!("\nA5 — Zipf-skewed entity popularity (uniform = the paper's TPC-D)");
    println!(
        "{:>22} {:>14} {:>7} {:>7} {:>14} {:>10} {:>14} {:>10}",
        "skew", "insert", "nodes", "super", "1% query", "reads", "25% query", "reads"
    );
    for skew in [0.0, 0.8, 1.2] {
        let data = dc_tpcd::generate(&dc_tpcd::TpcdConfig::scaled_with_skew(n, 42, skew));
        let (dc, ins) = load(&data, base);
        let stats = dc.stats().unwrap();
        let (t1, r1) = query_batch(&data, &dc, 0.01, queries);
        let (t25, r25) = query_batch(&data, &dc, 0.25, queries);
        println!(
            "{:>22} {ins:>14?} {:>7} {:>7} {t1:>14?} {r1:>10.0} {t25:>14?} {r25:>10.0}",
            format!("zipf={skew:.1}"),
            dc.num_nodes(),
            stats.supernodes
        );
    }

    println!("\nA6 — physical reads under an LRU memory budget (5% selectivity)");
    {
        use dc_bench::cachesim::CacheSim;
        use dc_query::mds_to_mbr;
        use dc_scan::FlatTable;
        use dc_storage::BlockConfig;
        use dc_xtree::{XTree, XTreeConfig};

        let dc = load(&data, base).0.copy_to(Recording::default()).unwrap();
        let mut x = XTree::new(data.schema.num_flat_axes(), XTreeConfig::default());
        let mut scan = FlatTable::for_schema(BlockConfig::DEFAULT, &data.schema);
        for r in &data.records {
            x.insert(data.schema.flatten_record(r).unwrap(), r.measure);
            scan.insert(r.clone());
        }
        let mut gen = RangeQueryGen::new(0.05, ValuePick::ContiguousRun, 7);
        let queries: Vec<_> = (0..queries).map(|_| gen.generate(&data.schema)).collect();
        let mbrs: Vec<_> = queries
            .iter()
            .map(|q| mds_to_mbr(&data.schema, q))
            .collect();

        dc.store().trace.take();
        for q in &queries {
            let _ = dc.range_summary(q).expect("query");
        }
        let dc_trace = dc.store().trace.take();
        x.begin_trace();
        for m in &mbrs {
            let _ = x.range_summary(m);
        }
        let x_trace = x.end_trace();
        scan.begin_trace();
        for q in &queries {
            let _ = scan.range_summary(&data.schema, q).expect("query");
        }
        let scan_trace = scan.end_trace();

        // Memory budgets as fractions of the DC-tree's own block count —
        // the paper's normalization.
        let dc_blocks: f64 = dc
            .stats()
            .unwrap()
            .levels
            .iter()
            .map(|l| l.nodes as f64 * l.avg_blocks)
            .sum();
        println!(
            "  DC-tree occupies {:.0} blocks; budgets below are fractions of that.",
            dc_blocks
        );
        println!(
            "{:>10} {:>10} {:>16} {:>16} {:>16}",
            "budget", "frames", "DC phys/query", "X phys/query", "scan phys/query"
        );
        for fraction in [0.05, 0.25, 1.00] {
            let frames = ((dc_blocks * fraction) as usize).max(1);
            let rep_dc = CacheSim::replay(frames, dc_trace.iter().copied());
            let rep_x = CacheSim::replay(frames, x_trace.iter().copied());
            let rep_scan = CacheSim::replay(frames, scan_trace.iter().copied());
            println!(
                "{:>9.0}% {frames:>10} {:>16.1} {:>16.1} {:>16.1}",
                fraction * 100.0,
                rep_dc.physical as f64 / queries.len() as f64,
                rep_x.physical as f64 / queries.len() as f64,
                rep_scan.physical as f64 / queries.len() as f64,
            );
        }
    }

    println!("\nA4 — dead space: MDS vs enclosing-MBR description of data nodes");
    let (dc, _) = load(&data, base);
    let report = dc.dead_space_report().unwrap();
    let stats = dc.stats().unwrap();
    println!(
        "  {} data nodes: occupied leaf cells (MDS view) = {}, interval \
         cells (MBR view) = {} → ×{:.1} dead-space blow-up for the totally \
         ordered description (Fig. 3).",
        report.data_nodes,
        report.mds_cells,
        report.mbr_cells,
        report.blowup()
    );
    println!(
        "  directory MDS storage: {} listed values across {} nodes \
         (avg {:.1} values/node) — the price the DC-tree pays for that \
         precision is a variable-size directory entry.",
        stats.total_mds_size,
        stats.dir_nodes + stats.data_nodes,
        stats.total_mds_size as f64 / (stats.dir_nodes + stats.data_nodes) as f64
    );
}
