//! The disk-resident DC-tree: nodes live in a paged file behind a cache
//! of decoded nodes, so the paper's node accesses become physically
//! measurable — cache hits, node loads (read and decoded) and write-backs
//! instead of simulated counters.
//!
//! Run with:
//! ```sh
//! cargo run --release --example disk_tree [num_records]
//! ```

use std::time::Instant;

use dctree::common::TempDir;
use dctree::oocore::{OocDcTree, OocOptions};
use dctree::tpcd::{generate, TpcdConfig};
use dctree::{AggregateOp, DcTreeConfig, DimSet, DimensionId, Mds};

fn main() -> dctree::DcResult<()> {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(20_000);
    let dir = TempDir::new("disk-example");
    let path = dir.join("warehouse.dcdisk");

    println!("generating {n} TPC-D style records…");
    let data = generate(&TpcdConfig::scaled(n, 11));

    for frames in [8usize, 64, 1024] {
        let opts = OocOptions {
            frames,
            ..OocOptions::default()
        };
        let tree = OocDcTree::create(&path, data.schema.clone(), DcTreeConfig::default(), opts)?;
        let t0 = Instant::now();
        {
            let mut writer = tree.write();
            for r in &data.records {
                writer.insert(r.clone())?;
            }
        }
        tree.flush()?;
        let load = t0.elapsed();
        let after_load = tree.pool_stats();

        // A dashboard roll-up workload on the cold-ish cache.
        let customer = data.schema.dim(DimensionId(0));
        let queries: Vec<Mds> = customer
            .values_at(3)
            .map(|region| {
                Mds::new(
                    (0..4)
                        .map(|d| {
                            if d == 0 {
                                DimSet::singleton(region)
                            } else {
                                DimSet::singleton(data.schema.dim(DimensionId(d as u16)).all())
                            }
                        })
                        .collect(),
                )
            })
            .collect();
        let t0 = Instant::now();
        let mut total = 0.0;
        let reader = tree.read();
        for _ in 0..20 {
            for q in &queries {
                total += reader.range_query(q, AggregateOp::Sum)?.unwrap_or(0.0);
            }
        }
        drop(reader);
        let qt = t0.elapsed() / (20 * queries.len() as u32);
        let s = tree.pool_stats();
        println!(
            "{frames:>5} cached nodes: load {load:?} | query {qt:?} | node accesses after \
             queries: {} hits / {} loads ({:.0}% hit), {} write-backs   (checksum {total:.0})",
            s.hits,
            s.misses,
            100.0 * s.hits as f64 / (s.hits + s.misses).max(1) as f64,
            s.writebacks - after_load.writebacks,
        );
    }
    println!("\nsmaller caches trade memory for node loads — the node accesses the\npaper's evaluation counts.");
    Ok(())
}
