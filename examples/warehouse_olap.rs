//! A data-warehouse OLAP session on the TPC-D-style cube of the paper's
//! evaluation: load the cube, then answer typical dashboard questions —
//! revenue by region, per-year trends, a drill-down — and compare the
//! DC-tree against a sequential scan on the same data.
//!
//! Run with:
//! ```sh
//! cargo run --release --example warehouse_olap [num_records]
//! ```

use std::time::Instant;

use dctree::scan::FlatTable;
use dctree::storage::BlockConfig;
use dctree::tpcd::{generate, TpcdConfig};
use dctree::{AggregateOp, DcTree, DcTreeConfig, DimSet, DimensionId, Mds};

fn main() -> dctree::DcResult<()> {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(50_000);
    println!("generating {n} TPC-D style fact records…");
    let data = generate(&TpcdConfig::scaled(n, 7));

    let mut tree = DcTree::new(data.schema.clone(), DcTreeConfig::default());
    let mut scan = FlatTable::for_schema(BlockConfig::DEFAULT, &data.schema);
    let t0 = Instant::now();
    for r in &data.records {
        tree.insert(r.clone())?;
        scan.insert(r.clone());
    }
    println!(
        "loaded in {:?} ({:.0} inserts/s), height {}, {} nodes\n",
        t0.elapsed(),
        n as f64 / t0.elapsed().as_secs_f64(),
        tree.height(),
        tree.num_nodes()
    );

    let customer = tree.schema().dim(DimensionId(0));
    let time = tree.schema().dim(DimensionId(3));
    let all_dims = |constrained: Vec<(usize, DimSet)>| -> Mds {
        let mut dims: Vec<DimSet> = (0..4)
            .map(|d| DimSet::singleton(tree.schema().dim(DimensionId(d as u16)).all()))
            .collect();
        for (d, set) in constrained {
            dims[d] = set;
        }
        Mds::new(dims)
    };

    // Dashboard 1: revenue by customer region (a roll-up over level 3).
    println!("— revenue by customer region —");
    for region in customer.values_at(3) {
        let q = all_dims(vec![(0, DimSet::singleton(region))]);
        let sum = tree.range_query(&q, AggregateOp::Sum)?.unwrap_or(0.0);
        let count = tree.range_query(&q, AggregateOp::Count)?.unwrap_or(0.0);
        println!(
            "  {:<12} {:>14.2} $   ({count:>6.0} line items)",
            customer.name(region)?,
            sum / 100.0
        );
    }

    // Dashboard 2: per-year revenue trend.
    println!("\n— revenue by year —");
    for year in time.values_at(2) {
        let q = all_dims(vec![(3, DimSet::singleton(year))]);
        let sum = tree.range_query(&q, AggregateOp::Sum)?.unwrap_or(0.0);
        println!("  {}  {:>14.2} $", time.name(year)?, sum / 100.0);
    }

    // Dashboard 3: drill-down — European nations in 1996, average order value.
    println!("\n— drill-down: AVG extended price per European nation, 1996 —");
    let europe = customer
        .values_at(3)
        .find(|&r| customer.name(r).unwrap() == "EUROPE");
    let y1996 = time.values_at(2).find(|&y| time.name(y).unwrap() == "1996");
    if let (Some(europe), Some(y1996)) = (europe, y1996) {
        for nation in customer.children(europe)? {
            let q = all_dims(vec![
                (0, DimSet::singleton(nation)),
                (3, DimSet::singleton(y1996)),
            ]);
            if let Some(avg) = tree.range_query(&q, AggregateOp::Avg)? {
                println!("  {:<16} {:>10.2} $", customer.name(nation)?, avg / 100.0);
            }
        }
    }

    // Dashboard 4: a pivot table — revenue by region × year, one traversal.
    println!("\n— pivot: revenue by customer region × year (single pass) —");
    {
        let filter = all_dims(vec![]);
        let cells = tree.pivot((DimensionId(0), 3), (DimensionId(3), 2), &filter)?;
        let years: Vec<_> = time.values_at(2).collect();
        print!("  {:<12}", "");
        for &y in &years {
            print!(" {:>10}", time.name(y)?);
        }
        println!();
        for region in customer.values_at(3) {
            print!("  {:<12}", customer.name(region)?);
            for &y in &years {
                let sum = cells
                    .iter()
                    .find(|((r, yy), _)| *r == region && *yy == y)
                    .map(|(_, s)| s.sum as f64 / 100.0)
                    .unwrap_or(0.0);
                print!(" {sum:>10.0}");
            }
            println!();
        }
    }

    // Head-to-head: the same region roll-up against the sequential scan.
    println!("\n— DC-tree vs sequential scan (region roll-up × 50 repetitions) —");
    let regions: Vec<Mds> = customer
        .values_at(3)
        .map(|r| all_dims(vec![(0, DimSet::singleton(r))]))
        .collect();
    let t0 = Instant::now();
    for _ in 0..50 {
        for q in &regions {
            let _ = tree.range_query(q, AggregateOp::Sum)?;
        }
    }
    let tree_time = t0.elapsed();
    let t0 = Instant::now();
    for _ in 0..50 {
        for q in &regions {
            let _ = scan.range_query(&data.schema, q, AggregateOp::Sum)?;
        }
    }
    let scan_time = t0.elapsed();
    println!(
        "  DC-tree {tree_time:?}  |  scan {scan_time:?}  |  speed-up ×{:.1}",
        scan_time.as_secs_f64() / tree_time.as_secs_f64()
    );
    Ok(())
}
