//! Quickstart: build a small data cube, insert records one at a time, run
//! range queries with different aggregation operators, and delete.
//!
//! Run with:
//! ```sh
//! cargo run --example quickstart
//! ```

use dctree::{
    AggregateOp, CubeSchema, DcTree, DcTreeConfig, DimSet, DimensionId, HierarchySchema, Mds,
};

fn main() -> dctree::DcResult<()> {
    // A two-dimensional cube: Customer (Region → Nation) × Time (Year →
    // Month), measuring revenue in cents.
    let schema = CubeSchema::new(
        vec![
            HierarchySchema::new("Customer", vec!["Region".into(), "Nation".into()]),
            HierarchySchema::new("Time", vec!["Year".into(), "Month".into()]),
        ],
        "Revenue",
    );
    let mut tree = DcTree::new(schema, DcTreeConfig::default());

    // Fully dynamic: every insert immediately updates the index and the
    // materialized aggregates — no nightly batch window.
    #[allow(clippy::inconsistent_digit_grouping)] // NNN_00 reads as dollars_cents
    let sales: &[(&str, &str, &str, &str, i64)] = &[
        ("EUROPE", "GERMANY", "1996", "01", 120_00),
        ("EUROPE", "GERMANY", "1996", "03", 80_00),
        ("EUROPE", "FRANCE", "1996", "07", 200_00),
        ("EUROPE", "FRANCE", "1997", "02", 50_00),
        ("ASIA", "JAPAN", "1996", "11", 300_00),
        ("ASIA", "CHINA", "1997", "05", 150_00),
    ];
    for &(region, nation, year, month, cents) in sales {
        tree.insert_raw(&[vec![region, nation], vec![year, month]], cents)?;
    }
    println!(
        "inserted {} records, tree height {}",
        tree.len(),
        tree.height()
    );

    // The root materializes the total: no traversal needed.
    let total = tree.total_summary()?;
    println!(
        "total revenue: {} cents over {} sales",
        total.sum, total.count
    );

    // Range query: European revenue in 1996. A range is an MDS — one set of
    // attribute values per dimension, each on a chosen hierarchy level.
    let customer = tree.schema().dim(DimensionId(0));
    let time = tree.schema().dim(DimensionId(1));
    let europe = customer.lookup_path(&["EUROPE"]).expect("interned above");
    let y1996 = time.lookup_path(&["1996"]).expect("interned above");
    let query = Mds::new(vec![DimSet::singleton(europe), DimSet::singleton(y1996)]);

    for op in AggregateOp::ALL {
        println!(
            "{op}(revenue | EUROPE, 1996) = {:?}",
            tree.range_query(&query, op)?
        );
    }

    // Drill down: Germany only, any year.
    let germany = customer
        .lookup_path(&["EUROPE", "GERMANY"])
        .expect("interned above");
    let query = Mds::new(vec![
        DimSet::singleton(germany),
        DimSet::singleton(time.all()),
    ]);
    println!(
        "SUM(revenue | GERMANY, any year) = {:?}",
        tree.range_query(&query, AggregateOp::Sum)?
    );

    // Fully dynamic also means deletion: remove one sale and re-check.
    let victim = tree.iter_records().next().unwrap().clone();
    let gone = tree.delete(&victim)?;
    println!("deleted one record: {gone}; {} remain", tree.len());
    tree.check_invariants()?;
    Ok(())
}
