//! Persistence: snapshot a loaded warehouse to disk as a flat image, and
//! keep the same warehouse as a live disk tree whose nodes are pages of a
//! block-structured file — then reopen and keep inserting (the fully
//! dynamic lifecycle survives restarts either way).
//!
//! Run with:
//! ```sh
//! cargo run --release --example persistence [num_records]
//! ```

use dctree::common::TempDir;
use dctree::oocore::{OocDcTree, OocOptions};
use dctree::tpcd::{generate, TpcdConfig};
use dctree::{AggregateOp, DcTree, DcTreeConfig, Mds};

fn main() -> dctree::DcResult<()> {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(20_000);
    let dir = TempDir::new("persistence-example");

    println!("loading {n} TPC-D style records…");
    let data = generate(&TpcdConfig::scaled(n, 99));
    let mut tree = DcTree::new(data.schema.clone(), DcTreeConfig::default());
    for r in &data.records {
        tree.insert(r.clone())?;
    }
    let total_before = tree.total_summary()?;
    println!("  {} records, total {} cents", tree.len(), total_before.sum);

    // 1. Flat image.
    let flat_path = dir.join("warehouse.dct");
    tree.save_to(&flat_path)?;
    let flat_size = std::fs::metadata(&flat_path)?.len();
    println!("\nflat image: {flat_path:?} ({flat_size} bytes)");
    let reloaded = DcTree::load_from(&flat_path)?;
    assert_eq!(reloaded.total_summary()?, total_before);
    println!("  reloaded and verified (invariants checked on load)");

    // 2. The same tree with its nodes in a paged file behind a buffer
    //    pool: nothing to snapshot, `flush` makes the file reopenable.
    let paged_path = dir.join("warehouse.pages");
    let config = DcTreeConfig::default();
    let opts = OocOptions {
        frames: 64,
        ..OocOptions::default()
    };
    let disk = OocDcTree::create(&paged_path, data.schema.clone(), config, opts)?;
    for chunk in data.records.chunks(256) {
        disk.write().insert_batch(chunk.to_vec())?;
    }
    disk.flush()?;
    let pages = std::fs::metadata(&paged_path)?.len() / config.block.block_size as u64;
    println!("\ndisk tree: {paged_path:?} ({pages} × 4 KiB pages)");
    println!("  buffer pool after load: {:?}", disk.pool_stats());
    drop(disk);
    let reloaded = OocDcTree::open(&paged_path, config, opts)?;
    assert_eq!(reloaded.total_summary()?, total_before);

    // 3. The reopened warehouse stays fully dynamic.
    reloaded.insert_raw(
        &[
            vec!["EUROPE", "GERMANY", "MACHINERY", "Customer#999999999"],
            vec!["EUROPE", "GERMANY", "Supplier#999999999"],
            vec!["Brand#55", "PROMO COATED PEWTER", "Part#999999999"],
            vec!["1998", "1998-12", "1998-12-24"],
        ],
        123_456,
    )?;
    let all = Mds::all(&reloaded.schema());
    println!(
        "\nafter one more insert: COUNT = {:?}, SUM = {:?}",
        reloaded.range_query(&all, AggregateOp::Count)?,
        reloaded.range_query(&all, AggregateOp::Sum)?
    );
    reloaded.read().check_invariants()?;
    println!("invariants hold — snapshot / restore / resume complete.");
    Ok(())
}
