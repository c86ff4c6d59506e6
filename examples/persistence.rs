//! Persistence: snapshot a loaded warehouse to disk as a flat image, and
//! keep the same warehouse as a live disk tree whose nodes are pages of a
//! block-structured file — then reopen and keep inserting (the fully
//! dynamic lifecycle survives restarts either way).
//!
//! Run with:
//! ```sh
//! cargo run --release --example persistence [num_records]
//! ```

use dctree::tpcd::{generate, TpcdConfig};
use dctree::tree::DiskDcTree;
use dctree::{AggregateOp, DcTree, DcTreeConfig, Mds};

fn main() -> dctree::DcResult<()> {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(20_000);
    let dir = std::env::temp_dir().join("dctree-persistence-example");
    std::fs::create_dir_all(&dir)?;

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

    // 2. The same tree with its nodes in a paged file behind an LRU buffer
    //    pool: nothing to snapshot, `flush` makes the file reopenable.
    let paged_path = dir.join("warehouse.pages");
    let config = DcTreeConfig::default();
    let mut disk = DiskDcTree::create(&paged_path, data.schema.clone(), config, 64)?;
    for chunk in data.records.chunks(256) {
        disk.insert_batch(chunk.to_vec())?;
    }
    disk.flush()?;
    let pages = std::fs::metadata(&paged_path)?.len() / config.block.block_size as u64;
    println!("\ndisk tree: {paged_path:?} ({pages} × 4 KiB pages)");
    println!("  buffer pool after load: {:?}", disk.pool_stats());
    drop(disk);
    let mut reloaded = DiskDcTree::open(&paged_path, config, 64)?;
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
    let all = Mds::all(reloaded.schema());
    println!(
        "\nafter one more insert: COUNT = {:?}, SUM = {:?}",
        reloaded.range_query(&all, AggregateOp::Count)?,
        reloaded.range_query(&all, AggregateOp::Sum)?
    );
    reloaded.check_invariants()?;
    println!("invariants hold — snapshot / restore / resume complete.");

    std::fs::remove_file(&flat_path).ok();
    std::fs::remove_file(&paged_path).ok();
    Ok(())
}
