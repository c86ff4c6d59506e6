//! Persistence: a tree's image is a shard file — the paged format a disk
//! shard is served from. Load a warehouse in memory, write its image,
//! reopen that image as a live disk tree and keep inserting there, then
//! read the disk tree's file back into memory (the fully dynamic lifecycle
//! survives the trip either way).
//!
//! Run with:
//! ```sh
//! cargo run --release --example persistence [num_records]
//! ```

use dctree::common::TempDir;
use dctree::oocore::{read_image, write_image, OocDcTree, OocOptions};
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
    let config = DcTreeConfig::default();
    let mut tree = DcTree::new(data.schema.clone(), config);
    for chunk in data.records.chunks(256) {
        tree.insert_batch(chunk.to_vec())?;
    }
    let total_before = tree.total_summary()?;
    println!("  {} records, total {} cents", tree.len(), total_before.sum);

    // 1. The resident tree's image: a shard file, one chain of pages per
    //    node, written by copying the tree node for node.
    let path = dir.join("warehouse.dct");
    write_image(&tree, &path)?;
    let pages = std::fs::metadata(&path)?.len() / config.block.block_size as u64;
    println!("\nimage: {path:?} ({pages} × 4 KiB pages)");

    // 2. The image *is* a disk tree: open it behind a node cache and
    //    serve it from its pages.
    let opts = OocOptions {
        frames: 64,
        ..OocOptions::default()
    };
    let disk = OocDcTree::open(&path, config, opts)?;
    assert_eq!(disk.read().total_summary()?, total_before);
    assert_eq!(disk.read().len(), tree.len());
    println!("  opened as a disk tree, totals verified");

    // 3. The disk tree stays fully dynamic.
    disk.write().insert_raw(
        &[
            vec!["EUROPE", "GERMANY", "MACHINERY", "Customer#999999999"],
            vec!["EUROPE", "GERMANY", "Supplier#999999999"],
            vec!["Brand#55", "PROMO COATED PEWTER", "Part#999999999"],
            vec!["1998", "1998-12", "1998-12-24"],
        ],
        123_456,
    )?;
    let reader = disk.read();
    let all = Mds::all(reader.schema());
    println!(
        "\nafter one more insert on disk: COUNT = {:?}, SUM = {:?}",
        reader.range_query(&all, AggregateOp::Count)?,
        reader.range_query(&all, AggregateOp::Sum)?
    );
    drop(reader);
    println!("  node cache: {:?}", disk.pool_stats());
    disk.flush()?;
    drop(disk);

    // 4. And back: the flushed file read into memory, invariants checked
    //    on the way in.
    let reloaded = read_image(&path, config)?;
    assert_eq!(reloaded.len(), tree.len() + 1);
    println!(
        "\nread back into memory: {} records, {} nodes, height {}",
        reloaded.len(),
        reloaded.num_nodes(),
        reloaded.height()
    );
    println!("invariants hold — image / serve / resume / restore complete.");
    Ok(())
}
