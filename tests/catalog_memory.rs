//! A sharded engine keeps one concept hierarchy, however many shards it
//! has: the catalog interns, and every shard adopts snapshots that share
//! the catalog's value storage. The same TPC-D load into a 1-shard and a
//! 4-shard engine may differ in live bytes by less than one hierarchy copy
//! — shards that each kept their own schema would add three.
//!
//! A counting `#[global_allocator]` tracks live bytes across every thread
//! (the shard writers allocate too); this file holds one test so no other
//! test's allocations land in the window.

use std::sync::atomic::Ordering::Relaxed;

use dc_serve::{EngineConfig, ShardedDcTree};
use dc_tpcd::{cube_schema, generate, TpcdConfig};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::LIVE;

const RECORDS: usize = 50_000;

/// One `INSERT_BATCH`: raw paths and measure per record.
type Batch = Vec<(Vec<Vec<String>>, i64)>;

/// Live bytes an engine of `shards` shards keeps once it has loaded
/// `batches` into an empty schema (every value interned on the way in).
/// Each writer publishes after every command (`batch_size: 1`): a node the
/// writer copies after a publish is sized to what it held then, so with
/// larger batches the trees' bytes would depend on thread timing.
fn loaded_bytes(batches: &[Batch], shards: usize) -> usize {
    let before = LIVE.load(Relaxed);
    let engine = ShardedDcTree::new(
        cube_schema(),
        EngineConfig {
            num_shards: shards,
            batch_size: 1,
            cache: None,
            planner: None,
            pool_workers: Some(0),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    for batch in batches {
        engine.insert_batch_raw(batch).unwrap();
    }
    engine.flush();
    let held = LIVE.load(Relaxed).saturating_sub(before);
    assert_eq!(engine.len(), RECORDS as u64);
    engine.shutdown();
    drop(engine);
    held
}

#[test]
fn the_hierarchy_does_not_grow_with_the_shard_count() {
    let data = generate(&TpcdConfig::scaled(RECORDS, 29));
    let batches: Vec<Batch> = data
        .records
        .chunks(512)
        .map(|chunk| {
            chunk
                .iter()
                .map(|r| (data.paths_for(r), r.measure))
                .collect()
        })
        .collect();
    // One hierarchy copy: what a schema that interned the whole load holds,
    // name dictionaries included.
    let before = LIVE.load(Relaxed);
    let mut schema = cube_schema();
    for (paths, measure) in batches.iter().flatten() {
        schema.intern_record(paths, *measure).unwrap();
    }
    let hierarchy = LIVE.load(Relaxed).saturating_sub(before);
    drop(schema);

    let one = loaded_bytes(&batches, 1);
    let four = loaded_bytes(&batches, 4);
    let apart = one.abs_diff(four);
    println!(
        "{RECORDS} records: 1 shard {one} B, 4 shards {four} B, apart {apart} B \
         = {:.2} hierarchy copies of {hierarchy} B",
        apart as f64 / hierarchy as f64
    );
    assert!(
        apart < hierarchy,
        "a 4-shard engine holds {apart} B more or less than a 1-shard one after the same \
         {RECORDS} records: at least one copy of the {hierarchy} B hierarchy per extra shard"
    );
}
