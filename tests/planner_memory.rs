//! What the planner costs in memory is its roll-up views, not a second copy
//! of the cube: the same TPC-D records loaded into a planner-on and a
//! planner-off engine differ in live bytes by at most a fixed allowance
//! per occupied view cell — a bound the cube's value counts set, which
//! does not grow with the record count the way a per-record index or table
//! kept beside the tree would.
//!
//! A counting `#[global_allocator]` tracks live bytes across every thread
//! (the shard writers allocate too); this file holds one test so no other
//! test's allocations land in the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use dc_mview::{rollup_lattice, MaterializedView};
use dc_serve::{EngineConfig, PlannerOptions, ShardedDcTree};
use dc_tpcd::{generate, TpcdConfig, TpcdData};

/// Counts live heap bytes.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain atomic, so updating it
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (above).
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's `ptr`/`layout`/`new_size` obligations pass
        // through unchanged.
        let out = unsafe { System.realloc(ptr, layout, new_size) };
        if !out.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            LIVE.fetch_add(new_size, Relaxed);
        }
        out
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const RECORDS: usize = 50_000;
/// One shard, so the engine's lattice is exactly the one built below.
const SHARDS: usize = 1;
/// Live bytes allowed per occupied view cell: its hash-map slot (key,
/// summary, control byte) at the map's worst load factor, with room to
/// spare.
const CELL_BYTES: usize = 256;

/// Live bytes an engine holding every record of `data` keeps once loaded.
fn loaded_bytes(data: &TpcdData, planner: Option<PlannerOptions>) -> usize {
    let before = LIVE.load(Relaxed);
    let engine = ShardedDcTree::new(
        data.schema.clone(),
        EngineConfig {
            num_shards: SHARDS,
            cache: None,
            parallel_queries: false,
            planner,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    for chunk in data.records.chunks(512) {
        let raw: Vec<_> = chunk
            .iter()
            .map(|r| (data.paths_for(r), r.measure))
            .collect();
        engine.insert_batch_raw(&raw).unwrap();
    }
    engine.flush();
    let held = LIVE.load(Relaxed).saturating_sub(before);
    assert_eq!(engine.len(), RECORDS as u64);
    engine.shutdown();
    drop(engine);
    held
}

#[test]
fn planner_memory_is_bounded_by_the_view_cells() {
    let data = generate(&TpcdConfig::scaled(RECORDS, 23));
    // The lattice the planner-on engine's one shard keeps.
    let cells: usize = rollup_lattice(&data.schema)
        .into_iter()
        .map(|spec| {
            let mut view = MaterializedView::new(spec);
            for r in &data.records {
                view.apply(&data.schema, r).unwrap();
            }
            view.num_cells()
        })
        .sum();
    let off = loaded_bytes(&data, None);
    let on = loaded_bytes(&data, Some(PlannerOptions));
    let extra = on.saturating_sub(off);
    let bound = cells * CELL_BYTES;
    println!(
        "{RECORDS} records, {cells} view cells: planner off {off} B ({:.1} B/record), \
         on {on} B ({:.1} B/record); extra {extra} B = {:.1} B/record = {:.1} B/cell, \
         bound {bound} B = {:.1} B/record",
        off as f64 / RECORDS as f64,
        on as f64 / RECORDS as f64,
        extra as f64 / RECORDS as f64,
        extra as f64 / cells as f64,
        bound as f64 / RECORDS as f64,
    );
    assert!(
        extra <= bound,
        "the planner-on engine holds {extra} B more than the planner-off one for \
         {RECORDS} records: more than {CELL_BYTES} B for each of its {cells} view cells"
    );
}
