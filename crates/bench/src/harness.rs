//! Workload runners shared by the figure-reproduction binaries.

use std::time::{Duration, Instant};

use dc_bitmap::BitmapIndex;
use dc_common::MeasureSummary;
use dc_query::{mds_to_mbr, RangeQueryGen, ValuePick};
use dc_scan::FlatTable;
use dc_storage::BlockConfig;
use dc_tpcd::{generate, TpcdConfig, TpcdData};
use dc_tree::{DcTree, DcTreeConfig};
use dc_xtree::{XTree, XTreeConfig};

/// The three engines of the evaluation, loaded with the same cube.
pub struct Engines {
    /// The generated cube (schema + records).
    pub data: TpcdData,
    /// The DC-tree.
    pub dc: DcTree,
    /// The X-tree over the 13 flat axes.
    pub x: XTree,
    /// The sequential scan.
    pub scan: FlatTable,
    /// The compressed bitmap index (§2 related-work baseline).
    pub bitmap: BitmapIndex,
    /// Wall time spent inserting into the DC-tree.
    pub dc_insert_time: Duration,
    /// Wall time spent inserting into the X-tree.
    pub x_insert_time: Duration,
    /// Wall time spent inserting into the bitmap index.
    pub bitmap_insert_time: Duration,
}

/// Generates `lineitems` records and loads all three engines,
/// record-at-a-time, timing the inserts.
pub fn build_engines(lineitems: usize, seed: u64) -> Engines {
    let data = generate(&TpcdConfig::scaled(lineitems, seed));
    let mut dc = DcTree::new(data.schema.clone(), DcTreeConfig::default());
    let mut x = XTree::new(data.schema.num_flat_axes(), XTreeConfig::default());
    let mut scan = FlatTable::for_schema(BlockConfig::DEFAULT, &data.schema);
    let mut bitmap = BitmapIndex::new(&data.schema, BlockConfig::DEFAULT);

    let flat: Vec<Vec<u32>> = data
        .records
        .iter()
        .map(|r| data.schema.flatten_record(r).unwrap())
        .collect();

    let t0 = Instant::now();
    for r in &data.records {
        dc.insert(r.clone()).unwrap();
    }
    let dc_insert_time = t0.elapsed();

    let t0 = Instant::now();
    for (coords, r) in flat.into_iter().zip(&data.records) {
        x.insert(coords, r.measure);
    }
    let x_insert_time = t0.elapsed();

    for r in &data.records {
        scan.insert(r.clone());
    }

    let t0 = Instant::now();
    for r in &data.records {
        bitmap.insert(&data.schema, r).expect("bitmap insert");
    }
    let bitmap_insert_time = t0.elapsed();

    Engines {
        data,
        dc,
        x,
        scan,
        bitmap,
        dc_insert_time,
        x_insert_time,
        bitmap_insert_time,
    }
}

/// Result of one engine's query batch.
#[derive(Clone, Copy, Debug)]
pub struct QueryRun {
    /// Average wall time per query.
    pub avg_time: Duration,
    /// Average logical page reads per query.
    pub avg_reads: f64,
}

/// Per-engine results of one query batch.
#[derive(Clone, Copy, Debug)]
pub struct BatchResults {
    /// DC-tree.
    pub dc: QueryRun,
    /// X-tree.
    pub x: QueryRun,
    /// Sequential scan.
    pub scan: QueryRun,
    /// Bitmap index.
    pub bitmap: QueryRun,
}

/// Runs `n` random contiguous-run queries of the given selectivity against
/// all four engines, asserting identical answers.
pub fn run_queries(e: &Engines, selectivity: f64, n: usize, seed: u64) -> BatchResults {
    let mut gen = RangeQueryGen::new(selectivity, ValuePick::ContiguousRun, seed);
    let queries: Vec<_> = (0..n).map(|_| gen.generate(&e.data.schema)).collect();
    let mbrs: Vec<_> = queries
        .iter()
        .map(|q| mds_to_mbr(&e.data.schema, q))
        .collect();

    let before = e.dc.io_stats().reads;
    let t0 = Instant::now();
    let dc_answers: Vec<MeasureSummary> = queries
        .iter()
        .map(|q| e.dc.range_summary(q).unwrap())
        .collect();
    let dc_time = t0.elapsed();
    let dc_reads = e.dc.io_stats().reads - before;

    e.x.reset_io();
    let t0 = Instant::now();
    let x_answers: Vec<MeasureSummary> = mbrs.iter().map(|m| e.x.range_summary(m)).collect();
    let x_time = t0.elapsed();
    let x_reads = e.x.io_stats().reads;

    e.scan.reset_io();
    let t0 = Instant::now();
    let scan_answers: Vec<MeasureSummary> = queries
        .iter()
        .map(|q| e.scan.range_summary(&e.data.schema, q).unwrap())
        .collect();
    let scan_time = t0.elapsed();
    let scan_reads = e.scan.io_stats().reads;

    e.bitmap.reset_io();
    let t0 = Instant::now();
    let bitmap_answers: Vec<MeasureSummary> = queries
        .iter()
        .map(|q| e.bitmap.range_summary(&e.data.schema, q).unwrap())
        .collect();
    let bitmap_time = t0.elapsed();
    let bitmap_reads = e.bitmap.io_stats().reads;

    assert_eq!(dc_answers, scan_answers, "DC-tree and scan disagree");
    assert_eq!(dc_answers, x_answers, "DC-tree and X-tree disagree");
    assert_eq!(
        dc_answers, bitmap_answers,
        "DC-tree and bitmap index disagree"
    );

    BatchResults {
        dc: QueryRun {
            avg_time: dc_time / n as u32,
            avg_reads: dc_reads as f64 / n as f64,
        },
        x: QueryRun {
            avg_time: x_time / n as u32,
            avg_reads: x_reads as f64 / n as f64,
        },
        scan: QueryRun {
            avg_time: scan_time / n as u32,
            avg_reads: scan_reads as f64 / n as f64,
        },
        bitmap: QueryRun {
            avg_time: bitmap_time / n as u32,
            avg_reads: bitmap_reads as f64 / n as f64,
        },
    }
}
