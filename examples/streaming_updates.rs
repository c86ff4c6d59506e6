//! The always-online scenario that motivates the paper: "very dynamic
//! applications such as stock markets" where the warehouse cannot afford a
//! nightly batch window. A producer thread streams trades into a
//! [`ConcurrentDcTree`] while analyst threads continuously query it; the
//! example reports insert latency percentiles and query throughput.
//!
//! Run with:
//! ```sh
//! cargo run --release --example streaming_updates [seconds]
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dctree::{
    AggregateOp, ConcurrentDcTree, CubeSchema, DcTree, DcTreeConfig, DimSet, DimensionId,
    HierarchySchema, Mds,
};
use rand::prelude::*;
use rand::rngs::StdRng;

const SECTORS: [&str; 5] = ["TECH", "ENERGY", "FINANCE", "HEALTH", "RETAIL"];
const VENUES: [&str; 3] = ["NYSE", "NASDAQ", "LSE"];

fn main() {
    let seconds: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(3);

    // Ticker tape cube: Instrument (Sector → Symbol) × Venue × Time
    // (Hour → Minute), measure = trade value in cents.
    let schema = CubeSchema::new(
        vec![
            HierarchySchema::new("Instrument", vec!["Sector".into(), "Symbol".into()]),
            HierarchySchema::new("Venue", vec!["Venue".into()]),
            HierarchySchema::new("Time", vec!["Hour".into(), "Minute".into()]),
        ],
        "TradeValue",
    );
    let tree = Arc::new(ConcurrentDcTree::new(DcTree::new(
        schema,
        DcTreeConfig::default(),
    )));
    let stop = Arc::new(AtomicBool::new(false));
    let queries_run = Arc::new(AtomicU64::new(0));

    // Producer: a firehose of trades.
    let producer = {
        let tree = Arc::clone(&tree);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(1);
            let mut latencies_us: Vec<u64> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let sector = SECTORS[rng.gen_range(0..SECTORS.len())];
                let symbol = format!("{sector}-{:03}", rng.gen_range(0..120));
                let venue = VENUES[rng.gen_range(0..VENUES.len())];
                let hour = format!("{:02}", rng.gen_range(9..17));
                let minute = format!("{hour}:{:02}", rng.gen_range(0..60));
                let value = rng.gen_range(1_000..5_000_000);
                let t0 = Instant::now();
                tree.insert_raw(
                    &[
                        vec![sector.to_string(), symbol],
                        vec![venue.to_string()],
                        vec![hour, minute],
                    ],
                    value,
                )
                .expect("insert");
                latencies_us.push(t0.elapsed().as_micros() as u64);
            }
            latencies_us
        })
    };

    // Analysts: sector roll-ups while trades stream in.
    let analysts: Vec<_> = (0..2)
        .map(|_| {
            let tree = Arc::clone(&tree);
            let stop = Arc::clone(&stop);
            let queries_run = Arc::clone(&queries_run);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let q = tree.with_read(|t| {
                        let inst = t.schema().dim(DimensionId(0));
                        let sector = inst.values_at(1).next().unwrap_or_else(|| inst.all());
                        Mds::new(vec![
                            DimSet::singleton(sector),
                            DimSet::singleton(t.schema().dim(DimensionId(1)).all()),
                            DimSet::singleton(t.schema().dim(DimensionId(2)).all()),
                        ])
                    });
                    let _ = tree.range_query(&q, AggregateOp::Sum).expect("query");
                    queries_run.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    std::thread::sleep(Duration::from_secs(seconds));
    stop.store(true, Ordering::Relaxed);
    let mut latencies = producer.join().expect("producer");
    for a in analysts {
        a.join().expect("analyst");
    }

    latencies.sort_unstable();
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
    println!(
        "streamed {} trades in {seconds}s with 2 concurrent analysts",
        latencies.len()
    );
    println!(
        "insert latency   p50 {}µs   p95 {}µs   p99 {}µs   max {}µs",
        pct(0.50),
        pct(0.95),
        pct(0.99),
        latencies.last().unwrap()
    );
    println!(
        "analyst queries  {} total ({:.0}/s)",
        queries_run.load(Ordering::Relaxed),
        queries_run.load(Ordering::Relaxed) as f64 / seconds as f64
    );
    let total = tree.with_read(|t| t.total_summary()).unwrap();
    println!(
        "warehouse now holds {} trades worth {} cents",
        total.count, total.sum
    );
    tree.with_read(|t| t.check_invariants())
        .expect("invariants hold");
    println!("invariants verified — the warehouse never went offline.");
}
