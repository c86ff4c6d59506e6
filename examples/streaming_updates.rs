//! The always-online scenario that motivates the paper: "very dynamic
//! applications such as stock markets" where the warehouse cannot afford a
//! nightly batch window. A producer thread streams trades into a
//! [`ShardedDcTree`] while analyst threads continuously query its published
//! snapshots; the example reports insert latency percentiles and query
//! throughput.
//!
//! Run with:
//! ```sh
//! cargo run --release --example streaming_updates [seconds]
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dctree::{CubeSchema, DimSet, DimensionId, EngineConfig, HierarchySchema, Mds, ShardedDcTree};
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
    let tree = Arc::new(ShardedDcTree::new(schema, EngineConfig::default()).expect("engine"));
    let stop = Arc::new(AtomicBool::new(false));
    let queries_run = Arc::new(AtomicU64::new(0));

    // Producer: a firehose of trades.
    let producer = {
        let tree = Arc::clone(&tree);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(1);
            // `insert_raw` returns once the trade is enqueued on its shard;
            // the shard writer applies and publishes it behind the producer.
            let mut latencies_ns: Vec<u64> = Vec::new();
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
                latencies_ns.push(t0.elapsed().as_nanos() as u64);
            }
            latencies_ns
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
                    let q = tree.with_schema(|s| {
                        let inst = s.dim(DimensionId(0));
                        let sector = inst.values_at(1).next().unwrap_or_else(|| inst.all());
                        Mds::new(vec![
                            DimSet::singleton(sector),
                            DimSet::singleton(s.dim(DimensionId(1)).all()),
                            DimSet::singleton(s.dim(DimensionId(2)).all()),
                        ])
                    });
                    tree.range_summary(&q).expect("query");
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
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize] as f64 / 1e3;
    println!(
        "streamed {} trades in {seconds}s with 2 concurrent analysts",
        latencies.len()
    );
    println!(
        "insert latency   p50 {:.1}µs   p95 {:.1}µs   p99 {:.1}µs   max {:.1}µs",
        pct(0.50),
        pct(0.95),
        pct(0.99),
        pct(1.0)
    );
    println!(
        "analyst queries  {} total ({:.0}/s)",
        queries_run.load(Ordering::Relaxed),
        queries_run.load(Ordering::Relaxed) as f64 / seconds as f64
    );
    tree.flush();
    let total = tree.total_summary().unwrap();
    println!(
        "warehouse now holds {} trades worth {} cents",
        total.count, total.sum
    );
    tree.check_invariants().expect("invariants hold");
    println!("invariants verified — the warehouse never went offline.");
}
