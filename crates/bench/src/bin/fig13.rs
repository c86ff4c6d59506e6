//! **Figure 13** — node sizes per level.
//!
//! The paper plots the average number of entries for the two highest
//! DC-tree levels below the root as the cube grows: the highest level
//! stabilizes around 15 entries, while the second-highest saturates at
//! ≈2.5× the capacity of a regular directory node — the supernode effect
//! the split algorithm produces once directory MDSs become "too special to
//! be split further".
//!
//! ```sh
//! cargo run --release -p dc-bench --bin fig13 [max_records]
//! ```

use dc_bench::harness::build_engines;

fn main() {
    let max_n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(100_000);
    let mut sizes = Vec::new();
    let mut n = 12_500;
    while n <= max_n {
        sizes.push(n);
        n *= 2;
    }
    if sizes.last().copied() != Some(max_n) {
        sizes.push(max_n);
    }

    println!("Figure 13: average node size (entries) per tree level");
    println!(
        "{:>10} {:>7} {:>12} {:>12} {:>14} {:>12}",
        "records", "height", "root", "level 1", "level 2", "supernodes"
    );
    for &n in &sizes {
        let e = build_engines(n, 42);
        let stats = e.dc.stats().unwrap();
        let lvl = |d: usize| {
            stats
                .levels
                .get(d)
                .map(|l| format!("{:.1} ({:.1} blk)", l.avg_entries, l.avg_blocks))
                .unwrap_or_else(|| "—".into())
        };
        println!(
            "{n:>10} {:>7} {:>12} {:>12} {:>14} {:>12}",
            stats.height,
            lvl(0),
            lvl(1),
            lvl(2),
            stats.supernodes
        );
    }
    println!(
        "\nPaper: the level directly below the root stabilizes near 15 \
         entries; the next level saturates at ≈2.5× directory capacity \
         because nodes whose MDSs are \"already too special\" stop splitting \
         and grow as supernodes. Look for the same saturation here: upper \
         levels exceed one block per node while data nodes stay at one."
    );
}
