//! A dc-ql network client: connects to a running `dc-serve` server (pass
//! its address), or — with no argument — starts one in-process over a small
//! TPC-D warehouse (with the cost-based planner enabled) and talks to it
//! over a real TCP socket.
//!
//! ```sh
//! cargo run --release --example client                 # self-hosted demo
//! cargo run --release --example client 127.0.0.1:4711  # external server
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use dctree::serve::{
    serve_reactor, EngineConfig, PlannerOptions, ReactorConfig, ShardedDcTree, SyncPolicy,
    WalOptions,
};
use dctree::tpcd::{generate, TpcdConfig};

fn main() -> std::io::Result<()> {
    // Either connect to the given server, or host one ourselves.
    let (addr, hosted) = match std::env::args().nth(1) {
        Some(addr) => (addr, None),
        None => {
            println!("no address given — starting an in-process server…");
            let data = generate(&TpcdConfig::scaled(10_000, 42));
            // A WAL makes the demo server a replication primary: the
            // REPL_STATUS / WAIT_LSN calls below report a real log frontier
            // and a follower could tail it with FETCH_SEGMENTS.
            let wal_dir =
                std::env::temp_dir().join(format!("dc-client-demo-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&wal_dir);
            let engine = Arc::new(
                ShardedDcTree::new(
                    data.schema.clone(),
                    EngineConfig {
                        planner: Some(PlannerOptions),
                        wal: Some(WalOptions {
                            sync: SyncPolicy::GroupCommitMs(2),
                            ..WalOptions::new(&wal_dir)
                        }),
                        ..Default::default()
                    },
                )
                .expect("engine"),
            );
            for r in &data.records {
                engine
                    .insert_raw(&data.paths_for(r), r.measure)
                    .expect("load");
            }
            engine.flush();
            let handle =
                serve_reactor(Arc::clone(&engine), "127.0.0.1:0", ReactorConfig::default())?;
            println!("serving 10 000 TPC-D lineitems on {}", handle.local_addr());
            (
                handle.local_addr().to_string(),
                Some((engine, handle, wal_dir)),
            )
        }
    };

    let stream = TcpStream::connect(&addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut request = |line: &str| -> std::io::Result<String> {
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        let mut response = String::new();
        reader.read_line(&mut response)?;
        let response = response.trim_end().to_string();
        println!("> {line}\n  {response}");
        Ok(response)
    };

    request("PING")?;
    request("COUNT")?;
    request("SUM WHERE Customer.Region = 'EUROPE'")?;
    request("AVG WHERE Customer.Region IN ('EUROPE', 'ASIA') AND Time.Year = '1996'")?;
    request("SUM GROUP BY Customer.Region TOP 3")?;
    request("COUNT WHERE Time.Year = '1999'")?;
    // Repeat a query: with the planner off this hits the aggregate cache;
    // with it on (this demo) the cost model may instead route both runs to
    // a materialized view, which is why the cache counters below can stay
    // at zero hits.
    request("SUM WHERE Customer.Region = 'EUROPE'")?;
    // Planner-era statements: multi-measure SELECT lists and EXPLAIN,
    // which reports the backend the cost model chose per shard.
    request("SELECT SUM, COUNT, MAX WHERE Customer.Region = 'EUROPE'")?;
    request("SELECT SUM, COUNT GROUP BY Time.Year TOP 3")?;
    request("EXPLAIN SUM GROUP BY Customer.Region")?;
    request("EXPLAIN SUM WHERE Customer.Nation = 'GERMANY' AND Time.Year = '1996'")?;
    request(
        "INSERT 500 EUROPE/GERMANY/BUILDING/Customer#000000001\
         |ASIA/JAPAN/Supplier#000000002\
         |Brand#11/ECONOMY ANODIZED/Part#000000003\
         |1999/1999-01/1999-01-15",
    )?;
    request("FLUSH")?;
    request("COUNT WHERE Time.Year = '1999'")?;
    // Replication verbs: REPL_STATUS reports the role and log frontier;
    // WAIT_LSN blocks until the applied-and-visible frontier reaches an
    // LSN (a no-op on a primary, the read-your-LSN barrier on a
    // follower); MIN_LSN prefixes any read with that barrier.
    let status = request("REPL_STATUS")?;
    let applied: u64 = status
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("APPLIED="))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    request(&format!("WAIT_LSN {applied}"))?;
    request(&format!("MIN_LSN {applied} COUNT WHERE Time.Year = '1999'"))?;
    let stats = request("STATS")?;
    print_section(&stats, "cache", "aggregate cache");
    print_section(&stats, "pool", "query pool");
    print_section(&stats, "plan", "query planner");
    // Only present when the server has a WAL (this demo does): the
    // replication role, applied frontier, and segment-shipping counters.
    print_section(&stats, "replication", "replication");
    // Only present when the server runs disk-backed shards
    // (StorageMode::Disk); resident servers skip it silently. The node
    // caches' counters: node accesses served (hits) and decoded from pages
    // (misses), clean nodes evicted, dirty nodes written back, nodes cached.
    print_section(&stats, "buffer_pool", "buffer pool");
    // Only present once the network front-end serves the engine: connections, request/byte counters, pipeline depth,
    // admission shed counts and per-tenant admit/deny tallies.
    print_section(&stats, "net", "network front-end");

    if let Some((engine, handle, wal_dir)) = hosted {
        request("SHUTDOWN")?;
        handle.join();
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&wal_dir);
        println!("server stopped cleanly.");
    }
    Ok(())
}

/// Prints every scalar counter of one named STATS section, skipping the
/// section silently when the server doesn't expose it. Sections are scoped
/// by balanced-brace matching, so servers that grow *new* sections (or
/// reorder existing ones) never confuse the client: keys are only looked up
/// inside the requested object, never across the whole payload.
fn print_section(stats: &str, section: &str, title: &str) {
    let Some(body) = json_section(stats, section) else {
        return;
    };
    println!("{title}:");
    let mut rest = body;
    while let Some(q) = rest.find('"') {
        let after_quote = &rest[q + 1..];
        let Some(end_quote) = after_quote.find('"') else {
            break;
        };
        let key = &after_quote[..end_quote];
        let after_key = &after_quote[end_quote + 1..];
        let Some(after_colon) = after_key.strip_prefix(':') else {
            rest = after_key;
            continue;
        };
        if after_colon.starts_with('{') || after_colon.starts_with('[') {
            // Nested object (e.g. plan's "chose"): step inside; its keys
            // print flattened under the same section.
            rest = after_colon;
            continue;
        }
        let end = after_colon
            .find([',', '}', ']'])
            .unwrap_or(after_colon.len());
        println!("  {key:<16} {}", after_colon[..end].trim());
        rest = &after_colon[end..];
    }
}

/// Extracts the balanced-brace body of `"section":{…}` from a flat JSON
/// rendering (no parser in the workspace; the STATS payload is
/// machine-generated and regular — no strings containing braces).
fn json_section<'a>(json: &'a str, section: &str) -> Option<&'a str> {
    let needle = format!("\"{section}\":{{");
    let start = json.find(&needle)? + needle.len();
    let mut depth = 1usize;
    for (i, b) in json[start..].bytes().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&json[start..start + i]);
                }
            }
            _ => {}
        }
    }
    None
}
