//! End-to-end test of the TCP front-end: a real client over a real socket,
//! speaking the newline text protocol against a TPC-D-loaded engine.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use dc_serve::{serve_reactor, EngineConfig, PartitionPolicy, ReactorConfig, ShardedDcTree};
use dc_tpcd::{generate, TpcdConfig};

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn request(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
        let mut response = String::new();
        self.reader.read_line(&mut response).unwrap();
        response.trim_end().to_string()
    }
}

fn start_server() -> (Arc<ShardedDcTree>, dc_serve::ServerHandle) {
    let data = generate(&TpcdConfig::scaled(1_000, 77));
    let engine = Arc::new(
        ShardedDcTree::new(
            data.schema.clone(),
            EngineConfig {
                num_shards: 2,
                policy: PartitionPolicy::Hash,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    for r in &data.records {
        engine.insert_raw(&data.paths_for(r), r.measure).unwrap();
    }
    engine.flush();
    let handle =
        serve_reactor(Arc::clone(&engine), "127.0.0.1:0", ReactorConfig::default()).unwrap();
    (engine, handle)
}

#[test]
fn full_protocol_round_trip() {
    let (engine, handle) = start_server();
    let mut client = Client::connect(handle.local_addr());

    assert_eq!(client.request("PING"), "OK PONG");

    // A dc-ql scalar query must match the engine's direct answer exactly.
    let query = "SUM WHERE Customer.Region = 'EUROPE'";
    let parsed = engine
        .with_schema(|s| dc_ql::parse_query(s, query))
        .unwrap();
    let expected = engine
        .range_query(&parsed.filter, parsed.op)
        .unwrap()
        .unwrap();
    assert_eq!(client.request(query), format!("OK {expected:.2}"));

    let count_all = client.request("COUNT");
    assert_eq!(count_all, "OK 1000.00");

    // Mutations flow through: INSERT + FLUSH becomes visible to COUNT.
    let insert = "INSERT 500 EUROPE/GERMANY/BUILDING/Customer#000000001\
                  |ASIA/JAPAN/Supplier#000000002\
                  |Brand#11/ECONOMY ANODIZED/Part#000000003\
                  |1999/1999-01/1999-01-15";
    assert_eq!(client.request(insert), "OK INSERTED");
    assert_eq!(client.request("FLUSH"), "OK FLUSHED");
    assert_eq!(client.request("COUNT"), "OK 1001.00");
    assert_eq!(client.request("COUNT WHERE Time.Year = '1999'"), "OK 1.00");

    let delete = insert.replacen("INSERT", "DELETE", 1);
    assert_eq!(client.request(&delete), "OK DELETED");
    assert_eq!(client.request("FLUSH"), "OK FLUSHED");
    assert_eq!(client.request("COUNT"), "OK 1000.00");

    // GROUP BY renders name=value rows.
    let grouped = client.request("SUM GROUP BY Customer.Region TOP 3");
    assert!(grouped.starts_with("OK "), "{grouped}");
    let rows: Vec<&str> = grouped[3..].split(',').collect();
    assert_eq!(rows.len(), 3);
    assert!(rows.iter().all(|r| r.contains('=')), "{grouped}");

    // STATS is JSON with the documented keys.
    let stats = client.request("STATS");
    assert!(stats.starts_with("OK {"), "{stats}");
    for key in [
        "uptime_secs",
        "inserts_total",
        "queries_per_sec",
        "query_latency_us",
        "p99",
        "queue_depth",
        "snapshot_age_ms",
        "io_reads",
    ] {
        assert!(stats.contains(key), "STATS missing {key}: {stats}");
    }

    // Garbage comes back as ERR, and the connection keeps working.
    assert!(client.request("FROB NICATE").starts_with("ERR "));
    assert!(client
        .request("SUM WHERE Nope.Region = 'EUROPE'")
        .starts_with("ERR "));
    assert!(client.request("INSERT abc x/y").starts_with("ERR "));
    assert_eq!(client.request("PING"), "OK PONG");

    // A second concurrent client is served too.
    let mut second = Client::connect(handle.local_addr());
    assert_eq!(second.request("PING"), "OK PONG");

    // SHUTDOWN stops the whole server; join returns and further connects
    // are refused once the listener is gone.
    assert_eq!(client.request("SHUTDOWN"), "OK BYE");
    handle.join();
    engine.shutdown();
    assert_eq!(engine.len(), 1000);
}

/// SELECT / EXPLAIN flow through the planner-enabled engine over a real
/// socket, answers match the engine's direct path, and STATS grows a `plan`
/// section with the chosen-backend counters.
#[test]
fn select_and_explain_over_tcp() {
    let data = generate(&TpcdConfig::scaled(800, 41));
    let engine = Arc::new(
        ShardedDcTree::new(
            data.schema.clone(),
            EngineConfig {
                num_shards: 2,
                policy: PartitionPolicy::Hash,
                planner: Some(dc_serve::PlannerOptions),
                ..Default::default()
            },
        )
        .unwrap(),
    );
    for r in &data.records {
        engine.insert_raw(&data.paths_for(r), r.measure).unwrap();
    }
    engine.flush();
    let handle =
        serve_reactor(Arc::clone(&engine), "127.0.0.1:0", ReactorConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr());

    // Multi-aggregate scalar: labelled values, matching the direct answers.
    let query = "SELECT SUM, COUNT WHERE Customer.Region = 'EUROPE'";
    let parsed = engine
        .with_schema(|s| dc_ql::parse_query(s, "SUM WHERE Customer.Region = 'EUROPE'"))
        .unwrap();
    let sum = engine
        .range_query(&parsed.filter, dc_common::AggregateOp::Sum)
        .unwrap()
        .unwrap();
    let count = engine
        .range_query(&parsed.filter, dc_common::AggregateOp::Count)
        .unwrap()
        .unwrap();
    assert_eq!(
        client.request(query),
        format!("OK sum={sum:.2} count={count:.2}")
    );

    // Multi-aggregate GROUP BY pipe-joins values in SELECT-list order.
    let grouped = client.request("SELECT SUM, MAX GROUP BY Time.Year TOP 2");
    assert!(grouped.starts_with("OK "), "{grouped}");
    let rows: Vec<&str> = grouped[3..].split(',').collect();
    assert_eq!(rows.len(), 2, "{grouped}");
    for row in rows {
        let (_, vals) = row.split_once('=').expect(row);
        assert_eq!(vals.split('|').count(), 2, "{grouped}");
    }

    // EXPLAIN reports the chosen backend and estimated vs. measured pages.
    let explain = client.request("EXPLAIN SUM GROUP BY Customer.Region");
    assert!(explain.starts_with("OK backend="), "{explain}");
    assert!(explain.contains("est_pages="), "{explain}");
    assert!(explain.contains("actual_pages="), "{explain}");
    assert!(explain.contains("shards=["), "{explain}");
    // The explained answer itself must agree with the plain query.
    let direct = client.request("SUM GROUP BY Customer.Region");
    assert!(direct.starts_with("OK "), "{direct}");

    // The planner section shows up in STATS with a chosen-backend split.
    let stats = client.request("STATS");
    for key in ["\"plan\":", "\"plans\":", "\"explains\":", "\"chose\":"] {
        assert!(stats.contains(key), "STATS missing {key}: {stats}");
    }

    assert_eq!(client.request("SHUTDOWN"), "OK BYE");
    handle.join();
    engine.shutdown();
}

#[test]
fn stop_joins_all_threads() {
    let (engine, handle) = start_server();
    let mut client = Client::connect(handle.local_addr());
    assert_eq!(client.request("PING"), "OK PONG");
    let addr = handle.local_addr();
    handle.stop();
    // The listener is closed: a fresh connect must fail or be unusable.
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(s) => {
            // Some platforms accept briefly from the backlog; the server
            // must not answer on it.
            s.set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            let mut r = BufReader::new(s.try_clone().unwrap());
            let mut s2 = s;
            let _ = s2.write_all(b"PING\n");
            let mut buf = String::new();
            assert!(
                matches!(r.read_line(&mut buf), Ok(0) | Err(_)),
                "server still answering"
            );
        }
    }
    engine.shutdown();
}
