//! End-to-end tests of the event-loop front-end: real sockets against a
//! TPC-D-loaded engine, covering both codecs on one server, request
//! pipelining with in-order responses, protocol autodetection (including
//! a magic split across writes), admission shedding, `net` STATS, hostile
//! or half-closing peers, and shutdown semantics.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use dc_serve::codec::{self, ResponseStep};
use dc_serve::protocol::Request;
use dc_serve::{
    serve_reactor, AdmissionConfig, EngineConfig, PartitionPolicy, ReactorConfig, ShardedDcTree,
};
use dc_tpcd::{generate, TpcdConfig};

struct TextClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl TextClient {
    fn connect(addr: std::net::SocketAddr) -> TextClient {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        TextClient {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn request(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
        self.read_response()
    }

    fn read_response(&mut self) -> String {
        let mut response = String::new();
        self.reader.read_line(&mut response).unwrap();
        response.trim_end().to_string()
    }
}

/// A binary-protocol client; `roundtrip` pipelines all requests in one
/// write and returns the responses in order.
struct BinClient {
    stream: TcpStream,
    inbox: Vec<u8>,
}

impl BinClient {
    fn connect(addr: std::net::SocketAddr) -> BinClient {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut c = BinClient {
            stream,
            inbox: Vec::new(),
        };
        c.stream.write_all(&codec::MAGIC).unwrap();
        c
    }

    fn roundtrip(&mut self, reqs: &[Request]) -> Vec<(u8, String)> {
        let mut out = Vec::new();
        for r in reqs {
            codec::encode_request(r, &mut out);
        }
        self.stream.write_all(&out).unwrap();
        self.read_responses(reqs.len())
    }

    fn read_responses(&mut self, n: usize) -> Vec<(u8, String)> {
        let mut responses = Vec::new();
        let mut chunk = [0u8; 16 * 1024];
        while responses.len() < n {
            loop {
                match codec::decode_response(&self.inbox) {
                    ResponseStep::Incomplete => break,
                    ResponseStep::Frame {
                        consumed,
                        status,
                        response,
                    } => {
                        self.inbox.drain(..consumed);
                        responses.push((status, response));
                        if responses.len() == n {
                            return responses;
                        }
                    }
                    other => panic!("{other:?}"),
                }
            }
            let got = self.stream.read(&mut chunk).unwrap();
            assert!(got > 0, "server closed with {} responses", responses.len());
            self.inbox.extend_from_slice(&chunk[..got]);
        }
        responses
    }
}

fn start(
    admission: AdmissionConfig,
) -> (
    Arc<ShardedDcTree>,
    dc_serve::ServerHandle,
    dc_tpcd::TpcdData,
) {
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
    let config = ReactorConfig {
        admission,
        ..Default::default()
    };
    let handle = serve_reactor(Arc::clone(&engine), "127.0.0.1:0", config).unwrap();
    (engine, handle, data)
}

#[test]
fn full_text_protocol_over_the_reactor() {
    let (engine, handle, _) = start(AdmissionConfig::default());
    let mut client = TextClient::connect(handle.local_addr());

    assert_eq!(client.request("PING"), "OK PONG");
    assert_eq!(client.request("HELLO analytics"), "OK HELLO analytics");
    let count = client.request("COUNT");
    assert_eq!(count, "OK 1000.00");
    let insert = "INSERT 41 EUROPE/GERMANY/BUILDING/Customer#000000001\
                  |ASIA/JAPAN/Supplier#000000002\
                  |Brand#11/ECONOMY ANODIZED/Part#000000003\
                  |1999/1999-01/1999-01-15";
    assert_eq!(client.request(insert), "OK INSERTED");
    assert_eq!(client.request("FLUSH"), "OK FLUSHED");
    assert_eq!(client.request("COUNT"), "OK 1001.00");
    assert!(client.request("FROB NICATE").starts_with("ERR "));
    assert_eq!(client.request("PING"), "OK PONG"); // errors don't kill the conn

    // The net STATS block is live on this front-end.
    let stats = client.request("STATS");
    assert!(stats.contains("\"net\":{"), "no net block in {stats}");
    assert!(stats.contains("\"active_connections\":1"));
    assert!(stats.contains("\"tenants\":{"));
    assert!(stats.contains("\"analytics\":{"));

    // A second concurrent text client works while the first is connected.
    let mut second = TextClient::connect(handle.local_addr());
    assert_eq!(second.request("PING"), "OK PONG");

    // SHUTDOWN answers before the server stops, then everything joins.
    assert_eq!(client.request("SHUTDOWN"), "OK BYE");
    handle.join();
    engine.shutdown();
}

#[test]
fn pipelined_binary_responses_come_back_in_request_order() {
    let (engine, handle, _) = start(AdmissionConfig::default());
    let mut client = BinClient::connect(handle.local_addr());

    // A burst of mixed fast (PING, inline) and slow (queries, worker pool)
    // requests: in-order delivery means every PING response sits exactly
    // where its request was, behind the slower queries that preceded it.
    let burst = vec![
        Request::Query {
            text: "COUNT".into(),
        },
        Request::Ping,
        Request::Query {
            text: "SUM WHERE Customer.Region = 'EUROPE'".into(),
        },
        Request::Ping,
        Request::Query {
            text: "SELECT SUM, COUNT GROUP BY Customer.Region TOP 2".into(),
        },
        Request::Stats,
        Request::Ping,
    ];
    let responses = client.roundtrip(&burst);
    assert_eq!(responses.len(), burst.len());
    assert_eq!(responses[0].1, "OK 1000.00");
    assert_eq!(responses[1].1, "OK PONG");
    assert!(responses[2].1.starts_with("OK "), "{}", responses[2].1);
    assert_eq!(responses[3].1, "OK PONG");
    assert!(responses[4].1.starts_with("OK "), "{}", responses[4].1);
    assert!(responses[5].1.contains("\"net\":{"));
    assert_eq!(responses[6].1, "OK PONG");
    for (status, line) in &responses {
        assert_eq!(*status, codec::status_of(line));
    }

    // The depth histogram saw the burst.
    let stats = &responses[5].1;
    assert!(
        stats.contains("\"pipeline_depth\":{"),
        "no depth histogram in {stats}"
    );

    // Binary mutations round-trip through the same engine the text side
    // sees.
    let mutate = vec![
        Request::Insert {
            measure: 17,
            paths: vec![
                vec![
                    "EUROPE".into(),
                    "GERMANY".into(),
                    "BUILDING".into(),
                    "Customer#000000009".into(),
                ],
                vec!["ASIA".into(), "JAPAN".into(), "Supplier#000000002".into()],
                vec![
                    "Brand#11".into(),
                    "ECONOMY ANODIZED".into(),
                    "Part#000000003".into(),
                ],
                vec!["1999".into(), "1999-01".into(), "1999-01-15".into()],
            ],
        },
        Request::Flush,
        Request::Query {
            text: "COUNT".into(),
        },
    ];
    let responses = client.roundtrip(&mutate);
    assert_eq!(responses[0].1, "OK INSERTED");
    assert_eq!(responses[1].1, "OK FLUSHED");
    assert_eq!(responses[2].1, "OK 1001.00");

    handle.stop();
    engine.shutdown();
}

#[test]
fn autodetect_handles_split_magic_and_mixed_transports() {
    let (engine, handle, _) = start(AdmissionConfig::default());
    let addr = handle.local_addr();

    // Binary magic dribbled in across three writes: the connection must
    // stay Undecided (not fall back to text) until the 4th byte arrives.
    let mut slow = TcpStream::connect(addr).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    slow.write_all(b"D").unwrap();
    std::thread::sleep(Duration::from_millis(20));
    slow.write_all(b"CB").unwrap();
    std::thread::sleep(Duration::from_millis(20));
    slow.write_all(b"1").unwrap();
    let mut frame = Vec::new();
    codec::encode_request(&Request::Ping, &mut frame);
    slow.write_all(&frame).unwrap();
    let mut got = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match codec::decode_response(&got) {
            ResponseStep::Incomplete => {
                let n = slow.read(&mut chunk).unwrap();
                assert!(n > 0);
                got.extend_from_slice(&chunk[..n]);
            }
            ResponseStep::Frame { response, .. } => {
                assert_eq!(response, "OK PONG");
                break;
            }
            other => panic!("{other:?}"),
        }
    }

    // A text line starting with 'D' (shares the magic's first byte) still
    // detects as text.
    let mut text = TextClient::connect(addr);
    assert!(text.request("DELETE 1 nope").starts_with("ERR "));
    assert_eq!(text.request("PING"), "OK PONG");

    // And a pure binary client runs alongside both.
    let mut bin = BinClient::connect(addr);
    let r = bin.roundtrip(std::slice::from_ref(&Request::Ping));
    assert_eq!(r[0].1, "OK PONG");

    handle.stop();
    engine.shutdown();
}

#[test]
fn tenant_buckets_shed_with_busy_and_control_plane_survives() {
    let (engine, handle, _) = start(AdmissionConfig {
        tenant_rate: 0.000_001, // no refill within the test
        tenant_burst: 3.0,
        queue_high_water: 1_000_000,
    });
    let mut client = TextClient::connect(handle.local_addr());
    assert_eq!(client.request("HELLO greedy"), "OK HELLO greedy");
    for _ in 0..3 {
        assert_eq!(client.request("COUNT"), "OK 1000.00");
    }
    // Bucket empty: data plane sheds…
    assert_eq!(client.request("COUNT"), "BUSY tenant over rate");
    // …while the control plane keeps answering.
    assert_eq!(client.request("PING"), "OK PONG");
    let stats = client.request("STATS");
    assert!(stats.contains("\"shed_total\":1"), "{stats}");
    assert!(
        stats.contains("\"greedy\":{\"admitted\":3,\"denied\":1}"),
        "{stats}"
    );

    // A different tenant on a fresh connection is unaffected.
    let mut other = TextClient::connect(handle.local_addr());
    assert_eq!(other.request("HELLO polite"), "OK HELLO polite");
    assert_eq!(other.request("COUNT"), "OK 1000.00");

    // Same shedding over the binary codec, with the BUSY status byte.
    let mut bin = BinClient::connect(handle.local_addr());
    let responses = bin.roundtrip(&[
        Request::Hello {
            tenant: "greedy".into(),
        },
        Request::Query {
            text: "COUNT".into(),
        },
    ]);
    assert_eq!(responses[0].1, "OK HELLO greedy");
    assert_eq!(
        responses[1],
        (codec::STATUS_BUSY, "BUSY tenant over rate".to_string())
    );

    handle.stop();
    engine.shutdown();
}

#[test]
fn half_closed_client_gets_every_answer_then_eof() {
    let (engine, handle, _) = start(AdmissionConfig::default());
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // PING is answered inline, COUNT on a worker: the read side reaches
    // EOF while COUNT is still executing.
    stream.write_all(b"PING\nCOUNT\n").unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut got = String::new();
    stream.read_to_string(&mut got).unwrap();
    assert_eq!(got, "OK PONG\nOK 1000.00\n");
    handle.stop();
    engine.shutdown();
}

#[test]
fn overlong_text_line_is_refused_and_closed() {
    let (engine, handle, _) = start(AdmissionConfig::default());
    let mut client = TextClient::connect(handle.local_addr());
    assert_eq!(client.request("PING"), "OK PONG");
    // One byte past the binary frame limit, and no newline: the server
    // must not keep buffering it.
    client
        .writer
        .write_all(&vec![b'A'; codec::MAX_FRAME + 1])
        .unwrap();
    let refusal = client.read_response();
    assert!(
        refusal.starts_with("ERR request line longer than"),
        "{refusal}"
    );
    let mut rest = Vec::new();
    assert_eq!(client.reader.read_to_end(&mut rest).unwrap(), 0);
    // The server itself is unharmed.
    let mut other = TextClient::connect(handle.local_addr());
    assert_eq!(other.request("COUNT"), "OK 1000.00");
    handle.stop();
    engine.shutdown();
}

#[test]
fn stop_joins_every_thread() {
    let (engine, handle, _) = start(AdmissionConfig::default());
    let mut client = TextClient::connect(handle.local_addr());
    assert_eq!(client.request("PING"), "OK PONG");
    handle.stop(); // must not hang with a connection open
    engine.shutdown();
}
