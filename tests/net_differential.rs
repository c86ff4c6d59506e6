//! Transport differential: the same dc-ql script must produce
//! **byte-identical** response sequences over every way of reaching the
//! engine —
//!
//! * newline text (autodetected),
//! * `DCB1` binary, one frame per round-trip,
//! * `DCB1` binary, the whole script pipelined in one write,
//!
//! with churn applied through the wire between rounds (mutations flow
//! through the binary codec's typed INSERT/DELETE/INSERT_BATCH payloads
//! and a text INSERT, `FLUSH` quiesces before each comparison), in both
//! [`StorageMode::Resident`] and [`StorageMode::Disk`]. Under the default
//! admission config the whole run must also be BUSY-free: a well-behaved
//! single-tenant workload never sees backpressure.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use dctree::common::DimensionId;
use dctree::hierarchy::CubeSchema;
use dctree::serve::codec::{self, ResponseStep};
use dctree::serve::protocol::Request;
use dctree::serve::{
    serve_reactor, DiskOptions, EngineConfig, ReactorConfig, ShardedDcTree, StorageMode,
};
use dctree::tpcd::{generate, TpcdConfig, TpcdData};

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
        let mut response = String::new();
        self.reader.read_line(&mut response).unwrap();
        response.trim_end().to_string()
    }

    fn script(&mut self, lines: &[String]) -> Vec<String> {
        lines.iter().map(|l| self.request(l)).collect()
    }
}

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

    /// Sends every request in ONE write (pipelined) and collects the
    /// responses in order.
    fn pipelined(&mut self, reqs: &[Request]) -> Vec<String> {
        let mut out = Vec::new();
        for r in reqs {
            codec::encode_request(r, &mut out);
        }
        self.stream.write_all(&out).unwrap();
        self.read_responses(reqs.len())
    }

    /// One frame per round-trip.
    fn one_by_one(&mut self, reqs: &[Request]) -> Vec<String> {
        reqs.iter()
            .flat_map(|r| self.pipelined(std::slice::from_ref(r)))
            .collect()
    }

    fn read_responses(&mut self, n: usize) -> Vec<String> {
        let mut responses = Vec::new();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            loop {
                match codec::decode_response(&self.inbox) {
                    ResponseStep::Incomplete => break,
                    ResponseStep::Frame {
                        consumed,
                        status,
                        response,
                    } => {
                        self.inbox.drain(..consumed);
                        assert_eq!(status, codec::status_of(&response));
                        responses.push(response);
                        if responses.len() == n {
                            return responses;
                        }
                    }
                    other => panic!("{other:?}"),
                }
            }
            let got = self.stream.read(&mut chunk).unwrap();
            assert!(got > 0, "server closed after {} responses", responses.len());
            self.inbox.extend_from_slice(&chunk[..got]);
        }
    }
}

/// The read-only script, rendered as protocol lines (the binary transport
/// wraps each line in an opcode-0x0A Query frame carrying the identical
/// text, so responses are comparable byte for byte).
fn query_script(schema: &CubeSchema) -> Vec<String> {
    let mut lines = vec!["COUNT".to_string(), "SUM".to_string()];
    for d in 0..schema.num_dims() {
        let dim = DimensionId(d as u16);
        let h = schema.dim(dim);
        let group_h = schema.dim(DimensionId(((d + 1) % schema.num_dims()) as u16));
        let group_by = format!(
            "GROUP BY {}.{}",
            group_h.schema().name(),
            group_h
                .schema()
                .attribute_name(group_h.top_level() - 1)
                .unwrap()
        );
        let level = h.top_level() - 1;
        let attr = h.schema().attribute_name(level).unwrap();
        let names: Vec<String> = h
            .values_at(level)
            .map(|id| h.name(id).unwrap().to_string())
            .collect();
        if names.is_empty() {
            continue;
        }
        for k in [1usize, 4.min(names.len())] {
            let list: Vec<String> = names
                .iter()
                .take(k)
                .map(|n| format!("'{}'", n.replace('\'', "''")))
                .collect();
            let cond = if k == 1 {
                format!("{}.{} = {}", h.schema().name(), attr, list[0])
            } else {
                format!("{}.{} IN ({})", h.schema().name(), attr, list.join(", "))
            };
            lines.push(format!("SELECT SUM, COUNT, MIN, MAX WHERE {cond}"));
            lines.push(format!("SELECT SUM, COUNT WHERE {cond} {group_by}"));
        }
        lines.push(format!(
            "SELECT SUM, COUNT, MIN, MAX GROUP BY {}.{}",
            h.schema().name(),
            attr
        ));
        lines.push(format!(
            "EXPLAIN SUM GROUP BY {}.{}",
            h.schema().name(),
            attr
        ));
    }
    lines
}

fn as_query_frames(lines: &[String]) -> Vec<Request> {
    lines
        .iter()
        .map(|l| Request::Query { text: l.clone() })
        .collect()
}

fn paths_line(paths: &[Vec<String>]) -> String {
    paths
        .iter()
        .map(|dim| dim.join("/"))
        .collect::<Vec<_>>()
        .join("|")
}

fn run_mode(storage: StorageMode, tag: &str) {
    let data: TpcdData = generate(&TpcdConfig::scaled(800, 4242));
    let engine = Arc::new(
        ShardedDcTree::new(
            data.schema.clone(),
            EngineConfig {
                num_shards: 2,
                // The cache patches summaries by query history; answers
                // must not depend on which transport warmed it first.
                cache: None,
                storage,
                ..EngineConfig::default()
            },
        )
        .unwrap(),
    );
    for r in data.records.iter().take(400) {
        engine.insert_raw(&data.paths_for(r), r.measure).unwrap();
    }
    engine.flush();

    let reactor =
        serve_reactor(Arc::clone(&engine), "127.0.0.1:0", ReactorConfig::default()).unwrap();

    let mut text = TextClient::connect(reactor.local_addr());
    let mut bin_single = BinClient::connect(reactor.local_addr());
    let mut bin_pipelined = BinClient::connect(reactor.local_addr());

    let script = query_script(&data.schema);
    let frames = as_query_frames(&script);
    let mut cursor = 400usize;
    for round in 0..3 {
        // Churn through the wire: typed binary mutations (single, batch,
        // delete) plus one text INSERT, then quiesce with FLUSH so every
        // transport reads the same published snapshot.
        let burst: Vec<_> = data.records[cursor..cursor + 60].iter().collect();
        cursor += 60;
        let mut churn: Vec<Request> = Vec::new();
        for r in &burst[..20] {
            churn.push(Request::Insert {
                measure: r.measure,
                paths: data.paths_for(r),
            });
        }
        churn.push(Request::InsertBatch {
            records: burst[20..50]
                .iter()
                .map(|r| (data.paths_for(r), r.measure))
                .collect(),
        });
        // Delete a third of what this round inserted.
        for r in &burst[..10] {
            churn.push(Request::Delete {
                measure: r.measure,
                paths: data.paths_for(r),
            });
        }
        let churn_responses = bin_pipelined.pipelined(&churn);
        for resp in &churn_responses {
            assert!(resp.starts_with("OK"), "round {round}: {resp}");
        }
        let text_insert = &burst[50];
        let resp = text.request(&format!(
            "INSERT {} {}",
            text_insert.measure,
            paths_line(&data.paths_for(text_insert))
        ));
        assert_eq!(resp, "OK INSERTED");
        assert_eq!(text.request("FLUSH"), "OK FLUSHED");

        // The identical script over all three transports.
        let a = text.script(&script);
        let b = bin_single.one_by_one(&frames);
        let c = bin_pipelined.pipelined(&frames);
        for i in 0..script.len() {
            assert_eq!(
                a[i], b[i],
                "{tag} round {round}: text vs binary on {:?}",
                script[i]
            );
            assert_eq!(
                a[i], c[i],
                "{tag} round {round}: text vs pipelined binary on {:?}",
                script[i]
            );
            // Default admission: a polite workload never sheds.
            assert!(!a[i].starts_with("BUSY"), "{}", a[i]);
        }
    }

    reactor.stop();
    engine.shutdown();
}

#[test]
fn transports_agree_resident() {
    run_mode(StorageMode::Resident, "resident");
}

#[test]
fn transports_agree_disk() {
    let dir = dctree::common::TempDir::new("net-diff");
    run_mode(StorageMode::Disk(DiskOptions::new(&dir)), "disk");
}
