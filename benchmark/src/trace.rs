//! The traced pass: spans recorded by the benchmark's own code around each
//! layer's *public* functions. [`traced_execute`] mirrors
//! `dc_serve::protocol::execute` step by step — decode → parse → resolve →
//! execute → render → encode — so each step gets a span; the layers below
//! the engine are timed as *shadow* spans on the same inputs against the
//! engine's published shard snapshots. Spans live in memory and are written
//! as JSON lines when the workload ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use dc_ql::ParsedStatement;
use dc_serve::codec::{self, DecodeStep};
use dc_serve::protocol::{self, Request};
use dc_serve::{QueryOutput, ShardedDcTree};
use dc_tree::PreparedRange;

use crate::oracle::{render_ops, render_scalar};
use crate::stats::{self_times_ns, Span};

/// In-memory span log of one workload.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    /// Page reads the shadow descents counted (`tree.pages_per_query`).
    pub shadow_pages: u64,
    /// Queries the shadows re-ran.
    pub shadow_queries: u64,
    next_req: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            shadow_pages: 0,
            shadow_queries: 0,
            next_req: 0,
        }
    }

    /// A fresh request id; the spans of one request share it.
    pub fn next_request(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req - 1
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span caused by `parent`; returns its id for [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, req, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Mean duration in µs of the spans called `name` among requests
    /// `reqs` (a half-open id range), and how many there were.
    pub fn mean_us(&self, name: &str, reqs: &std::ops::Range<u64>) -> (f64, usize) {
        let (mut total, mut n) = (0u64, 0usize);
        for s in &self.spans {
            if s.name == name && reqs.contains(&s.req) {
                total += s.duration_ns();
                n += 1;
            }
        }
        (
            if n == 0 {
                0.0
            } else {
                total as f64 / n as f64 / 1e3
            },
            n,
        )
    }

    /// Total duration in µs of the spans called `name` among `reqs`.
    pub fn total_us(&self, name: &str, reqs: &std::ops::Range<u64>) -> f64 {
        let (mean, n) = self.mean_us(name, reqs);
        mean * n as f64
    }

    /// Writes one JSON object per span: `name`, `req`, `id`, `parent`,
    /// `start_ns`, `end_ns`, `self_ns`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self_times_ns(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, self_ns)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"req\":{},\"id\":{id},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The response line of a planned query — the mirror of the protocol
/// module's private renderer (`TOP k` ranks by the first aggregate).
fn render_output(engine: &ShardedDcTree, stmt: &ParsedStatement, out: QueryOutput) -> String {
    match out {
        QueryOutput::Scalar(summary) => render_scalar(&stmt.ops, &summary),
        QueryOutput::Grouped(mut groups) => {
            let Some((dim, _)) = stmt.group_by else {
                return "ERR grouped output without GROUP BY".into();
            };
            if let Some(k) = stmt.top {
                let rank = stmt.ops[0];
                groups.sort_by(|a, b| {
                    let av = a.1.eval(rank).unwrap_or(f64::MIN);
                    let bv = b.1.eval(rank).unwrap_or(f64::MIN);
                    bv.partial_cmp(&av).unwrap_or(std::cmp::Ordering::Equal)
                });
                groups.truncate(k);
            }
            let rows: Vec<String> = engine.with_schema(|schema| {
                let h = schema.dim(dim);
                groups
                    .iter()
                    .map(|(value, summary)| {
                        let name = h.name(*value).unwrap_or("?");
                        format!("{name}={}", render_ops(&stmt.ops, summary))
                    })
                    .collect()
            });
            format!("OK {}", rows.join(","))
        }
    }
}

/// Shadow spans of the layers under `ShardedDcTree::execute`: one
/// `tree.prepare` against the catalog schema, then per shard snapshot one
/// `tree.descend` (scalar) or `tree.group_by` (grouped), with the page
/// reads each counted. Shadows have no parent: they re-run work the
/// request already paid for inside `engine.execute`, on the same input.
/// Run them after the slice's requests, not between them — a descent
/// evicts what the next request's cache hit would have found warm.
pub fn shadow_tree(target: &TraceTarget<'_>, stmt: &ParsedStatement, req: u64, rec: &mut Recorder) {
    let engine = target.engine;
    let prepared = rec.span("tree.prepare", req, None, || {
        engine.with_schema(|s| PreparedRange::with_mode(s, &stmt.filter, target.paper_containment))
    });
    let Ok(prepared) = prepared else { return };
    rec.shadow_queries += 1;
    for shard in 0..engine.num_shards() {
        let tree = engine.shard_snapshot(shard);
        let before = tree.io_stats().reads;
        match stmt.group_by {
            None => {
                let _ = rec.span("tree.descend", req, None, || {
                    tree.range_summary_prepared(&prepared)
                });
            }
            Some((dim, level)) => {
                let _ = rec.span("tree.group_by", req, None, || {
                    tree.group_by_prepared(dim, level, &prepared)
                });
            }
        }
        rec.shadow_pages += tree.io_stats().reads - before;
    }
}

/// The engine the traced pass drives.
pub struct TraceTarget<'a> {
    pub engine: &'a ShardedDcTree,
    /// The engine's `DcTreeConfig::use_paper_fig7_containment`.
    pub paper_containment: bool,
}

/// Executes one `DCB1` request frame the way the server's worker does,
/// one span per step; returns the response line and, for a query, the
/// resolved statement (the input of [`shadow_tree`]). `encoded` is a
/// scratch buffer for the response frame.
pub fn traced_execute(
    target: &TraceTarget<'_>,
    frame: &[u8],
    req: u64,
    rec: &mut Recorder,
    encoded: &mut Vec<u8>,
) -> (String, Option<ParsedStatement>) {
    let engine = target.engine;
    let root = rec.open("request", req, None);
    let decoded = rec.span("codec.decode", req, Some(root), || {
        codec::decode_request(frame)
    });
    let request = match decoded {
        DecodeStep::Frame {
            request: Ok(request),
            ..
        } => request,
        other => panic!("the benchmark encoded a frame the codec rejects: {other:?}"),
    };
    let exec = rec.open("protocol.execute", req, Some(root));
    let mut shadow = None;
    let line = match &request {
        Request::Query { text } => {
            let parsed = rec.span("ql.parse", req, Some(exec), || dc_ql::parse_statement(text));
            match parsed {
                Err(e) => format!("ERR {e}"),
                Ok(stmt) if stmt.is_explain() => protocol::execute(engine, &request).0,
                Ok(stmt) => {
                    let resolved = rec.span("ql.resolve", req, Some(exec), || {
                        engine.with_schema(|schema| dc_ql::resolve(schema, stmt.body()))
                    });
                    match resolved {
                        Err(e) => format!("ERR {e}"),
                        Ok(resolved) => {
                            let out = rec.span("engine.execute", req, Some(exec), || {
                                engine.execute(&resolved)
                            });
                            let line = match out {
                                Ok(out) => rec.span("protocol.render", req, Some(exec), || {
                                    render_output(engine, &resolved, out)
                                }),
                                Err(e) => format!("ERR {e}"),
                            };
                            shadow = Some(resolved);
                            line
                        }
                    }
                }
            }
        }
        Request::Insert { measure, paths } => {
            match rec.span("engine.insert_raw", req, Some(exec), || {
                engine.insert_raw(paths, *measure)
            }) {
                Ok(()) => "OK INSERTED".into(),
                Err(e) => format!("ERR {e}"),
            }
        }
        Request::InsertBatch { records } => {
            match rec.span("engine.insert_batch_raw", req, Some(exec), || {
                engine.insert_batch_raw(records)
            }) {
                Ok(()) => format!("OK INSERTED {}", records.len()),
                Err(e) => format!("ERR {e}"),
            }
        }
        Request::Flush => {
            rec.span("engine.flush", req, Some(exec), || engine.flush());
            "OK FLUSHED".into()
        }
        other => protocol::execute(engine, other).0,
    };
    rec.close(exec);
    rec.span("codec.encode", req, Some(root), || {
        encoded.clear();
        codec::encode_response(&line, encoded);
    });
    rec.close(root);
    (line, shadow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{frame, query_frame};
    use dc_serve::EngineConfig;

    #[test]
    fn the_mirror_answers_like_the_protocol_and_nests_its_spans() {
        let engine = ShardedDcTree::new(
            dc_tpcd::cube_schema(),
            EngineConfig {
                num_shards: 2,
                cache: None,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let (cube, _) = crate::gen::Cube::generate(2_000, 0);
        let target = TraceTarget {
            engine: &engine,
            paper_containment: false,
        };
        let mut rec = Recorder::new();
        let mut scratch = Vec::new();
        let load = frame(&Request::InsertBatch {
            records: cube.raw.clone(),
        });
        assert_eq!(
            traced_execute(&target, &load, 0, &mut rec, &mut scratch).0,
            "OK INSERTED 2000"
        );
        traced_execute(&target, &frame(&Request::Flush), 1, &mut rec, &mut scratch);

        let mut queries = crate::gen::narrow(&cube.schema, 40, 1);
        queries.extend(crate::gen::rollups(&cube.schema, 2));
        for (i, q) in queries.iter().enumerate() {
            let req = 2 + i as u64;
            let (mirrored, stmt) =
                traced_execute(&target, &query_frame(&q.text), req, &mut rec, &mut scratch);
            assert_eq!(
                mirrored,
                protocol::handle_line(&engine, &q.text).0,
                "{}",
                q.text
            );
            shadow_tree(&target, &stmt.expect("a query resolves"), req, &mut rec);
        }
        // Every request has one root; every non-shadow span nests inside
        // its parent; self times never exceed durations.
        let self_ns = self_times_ns(&rec.spans);
        for (s, self_ns) in rec.spans.iter().zip(self_ns) {
            assert!(self_ns <= s.duration_ns());
            if let Some(p) = s.parent {
                let p = &rec.spans[p];
                assert_eq!(p.req, s.req);
                assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
            }
        }
        let all = 0..u64::MAX;
        assert_eq!(rec.mean_us("request", &all).1, 2 + queries.len());
        assert_eq!(rec.mean_us("ql.resolve", &all).1, queries.len());
        assert!(rec.shadow_pages > 0);
        engine.shutdown();
    }
}
