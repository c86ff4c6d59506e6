//! The request layer shared by both front-ends: a typed [`Request`] that
//! the newline text codec ([`parse_request`]) and the binary frame codec
//! ([`crate::codec`]) both decode into, and one executor ([`execute`])
//! that turns it into the response line. Text wire format, one request
//! line → one response line:
//!
//! ```text
//! HELLO <tenant>                         → OK HELLO <tenant> (declares the admission tenant)
//! PING                                   → OK PONG
//! STATS                                  → OK {"uptime_secs":…}
//! FLUSH                                  → OK FLUSHED       (ERR when the WAL fsync failed)
//! CHECKPOINT                             → OK CHECKPOINTED <lsn>
//! SHUTDOWN                               → OK BYE            (server stops)
//! INSERT <measure> <p>/<p>|<p>/<p>|…     → OK INSERTED       (async; FLUSH for visibility)
//! INSERT_BATCH <m> <paths>;<m> <paths>;… → OK INSERTED <n>   (one WAL group, one fsync decision)
//! DELETE <measure> <p>/<p>|<p>/<p>|…     → OK DELETED
//! REPL_STATUS                            → OK ROLE=primary APPLIED=17 SYNCED=17 SEGMENT=2
//! WAIT_LSN <lsn> [timeout_ms]            → OK APPLIED <lsn>  (read-your-LSN barrier)
//! MIN_LSN <lsn> <request…>               → waits, then handles <request…>
//! FETCH_SEGMENTS <from_lsn>              → OK SEGMENTS <n> <seq>:<first_lsn>:<hex> …
//!                                        | OK NEED_CHECKPOINT <lsn>
//! FETCH_CHECKPOINT                       → OK CHECKPOINT <lsn> <start_seq> <shards> <hex>…
//! SUM WHERE Customer.Region = 'EUROPE'   → OK 1234.00
//! AVG WHERE … GROUP BY Time.Year TOP 3   → OK 1996=12.50,1995=11.00,…
//! SELECT SUM, COUNT WHERE …              → OK sum=1234.00 count=17.00
//! SELECT SUM, MAX GROUP BY Time.Year     → OK 1996=900.00|80.00,1995=…
//! EXPLAIN SUM GROUP BY Customer.Region   → OK backend=mview est_pages=… actual_pages=… shards=[…]
//! ```
//!
//! `INSERT`/`DELETE` paths are one `/`-separated top→leaf chain per
//! dimension, dimensions separated by `|` (names must not contain either
//! character). `INSERT_BATCH` carries many records on one line, separated
//! by `;` (also reserved in names), each record in the same
//! `<measure> <paths>` shape; the whole batch is appended to the WAL as a
//! single group and handed to the shard writers in one command.
//!
//! Anything else is parsed as a dc-ql statement against the
//! engine's live schema and routed through the cost-based planner
//! (`dc-plan`); `EXPLAIN <query>` executes the query and reports the
//! chosen backend, estimated vs. measured page reads, and the per-shard
//! plan fragments on one line. A shard's measured pages are the blocks its
//! own evaluation visited, in the same logical blocks in either storage
//! mode and exact whatever else reads the shard at the same time. Multi-aggregate `SELECT` responses label
//! each value with its lowercase op name (scalar) or pipe-join the values
//! in SELECT-list order (grouped). Errors come back as `ERR <message>`.
//!
//! The network front-end ([`crate::reactor`]) answers a request refused by
//! admission control `BUSY <reason>` instead of queueing it unboundedly.
//! `HELLO` names the token bucket subsequent requests on that connection
//! draw from (the unnamed default tenant otherwise); it is connection
//! state, so the executor only acknowledges it.

use std::time::Duration;

use dc_common::AggregateOp;
use dc_durable::FetchOutcome;
use dc_ql::{parse_statement, resolve, ParsedStatement};

use crate::engine::{EngineRole, ShardedDcTree};
use dc_plan::QueryOutput;

/// Default `WAIT_LSN` / `MIN_LSN` patience before `ERR`ing out.
const DEFAULT_WAIT_MS: u64 = 10_000;

/// `MIN_LSN` prefixes may wrap further `MIN_LSN`s, but not unboundedly —
/// the parser is recursive and a crafted request must not exhaust the
/// stack.
pub const MAX_MIN_LSN_DEPTH: usize = 16;

/// What the connection loop should do after answering.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Control {
    /// Keep serving this connection.
    Continue,
    /// Stop the whole server (a `SHUTDOWN` request).
    StopServer,
}

/// One decoded request, whichever codec it arrived through. The dc-ql
/// surface stays textual ([`Request::Query`] carries the statement
/// verbatim); everything the engine hot paths consume is typed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Declares the connection's admission tenant (connection state; the
    /// executor just acknowledges).
    Hello {
        tenant: String,
    },
    Ping,
    Stats,
    Flush,
    Checkpoint,
    Shutdown,
    Insert {
        measure: i64,
        paths: Vec<Vec<String>>,
    },
    Delete {
        measure: i64,
        paths: Vec<Vec<String>>,
    },
    InsertBatch {
        records: Vec<(Vec<Vec<String>>, i64)>,
    },
    ReplStatus,
    WaitLsn {
        lsn: u64,
        timeout_ms: Option<u64>,
    },
    MinLsn {
        lsn: u64,
        inner: Box<Request>,
    },
    FetchSegments {
        from_lsn: u64,
    },
    FetchCheckpoint,
    /// A dc-ql statement (`SUM WHERE …`, `SELECT …`, `EXPLAIN …`), parsed
    /// against the live schema at execution time.
    Query {
        text: String,
    },
}

impl Request {
    /// Whether admission control applies: data-plane work that costs
    /// engine resources is shed under overload, while the control plane
    /// (health checks, observability, shutdown, tenant declaration) stays
    /// answerable precisely when the operator needs it.
    pub fn admission_controlled(&self) -> bool {
        !matches!(
            self,
            Request::Hello { .. }
                | Request::Ping
                | Request::Stats
                | Request::ReplStatus
                | Request::Shutdown
        )
    }
}

/// Whether `s` is a legal tenant name: 1–64 chars from a conservative
/// ASCII set, so tenant names can be embedded verbatim in the STATS JSON
/// and in `BUSY`/log lines without escaping.
pub fn valid_tenant(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b':' | b'@' | b'-'))
}

/// Handles one request line; returns the response line (without the
/// trailing newline) and the control action.
pub fn handle_line(engine: &ShardedDcTree, line: &str) -> (String, Control) {
    match parse_request(line) {
        Ok(req) => execute(engine, &req),
        Err(msg) => (format!("ERR {msg}"), Control::Continue),
    }
}

/// Parses one text-protocol line into a [`Request`] (the error is the
/// message without the `ERR ` prefix).
pub fn parse_request(line: &str) -> Result<Request, String> {
    parse_request_at(line, 0)
}

fn parse_request_at(line: &str, depth: usize) -> Result<Request, String> {
    let line = line.trim();
    if line.is_empty() {
        return Err("empty request".into());
    }
    let verb = line.split_whitespace().next().unwrap_or("");
    Ok(match verb.to_ascii_uppercase().as_str() {
        "HELLO" => {
            let tenant = line[verb.len()..].trim();
            if tenant.is_empty() {
                return Err("HELLO needs a tenant name".into());
            }
            if !valid_tenant(tenant) {
                return Err("tenant names are ≤64 ASCII [A-Za-z0-9_.:@-] chars".into());
            }
            Request::Hello {
                tenant: tenant.to_string(),
            }
        }
        "PING" => Request::Ping,
        "STATS" => Request::Stats,
        "FLUSH" => Request::Flush,
        "CHECKPOINT" => Request::Checkpoint,
        "SHUTDOWN" => Request::Shutdown,
        "INSERT" | "DELETE" => {
            let (delete, measure, paths) = parse_mutation(line)?;
            if delete {
                Request::Delete { measure, paths }
            } else {
                Request::Insert { measure, paths }
            }
        }
        "INSERT_BATCH" => Request::InsertBatch {
            records: parse_insert_batch(line)?,
        },
        "REPL_STATUS" => Request::ReplStatus,
        "WAIT_LSN" => {
            let mut parts = line.split_whitespace().skip(1);
            let Some(Ok(lsn)) = parts.next().map(str::parse::<u64>) else {
                return Err("WAIT_LSN needs a numeric lsn".into());
            };
            let timeout_ms = match parts.next() {
                Some(t) => match t.parse::<u64>() {
                    Ok(ms) => Some(ms),
                    Err(_) => return Err("WAIT_LSN timeout must be milliseconds".into()),
                },
                None => None,
            };
            Request::WaitLsn { lsn, timeout_ms }
        }
        "MIN_LSN" => {
            if depth >= MAX_MIN_LSN_DEPTH {
                return Err("MIN_LSN nesting too deep".into());
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            parts.next(); // MIN_LSN
            let Some(Ok(lsn)) = parts.next().map(str::parse::<u64>) else {
                return Err("MIN_LSN needs a numeric lsn".into());
            };
            let Some(rest) = parts.next().map(str::trim).filter(|r| !r.is_empty()) else {
                return Err("MIN_LSN needs a request to run".into());
            };
            Request::MinLsn {
                lsn,
                inner: Box::new(parse_request_at(rest, depth + 1)?),
            }
        }
        "FETCH_SEGMENTS" => {
            let Some(Ok(from_lsn)) = line.split_whitespace().nth(1).map(str::parse::<u64>) else {
                return Err("FETCH_SEGMENTS needs a numeric from_lsn".into());
            };
            Request::FetchSegments { from_lsn }
        }
        "FETCH_CHECKPOINT" => Request::FetchCheckpoint,
        _ => Request::Query {
            text: line.to_string(),
        },
    })
}

/// Executes one decoded request; returns the response line (without the
/// trailing newline) and the control action. Both codecs funnel through
/// here, which is what makes text and binary responses byte-identical.
pub fn execute(engine: &ShardedDcTree, req: &Request) -> (String, Control) {
    match req {
        Request::Hello { tenant } => (format!("OK HELLO {tenant}"), Control::Continue),
        Request::Ping => ("OK PONG".into(), Control::Continue),
        Request::Stats => (format!("OK {}", engine.stats_json()), Control::Continue),
        Request::Flush => (
            match engine.try_flush() {
                Ok(()) => "OK FLUSHED".into(),
                Err(e) => format!("ERR {e}"),
            },
            Control::Continue,
        ),
        Request::Checkpoint => (
            match engine.checkpoint() {
                Ok(lsn) => format!("OK CHECKPOINTED {lsn}"),
                Err(e) => format!("ERR {e}"),
            },
            Control::Continue,
        ),
        Request::Shutdown => ("OK BYE".into(), Control::StopServer),
        Request::Insert { measure, paths } => (
            match engine.insert_raw(paths, *measure) {
                Ok(()) => "OK INSERTED".into(),
                Err(e) => format!("ERR {e}"),
            },
            Control::Continue,
        ),
        Request::Delete { measure, paths } => (
            match engine.delete_raw(paths, *measure) {
                Ok(()) => "OK DELETED".into(),
                Err(e) => format!("ERR {e}"),
            },
            Control::Continue,
        ),
        Request::InsertBatch { records } => (
            match engine.insert_batch_raw(records) {
                Ok(()) => format!("OK INSERTED {}", records.len()),
                Err(e) => format!("ERR {e}"),
            },
            Control::Continue,
        ),
        Request::ReplStatus => (handle_repl_status(engine), Control::Continue),
        Request::WaitLsn { lsn, timeout_ms } => {
            let timeout = Duration::from_millis(timeout_ms.unwrap_or(DEFAULT_WAIT_MS));
            (
                match engine.wait_lsn(*lsn, timeout) {
                    Ok(applied) => format!("OK APPLIED {applied}"),
                    Err(e) => format!("ERR {e}"),
                },
                Control::Continue,
            )
        }
        Request::MinLsn { lsn, inner } => {
            if let Err(e) = engine.wait_lsn(*lsn, Duration::from_millis(DEFAULT_WAIT_MS)) {
                return (format!("ERR {e}"), Control::Continue);
            }
            execute(engine, inner)
        }
        Request::FetchSegments { from_lsn } => {
            (handle_fetch_segments(engine, *from_lsn), Control::Continue)
        }
        Request::FetchCheckpoint => (handle_fetch_checkpoint(engine), Control::Continue),
        Request::Query { text } => (handle_query(engine, text), Control::Continue),
    }
}

// ----------------------------------------------------------------------
// Replication verbs
// ----------------------------------------------------------------------

fn handle_repl_status(engine: &ShardedDcTree) -> String {
    let role = match engine.role() {
        EngineRole::Primary => "primary",
        EngineRole::Follower => "follower",
    };
    use std::sync::atomic::Ordering::Relaxed;
    let d = &engine.metrics().durability;
    format!(
        "OK ROLE={role} APPLIED={} SYNCED={} SEGMENT={}",
        engine.applied_lsn(),
        d.wal_synced_lsn.load(Relaxed),
        d.wal_segment.load(Relaxed),
    )
}

fn handle_fetch_segments(engine: &ShardedDcTree, from_lsn: u64) -> String {
    match engine.fetch_segments(from_lsn) {
        Ok(FetchOutcome::NeedCheckpoint { checkpoint_lsn }) => {
            format!("OK NEED_CHECKPOINT {checkpoint_lsn}")
        }
        Ok(FetchOutcome::Segments(segs)) => {
            let mut out = format!("OK SEGMENTS {}", segs.len());
            for seg in &segs {
                out.push(' ');
                out.push_str(&format!(
                    "{}:{}:{}",
                    seg.seq,
                    seg.first_lsn,
                    hex_encode(&seg.bytes)
                ));
            }
            out
        }
        Err(e) => format!("ERR {e}"),
    }
}

fn handle_fetch_checkpoint(engine: &ShardedDcTree) -> String {
    match engine.fetch_checkpoint() {
        Ok(bundle) => {
            let m = &bundle.manifest;
            let mut out = format!(
                "OK CHECKPOINT {} {} {}",
                m.checkpoint_lsn, m.start_seq, m.shards
            );
            // One token per shard image, in shard order.
            for bytes in &bundle.images {
                out.push(' ');
                out.push_str(&hex_encode(bytes));
            }
            out
        }
        Err(e) => format!("ERR {e}"),
    }
}

/// Lowercase hex of `bytes` (the wire framing keeps the protocol
/// line-delimited; segments are small enough that 2× inflation is fine).
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Inverse of [`hex_encode`]; `None` on odd length or a non-hex digit.
pub fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in bytes.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push((hi * 16 + lo) as u8);
    }
    Some(out)
}

/// Parses `INSERT_BATCH <m> <paths>;<m> <paths>;…` — each `;`-separated
/// record reuses the single-record grammar.
#[allow(clippy::type_complexity)]
fn parse_insert_batch(line: &str) -> Result<Vec<(Vec<Vec<String>>, i64)>, String> {
    let mut parts = line.splitn(2, char::is_whitespace);
    parts.next(); // INSERT_BATCH
    let spec = parts.next().map(str::trim).unwrap_or("");
    if spec.is_empty() {
        return Err("INSERT_BATCH needs at least one record".into());
    }
    let mut batch = Vec::new();
    for (i, rec) in spec.split(';').enumerate() {
        let rec = rec.trim();
        if rec.is_empty() {
            return Err(format!("record {i} is empty"));
        }
        let (_, measure, paths) =
            parse_mutation(&format!("INSERT {rec}")).map_err(|msg| format!("record {i}: {msg}"))?;
        batch.push((paths, measure));
    }
    Ok(batch)
}

/// Parses `INSERT|DELETE <measure> <p>/<p>|<p>/<p>|…`.
#[allow(clippy::type_complexity)]
fn parse_mutation(line: &str) -> Result<(bool, i64, Vec<Vec<String>>), String> {
    let mut parts = line.splitn(3, char::is_whitespace);
    let verb = parts.next().unwrap_or("");
    let delete = verb.eq_ignore_ascii_case("DELETE");
    let measure: i64 = parts
        .next()
        .ok_or("missing measure")?
        .parse()
        .map_err(|_| "measure must be an integer".to_string())?;
    let spec = parts.next().ok_or("missing attribute paths")?.trim();
    if spec.is_empty() {
        return Err("missing attribute paths".into());
    }
    let paths: Vec<Vec<String>> = spec
        .split('|')
        .map(|dim| dim.split('/').map(|s| s.trim().to_string()).collect())
        .collect();
    for (d, dim) in paths.iter().enumerate() {
        if dim.iter().any(|s| s.is_empty()) {
            return Err(format!("dimension {d} has an empty path component"));
        }
    }
    Ok((delete, measure, paths))
}

fn handle_query(engine: &ShardedDcTree, line: &str) -> String {
    let stmt = match parse_statement(line) {
        Ok(s) => s,
        Err(e) => return format!("ERR {e}"),
    };
    let resolved = match engine.with_schema(|schema| resolve(schema, stmt.body())) {
        Ok(r) => r,
        Err(e) => return format!("ERR {e}"),
    };
    if stmt.is_explain() {
        return match engine.explain(&resolved) {
            Ok((_, explain)) => format!("OK {explain}"),
            Err(e) => format!("ERR {e}"),
        };
    }
    match engine.execute(&resolved) {
        Ok(out) => render_output(engine, &resolved, out),
        Err(e) => format!("ERR {e}"),
    }
}

/// `12.34` or `NULL`.
fn render_value(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.2}"),
        None => "NULL".into(),
    }
}

/// The values of every SELECTed aggregate, pipe-joined in list order.
fn render_ops(ops: &[AggregateOp], summary: &dc_common::MeasureSummary) -> String {
    ops.iter()
        .map(|&op| render_value(summary.eval(op)))
        .collect::<Vec<_>>()
        .join("|")
}

/// Renders a planned query answer. Single-aggregate responses keep the
/// legacy formats (`OK 12.00`, `OK 1996=12.50,…`); multi-aggregate scalars
/// label each value (`OK sum=12.00 count=3.00`) and multi-aggregate groups
/// pipe-join the values in SELECT-list order. `TOP k` ranks groups by the
/// first aggregate in the list.
fn render_output(engine: &ShardedDcTree, stmt: &ParsedStatement, out: QueryOutput) -> String {
    match out {
        QueryOutput::Scalar(summary) => {
            if let [op] = stmt.ops[..] {
                return format!("OK {}", render_value(summary.eval(op)));
            }
            let parts: Vec<String> = stmt
                .ops
                .iter()
                .map(|&op| {
                    let name = op.to_string().to_ascii_lowercase();
                    format!("{name}={}", render_value(summary.eval(op)))
                })
                .collect();
            format!("OK {}", parts.join(" "))
        }
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
            let rendered: Vec<String> = engine.with_schema(|schema| {
                let h = schema.dim(dim);
                groups
                    .iter()
                    .map(|(value, summary)| {
                        let name = h.name(*value).unwrap_or("?");
                        format!("{name}={}", render_ops(&stmt.ops, summary))
                    })
                    .collect()
            });
            format!("OK {}", rendered.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutation_lines_parse() {
        let (del, m, paths) = parse_mutation("INSERT 150 EUROPE/GERMANY|1996/Jan").unwrap();
        assert!(!del);
        assert_eq!(m, 150);
        assert_eq!(
            paths,
            vec![
                vec!["EUROPE".to_string(), "GERMANY".to_string()],
                vec!["1996".to_string(), "Jan".to_string()]
            ]
        );
        assert!(parse_mutation("INSERT x a/b").is_err());
        assert!(parse_mutation("INSERT 5").is_err());
        assert!(parse_mutation("DELETE -3 a//b").is_err());
        assert!(parse_mutation("DELETE -3 a/b").unwrap().0);
    }

    #[test]
    fn insert_batch_lines_parse() {
        let batch =
            parse_insert_batch("INSERT_BATCH 10 EUROPE/GERMANY|1996/Jan; -3 ASIA/JAPAN|1997/Feb")
                .unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].1, 10);
        assert_eq!(batch[1].1, -3);
        assert_eq!(
            batch[0].0[0],
            vec!["EUROPE".to_string(), "GERMANY".to_string()]
        );
        assert_eq!(batch[1].0[1], vec!["1997".to_string(), "Feb".to_string()]);
        // Errors name the offending record.
        assert!(parse_insert_batch("INSERT_BATCH").is_err());
        assert!(parse_insert_batch("INSERT_BATCH 5 a/b;").is_err());
        let err = parse_insert_batch("INSERT_BATCH 5 a/b; x a/b").unwrap_err();
        assert!(err.contains("record 1"), "{err}");
    }

    #[test]
    fn requests_parse_into_typed_forms() {
        assert_eq!(parse_request("PING").unwrap(), Request::Ping);
        assert_eq!(parse_request("  stats  ").unwrap(), Request::Stats);
        assert_eq!(
            parse_request("HELLO analytics-7").unwrap(),
            Request::Hello {
                tenant: "analytics-7".into()
            }
        );
        assert_eq!(
            parse_request("WAIT_LSN 17 250").unwrap(),
            Request::WaitLsn {
                lsn: 17,
                timeout_ms: Some(250)
            }
        );
        assert_eq!(
            parse_request("WAIT_LSN 17").unwrap(),
            Request::WaitLsn {
                lsn: 17,
                timeout_ms: None
            }
        );
        assert_eq!(
            parse_request("MIN_LSN 5 PING").unwrap(),
            Request::MinLsn {
                lsn: 5,
                inner: Box::new(Request::Ping)
            }
        );
        assert_eq!(
            parse_request("SUM WHERE X = 'y'").unwrap(),
            Request::Query {
                text: "SUM WHERE X = 'y'".into()
            }
        );
        assert!(parse_request("").is_err());
        assert!(parse_request("HELLO").is_err());
        assert!(parse_request("WAIT_LSN x").is_err());
        assert!(parse_request("MIN_LSN 5").is_err());
    }

    #[test]
    fn min_lsn_nesting_is_bounded() {
        let mut line = "PING".to_string();
        for _ in 0..MAX_MIN_LSN_DEPTH {
            line = format!("MIN_LSN 0 {line}");
        }
        // Exactly at the bound still parses…
        assert!(parse_request(&line).is_ok());
        // …one deeper is rejected instead of recursing unboundedly.
        let deeper = format!("MIN_LSN 0 {line}");
        assert_eq!(
            parse_request(&deeper).unwrap_err(),
            "MIN_LSN nesting too deep"
        );
    }

    #[test]
    fn control_plane_requests_bypass_admission() {
        for req in [
            Request::Ping,
            Request::Stats,
            Request::ReplStatus,
            Request::Shutdown,
            Request::Hello { tenant: "t".into() },
        ] {
            assert!(!req.admission_controlled(), "{req:?}");
        }
        for req in [
            Request::Flush,
            Request::Checkpoint,
            Request::FetchCheckpoint,
            Request::FetchSegments { from_lsn: 0 },
            Request::Query {
                text: "COUNT".into(),
            },
            Request::WaitLsn {
                lsn: 0,
                timeout_ms: None,
            },
        ] {
            assert!(req.admission_controlled(), "{req:?}");
        }
    }

    #[test]
    fn hex_round_trips() {
        let data = [0u8, 1, 0x7f, 0x80, 0xff, 0xde, 0xad];
        assert_eq!(hex_decode(&hex_encode(&data)).unwrap(), data);
        assert_eq!(hex_encode(&[]), "");
        assert_eq!(hex_decode("").unwrap(), Vec::<u8>::new());
        assert!(hex_decode("abc").is_none());
        assert!(hex_decode("zz").is_none());
    }
}
