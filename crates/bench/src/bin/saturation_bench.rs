//! Saturates the network front-end and reports where it bends:
//!
//! * **Phase A — throughput at 256 connections.** Closed-loop `PING` and
//!   `COUNT` over the reactor, once as newline text with one request in
//!   flight per connection and once as pipelined `DCB1` binary (depth 32).
//!   On `PING` — the pure front-end figure, free of engine work — the
//!   pipelined side must win by `SAT_MIN_SPEEDUP` (default 5×): pipelining
//!   amortises the per-request syscall + scheduling cost that dominates
//!   cheap verbs. The `COUNT` speedup is reported alongside to show what
//!   survives once both sides pay the identical parse/plan/execute path.
//! * **Phase B — open-loop latency at ≥ 1k connections.** 1088 binary
//!   connections; requests are injected on a fixed schedule regardless of
//!   completions (open loop), so queueing delay is charged to latency the
//!   way a real arrival process would charge it. Reports p50/p99/p999.
//! * **Phase C — overload.** A reactor with a deliberately tight tenant
//!   budget is driven far past it. The bench asserts the no-collapse
//!   property: shed rate > 0 (`BUSY`, not unbounded queueing) while the
//!   p99 of *admitted* requests stays bounded
//!   (`SAT_MAX_ADMITTED_P99_US`, default 500 ms). Violation exits 1.
//!
//! Emits `results/saturation_bench.json`; `bench_gate` watches the
//! latency keys (`open_loop_p99_us`, `open_loop_p999_us`,
//! `overload_admitted_p99_us`).
//!
//! ```sh
//! cargo run --release -p dc-bench --bin saturation_bench \
//!     [records] [open_loop_conns] [phase_ms]
//! ```
//!
//! The driver multiplexes every client over nonblocking sockets in one
//! scan loop — no threads per connection on the client side either — so
//! the process needs `conns × 2` file descriptors (both ends are
//! in-process); raise `ulimit -n` past ~3k for the default shape.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dc_serve::codec::{self, ResponseStep};
use dc_serve::protocol::Request;
use dc_serve::{
    serve_reactor, AdmissionConfig, EngineConfig, PartitionPolicy, ReactorConfig, ShardedDcTree,
};
use dc_tpcd::{generate, TpcdConfig};

const PIPELINE_DEPTH: usize = 32;
const OVERLOAD_CONNS: usize = 64;
const OVERLOAD_DEPTH: usize = 8;

/// One nonblocking client connection; `pending` holds the send (or
/// scheduled-send) instant of every in-flight request, FIFO — responses
/// come back in order, so the front entry is always the one a completed
/// frame answers.
struct Conn {
    stream: TcpStream,
    inbox: Vec<u8>,
    outbox: Vec<u8>,
    pending: VecDeque<Instant>,
}

impl Conn {
    fn connect(addr: SocketAddr, binary: bool) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_nonblocking(true).expect("nonblocking");
        let mut c = Conn {
            stream,
            inbox: Vec::new(),
            outbox: Vec::new(),
            pending: VecDeque::new(),
        };
        if binary {
            c.outbox.extend_from_slice(&codec::MAGIC);
        }
        c
    }

    fn pump_write(&mut self) {
        while !self.outbox.is_empty() {
            match self.stream.write(&self.outbox) {
                Ok(0) => panic!("server closed the connection mid-write"),
                Ok(n) => {
                    self.outbox.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => panic!("write: {e}"),
            }
        }
    }

    fn pump_read(&mut self, scratch: &mut [u8]) {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => panic!("server closed the connection"),
                Ok(n) => self.inbox.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => panic!("read: {e}"),
            }
        }
    }

    /// Drains complete binary response frames; returns `(status, latency)`
    /// per frame, charging each against the oldest pending send.
    fn take_binary(&mut self, now: Instant) -> Vec<(u8, Duration)> {
        let mut done = Vec::new();
        loop {
            match codec::decode_response(&self.inbox) {
                ResponseStep::Incomplete => break,
                ResponseStep::Frame {
                    consumed, status, ..
                } => {
                    self.inbox.drain(..consumed);
                    let sent = self.pending.pop_front().expect("response without request");
                    done.push((status, now.duration_since(sent)));
                }
                other => panic!("binary stream desynced: {other:?}"),
            }
        }
        done
    }

    /// Throughput-only drain: counts complete binary frames and asserts
    /// their status without materialising response strings (phase A counts
    /// millions of responses; the per-frame `String` + UTF-8 check would
    /// make the single-threaded driver the bottleneck being measured).
    fn take_binary_counts(&mut self, expect_status: u8) -> usize {
        let mut n = 0;
        let mut off = 0;
        while self.inbox.len() >= off + 5 {
            let len = u32::from_le_bytes(self.inbox[off..off + 4].try_into().unwrap()) as usize;
            if self.inbox.len() < off + 4 + len {
                break;
            }
            assert_eq!(self.inbox[off + 4], expect_status, "unexpected status");
            off += 4 + len;
            self.pending.pop_front();
            n += 1;
        }
        self.inbox.drain(..off);
        n
    }

    /// Drains complete text response lines; returns how many finished.
    fn take_lines(&mut self) -> usize {
        let mut n = 0;
        while let Some(pos) = self.inbox.iter().position(|&b| b == b'\n') {
            self.inbox.drain(..=pos);
            self.pending.pop_front();
            n += 1;
        }
        n
    }
}

fn connect_all(addr: SocketAddr, n: usize, binary: bool) -> Vec<Conn> {
    (0..n)
        .map(|i| {
            // Stay under the listener backlog: the accept side drains fast,
            // but give it a breath every so often.
            if i % 128 == 127 {
                std::thread::sleep(Duration::from_millis(5));
            }
            Conn::connect(addr, binary)
        })
        .collect()
}

/// Closed-loop fixed request over the newline text protocol: one request
/// in flight per connection, so every request pays its own round trip.
/// Returns requests/sec.
fn phase_a_text(addr: SocketAddr, n: usize, line: &[u8], dur: Duration) -> f64 {
    let mut conns = connect_all(addr, n, false);
    for c in &mut conns {
        c.outbox.extend_from_slice(line);
        c.pending.push_back(Instant::now());
    }
    let mut scratch = vec![0u8; 64 * 1024];
    let mut completed = 0u64;
    let start = Instant::now();
    while start.elapsed() < dur {
        for c in &mut conns {
            c.pump_write();
            c.pump_read(&mut scratch);
            let done = c.take_lines();
            completed += done as u64;
            for _ in 0..done {
                c.outbox.extend_from_slice(line);
                c.pending.push_back(Instant::now());
            }
        }
    }
    completed as f64 / start.elapsed().as_secs_f64()
}

/// Closed-loop fixed request over the reactor's binary codec, pipelined
/// to `PIPELINE_DEPTH` per connection. Returns requests/sec.
fn phase_a_binary(addr: SocketAddr, n: usize, req: &Request, dur: Duration) -> f64 {
    let mut conns = connect_all(addr, n, true);
    let mut frame = Vec::new();
    codec::encode_request(req, &mut frame);
    for c in &mut conns {
        for _ in 0..PIPELINE_DEPTH {
            c.outbox.extend_from_slice(&frame);
            c.pending.push_back(Instant::now());
        }
    }
    let mut scratch = vec![0u8; 64 * 1024];
    let mut completed = 0u64;
    let start = Instant::now();
    while start.elapsed() < dur {
        for c in &mut conns {
            c.pump_write();
            c.pump_read(&mut scratch);
            let now = Instant::now();
            let done = c.take_binary_counts(codec::STATUS_OK);
            completed += done as u64;
            for _ in 0..done {
                c.outbox.extend_from_slice(&frame);
                c.pending.push_back(now);
            }
        }
    }
    completed as f64 / start.elapsed().as_secs_f64()
}

struct OpenLoopRun {
    offered_rps: f64,
    completed: u64,
    latencies_us: Vec<f64>,
}

/// Open-loop injection: requests go out on a fixed global schedule,
/// round-robin across connections, whether or not earlier ones have
/// completed. Latency is measured from the *scheduled* send time, so
/// server-side queueing under pressure shows up in the tail instead of
/// silently slowing the offered rate (the closed-loop coordination
/// omission).
fn phase_b_open_loop(addr: SocketAddr, n: usize, offered_rps: f64, dur: Duration) -> OpenLoopRun {
    let mut conns = connect_all(addr, n, true);
    let req = Request::Query {
        text: "COUNT".to_string(),
    };
    let mut frame = Vec::new();
    codec::encode_request(&req, &mut frame);

    let interval = Duration::from_secs_f64(1.0 / offered_rps);
    let mut scratch = vec![0u8; 64 * 1024];
    let mut latencies_us: Vec<f64> = Vec::new();
    let start = Instant::now();
    let mut next_send = start;
    let mut rr = 0usize;
    loop {
        let now = Instant::now();
        let injecting = now.duration_since(start) < dur;
        if injecting {
            while next_send <= Instant::now() {
                let c = &mut conns[rr % n];
                rr += 1;
                c.outbox.extend_from_slice(&frame);
                c.pending.push_back(next_send);
                next_send += interval;
            }
        }
        let mut outstanding = 0usize;
        for c in &mut conns {
            c.pump_write();
            c.pump_read(&mut scratch);
            let now = Instant::now();
            for (status, lat) in c.take_binary(now) {
                assert_eq!(status, codec::STATUS_OK, "unexpected non-OK in phase B");
                latencies_us.push(lat.as_secs_f64() * 1e6);
            }
            outstanding += c.pending.len() + c.outbox.len();
        }
        if !injecting {
            // Grace period: collect stragglers, then stop.
            if outstanding == 0 || now.duration_since(start) > dur + Duration::from_secs(5) {
                break;
            }
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    OpenLoopRun {
        offered_rps,
        completed: latencies_us.len() as u64,
        latencies_us,
    }
}

struct OverloadRun {
    admitted: u64,
    shed: u64,
    admitted_latencies_us: Vec<f64>,
}

/// Closed-loop flood against a reactor whose tenant bucket is far smaller
/// than the offered load: most requests must come back `BUSY` immediately
/// while the admitted ones keep their ordinary latency.
fn phase_c_overload(addr: SocketAddr, dur: Duration) -> OverloadRun {
    let mut conns = connect_all(addr, OVERLOAD_CONNS, true);
    let req = Request::Query {
        text: "COUNT".to_string(),
    };
    for c in &mut conns {
        for _ in 0..OVERLOAD_DEPTH {
            codec::encode_request(&req, &mut c.outbox);
            c.pending.push_back(Instant::now());
        }
    }
    let mut scratch = vec![0u8; 64 * 1024];
    let mut run = OverloadRun {
        admitted: 0,
        shed: 0,
        admitted_latencies_us: Vec::new(),
    };
    let start = Instant::now();
    while start.elapsed() < dur {
        for c in &mut conns {
            c.pump_write();
            c.pump_read(&mut scratch);
            let now = Instant::now();
            for (status, lat) in c.take_binary(now) {
                match status {
                    codec::STATUS_OK => {
                        run.admitted += 1;
                        run.admitted_latencies_us.push(lat.as_secs_f64() * 1e6);
                    }
                    codec::STATUS_BUSY => run.shed += 1,
                    other => panic!("unexpected status {other} under overload"),
                }
                codec::encode_request(&req, &mut c.outbox);
                c.pending.push_back(now);
            }
        }
    }
    run
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let records: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(2_000);
    let open_loop_conns: usize = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(1_088);
    let phase_ms: u64 = args.get(3).and_then(|a| a.parse().ok()).unwrap_or(2_000);
    let dur = Duration::from_millis(phase_ms);
    let min_speedup = env_f64("SAT_MIN_SPEEDUP", 5.0);
    let max_admitted_p99_us = env_f64("SAT_MAX_ADMITTED_P99_US", 500_000.0);
    let offered_rps = env_f64("SAT_OPEN_LOOP_RPS", 4_000.0);

    let data = generate(&TpcdConfig::scaled(records, 77));
    let engine = Arc::new(
        ShardedDcTree::new(
            data.schema.clone(),
            EngineConfig {
                num_shards: 2,
                policy: PartitionPolicy::Hash,
                ..Default::default()
            },
        )
        .expect("engine"),
    );
    for r in &data.records {
        engine
            .insert_raw(&data.paths_for(r), r.measure)
            .expect("insert");
    }
    engine.flush();

    // ── Phase A ─────────────────────────────────────────────────────────
    // Two workloads, both transports each, on one reactor. PING isolates
    // front-end request overhead — transport, framing, dispatch — and is
    // what the ≥ 5× assertion holds; it is answered inline on the event
    // loop. COUNT adds the identical parse/plan/execute engine path on
    // both sides, so it reports how much of the pipelining win survives a
    // real (if minimal) data-plane verb.
    let reactor = serve_reactor(Arc::clone(&engine), "127.0.0.1:0", ReactorConfig::default())
        .expect("reactor");
    eprintln!("phase A: 256-conn closed loop, text with one request in flight …");
    let text_ping_rps = phase_a_text(reactor.local_addr(), 256, b"PING\n", dur);
    let text_count_rps = phase_a_text(reactor.local_addr(), 256, b"COUNT\n", dur);
    eprintln!("phase A: 256-conn closed loop, reactor pipelined binary (depth {PIPELINE_DEPTH}) …");
    let reactor_ping_rps = phase_a_binary(reactor.local_addr(), 256, &Request::Ping, dur);
    let count_req = Request::Query {
        text: "COUNT".to_string(),
    };
    let reactor_count_rps = phase_a_binary(reactor.local_addr(), 256, &count_req, dur);
    let speedup = reactor_ping_rps / text_ping_rps;
    let count_speedup = reactor_count_rps / text_count_rps;
    eprintln!(
        "phase A: PING text {text_ping_rps:.0} → pipelined {reactor_ping_rps:.0} req/s \
         ({speedup:.1}x); COUNT {text_count_rps:.0} → {reactor_count_rps:.0} req/s \
         ({count_speedup:.1}x)"
    );

    // ── Phase B ─────────────────────────────────────────────────────────
    eprintln!("phase B: {open_loop_conns}-conn open loop at {offered_rps:.0} req/s …");
    let open_loop = phase_b_open_loop(reactor.local_addr(), open_loop_conns, offered_rps, dur);
    let mut sorted = open_loop.latencies_us.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let (p50, p99, p999) = (
        percentile(&sorted, 0.50),
        percentile(&sorted, 0.99),
        percentile(&sorted, 0.999),
    );
    eprintln!(
        "phase B: {} completed, p50 {p50:.0} µs, p99 {p99:.0} µs, p999 {p999:.0} µs",
        open_loop.completed
    );
    reactor.stop();

    // ── Phase C ─────────────────────────────────────────────────────────
    // A budget of ~1.5k admits over the phase, against a closed-loop flood
    // that can push two orders of magnitude more: shedding is guaranteed,
    // and on the shed path the reactor answers inline without queueing.
    let tight = ReactorConfig {
        admission: AdmissionConfig {
            tenant_rate: 500.0,
            tenant_burst: 500.0,
            queue_high_water: 16_384,
        },
    };
    let throttled = serve_reactor(Arc::clone(&engine), "127.0.0.1:0", tight).expect("reactor");
    eprintln!("phase C: {OVERLOAD_CONNS}-conn flood against a 500 req/s tenant budget …");
    let overload = phase_c_overload(throttled.local_addr(), dur);
    let mut adm = overload.admitted_latencies_us.clone();
    adm.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let admitted_p99 = percentile(&adm, 0.99);
    let offered = overload.admitted + overload.shed;
    let shed_rate = overload.shed as f64 / offered.max(1) as f64;
    eprintln!(
        "phase C: {} admitted / {} shed (shed rate {:.1}%), admitted p99 {admitted_p99:.0} µs",
        overload.admitted,
        overload.shed,
        shed_rate * 100.0
    );
    throttled.stop();
    engine.shutdown();

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"records\": {records},\n"));
    json.push_str(&format!("  \"phase_ms\": {phase_ms},\n"));
    json.push_str("  \"throughput_256_conns\": {\n");
    json.push_str(&format!(
        "    \"ping_reactor_text_rps\": {text_ping_rps:.1},\n    \"ping_reactor_pipelined_rps\": {reactor_ping_rps:.1},\n"
    ));
    json.push_str(&format!(
        "    \"count_reactor_text_rps\": {text_count_rps:.1},\n    \"count_reactor_pipelined_rps\": {reactor_count_rps:.1},\n"
    ));
    json.push_str(&format!(
        "    \"pipeline_depth\": {PIPELINE_DEPTH},\n    \"ping_speedup\": {speedup:.2},\n    \"count_speedup\": {count_speedup:.2}\n  }},\n"
    ));
    json.push_str("  \"open_loop\": {\n");
    json.push_str(&format!(
        "    \"connections\": {open_loop_conns},\n    \"offered_rps\": {:.1},\n",
        open_loop.offered_rps
    ));
    json.push_str(&format!(
        "    \"completed\": {},\n    \"open_loop_p50_us\": {p50:.1},\n",
        open_loop.completed
    ));
    json.push_str(&format!(
        "    \"open_loop_p99_us\": {p99:.1},\n    \"open_loop_p999_us\": {p999:.1}\n  }},\n"
    ));
    json.push_str("  \"overload\": {\n");
    json.push_str(&format!(
        "    \"connections\": {OVERLOAD_CONNS},\n    \"admitted\": {},\n    \"shed\": {},\n",
        overload.admitted, overload.shed
    ));
    json.push_str(&format!(
        "    \"shed_rate\": {shed_rate:.4},\n    \"overload_admitted_p99_us\": {admitted_p99:.1}\n  }}\n"
    ));
    json.push_str("}\n");
    std::fs::create_dir_all("results").expect("mkdir results");
    let path = "results/saturation_bench.json";
    std::fs::write(path, &json).expect("write report");
    println!("report written to {path}");

    // The no-collapse contract; any violation fails the bench loudly.
    let mut failed = false;
    if open_loop_conns >= 1_024 && open_loop.completed == 0 {
        eprintln!("FAIL: open loop completed no requests");
        failed = true;
    }
    if speedup < min_speedup {
        eprintln!("FAIL: pipelined PING speedup {speedup:.2}x < required {min_speedup:.1}x");
        failed = true;
    }
    if overload.shed == 0 {
        eprintln!("FAIL: overload phase shed nothing — backpressure is not engaging");
        failed = true;
    }
    if admitted_p99 > max_admitted_p99_us {
        eprintln!(
            "FAIL: admitted p99 {admitted_p99:.0} µs > {max_admitted_p99_us:.0} µs — \
             the server is queueing instead of shedding"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
