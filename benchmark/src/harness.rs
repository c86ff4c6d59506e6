//! Wire-level load generation against an in-process `serve_reactor`
//! server: the load stream, closed-loop and open-loop query sections, and
//! the paced background writer. Everything here talks `DCB1` over real
//! loopback sockets; nothing calls into the engine.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use dc_hierarchy::CubeSchema;
use dc_serve::protocol::Request;
use dc_serve::{serve_reactor, EngineConfig, ReactorConfig, ServerHandle, ShardedDcTree};

use crate::client::{frame, Client};
use crate::gen::RawRecord;
use crate::oracle::Expected;
use crate::spec::{Writer, BARRIER_EVERY, DELETES_PER_BARRIER, LOAD_BATCH};
use crate::stats::us;

/// Failures over attempts. `BUSY`, `ERR` and oracle mismatches count as
/// failures; a transport error aborts the run.
#[derive(Default)]
pub struct Tally {
    pub attempted: AtomicU64,
    pub failed: AtomicU64,
    /// The first few failures, for the report.
    pub examples: std::sync::Mutex<Vec<String>>,
}

impl Tally {
    /// Counts one attempt; `verdict` is `Err(why)` for a failure.
    pub fn note(&self, verdict: Result<(), String>) {
        self.attempted.fetch_add(1, Relaxed);
        if let Err(why) = verdict {
            self.failed.fetch_add(1, Relaxed);
            let mut examples = self.examples.lock().expect("tally lock");
            if examples.len() < 5 {
                examples.push(why);
            }
        }
    }

    /// Counts a response that must be `OK` and, when given, match `want`.
    pub fn check(&self, what: &str, status_ok: bool, line: &str, want: Option<&Expected>) {
        let clip = |s: &str| s.chars().take(160).collect::<String>();
        self.note(if !status_ok {
            Err(format!("{what}: {}", clip(line)))
        } else if want.is_some_and(|w| !w.matches(line)) {
            Err(format!("{what}: oracle mismatch, got {}", clip(line)))
        } else {
            Ok(())
        });
    }
}

/// An engine behind a reactor server on an ephemeral loopback port.
pub struct Server {
    pub engine: Arc<ShardedDcTree>,
    pub addr: SocketAddr,
    handle: ServerHandle,
}

impl Server {
    pub fn start(schema: CubeSchema, config: EngineConfig) -> io::Result<Server> {
        let engine = ShardedDcTree::new(schema, config)
            .map_err(|e| io::Error::other(format!("engine: {e}")))?;
        let engine = Arc::new(engine);
        let handle = serve_reactor(Arc::clone(&engine), "127.0.0.1:0", ReactorConfig::default())?;
        Ok(Server {
            addr: handle.local_addr(),
            engine,
            handle,
        })
    }

    /// Stops the server (joining its threads) and hands the engine back;
    /// dropping that is the "crash" of the durable workload — writers
    /// drain, no checkpoint is taken.
    pub fn stop(self) -> Arc<ShardedDcTree> {
        self.handle.stop();
        self.engine
    }
}

/// What the load stream measured.
#[derive(Default)]
pub struct LoadStats {
    /// When the first `INSERT_BATCH` was acknowledged.
    pub first_ack: Option<Instant>,
    /// First send → last `FLUSH` ack, deletes and checkpoint included.
    pub wall_s: f64,
    /// Send → `OK INSERTED n` of every `INSERT_BATCH`.
    pub ack_us: Vec<f64>,
    pub checkpoint_ms: Option<f64>,
    /// Indices (into the loaded records) the stream deleted again.
    pub deleted: Vec<usize>,
    /// Bytes the connection sent and received.
    pub bytes: u64,
}

/// Streams `raw` as `INSERT_BATCH(512)` with a `FLUSH` barrier every 8
/// batches. With `deletes`, each barrier is followed by 200 single
/// `DELETE`s of records it covered (evenly spaced, starting `deletes` into
/// the stride), and one `CHECKPOINT` is taken at exactly two thirds of the
/// batches, right after a `FLUSH`.
///
/// The stream runs on **one** connection: insert order — and with it the
/// shape of the DC-tree, the page counts of every later query and the
/// length of the recovery tail — is then a function of the inputs alone.
/// (Two connections measured no faster on this two-core box and varied
/// five times as much from run to run.)
pub fn load(
    addr: SocketAddr,
    raw: &[RawRecord],
    deletes: Option<usize>,
    tally: &Tally,
) -> io::Result<LoadStats> {
    let mut client = Client::connect(addr)?;
    let steps: Vec<Vec<u8>> = raw
        .chunks(LOAD_BATCH)
        .map(|chunk| {
            frame(&Request::InsertBatch {
                records: chunk.to_vec(),
            })
        })
        .collect();
    let flush = frame(&Request::Flush);
    let checkpoint_at = deletes.map(|_| steps.len() * 2 / 3);
    let mut stats = LoadStats::default();
    let ok = |what: &str, r: &crate::client::Response| tally.check(what, r.is_ok(), &r.line, None);

    let t0 = Instant::now();
    for (j, step) in steps.iter().enumerate() {
        if checkpoint_at == Some(j) {
            ok("FLUSH", &client.call(&flush)?.0);
            let (r, d) = client.request(&Request::Checkpoint)?;
            ok("CHECKPOINT", &r);
            stats.checkpoint_ms = Some(us(d) / 1e3);
        }
        let (r, d) = client.call(step)?;
        ok("INSERT_BATCH", &r);
        stats.ack_us.push(us(d));
        stats.first_ack.get_or_insert_with(Instant::now);
        let barrier = (j + 1) % BARRIER_EVERY == 0;
        let last = j + 1 == steps.len();
        if barrier || last {
            ok("FLUSH", &client.call(&flush)?.0);
        }
        if let (Some(phase), true) = (deletes, barrier) {
            let covered =
                (j + 1 - BARRIER_EVERY) * LOAD_BATCH..((j + 1) * LOAD_BATCH).min(raw.len());
            let stride = (covered.len() / DELETES_PER_BARRIER).max(1);
            for i in covered
                .skip(phase % stride)
                .step_by(stride)
                .take(DELETES_PER_BARRIER)
            {
                let (paths, measure) = raw[i].clone();
                ok(
                    "DELETE",
                    &client.request(&Request::Delete { measure, paths })?.0,
                );
                stats.deleted.push(i);
            }
            if last {
                ok("FLUSH", &client.call(&flush)?.0);
            }
        }
    }
    stats.wall_s = t0.elapsed().as_secs_f64();
    stats.bytes = client.bytes_in + client.bytes_out;
    Ok(stats)
}

/// One closed-loop repetition: wall time and every round trip.
pub struct ClosedRep {
    pub wall_s: f64,
    pub lat_us: Vec<f64>,
}

impl ClosedRep {
    pub fn qps(&self) -> f64 {
        self.lat_us.len() as f64 / self.wall_s
    }
}

/// Sends the fixed list `frames` once, depth 1 per connection, request
/// `i` on connection `i % clients.len()`; with `expected`, every response
/// is checked against the oracle.
pub fn closed_rep(
    clients: &mut [Client],
    frames: &[Vec<u8>],
    expected: Option<&[Expected]>,
    tally: &Tally,
) -> io::Result<ClosedRep> {
    let n = clients.len();
    let start = Barrier::new(n);
    let parts: Vec<io::Result<(Vec<f64>, Instant, Instant)>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(k, client)| {
                let start = &start;
                s.spawn(move || {
                    let mut lat = Vec::with_capacity(frames.len() / n + 1);
                    start.wait();
                    let began = Instant::now();
                    for i in (k..frames.len()).step_by(n) {
                        let (r, d) = client.call(&frames[i])?;
                        tally.check("query", r.is_ok(), &r.line, expected.map(|e| &e[i]));
                        lat.push(us(d));
                    }
                    Ok((lat, began, Instant::now()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut lat_us = Vec::with_capacity(frames.len());
    let (mut began, mut ended) = (None::<Instant>, None::<Instant>);
    for part in parts {
        let (lat, b, e) = part?;
        lat_us.extend(lat);
        began = Some(began.map_or(b, |x| x.min(b)));
        ended = Some(ended.map_or(e, |x| x.max(e)));
    }
    let wall = ended.expect("at least one connection") - began.expect("at least one connection");
    Ok(ClosedRep {
        wall_s: wall.as_secs_f64(),
        lat_us,
    })
}

/// One open-loop repetition: latency from each request's *scheduled* send
/// time, and how late the generator actually sent it.
pub struct OpenRep {
    pub lat_us: Vec<f64>,
    pub lateness_us: Vec<f64>,
}

/// Sends `count` requests on a fixed schedule of `rate` per second,
/// whatever the responses do: request `i` is due at `t0 + i / rate`, goes
/// out on connection `i % n` (pipelined) and takes `frames[i % len]`. One
/// generator thread writes; one reader per connection charges each
/// response against the instant its request was due.
pub fn open_rep(
    clients: &mut [Client],
    frames: &[Vec<u8>],
    expected: Option<&[Expected]>,
    rate: f64,
    count: usize,
    tally: &Tally,
) -> io::Result<OpenRep> {
    let n = clients.len();
    let mut readers = clients
        .iter()
        .map(Client::try_clone)
        .collect::<io::Result<Vec<_>>>()?;
    let t0 = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / rate);
    let (lat_parts, lateness): (Vec<io::Result<Vec<f64>>>, io::Result<Vec<f64>>) =
        std::thread::scope(|s| {
            let handles: Vec<_> = readers
                .iter_mut()
                .enumerate()
                .map(|(k, reader)| {
                    s.spawn(move || {
                        let mut lat = Vec::with_capacity(count / n + 1);
                        for i in (k..count).step_by(n) {
                            let r = reader.recv()?;
                            let slot = i % frames.len();
                            lat.push(us(Instant::now().saturating_duration_since(due(i))));
                            tally.check("query", r.is_ok(), &r.line, expected.map(|e| &e[slot]));
                        }
                        Ok(lat)
                    })
                })
                .collect();
            let generated = (|| {
                let mut lateness = Vec::with_capacity(count);
                for i in 0..count {
                    wait_until(due(i));
                    lateness.push(us(Instant::now().saturating_duration_since(due(i))));
                    clients[i % n].send(&frames[i % frames.len()])?;
                }
                Ok(lateness)
            })();
            let lat = handles
                .into_iter()
                .map(|h| h.join().expect("reader thread panicked"))
                .collect();
            (lat, generated)
        });
    let mut lat_us = Vec::with_capacity(count);
    for part in lat_parts {
        lat_us.extend(part?);
    }
    for (client, reader) in clients.iter_mut().zip(&readers) {
        client.bytes_in += reader.bytes_in;
    }
    Ok(OpenRep {
        lat_us,
        lateness_us: lateness?,
    })
}

/// Sleeps most of the way to `deadline`, then yields the rest: a pure spin
/// would take one of the two cores away from the server.
fn wait_until(deadline: Instant) {
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > Duration::from_micros(150) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}

/// What the background writer measured.
#[derive(Default)]
pub struct WriterLog {
    /// Send → `OK INSERTED` of each `INSERT` / `INSERT_BATCH`.
    pub ack_us: Vec<f64>,
    /// Insert send → following `FLUSH` ack: until the records are
    /// queryable. Empty for a writer that does not flush.
    pub lag_us: Vec<f64>,
    /// Held-out records written (a prefix of the held-out list).
    pub written: usize,
}

/// The paced writer: every `1 / per_sec` seconds one `INSERT` or
/// `INSERT_BATCH` of the next held-out records (then `FLUSH`, if the writer
/// flushes) — until `stop` is raised. Its last request is always a `FLUSH`,
/// so everything it wrote is queryable when it returns.
pub fn run_writer(
    addr: SocketAddr,
    held: &[RawRecord],
    writer: Writer,
    stop: &AtomicBool,
    tally: &Tally,
) -> io::Result<WriterLog> {
    let mut client = Client::connect(addr)?;
    let flush = frame(&Request::Flush);
    let period = Duration::from_secs_f64(1.0 / writer.per_sec);
    let mut log = WriterLog::default();
    let mut next = Instant::now();
    let mut chunks = held.chunks_exact(writer.batch);
    'pace: loop {
        loop {
            if stop.load(Relaxed) {
                break 'pace;
            }
            let left = next.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            std::thread::sleep(left.min(Duration::from_millis(2)));
        }
        next += period;
        let Some(chunk) = chunks.next() else {
            return Err(io::Error::other("the writer ran out of held-out records"));
        };
        let insert = match chunk {
            [(paths, measure)] => frame(&Request::Insert {
                measure: *measure,
                paths: paths.clone(),
            }),
            many => frame(&Request::InsertBatch {
                records: many.to_vec(),
            }),
        };
        let sent = Instant::now();
        let (r, d) = client.call(&insert)?;
        tally.check("writer INSERT", r.is_ok(), &r.line, None);
        log.ack_us.push(us(d));
        log.written += chunk.len();
        if writer.flush {
            let (r, _) = client.call(&flush)?;
            tally.check("writer FLUSH", r.is_ok(), &r.line, None);
            log.lag_us.push(us(sent.elapsed()));
        }
    }
    let (r, _) = client.call(&flush)?;
    tally.check("writer FLUSH", r.is_ok(), &r.line, None);
    Ok(log)
}
