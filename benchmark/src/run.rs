//! One workload, start to finish: set-up, the timed wire sections, the
//! oracle checks, and (with `--trace 1`) the traced pass. The three query
//! workloads share [`run_queries`]; `ingest_durable`, whose repetition is a
//! whole load → crash → recovery cycle, has [`run_ingest`].

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::time::Instant;

use dc_serve::ShardedDcTree;

use crate::client::{query_frame, Client};
use crate::gen::{self, sub_seed, Cube, Query, RawRecord};
use crate::harness::{
    closed_rep, load, open_rep, run_writer, ClosedRep, OpenRep, Server, Tally, WriterLog,
};
use crate::layers;
use crate::oracle::{Expected, Oracle};
use crate::spec::{Family, Spec, OPEN_REP_SECONDS, SAMPLE_CHECK, TRACED_NARROW, TRACED_ROLLUPS};
use crate::stats::{
    chunk_medians, median, median_of_reps, process_cpu_seconds, process_peak_rss_mib, tail_quantile,
};

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

/// Everything a run measured, by metric name.
pub type Metrics = BTreeMap<String, f64>;

pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Failure examples and sample counts, for the human-readable report.
    pub notes: Vec<String>,
}

/// A loaded cube behind a running server.
pub struct Loaded {
    pub cube: Cube,
    pub held: Vec<RawRecord>,
    pub server: Server,
    pub data_dir: PathBuf,
}

/// The fixed request lists of a workload.
pub struct Requests {
    /// Distinct statements of the primary family (the narrow list, or the
    /// 256 roll-up templates).
    pub primary: Vec<Query>,
    /// The closed-loop list: index into `primary` per request.
    pub primary_order: Vec<usize>,
    pub wide: Vec<Query>,
}

impl Requests {
    /// The lists of `spec` under `seed`. With `traced`, the lists are
    /// longer — at least 500 requests per query class for the traced pass
    /// to replay (two cycles of the wide list: a wide query costs 25 ms) —
    /// and the wire sections send their heads, which are the untraced lists.
    fn generate(spec: &Spec, cube: &Cube, seed: u64, traced: bool) -> Requests {
        let at_least = |n: usize, traced_n: usize| if traced { n.max(traced_n) } else { n };
        let (primary, primary_order) = match spec.primary {
            Family::Narrow => {
                let n = at_least(spec.primary_len, TRACED_NARROW);
                (
                    gen::narrow(&cube.schema, n, sub_seed(seed, 1)),
                    (0..n).collect(),
                )
            }
            Family::Rollups => {
                let templates = gen::rollups(&cube.schema, sub_seed(seed, 3));
                let n = at_least(spec.primary_len, TRACED_ROLLUPS);
                let order = gen::zipf_draws(templates.len(), 1.0, n, sub_seed(seed, 4));
                (templates, order)
            }
        };
        let wide = at_least(spec.wide_len, 2 * spec.wide_len);
        Requests {
            primary,
            primary_order,
            wide: gen::wide(&cube.schema, wide, sub_seed(seed, 2)),
        }
    }

    pub fn primary_frames(&self) -> Vec<Vec<u8>> {
        let frames: Vec<Vec<u8>> = self.primary.iter().map(|q| query_frame(&q.text)).collect();
        self.primary_order
            .iter()
            .map(|&i| frames[i].clone())
            .collect()
    }

    pub fn wide_frames(&self) -> Vec<Vec<u8>> {
        self.wide.iter().map(|q| query_frame(&q.text)).collect()
    }

    /// The post-write oracle sample: up to 200 distinct primary statements.
    fn sample(&self) -> &[Query] {
        &self.primary[..self.primary.len().min(SAMPLE_CHECK)]
    }
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// `COUNT` over the wire must equal `live`.
fn check_count(addr: SocketAddr, live: usize, tally: &Tally) -> io::Result<()> {
    let mut client = Client::connect(addr)?;
    let (r, _) = client.call(&query_frame("COUNT"))?;
    let want = Expected::Line(format!("OK {live}.00"));
    tally.check("COUNT", r.is_ok(), &r.line, Some(&want));
    Ok(())
}

/// Asks `queries` once over the wire, one connection, and checks each
/// answer against what `oracle` holds now.
fn ask_sample(
    addr: SocketAddr,
    oracle: &mut Oracle,
    queries: &[Query],
    tally: &Tally,
) -> io::Result<()> {
    let frames: Vec<Vec<u8>> = queries.iter().map(|q| query_frame(&q.text)).collect();
    let expected: Vec<Expected> = queries.iter().map(|q| oracle.expected(q)).collect();
    let mut client = [Client::connect(addr)?];
    closed_rep(&mut client, &frames, Some(&expected), tally)?;
    Ok(())
}

pub fn run(spec: &Spec, opts: &Options) -> io::Result<Outcome> {
    let tally = Tally::default();
    let mut m = Metrics::new();
    let mut notes = vec![format!("config: {}", spec.describe())];
    let data_root = opts
        .out_dir
        .join(format!("data-{}-{}", spec.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&data_root);
    std::fs::create_dir_all(&data_root)?;
    let result = if spec.durable {
        run_ingest(spec, opts, &data_root, &tally, &mut m, &mut notes)
    } else {
        run_queries(spec, opts, &data_root, &tally, &mut m, &mut notes)
    };
    let _ = std::fs::remove_dir_all(&data_root);
    result?;

    if let Some(rss) = process_peak_rss_mib() {
        m.entry("rss_mb".into()).or_insert(rss);
    }
    let attempted = tally.attempted.load(Relaxed);
    let failed = tally.failed.load(Relaxed);
    m.insert("error_rate".into(), failed as f64 / attempted.max(1) as f64);
    for example in tally.examples.lock().expect("tally lock").iter() {
        notes.push(format!("FAILED {example}"));
    }
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        notes,
    })
}

/// Per-repetition closed-loop values → the section's metrics: the median
/// over repetitions of throughput and of the per-repetition median latency,
/// and the exact p99 over every repetition's samples pooled — one
/// repetition alone rarely has ten samples beyond its p99.
fn closed_metrics(prefix: &str, reps: &[ClosedRep], m: &mut Metrics, notes: &mut Vec<String>) {
    let pooled: Vec<f64> = reps.iter().flat_map(|r| r.lat_us.iter().copied()).collect();
    if let Some(v) = median_of_reps(reps.iter().map(|r| Some(r.qps()))) {
        m.insert(format!("{prefix}_qps"), v);
    }
    if let Some(v) = median_of_reps(reps.iter().map(|r| median(&r.lat_us))) {
        m.insert(format!("{prefix}_p50_us"), v);
    }
    if let Some(v) = tail_quantile(&pooled, 0.99) {
        m.insert(format!("{prefix}_p99_us"), v);
    }
    notes.push(format!(
        "{prefix}: {} repetitions x {} requests, {} samples; per-repetition qps {:?}",
        reps.len(),
        reps.first().map_or(0, |r| r.lat_us.len()),
        pooled.len(),
        reps.iter().map(|r| r.qps().round()).collect::<Vec<_>>()
    ));
}

/// What the sections of a query workload collected.
struct Sections {
    primary: Vec<ClosedRep>,
    wide: Vec<ClosedRep>,
    open: Vec<OpenRep>,
    /// Bytes the query connections sent and received.
    bytes: u64,
}

/// `adhoc_resident`, `dashboard_mixed`, `adhoc_disk`: one set-up, then a
/// warm-up pass and `reps` rounds of the workload's sections, beside its
/// writer if it has one.
fn run_queries(
    spec: &Spec,
    opts: &Options,
    data_root: &Path,
    tally: &Tally,
    m: &mut Metrics,
    notes: &mut Vec<String>,
) -> io::Result<()> {
    let reps = spec.reps(opts.seconds);

    // Set-up: generate + start + load over the wire + FLUSH until the
    // first oracle-checked answer.
    let data_dir = data_root.join("engine");
    let t0 = Instant::now();
    let (cube, held) = Cube::generate(spec.records, spec.held_out(reps));
    let server = Server::start(dc_tpcd::cube_schema(), spec.engine_config(&data_dir))?;
    load(server.addr, &cube.raw, None, tally)?;
    check_count(server.addr, cube.raw.len(), tally)?;
    m.insert("setup_s".into(), t0.elapsed().as_secs_f64());
    let loaded = Loaded {
        cube,
        held,
        server,
        data_dir,
    };
    let addr = loaded.server.addr;
    let engine: &ShardedDcTree = &loaded.server.engine;

    let requests = Requests::generate(spec, &loaded.cube, opts.seed, opts.trace);
    let mut oracle = Oracle::new(loaded.cube.schema.clone(), loaded.cube.records.clone());
    // Answers cannot change under a read-only workload, so every response
    // of its sections is checked; with a writer, a sample is checked after
    // the final FLUSH instead.
    let read_only = spec.writer.is_none();
    let primary_frames = requests.primary_frames();
    let primary_frames = &primary_frames[..spec.primary_len];
    let wide_frames = requests.wide_frames();
    let wide_frames = &wide_frames[..spec.wide_len];
    let (primary_expected, wide_expected) = if read_only {
        let distinct: Vec<Expected> = requests
            .primary
            .iter()
            .map(|q| oracle.expected(q))
            .collect();
        let primary: Vec<Expected> = requests.primary_order[..spec.primary_len]
            .iter()
            .map(|&i| distinct[i].clone())
            .collect();
        let wide: Vec<Expected> = requests.wide[..spec.wide_len]
            .iter()
            .map(|q| oracle.expected(q))
            .collect();
        (Some(primary), Some(wide))
    } else {
        (None, None)
    };

    let stop_writer = AtomicBool::new(false);
    let before = layers::Counters::read(engine);
    let cpu_before = process_cpu_seconds();
    let attempted_before = tally.attempted.load(Relaxed);
    let sections_began = Instant::now();

    let (sections, writer_log) = std::thread::scope(|s| {
        let writer = spec.writer.map(|w| {
            let (held, stop) = (&loaded.held, &stop_writer);
            s.spawn(move || run_writer(addr, held, w, stop, tally))
        });
        let sections = (|| -> io::Result<Sections> {
            let mut clients = (0..spec.query_conns)
                .map(|_| Client::connect(addr))
                .collect::<io::Result<Vec<_>>>()?;
            // One warm-up pass of each list, then `reps` rounds of the
            // workload's sections. Rounds interleave the sections, so a
            // slow spell of the host touches a few repetitions of each
            // rather than all of one.
            let mut closed = |frames: &[Vec<u8>], expected: &Option<Vec<Expected>>| {
                closed_rep(&mut clients, frames, expected.as_deref(), tally)
            };
            closed(primary_frames, &primary_expected)?;
            if !wide_frames.is_empty() {
                closed(wide_frames, &wide_expected)?;
            }
            let per_open_rep = (spec.open_rate * OPEN_REP_SECONDS).ceil() as usize;
            let (mut primary, mut wide, mut open) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..reps {
                primary.push(closed_rep(
                    &mut clients,
                    primary_frames,
                    primary_expected.as_deref(),
                    tally,
                )?);
                if !wide_frames.is_empty() {
                    wide.push(closed_rep(
                        &mut clients,
                        wide_frames,
                        wide_expected.as_deref(),
                        tally,
                    )?);
                }
                if per_open_rep > 0 {
                    open.push(open_rep(
                        &mut clients,
                        primary_frames,
                        primary_expected.as_deref(),
                        spec.open_rate,
                        per_open_rep,
                        tally,
                    )?);
                }
            }
            let bytes = clients.iter().map(|c| c.bytes_in + c.bytes_out).sum();
            Ok(Sections {
                primary,
                wide,
                open,
                bytes,
            })
        })();
        stop_writer.store(true, Relaxed);
        let log = writer.map(|h| h.join().expect("writer thread panicked"));
        (sections, log)
    });
    let sections = sections?;
    let writer_log: Option<WriterLog> = writer_log.transpose()?;
    let after = layers::Counters::read(engine);
    let ops = (tally.attempted.load(Relaxed) - attempted_before).max(1) as f64;
    if let (Some(a), Some(b)) = (cpu_before, process_cpu_seconds()) {
        m.insert("proc.cpu_s_per_kop".into(), (b - a) / ops * 1e3);
    }
    notes.push(format!(
        "sections: {reps} rounds, {:.2} s wall, {ops} operations",
        sections_began.elapsed().as_secs_f64()
    ));

    closed_metrics("query", &sections.primary, m, notes);
    if !sections.wide.is_empty() {
        closed_metrics("wide", &sections.wide, m, notes);
        let (achieved, target) =
            gen::wide_selectivity_achieved(&loaded.cube.schema, &requests.wide[..spec.wide_len]);
        m.insert("gen.wide_selectivity".into(), achieved);
        m.insert("gen.wide_selectivity_target".into(), target);
    }
    if !sections.open.is_empty() {
        let open = &sections.open;
        if let Some(v) = median_of_reps(open.iter().map(|r| median(&r.lat_us))) {
            m.insert("open_p50_us".into(), v);
        }
        let pooled: Vec<f64> = open.iter().flat_map(|r| r.lat_us.iter().copied()).collect();
        if let Some(v) = tail_quantile(&pooled, 0.99) {
            m.insert("open_p99_us".into(), v);
        }
        let lateness: Vec<f64> = open
            .iter()
            .flat_map(|r| r.lateness_us.iter().copied())
            .collect();
        if let Some(v) = tail_quantile(&lateness, 0.99) {
            m.insert("gen.lateness_p99_us".into(), v);
        }
        notes.push(format!(
            "open: {} repetitions x {} requests at {}/s on {} connection(s), {} samples",
            open.len(),
            open.first().map_or(0, |r| r.lat_us.len()),
            spec.open_rate,
            spec.query_conns,
            pooled.len()
        ));
    }
    if let Some(log) = &writer_log {
        // The writer's samples, cut into as many repetitions as the
        // sections had.
        if let Some(v) = median_of_reps(chunk_medians(&log.ack_us, reps)) {
            m.insert("insert_ack_p50_us".into(), v);
        }
        if let Some(v) = median_of_reps(chunk_medians(&log.lag_us, reps)) {
            m.insert("visible_lag_p50_us".into(), v);
        }
        notes.push(format!(
            "writer: {} inserts of {} record(s) beside the sections",
            log.ack_us.len(),
            log.written / log.ack_us.len().max(1)
        ));
        // The writer's last request was a FLUSH; now the sample.
        for record in &loaded.held[..log.written] {
            oracle.insert(record);
        }
        ask_sample(addr, &mut oracle, requests.sample(), tally)?;
    }
    check_count(addr, oracle.len(), tally)?;
    layers::counter_metrics(&before, &after, sections.bytes, m);

    if opts.trace {
        layers::traced_pass(
            spec,
            opts,
            &loaded,
            &requests,
            read_only.then_some(&mut oracle),
            data_root,
            tally,
            m,
            notes,
        )?;
    }

    let live = oracle.len();
    let data_dir = loaded.data_dir.clone();
    drop(loaded.server.stop());
    if spec.disk_frames.is_some() {
        // The engine is shut down: the shard files are complete on disk.
        let bytes = dir_bytes(&data_dir.join("shards")) as f64;
        m.insert("disk_bytes_per_record".into(), bytes / live as f64);
        m.insert("oocore.file_bytes_per_record".into(), bytes / live as f64);
    }
    Ok(())
}

/// `ingest_durable`: `reps` times on a fresh directory — start the server,
/// stream the records in with deletes and a checkpoint, check the sample,
/// drop the engine, reopen the directory, check the sample again.
fn run_ingest(
    spec: &Spec,
    opts: &Options,
    data_root: &Path,
    tally: &Tally,
    m: &mut Metrics,
    notes: &mut Vec<String>,
) -> io::Result<()> {
    let reps = spec.reps(opts.seconds);
    let t = Instant::now();
    let (cube, held) = Cube::generate(spec.records, spec.held_out(reps));
    let generate_s = t.elapsed().as_secs_f64();
    let requests = Requests::generate(spec, &cube, opts.seed, false);
    let sample_frames = requests.primary_frames();
    // Which records each barrier deletes again is the seed's choice.
    let delete_phase = sub_seed(opts.seed, 5) as usize;

    let cpu_before = process_cpu_seconds();
    // Per repetition.
    let (mut start_to_ack_s, mut ingest_rps, mut ack_p50_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut checkpoint_ms, mut recovery_s) = (Vec::new(), Vec::new());
    // The live records are the same on every repetition, so the oracle and
    // its answers to the sample are built once, after the first load.
    let mut expected: Option<Vec<Expected>> = None;
    let mut live = 0;
    let mut kept: Option<(Server, PathBuf)> = None;
    for rep in 0..reps {
        let data_dir = data_root.join(format!("rep{rep}"));
        let config = spec.engine_config(&data_dir);
        let t0 = Instant::now();
        let server = Server::start(dc_tpcd::cube_schema(), config.clone())?;
        let stats = load(server.addr, &cube.raw, Some(delete_phase), tally)?;
        let first_ack = stats.first_ack.expect("the stream has a first batch");
        start_to_ack_s.push((first_ack - t0).as_secs_f64());
        ingest_rps.push(cube.raw.len() as f64 / stats.wall_s);
        ack_p50_us.push(median(&stats.ack_us));
        checkpoint_ms.push(stats.checkpoint_ms);
        let expected: &[Expected] = expected.get_or_insert_with(|| {
            let deleted: std::collections::HashSet<usize> = stats.deleted.iter().copied().collect();
            let records = (0..cube.records.len())
                .filter(|i| !deleted.contains(i))
                .map(|i| cube.records[i].clone());
            let mut oracle = Oracle::new(cube.schema.clone(), records.collect::<Vec<_>>());
            live = oracle.len();
            requests
                .primary
                .iter()
                .map(|q| oracle.expected(q))
                .collect()
        });
        // Every FLUSH-acknowledged write is there before the crash …
        check_count(server.addr, live, tally)?;
        let mut client = [Client::connect(server.addr)?];
        closed_rep(&mut client, &sample_frames, Some(expected), tally)?;
        drop(client);

        // The engine started this repetition with every counter at zero.
        let counters = layers::Counters::read(&server.engine);
        layers::counter_metrics(&layers::Counters::default(), &counters, stats.bytes, m);
        let d = &server.engine.metrics().durability;
        let appended = d.wal_appends.load(Relaxed).max(1) as f64;
        let wal_dir = data_dir.join("wal");
        let wal_bytes: u64 = std::fs::read_dir(&wal_dir)?
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".log"))
            .filter_map(|e| e.metadata().ok())
            .map(|md| md.len())
            .sum();
        m.insert(
            "durable.wal_bytes_per_record".into(),
            wal_bytes as f64 / appended,
        );
        m.insert(
            "durable.syncs_per_krecord".into(),
            d.wal_syncs.load(Relaxed) as f64 / appended * 1e3,
        );
        m.insert(
            "durable.rotations".into(),
            d.wal_rotations.load(Relaxed) as f64,
        );
        m.insert(
            "disk_bytes_per_record".into(),
            dir_bytes(&wal_dir) as f64 / live as f64,
        );

        // … and after it: drop the engine (writers drain, no checkpoint),
        // reopen the directory, ask again.
        drop(server.stop());
        let t = Instant::now();
        let server = Server::start(dc_tpcd::cube_schema(), config)?;
        check_count(server.addr, live, tally)?;
        let recovered_s = t.elapsed().as_secs_f64();
        recovery_s.push(recovered_s);
        let d = &server.engine.metrics().durability;
        let replayed = d.recovery_replayed_entries.load(Relaxed) as f64;
        m.insert("durable.replayed_entries".into(), replayed);
        m.insert(
            "durable.replay_entries_per_s".into(),
            replayed / recovered_s,
        );
        let mut client = [Client::connect(server.addr)?];
        closed_rep(&mut client, &sample_frames, Some(expected), tally)?;
        if rep == 0 {
            // The peak of one load → crash → recovery cycle; later
            // repetitions add only what the allocator keeps from earlier
            // ones, which varies from run to run.
            if let Some(rss) = process_peak_rss_mib() {
                m.insert("rss_mb".into(), rss);
            }
        }
        if opts.trace && rep + 1 == reps {
            kept = Some((server, data_dir));
        } else {
            drop(server.stop());
            let _ = std::fs::remove_dir_all(&data_dir);
        }
    }

    m.insert(
        "setup_s".into(),
        generate_s + median(&start_to_ack_s).expect("one repetition"),
    );
    let put = |m: &mut Metrics, name: &str, v: Option<f64>| {
        if let Some(v) = v {
            m.insert(name.into(), v);
        }
    };
    if let (Some(a), Some(b)) = (cpu_before, process_cpu_seconds()) {
        let ops = tally.attempted.load(Relaxed).max(1) as f64;
        m.insert("proc.cpu_s_per_kop".into(), (b - a) / ops * 1e3);
    }
    put(m, "ingest_rps", median(&ingest_rps));
    put(m, "insert_ack_p50_us", median_of_reps(ack_p50_us));
    put(m, "durable.checkpoint_ms", median_of_reps(checkpoint_ms));
    put(m, "recovery_s", median(&recovery_s));
    notes.push(format!(
        "ingest: {reps} repetitions x {} records, {live} live; per-repetition records/s {:?}, recovery s {:?}",
        cube.raw.len(),
        ingest_rps.iter().map(|v| v.round()).collect::<Vec<_>>(),
        recovery_s
            .iter()
            .map(|v| (v * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
    ));

    if let Some((server, data_dir)) = kept {
        let loaded = Loaded {
            cube,
            held,
            server,
            data_dir,
        };
        layers::traced_pass(
            spec, opts, &loaded, &requests, None, data_root, tally, m, notes,
        )?;
        drop(loaded.server.stop());
    }
    Ok(())
}
