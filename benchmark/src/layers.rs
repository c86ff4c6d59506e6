//! Per-layer numbers. Counts (**C**) are deltas of the engine's public
//! counters around the wire sections; timings (**T**) come from the traced
//! pass, which replays fixed same-seed slices on one thread through each
//! layer's public functions with spans recorded by the benchmark.

use std::io;
use std::path::Path;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

use dc_durable::{StdFs, WalConfig, WalEntry, WalReader, WalWriter};
use dc_hierarchy::Record;
use dc_replica::{EngineSource, Follower, FollowerConfig};
use dc_serve::codec::{self, DecodeStep};
use dc_serve::protocol::{self, Request};
use dc_serve::{SchemaCatalog, ShardedDcTree, SyncPolicy};
use dc_tree::{DcTree, DcTreeConfig};

use crate::client::{frame, Client};
use crate::gen::{Query, RawRecord, ROLLUP_CLASSES};
use crate::harness::{Server, Tally};
use crate::oracle::Oracle;
use crate::run::{dir_bytes, Loaded, Metrics, Options, Requests};
use crate::spec::{Family, Spec, BARRIER_EVERY, LOAD_BATCH, SAMPLE_CHECK, TRACED_INGEST_RECORDS};
use crate::stats::{median, us};
use crate::trace::{shadow_tree, traced_execute, Recorder, TraceTarget};

/// The engine counters the per-layer metrics are deltas of.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    queries: u64,
    shard_visits: u64,
    inserts: u64,
    cache_hits: u64,
    cache_semantic_hits: u64,
    cache_misses: u64,
    cache_patches: u64,
    cache_invalidations: u64,
    cache_lookup_n: u64,
    cache_lookup_ns: f64,
    pool_tasks: u64,
    pool_steals: u64,
    pool_task_n: u64,
    pool_task_ns: f64,
    plans: u64,
    chose: [u64; 4],
    mispredictions: u64,
    net_requests: u64,
    net_shed: u64,
    bp_hits: u64,
    bp_misses: u64,
    bp_evictions: u64,
    bp_writebacks: u64,
}

impl Counters {
    pub fn read(engine: &ShardedDcTree) -> Counters {
        // Serializing STATS is what refreshes the buffer-pool gauges.
        let _ = engine.stats_json();
        let m = engine.metrics();
        let total_ns =
            |h: &dc_serve::LatencyHistogram| h.mean().as_nanos() as f64 * h.count() as f64;
        Counters {
            queries: m.queries.load(Relaxed),
            shard_visits: m.shard_visits.load(Relaxed),
            inserts: m.inserts.load(Relaxed),
            cache_hits: m.cache.hits.load(Relaxed),
            cache_semantic_hits: m.cache.semantic_hits.load(Relaxed),
            cache_misses: m.cache.misses.load(Relaxed),
            cache_patches: m.cache.patches.load(Relaxed),
            cache_invalidations: m.cache.invalidations.load(Relaxed),
            cache_lookup_n: m.cache.lookup_latency.count(),
            cache_lookup_ns: total_ns(&m.cache.lookup_latency),
            pool_tasks: m.pool.tasks.load(Relaxed) + m.pool.inline_tasks.load(Relaxed),
            pool_steals: m.pool.steals.load(Relaxed),
            pool_task_n: m.pool.task_latency.count(),
            pool_task_ns: total_ns(&m.pool.task_latency),
            plans: m.plan.plans.load(Relaxed),
            chose: [
                m.plan.chose_descend.load(Relaxed),
                m.plan.chose_bitmap.load(Relaxed),
                m.plan.chose_mview.load(Relaxed),
                m.plan.chose_scan.load(Relaxed),
            ],
            mispredictions: m.plan.mispredictions.load(Relaxed),
            net_requests: m.net.requests_total.load(Relaxed),
            net_shed: m.net.shed_total.load(Relaxed),
            bp_hits: m.buffer_pool.hits.load(Relaxed),
            bp_misses: m.buffer_pool.misses.load(Relaxed),
            bp_evictions: m.buffer_pool.evictions.load(Relaxed),
            bp_writebacks: m.buffer_pool.writebacks.load(Relaxed),
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The count metrics of the wire sections between `a` and `b`.
/// `client_bytes` is what the query connections sent and received.
pub fn counter_metrics(a: &Counters, b: &Counters, client_bytes: u64, m: &mut Metrics) {
    let d = |x: u64, y: u64| (y - x) as f64;
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };
    let queries = d(a.queries, b.queries);
    put(
        "engine.shards_per_query",
        ratio(d(a.shard_visits, b.shard_visits), queries),
    );
    put(
        "pool.tasks_per_query",
        ratio(d(a.pool_tasks, b.pool_tasks), queries),
    );
    put("pool.steals", d(a.pool_steals, b.pool_steals));
    put(
        "pool.task_us",
        ratio(
            b.pool_task_ns - a.pool_task_ns,
            d(a.pool_task_n, b.pool_task_n),
        ) / 1e3,
    );
    let lookups = d(a.cache_hits, b.cache_hits)
        + d(a.cache_semantic_hits, b.cache_semantic_hits)
        + d(a.cache_misses, b.cache_misses);
    put(
        "cache.hit_rate",
        ratio(d(a.cache_hits, b.cache_hits), lookups),
    );
    put(
        "cache.semantic_hit_rate",
        ratio(d(a.cache_semantic_hits, b.cache_semantic_hits), lookups),
    );
    put(
        "cache.patches_per_insert",
        ratio(d(a.cache_patches, b.cache_patches), d(a.inserts, b.inserts)),
    );
    put(
        "cache.invalidations",
        d(a.cache_invalidations, b.cache_invalidations),
    );
    put(
        "cache.lookup_us",
        ratio(
            b.cache_lookup_ns - a.cache_lookup_ns,
            d(a.cache_lookup_n, b.cache_lookup_n),
        ) / 1e3,
    );
    for (i, name) in ["descend", "bitmap", "mview", "scan"].iter().enumerate() {
        put(&format!("plan.chose_{name}"), d(a.chose[i], b.chose[i]));
    }
    put(
        "plan.misprediction_rate",
        ratio(d(a.mispredictions, b.mispredictions), d(a.plans, b.plans)),
    );
    put("admission.shed", d(a.net_shed, b.net_shed));
    put(
        "reactor.bytes_per_request",
        ratio(client_bytes as f64, d(a.net_requests, b.net_requests)),
    );
    let touches = d(a.bp_hits, b.bp_hits) + d(a.bp_misses, b.bp_misses);
    put(
        "oocore.pool_hit_rate",
        ratio(d(a.bp_hits, b.bp_hits), touches),
    );
    put("oocore.page_touches_per_query", ratio(touches, queries));
    put("oocore.evictions", d(a.bp_evictions, b.bp_evictions));
    put("oocore.writebacks", d(a.bp_writebacks, b.bp_writebacks));
}

/// Means of one replayed slice, µs per request.
struct SliceTimes {
    wire: f64,
    /// `decode_request` + `protocol::execute` + `encode_response`, in
    /// process, spans off.
    inproc: f64,
    decode: f64,
    execute: f64,
    encode: f64,
    /// Request ids the traced replay of this slice used.
    reqs: std::ops::Range<u64>,
    request_bytes: f64,
}

/// Running totals of the passes that are timed without spans: the wire
/// round trips and the in-process `decode_request` → `protocol::execute` →
/// `encode_response` of the same frames.
#[derive(Default)]
struct Untraced {
    wire_us: f64,
    decode_us: f64,
    execute_us: f64,
    encode_us: f64,
    requests: usize,
    request_bytes: usize,
    out: Vec<u8>,
}

impl Untraced {
    fn wire(&mut self, client: &mut Client, f: &[u8], tally: &Tally) -> io::Result<()> {
        let (r, d) = client.call(f)?;
        tally.check("traced wire", r.is_ok(), &r.line, None);
        self.wire_us += us(d);
        self.requests += 1;
        self.request_bytes += f.len();
        Ok(())
    }

    fn in_process(&mut self, engine: &ShardedDcTree, f: &[u8], tally: &Tally) -> io::Result<()> {
        let t0 = Instant::now();
        let DecodeStep::Frame {
            request: Ok(request),
            ..
        } = codec::decode_request(f)
        else {
            return Err(io::Error::other("the codec rejected a generated frame"));
        };
        let t1 = Instant::now();
        let (line, _) = protocol::execute(engine, &request);
        let t2 = Instant::now();
        self.out.clear();
        codec::encode_response(&line, &mut self.out);
        let t3 = Instant::now();
        self.decode_us += us(t1 - t0);
        self.execute_us += us(t2 - t1);
        self.encode_us += us(t3 - t2);
        tally.check("in-process", line.starts_with("OK"), &line, None);
        Ok(())
    }

    fn means(self, reqs: std::ops::Range<u64>) -> SliceTimes {
        let n = self.requests.max(1) as f64;
        SliceTimes {
            wire: self.wire_us / n,
            inproc: (self.decode_us + self.execute_us + self.encode_us) / n,
            decode: self.decode_us / n,
            execute: self.execute_us / n,
            encode: self.encode_us / n,
            reqs,
            request_bytes: self.request_bytes as f64 / n,
        }
    }
}

/// Requests per block of [`replay_slice`].
const REPLAY_BLOCK: usize = 50;

/// The requests of one replayed slice. A cache-on engine would answer a
/// statement's second execution from its cache, so there the mirror takes
/// the second half of the slice and the direct passes the first; otherwise
/// all three passes take the whole slice.
struct Slice<'a> {
    direct: &'a [Vec<u8>],
    mirror: &'a [Vec<u8>],
    /// The statement behind each `mirror` frame.
    mirror_queries: Vec<&'a Query>,
    /// Descend the shard snapshots for every mirrored statement afterwards.
    shadows: bool,
}

impl<'a> Slice<'a> {
    fn new(frames: &'a [Vec<u8>], queries: Vec<&'a Query>, cache_on: bool, shadows: bool) -> Self {
        let half = if cache_on { frames.len() / 2 } else { 0 };
        Slice {
            direct: if cache_on { &frames[..half] } else { frames },
            mirror: &frames[half..],
            mirror_queries: queries[half..].to_vec(),
            shadows,
        }
    }
}

/// Replays a slice three ways: over the wire on one idle connection, in
/// process through the real `protocol::execute`, and in process through the
/// span-recording mirror (followed by the tree shadows). The three take
/// turns in blocks of 50 requests, so a slow spell of the host slows all
/// three alike and their differences (`reactor.overhead_us`,
/// `trace.overhead_pct`) stay meaningful. With an `oracle` every mirrored
/// answer is checked against it, else only for `OK`.
fn replay_slice(
    target: &TraceTarget<'_>,
    client: &mut Client,
    slice: &Slice<'_>,
    mut oracle: Option<&mut Oracle>,
    rec: &mut Recorder,
    tally: &Tally,
) -> io::Result<SliceTimes> {
    let mut untraced = Untraced::default();
    let mut out = Vec::new();
    let mut mirrored = Vec::with_capacity(slice.mirror.len());
    let mirror_blocks = slice
        .mirror
        .chunks(REPLAY_BLOCK)
        .zip(slice.mirror_queries.chunks(REPLAY_BLOCK));
    for (block, (mirror_block, queries)) in slice.direct.chunks(REPLAY_BLOCK).zip(mirror_blocks) {
        for f in block {
            untraced.wire(client, f, tally)?;
        }
        for f in block {
            untraced.in_process(target.engine, f, tally)?;
        }
        for (f, q) in mirror_block.iter().zip(queries) {
            let req = rec.next_request();
            let (line, stmt) = traced_execute(target, f, req, rec, &mut out);
            let want = oracle.as_deref_mut().map(|o| o.expected(q));
            tally.check("mirror", line.starts_with("OK"), &line, want.as_ref());
            mirrored.push((req, stmt));
        }
    }
    if slice.shadows {
        for (req, stmt) in &mirrored {
            if let Some(stmt) = stmt {
                shadow_tree(target, stmt, *req, rec);
            }
        }
    }
    let reqs = match (mirrored.first(), mirrored.last()) {
        (Some((first, _)), Some((last, _))) => *first..*last + 1,
        _ => 0..0,
    };
    Ok(untraced.means(reqs))
}

/// The per-layer timings of one replayed slice, under `suffix`.
fn slice_metrics(suffix: &str, t: &SliceTimes, rec: &Recorder, m: &mut Metrics) {
    let mut put = |name: &str, v: f64| {
        m.insert(format!("{name}{suffix}"), v);
    };
    put("codec.decode_us", t.decode);
    put("codec.encode_us", t.encode);
    put("codec.request_bytes", t.request_bytes);
    put("ql.parse_us", rec.mean_us("ql.parse", &t.reqs).0);
    put("ql.resolve_us", rec.mean_us("ql.resolve", &t.reqs).0);
    put("protocol.execute_us", t.execute);
    // The protocol module's renderer is private; this is the mirror's own
    // (`trace::render_output`), checked to produce the same line.
    put(
        "protocol.render_us",
        rec.mean_us("protocol.render", &t.reqs).0,
    );
    put(
        "engine.execute_us",
        rec.mean_us("engine.execute", &t.reqs).0,
    );
}

/// What the front-end and the tracer themselves cost on the workload's
/// main slice: wire against in-process, mirror against in-process, and the
/// share of the wire round trip no span covers.
fn overhead_metrics(t: &SliceTimes, rec: &Recorder, m: &mut Metrics) {
    let request_span = rec.mean_us("request", &t.reqs).0;
    m.insert("reactor.overhead_us".into(), (t.wire - t.inproc).max(0.0));
    m.insert(
        "trace.overhead_pct".into(),
        (request_span - t.inproc) / t.inproc.max(1e-9) * 100.0,
    );
    m.insert(
        "trace.unaccounted_pct".into(),
        (t.wire - request_span).max(0.0) / t.wire.max(1e-9) * 100.0,
    );
}

/// The write path, layer by layer, each layer fed the same `records` in the
/// same `INSERT_BATCH(512)` groups with a `FLUSH` every 8.
///
/// First three engines of the workload's own configuration, on fresh
/// directories, take the stream in turns, a barrier's worth at a time: one
/// over the wire, one in process through the real `protocol::execute`, one
/// through the span-recording mirror — the returned times. Then, each
/// alone: the engine with the WAL off, the catalog intern, the bare tree,
/// and a bare WAL writer.
fn ingest_layers(
    spec: &Spec,
    records: &[RawRecord],
    scratch: &Path,
    rec: &mut Recorder,
    tally: &Tally,
    m: &mut Metrics,
) -> io::Result<SliceTimes> {
    let err = |e: dc_common::DcError| io::Error::other(e.to_string());
    let n = records.len() as f64;
    let batches: Vec<&[RawRecord]> = records.chunks(LOAD_BATCH).collect();
    let frames: Vec<Vec<u8>> = batches
        .iter()
        .map(|batch| {
            frame(&Request::InsertBatch {
                records: batch.to_vec(),
            })
        })
        .collect();
    let flush = frame(&Request::Flush);

    let fresh = |dir: &str| {
        ShardedDcTree::new(
            dc_tpcd::cube_schema(),
            spec.engine_config(&scratch.join(dir)),
        )
        .map_err(err)
    };
    let wire = Server::start(
        dc_tpcd::cube_schema(),
        spec.engine_config(&scratch.join("wire-ingest")),
    )?;
    let mut client = Client::connect(wire.addr)?;
    let direct = fresh("direct-ingest")?;
    let mirror = fresh("traced-ingest")?;
    let target = TraceTarget {
        engine: &mirror,
        paper_containment: false,
    };
    let mut untraced = Untraced::default();
    let mut out = Vec::new();
    let first = rec.next_request();
    for block in frames.chunks(BARRIER_EVERY) {
        let with_barrier = || block.iter().chain(std::iter::once(&flush));
        for f in with_barrier() {
            untraced.wire(&mut client, f, tally)?;
        }
        for f in with_barrier() {
            untraced.in_process(&direct, f, tally)?;
        }
        for f in with_barrier() {
            let req = rec.next_request();
            let (line, _) = traced_execute(&target, f, req, rec, &mut out);
            tally.check("mirror", line.starts_with("OK"), &line, None);
        }
    }
    let reqs = first..rec.next_request();
    m.insert(
        "engine.insert_batch_us_per_record".into(),
        rec.total_us("engine.insert_batch_raw", &reqs) / n,
    );
    drop(client);
    drop(wire.stop());
    drop(direct);
    drop(mirror);

    // In-process batches + flush(), WAL off.
    let no_wal = Spec {
        durable: false,
        ..spec.clone()
    };
    let config = no_wal.engine_config(&scratch.join("no-wal-ingest"));
    let engine = ShardedDcTree::new(dc_tpcd::cube_schema(), config).map_err(err)?;
    let t = Instant::now();
    for (i, batch) in batches.iter().enumerate() {
        engine.insert_batch_raw(batch).map_err(err)?;
        if (i + 1) % BARRIER_EVERY == 0 {
            engine.flush();
        }
    }
    engine.flush();
    m.insert("engine.ingest_us_per_record".into(), us(t.elapsed()) / n);
    drop(engine);

    // `SchemaCatalog::intern` over the stream.
    let catalog = SchemaCatalog::new(dc_tpcd::cube_schema());
    let t = Instant::now();
    for (paths, measure) in records {
        catalog.intern(paths, *measure).map_err(err)?;
    }
    m.insert("hierarchy.intern_us_per_record".into(), us(t.elapsed()) / n);

    // Bare `DcTree::insert_batch`, same records, same batch size; only the
    // tree calls are timed (interning was the previous layer).
    let mut tree = DcTree::new(dc_tpcd::cube_schema(), DcTreeConfig::default());
    let mut tree_us = 0.0;
    for batch in &batches {
        let mut interned = Vec::with_capacity(batch.len());
        for (paths, measure) in batch.iter() {
            interned.push(Record::new(
                tree.intern_paths(paths).map_err(err)?,
                *measure,
            ));
        }
        let t = Instant::now();
        tree.insert_batch(interned).map_err(err)?;
        tree_us += us(t.elapsed());
    }
    m.insert("tree.insert_batch_us_per_record".into(), tree_us / n);

    // A benchmark-owned WAL writer under the workload's sync policy.
    if spec.durable {
        let dir = scratch.join("bare-wal");
        let fs = Arc::new(StdFs);
        std::fs::create_dir_all(&dir)?;
        let recovered = WalReader::recover(&*fs, &dir).map_err(err)?;
        let wal_config = WalConfig {
            sync: SyncPolicy::GroupCommitMs(5),
            ..WalConfig::default()
        };
        let mut wal = WalWriter::open(fs, &dir, wal_config, &recovered, 1).map_err(err)?;
        let mut wal_us = 0.0;
        for batch in &batches {
            let entries: Vec<WalEntry> = batch
                .iter()
                .map(|(paths, measure)| WalEntry::Insert {
                    paths: paths.clone(),
                    measure: *measure,
                })
                .collect();
            let t = Instant::now();
            wal.append_batch(&entries).map_err(err)?;
            wal_us += us(t.elapsed());
        }
        let t = Instant::now();
        wal.sync().map_err(err)?;
        wal_us += us(t.elapsed());
        m.insert("durable.append_us_per_record".into(), wal_us / n);
    }
    Ok(untraced.means(reqs))
}

/// The query slices of the traced pass: the workload's primary list and,
/// where it has one, its wide list, each replayed three ways, plus the tree
/// shadows and what is derived from them.
#[allow(clippy::too_many_arguments)]
fn query_layers(
    spec: &Spec,
    target: &TraceTarget<'_>,
    client: &mut Client,
    requests: &Requests,
    mut oracle: Option<&mut Oracle>,
    rec: &mut Recorder,
    tally: &Tally,
    m: &mut Metrics,
    notes: &mut Vec<String>,
) -> io::Result<()> {
    let engine = target.engine;
    let resident = spec.disk_frames.is_none();
    let primary = requests.primary_frames();
    let len = primary.len();
    let order = &requests.primary_order;
    let queries = order.iter().map(|&i| &requests.primary[i]).collect();
    let slice = Slice::new(&primary, queries, spec.cache, resident);
    let mirror_at = len - slice.mirror.len();
    let t = replay_slice(target, client, &slice, oracle.as_deref_mut(), rec, tally)?;
    slice_metrics("", &t, rec, m);
    overhead_metrics(&t, rec, m);
    // Shards descend in parallel on the query pool, so what a query waits
    // for is its slowest shard, not their sum.
    let mut slowest_shard_ns: std::collections::HashMap<u64, u64> =
        std::collections::HashMap::new();
    for s in rec.spans.iter().filter(|s| {
        t.reqs.contains(&s.req) && (s.name == "tree.descend" || s.name == "tree.group_by")
    }) {
        let slot = slowest_shard_ns.entry(s.req).or_default();
        *slot = (*slot).max(s.duration_ns());
    }
    let slowest_us =
        slowest_shard_ns.values().sum::<u64>() as f64 / 1e3 / slowest_shard_ns.len().max(1) as f64;
    m.insert(
        "tree.prepare_us".into(),
        rec.mean_us("tree.prepare", &t.reqs).0,
    );
    // Per shard visit.
    m.insert(
        "tree.descend_us".into(),
        rec.mean_us("tree.descend", &t.reqs).0,
    );
    m.insert(
        "tree.group_by_us".into(),
        rec.mean_us("tree.group_by", &t.reqs).0,
    );
    m.insert(
        "tree.pages_per_query".into(),
        rec.shadow_pages as f64 / rec.shadow_queries.max(1) as f64,
    );
    if resident {
        m.insert(
            "engine.scatter_overhead_us".into(),
            (rec.mean_us("engine.execute", &t.reqs).0 - slowest_us).max(0.0),
        );
    } else {
        m.insert(
            "oocore.execute_us".into(),
            rec.mean_us("engine.execute", &t.reqs).0,
        );
    }
    if spec.primary == Family::Rollups {
        // Template `i` is of class `i % 4`; split the engine time by it.
        let mut per_class = [(0.0f64, 0usize); 4];
        for s in rec
            .spans
            .iter()
            .filter(|s| s.name == "engine.execute" && t.reqs.contains(&s.req))
        {
            let template = order[mirror_at + (s.req - t.reqs.start) as usize];
            per_class[template % 4].0 += s.duration_ns() as f64 / 1e3;
            per_class[template % 4].1 += 1;
        }
        for (class, (total, n)) in ROLLUP_CLASSES.iter().zip(per_class) {
            m.insert(
                format!("engine.execute_us.{class}"),
                total / n.max(1) as f64,
            );
        }
        notes.push(format!("traced classes: {per_class:?}"));
    }
    m.insert(
        "ql.in_list_len".into(),
        requests
            .primary
            .iter()
            .map(|q| q.in_list_len())
            .sum::<usize>() as f64
            / requests.primary.len().max(1) as f64,
    );
    let mut mirrored = format!("{} primary", t.reqs.end - t.reqs.start);

    if !requests.wide.is_empty() {
        let wide = requests.wide_frames();
        let slice = Slice::new(&wide, requests.wide.iter().collect(), spec.cache, false);
        let tw = replay_slice(target, client, &slice, oracle, rec, tally)?;
        slice_metrics(".wide", &tw, rec, m);
        m.insert(
            "ql.in_list_len.wide".into(),
            requests.wide.iter().map(|q| q.in_list_len()).sum::<usize>() as f64
                / requests.wide.len() as f64,
        );
        mirrored += &format!(" + {} wide", tw.reqs.end - tw.reqs.start);
    }
    notes.push(format!("traced: {mirrored} requests mirrored"));

    // Estimated over measured pages, EXPLAINed on a sample.
    if spec.planner {
        let mut ratios = Vec::new();
        for q in requests.primary.iter().take(SAMPLE_CHECK) {
            let stmt =
                dc_ql::parse_statement(&q.text).map_err(|e| io::Error::other(e.to_string()))?;
            let resolved = engine
                .with_schema(|s| dc_ql::resolve(s, stmt.body()))
                .map_err(|e| io::Error::other(e.to_string()))?;
            if let Ok((_, explain)) = engine.explain(&resolved) {
                ratios.push(explain.est_pages.max(1.0) / (explain.actual_pages as f64).max(1.0));
            }
        }
        m.insert(
            "plan.est_over_actual_pages_p50".into(),
            median(&ratios).unwrap_or(0.0),
        );
    }
    Ok(())
}

/// The traced pass of one workload. `oracle` is present when the workload
/// is read-only, and then every mirrored answer is checked against it.
#[allow(clippy::too_many_arguments)]
pub fn traced_pass(
    spec: &Spec,
    opts: &Options,
    loaded: &Loaded,
    requests: &Requests,
    oracle: Option<&mut Oracle>,
    data_root: &Path,
    tally: &Tally,
    m: &mut Metrics,
    notes: &mut Vec<String>,
) -> io::Result<()> {
    let engine: &ShardedDcTree = &loaded.server.engine;
    let target = TraceTarget {
        engine,
        paper_containment: DcTreeConfig::default().use_paper_fig7_containment,
    };
    let mut rec = Recorder::new();
    let mut client = Client::connect(loaded.server.addr)?;

    // PING on an idle connection.
    let ping = frame(&Request::Ping);
    let mut pings = Vec::with_capacity(500);
    for _ in 0..500 {
        let (r, d) = client.call(&ping)?;
        tally.check("PING", r.is_ok(), &r.line, None);
        pings.push(us(d));
    }
    m.insert(
        "reactor.ping_rtt_p50_us".into(),
        median(&pings).unwrap_or(0.0),
    );

    // Reads do nothing in the ingest workload; its main slice is the
    // stream itself, below.
    if !spec.durable {
        query_layers(
            spec,
            &target,
            &mut client,
            requests,
            oracle,
            &mut rec,
            tally,
            m,
            notes,
        )?;
    }
    if spec.disk_frames.is_none() {
        let (mut nodes, mut height) = (0usize, 0usize);
        for shard in 0..engine.num_shards() {
            let tree = engine.shard_snapshot(shard);
            nodes += tree.num_nodes();
            height = height.max(tree.height());
        }
        m.insert("tree.nodes".into(), nodes as f64);
        m.insert("tree.height".into(), height as f64);
    } else {
        let pages = dir_bytes(&loaded.data_dir.join("shards")) as f64
            / dc_storage::BlockConfig::DEFAULT.block_size as f64;
        m.insert(
            "oocore.shard_pages".into(),
            pages / engine.num_shards() as f64,
        );
        m.insert(
            "oocore.pool_frames".into(),
            spec.disk_frames.unwrap_or(0) as f64,
        );
    }

    // FLUSH after one trickle insert, on the loaded cube (the writer took
    // held-out records from the front; these come from the back).
    let mut flushes = Vec::new();
    for (paths, measure) in loaded.held.iter().rev().take(15) {
        if engine.insert_raw(paths, *measure).is_err() {
            break;
        }
        let t = Instant::now();
        engine.flush();
        flushes.push(us(t.elapsed()));
    }
    m.insert("engine.flush_us".into(), median(&flushes).unwrap_or(0.0));

    // The write path, layer by layer, over the head of the load stream:
    // 50 000 records for the ingest workload, 32 batches elsewhere.
    let scratch = data_root.join("layers");
    std::fs::create_dir_all(&scratch)?;
    let head = if spec.durable {
        TRACED_INGEST_RECORDS
    } else {
        32 * LOAD_BATCH
    };
    let head = &loaded.cube.raw[..loaded.cube.raw.len().min(head)];
    let stream = ingest_layers(spec, head, &scratch, &mut rec, tally, m)?;
    if spec.durable {
        slice_metrics("", &stream, &rec, m);
        overhead_metrics(&stream, &rec, m);
        notes.push(format!(
            "traced: {} stream requests mirrored",
            stream.reqs.end - stream.reqs.start
        ));
    }

    // Replication: bootstrap a follower from the primary, catch up, promote.
    if spec.durable {
        let err = |e: dc_common::DcError| io::Error::other(e.to_string());
        let config = FollowerConfig {
            engine: spec.engine_config(&scratch.join("unused")),
            ..FollowerConfig::new(scratch.join("follower"))
        };
        let source = EngineSource(Arc::clone(&loaded.server.engine));
        let follower = Follower::bootstrap(source, dc_tpcd::cube_schema(), config).map_err(err)?;
        let from = follower.applied_lsn();
        let t = Instant::now();
        let to = follower.catch_up().map_err(err)?;
        let catch_up_s = t.elapsed().as_secs_f64();
        m.insert(
            "replica.catchup_entries_per_s".into(),
            (to - from) as f64 / catch_up_s.max(1e-9),
        );
        let t = Instant::now();
        let promoted = follower.promote().map_err(err)?;
        m.insert("replica.promote_ms".into(), us(t.elapsed()) / 1e3);
        tally.note(if promoted.len() == engine.len() {
            Ok(())
        } else {
            Err(format!(
                "promoted follower holds {} records, primary {}",
                promoted.len(),
                engine.len()
            ))
        });
        promoted.shutdown();
    }

    let path = opts.out_dir.join(format!("trace-{}.jsonl", spec.name));
    rec.write_jsonl(&path)?;
    notes.push(format!(
        "{} spans written to {}",
        rec.spans.len(),
        path.display()
    ));
    Ok(())
}
