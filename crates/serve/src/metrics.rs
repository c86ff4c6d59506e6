//! Engine observability: lock-free counters, per-shard gauges, and
//! log-scaled latency histograms, rendered as one JSON object for the
//! `STATS` verb.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dc_plan::Backend;
use parking_lot::Mutex;

/// A log₂-bucketed latency histogram. Bucket `i` holds samples whose
/// nanosecond count has its highest set bit at position `i`, so the range
/// covers 1 ns .. ~584 years in 64 buckets with bounded (< 2×) relative
/// error on reported percentiles — plenty for serving-latency telemetry.
pub struct LatencyHistogram {
    buckets: [AtomicU64; 64],
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, d: Duration) {
        let nanos = d.as_nanos().min(u128::from(u64::MAX)) as u64;
        let bucket = 63 - nanos.max(1).leading_zeros() as usize;
        self.buckets[bucket].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum_nanos.fetch_add(nanos, Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Mean latency, or zero when empty.
    pub fn mean(&self) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.sum_nanos.load(Relaxed) / n)
    }

    /// The latency at quantile `q` in `[0, 1]` (upper bucket bound), or
    /// zero when empty.
    pub fn quantile(&self, q: f64) -> Duration {
        let total = self.count();
        if total == 0 {
            return Duration::ZERO;
        }
        let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Relaxed);
            if seen >= rank {
                // Upper bound of bucket i: 2^(i+1) - 1 nanos.
                let bound = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return Duration::from_nanos(bound);
            }
        }
        Duration::from_nanos(u64::MAX)
    }
}

/// Per-shard gauges, updated by that shard's writer thread (and the ingest
/// path for queue depth).
#[derive(Default)]
pub struct ShardMetrics {
    /// Commands currently queued and not yet applied.
    pub queue_depth: AtomicU64,
    /// Records applied (inserts + deletes) since start.
    pub applied: AtomicU64,
    /// Records in the published snapshot.
    pub snapshot_records: AtomicU64,
    /// Nanoseconds since engine start at which the current snapshot was
    /// published (0 = never).
    pub snapshot_published_at: AtomicU64,
    /// Snapshots the shard's writer has published since start.
    pub publishes: AtomicU64,
    /// Logical page reads of the shard's writer tree since start, as of
    /// the last publish ([`DcTree::io_stats`](dc_tree::DcTree::io_stats);
    /// the same blocks in either storage mode — a disk shard's pool
    /// touches are in the `buffer_pool` block).
    pub io_reads: AtomicU64,
    /// Logical page writes of the shard's writer tree since start, as of
    /// the last publish.
    pub io_writes: AtomicU64,
}

/// Aggregate-cache observability (`dc-cache`), updated by the query path
/// (lookups, insertions) and the shard writers (delta maintenance).
#[derive(Default)]
pub struct CacheMetrics {
    /// Exact cache hits (query answered without touching any shard).
    pub hits: AtomicU64,
    /// Semantic hits (a contained entry answered part of the query; only
    /// the remainder descended the tree).
    pub semantic_hits: AtomicU64,
    /// Lookups that found nothing usable.
    pub misses: AtomicU64,
    /// Entries patched in place by write-through delta maintenance.
    pub patches: AtomicU64,
    /// Entries whose MIN/MAX were degraded (or that were dropped) because a
    /// delete touched an extremum.
    pub invalidations: AtomicU64,
    /// Summaries inserted after a miss or semantic hit.
    pub insertions: AtomicU64,
    /// Entries evicted by the cost-aware policy.
    pub evictions: AtomicU64,
    /// Resident entries (gauge; updated on insertion).
    pub entries: AtomicU64,
    /// Time spent inside cache lookups (lock + probe + containment scan).
    pub lookup_latency: LatencyHistogram,
}

/// Query-pool observability: the persistent work-stealing executor behind
/// scatter-gather queries. All zero when the engine runs no pool
/// (`pool_workers: Some(0)`, a one-core host under the default, or a
/// single shard).
#[derive(Default)]
pub struct PoolMetrics {
    /// Configured worker threads (gauge; 0 = pool disabled, queries run on
    /// the calling thread).
    pub workers: AtomicU64,
    /// Per-shard tasks currently waiting in the injector queue (gauge).
    pub queued_tasks: AtomicU64,
    /// Workers currently executing a task (gauge).
    pub busy_workers: AtomicU64,
    /// Tasks executed by pool workers since start (counted as a worker
    /// claims one, so every task of a query that returned is counted).
    pub tasks: AtomicU64,
    /// Tasks executed inline by the submitting thread (it participates
    /// instead of idling while its query's tasks are queued).
    pub inline_tasks: AtomicU64,
    /// Tasks a worker claimed outside its shard affinity.
    pub steals: AtomicU64,
    /// Wall-clock time of one per-shard task (claim to completion).
    pub task_latency: LatencyHistogram,
}

/// Cost-based planner observability (`dc-plan`): how often each backend
/// wins and how well the page-read estimates track measured cost. Updated
/// by the planned-query path ([`crate::ShardedDcTree::execute`] /
/// `explain`). The STATS `chose` object has one key per [`Backend`].
#[derive(Default)]
pub struct PlanMetrics {
    /// Statements routed through the planner.
    pub plans: AtomicU64,
    /// `EXPLAIN` statements among them.
    pub explains: AtomicU64,
    /// Queries whose (dominant) chosen backend was DC-tree descent.
    pub chose_descend: AtomicU64,
    /// Always 0: the bitmap index is no longer a plan backend. Kept for
    /// readers that still load it (the wire benchmark's `plan.chose_bitmap`).
    pub chose_bitmap: AtomicU64,
    /// … a materialized roll-up view.
    pub chose_mview: AtomicU64,
    /// Always 0: the sequential scan is no longer a plan backend. Kept for
    /// readers that still load it (the wire benchmark's `plan.chose_scan`).
    pub chose_scan: AtomicU64,
    /// Planned queries whose measured page reads missed the estimate by
    /// more than 2× in either direction.
    pub mispredictions: AtomicU64,
    /// Total estimated page reads over planned (non-delegated) queries.
    pub est_pages: AtomicU64,
    /// Total measured page reads over the same queries.
    pub actual_pages: AtomicU64,
}

impl PlanMetrics {
    /// The `chose_*` counter for `backend`.
    pub fn chosen(&self, backend: Backend) -> &AtomicU64 {
        match backend {
            Backend::Descend => &self.chose_descend,
            Backend::Mview => &self.chose_mview,
        }
    }
}

/// Buffer-pool observability (`dc-oocore`): aggregated over every shard's
/// pool when the engine runs disk-backed ([`StorageMode::Disk`]
/// (crate::StorageMode::Disk)). All zero — and the STATS section absent —
/// in RAM-resident mode. Refreshed from the pools by
/// [`crate::ShardedDcTree::stats_json`] and at each snapshot publish.
#[derive(Default)]
pub struct BufferPoolMetrics {
    /// `1` once the engine runs disk-backed (gates the STATS section).
    pub enabled: AtomicU64,
    /// Page touches served from a resident frame.
    pub hits: AtomicU64,
    /// Page touches that went to disk.
    pub misses: AtomicU64,
    /// Frames dropped to make room.
    pub evictions: AtomicU64,
    /// Dirty frames written back (on eviction or flush).
    pub writebacks: AtomicU64,
    /// Frames currently resident, summed over shards (gauge).
    pub resident: AtomicU64,
    /// Total frame budget, summed over shards (gauge).
    pub capacity: AtomicU64,
    /// Nodes decoded from their pages.
    pub node_decodes: AtomicU64,
    /// Nodes encoded into their pages.
    pub node_encodes: AtomicU64,
    /// Node accesses served from a store's decoded write-back set (they
    /// touch no page, so `hits`/`misses` do not see them).
    pub decoded_hits: AtomicU64,
    /// Nodes currently held decoded, summed over shards (gauge).
    pub decoded_nodes: AtomicU64,
}

/// A log₂-bucketed histogram over dimensionless counts (pipeline depths),
/// reusing [`LatencyHistogram`]'s bucket machinery with 1 "nano" = 1 unit.
#[derive(Default)]
pub struct DepthHistogram {
    inner: LatencyHistogram,
}

impl DepthHistogram {
    /// Records one observation (clamped up to 1 so depth 0 still lands in
    /// the first bucket).
    pub fn record(&self, depth: u64) {
        self.inner.record(Duration::from_nanos(depth.max(1)));
    }

    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    pub fn mean(&self) -> f64 {
        self.inner.mean().as_nanos() as f64
    }

    /// Upper bucket bound at quantile `q`, as a plain count.
    pub fn quantile(&self, q: f64) -> u64 {
        self.inner.quantile(q).as_nanos().min(u128::from(u64::MAX)) as u64
    }
}

/// Per-tenant admission counters (see [`NetMetrics::tenant`]).
#[derive(Default)]
pub struct TenantNetMetrics {
    /// Requests this tenant got past admission control.
    pub admitted: AtomicU64,
    /// Requests answered `BUSY` for this tenant.
    pub denied: AtomicU64,
}

/// Network front-end observability: connection and byte counters, the
/// pipelining depth distribution, load-shedding counts, and per-tenant
/// admit/deny tallies. All zero — and the STATS section absent — until the
/// network front-end ([`crate::serve_reactor`]) registers itself by setting
/// `enabled`.
#[derive(Default)]
pub struct NetMetrics {
    /// `1` once a network front-end serves this engine (gates the STATS
    /// section).
    pub enabled: AtomicU64,
    /// Currently open connections (gauge).
    pub active_connections: AtomicU64,
    /// Connections accepted since start.
    pub accepted_total: AtomicU64,
    /// Requests decoded off the wire since start (sheds included).
    pub requests_total: AtomicU64,
    /// Requests answered `BUSY` by admission control / backpressure.
    pub shed_total: AtomicU64,
    /// Payload bytes read off sockets.
    pub bytes_in: AtomicU64,
    /// Payload bytes written to sockets.
    pub bytes_out: AtomicU64,
    /// In-flight requests on the connection at each admission (1 = no
    /// pipelining; the reactor records this per decoded request).
    pub pipeline_depth: DepthHistogram,
    /// Admit/deny counters per declared tenant (`HELLO <tenant>`; the
    /// unnamed default tenant is `"default"`).
    tenants: Mutex<BTreeMap<String, Arc<TenantNetMetrics>>>,
}

impl NetMetrics {
    /// The counters for `name`, created on first sight. Front-ends cache
    /// the `Arc` per connection, so the map lock is off the per-request
    /// path.
    pub fn tenant(&self, name: &str) -> Arc<TenantNetMetrics> {
        let mut tenants = self.tenants.lock();
        if let Some(t) = tenants.get(name) {
            return Arc::clone(t);
        }
        let t = Arc::new(TenantNetMetrics::default());
        tenants.insert(name.to_string(), Arc::clone(&t));
        t
    }

    /// Snapshot of every tenant's counters, in name order.
    pub fn tenant_counts(&self) -> Vec<(String, u64, u64)> {
        self.tenants
            .lock()
            .iter()
            .map(|(name, t)| {
                (
                    name.clone(),
                    t.admitted.load(Relaxed),
                    t.denied.load(Relaxed),
                )
            })
            .collect()
    }
}

/// Replication observability: the engine's role, the LSN frontier it has
/// applied, and the log-fetch traffic it has served (primary) or pulled
/// (follower). All zero — and the STATS section absent — when the engine
/// has no WAL and no replication role (the section is gated like
/// `buffer_pool`'s).
#[derive(Default)]
pub struct ReplicationMetrics {
    /// `1` once the engine participates in replication (gates the STATS
    /// section).
    pub enabled: AtomicU64,
    /// `0` = primary, `1` = follower (gauge).
    pub follower: AtomicU64,
    /// Highest LSN applied to the engine: logged on a primary, replicated
    /// on a follower (gauge; what `WAIT_LSN` waits on).
    pub applied_lsn: AtomicU64,
    /// `FETCH_SEGMENTS` requests served (primary side).
    pub segment_fetches: AtomicU64,
    /// Segments shipped across those fetches.
    pub segments_shipped: AtomicU64,
    /// Segment bytes shipped (headers included).
    pub bytes_shipped: AtomicU64,
    /// `FETCH_CHECKPOINT` requests served.
    pub checkpoint_fetches: AtomicU64,
    /// Checkpoint redirects returned (a fetch from below the checkpoint).
    pub checkpoint_redirects: AtomicU64,
    /// `WAIT_LSN`/`MIN_LSN` waits that were satisfied.
    pub waits: AtomicU64,
    /// Waits that timed out before the LSN was applied.
    pub wait_timeouts: AtomicU64,
}

/// Durability observability: WAL writer counters, checkpoint counters, and
/// what the opening recovery pass found. All zero when no WAL is
/// configured.
#[derive(Default)]
pub struct DurabilityMetrics {
    /// Entries appended to the WAL since start.
    pub wal_appends: AtomicU64,
    /// Successful WAL fsyncs since start.
    pub wal_syncs: AtomicU64,
    /// Segment rotations since start.
    pub wal_rotations: AtomicU64,
    /// Sequence number of the segment currently appended to.
    pub wal_segment: AtomicU64,
    /// LSN of the last appended entry.
    pub wal_last_lsn: AtomicU64,
    /// Highest LSN known durable (`<= wal_last_lsn`).
    pub wal_synced_lsn: AtomicU64,
    /// Checkpoints taken since start.
    pub checkpoints: AtomicU64,
    /// LSN of the newest committed checkpoint.
    pub checkpoint_last_lsn: AtomicU64,
    /// Image bytes the newest checkpoint wrote, over all shards.
    pub checkpoint_last_bytes: AtomicU64,
    /// Checkpoint LSN recovery started from at engine construction.
    pub recovery_checkpoint_lsn: AtomicU64,
    /// WAL tail entries replayed at engine construction.
    pub recovery_replayed_entries: AtomicU64,
    /// Bytes discarded (torn tails, unreadable segments) at construction.
    pub recovery_truncated_bytes: AtomicU64,
    /// `1` when construction dropped whole segments past the damage, not
    /// just a torn tail (`WalReader::tail_lost`).
    pub recovery_tail_lost: AtomicU64,
}

/// Engine-wide metrics: totals, rates, latency histograms, per-shard
/// gauges.
pub struct EngineMetrics {
    start: Instant,
    /// Inserts the write path has accepted since start — single, batched,
    /// or replayed from the WAL on recovery or replication.
    pub inserts: AtomicU64,
    /// Deletes accepted since start, on the same terms (one that matched
    /// no record still counts).
    pub deletes: AtomicU64,
    /// Queries answered since start.
    pub queries: AtomicU64,
    /// Shard snapshots visited by queries (`shard_visits / queries` is the
    /// average fan-out; below `num_shards` means partition pruning works).
    pub shard_visits: AtomicU64,
    /// Time from a query's arrival to its merged answer.
    pub query_latency: LatencyHistogram,
    /// A writer thread's time per mutation: one sample per applied
    /// command, [`Self::batch_apply_latency`]'s divided by the command's op
    /// count.
    pub apply_latency: LatencyHistogram,
    /// `INSERT_BATCH` groups accepted by `insert_batch_raw` since start.
    pub insert_batches: AtomicU64,
    /// Records that arrived inside those groups (`insert_batch_records /
    /// insert_batches` is the mean batch size).
    pub insert_batch_records: AtomicU64,
    /// Time from a writer thread picking up one command — a shard's share
    /// of one submitted batch, a single `INSERT` being the batch of one — to
    /// all of it being applied to the shard tree.
    pub batch_apply_latency: LatencyHistogram,
    /// Aggregate-cache counters (all zero when the cache is disabled).
    pub cache: CacheMetrics,
    /// Query-pool counters (all zero when the pool is disabled).
    pub pool: PoolMetrics,
    /// Cost-based planner counters (zero until a SELECT/EXPLAIN arrives).
    pub plan: PlanMetrics,
    /// WAL/checkpoint/recovery counters (all zero when no WAL is
    /// configured).
    pub durability: DurabilityMetrics,
    /// Buffer-pool counters (all zero in RAM-resident mode).
    pub buffer_pool: BufferPoolMetrics,
    /// Replication counters (all zero outside a replication setup).
    pub replication: ReplicationMetrics,
    /// Network front-end counters (all zero until a server registers).
    pub net: NetMetrics,
    /// One gauge block per shard.
    pub shards: Vec<ShardMetrics>,
}

impl EngineMetrics {
    pub fn new(num_shards: usize) -> Self {
        EngineMetrics {
            start: Instant::now(),
            inserts: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            shard_visits: AtomicU64::new(0),
            query_latency: LatencyHistogram::new(),
            apply_latency: LatencyHistogram::new(),
            insert_batches: AtomicU64::new(0),
            insert_batch_records: AtomicU64::new(0),
            batch_apply_latency: LatencyHistogram::new(),
            cache: CacheMetrics::default(),
            pool: PoolMetrics::default(),
            plan: PlanMetrics::default(),
            durability: DurabilityMetrics::default(),
            buffer_pool: BufferPoolMetrics::default(),
            replication: ReplicationMetrics::default(),
            net: NetMetrics::default(),
            shards: (0..num_shards).map(|_| ShardMetrics::default()).collect(),
        }
    }

    /// Nanoseconds since engine start (the clock snapshot gauges use).
    pub fn now_nanos(&self) -> u64 {
        self.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Engine uptime.
    pub fn uptime(&self) -> Duration {
        self.start.elapsed()
    }

    /// Age of shard `i`'s published snapshot (time since last publish).
    pub fn snapshot_age(&self, shard: usize) -> Duration {
        let published = self.shards[shard].snapshot_published_at.load(Relaxed);
        if published == 0 {
            return self.uptime();
        }
        Duration::from_nanos(self.now_nanos().saturating_sub(published))
    }

    /// Renders the metrics as one JSON object (the `STATS` payload).
    pub fn to_json(&self) -> String {
        let uptime = self.uptime().as_secs_f64().max(1e-9);
        let inserts = self.inserts.load(Relaxed);
        let deletes = self.deletes.load(Relaxed);
        let queries = self.queries.load(Relaxed);
        let mut s = String::with_capacity(512);
        s.push('{');
        push_kv(&mut s, "uptime_secs", &format!("{uptime:.3}"));
        push_kv(&mut s, "inserts_total", &inserts.to_string());
        push_kv(&mut s, "deletes_total", &deletes.to_string());
        push_kv(&mut s, "queries_total", &queries.to_string());
        push_kv(
            &mut s,
            "inserts_per_sec",
            &format!("{:.1}", inserts as f64 / uptime),
        );
        push_kv(
            &mut s,
            "queries_per_sec",
            &format!("{:.1}", queries as f64 / uptime),
        );
        push_kv(
            &mut s,
            "avg_shards_per_query",
            &format!(
                "{:.2}",
                self.shard_visits.load(Relaxed) as f64 / (queries.max(1)) as f64
            ),
        );
        push_kv(
            &mut s,
            "query_latency_us",
            &latency_json(&self.query_latency),
        );
        push_kv(
            &mut s,
            "apply_latency_us",
            &latency_json(&self.apply_latency),
        );
        push_kv(&mut s, "ingest", &self.ingest_json());
        push_kv(&mut s, "cache", &self.cache_json());
        push_kv(&mut s, "pool", &self.pool_json());
        push_kv(&mut s, "plan", &self.plan_json());
        push_kv(&mut s, "durability", &self.durability_json());
        if self.buffer_pool.enabled.load(Relaxed) != 0 {
            push_kv(&mut s, "buffer_pool", &self.buffer_pool_json());
        }
        if self.replication.enabled.load(Relaxed) != 0 {
            push_kv(&mut s, "replication", &self.replication_json());
        }
        if self.net.enabled.load(Relaxed) != 0 {
            push_kv(&mut s, "net", &self.net_json());
        }
        s.push_str("\"shards\":[");
        for (i, sh) in self.shards.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('{');
            push_kv(
                &mut s,
                "queue_depth",
                &sh.queue_depth.load(Relaxed).to_string(),
            );
            push_kv(&mut s, "applied", &sh.applied.load(Relaxed).to_string());
            push_kv(
                &mut s,
                "snapshot_records",
                &sh.snapshot_records.load(Relaxed).to_string(),
            );
            push_kv(
                &mut s,
                "snapshot_age_ms",
                &format!("{:.1}", self.snapshot_age(i).as_secs_f64() * 1e3),
            );
            push_kv(&mut s, "io_reads", &sh.io_reads.load(Relaxed).to_string());
            s.push_str("\"io_writes\":");
            s.push_str(&sh.io_writes.load(Relaxed).to_string());
            s.push('}');
        }
        s.push_str("]}");
        s
    }

    /// The `"ingest"` sub-object of the STATS payload: batched-write
    /// gauges (all zero while only single-record INSERTs arrive).
    fn ingest_json(&self) -> String {
        let batches = self.insert_batches.load(Relaxed);
        let batch_records = self.insert_batch_records.load(Relaxed);
        let mut s = String::with_capacity(160);
        s.push('{');
        push_kv(&mut s, "batches", &batches.to_string());
        push_kv(&mut s, "batch_records", &batch_records.to_string());
        push_kv(
            &mut s,
            "mean_batch_size",
            &format!("{:.1}", batch_records as f64 / batches.max(1) as f64),
        );
        s.push_str("\"batch_apply_latency_us\":");
        s.push_str(&latency_json(&self.batch_apply_latency));
        s.push('}');
        s
    }

    /// The `"cache"` sub-object of the STATS payload.
    fn cache_json(&self) -> String {
        let c = &self.cache;
        let hits = c.hits.load(Relaxed);
        let semantic = c.semantic_hits.load(Relaxed);
        let misses = c.misses.load(Relaxed);
        let lookups = hits + semantic + misses;
        let mut s = String::with_capacity(256);
        s.push('{');
        push_kv(&mut s, "hits", &hits.to_string());
        push_kv(&mut s, "semantic_hits", &semantic.to_string());
        push_kv(&mut s, "misses", &misses.to_string());
        push_kv(
            &mut s,
            "hit_rate",
            &format!("{:.3}", (hits + semantic) as f64 / lookups.max(1) as f64),
        );
        push_kv(&mut s, "patches", &c.patches.load(Relaxed).to_string());
        push_kv(
            &mut s,
            "invalidations",
            &c.invalidations.load(Relaxed).to_string(),
        );
        push_kv(
            &mut s,
            "insertions",
            &c.insertions.load(Relaxed).to_string(),
        );
        push_kv(&mut s, "evictions", &c.evictions.load(Relaxed).to_string());
        push_kv(&mut s, "entries", &c.entries.load(Relaxed).to_string());
        s.push_str("\"lookup_latency_us\":");
        s.push_str(&latency_json(&c.lookup_latency));
        s.push('}');
        s
    }

    /// The `"pool"` sub-object of the STATS payload.
    fn pool_json(&self) -> String {
        let p = &self.pool;
        let mut s = String::with_capacity(192);
        s.push('{');
        push_kv(&mut s, "workers", &p.workers.load(Relaxed).to_string());
        push_kv(
            &mut s,
            "queued_tasks",
            &p.queued_tasks.load(Relaxed).to_string(),
        );
        push_kv(
            &mut s,
            "busy_workers",
            &p.busy_workers.load(Relaxed).to_string(),
        );
        push_kv(&mut s, "tasks", &p.tasks.load(Relaxed).to_string());
        push_kv(
            &mut s,
            "inline_tasks",
            &p.inline_tasks.load(Relaxed).to_string(),
        );
        push_kv(&mut s, "steals", &p.steals.load(Relaxed).to_string());
        s.push_str("\"task_latency_us\":");
        s.push_str(&latency_json(&p.task_latency));
        s.push('}');
        s
    }

    /// The `"plan"` sub-object of the STATS payload.
    fn plan_json(&self) -> String {
        let p = &self.plan;
        let mut s = String::with_capacity(224);
        s.push('{');
        push_kv(&mut s, "plans", &p.plans.load(Relaxed).to_string());
        push_kv(&mut s, "explains", &p.explains.load(Relaxed).to_string());
        let mut chose = String::with_capacity(96);
        chose.push('{');
        for (i, b) in Backend::ALL.iter().enumerate() {
            if i > 0 {
                chose.push(',');
            }
            chose.push('"');
            chose.push_str(b.name());
            chose.push_str("\":");
            chose.push_str(&p.chosen(*b).load(Relaxed).to_string());
        }
        chose.push('}');
        push_kv(&mut s, "chose", &chose);
        push_kv(
            &mut s,
            "mispredictions",
            &p.mispredictions.load(Relaxed).to_string(),
        );
        push_kv(&mut s, "est_pages", &p.est_pages.load(Relaxed).to_string());
        s.push_str("\"actual_pages\":");
        s.push_str(&p.actual_pages.load(Relaxed).to_string());
        s.push('}');
        s
    }

    /// The `"buffer_pool"` sub-object of the STATS payload (disk mode only).
    fn buffer_pool_json(&self) -> String {
        let b = &self.buffer_pool;
        let hits = b.hits.load(Relaxed);
        let misses = b.misses.load(Relaxed);
        let mut s = String::with_capacity(192);
        s.push('{');
        push_kv(&mut s, "pool_hits", &hits.to_string());
        push_kv(&mut s, "pool_misses", &misses.to_string());
        push_kv(
            &mut s,
            "pool_hit_rate",
            &format!("{:.3}", hits as f64 / (hits + misses).max(1) as f64),
        );
        push_kv(
            &mut s,
            "pool_evictions",
            &b.evictions.load(Relaxed).to_string(),
        );
        push_kv(
            &mut s,
            "pool_writebacks",
            &b.writebacks.load(Relaxed).to_string(),
        );
        push_kv(
            &mut s,
            "pool_resident",
            &b.resident.load(Relaxed).to_string(),
        );
        for (key, counter) in [
            ("pool_capacity", &b.capacity),
            ("node_decodes", &b.node_decodes),
            ("node_encodes", &b.node_encodes),
            ("decoded_hits", &b.decoded_hits),
        ] {
            push_kv(&mut s, key, &counter.load(Relaxed).to_string());
        }
        s.push_str("\"decoded_nodes\":");
        s.push_str(&b.decoded_nodes.load(Relaxed).to_string());
        s.push('}');
        s
    }

    /// The `"replication"` sub-object of the STATS payload (replication
    /// setups only).
    fn replication_json(&self) -> String {
        let r = &self.replication;
        let mut s = String::with_capacity(256);
        s.push('{');
        push_kv(
            &mut s,
            "role",
            if r.follower.load(Relaxed) != 0 {
                "\"follower\""
            } else {
                "\"primary\""
            },
        );
        push_kv(
            &mut s,
            "applied_lsn",
            &r.applied_lsn.load(Relaxed).to_string(),
        );
        push_kv(
            &mut s,
            "segment_fetches",
            &r.segment_fetches.load(Relaxed).to_string(),
        );
        push_kv(
            &mut s,
            "segments_shipped",
            &r.segments_shipped.load(Relaxed).to_string(),
        );
        push_kv(
            &mut s,
            "bytes_shipped",
            &r.bytes_shipped.load(Relaxed).to_string(),
        );
        push_kv(
            &mut s,
            "checkpoint_fetches",
            &r.checkpoint_fetches.load(Relaxed).to_string(),
        );
        push_kv(
            &mut s,
            "checkpoint_redirects",
            &r.checkpoint_redirects.load(Relaxed).to_string(),
        );
        push_kv(&mut s, "waits", &r.waits.load(Relaxed).to_string());
        s.push_str("\"wait_timeouts\":");
        s.push_str(&r.wait_timeouts.load(Relaxed).to_string());
        s.push('}');
        s
    }

    /// The `"net"` sub-object of the STATS payload (served engines only).
    fn net_json(&self) -> String {
        let n = &self.net;
        let mut s = String::with_capacity(320);
        s.push('{');
        push_kv(
            &mut s,
            "active_connections",
            &n.active_connections.load(Relaxed).to_string(),
        );
        push_kv(
            &mut s,
            "accepted_total",
            &n.accepted_total.load(Relaxed).to_string(),
        );
        push_kv(
            &mut s,
            "requests_total",
            &n.requests_total.load(Relaxed).to_string(),
        );
        push_kv(
            &mut s,
            "shed_total",
            &n.shed_total.load(Relaxed).to_string(),
        );
        push_kv(&mut s, "bytes_in", &n.bytes_in.load(Relaxed).to_string());
        push_kv(&mut s, "bytes_out", &n.bytes_out.load(Relaxed).to_string());
        push_kv(
            &mut s,
            "pipeline_depth",
            &format!(
                "{{\"count\":{},\"mean\":{:.1},\"p50\":{},\"p99\":{}}}",
                n.pipeline_depth.count(),
                n.pipeline_depth.mean(),
                n.pipeline_depth.quantile(0.50),
                n.pipeline_depth.quantile(0.99),
            ),
        );
        let mut tenants = String::with_capacity(96);
        tenants.push('{');
        for (i, (name, admitted, denied)) in self.net.tenant_counts().iter().enumerate() {
            if i > 0 {
                tenants.push(',');
            }
            tenants.push('"');
            tenants.push_str(name);
            tenants.push_str("\":{\"admitted\":");
            tenants.push_str(&admitted.to_string());
            tenants.push_str(",\"denied\":");
            tenants.push_str(&denied.to_string());
            tenants.push('}');
        }
        tenants.push('}');
        s.push_str("\"tenants\":");
        s.push_str(&tenants);
        s.push('}');
        s
    }

    /// The `"durability"` sub-object of the STATS payload.
    fn durability_json(&self) -> String {
        let d = &self.durability;
        let mut s = String::with_capacity(256);
        s.push('{');
        push_kv(
            &mut s,
            "wal_appends",
            &d.wal_appends.load(Relaxed).to_string(),
        );
        push_kv(&mut s, "wal_syncs", &d.wal_syncs.load(Relaxed).to_string());
        push_kv(
            &mut s,
            "wal_rotations",
            &d.wal_rotations.load(Relaxed).to_string(),
        );
        push_kv(
            &mut s,
            "wal_segment",
            &d.wal_segment.load(Relaxed).to_string(),
        );
        push_kv(
            &mut s,
            "wal_last_lsn",
            &d.wal_last_lsn.load(Relaxed).to_string(),
        );
        push_kv(
            &mut s,
            "wal_synced_lsn",
            &d.wal_synced_lsn.load(Relaxed).to_string(),
        );
        push_kv(
            &mut s,
            "checkpoints",
            &d.checkpoints.load(Relaxed).to_string(),
        );
        push_kv(
            &mut s,
            "checkpoint_last_lsn",
            &d.checkpoint_last_lsn.load(Relaxed).to_string(),
        );
        push_kv(
            &mut s,
            "checkpoint_last_bytes",
            &d.checkpoint_last_bytes.load(Relaxed).to_string(),
        );
        push_kv(
            &mut s,
            "recovery_checkpoint_lsn",
            &d.recovery_checkpoint_lsn.load(Relaxed).to_string(),
        );
        push_kv(
            &mut s,
            "recovery_replayed_entries",
            &d.recovery_replayed_entries.load(Relaxed).to_string(),
        );
        push_kv(
            &mut s,
            "recovery_truncated_bytes",
            &d.recovery_truncated_bytes.load(Relaxed).to_string(),
        );
        s.push_str("\"recovery_tail_lost\":");
        s.push_str(&d.recovery_tail_lost.load(Relaxed).to_string());
        s.push('}');
        s
    }
}

fn latency_json(h: &LatencyHistogram) -> String {
    format!(
        "{{\"count\":{},\"mean\":{:.1},\"p50\":{:.1},\"p99\":{:.1}}}",
        h.count(),
        h.mean().as_secs_f64() * 1e6,
        h.quantile(0.50).as_secs_f64() * 1e6,
        h.quantile(0.99).as_secs_f64() * 1e6,
    )
}

/// Appends `"key":value,` — `value` must already be valid JSON.
fn push_kv(s: &mut String, key: &str, value: &str) {
    s.push('"');
    s.push_str(key);
    s.push_str("\":");
    s.push_str(value);
    s.push(',');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_bracket_samples() {
        let h = LatencyHistogram::new();
        for micros in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 1000] {
            h.record(Duration::from_micros(micros));
        }
        assert_eq!(h.count(), 10);
        let p50 = h.quantile(0.5);
        assert!(p50 >= Duration::from_micros(30) && p50 <= Duration::from_micros(128));
        let p99 = h.quantile(0.99);
        assert!(p99 >= Duration::from_micros(1000));
        assert!(h.quantile(1.0) >= p50);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.99), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
    }

    #[test]
    fn stats_json_includes_cache_block() {
        let m = EngineMetrics::new(1);
        m.cache.hits.fetch_add(3, Relaxed);
        m.cache.misses.fetch_add(1, Relaxed);
        m.cache.patches.fetch_add(7, Relaxed);
        let json = m.to_json();
        assert!(json.contains("\"cache\":{\"hits\":3"));
        assert!(json.contains("\"hit_rate\":0.750"));
        assert!(json.contains("\"patches\":7"));
        assert!(json.contains("\"lookup_latency_us\""));
    }

    #[test]
    fn stats_json_includes_pool_block() {
        let m = EngineMetrics::new(1);
        m.pool.workers.store(4, Relaxed);
        m.pool.tasks.store(12, Relaxed);
        m.pool.steals.store(3, Relaxed);
        m.pool.task_latency.record(Duration::from_micros(42));
        let json = m.to_json();
        assert!(json.contains("\"pool\":{\"workers\":4"));
        assert!(json.contains("\"tasks\":12"));
        assert!(json.contains("\"steals\":3"));
        assert!(json.contains("\"task_latency_us\""));
    }

    #[test]
    fn stats_json_includes_plan_block() {
        let m = EngineMetrics::new(1);
        m.plan.plans.store(9, Relaxed);
        m.plan.chosen(Backend::Mview).store(4, Relaxed);
        m.plan.mispredictions.store(1, Relaxed);
        let json = m.to_json();
        assert!(json.contains("\"plan\":{\"plans\":9"));
        assert!(json.contains("\"chose\":{\"descend\":0,\"mview\":4}"));
        assert!(json.contains("\"mispredictions\":1"));
        assert!(json.contains("\"actual_pages\":0"));
    }

    #[test]
    fn stats_json_includes_ingest_block() {
        let m = EngineMetrics::new(1);
        m.insert_batches.store(4, Relaxed);
        m.insert_batch_records.store(10, Relaxed);
        m.batch_apply_latency.record(Duration::from_micros(120));
        let json = m.to_json();
        assert!(json.contains("\"ingest\":{\"batches\":4"));
        assert!(json.contains("\"batch_records\":10"));
        assert!(json.contains("\"mean_batch_size\":2.5"));
        assert!(json.contains("\"batch_apply_latency_us\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn stats_json_includes_durability_block() {
        let m = EngineMetrics::new(1);
        m.durability.wal_appends.store(11, Relaxed);
        m.durability.checkpoints.store(2, Relaxed);
        m.durability.checkpoint_last_bytes.store(9_000, Relaxed);
        m.durability.recovery_replayed_entries.store(4, Relaxed);
        m.durability.recovery_tail_lost.store(1, Relaxed);
        let json = m.to_json();
        assert!(json.contains("\"durability\":{\"wal_appends\":11"));
        assert!(json.contains("\"checkpoints\":2"));
        assert!(json.contains("\"checkpoint_last_bytes\":9000"));
        assert!(json.contains("\"recovery_replayed_entries\":4"));
        assert!(json.contains("\"recovery_truncated_bytes\":0"));
        assert!(json.contains("\"recovery_tail_lost\":1}"));
    }

    #[test]
    fn buffer_pool_block_is_gated_on_disk_mode() {
        let m = EngineMetrics::new(1);
        // RAM-resident engines never show the section (client.rs tolerates
        // its absence; this keeps resident STATS payloads unchanged).
        assert!(!m.to_json().contains("\"buffer_pool\""));
        m.buffer_pool.enabled.store(1, Relaxed);
        m.buffer_pool.hits.store(30, Relaxed);
        m.buffer_pool.misses.store(10, Relaxed);
        m.buffer_pool.evictions.store(4, Relaxed);
        m.buffer_pool.capacity.store(64, Relaxed);
        m.buffer_pool.node_encodes.store(7, Relaxed);
        m.buffer_pool.decoded_nodes.store(3, Relaxed);
        let json = m.to_json();
        assert!(json.contains("\"buffer_pool\":{\"pool_hits\":30"));
        assert!(json.contains("\"pool_hit_rate\":0.750"));
        assert!(json.contains("\"pool_evictions\":4"));
        assert!(json.contains("\"pool_capacity\":64,\"node_decodes\":0,\"node_encodes\":7"));
        assert!(json.contains("\"decoded_hits\":0,\"decoded_nodes\":3}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn replication_block_is_gated_on_participation() {
        let m = EngineMetrics::new(1);
        // Engines outside a replication setup keep their STATS payload
        // unchanged (client.rs tolerates the section's absence).
        assert!(!m.to_json().contains("\"replication\""));
        m.replication.enabled.store(1, Relaxed);
        m.replication.follower.store(1, Relaxed);
        m.replication.applied_lsn.store(42, Relaxed);
        m.replication.segment_fetches.store(3, Relaxed);
        m.replication.wait_timeouts.store(1, Relaxed);
        let json = m.to_json();
        assert!(json.contains("\"replication\":{\"role\":\"follower\""));
        assert!(json.contains("\"applied_lsn\":42"));
        assert!(json.contains("\"segment_fetches\":3"));
        assert!(json.contains("\"wait_timeouts\":1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn net_block_is_gated_on_a_front_end() {
        let m = EngineMetrics::new(1);
        // Engines without a network front-end keep their STATS payload
        // unchanged (client.rs tolerates the section's absence).
        assert!(!m.to_json().contains("\"net\""));
        m.net.enabled.store(1, Relaxed);
        m.net.accepted_total.store(7, Relaxed);
        m.net.active_connections.store(2, Relaxed);
        m.net.shed_total.store(3, Relaxed);
        m.net.pipeline_depth.record(1);
        m.net.pipeline_depth.record(32);
        let t = m.net.tenant("analytics");
        t.admitted.fetch_add(5, Relaxed);
        t.denied.fetch_add(3, Relaxed);
        // Same name returns the same counters; a new name appears too.
        m.net.tenant("analytics").admitted.fetch_add(1, Relaxed);
        m.net.tenant("default");
        let json = m.to_json();
        assert!(json.contains("\"net\":{\"active_connections\":2"));
        assert!(json.contains("\"accepted_total\":7"));
        assert!(json.contains("\"shed_total\":3"));
        assert!(json.contains("\"pipeline_depth\":{\"count\":2"));
        assert!(json.contains("\"analytics\":{\"admitted\":6,\"denied\":3}"));
        assert!(json.contains("\"default\":{\"admitted\":0,\"denied\":0}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn depth_histogram_reports_counts() {
        let h = DepthHistogram::default();
        for d in [0u64, 1, 1, 4, 16] {
            h.record(d);
        }
        assert_eq!(h.count(), 5);
        assert!(h.mean() >= 4.0 && h.mean() <= 5.0, "{}", h.mean());
        assert!(h.quantile(0.99) >= 16);
    }

    #[test]
    fn stats_json_is_well_formed_enough() {
        let m = EngineMetrics::new(2);
        m.inserts.fetch_add(5, Relaxed);
        m.query_latency.record(Duration::from_micros(100));
        let json = m.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"inserts_total\":5"));
        assert!(json.contains("\"shards\":[{"));
        assert_eq!(json.matches("\"queue_depth\"").count(), 2);
        // Balanced braces/brackets (no JSON parser in the workspace).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
