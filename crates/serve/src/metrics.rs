//! Engine observability: lock-free counters, per-shard gauges, and
//! log-linear latency histograms, rendered as one JSON object for the
//! `STATS` verb.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dc_plan::Backend;
use parking_lot::Mutex;

use crate::admission::{DEFAULT_TENANT, MAX_TENANTS};

/// Sub-buckets per power of two (a power of two itself).
const SUB_BUCKETS: usize = 8;
/// Values below [`SUB_BUCKETS`] get one bucket each; every power of two
/// from there up to 2⁶³ gets [`SUB_BUCKETS`].
const BUCKETS: usize = SUB_BUCKETS * (65 - SUB_BUCKETS.trailing_zeros() as usize);

/// A log-linear (HDR-style) latency histogram over nanoseconds: each power
/// of two is split into 8 equal sub-buckets, so 496 buckets cover 0 ns ..
/// ~584 years, and a reported quantile — the upper bound of the sub-bucket
/// holding it — is at most 1/8 above the true sample (exact below 8 ns).
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one sample.
    pub fn record(&self, d: Duration) {
        let nanos = d.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.buckets[bucket_of(nanos)].fetch_add(1, Relaxed);
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

    /// The latency at quantile `q` in `[0, 1]` (upper bound of the
    /// sub-bucket holding it), or zero when empty.
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
                return Duration::from_nanos(bucket_upper_bound(i));
            }
        }
        Duration::from_nanos(u64::MAX)
    }
}

/// `v`'s bucket: `v` itself below [`SUB_BUCKETS`], else its power of two's
/// group, indexed by the log₂ [`SUB_BUCKETS`] bits below its top bit.
fn bucket_of(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BUCKETS.trailing_zeros();
    (shift as usize + 1) * SUB_BUCKETS + (v >> shift) as usize % SUB_BUCKETS
}

/// The largest value [`bucket_of`] maps to bucket `i`.
fn bucket_upper_bound(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let shift = i / SUB_BUCKETS - 1;
    let next = (SUB_BUCKETS + i % SUB_BUCKETS + 1) as u128;
    ((next << shift) - 1).min(u128::from(u64::MAX)) as u64
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
    /// Logical page reads of the shard since start: the blocks its
    /// writer's batches read, plus the pages every query read on it (each
    /// fragment's EXPLAIN `actual_pages`). The same count in either storage
    /// mode; a disk shard's pool touches are in the `buffer_pool` block.
    pub io_reads: AtomicU64,
    /// Logical page writes of the shard's writer since start.
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

/// Node-cache observability (`dc-oocore`): aggregated over every disk
/// shard's node cache when the engine runs disk-backed
/// ([`StorageMode::Disk`](crate::StorageMode::Disk)). All zero — and the
/// STATS section absent — in RAM-resident mode. Refreshed from the shards by
/// [`crate::ShardedDcTree::stats_json`] and at each snapshot publish. The
/// counts are of nodes: a shard caches decoded nodes, not pages.
#[derive(Default)]
pub struct BufferPoolMetrics {
    /// `1` once the engine runs disk-backed (gates the STATS section).
    pub enabled: AtomicU64,
    /// Node accesses served from the cache (`pool_hits`).
    pub hits: AtomicU64,
    /// Node accesses that read and decoded the node's pages
    /// (`pool_misses`).
    pub misses: AtomicU64,
    /// Clean nodes dropped to make room (`pool_evictions`).
    pub evictions: AtomicU64,
    /// Dirty nodes encoded and written to their pages (`pool_writebacks`).
    pub writebacks: AtomicU64,
    /// Nodes cached now, summed over shards (gauge, `pool_resident`).
    pub resident: AtomicU64,
    /// Node budget (`frames`), summed over shards (gauge,
    /// `pool_capacity`).
    pub capacity: AtomicU64,
}

/// A log-linear histogram over dimensionless counts (pipeline depths),
/// reusing [`LatencyHistogram`]'s buckets with 1 "nano" = 1 unit.
#[derive(Default)]
pub struct DepthHistogram {
    inner: LatencyHistogram,
}

impl DepthHistogram {
    /// Records one observation, clamped up to 1 (the request being
    /// admitted is itself in flight).
    pub fn record(&self, depth: u64) {
        self.inner.record(Duration::from_nanos(depth.max(1)));
    }

    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    pub fn mean(&self) -> f64 {
        self.inner.mean().as_nanos() as f64
    }

    /// The count at quantile `q` (upper bound of its sub-bucket).
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
    /// The counters for `name`, created on first sight — unless `name` is
    /// new and [`MAX_TENANTS`] tenants are known already: then `None`
    /// (never for [`DEFAULT_TENANT`]). Front-ends cache the `Arc` per
    /// connection, so the map lock is off the per-request path.
    pub fn tenant(&self, name: &str) -> Option<Arc<TenantNetMetrics>> {
        let mut tenants = self.tenants.lock();
        if let Some(t) = tenants.get(name) {
            return Some(Arc::clone(t));
        }
        if tenants.len() >= MAX_TENANTS && name != DEFAULT_TENANT {
            return None;
        }
        let t = Arc::new(TenantNetMetrics::default());
        tenants.insert(name.to_string(), Arc::clone(&t));
        Some(t)
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

/// When the metrics were created: what uptime and snapshot ages count from.
struct Epoch(Instant);

impl Default for Epoch {
    fn default() -> Self {
        Epoch(Instant::now())
    }
}

/// Engine-wide metrics: totals, rates, latency histograms, per-shard
/// gauges.
#[derive(Default)]
pub struct EngineMetrics {
    start: Epoch,
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
            shards: (0..num_shards).map(|_| ShardMetrics::default()).collect(),
            ..Self::default()
        }
    }

    /// Nanoseconds since engine start (the clock snapshot gauges use).
    pub fn now_nanos(&self) -> u64 {
        self.uptime().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Engine uptime.
    pub fn uptime(&self) -> Duration {
        self.start.0.elapsed()
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
        let queries = self.queries.load(Relaxed);
        let visits = self.shard_visits.load(Relaxed);
        Obj::render(|o| {
            o.float("uptime_secs", uptime, 3)
                .int("inserts_total", inserts)
                .counter("deletes_total", &self.deletes)
                .int("queries_total", queries)
                .float("inserts_per_sec", inserts as f64 / uptime, 1)
                .float("queries_per_sec", queries as f64 / uptime, 1)
                .ratio("avg_shards_per_query", visits, queries, 2)
                .latency("query_latency_us", &self.query_latency)
                .latency("apply_latency_us", &self.apply_latency);
            o.object("ingest", |o| {
                let batches = self.insert_batches.load(Relaxed);
                let records = self.insert_batch_records.load(Relaxed);
                o.int("batches", batches)
                    .int("batch_records", records)
                    .ratio("mean_batch_size", records, batches, 1)
                    .latency("batch_apply_latency_us", &self.batch_apply_latency);
            });
            o.object("cache", |o| {
                let hits = self.cache.hits.load(Relaxed);
                let semantic = self.cache.semantic_hits.load(Relaxed);
                let misses = self.cache.misses.load(Relaxed);
                o.int("hits", hits)
                    .int("semantic_hits", semantic)
                    .int("misses", misses)
                    .ratio("hit_rate", hits + semantic, hits + semantic + misses, 3)
                    .counter("patches", &self.cache.patches)
                    .counter("invalidations", &self.cache.invalidations)
                    .counter("insertions", &self.cache.insertions)
                    .counter("evictions", &self.cache.evictions)
                    .counter("entries", &self.cache.entries)
                    .latency("lookup_latency_us", &self.cache.lookup_latency);
            });
            o.object("pool", |o| {
                o.counter("workers", &self.pool.workers)
                    .counter("queued_tasks", &self.pool.queued_tasks)
                    .counter("busy_workers", &self.pool.busy_workers)
                    .counter("tasks", &self.pool.tasks)
                    .counter("inline_tasks", &self.pool.inline_tasks)
                    .counter("steals", &self.pool.steals)
                    .latency("task_latency_us", &self.pool.task_latency);
            });
            o.object("plan", |o| {
                o.counter("plans", &self.plan.plans)
                    .counter("explains", &self.plan.explains)
                    .object("chose", |o| {
                        for b in Backend::ALL {
                            o.counter(b.name(), self.plan.chosen(b));
                        }
                    })
                    .counter("mispredictions", &self.plan.mispredictions)
                    .counter("est_pages", &self.plan.est_pages)
                    .counter("actual_pages", &self.plan.actual_pages);
            });
            o.object("durability", |o| {
                let d = &self.durability;
                o.counter("wal_appends", &d.wal_appends)
                    .counter("wal_syncs", &d.wal_syncs)
                    .counter("wal_rotations", &d.wal_rotations)
                    .counter("wal_segment", &d.wal_segment)
                    .counter("wal_last_lsn", &d.wal_last_lsn)
                    .counter("wal_synced_lsn", &d.wal_synced_lsn)
                    .counter("checkpoints", &d.checkpoints)
                    .counter("checkpoint_last_lsn", &d.checkpoint_last_lsn)
                    .counter("checkpoint_last_bytes", &d.checkpoint_last_bytes)
                    .counter("recovery_checkpoint_lsn", &d.recovery_checkpoint_lsn)
                    .counter("recovery_replayed_entries", &d.recovery_replayed_entries)
                    .counter("recovery_truncated_bytes", &d.recovery_truncated_bytes)
                    .counter("recovery_tail_lost", &d.recovery_tail_lost);
            });
            let b = &self.buffer_pool;
            if b.enabled.load(Relaxed) != 0 {
                o.object("buffer_pool", |o| {
                    let hits = b.hits.load(Relaxed);
                    let misses = b.misses.load(Relaxed);
                    o.int("pool_hits", hits)
                        .int("pool_misses", misses)
                        .ratio("pool_hit_rate", hits, hits + misses, 3)
                        .counter("pool_evictions", &b.evictions)
                        .counter("pool_writebacks", &b.writebacks)
                        .counter("pool_resident", &b.resident)
                        .counter("pool_capacity", &b.capacity);
                });
            }
            let r = &self.replication;
            if r.enabled.load(Relaxed) != 0 {
                o.object("replication", |o| {
                    let follower = r.follower.load(Relaxed) != 0;
                    o.str("role", if follower { "follower" } else { "primary" })
                        .counter("applied_lsn", &r.applied_lsn)
                        .counter("segment_fetches", &r.segment_fetches)
                        .counter("segments_shipped", &r.segments_shipped)
                        .counter("bytes_shipped", &r.bytes_shipped)
                        .counter("checkpoint_fetches", &r.checkpoint_fetches)
                        .counter("checkpoint_redirects", &r.checkpoint_redirects)
                        .counter("waits", &r.waits)
                        .counter("wait_timeouts", &r.wait_timeouts);
                });
            }
            let n = &self.net;
            if n.enabled.load(Relaxed) != 0 {
                o.object("net", |o| {
                    let depth = &n.pipeline_depth;
                    o.counter("active_connections", &n.active_connections)
                        .counter("accepted_total", &n.accepted_total)
                        .counter("requests_total", &n.requests_total)
                        .counter("shed_total", &n.shed_total)
                        .counter("bytes_in", &n.bytes_in)
                        .counter("bytes_out", &n.bytes_out)
                        .object("pipeline_depth", |o| {
                            o.int("count", depth.count())
                                .float("mean", depth.mean(), 1)
                                .int("p50", depth.quantile(0.50))
                                .int("p99", depth.quantile(0.99));
                        })
                        .object("tenants", |o| {
                            for (name, admitted, denied) in n.tenant_counts() {
                                o.object(&name, |o| {
                                    o.int("admitted", admitted).int("denied", denied);
                                });
                            }
                        });
                });
            }
            o.array("shards", self.shards.len(), |o, i| {
                let shard = &self.shards[i];
                let age_ms = self.snapshot_age(i).as_secs_f64() * 1e3;
                o.counter("queue_depth", &shard.queue_depth)
                    .counter("applied", &shard.applied)
                    .counter("snapshot_records", &shard.snapshot_records)
                    .float("snapshot_age_ms", age_ms, 1)
                    .counter("io_reads", &shard.io_reads)
                    .counter("io_writes", &shard.io_writes);
            });
        })
    }
}

/// The STATS JSON writer: one object's members, in call order. Only it
/// writes quotes, colons, commas, braces and brackets; keys and strings go
/// out verbatim (names chosen here, or tenant names, which `HELLO` limits
/// to JSON-safe characters).
#[derive(Default)]
struct Obj(String);

impl Obj {
    /// The object whose members `body` writes.
    fn render(body: impl FnOnce(&mut Obj)) -> String {
        let mut o = Obj::default();
        body(&mut o);
        format!("{{{}}}", o.0)
    }

    /// Writes the member `key` with `value`: the one place members are
    /// separated and keys quoted.
    fn put(&mut self, key: &str, value: std::fmt::Arguments) -> &mut Self {
        let sep = if self.0.is_empty() { "" } else { "," };
        write!(self.0, "{sep}\"{key}\":{value}").expect("a String takes any write");
        self
    }

    fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.put(key, format_args!("{v}"))
    }

    fn counter(&mut self, key: &str, c: &AtomicU64) -> &mut Self {
        self.int(key, c.load(Relaxed))
    }

    fn float(&mut self, key: &str, v: f64, digits: usize) -> &mut Self {
        self.put(key, format_args!("{v:.digits$}"))
    }

    /// `num / den` (`num` when `den` is 0) to `digits` decimal places.
    fn ratio(&mut self, key: &str, num: u64, den: u64, digits: usize) -> &mut Self {
        self.float(key, num as f64 / den.max(1) as f64, digits)
    }

    fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.put(key, format_args!("\"{v}\""))
    }

    fn object(&mut self, key: &str, body: impl FnOnce(&mut Obj)) -> &mut Self {
        self.put(key, format_args!("{}", Obj::render(body)))
    }

    /// An array of `len` objects, the `i`th written by `body(o, i)`.
    fn array(&mut self, key: &str, len: usize, body: impl Fn(&mut Obj, usize)) {
        let objects: Vec<String> = (0..len).map(|i| Obj::render(|o| body(o, i))).collect();
        self.put(key, format_args!("[{}]", objects.join(",")));
    }

    /// A latency histogram's sample count, and its mean and quantiles in µs.
    fn latency(&mut self, key: &str, h: &LatencyHistogram) -> &mut Self {
        self.object(key, |o| {
            o.int("count", h.count())
                .float("mean", h.mean().as_secs_f64() * 1e6, 1)
                .float("p50", h.quantile(0.50).as_secs_f64() * 1e6, 1)
                .float("p99", h.quantile(0.99).as_secs_f64() * 1e6, 1);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_bracket_samples() {
        let h = LatencyHistogram::default();
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
    fn quantiles_read_within_an_eighth_of_the_samples() {
        let h = LatencyHistogram::default();
        let sample = Duration::from_micros(1_500);
        for _ in 0..1_000 {
            h.record(sample);
        }
        for q in [0.50, 0.99] {
            let read = h.quantile(q);
            assert!(
                read >= sample && read <= sample + sample / 8,
                "p{q}: {read:?}"
            );
        }
    }

    #[test]
    fn a_bucket_reads_as_the_largest_value_it_holds() {
        // Below 8 every value has its own bucket.
        for v in (0..64).chain([1_000, 1_500_000, u64::MAX - 1, u64::MAX]) {
            let upper = bucket_upper_bound(bucket_of(v));
            assert!(upper >= v && upper - v <= v / 8, "{v}: {upper}");
            assert_eq!(bucket_of(upper), bucket_of(v));
        }
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::default();
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
        let json = m.to_json();
        assert!(json.contains("\"buffer_pool\":{\"pool_hits\":30"));
        assert!(json.contains("\"pool_hit_rate\":0.750"));
        assert!(json.contains("\"pool_evictions\":4"));
        assert!(json.contains("\"pool_capacity\":64}"));
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
        let t = m.net.tenant("analytics").unwrap();
        t.admitted.fetch_add(5, Relaxed);
        t.denied.fetch_add(3, Relaxed);
        // Same name returns the same counters; a new name appears too.
        m.net
            .tenant("analytics")
            .unwrap()
            .admitted
            .fetch_add(1, Relaxed);
        m.net.tenant("default").unwrap();
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
