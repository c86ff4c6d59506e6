//! Per-tenant admission control and engine-overload shedding.
//!
//! The front-end is the only place in the system where demand is still
//! unbounded: a single client can open one pipelined connection and pump
//! frames faster than the query pool drains them, and nothing before this
//! module would push back short of the kernel's socket buffers. Two
//! independent gates close that hole:
//!
//! 1. **Token buckets per tenant.** Every connection declares a tenant id
//!    with `HELLO` (undeclared connections share the `"default"` bucket).
//!    Each bucket refills at [`AdmissionConfig::tenant_rate`] requests/sec
//!    up to a burst of [`AdmissionConfig::tenant_burst`]; a data-plane
//!    request that finds the bucket empty is answered
//!    `BUSY tenant over rate` without ever being queued.
//! 2. **Load shedding on engine depth.** When the work already accepted —
//!    queued query-pool tasks plus queued shard-writer commands — exceeds
//!    [`AdmissionConfig::queue_high_water`], new data-plane requests get
//!    `BUSY engine overloaded`. Shedding at the door keeps the latency of
//!    *admitted* requests bounded instead of letting every request share
//!    an ever-growing queue (the no-collapse property `saturation_bench`
//!    asserts).
//!
//! Control-plane requests (`PING`, `HELLO`, `STATS`, `REPL_STATUS`,
//! `SHUTDOWN` — see `Request::admission_controlled`) bypass both gates so
//! an operator can always inspect and stop an overloaded server.
//!
//! The default config is deliberately generous (500k req/s per tenant,
//! high-water 16384): integration tests and well-behaved clients never see
//! `BUSY`; benchmarks construct tighter configs to exercise shedding.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::metrics::EngineMetrics;

/// Tuning for both admission gates. `Default` is permissive enough that
/// ordinary clients never observe `BUSY`.
#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// Token-bucket refill rate per tenant, in requests per second.
    pub tenant_rate: f64,
    /// Token-bucket capacity per tenant (burst allowance).
    pub tenant_burst: f64,
    /// Shed new data-plane work once queued pool tasks + queued shard
    /// commands exceed this.
    pub queue_high_water: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            tenant_rate: 500_000.0,
            tenant_burst: 1_000_000.0,
            queue_high_water: 16_384,
        }
    }
}

/// The tenant id used by connections that never sent `HELLO`.
pub const DEFAULT_TENANT: &str = "default";

/// Most tenants a server keeps counters and a token bucket for, the
/// default one included: each name a client declares stays in two maps
/// and in every `STATS` reply, so a `HELLO` naming a new tenant past this
/// is refused.
pub const MAX_TENANTS: usize = 1024;

/// Outcome of [`AdmissionController::check`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Run the request.
    Admit,
    /// The tenant's token bucket is empty.
    TenantThrottled,
    /// The engine's queues are past high-water.
    Overloaded,
}

impl Verdict {
    /// The `BUSY …` response line for a shed request (`None` if admitted).
    pub fn busy_line(self) -> Option<&'static str> {
        match self {
            Verdict::Admit => None,
            Verdict::TenantThrottled => Some("BUSY tenant over rate"),
            Verdict::Overloaded => Some("BUSY engine overloaded"),
        }
    }
}

struct TokenBucket {
    tokens: f64,
    refilled_at: Instant,
}

/// One tenant's token bucket, shareable across connections. Connections
/// resolve their bucket once (at accept and again on `HELLO`) and charge
/// it lock-locally per request; the map lookup — a global lock plus a key
/// allocation — stays off the per-request path.
pub struct TenantBucket {
    inner: Mutex<TokenBucket>,
}

/// Shared admission state: one token bucket per tenant, lazily created.
pub struct AdmissionController {
    cfg: AdmissionConfig,
    buckets: Mutex<HashMap<String, Arc<TenantBucket>>>,
}

impl AdmissionController {
    pub fn new(cfg: AdmissionConfig) -> Self {
        AdmissionController {
            cfg,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Both gates in order: overload first (cheap atomics, applies to every
    /// tenant alike), then the tenant bucket (only charged if the request
    /// would otherwise run).
    pub fn check(&self, tenant: &str, metrics: &EngineMetrics) -> Verdict {
        self.check_bucket(&self.bucket(tenant), metrics, 0)
    }

    /// Resolves (creating on first sight) the shared bucket of `tenant`.
    /// Takes the global map lock — call per connection, not per request.
    pub fn bucket(&self, tenant: &str) -> Arc<TenantBucket> {
        let mut buckets = self.buckets.lock();
        match buckets.get(tenant) {
            Some(b) => Arc::clone(b),
            None => {
                let b = Arc::new(TenantBucket {
                    inner: Mutex::new(TokenBucket {
                        tokens: self.cfg.tenant_burst,
                        refilled_at: Instant::now(),
                    }),
                });
                buckets.insert(tenant.to_string(), Arc::clone(&b));
                b
            }
        }
    }

    /// Tenants holding a bucket.
    #[cfg(test)]
    pub(crate) fn tenants(&self) -> usize {
        self.buckets.lock().len()
    }

    /// Both gates in order against a pre-resolved bucket: overload first
    /// (cheap atomics, applies to every tenant alike), then the tenant
    /// bucket (only charged if the request would otherwise run).
    /// `extra_depth` is queued work the engine metrics can't see (e.g. the
    /// reactor's own dispatch queue), added to the overload gate.
    pub fn check_bucket(
        &self,
        bucket: &TenantBucket,
        metrics: &EngineMetrics,
        extra_depth: u64,
    ) -> Verdict {
        if engine_depth(metrics) + extra_depth > self.cfg.queue_high_water {
            return Verdict::Overloaded;
        }
        if self.try_take(bucket, Instant::now()) {
            Verdict::Admit
        } else {
            Verdict::TenantThrottled
        }
    }

    fn try_take(&self, bucket: &TenantBucket, now: Instant) -> bool {
        let mut bucket = bucket.inner.lock();
        let elapsed = now
            .saturating_duration_since(bucket.refilled_at)
            .as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.cfg.tenant_rate).min(self.cfg.tenant_burst);
        bucket.refilled_at = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Work already accepted but not yet executed: queued query-pool tasks
/// plus queued shard-writer commands.
pub fn engine_depth(metrics: &EngineMetrics) -> u64 {
    use std::sync::atomic::Ordering::Relaxed;
    let pool = metrics.pool.queued_tasks.load(Relaxed);
    let writers: u64 = metrics
        .shards
        .iter()
        .map(|s| s.queue_depth.load(Relaxed))
        .sum();
    pool + writers
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::Relaxed;

    #[test]
    fn default_config_admits_ordinary_traffic() {
        let metrics = EngineMetrics::new(2);
        let ctl = AdmissionController::new(AdmissionConfig::default());
        for _ in 0..10_000 {
            assert_eq!(ctl.check("t1", &metrics), Verdict::Admit);
        }
    }

    #[test]
    fn empty_bucket_throttles_only_its_tenant() {
        let metrics = EngineMetrics::new(1);
        let ctl = AdmissionController::new(AdmissionConfig {
            tenant_rate: 0.001, // effectively no refill within the test
            tenant_burst: 3.0,
            queue_high_water: 16_384,
        });
        for _ in 0..3 {
            assert_eq!(ctl.check("greedy", &metrics), Verdict::Admit);
        }
        assert_eq!(ctl.check("greedy", &metrics), Verdict::TenantThrottled);
        assert_eq!(
            ctl.check("greedy", &metrics).busy_line(),
            Some("BUSY tenant over rate")
        );
        // A different tenant has its own bucket.
        assert_eq!(ctl.check("polite", &metrics), Verdict::Admit);
    }

    #[test]
    fn bucket_refills_over_time() {
        let metrics = EngineMetrics::new(1);
        let ctl = AdmissionController::new(AdmissionConfig {
            tenant_rate: 1000.0,
            tenant_burst: 1.0,
            queue_high_water: 16_384,
        });
        assert_eq!(ctl.check("t", &metrics), Verdict::Admit);
        assert_eq!(ctl.check("t", &metrics), Verdict::TenantThrottled);
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(ctl.check("t", &metrics), Verdict::Admit);
    }

    #[test]
    fn deep_queues_shed_regardless_of_tenant() {
        let metrics = EngineMetrics::new(2);
        let ctl = AdmissionController::new(AdmissionConfig {
            queue_high_water: 10,
            ..AdmissionConfig::default()
        });
        metrics.pool.queued_tasks.store(6, Relaxed);
        metrics.shards[0].queue_depth.store(3, Relaxed);
        metrics.shards[1].queue_depth.store(1, Relaxed);
        assert_eq!(engine_depth(&metrics), 10);
        assert_eq!(ctl.check("anyone", &metrics), Verdict::Admit);
        metrics.shards[1].queue_depth.store(2, Relaxed);
        assert_eq!(ctl.check("anyone", &metrics), Verdict::Overloaded);
        assert_eq!(
            ctl.check("anyone", &metrics).busy_line(),
            Some("BUSY engine overloaded")
        );
    }
}
