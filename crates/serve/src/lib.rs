//! # dc-serve
//!
//! A sharded, concurrent OLAP serving engine over the DC-tree, with a
//! newline-delimited dc-ql network front-end.
//!
//! The paper's DC-tree removes the warehouse's nightly batch window: one
//! index that absorbs updates while answering aggregate queries. This
//! crate takes the next systems step and turns that single-writer index
//! into a serving engine:
//!
//! * [`ShardedDcTree`] partitions records across `N` shards (each a
//!   [`dc_tree::DcTree`], in memory or paged through `dc-oocore`), one MPSC
//!   ingest queue + writer thread per shard, and one `Arc`-published state
//!   per shard that every query starts from — a snapshot of a resident
//!   shard, so queries never block on its writer. Every mutation reaches
//!   those queues the same way: a single `INSERT` or `DELETE`, an
//!   `INSERT_BATCH`, a recovered WAL tail and a follower's shipped segment
//!   are all batches of ops through one write path, applied by each shard
//!   in submission order;
//! * [`serve_reactor`] exposes the engine over TCP, speaking dc-ql
//!   (`SUM WHERE … GROUP BY …`) plus `INSERT`/`DELETE`/`STATS`/`FLUSH`
//!   verbs as newline text or pipelined binary frames — see [`protocol`]
//!   and [`codec`] for the wire formats;
//! * [`EngineMetrics`] tracks throughput, queue depths, snapshot ages,
//!   per-shard page I/O and latency percentiles, served via `STATS`.
//!
//! ## Why the shard merge is exact
//!
//! Every query is answered per shard and merged. This is *exact*, not
//! approximate, because everything the engine serves is derived from
//! [`dc_common::MeasureSummary`] `{sum, count, min, max}`, and summaries
//! form a commutative monoid under [`dc_common::MeasureSummary::merge`]:
//! the summary of a disjoint union of record sets equals the merge of the
//! per-set summaries, in any order. Shards partition the records (each
//! record lives on exactly one shard), so for any range MDS `Q`
//!
//! ```text
//! summary(Q, all records) = merge over shards s of summary(Q, records(s))
//! ```
//!
//! and every aggregate the engine exposes — `SUM`, `COUNT`, `AVG` =
//! sum/count, `MIN`, `MAX` — is a function *of the merged summary*, so the
//! scatter-gather answer is bit-identical to a monolithic DC-tree over the
//! same records (asserted by `tests/differential.rs`). Two details make
//! the per-shard evaluation well-defined:
//!
//! * **One ID space.** The [`SchemaCatalog`] is the engine's only
//!   interner. Each submitted batch is interned there, and every shard the
//!   batch reaches adopts the catalog snapshot taken after it (through
//!   [`dc_tree::DcTree::adopt_schema`]) before applying its records. A
//!   `ValueId` therefore denotes the same attribute value in every shard —
//!   which is what makes merging `GROUP BY` rows by key sound — and the
//!   shards share one hierarchy instead of keeping copies.
//! * **Shared range preparation.** The query's level-bitsets are adapted
//!   **once** against a catalog snapshot taken after the shards' states
//!   were read ([`dc_tree::PreparedRange`]) and shared by every shard
//!   evaluation: a shard schema is an earlier snapshot, so a prefix of
//!   that one (same `ValueId`s, same parents), and the traversal only
//!   probes shard-known values against the prepared bitsets, so the shared
//!   preparation answers exactly like a per-shard one. A shard that lags
//!   the catalog and knows *none* of a dimension's query values cannot
//!   hold a matching record, so it is skipped outright ([`engine`]'s
//!   `shard_covers`) — before it costs a descent or a `shard_visits` tick.
//!
//! ## The query executor
//!
//! Every query — a range summary, a cache remainder, a `group_by`, a
//! planned, explained or forced statement — takes one scatter: the engine
//! gathers the shards it visits once (reading each published state,
//! skipping shards that cannot contribute, pricing the backends), then
//! runs them on a persistent work-stealing pool ([`EngineConfig::pool_workers`],
//! sized by `available_parallelism`) when more than one is left, over
//! resident and disk shards alike. A per-shard task is that shard's
//! published state (a disk shard's is read under its lock, for the task's
//! own evaluation only) and carries a shard-affinity hint, idle workers
//! steal the oldest queued task, the submitting thread executes unclaimed
//! tasks of its own query inline, and independent connections pipeline
//! their scatters through the same workers instead of spawning threads
//! per query. Pool gauges (queue depth, busy workers, steals, task
//! latency) are served under `"pool"` in `STATS`.
//!
//! ## Where the speedup comes from
//!
//! With [`PartitionPolicy::ByDimension`], records are routed by their
//! ancestor at a chosen hierarchy level (say `Customer.Region`), and a
//! query constraining that dimension is only sent to the shards owning the
//! matching ancestors — the rest are pruned. Each visited shard also
//! descends a tree ~`1/N` the size. This prunes *logical work*, so it
//! speeds up aggregate throughput even on a single core, and it composes
//! with real parallelism on multi-core hosts.

pub mod admission;
pub mod catalog;
mod checkpoint;
pub mod codec;
pub mod engine;
pub mod metrics;
mod pool;
pub mod protocol;
pub mod reactor;

pub use admission::{AdmissionConfig, AdmissionController, Verdict};
pub use catalog::SchemaCatalog;
pub use dc_cache::CacheConfig;
pub use dc_durable::{CheckpointBundle, FetchOutcome, SegmentShipment, StdFs, SyncPolicy, WalFs};
pub use dc_oocore::OocOptions;
pub use dc_plan::{Backend, Explain, QueryOutput};
pub use engine::{
    BackendComparison, DiskOptions, EngineConfig, EngineRole, PartitionPolicy, PlannerOptions,
    ShardedDcTree, StorageMode, WalOptions,
};
pub use metrics::{
    BufferPoolMetrics, CacheMetrics, DurabilityMetrics, EngineMetrics, LatencyHistogram,
    PlanMetrics, PoolMetrics, ReplicationMetrics,
};
pub use reactor::{serve_reactor, ReactorConfig, ServerHandle};
