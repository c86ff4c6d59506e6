//! The sharded engine: hash- or dimension-partitioned `DcTree` shards, one
//! writer thread per shard fed by an MPSC queue, one published state per
//! shard that every reader starts from, and scatter-gather query merging.
//!
//! # What a publish costs
//!
//! A resident shard's writer owns its tree and, after every batch that
//! changed it, publishes `Arc::new(tree.clone())`. That clone is a snapshot
//! by *path copying*, not a copy of the shard: the arena's nodes and the
//! schema are reference-counted (`dc_tree::store`), so the clone copies one
//! pointer per node, and the writer's next batch copies only the nodes it
//! mutates — a root-to-leaf path per insert, plus what a split creates —
//! the first time it touches them after the publish. The planner's roll-up
//! views are published beside the tree (`RollupViews`). Readers
//! hold the snapshot's `Arc` for the length of a query; a superseded node
//! is freed when the last snapshot referencing it drops. One copy of the
//! cube is in memory, a `FLUSH` costs the barrier and not the shard, and a
//! batch that changed nothing (an idle `FLUSH`, a `DELETE` of an absent
//! record) publishes nothing. The schema is not the shard's to copy: it is
//! a snapshot of the catalog's (see [`crate::catalog`]), shared by every
//! shard and sharing its value storage with the catalog's own hierarchies.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dc_cache::{CacheConfig, CacheDelta, Lookup, SharedCache};
use dc_common::{
    AggregateOp, DcError, DcResult, DimensionId, Level, Measure, MeasureSummary, ValueId,
};
use dc_durable::{
    ship, CheckpointBundle, FetchOutcome, StdFs, SyncPolicy, WalConfig, WalEntry, WalFs, WalOp,
    WalWriter,
};
use dc_hierarchy::{ConceptHierarchy, CubeSchema, Record};
use dc_mds::Mds;
use dc_mview::{rollup_lattice, MaterializedView};
use dc_oocore::{OocDcTree, OocOptions, OocPoolStats, OocStore};
use dc_plan::{
    choose, Backend, BackendRefs, Explain, LogicalPlan, PartitionStats, QueryOutput, ShardExplain,
};
use dc_ql::ParsedStatement;
use dc_tree::{DcTree, DcTreeConfig, NodeStore, PreparedRange};
use parking_lot::{Condvar, Mutex, RwLock};

use crate::catalog::SchemaCatalog;
use crate::checkpoint;
use crate::metrics::EngineMetrics;
use crate::pool::QueryPool;

/// How records map to shards.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PartitionPolicy {
    /// Stable hash over the record's attribute paths. Balanced, but every
    /// query must visit every shard.
    Hash,
    /// Route by the record's ancestor value at `(dim, level)` — e.g. all of
    /// one customer region on one shard. Queries constraining that
    /// dimension prune to the shards owning the matching ancestors, which
    /// is where the sharded engine's query speedup comes from (the same
    /// idea as partitioning a warehouse by its hottest roll-up attribute).
    ByDimension {
        /// The routing dimension.
        dim: DimensionId,
        /// The hierarchy level whose values are distributed over shards.
        level: Level,
    },
}

/// Whether the engine accepts writes or replicates them from a primary.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EngineRole {
    /// The single writable engine: mutations are logged to its WAL, and
    /// followers fetch its segments. The default — a standalone engine is
    /// just a primary nobody replicates.
    #[default]
    Primary,
    /// A read-only replica fed by `dc-replica`: ingest is rejected, state
    /// advances only through [`ShardedDcTree::apply_replicated`], and
    /// promotion (reopening the replicated WAL directory as a `Primary`)
    /// is how it becomes writable. Requires [`EngineConfig::wal`] — the
    /// follower recovers its starting state from the replicated directory,
    /// but opens no WAL writer of its own.
    Follower,
}

/// Write-ahead-log options for a durable engine.
#[derive(Clone, Debug)]
pub struct WalOptions {
    /// Directory holding the WAL segments, manifest, and checkpoint images.
    pub dir: PathBuf,
    /// When appended entries are fsynced. Under
    /// [`SyncPolicy::GroupCommitMs`] the shard writer threads issue a group
    /// commit after each applied batch, so acknowledged `FLUSH`es are
    /// always durable regardless of the cadence.
    pub sync: SyncPolicy,
    /// Segment rotation budget in bytes.
    pub segment_bytes: u64,
    /// Checkpoint automatically after this many logged mutations
    /// (`0` = only on explicit [`ShardedDcTree::checkpoint`] calls).
    pub checkpoint_every: u64,
    /// The filesystem the WAL runs on; `None` = the real one. The
    /// fault-injection harness passes `FaultFs` here.
    pub fs: Option<Arc<dyn WalFs>>,
}

impl WalOptions {
    /// Durable defaults: fsync every append, 4 MiB segments, manual
    /// checkpoints, the real filesystem.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalOptions {
            dir: dir.into(),
            sync: SyncPolicy::Always,
            segment_bytes: WalConfig::default().segment_bytes,
            checkpoint_every: 0,
            fs: None,
        }
    }
}

/// Where shard trees live.
#[derive(Clone, Debug, Default)]
pub enum StorageMode {
    /// Every shard is a RAM-resident [`DcTree`]; a shard publishes
    /// snapshots that share their nodes with the writer's tree (the writer
    /// copies a node on its first mutation after a publish — see the
    /// [module docs](self)). The default, and the fastest when the cube
    /// fits in memory.
    #[default]
    Resident,
    /// Every shard is a disk file of compressed node pages served through
    /// `dc-oocore`'s cache of decoded nodes — the cube may exceed RAM by an
    /// order of magnitude. A shard publishes its disk tree, which a query
    /// reads under the shard's read lock for the length of its descent
    /// there, and STATS grows a `buffer_pool` section.
    /// Descent is its only backend: disk mode rejects
    /// [`EngineConfig::planner`].
    Disk(DiskOptions),
}

/// Options for [`StorageMode::Disk`].
#[derive(Clone, Debug)]
pub struct DiskOptions {
    /// Directory holding one `shard-<i>.dct` paged file per shard. Without
    /// a WAL these files are the only copy of the data; with one they are
    /// working state, rebuilt from checkpoint images on recovery.
    pub dir: PathBuf,
    /// Store knobs (node budget, block size).
    pub ooc: OocOptions,
}

impl DiskOptions {
    /// Disk mode under `dir` with default store options.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DiskOptions {
            dir: dir.into(),
            ooc: OocOptions::default(),
        }
    }
}

/// Turns on the roll-up views the cost-based planner (`dc-plan`) can answer
/// from instead of descending the shard tree: each shard writer keeps the
/// `dc-mview` single-dimension roll-up lattice (one view per dimension and
/// level, plus the grand total) in step with its tree and publishes it
/// atomically with the tree snapshot. An insert merges one cell per view; a
/// delete marks the lattice stale, and the writer rebuilds it from the tree
/// at the next publish. That maintenance is the static-index update cost
/// the paper criticizes, so the views default off. The struct has no
/// fields because there is nothing else to select: the planner's other
/// backend, DC-tree descent, is always there.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlannerOptions;

/// Engine construction knobs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Number of shards (writer threads).
    pub num_shards: usize,
    /// Record → shard mapping.
    pub policy: PartitionPolicy,
    /// Configuration of each shard's `DcTree`, recovered ones included.
    pub tree: DcTreeConfig,
    /// Maximum commands a writer applies before publishing a snapshot.
    pub batch_size: usize,
    /// `Some` makes ingest durable via a shared write-ahead log (reusing
    /// `dc-durable`'s framed WAL); recovery replays it on construction.
    pub wal: Option<WalOptions>,
    /// Worker threads in the persistent work-stealing query pool, which
    /// evaluates multi-shard queries in either storage mode: `None` sizes
    /// it by [`std::thread::available_parallelism`] and starts no pool on a
    /// one-core host, `Some(0)` starts none, `Some(k)` starts `k` workers.
    /// Without a pool every query runs on the calling thread. Each shard is
    /// read from the state it has published — one batch boundary per
    /// shard, whichever thread evaluates it — so both ways answer alike;
    /// the pooled one wins wall-clock only when spare cores exist. The
    /// submitting thread always participates in its own query on top of
    /// these workers.
    pub pool_workers: Option<usize>,
    /// `Some` puts a hierarchy-aware aggregate cache (`dc-cache`) in front
    /// of the scatter-gather path: exact and contained (semantic) hits skip
    /// some or all shard descents, and shard writers patch cached summaries
    /// in place as part of snapshot publication. `None` disables caching —
    /// every query descends the shards (the uncached baseline).
    pub cache: Option<CacheConfig>,
    /// `Some` makes each shard writer maintain the roll-up views (see
    /// [`PlannerOptions`]) alongside its tree, so the cost-based planner
    /// ([`ShardedDcTree::execute`]) can answer a roll-up from a view
    /// instead of descending. `None` (the default) keeps the write path
    /// lean: the planner still runs, but descent is the only candidate.
    pub planner: Option<PlannerOptions>,
    /// Where the shard trees live: RAM-resident (default) or disk-backed
    /// through `dc-oocore`'s node cache. Queries and the cache run the
    /// same code over both; a disk shard maintains only the DC-tree
    /// backend, so disk mode rejects [`EngineConfig::planner`].
    pub storage: StorageMode,
    /// Writable primary (default) or read-only replication follower.
    pub role: EngineRole,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_shards: 4,
            policy: PartitionPolicy::Hash,
            tree: DcTreeConfig::default(),
            batch_size: 128,
            wal: None,
            pool_workers: None,
            cache: Some(CacheConfig::default()),
            planner: None,
            storage: StorageMode::default(),
            role: EngineRole::default(),
        }
    }
}

/// How many replayed WAL entries go through [`ShardedDcTree::submit`] at a
/// time — the frame-group size the wire benchmark loads with.
pub(crate) const REPLAY_CHUNK: usize = 512;

/// One command on a shard's ingest queue.
pub(crate) enum Cmd {
    /// Apply this shard's share of one submitted batch — `(record, delete)`
    /// pairs, pre-resolved against the catalog, in submission order — once
    /// the shard tree has adopted `schema`, the catalog snapshot taken after
    /// the batch was interned. A single `INSERT` or `DELETE` is the batch
    /// of one.
    ///
    /// With `publish` false (a recovered tail's chunk) the writer applies
    /// the ops without publishing for them: the replay's final flush
    /// publishes once.
    Apply {
        ops: Vec<(Record, bool)>,
        schema: Arc<CubeSchema>,
        publish: bool,
    },
    /// Acknowledge once everything enqueued before this command is applied
    /// and visible in a published snapshot.
    Flush(Sender<()>),
    /// Acknowledge once everything enqueued before this command is
    /// applied, visible or not — recovery's pacing fence.
    Applied(Sender<()>),
    /// Adopt the catalog snapshot `schema` and publish, even with no record
    /// traffic — the checkpoint path uses this to give every shard the
    /// catalog's full schema before imaging, so any one shard image can
    /// restore the catalog on recovery.
    Catchup { schema: Arc<CubeSchema> },
    /// Drain the queue, publish, exit.
    Shutdown,
}

/// Where a batch of mutations comes from, which decides whether it is
/// logged and whether the writers publish it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Origin {
    /// A client's write: logged, and published with the batch applying it.
    Client,
    /// Entries a follower mirrored, already durable: published, not logged.
    Replicated,
    /// A recovered tail, replayed before any reader can reach the engine:
    /// neither logged nor published until the replay's final flush.
    Recovered,
}

/// The engine side of a configured WAL: the shared writer plus everything
/// checkpoints need (the filesystem, the directory, the cadence). Attached
/// once recovery has replayed the log; a follower never attaches one.
pub(crate) struct DurableWal {
    pub(crate) writer: Mutex<WalWriter>,
    pub(crate) fs: Arc<dyn WalFs>,
    pub(crate) dir: PathBuf,
    pub(crate) checkpoint_every: u64,
    /// Writers issue a group commit after each published batch (the
    /// [`SyncPolicy::GroupCommitMs`] contract).
    pub(crate) group_commit: bool,
    /// Mutations logged since the last checkpoint (drives auto-checkpoints).
    pub(crate) since_checkpoint: AtomicU64,
    /// Serializes checkpoints; `try_lock` makes concurrent auto-checkpoint
    /// attempts cheap no-ops.
    pub(crate) checkpoint_lock: Mutex<()>,
}

/// The engine's replication frontier: its role and the highest LSN it has
/// applied (logged, on a primary; replicated, on a follower), guarded by a
/// condvar so `WAIT_LSN` waiters block instead of polling.
struct ReplState {
    role: EngineRole,
    applied: Mutex<u64>,
    caught_up: Condvar,
}

/// The tree a shard publishes to its readers.
pub(crate) enum ShardTree {
    /// A resident shard: an immutable snapshot sharing its nodes with the
    /// writer's tree (see the [module docs](self)).
    Snapshot(Arc<DcTree>),
    /// A disk shard: the disk tree itself. A reader takes its read lock
    /// for one evaluation; the writer holds its write lock across a whole
    /// batch *and* the publish that follows, so readers observe pre- or
    /// post-batch state only — the all-or-nothing visibility the snapshot
    /// swap gives a resident shard.
    Disk(Arc<OocDcTree>),
}

/// Evaluates `$read` with `$tree` bound to `$state`'s tree — the snapshot,
/// or the disk tree under its read lock for the length of `$read`. A read
/// counts its own pages ([`DcTree::read_counted`]), in the same logical
/// blocks whichever store holds the shard's nodes.
///
/// A macro because `$read` is generic over the node store, which a closure
/// cannot be. This is the only place the read side asks where a shard's
/// nodes live.
macro_rules! read_tree {
    ($state:expr, |$tree:ident| $read:expr) => {
        match &$state.tree {
            ShardTree::Snapshot(snap) => {
                let $tree: &DcTree = snap;
                $read
            }
            ShardTree::Disk(ooc) => {
                let guard = ooc.read();
                let $tree: &DcTree<OocStore> = &guard;
                $read
            }
        }
    };
}

/// One shard's atomically published state: the tree as readers may use it,
/// the roll-up views built from exactly the same applied prefix, and the
/// publish-time statistics the cost model prices against. A single `Arc`
/// swap publishes all of it, so a query that plans *and* executes from one
/// `PlanState` read sees both backends at the same logical point in time —
/// the property the mid-churn differential tests pin.
pub(crate) struct PlanState {
    pub(crate) tree: ShardTree,
    views: Option<Arc<Vec<MaterializedView>>>,
    stats: PartitionStats,
    /// [`CubeSchema::num_values`] of the shard's schema at publish.
    schema_values: usize,
}

/// The writer-side roll-up views (see [`PlannerOptions`]). They sit behind
/// the `Arc` the last publish handed to readers: the writer mutates through
/// [`Arc::make_mut`], which copies the lattice whole — it is small, one cell
/// per occupied value — on its first mutation after a publish and not again
/// until the next.
pub(crate) struct RollupViews {
    views: Arc<Vec<MaterializedView>>,
    /// Set by deletes (summaries cannot subtract min/max); the views are
    /// rebuilt from the shard tree at the next publish.
    stale: bool,
}

impl RollupViews {
    /// The lattice over the tree's current records (the recovery path:
    /// checkpoint images restore trees, never derived views).
    pub(crate) fn build(tree: &DcTree) -> Self {
        RollupViews {
            views: Arc::new(lattice_of(tree)),
            stale: false,
        }
    }

    fn insert(&mut self, schema: &CubeSchema, record: &Record) {
        if !self.stale {
            for v in Arc::make_mut(&mut self.views) {
                v.apply(schema, record)
                    .expect("catalog-backed insert cannot fail");
            }
        }
    }

    /// Registers a tree-confirmed deletion.
    fn delete(&mut self) {
        self.stale = true;
    }

    /// Deletes cannot be subtracted from roll-up cells: before a publish,
    /// rebuilds a stale lattice from the authoritative tree.
    fn rebuild_if_stale(&mut self, tree: &DcTree) {
        if self.stale {
            self.views = Arc::new(lattice_of(tree));
            self.stale = false;
        }
    }
}

/// The single-dimension roll-up lattice plus the grand total, over every
/// record of `tree`.
fn lattice_of(tree: &DcTree) -> Vec<MaterializedView> {
    let schema = tree.schema();
    let mut views: Vec<MaterializedView> = rollup_lattice(schema)
        .into_iter()
        .map(MaterializedView::new)
        .collect();
    for record in tree.iter_records() {
        for v in &mut views {
            v.apply(schema, record)
                .expect("tree records resolve in their own schema");
        }
    }
    views
}

/// Captures a publish-time [`PlanState`] from the shard tree (`published`
/// is that tree as readers get it) and its roll-up views. The views are
/// handed out by pointer, and stay immutable without a copy: the writer's
/// next mutation goes through [`Arc::make_mut`], which leaves the published
/// value alone (see [`RollupViews`]).
fn capture_plan_state<S: NodeStore>(
    tree: &DcTree<S>,
    published: ShardTree,
    views: Option<&RollupViews>,
) -> Arc<PlanState> {
    let stats = PartitionStats {
        records: tree.len(),
        tree_nodes: tree.num_nodes(),
        tree_height: tree.height(),
        view_cells: views
            .map(|r| {
                r.views
                    .iter()
                    .map(|v| (v.spec().levels.clone(), v.num_cells()))
                    .collect()
            })
            .unwrap_or_default(),
        views_stale: views.is_some_and(|r| r.stale),
    };
    Arc::new(PlanState {
        tree: published,
        views: views.map(|r| Arc::clone(&r.views)),
        stats,
        schema_values: tree.schema().num_values(),
    })
}

impl PlanState {
    /// `true` iff this shard can contribute to `range`. A shard whose
    /// schema is complete (same value total as the catalog snapshot
    /// `catalog_values` counts — shard schemas are earlier snapshots)
    /// covers every valid query by construction, without a look at its
    /// tree; a lagging one is asked per value (see [`shard_covers`]).
    fn covers(&self, range: &Mds, catalog_values: usize) -> bool {
        self.schema_values == catalog_values
            || read_tree!(self, |tree| shard_covers(range, tree.schema()))
    }

    /// `true` iff the shard keeps the engine behind `backend`.
    fn maintains(&self, backend: Backend) -> bool {
        match backend {
            Backend::Descend => true,
            Backend::Mview => self.views.is_some(),
        }
    }

    /// This shard's share of `plan` on `backend`, with the pages it read as
    /// `dc_plan::execute` counts them.
    fn execute(
        &self,
        plan: &LogicalPlan,
        backend: Backend,
        prepared: &PreparedRange,
    ) -> DcResult<(QueryOutput, u64)> {
        read_tree!(self, |tree| dc_plan::execute(
            tree.schema(),
            plan,
            backend,
            &BackendRefs {
                tree,
                views: self.views.as_ref().map(|v| &v[..]),
            },
            prepared,
        ))
    }
}

/// The output of [`ShardedDcTree::compare_backends`]: one merged answer
/// per backend every visited shard maintains, plus the planner's own
/// per-shard mix — all computed from the same published snapshots.
#[derive(Debug)]
pub struct BackendComparison {
    /// Merged output per commonly-available backend, in [`Backend::ALL`]
    /// order.
    pub outputs: Vec<(Backend, QueryOutput)>,
    /// The planner's per-shard choice, executed on the same snapshots.
    pub chosen: QueryOutput,
}

/// The shards one query visits, read and priced once by
/// [`ShardedDcTree::gather`] and evaluated by [`ShardedDcTree::run`].
#[derive(Clone)]
struct Gather {
    /// The catalog snapshot taken after the units' states were read: it
    /// knows every value their trees know, so one preparation against it
    /// serves them all.
    schema: Arc<CubeSchema>,
    /// One fragment per relevant shard, in shard order: the backend it
    /// runs and the planner's estimate. A shard the coverage check skipped
    /// never gets `actual_pages`.
    frags: Vec<ShardExplain>,
    /// The units: each visited shard's fragment index and the state it was
    /// read at.
    units: Vec<(usize, Arc<PlanState>)>,
}

/// A plan that only descends `filter`, grouped at `group_by` when set —
/// what the range-summary, cache-remainder and `group_by` entry points
/// run. Descent ignores the aggregate list, so it is empty.
fn descent_plan(filter: Mds, group_by: Option<(DimensionId, Level)>) -> LogicalPlan {
    LogicalPlan {
        ops: Vec::new(),
        filter,
        group_by,
        top: None,
    }
}

pub(crate) struct Shard {
    tx: Mutex<Option<Sender<Cmd>>>,
    /// The one slot readers start from: the writer swaps a new
    /// [`PlanState`] in after every batch that changed the shard, and a
    /// reader clones the `Arc` out and works without the writer.
    published: Arc<RwLock<Arc<PlanState>>>,
    /// A disk shard's paged file (the checkpointer copies it after a
    /// flush); `None` for a resident shard.
    pub(crate) file: Option<PathBuf>,
    writer: Mutex<Option<JoinHandle<()>>>,
}

/// A sharded, concurrent DC-tree serving engine.
///
/// Records are partitioned over `N` shards, each a [`DcTree`] mutated only
/// by its writer thread; ingest is an MPSC queue per shard. A writer
/// publishes its shard's state after each applied batch, and queries
/// scatter over the relevant shards' published states and merge the
/// per-shard [`MeasureSummary`]s (see the [crate docs](crate) for why that
/// merge is exact). A query never waits on a resident shard's writer; on a
/// disk shard it waits out the batch being applied.
pub struct ShardedDcTree {
    pub(crate) catalog: Arc<SchemaCatalog>,
    pub(crate) shards: Vec<Shard>,
    pub(crate) metrics: Arc<EngineMetrics>,
    policy: PartitionPolicy,
    /// The persistent work-stealing executor (`None` = evaluate multi-shard
    /// queries sequentially on the calling thread). Outlives `shutdown` —
    /// queries keep working against the final published states — and is
    /// joined when the engine drops.
    pool: Option<QueryPool>,
    /// What [`Self::shard_snapshot`] answers for a disk shard, which has
    /// no snapshot: one empty tree (`None` in resident mode).
    no_snapshot: Option<Arc<DcTree>>,
    cache: Option<Arc<SharedCache>>,
    /// The log, shared with the shard writers (see [`DurableWal`]).
    pub(crate) wal: Arc<OnceLock<DurableWal>>,
    /// Ingest holds this for read around {WAL append → enqueue}; the
    /// checkpoint path holds it for write, so its LSN capture sees no
    /// half-enqueued mutation.
    pub(crate) ingest_gate: RwLock<()>,
    /// Role and applied-LSN frontier (see [`ReplState`]).
    repl: ReplState,
}

impl ShardedDcTree {
    /// Builds the engine over `schema` and starts one writer thread per
    /// shard. With [`EngineConfig::wal`] set, the directory is recovered
    /// first — latest checkpoint images + tail-segment replay (with any
    /// torn tail truncated) — before the engine accepts traffic.
    pub fn new(schema: CubeSchema, config: EngineConfig) -> DcResult<Self> {
        assert!(config.num_shards > 0, "need at least one shard");
        assert!(config.batch_size > 0, "batch_size must be positive");
        if config.role == EngineRole::Follower && config.wal.is_none() {
            return Err(DcError::Config(
                "a follower recovers from a replicated WAL directory; set EngineConfig::wal".into(),
            ));
        }
        if config.tree.use_paper_fig7_containment {
            return Err(DcError::Config(
                "the engine serves sound containment only; the paper's Fig. 7 \
                 containment test overcounts (DcTreeConfig::use_paper_fig7_containment)"
                    .into(),
            ));
        }
        if matches!(config.storage, StorageMode::Disk(_)) && config.planner.is_some() {
            return Err(DcError::Config(
                "disk-backed storage maintains only the DC-tree descent backend; \
                 disable the planner's roll-up views"
                    .into(),
            ));
        }
        // Shards and catalog start from the committed checkpoint; the log
        // past it is replayed once the engine runs (`recover_log`).
        let wal_fs: Option<Arc<dyn WalFs>> = config
            .wal
            .as_ref()
            .map(|opts| opts.fs.clone().unwrap_or_else(|| Arc::new(StdFs)));
        let (mut backings, schema) = checkpoint::open_shards(schema, &config, wal_fs.as_deref())?;
        if let PartitionPolicy::ByDimension { dim, level } = config.policy {
            let h = schema.dim(dim);
            assert!(
                level <= h.top_level(),
                "partition level {level} above the hierarchy"
            );
        }
        let catalog = Arc::new(SchemaCatalog::new(schema));
        // Every shard, recovered ones included, shares the catalog's one
        // schema from the start.
        let shared = catalog.current();
        for (backing, _) in &mut backings {
            let adopted = match backing {
                WriterBacking::Resident { tree, .. } => tree.adopt_schema(Arc::clone(&shared)),
                WriterBacking::Disk(tree) => tree.write().adopt_schema(Arc::clone(&shared)),
            };
            adopted.map_err(|_| {
                DcError::Corrupt("a shard knows values its checkpoint's catalog does not".into())
            })?;
        }
        let metrics = Arc::new(EngineMetrics::new(config.num_shards));
        let cache = config.cache.map(|c| Arc::new(SharedCache::new(c)));
        // The log the writers group-commit to is attached after recovery
        // has replayed it; until then the engine logs nothing.
        let wal: Arc<OnceLock<DurableWal>> = Arc::new(OnceLock::new());
        if config.wal.is_some() {
            // The STATS section is gated on participating in replication
            // (any WAL-backed engine can serve fetches; followers count).
            let r = &metrics.replication;
            r.enabled.store(1, Relaxed);
            r.follower
                .store((config.role == EngineRole::Follower) as u64, Relaxed);
        }
        let mut shards = Vec::with_capacity(config.num_shards);
        for (shard_id, (backing, file)) in backings.into_iter().enumerate() {
            let state = match &backing {
                WriterBacking::Resident { tree, views } => capture_plan_state(
                    tree,
                    ShardTree::Snapshot(Arc::new(tree.clone())),
                    views.as_ref(),
                ),
                WriterBacking::Disk(tree) => {
                    capture_plan_state(&tree.read(), ShardTree::Disk(Arc::clone(tree)), None)
                }
            };
            let published = Arc::new(RwLock::new(state));
            let (tx, rx) = channel();
            let writer = spawn_writer(
                shard_id,
                backing,
                Arc::clone(&published),
                rx,
                Arc::clone(&metrics),
                config.batch_size,
                cache.clone(),
                Arc::clone(&wal),
            );
            shards.push(Shard {
                tx: Mutex::new(Some(tx)),
                published,
                file,
                writer: Mutex::new(Some(writer)),
            });
        }
        let no_snapshot = matches!(config.storage, StorageMode::Disk(_))
            .then(|| Arc::new(DcTree::new(CubeSchema::clone(&shared), config.tree)));
        let workers = config.pool_workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .ok()
                .filter(|&p| p > 1)
                .unwrap_or(0)
        });
        let pool = (config.num_shards > 1 && workers >= 1)
            .then(|| QueryPool::new(workers, Arc::clone(&metrics)));
        let engine = ShardedDcTree {
            catalog,
            shards,
            metrics,
            policy: config.policy,
            pool,
            no_snapshot,
            cache,
            wal,
            ingest_gate: RwLock::new(()),
            repl: ReplState {
                role: config.role,
                applied: Mutex::new(0),
                caught_up: Condvar::new(),
            },
        };
        if let (Some(opts), Some(fs)) = (&config.wal, wal_fs) {
            engine.recover_log(opts, fs, config.role)?;
        }
        engine.refresh_pool_gauges();
        Ok(engine)
    }

    /// `true` when the shards are disk-backed ([`StorageMode::Disk`]).
    pub fn is_disk(&self) -> bool {
        self.shards.first().is_some_and(|s| s.file.is_some())
    }

    /// Serializes the STATS payload, refreshing the `buffer_pool` gauges
    /// from the disk shards' node caches first (disk mode only; resident
    /// engines emit no `buffer_pool` section).
    pub fn stats_json(&self) -> String {
        self.refresh_pool_gauges();
        self.metrics.to_json()
    }

    /// Sums the per-shard node-cache counters into the STATS gauges.
    fn refresh_pool_gauges(&self) {
        let mut agg = OocPoolStats::default();
        let mut any = false;
        for shard in &self.shards {
            if let ShardTree::Disk(ooc) = &shard.published.read().tree {
                let s = ooc.pool_stats();
                agg.hits += s.hits;
                agg.misses += s.misses;
                agg.evictions += s.evictions;
                agg.writebacks += s.writebacks;
                agg.resident += s.resident;
                agg.capacity += s.capacity;
                any = true;
            }
        }
        if !any {
            return;
        }
        let bp = &self.metrics.buffer_pool;
        bp.enabled.store(1, Relaxed);
        bp.hits.store(agg.hits, Relaxed);
        bp.misses.store(agg.misses, Relaxed);
        bp.evictions.store(agg.evictions, Relaxed);
        bp.writebacks.store(agg.writebacks, Relaxed);
        bp.resident.store(agg.resident, Relaxed);
        bp.capacity.store(agg.capacity, Relaxed);
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The engine's metric registry.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// The catalog's latest schema snapshot (for parsing dc-ql against).
    /// It shares its value storage with the catalog, so this copies
    /// pointers, not values.
    pub fn schema(&self) -> CubeSchema {
        CubeSchema::clone(&self.catalog.current())
    }

    /// Runs `f` against the catalog's latest schema snapshot. No lock is
    /// held while `f` runs, so resolving a long query does not hold up
    /// ingest's interning.
    pub fn with_schema<R>(&self, f: impl FnOnce(&CubeSchema) -> R) -> R {
        f(&self.catalog.current())
    }

    // ------------------------------------------------------------------
    // Ingest
    // ------------------------------------------------------------------

    /// Asynchronously inserts a raw record (one top→leaf attribute path per
    /// dimension plus the measure). Returns once the record is durably
    /// logged (if a WAL is configured) and enqueued on its shard; call
    /// [`flush`](Self::flush) to wait for visibility.
    pub fn insert_raw<S: AsRef<str>>(&self, paths: &[Vec<S>], measure: Measure) -> DcResult<()> {
        self.ensure_writable()?;
        self.submit(&[(paths, measure, false)], Origin::Client)
    }

    /// Asynchronously inserts a whole batch of raw records — the
    /// `INSERT_BATCH` fast path. The batch is logged as **one WAL frame
    /// group** (one buffered write, one fsync decision), interned once
    /// against the catalog, and handed to each destination shard as a
    /// single command whose writer applies it through the tree's
    /// amortized batch insert. Returns once the group is durably logged
    /// and enqueued; call [`flush`](Self::flush) for visibility.
    pub fn insert_batch_raw<S: AsRef<str>>(
        &self,
        batch: &[(Vec<Vec<S>>, Measure)],
    ) -> DcResult<()> {
        self.ensure_writable()?;
        if batch.is_empty() {
            return Ok(());
        }
        let ops: Vec<WalOp<'_, S>> = batch
            .iter()
            .map(|(paths, measure)| (&paths[..], *measure, false))
            .collect();
        self.submit(&ops, Origin::Client)?;
        self.metrics.insert_batches.fetch_add(1, Relaxed);
        self.metrics
            .insert_batch_records
            .fetch_add(batch.len() as u64, Relaxed);
        Ok(())
    }

    /// Asynchronously deletes one record matching the paths and measure.
    /// A miss is a silent no-op, matching `dc-durable`'s replay contract.
    pub fn delete_raw<S: AsRef<str>>(&self, paths: &[Vec<S>], measure: Measure) -> DcResult<()> {
        self.ensure_writable()?;
        self.submit(&[(paths, measure, true)], Origin::Client)
    }

    fn ensure_writable(&self) -> DcResult<()> {
        if self.repl.role == EngineRole::Follower {
            return Err(DcError::Config(
                "engine is a read-only follower; promote it before writing".into(),
            ));
        }
        Ok(())
    }

    /// The write path: every mutation, live or replayed, enters the engine
    /// here as part of a batch. Resolves `ops` against the catalog, logs
    /// them as one WAL frame group (a client's, with a WAL configured), and
    /// enqueues one [`Cmd::Apply`] per shard they touch, each carrying the
    /// catalog snapshot taken once the batch was interned.
    fn submit<S: AsRef<str>>(&self, ops: &[WalOp<'_, S>], origin: Origin) -> DcResult<()> {
        {
            let _gate = self.ingest_gate.read();
            // Resolve and route the whole batch before logging any of it:
            // one malformed op leaves the WAL untouched instead of poisoning
            // recovery (and every follower tailing the log) with an entry
            // the catalog rejects. An insert interns its paths; a delete
            // only looks them up, so it cannot grow the hierarchy — a miss
            // names no record, is still logged (one LSN per accepted op)
            // and goes to no shard, as `dc_durable::apply` replays it.
            let mut resolved = Vec::with_capacity(ops.len());
            let mut deletes = 0u64;
            for &(paths, measure, delete) in ops {
                deletes += u64::from(delete);
                let record = if delete {
                    self.catalog.lookup(paths, measure)?
                } else {
                    Some(self.catalog.intern(paths, measure)?)
                };
                resolved.extend(record.map(|record| (paths, record, delete)));
            }
            let schema = self.catalog.snapshot();
            let mut per_shard: Vec<Vec<(Record, bool)>> = vec![Vec::new(); self.shards.len()];
            for (paths, record, delete) in resolved {
                per_shard[self.route(paths, &record, &schema)?].push((record, delete));
            }
            if let Some(wal) = self.wal.get().filter(|_| origin == Origin::Client) {
                self.append_wal(wal, ops)?;
            }
            self.metrics.deletes.fetch_add(deletes, Relaxed);
            self.metrics
                .inserts
                .fetch_add(ops.len() as u64 - deletes, Relaxed);
            for (shard, ops) in per_shard.into_iter().enumerate() {
                if ops.is_empty() {
                    continue;
                }
                self.metrics.shards[shard]
                    .queue_depth
                    .fetch_add(ops.len() as u64, Relaxed);
                let schema = Arc::clone(&schema);
                let publish = origin != Origin::Recovered;
                self.send(
                    shard,
                    Cmd::Apply {
                        ops,
                        schema,
                        publish,
                    },
                )?;
            }
        }
        self.maybe_auto_checkpoint()
    }

    /// Logs `ops` as one WAL frame group: the writer lock is taken once and
    /// the configured sync policy decides once for the group. Every op is
    /// its own `Insert` or `Delete` frame with its own LSN, so a batch
    /// replays exactly like the same ops submitted one at a time.
    fn append_wal<S: AsRef<str>>(&self, wal: &DurableWal, ops: &[WalOp<'_, S>]) -> DcResult<()> {
        let lsn = {
            let mut w = wal.writer.lock();
            let lsn = w.append_ops(ops.iter().copied())?;
            self.refresh_wal_gauges(&w);
            lsn
        };
        wal.since_checkpoint.fetch_add(ops.len() as u64, Relaxed);
        self.publish_applied(lsn);
        Ok(())
    }

    /// Copies the WAL writer's counters into the STATS gauges (called with
    /// the writer lock held).
    pub(crate) fn refresh_wal_gauges(&self, w: &WalWriter) {
        let stats = w.stats();
        let d = &self.metrics.durability;
        d.wal_appends.store(stats.appends, Relaxed);
        d.wal_syncs.store(stats.syncs, Relaxed);
        d.wal_rotations.store(stats.rotations, Relaxed);
        d.wal_segment.store(w.segment_seq(), Relaxed);
        d.wal_last_lsn.store(w.lsn(), Relaxed);
        d.wal_synced_lsn.store(w.synced_lsn(), Relaxed);
    }

    pub(crate) fn send(&self, shard: usize, cmd: Cmd) -> DcResult<()> {
        let guard = self.shards[shard].tx.lock();
        let Some(tx) = guard.as_ref() else {
            return Err(DcError::Corrupt("engine is shut down".into()));
        };
        tx.send(cmd)
            .map_err(|_| DcError::Corrupt(format!("shard {shard} writer died")))
    }

    /// The shard a record routes to (`schema` knows the record's values).
    fn route<S: AsRef<str>>(
        &self,
        paths: &[Vec<S>],
        record: &Record,
        schema: &CubeSchema,
    ) -> DcResult<usize> {
        let n = self.shards.len();
        match self.policy {
            PartitionPolicy::Hash => {
                // FNV-1a over the path strings: stable across runs, so a
                // WAL replay routes every record back to some shard
                // deterministically.
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for dim in paths {
                    for name in dim {
                        for b in name.as_ref().bytes() {
                            h ^= u64::from(b);
                            h = h.wrapping_mul(0x1000_0000_01b3);
                        }
                        h ^= 0xff;
                        h = h.wrapping_mul(0x1000_0000_01b3);
                    }
                }
                Ok((h % n as u64) as usize)
            }
            PartitionPolicy::ByDimension { dim, level } => {
                let leaf = record.dims[dim.as_usize()];
                let anchor = schema.dim(dim).ancestor_at(leaf, level)?;
                Ok(anchor.index() as usize % n)
            }
        }
    }

    // ------------------------------------------------------------------
    // Visibility control
    // ------------------------------------------------------------------

    /// Blocks until everything enqueued before this call is applied and
    /// visible in published snapshots, on every shard. Also a durability
    /// barrier: with a WAL configured, everything logged before this call
    /// is synced when it returns — unless the sync failed, which only
    /// [`Self::try_flush`] reports.
    pub fn flush(&self) {
        let _ = self.try_flush();
    }

    /// [`Self::flush`] for a caller that can act on a failed barrier: `Err`
    /// means everything is applied and visible but the log's fsync failed,
    /// so `wal_synced_lsn` stays behind `wal_last_lsn` (a later barrier
    /// retries: the writer stays dirty until a sync succeeds).
    pub fn try_flush(&self) -> DcResult<()> {
        for ack in self.fence(Cmd::Flush) {
            let _ = ack.recv();
        }
        let Some(wal) = self.wal.get() else {
            return Ok(());
        };
        let mut w = wal.writer.lock();
        let synced = w.sync();
        self.refresh_wal_gauges(&w);
        synced
    }

    /// Queues a barrier — [`Cmd::Flush`] or [`Cmd::Applied`] — on every
    /// shard without waiting for it: each receiver answers once its shard
    /// has applied (and, for a flush, published) everything enqueued
    /// before the barrier.
    pub(crate) fn fence(&self, barrier: fn(Sender<()>) -> Cmd) -> Vec<Receiver<()>> {
        (0..self.shards.len())
            .filter_map(|i| {
                let (tx, rx) = channel();
                self.send(i, barrier(tx)).is_ok().then_some(rx)
            })
            .collect()
    }

    /// Stops the engine: writers drain their queues, publish a final
    /// snapshot, and exit; their threads are joined. Queries keep working
    /// against the final snapshots; further ingest fails.
    pub fn shutdown(&self) {
        for shard in &self.shards {
            let tx = shard.tx.lock().take();
            if let Some(tx) = tx {
                let _ = tx.send(Cmd::Shutdown);
                // Sender drops here; the writer drains what's left.
            }
            let writer = shard.writer.lock().take();
            if let Some(writer) = writer {
                let _ = writer.join();
            }
        }
        if let Some(wal) = self.wal.get() {
            let _ = wal.writer.lock().sync();
        }
        // Disk shards: leave a complete on-disk image behind (writers are
        // joined, so nothing mutates underneath the flush).
        for shard in &self.shards {
            if let ShardTree::Disk(ooc) = &shard.published.read().tree {
                let _ = ooc.flush();
            }
        }
    }

    // ------------------------------------------------------------------
    // Replication
    // ------------------------------------------------------------------

    /// The engine's replication role.
    pub fn role(&self) -> EngineRole {
        self.repl.role
    }

    /// The replication frontier. On a primary: the highest LSN logged to
    /// its WAL — what a client quotes to a follower's `WAIT_LSN` to read
    /// its own write. On a follower: the highest LSN applied *and
    /// visible* (published after each replicated batch is flushed). `0`
    /// before any mutation.
    pub fn applied_lsn(&self) -> u64 {
        *self.repl.applied.lock()
    }

    /// Applies WAL entries that are already durable in a segment — a
    /// recovered tail, or what a follower just mirrored — through the write
    /// path, pulling `REPLAY_CHUNK` entries from `entries` at a time, so
    /// a streamed source is never held whole: nothing is logged again, and
    /// the read-only guard does not apply. The applied frontier does NOT
    /// advance here: [`flush`](Self::flush), then
    /// [`publish_applied`](Self::publish_applied) — so `WAIT_LSN n`
    /// returning means LSN `n` is both applied *and visible* to queries
    /// (the read-your-LSN contract).
    pub fn apply_replicated(&self, entries: impl IntoIterator<Item = WalEntry>) -> DcResult<()> {
        self.apply_durable(entries, Origin::Replicated)
    }

    /// [`Self::apply_replicated`] for entries of either durable origin.
    pub(crate) fn apply_durable(
        &self,
        entries: impl IntoIterator<Item = WalEntry>,
        origin: Origin,
    ) -> DcResult<()> {
        let mut entries = entries.into_iter();
        let mut chunk = Vec::with_capacity(REPLAY_CHUNK);
        loop {
            chunk.extend(entries.by_ref().take(REPLAY_CHUNK));
            if chunk.is_empty() {
                return Ok(());
            }
            let ops: Vec<WalOp<'_, String>> = chunk.iter().map(WalEntry::as_op).collect();
            self.submit(&ops, origin)?;
            drop(ops);
            chunk.clear();
        }
    }

    /// Advances the replication frontier to `lsn` (monotonic max) and
    /// wakes `WAIT_LSN` waiters. A primary's write path calls this with
    /// each LSN it logs; a follower calls it only once every entry up to
    /// `lsn` is visible (after [`flush`](Self::flush)).
    pub fn publish_applied(&self, lsn: u64) {
        let mut applied = self.repl.applied.lock();
        if lsn > *applied {
            *applied = lsn;
            self.metrics.replication.applied_lsn.store(lsn, Relaxed);
            self.repl.caught_up.notify_all();
        }
    }

    /// Blocks until [`applied_lsn`](Self::applied_lsn) reaches `lsn` (the
    /// read-your-LSN barrier behind `WAIT_LSN` / `MIN_LSN`). Returns the
    /// applied LSN at wake-up, or [`DcError::Config`] on timeout.
    pub fn wait_lsn(&self, lsn: u64, timeout: Duration) -> DcResult<u64> {
        self.metrics.replication.waits.fetch_add(1, Relaxed);
        let deadline = Instant::now() + timeout;
        let mut applied = self.repl.applied.lock();
        while *applied < lsn {
            let now = Instant::now();
            if now >= deadline {
                self.metrics.replication.wait_timeouts.fetch_add(1, Relaxed);
                return Err(DcError::Config(format!(
                    "WAIT_LSN {lsn} timed out at applied lsn {}",
                    *applied
                )));
            }
            let _ = self.repl.caught_up.wait_for(&mut applied, deadline - now);
        }
        Ok(*applied)
    }

    /// Serves a follower's log fetch from this engine's WAL directory:
    /// every live segment holding entries past `from_lsn`, or a
    /// `NeedCheckpoint` redirect when `from_lsn` predates the oldest
    /// retained segment. Requires a WAL (primary side of replication).
    pub fn fetch_segments(&self, from_lsn: u64) -> DcResult<FetchOutcome> {
        let Some(wal) = self.wal.get() else {
            return Err(DcError::Config(
                "engine has no WAL to replicate from; configure EngineConfig::wal".into(),
            ));
        };
        let out = ship::fetch_segments(&*wal.fs, &wal.dir, from_lsn)?;
        let r = &self.metrics.replication;
        r.segment_fetches.fetch_add(1, Relaxed);
        match &out {
            FetchOutcome::NeedCheckpoint { .. } => {
                r.checkpoint_redirects.fetch_add(1, Relaxed);
            }
            FetchOutcome::Segments(segs) => {
                r.segments_shipped.fetch_add(segs.len() as u64, Relaxed);
                let bytes: u64 = segs.iter().map(|s| s.bytes.len() as u64).sum();
                r.bytes_shipped.fetch_add(bytes, Relaxed);
            }
        }
        Ok(out)
    }

    /// Serves the latest committed checkpoint bundle (manifest + shard
    /// images) for a follower bootstrap. Requires a WAL.
    pub fn fetch_checkpoint(&self) -> DcResult<CheckpointBundle> {
        let Some(wal) = self.wal.get() else {
            return Err(DcError::Config(
                "engine has no WAL to replicate from; configure EngineConfig::wal".into(),
            ));
        };
        let bundle = ship::fetch_checkpoint(&*wal.fs, &wal.dir)?;
        self.metrics
            .replication
            .checkpoint_fetches
            .fetch_add(1, Relaxed);
        Ok(bundle)
    }

    /// What shard `s` has published, cloned out of its slot.
    pub(crate) fn published(&self, s: usize) -> Arc<PlanState> {
        Arc::clone(&self.shards[s].published.read())
    }

    /// The published snapshot of one resident shard (primarily for tests
    /// and tools). A disk-backed shard publishes its disk tree, not a
    /// snapshot: this answers with an empty tree — query through the
    /// engine instead.
    pub fn shard_snapshot(&self, shard: usize) -> Arc<DcTree> {
        match &self.published(shard).tree {
            ShardTree::Snapshot(snap) => Arc::clone(snap),
            ShardTree::Disk(_) => Arc::clone(self.no_snapshot.as_ref().expect("set in disk mode")),
        }
    }

    /// Total records across the shards, as of each shard's last publish
    /// (takes no tree lock, so it never queues behind a writer's batch).
    pub fn len(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.published.read().stats.records)
            .sum()
    }

    /// `true` when no shard has published any record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs the DC-tree's structural invariant checker over every shard as
    /// readers see it.
    pub fn check_invariants(&self) -> DcResult<()> {
        (0..self.shards.len())
            .try_for_each(|s| read_tree!(self.published(s), |tree| tree.check_invariants()))
    }

    // ------------------------------------------------------------------
    // Queries (scatter-gather over published shard states)
    // ------------------------------------------------------------------

    /// The merged summary of all records inside `range`, across shards —
    /// answered from the aggregate cache when possible.
    pub fn range_summary(&self, range: &Mds) -> DcResult<MeasureSummary> {
        let t0 = Instant::now();
        // A full summary exposes MIN/MAX, so delete-degraded cache entries
        // may not serve it.
        let total = self.cached_summary(&descent_plan(range.clone(), None), true, None)?;
        self.metrics.queries.fetch_add(1, Relaxed);
        self.metrics.query_latency.record(t0.elapsed());
        Ok(total)
    }

    /// Answers the scalar `plan` through the cache: exact hit → no
    /// descent; semantic hit → descend only the remainder MDSs and merge
    /// onto the cached base; miss → full descent. `gathered` is a gather of
    /// `plan` whose every unit descends; it is run wherever no cache
    /// version pins the states. Computed summaries are inserted back unless
    /// a snapshot publish intervened (the version check in `dc-cache` — a
    /// summary computed from superseded snapshots must not be cached).
    ///
    /// The lookup runs against the catalog's latest snapshot, which knows
    /// every value of the query and of every cached entry; it takes no
    /// catalog lock.
    fn cached_summary(
        &self,
        plan: &LogicalPlan,
        need_extrema: bool,
        gathered: Option<Gather>,
    ) -> DcResult<MeasureSummary> {
        let Some(cache) = &self.cache else {
            return Ok(self.descend(plan, gathered)?.0);
        };
        let range = &plan.filter;
        let t0 = Instant::now();
        let schema = self.catalog.current();
        // Partial-width MDSs (fewer dims than the schema) bypass the cache:
        // containment and delta matching assume full width.
        let looked = if range.num_dims() == schema.num_dims() {
            Some(cache.lookup(&schema, range, need_extrema)?)
        } else {
            None
        };
        let cm = &self.metrics.cache;
        cm.lookup_latency.record(t0.elapsed());
        match looked {
            None => Ok(self.descend(plan, gathered)?.0),
            Some(Lookup::Hit(summary)) => {
                cm.hits.fetch_add(1, Relaxed);
                Ok(summary)
            }
            Some(Lookup::Semantic {
                base,
                exact_extrema,
                remainders,
                version,
            }) => {
                cm.semantic_hits.fetch_add(1, Relaxed);
                let mut total = base;
                let mut pages = 0;
                for term in remainders {
                    let (part, p) = self.descend(&descent_plan(term, None), None)?;
                    total.merge(&part);
                    pages += p;
                }
                // Only an extrema-exact base yields a summary fit to cache.
                if exact_extrema {
                    self.note_insert(cache, version, range, total, pages);
                }
                Ok(total)
            }
            Some(Lookup::Miss { version }) => {
                cm.misses.fetch_add(1, Relaxed);
                // `gathered` may hold states older than the version the
                // lookup pinned; what is cached must be read after it.
                let (total, pages) = self.descend(plan, None)?;
                self.note_insert(cache, version, range, total, pages);
                Ok(total)
            }
        }
    }

    /// Descends `plan` on every shard it visits — `gathered`, or a fresh
    /// gather — returning the merged summary and the pages the descents
    /// read (the benefit a future cache hit reaps).
    fn descend(
        &self,
        plan: &LogicalPlan,
        gathered: Option<Gather>,
    ) -> DcResult<(MeasureSummary, u64)> {
        let gather = match gathered {
            Some(gather) => gather,
            None => self.gather(plan, Some(Backend::Descend))?,
        };
        let (out, explain) = self.run(plan, gather)?;
        let QueryOutput::Scalar(total) = out else {
            unreachable!("an ungrouped descent answers with a scalar")
        };
        Ok((total, explain.actual_pages))
    }

    /// Inserts a freshly computed summary, updating the cache metrics.
    fn note_insert(
        &self,
        cache: &SharedCache,
        version: u64,
        range: &Mds,
        summary: MeasureSummary,
        pages: u64,
    ) {
        let Some(stats) = cache.insert_if_current(version, range.clone(), summary, pages) else {
            return;
        };
        let cm = &self.metrics.cache;
        cm.insertions.fetch_add(1, Relaxed);
        cm.evictions.fetch_add(stats.evictions, Relaxed);
        cm.entries.store(stats.entries, Relaxed);
    }

    /// Picks the units `plan` visits — the one place a query does. Reads
    /// each relevant shard's published [`PlanState`] once, fails with
    /// [`DcError::Config`] naming the backend when a shard does not
    /// maintain the one the query is `force`d onto, and skips a shard that
    /// cannot contribute (no query value interned in some dimension) before
    /// it becomes a unit. Unforced, it prices the backends of every unit
    /// against one catalog snapshot and keeps the cheapest; a forced gather
    /// prices nothing, so its fragments carry no estimate.
    ///
    /// The snapshot the units are checked, priced and later prepared
    /// against is taken *after* their states are read: snapshots only
    /// grow, and a shard's schema is one the catalog published earlier, so
    /// it knows every value a unit's tree knows.
    fn gather(&self, plan: &LogicalPlan, force: Option<Backend>) -> DcResult<Gather> {
        let shards = self.relevant_shards(&self.catalog.current(), &plan.filter)?;
        // Pre-sized once: per-query allocation count must not grow with the
        // number of visited shards (asserted by `query_bench`).
        let mut frags = Vec::with_capacity(shards.len());
        let mut units = Vec::with_capacity(shards.len());
        for shard in shards {
            let state = self.published(shard);
            if let Some(b) = force.filter(|&b| !state.maintains(b)) {
                return Err(DcError::Config(format!(
                    "shard {shard} does not maintain the {b} backend it was forced onto"
                )));
            }
            units.push((frags.len(), state));
            frags.push(ShardExplain {
                shard,
                backend: force.unwrap_or(Backend::Descend),
                est_pages: 0.0,
                actual_pages: None,
            });
        }
        let schema = self.catalog.current();
        let catalog_values = schema.num_values();
        units.retain(|(_, state)| state.covers(&plan.filter, catalog_values));
        if force.is_none() {
            for (i, state) in &units {
                let choice = choose(&schema, plan, &state.stats);
                frags[*i].backend = choice.backend;
                frags[*i].est_pages = choice.est_pages;
            }
        }
        Ok(Gather {
            schema,
            frags,
            units,
        })
    }

    /// Runs a gather of `plan`: prepares the filter **once** against the
    /// gather's catalog snapshot, evaluates every unit's backend on the
    /// state it was read at — on the query pool when one exists and more
    /// than one unit is left, on the calling thread otherwise — and merges
    /// the outputs and the measured pages in shard order.
    ///
    /// One preparation serves every shard: shard schemas are earlier
    /// snapshots of the same catalog, so they are prefixes of the gather's
    /// — same `ValueId`s, same parents — and the traversal only ever probes
    /// shard-known values against the prepared bitsets.
    fn run(&self, plan: &LogicalPlan, gather: Gather) -> DcResult<(QueryOutput, Explain)> {
        let Gather {
            schema,
            mut frags,
            units,
        } = gather;
        let prepared = PreparedRange::new(&schema, &plan.filter)?;
        self.metrics
            .shard_visits
            .fetch_add(units.len() as u64, Relaxed);
        let mut out = QueryOutput::empty(plan.group_by.is_some());
        match &self.pool {
            Some(pool) if units.len() > 1 => {
                let work = units
                    .into_iter()
                    .map(|(i, state)| (frags[i].shard, (i, state, frags[i].backend)))
                    .collect();
                let ran = pool.scatter_eval(
                    (prepared, plan.clone()),
                    work,
                    |(prepared, plan), (i, state, backend)| {
                        Ok((*i, state.execute(plan, *backend, prepared)?))
                    },
                )?;
                for (i, (part, pages)) in ran {
                    out.merge(&part);
                    frags[i].actual_pages = Some(pages);
                }
            }
            _ => {
                for (i, state) in units {
                    let (part, pages) = state.execute(plan, frags[i].backend, &prepared)?;
                    out.merge(&part);
                    frags[i].actual_pages = Some(pages);
                }
            }
        }
        let shards = &self.metrics.shards;
        for frag in &frags {
            if let Some(pages) = frag.actual_pages {
                shards[frag.shard].io_reads.fetch_add(pages, Relaxed);
            }
        }
        Ok((out, Explain::from_shards(frags)))
    }

    /// One aggregate over `range` (`None` when the op is undefined on an
    /// empty selection, e.g. `AVG`). SUM/COUNT/AVG tolerate cache entries
    /// whose extrema were degraded by deletes; MIN/MAX do not.
    pub fn range_query(&self, range: &Mds, op: AggregateOp) -> DcResult<Option<f64>> {
        let t0 = Instant::now();
        let plan = LogicalPlan::scalar(op, range.clone());
        let total = self.cached_summary(&plan, plan.needs_extrema(), None)?;
        self.metrics.queries.fetch_add(1, Relaxed);
        self.metrics.query_latency.record(t0.elapsed());
        Ok(total.eval(op))
    }

    /// Grouped summaries at `(dim, level)` under `filter`, merged across
    /// shards. Groups are keyed by `ValueId`, which the catalog keeps
    /// consistent across all shards, so same-key merging is sound.
    pub fn group_by(
        &self,
        dim: DimensionId,
        level: Level,
        filter: &Mds,
    ) -> DcResult<Vec<(ValueId, MeasureSummary)>> {
        let t0 = Instant::now();
        let plan = descent_plan(filter.clone(), Some((dim, level)));
        let gather = self.gather(&plan, Some(Backend::Descend))?;
        let QueryOutput::Grouped(groups) = self.run(&plan, gather)?.0 else {
            unreachable!("a grouped descent answers with groups")
        };
        self.metrics.queries.fetch_add(1, Relaxed);
        self.metrics.query_latency.record(t0.elapsed());
        Ok(groups)
    }

    // ------------------------------------------------------------------
    // Planned queries (dc-plan)
    // ------------------------------------------------------------------

    /// Executes a resolved dc-ql statement through the cost-based planner:
    /// each visited shard prices the backends it maintains against its
    /// publish-time [`PartitionStats`] and runs the cheapest one. A scalar
    /// plan whose every shard picks DC-tree descent takes the cached path
    /// instead, so the aggregate cache keeps serving the workloads it
    /// already accelerates.
    pub fn execute(&self, stmt: &ParsedStatement) -> DcResult<QueryOutput> {
        let t0 = Instant::now();
        let plan = LogicalPlan::from_statement(stmt);
        self.metrics.plan.plans.fetch_add(1, Relaxed);
        let gather = self.gather(&plan, None)?;
        let descends = |(i, _): &(usize, _)| gather.frags[*i].backend == Backend::Descend;
        let out = if plan.group_by.is_none() && gather.units.iter().all(descends) {
            self.metrics
                .plan
                .chosen(Backend::Descend)
                .fetch_add(1, Relaxed);
            QueryOutput::Scalar(self.cached_summary(&plan, plan.needs_extrema(), Some(gather))?)
        } else {
            let (out, explain) = self.run(&plan, gather)?;
            self.note_plan_metrics(&explain);
            out
        };
        self.metrics.queries.fetch_add(1, Relaxed);
        self.metrics.query_latency.record(t0.elapsed());
        Ok(out)
    }

    /// Plans and executes `stmt`, returning the answer plus the full
    /// `EXPLAIN` record: chosen backend, estimated vs. measured page
    /// reads, and per-shard plan fragments. Always takes the per-shard
    /// measured path (no cache), since EXPLAIN is the diagnostic view.
    pub fn explain(&self, stmt: &ParsedStatement) -> DcResult<(QueryOutput, Explain)> {
        let t0 = Instant::now();
        let plan = LogicalPlan::from_statement(stmt);
        self.metrics.plan.plans.fetch_add(1, Relaxed);
        self.metrics.plan.explains.fetch_add(1, Relaxed);
        let (out, explain) = self.run(&plan, self.gather(&plan, None)?)?;
        self.note_plan_metrics(&explain);
        self.metrics.queries.fetch_add(1, Relaxed);
        self.metrics.query_latency.record(t0.elapsed());
        Ok((out, explain))
    }

    /// Executes with the backend choice overridden on every shard — the
    /// "always-X" baseline benches and tests compare the planner against.
    /// Prices nothing, so the explain record carries measured pages only,
    /// and does not touch the planner counters. Fails with
    /// [`DcError::Config`] naming the backend when a shard the query would
    /// visit does not maintain it, in either storage mode.
    pub fn execute_forced(
        &self,
        stmt: &ParsedStatement,
        backend: Backend,
    ) -> DcResult<(QueryOutput, Explain)> {
        let plan = LogicalPlan::from_statement(stmt);
        self.run(&plan, self.gather(&plan, Some(backend))?)
    }

    /// Evaluates `stmt` on **every** backend the visited shards all
    /// maintain, plus the planner's per-shard choice, from one gather — one
    /// atomically acquired `PlanState` per shard — so on resident shards,
    /// even under concurrent ingest/delete churn, every returned output
    /// describes the same published data and must agree. (A disk shard's
    /// state is its live tree, locked once per evaluation: its outputs
    /// agree between writer batches. It maintains descent only, so the
    /// comparison there is descent against the planner's choice of
    /// descent.) This is the differential suite's hook; it bypasses the
    /// cache and the planner counters.
    pub fn compare_backends(&self, stmt: &ParsedStatement) -> DcResult<BackendComparison> {
        let plan = LogicalPlan::from_statement(stmt);
        let gather = self.gather(&plan, None)?;
        let comparable = |b: Backend| {
            gather
                .units
                .iter()
                .all(|(_, st)| st.maintains(b) && !(b == Backend::Mview && st.stats.views_stale))
        };
        let mut outputs = Vec::new();
        for backend in Backend::ALL.into_iter().filter(|&b| comparable(b)) {
            let mut forced = gather.clone();
            for (i, _) in &forced.units {
                forced.frags[*i].backend = backend;
            }
            match self.run(&plan, forced) {
                Ok((out, _)) => outputs.push((backend, out)),
                // No lattice view answers this query shape on some shard —
                // the backend is simply not comparable here.
                Err(DcError::IncomparableMds(_)) if backend == Backend::Mview => {}
                Err(e) => return Err(e),
            }
        }
        let chosen = self.run(&plan, gather)?.0;
        Ok(BackendComparison { outputs, chosen })
    }

    /// Folds one planned query's explain record into the `plan` counters.
    fn note_plan_metrics(&self, explain: &Explain) {
        let pm = &self.metrics.plan;
        pm.chosen(explain.backend).fetch_add(1, Relaxed);
        pm.est_pages
            .fetch_add(explain.est_pages.round() as u64, Relaxed);
        pm.actual_pages.fetch_add(explain.actual_pages, Relaxed);
        let est = explain.est_pages.max(1.0);
        let actual = (explain.actual_pages as f64).max(1.0);
        if actual / est > 2.0 || est / actual > 2.0 {
            pm.mispredictions.fetch_add(1, Relaxed);
        }
    }

    /// The summary of the whole cube (merged shard totals). Fails when a
    /// disk shard's root page cannot be read.
    pub fn total_summary(&self) -> DcResult<MeasureSummary> {
        let mut total = MeasureSummary::empty();
        for s in 0..self.shards.len() {
            total.merge(&read_tree!(self.published(s), |tree| tree.total_summary())?);
        }
        Ok(total)
    }

    /// The shards a query must visit. Under `Hash` that is all of them;
    /// under `ByDimension` the query's constraint on the routing dimension
    /// prunes to the shards owning the matching partition-level ancestors.
    fn relevant_shards(&self, schema: &CubeSchema, range: &Mds) -> DcResult<Vec<usize>> {
        let n = self.shards.len();
        let all = || (0..n).collect::<Vec<_>>();
        let PartitionPolicy::ByDimension { dim, level } = self.policy else {
            return Ok(all());
        };
        if range.num_dims() <= dim.as_usize() {
            return Ok(all());
        }
        let set = range.dim(dim.as_usize());
        let h = schema.dim(dim);
        if set.level() >= h.top_level() {
            return Ok(all()); // unconstrained (ALL)
        }
        let mut mask = vec![false; n];
        if set.level() <= level {
            // Query at or below the partition level: each value has one
            // owning ancestor.
            for &v in set.values() {
                mask[h.ancestor_at(v, level)?.index() as usize % n] = true;
            }
        } else {
            // Query coarser than the partition level: a value owns every
            // partition-level descendant shard.
            for v in h.values_at(level) {
                if set.contains_value(h.ancestor_at(v, set.level())?) {
                    mask[v.index() as usize % n] = true;
                }
            }
        }
        let mut hits = Vec::with_capacity(n);
        hits.extend(
            mask.into_iter()
                .enumerate()
                .filter_map(|(i, hit)| hit.then_some(i)),
        );
        Ok(hits)
    }
}

impl Drop for ShardedDcTree {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ShardedDcTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDcTree")
            .field("shards", &self.shards.len())
            .field("policy", &self.policy)
            .field("len", &self.len())
            .finish()
    }
}

/// `true` iff the shard can contribute anything to `range`: in every
/// dimension, at least one query value is interned in the shard's schema.
/// A shard that lags the catalog cannot hold records under values it never
/// interned, so a dimension with no known value proves the shard's answer
/// empty — the query skips it without a descent (and without a
/// `shard_visits` tick).
fn shard_covers(range: &Mds, schema: &CubeSchema) -> bool {
    range.dims().enumerate().all(|(d, set)| {
        let h: &ConceptHierarchy = schema.dim(DimensionId(d as u16));
        set.values().iter().any(|&v| h.contains(v))
    })
}

/// Where a shard writer's tree lives — which decides how a batch is made
/// exclusive and how it becomes visible; everything else about the writer
/// loop is the same.
// One value per writer thread, moved once at spawn: not worth a `Box`.
#[allow(clippy::large_enum_variant)]
pub(crate) enum WriterBacking {
    /// The writer owns the tree (and the planner's roll-up views beside
    /// it); after each batch it publishes a snapshot of both.
    Resident {
        tree: DcTree,
        views: Option<RollupViews>,
    },
    /// Readers share the disk tree ([`ShardTree::Disk`]), so the writer
    /// holds its **write lock across the whole batch and [`publish`]**.
    Disk(Arc<OocDcTree>),
}

/// One writer thread's loop state: what every command it applies needs.
struct Writer {
    shard_id: usize,
    /// The shard's slot (see [`Shard::published`]).
    published: Arc<RwLock<Arc<PlanState>>>,
    metrics: Arc<EngineMetrics>,
    cache: Option<Arc<SharedCache>>,
    /// Whether the tree changed since the last publish.
    mutated: bool,
    /// Whether the current batch holds a command whose effect must be
    /// published: an [`Cmd::Apply`] that asks for it, or a catch-up.
    publish_asked: bool,
    pending_flushes: Vec<Sender<()>>,
    /// With a cache configured, the record-level changes of the current
    /// batch (deletes only when the shard tree actually held the record — a
    /// routed-away or already-removed record must not be subtracted from
    /// cached summaries).
    deltas: Vec<CacheDelta>,
    shutting_down: bool,
}

/// Starts a shard's writer thread: drains its queue in batches, adopts each
/// command's catalog snapshot, applies (collecting cache deltas), then
/// publishes — patching the aggregate cache atomically with the publish
/// when a cache is configured.
#[allow(clippy::too_many_arguments)]
fn spawn_writer(
    shard_id: usize,
    mut backing: WriterBacking,
    published: Arc<RwLock<Arc<PlanState>>>,
    rx: Receiver<Cmd>,
    metrics: Arc<EngineMetrics>,
    batch_size: usize,
    cache: Option<Arc<SharedCache>>,
    wal: Arc<OnceLock<DurableWal>>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("dc-shard-{shard_id}"))
        .spawn(move || {
            let mut w = Writer {
                shard_id,
                published,
                metrics,
                cache,
                mutated: false,
                publish_asked: false,
                pending_flushes: Vec::new(),
                deltas: Vec::new(),
                shutting_down: false,
            };
            // Block for the first command, then opportunistically drain up
            // to a batch; `Err` means all senders are gone.
            while let Ok(first) = rx.recv() {
                let mut batch = vec![first];
                while batch.len() < batch_size {
                    match rx.try_recv() {
                        Ok(cmd) => batch.push(cmd),
                        Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
                    }
                }
                let published = match &mut backing {
                    WriterBacking::Resident { tree, views } => {
                        apply_batch(&mut w, batch, &rx, tree, views.as_mut());
                        let due = w.publish_due();
                        if due {
                            if let Some(views) = views.as_mut() {
                                views.rebuild_if_stale(tree);
                            }
                            let snap = ShardTree::Snapshot(Arc::new(tree.clone()));
                            publish(&mut w, tree, snap, views.as_ref());
                        }
                        due
                    }
                    WriterBacking::Disk(ooc) => {
                        let mut tree = ooc.write();
                        apply_batch(&mut w, batch, &rx, &mut tree, None);
                        let due = w.publish_due();
                        if due {
                            publish(&mut w, &tree, ShardTree::Disk(Arc::clone(ooc)), None);
                        }
                        // The write lock drops here: the batch and its cache
                        // version bump become visible together.
                        due
                    }
                };
                if !published && !w.pending_flushes.is_empty() {
                    // A flush of a shard nothing has touched since its last
                    // publish: what readers see already is the tree, so the
                    // barrier holds without publishing again.
                    w.metrics.shards[shard_id]
                        .snapshot_published_at
                        .store(w.metrics.now_nanos().max(1), Relaxed);
                }
                // Group commit: under `GroupCommitMs` this writer syncs the
                // shared WAL after publishing its batch, before any flush is
                // acknowledged — an acked FLUSH is both visible and durable.
                if let Some(wal) = wal.get().filter(|w| w.group_commit) {
                    if published || !w.pending_flushes.is_empty() {
                        let _ = wal.writer.lock().group_commit();
                    }
                }
                for ack in w.pending_flushes.drain(..) {
                    let _ = ack.send(());
                }
                if w.shutting_down {
                    break;
                }
            }
            w.metrics.shards[shard_id].queue_depth.store(0, Relaxed);
        })
        .expect("spawn shard writer")
}

impl Writer {
    /// Whether the batch just applied ends in a publish: the tree changed
    /// since the last one, and the batch asked for it, holds a flush, or
    /// shuts the writer down.
    fn publish_due(&self) -> bool {
        self.mutated
            && (self.publish_asked || !self.pending_flushes.is_empty() || self.shutting_down)
    }
}

/// Applies `batch` to `tree` — and, once it holds a `Shutdown`, whatever is
/// still queued behind it — leaving in `w.mutated` whether the tree changed
/// since the last publish and in `w.publish_asked` whether the batch asks
/// for one.
fn apply_batch<S: NodeStore>(
    w: &mut Writer,
    batch: Vec<Cmd>,
    rx: &Receiver<Cmd>,
    tree: &mut DcTree<S>,
    mut views: Option<&mut RollupViews>,
) {
    w.publish_asked = false;
    let before = tree.io_stats();
    for cmd in batch {
        apply(w, cmd, tree, views.as_deref_mut());
    }
    if w.shutting_down {
        // Drain whatever is still queued before exiting.
        while let Ok(cmd) = rx.try_recv() {
            apply(w, cmd, tree, views.as_deref_mut());
        }
    }
    // A resident writer's tree has no readers, and a disk shard's wait on
    // its write lock: the difference is the batch's own I/O.
    let (io, shard) = (tree.io_stats(), &w.metrics.shards[w.shard_id]);
    shard.io_reads.fetch_add(io.reads - before.reads, Relaxed);
    shard
        .io_writes
        .fetch_add(io.writes - before.writes, Relaxed);
}

/// Applies one command to the shard tree, wherever its nodes live (`views`
/// are the resident planner's roll-up views; disk shards maintain descent
/// only). The
/// schema is catalog-backed, so a failing mutation is store I/O failure on
/// a disk shard and a bug on a resident one: either way the writer panics,
/// poisoning the shard.
fn apply<S: NodeStore>(
    w: &mut Writer,
    cmd: Cmd,
    tree: &mut DcTree<S>,
    mut views: Option<&mut RollupViews>,
) {
    let Writer {
        shard_id,
        metrics,
        cache,
        mutated,
        publish_asked,
        pending_flushes,
        deltas,
        shutting_down,
        ..
    } = w;
    let shard_metrics = &metrics.shards[*shard_id];
    match cmd {
        Cmd::Apply {
            ops,
            schema,
            publish,
        } => {
            *publish_asked |= publish;
            // A recovered chunk patches no cache: no reader has reached the
            // engine yet, so nothing is cached.
            let mut deltas = (cache.is_some() && publish).then_some(deltas);
            let t0 = Instant::now();
            adopt(tree, schema);
            let n = ops.len() as u64;
            let mut ops = ops.into_iter().peekable();
            while ops.peek().is_some() {
                // A maximal run of inserts, possibly empty, is one tree batch…
                let run: Vec<Record> = std::iter::from_fn(|| ops.next_if(|(_, delete)| !delete))
                    .map(|(record, _)| record)
                    .collect();
                for record in &run {
                    if let Some(deltas) = deltas.as_deref_mut() {
                        deltas.push(CacheDelta {
                            record: record.clone(),
                            delete: false,
                        });
                    }
                    if let Some(views) = views.as_deref_mut() {
                        views.insert(tree.schema(), record);
                    }
                }
                *mutated |= !run.is_empty();
                tree.insert_batch(run).expect("shard insert failed");
                // …and what ended the run, if anything, is a delete.
                if let Some((record, _)) = ops.next() {
                    // `false`: the record never existed on this shard — the
                    // documented no-op; what readers see stays exact.
                    if tree.delete(&record).expect("shard delete failed") {
                        if let Some(views) = views.as_deref_mut() {
                            views.delete();
                        }
                        if let Some(deltas) = deltas.as_deref_mut() {
                            deltas.push(CacheDelta {
                                record,
                                delete: true,
                            });
                        }
                        *mutated = true;
                    }
                }
            }
            let elapsed = t0.elapsed();
            metrics.batch_apply_latency.record(elapsed);
            metrics
                .apply_latency
                .record(elapsed / u32::try_from(n).unwrap_or(u32::MAX));
            shard_metrics.queue_depth.fetch_sub(n, Relaxed);
            shard_metrics.applied.fetch_add(n, Relaxed);
        }
        Cmd::Flush(ack) => pending_flushes.push(ack),
        // Commands apply in order, so everything queued before this one
        // has been applied.
        Cmd::Applied(ack) => {
            let _ = ack.send(());
        }
        Cmd::Catchup { schema } => {
            adopt(tree, schema);
            // Force a publish: the checkpoint path images what is published
            // (the resident snapshot; a disk shard's flushed file), which
            // must carry the caught-up schema.
            *mutated = true;
            *publish_asked = true;
        }
        Cmd::Shutdown => *shutting_down = true,
    }
}

/// Moves a shard tree onto the catalog snapshot `schema` unless the tree
/// already holds a later one. Concurrent submits can enqueue their
/// snapshots out of order, but each snapshot extends every earlier one, so
/// the one with more values is the later.
fn adopt<S: NodeStore>(tree: &mut DcTree<S>, schema: Arc<CubeSchema>) {
    if schema.num_values() > tree.schema().num_values() {
        tree.adopt_schema(schema)
            .expect("catalog snapshots extend each other");
    }
}

/// Publishes the shard as the batch just applied left it — `tree`, which
/// readers get as `published` — and updates its gauges. With a cache
/// configured, the batch's deltas are applied to cached summaries and the
/// slot is swapped *under the cache lock* (one version bump covers both),
/// so a cached answer always corresponds to some published state a
/// bypassing query could have seen; and the tree and the roll-up views sit
/// in the one [`PlanState`] swapped, so they can never be observed at
/// different batch points. On a disk shard the caller still holds the
/// tree's write lock: no reader is inside the tree, so none can pair a
/// pre-batch answer with the post-batch cache version, or the reverse.
fn publish<S: NodeStore>(
    w: &mut Writer,
    tree: &DcTree<S>,
    published: ShardTree,
    views: Option<&RollupViews>,
) {
    let state = capture_plan_state(tree, published, views);
    let metrics = &w.metrics;
    let shard_metrics = &metrics.shards[w.shard_id];
    shard_metrics.snapshot_records.store(tree.len(), Relaxed);
    shard_metrics
        .snapshot_published_at
        .store(metrics.now_nanos().max(1), Relaxed);
    shard_metrics.publishes.fetch_add(1, Relaxed);
    let slot = &w.published;
    let swap = move || *slot.write() = state;
    match &w.cache {
        Some(cache) => {
            // The shard tree adopted every snapshot of this batch, so its
            // schema resolves all delta values.
            let (stats, ()) = cache.publish(tree.schema(), &w.deltas, swap);
            metrics.cache.patches.fetch_add(stats.patches, Relaxed);
            metrics
                .cache
                .invalidations
                .fetch_add(stats.invalidations, Relaxed);
        }
        None => swap(),
    }
    w.deltas.clear();
    w.mutated = false;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two submits can enqueue their catalog snapshots out of order: a
    /// writer that already holds the later snapshot must keep it when the
    /// earlier one arrives, not fail to move back.
    #[test]
    fn adopt_skips_a_snapshot_older_than_the_one_held() {
        let data = dc_tpcd::generate(&dc_tpcd::TpcdConfig::scaled(64, 5));
        let catalog = SchemaCatalog::new(dc_tpcd::cube_schema());
        let mut tree = DcTree::new(
            CubeSchema::clone(&catalog.current()),
            DcTreeConfig::default(),
        );
        let (first, rest) = data.records.split_at(32);
        let snapshot_after = |records: &[dc_hierarchy::Record]| {
            for r in records {
                catalog.intern(&data.paths_for(r), r.measure).unwrap();
            }
            catalog.snapshot()
        };
        let older = snapshot_after(first);
        let newer = snapshot_after(rest);
        assert!(newer.num_values() > older.num_values());

        adopt(&mut tree, Arc::clone(&newer));
        adopt(&mut tree, older);
        assert!(
            std::ptr::eq(tree.schema(), Arc::as_ptr(&newer)),
            "the writer moved back to the older snapshot"
        );
    }

    /// The engine prepares every range soundly: a tree configuration that
    /// asks for the paper's Fig. 7 containment test, which overcounts, is
    /// refused rather than served.
    #[test]
    fn paper_fig7_containment_is_a_config_error() {
        let config = EngineConfig {
            tree: DcTreeConfig {
                use_paper_fig7_containment: true,
                ..DcTreeConfig::default()
            },
            ..EngineConfig::default()
        };
        let engine = ShardedDcTree::new(dc_tpcd::cube_schema(), config);
        assert!(matches!(engine, Err(DcError::Config(_))));
    }
}
