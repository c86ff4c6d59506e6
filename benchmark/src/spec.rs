//! The four workloads: what each loads, which engine it runs on, which
//! sections it runs. Every constant that sizes a workload lives here and is
//! echoed in the output.

use std::path::Path;

use dc_serve::{
    CacheConfig, DiskOptions, EngineConfig, OocOptions, PartitionPolicy, PlannerOptions,
    StorageMode, SyncPolicy, WalOptions,
};

/// The primary query family of a workload's closed- and open-loop sections.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Family {
    /// Non-repeating drill-down queries (`gen::narrow`).
    Narrow,
    /// Zipf(θ = 1) draws over 256 roll-up templates (`gen::rollups`).
    Rollups,
}

/// A paced writer on its own connection: `per_sec` times a second, one
/// `INSERT` (`batch == 1`) or `INSERT_BATCH(batch)` of held-out records,
/// followed by a `FLUSH` when `flush` is set.
#[derive(Clone, Copy, Debug)]
pub struct Writer {
    pub batch: usize,
    pub per_sec: f64,
    pub flush: bool,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Records loaded per set-up (per repetition of the durable workload).
    pub records: usize,
    pub primary: Family,
    /// Requests in the fixed list one closed-loop repetition sends.
    pub primary_len: usize,
    /// §5.2 queries in the fixed list one wide repetition sends; 0 when the
    /// workload has no wide phase.
    pub wide_len: usize,
    /// Open-loop arrival rate in requests per second; 0 when the workload
    /// has no open-loop section.
    pub open_rate: f64,
    /// Connections (and client threads) the query sections use.
    pub query_conns: usize,
    /// A writer beside the query sections, on a connection of its own.
    pub writer: Option<Writer>,
    pub cache: bool,
    pub planner: bool,
    /// The ingest workload: WAL with `SyncPolicy::GroupCommitMs(5)`,
    /// deletes after each load barrier, one `CHECKPOINT` at two thirds of
    /// the stream, then the engine is dropped and reopened — and that whole
    /// sequence is the repetition, on a fresh directory each time.
    pub durable: bool,
    /// `StorageMode::Disk` with this many pool frames per shard.
    pub disk_frames: Option<usize>,
    /// Seconds one repetition of the workload's sections takes on the box
    /// the benchmark was sized on; `--seconds` buys `seconds / round_s`
    /// repetitions.
    pub round_s: f64,
}

pub const WORKLOADS: [&str; 4] = [
    "adhoc_resident",
    "dashboard_mixed",
    "ingest_durable",
    "adhoc_disk",
];

/// Shards in every engine; the box has two cores.
pub const NUM_SHARDS: usize = 2;
/// `INSERT_BATCH` size of the load stream.
pub const LOAD_BATCH: usize = 512;
/// A `FLUSH` barrier follows every this many load batches: acks return at
/// enqueue, so without it default admission answers `BUSY engine
/// overloaded` once 16 384 records are queued.
pub const BARRIER_EVERY: usize = 8;
/// Single `DELETE`s after each barrier of the durable load (~5 % of the
/// 4 096 records a barrier covers).
pub const DELETES_PER_BARRIER: usize = 200;
/// Statements in the oracle sample a write-bearing workload is checked on
/// after its final `FLUSH` (and `ingest_durable` again after recovery).
pub const SAMPLE_CHECK: usize = 200;
/// Length of one open-loop repetition.
pub const OPEN_REP_SECONDS: f64 = 1.0;
/// Narrow statements the traced pass replays.
pub const TRACED_NARROW: usize = 500;
/// Roll-up draws the traced pass replays: half of them are mirrored, and
/// the rarest of the four classes is a fifth of the draws.
pub const TRACED_ROLLUPS: usize = 5_400;
/// Records of the load stream the traced pass feeds through the write path
/// layer by layer.
pub const TRACED_INGEST_RECORDS: usize = 50_000;
/// Shard pages per record in disk mode at the default tree configuration,
/// measured once (`oocore.shard_pages` reports the live figure); the pool
/// is sized to a tenth of it.
const DISK_PAGES_PER_RECORD: f64 = 0.0134;

impl Spec {
    /// The workload called `name`; `quick` shrinks it to a smoke test.
    pub fn named(name: &str, quick: bool) -> Option<Spec> {
        let scale = |n: usize| if quick { n / 10 } else { n };
        let spec = match name {
            "adhoc_resident" => Spec {
                name: "adhoc_resident",
                records: scale(200_000),
                primary: Family::Narrow,
                primary_len: scale(400),
                // One full cycle of the 54 level combinations
                // (`gen::wide_level_combinations`), so every repetition
                // poses the same shape mix.
                wide_len: 54,
                open_rate: 0.0,
                query_conns: 2,
                writer: None,
                cache: false,
                planner: false,
                durable: false,
                disk_frames: None,
                round_s: 3.0,
            },
            "dashboard_mixed" => Spec {
                name: "dashboard_mixed",
                records: scale(200_000),
                primary: Family::Rollups,
                primary_len: scale(1_000),
                wide_len: 0,
                // About half of what one connection completes closed-loop
                // beside the writer (470/s): GROUP BY and TOP k templates
                // are not cached and cost 2 ms each at this size.
                open_rate: 250.0,
                query_conns: 1,
                writer: Some(Writer {
                    batch: 1,
                    per_sec: 10.0,
                    flush: true,
                }),
                cache: true,
                planner: true,
                durable: false,
                disk_frames: None,
                round_s: 3.0,
            },
            "ingest_durable" => Spec {
                name: "ingest_durable",
                records: scale(100_000),
                // The oracle sample, asked before the crash and after it.
                primary: Family::Narrow,
                primary_len: SAMPLE_CHECK,
                wide_len: 0,
                open_rate: 0.0,
                query_conns: 1,
                writer: None,
                cache: true,
                planner: false,
                durable: true,
                disk_frames: None,
                round_s: 5.0,
            },
            "adhoc_disk" => {
                let records = scale(60_000);
                let shard_pages = records as f64 / NUM_SHARDS as f64 * DISK_PAGES_PER_RECORD;
                Spec {
                    name: "adhoc_disk",
                    records,
                    primary: Family::Narrow,
                    primary_len: scale(300),
                    wide_len: 0,
                    open_rate: 0.0,
                    query_conns: 1,
                    writer: Some(Writer {
                        batch: 64,
                        per_sec: 4.0,
                        flush: false,
                    }),
                    cache: false,
                    planner: false,
                    durable: false,
                    disk_frames: Some(((shard_pages / 10.0).round() as usize).max(8)),
                    round_s: 2.0,
                }
            }
            _ => return None,
        };
        Some(spec)
    }

    /// Repetitions `--seconds` buys: a function of the argument alone, so
    /// two commits given the same seconds do the same work — and take the
    /// median over the same number of draws.
    pub fn reps(&self, seconds: f64) -> usize {
        ((seconds / self.round_s) as usize).max(3)
    }

    /// Held-out records: what the background writer may consume beside
    /// `reps` repetitions — four times the paced volume of their nominal
    /// length, so that it never runs dry on a slow day — and a few for the
    /// traced pass.
    pub fn held_out(&self, reps: usize) -> usize {
        let nominal_s = (reps + 1) as f64 * self.round_s;
        let background = self.writer.map_or(0, |w| {
            (4.0 * (nominal_s + 5.0) * w.per_sec) as usize * w.batch
        });
        background + 32
    }

    /// `EngineConfig::default()` except what the workload says otherwise.
    pub fn engine_config(&self, data_dir: &Path) -> EngineConfig {
        EngineConfig {
            num_shards: NUM_SHARDS,
            policy: PartitionPolicy::Hash,
            cache: self.cache.then(CacheConfig::default),
            planner: self.planner.then(PlannerOptions::default),
            wal: self.durable.then(|| WalOptions {
                sync: SyncPolicy::GroupCommitMs(5),
                checkpoint_every: 0,
                ..WalOptions::new(data_dir.join("wal"))
            }),
            storage: match self.disk_frames {
                Some(frames) => StorageMode::Disk(DiskOptions {
                    dir: data_dir.join("shards"),
                    ooc: OocOptions {
                        frames,
                        ..OocOptions::default()
                    },
                }),
                None => StorageMode::Resident,
            },
            ..EngineConfig::default()
        }
    }

    /// One line echoing the configuration, printed with the results.
    pub fn describe(&self) -> String {
        format!(
            "records={} shards={NUM_SHARDS} policy=Hash cache={} planner={} wal={} storage={} \
             primary={:?} primary_len={} wide_len={} open_rate={}/s query_conns={} writer={}",
            self.records,
            self.cache,
            self.planner,
            if self.durable {
                "GroupCommitMs(5),checkpoint_every=0"
            } else {
                "off"
            },
            match self.disk_frames {
                Some(f) => format!("Disk(frames={f}/shard)"),
                None => "Resident".into(),
            },
            self.primary,
            self.primary_len,
            self.wide_len,
            self.open_rate,
            self.query_conns,
            match self.writer {
                Some(w) => format!(
                    "{}x{}/s{}",
                    w.batch,
                    w.per_sec,
                    if w.flush { "+FLUSH" } else { "" }
                ),
                None => "none".into(),
            },
        )
    }
}
