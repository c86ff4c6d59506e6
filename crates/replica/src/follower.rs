//! The follower: bootstraps a local replica of the primary's WAL
//! directory, tails new segments into it, applies the entries to a
//! read-only engine, and — on failover — promotes that directory into a
//! writable primary.
//!
//! The follower's local directory is a byte-for-byte (clean-prefix)
//! mirror of the primary's: shipped checkpoint images and segment deltas
//! are appended and fsynced before their entries are applied, so at every
//! instant the directory recovers — through the ordinary `dc-durable`
//! recovery path — to exactly the applied prefix. Promotion is therefore
//! just "reopen the directory with [`EngineRole::Primary`]": recovery
//! seals any torn tail and the engine opens a WAL writer at the next LSN.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use dc_common::DcResult;
use dc_durable::{
    checkpoint_file_name, parse_segment_file_name, segment_file_name, CheckpointBundle,
    FetchOutcome, StdFs, WalFs,
};
use dc_hierarchy::CubeSchema;
use dc_serve::{EngineConfig, EngineRole, ShardedDcTree, WalOptions};
use parking_lot::{Mutex, RwLock};

use crate::source::LogSource;

/// How a [`Follower`] is built and paced.
pub struct FollowerConfig {
    /// The follower's local replica directory (its mirror of the
    /// primary's WAL directory, and the directory promotion reopens).
    pub dir: PathBuf,
    /// The filesystem the replica directory lives on; `None` = the real
    /// one. The fault matrix passes `FaultFs` here to crash the follower
    /// mid-install.
    pub fs: Option<Arc<dyn WalFs>>,
    /// How often the tailing thread polls the source.
    pub poll_interval: Duration,
    /// The follower engine's knobs (shard count must match the primary's
    /// checkpoints). `role` and `wal` are overridden — the follower always
    /// runs as [`EngineRole::Follower`] over [`FollowerConfig::dir`].
    pub engine: EngineConfig,
}

impl FollowerConfig {
    /// A follower over `dir` with default engine knobs and a 20 ms poll.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        FollowerConfig {
            dir: dir.into(),
            fs: None,
            poll_interval: Duration::from_millis(20),
            engine: EngineConfig::default(),
        }
    }

    fn wal_options(&self, fs: &Arc<dyn WalFs>) -> WalOptions {
        let mut opts = WalOptions::new(&self.dir);
        opts.fs = Some(Arc::clone(fs));
        opts
    }
}

/// What one [`Follower::poll_once`] did.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Progress {
    /// The source had nothing past the applied frontier.
    Idle,
    /// This many new entries were persisted and applied.
    Applied(u64),
    /// The primary GC'd the follower's position; the follower wiped its
    /// directory and re-bootstrapped from the checkpoint at this LSN.
    Resynced(u64),
}

/// A read-only replica: a local mirror of the primary's WAL directory
/// plus a [`ShardedDcTree`] follower engine serving snapshot reads from
/// it. See the module docs for the durability contract.
pub struct Follower {
    source: Box<dyn LogSource>,
    fs: Arc<dyn WalFs>,
    dir: PathBuf,
    schema: CubeSchema,
    engine_config: EngineConfig,
    poll_interval: Duration,
    engine: RwLock<Arc<ShardedDcTree>>,
    /// Local byte length of each mirrored segment — how much of a shipped
    /// segment is already on disk (only the delta past it is appended).
    seg_lens: Mutex<HashMap<u64, u64>>,
    /// Serializes poll/resync against each other (tailing thread vs.
    /// manual [`Follower::poll_once`] calls).
    poll_lock: Mutex<()>,
    stop: AtomicBool,
    tail_thread: Mutex<Option<JoinHandle<()>>>,
}

impl Follower {
    /// Bootstraps a follower: if the local directory has no manifest yet,
    /// the source's latest checkpoint bundle is installed (images first,
    /// manifest last — the manifest write is the atomic commit); then the
    /// follower engine recovers from the directory. `schema` must be the
    /// primary's base schema — a recovered checkpoint image overrides it
    /// (images carry the full interned schema), it only seeds a follower
    /// of a never-checkpointed primary, whose WAL replay re-interns every
    /// value anyway. Call [`catch_up`](Self::catch_up) or
    /// [`start_tailing`](Self::start_tailing) afterwards to replay the
    /// log tail.
    pub fn bootstrap(
        source: impl LogSource + 'static,
        schema: CubeSchema,
        config: FollowerConfig,
    ) -> DcResult<Self> {
        let fs: Arc<dyn WalFs> = config.fs.clone().unwrap_or_else(|| Arc::new(StdFs));
        fs.create_dir_all(&config.dir)?;
        if dc_durable::Manifest::load(&*fs, &config.dir)?.is_none() {
            let bundle = source.fetch_checkpoint()?;
            install_bundle(&*fs, &config.dir, &bundle)?;
        }
        let mut engine_config = config.engine.clone();
        engine_config.role = EngineRole::Follower;
        engine_config.wal = Some(config.wal_options(&fs));
        // A checkpoint image fixes the shard count; adopt the primary's
        // instead of making callers mirror its config by hand. (A manifest
        // with `shards == 0` is a never-checkpointed log — any count
        // works, so the configured one stands.)
        if let Some(manifest) = dc_durable::Manifest::load(&*fs, &config.dir)? {
            if manifest.shards > 0 {
                engine_config.num_shards = manifest.shards as usize;
            }
        }
        let engine = Arc::new(ShardedDcTree::new(schema, engine_config.clone())?);
        let schema = engine.schema();
        // Seed the mirror lengths AFTER engine recovery: recovery repairs
        // (truncates) any torn local tail first, so these lengths describe
        // clean frames only and delta-appends stay aligned.
        let seg_lens = scan_segment_lens(&*fs, &config.dir)?;
        Ok(Follower {
            source: Box::new(source),
            fs,
            dir: config.dir,
            schema,
            engine_config,
            poll_interval: config.poll_interval,
            engine: RwLock::new(engine),
            seg_lens: Mutex::new(seg_lens),
            poll_lock: Mutex::new(()),
            stop: AtomicBool::new(false),
            tail_thread: Mutex::new(None),
        })
    }

    /// The follower engine (serve reads from it; it rejects writes).
    /// Re-fetch after a [`Progress::Resynced`] poll — resync swaps in a
    /// fresh engine.
    pub fn engine(&self) -> Arc<ShardedDcTree> {
        Arc::clone(&self.engine.read())
    }

    /// The highest LSN applied and visible on the follower.
    pub fn applied_lsn(&self) -> u64 {
        self.engine.read().applied_lsn()
    }

    /// One replication round trip: fetch segments past the applied
    /// frontier, persist the deltas (fsynced) into the local mirror, apply
    /// the new entries, and flush them visible. A `NeedCheckpoint`
    /// redirect triggers a full resync instead.
    pub fn poll_once(&self) -> DcResult<Progress> {
        let _serialize = self.poll_lock.lock();
        let engine = self.engine();
        let from = engine.applied_lsn() + 1;
        match self.source.fetch_segments(from)? {
            FetchOutcome::NeedCheckpoint { .. } => {
                drop(engine);
                self.resync().map(Progress::Resynced)
            }
            FetchOutcome::Segments(segments) => {
                let mut applied = from - 1;
                let mut count = 0u64;
                for seg in &segments {
                    self.mirror_segment(seg.seq, &seg.bytes)?;
                    // Streamed: the engine pulls one replay chunk of the
                    // segment's unapplied frames at a time.
                    let fresh = seg.entries().filter_map(|(lsn, entry)| {
                        (lsn > applied).then(|| {
                            applied = lsn;
                            count += 1;
                            entry
                        })
                    });
                    engine.apply_replicated(fresh)?;
                }
                if count == 0 {
                    return Ok(Progress::Idle);
                }
                // Visibility before frontier: a `WAIT_LSN` that returns
                // must read its write.
                engine.flush();
                engine.publish_applied(applied);
                Ok(Progress::Applied(count))
            }
        }
    }

    /// Appends the unseen suffix of a shipped segment to the local mirror
    /// and fsyncs it — before any of its entries are applied, so the
    /// mirror always recovers to at least the applied prefix.
    fn mirror_segment(&self, seq: u64, bytes: &[u8]) -> DcResult<()> {
        let mut lens = self.seg_lens.lock();
        let have = *lens.get(&seq).unwrap_or(&0);
        let want = bytes.len() as u64;
        if want <= have {
            return Ok(());
        }
        let path = self.dir.join(segment_file_name(seq));
        let mut file = self.fs.create_append(&path)?;
        file.write_all(&bytes[have as usize..])?;
        file.sync()?;
        lens.insert(seq, want);
        Ok(())
    }

    /// Polls until the source has nothing new (two consecutive idle
    /// rounds bound races with a live writer). Returns the applied LSN.
    pub fn catch_up(&self) -> DcResult<u64> {
        let mut idle = 0;
        while idle < 2 {
            match self.poll_once()? {
                Progress::Idle => idle += 1,
                _ => idle = 0,
            }
        }
        Ok(self.applied_lsn())
    }

    /// The primary discarded the log the follower needs (checkpoint +
    /// segment GC passed our position): wipe the mirror, reinstall the
    /// latest checkpoint bundle, and swap in a freshly recovered engine.
    fn resync(&self) -> DcResult<u64> {
        let bundle = self.source.fetch_checkpoint()?;
        let old = {
            let engine = self.engine.read();
            Arc::clone(&engine)
        };
        old.shutdown();
        for name in self.fs.list(&self.dir)? {
            self.fs.remove(&self.dir.join(&name))?;
        }
        install_bundle(&*self.fs, &self.dir, &bundle)?;
        let engine = Arc::new(ShardedDcTree::new(
            self.schema.clone(),
            self.engine_config.clone(),
        )?);
        let lsn = engine.applied_lsn();
        *self.seg_lens.lock() = scan_segment_lens(&*self.fs, &self.dir)?;
        *self.engine.write() = engine;
        Ok(lsn)
    }

    /// Spawns the tailing thread: poll, sleep `poll_interval`, repeat
    /// until [`stop_tailing`](Self::stop_tailing). Fetch errors are
    /// retried on the next tick (a restarting primary looks like a
    /// transient error).
    pub fn start_tailing(self: &Arc<Self>) {
        let mut slot = self.tail_thread.lock();
        if slot.is_some() {
            return;
        }
        self.stop.store(false, Ordering::SeqCst);
        let me = Arc::clone(self);
        *slot = Some(std::thread::spawn(move || {
            while !me.stop.load(Ordering::SeqCst) {
                let _ = me.poll_once();
                std::thread::sleep(me.poll_interval);
            }
        }));
    }

    /// Stops and joins the tailing thread (idempotent).
    pub fn stop_tailing(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.tail_thread.lock().take() {
            let _ = handle.join();
        }
    }

    /// Failover: stop tailing, shut the read-only engine down, and reopen
    /// the mirrored directory as a writable primary. The follower is
    /// consumed — the returned engine owns the directory now.
    pub fn promote(self) -> DcResult<ShardedDcTree> {
        self.stop_tailing();
        self.engine.read().shutdown();
        promote_dir(
            Arc::clone(&self.fs),
            &self.dir,
            self.schema.clone(),
            self.engine_config.clone(),
        )
    }
}

/// Opens a replica directory as a writable primary — ordinary recovery
/// (checkpoint images + tail replay, torn tail sealed) with
/// [`EngineRole::Primary`], so the engine comes up LSN-continuous and
/// accepting writes. Usable without a [`Follower`] value: after a crash,
/// failover only needs the directory.
pub fn promote_dir(
    fs: Arc<dyn WalFs>,
    dir: &Path,
    schema: CubeSchema,
    mut config: EngineConfig,
) -> DcResult<ShardedDcTree> {
    config.role = EngineRole::Primary;
    let mut wal = WalOptions::new(dir);
    if let Some(prior) = config.wal.take() {
        wal.sync = prior.sync;
        wal.segment_bytes = prior.segment_bytes;
        wal.checkpoint_every = prior.checkpoint_every;
    }
    wal.fs = Some(fs);
    config.wal = Some(wal);
    ShardedDcTree::new(schema, config)
}

/// Installs a checkpoint bundle into an empty (or wiped) directory:
/// images first (appended + fsynced), manifest last as the atomic commit.
fn install_bundle(fs: &dyn WalFs, dir: &Path, bundle: &CheckpointBundle) -> DcResult<()> {
    let lsn = bundle.manifest.checkpoint_lsn;
    if lsn > 0 {
        for (shard, bytes) in bundle.images.iter().enumerate() {
            let path = dir.join(checkpoint_file_name(lsn, shard as u32));
            if fs.read(&path)?.is_some() {
                fs.remove(&path)?;
            }
            // Appended (not write_atomic) so the fault matrix can tear
            // and fsync-fail the install like any other replica write.
            let mut file = fs.create_append(&path)?;
            file.write_all(bytes)?;
            file.sync()?;
        }
    }
    bundle.manifest.store(fs, dir)
}

/// Byte lengths of the segment files in `dir` (the local mirror state).
fn scan_segment_lens(fs: &dyn WalFs, dir: &Path) -> DcResult<HashMap<u64, u64>> {
    let mut lens = HashMap::new();
    for name in fs.list(dir)? {
        if let Some(seq) = parse_segment_file_name(&name) {
            if let Some(bytes) = fs.read(&dir.join(&name))? {
                lens.insert(seq, bytes.len() as u64);
            }
        }
    }
    Ok(lens)
}
