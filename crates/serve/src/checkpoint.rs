//! Checkpoints and recovery of a durable [`ShardedDcTree`].
//!
//! Every image is a shard file: a disk shard's flushed file, or a resident
//! snapshot copied into one ([`dc_oocore::write_image`]), committed by one
//! arm. Recovery lays every image down as a shard file and opens it
//! through the paged store, so a WAL directory reopens in either mode.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::Receiver;
use std::sync::Arc;

use dc_common::{DcError, DcResult};
use dc_durable::{
    checkpoint_file_name, is_scratch_image_name, parse_checkpoint_file_name, scratch_image_name,
    Manifest, SyncPolicy, WalConfig, WalFs, WalReader, WalWriter,
};
use dc_hierarchy::CubeSchema;
use dc_oocore::{read_image, write_image, OocDcTree, OocOptions};
use dc_storage::PagedFile;
use dc_tree::DcTree;
use parking_lot::Mutex;

use crate::engine::{
    Cmd, DurableWal, EngineConfig, EngineRole, Origin, RollupViews, ShardTree, ShardedDcTree,
    StorageMode, WalOptions, WriterBacking, REPLAY_CHUNK,
};

/// Builds every shard's writer backing (with a disk shard's file) and the
/// schema the catalog starts from: the shards the WAL directory's
/// committed checkpoint holds, or fresh ones over `schema`. The engine then
/// has every shard adopt the catalog's snapshot of that schema, so the
/// copies the images were read into are dropped.
#[allow(clippy::type_complexity)]
pub(crate) fn open_shards(
    schema: CubeSchema,
    config: &EngineConfig,
    wal_fs: Option<&dyn WalFs>,
) -> DcResult<(Vec<(WriterBacking, Option<PathBuf>)>, CubeSchema)> {
    let wal = config.wal.as_ref().zip(wal_fs);
    // The images the manifest commits, in shard order (none before the
    // first checkpoint), once any scratch image a crash left is gone.
    let mut images = Vec::new();
    if let Some((opts, fs)) = wal {
        fs.create_dir_all(&opts.dir)?;
        for name in fs.list(&opts.dir)? {
            if is_scratch_image_name(&name) {
                fs.remove(&opts.dir.join(&name))?;
            }
        }
        let manifest = Manifest::load(fs, &opts.dir)?.unwrap_or(Manifest::EMPTY);
        images = manifest.image_names()?;
        if !images.is_empty() && images.len() != config.num_shards {
            return Err(DcError::Config(format!(
                "checkpoint was taken with {} shards, engine configured with {}",
                images.len(),
                config.num_shards
            )));
        }
    }
    let disk = match &config.storage {
        StorageMode::Resident => None,
        StorageMode::Disk(opts) => {
            std::fs::create_dir_all(&opts.dir)?;
            Some(opts)
        }
    };
    // Roll-up views are rebuilt from the (possibly recovered) tree:
    // checkpoint images restore trees, never derived views.
    let resident = |tree: DcTree| WriterBacking::Resident {
        views: config.planner.map(|_| RollupViews::build(&tree)),
        tree,
    };
    let mut backings = Vec::with_capacity(config.num_shards);
    for i in 0..config.num_shards {
        let file = disk.map(|opts| opts.dir.join(format!("shard-{i}.dct")));
        let backing = match (images.get(i), disk.zip(file.as_ref())) {
            (None, None) => resident(DcTree::new(schema.clone(), config.tree)),
            (None, Some((opts, file))) => {
                let tree = OocDcTree::create(file, schema.clone(), config.tree, opts.ooc)?;
                WriterBacking::Disk(Arc::new(tree))
            }
            (Some(image), shard) => {
                // Lay the image down as a shard file — a disk shard's own,
                // a resident shard's scratch image — and drop its bytes, so
                // recovery holds one image at a time.
                let (opts, fs) = wal.expect("images come from a WAL");
                let bytes = fs
                    .read(&opts.dir.join(image))?
                    .ok_or_else(|| DcError::Corrupt(format!("missing checkpoint image {image}")))?;
                let scratch = opts.dir.join(scratch_image_name(i as u32));
                let path = file.clone().unwrap_or(scratch);
                std::fs::write(&path, bytes)?;
                match shard {
                    // A shard file keeps the page size it was written with.
                    Some((disk, _)) => {
                        let block = PagedFile::block_of(&path)?;
                        let ooc = OocOptions { block, ..disk.ooc };
                        WriterBacking::Disk(Arc::new(OocDcTree::open(&path, config.tree, ooc)?))
                    }
                    None => {
                        let tree = read_image(&path, config.tree);
                        std::fs::remove_file(&path)?;
                        resident(tree?)
                    }
                }
            }
        };
        backings.push((backing, file));
    }
    // Before imaging, the checkpoint path hands every shard the catalog's
    // latest snapshot, so every image carries the complete master schema —
    // shard 0's restores the catalog exactly.
    let schema = match &backings[0].0 {
        _ if images.is_empty() => schema,
        WriterBacking::Resident { tree, .. } => tree.schema().clone(),
        WriterBacking::Disk(tree) => tree.read().schema().clone(),
    };
    Ok((backings, schema))
}

impl ShardedDcTree {
    /// Replays the WAL past the checkpoint in one pass — each frame handed
    /// to the write path as the scan validates it, in [`REPLAY_CHUNK`]s,
    /// torn tail repaired — then, on a primary, attaches the log for
    /// appending. Recovery holds one segment and one chunk, never the tail,
    /// and logs nothing again (a double-open must not duplicate entries).
    /// No reader can reach the engine before this returns, so the writers
    /// publish nothing while the chunks apply: the replay's final flush
    /// publishes once, and until then each writer mutates its tree in
    /// place instead of copying what a snapshot would share.
    pub(crate) fn recover_log(
        &self,
        opts: &WalOptions,
        fs: Arc<dyn WalFs>,
        role: EngineRole,
    ) -> DcResult<()> {
        // The writers apply a chunk more slowly than the log yields the
        // next one, so an unpaced replay queues the tail on the shard
        // channels and holds memory in proportion to its length. Each chunk
        // is submitted only once the one before it is applied: the reader
        // stays one chunk ahead of the writers, whatever the tail.
        let mut applied: Vec<Receiver<()>> = Vec::new();
        let mut chunk = Vec::with_capacity(REPLAY_CHUNK);
        let scan = WalReader::replay(&*fs, &opts.dir, |entry| {
            chunk.push(entry);
            if chunk.len() < REPLAY_CHUNK {
                return Ok(());
            }
            for ack in applied.drain(..) {
                let _ = ack.recv();
            }
            self.apply_durable(chunk.drain(..), Origin::Recovered)?;
            applied = self.fence(Cmd::Applied);
            Ok(())
        })?;
        self.apply_durable(chunk, Origin::Recovered)?;
        if scan.replayed > 0 {
            self.flush();
        }
        let d = &self.metrics.durability;
        d.recovery_checkpoint_lsn
            .store(scan.manifest.checkpoint_lsn, Relaxed);
        d.recovery_replayed_entries.store(scan.replayed, Relaxed);
        d.recovery_truncated_bytes
            .store(scan.truncated_bytes, Relaxed);
        d.recovery_tail_lost
            .store(u64::from(scan.tail_lost), Relaxed);
        // The replication frontier starts at the recovered tip.
        self.publish_applied(scan.next_lsn - 1);
        if role == EngineRole::Follower {
            // A follower only recovers from the replicated directory; it
            // appends nothing, so it opens no writer (and must not: a local
            // fresh segment would collide with the next segment shipped
            // from the primary).
            return Ok(());
        }
        let writer = WalWriter::open(
            Arc::clone(&fs),
            &opts.dir,
            WalConfig {
                segment_bytes: opts.segment_bytes,
                sync: opts.sync,
            },
            &scan,
            self.shards.len() as u32,
        )?;
        let attached = self.wal.set(DurableWal {
            writer: Mutex::new(writer),
            fs,
            dir: opts.dir.clone(),
            checkpoint_every: opts.checkpoint_every,
            group_commit: matches!(opts.sync, SyncPolicy::GroupCommitMs(_)),
            since_checkpoint: AtomicU64::new(0),
            checkpoint_lock: Mutex::new(()),
        });
        assert!(attached.is_ok(), "the log is attached once");
        Ok(())
    }

    pub(crate) fn maybe_auto_checkpoint(&self) -> DcResult<()> {
        let Some(wal) = self.wal.get() else {
            return Ok(());
        };
        if wal.checkpoint_every == 0 || wal.since_checkpoint.load(Relaxed) < wal.checkpoint_every {
            return Ok(());
        }
        // Someone else checkpointing right now already covers these
        // mutations; skipping keeps the ingest path non-blocking.
        if let Some(_one_at_a_time) = wal.checkpoint_lock.try_lock() {
            self.checkpoint_locked(wal)?;
        }
        Ok(())
    }

    /// Takes a checkpoint: quiesces ingest, hands every shard the catalog's
    /// latest snapshot, images each shard at the captured LSN, then
    /// commits the manifest and deletes superseded segments and images.
    /// Returns the checkpoint LSN. Fails with [`DcError::Config`] when the
    /// engine has no WAL.
    pub fn checkpoint(&self) -> DcResult<u64> {
        let Some(wal) = self.wal.get() else {
            return Err(DcError::Config("engine has no WAL configured".into()));
        };
        let _one_at_a_time = wal.checkpoint_lock.lock();
        self.checkpoint_locked(wal)
    }

    /// The checkpoint body (caller holds [`DurableWal::checkpoint_lock`]).
    fn checkpoint_locked(&self, wal: &DurableWal) -> DcResult<u64> {
        let scratch = |i: usize| wal.dir.join(scratch_image_name(i as u32));
        // Phase 1 (under the ingest gate): capture an LSN no in-flight
        // mutation straddles, rotate past it, and capture every shard at
        // exactly that point.
        let (lsn, start_seq, snapshots) = {
            let _gate = self.ingest_gate.write();
            let (lsn, start_seq) = {
                let mut w = wal.writer.lock();
                let r = w.prepare_checkpoint()?;
                self.refresh_wal_gauges(&w);
                r
            };
            let schema = self.catalog.snapshot();
            for i in 0..self.shards.len() {
                let schema = Arc::clone(&schema);
                self.send(i, Cmd::Catchup { schema })?;
            }
            self.flush();
            let snapshots = (self.shards.iter().enumerate())
                .map(|(i, shard)| match &self.published(i).tree {
                    ShardTree::Snapshot(snap) => Ok(Some(Arc::clone(snap))),
                    ShardTree::Disk(ooc) => {
                        // Write back every dirty node and fsync, then copy
                        // the complete file. Ingest is gated and the flush
                        // barrier above drained the writer, so the file
                        // cannot move underneath.
                        ooc.flush()?;
                        let file = shard.file.as_ref().expect("a disk shard has a file");
                        std::fs::copy(file, scratch(i))?;
                        Ok(None)
                    }
                })
                .collect::<DcResult<Vec<_>>>()?;
            (lsn, start_seq, snapshots)
        };
        // Phase 2 (ingest running again): image the snapshots, commit every
        // image, then the manifest. A crash anywhere in here recovers
        // through the *previous* checkpoint — the old manifest and segments
        // are still intact.
        let mut bytes_written = 0;
        for (i, snapshot) in snapshots.into_iter().enumerate() {
            if let Some(tree) = snapshot {
                write_image(&tree, scratch(i))?;
            }
            let bytes = std::fs::read(scratch(i))?;
            wal.fs
                .write_atomic(&wal.dir.join(checkpoint_file_name(lsn, i as u32)), &bytes)?;
            bytes_written += bytes.len() as u64;
        }
        {
            let mut w = wal.writer.lock();
            w.commit_checkpoint(lsn, start_seq, self.shards.len() as u32)?;
            self.refresh_wal_gauges(&w);
        }
        // Superseded and scratch images go.
        for name in wal.fs.list(&wal.dir)? {
            let superseded = parse_checkpoint_file_name(&name).is_some_and(|(at, _)| at != lsn);
            if superseded || is_scratch_image_name(&name) {
                wal.fs.remove(&wal.dir.join(&name))?;
            }
        }
        wal.since_checkpoint.store(0, Relaxed);
        let d = &self.metrics.durability;
        d.checkpoints.fetch_add(1, Relaxed);
        d.checkpoint_last_lsn.store(lsn, Relaxed);
        d.checkpoint_last_bytes.store(bytes_written, Relaxed);
        Ok(lsn)
    }
}
