//! The durable wrapper: segmented WAL + checkpoints + recovery around a
//! [`DcTree`].
//!
//! On disk a durable tree is a WAL directory (see [`crate::segment`]):
//! numbered segments, a manifest, and LSN-versioned checkpoint images
//! (`checkpoint.<lsn>.dct`). Recovery loads the image named by the
//! manifest's checkpoint LSN and replays only the tail segments past it.
//! Checkpointing is two-phase — write the new image for the prepared LSN,
//! then commit the manifest and delete superseded segments and images —
//! so a crash between the phases recovers through the *old* checkpoint
//! without double-applying anything.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use dc_common::{DcResult, Measure, RecordId};
use dc_tree::{DcTree, DcTreeConfig};

use crate::fs::{StdFs, WalFs};
use crate::segment::{checkpoint_file_name, parse_checkpoint_file_name};
use crate::wal::{SyncPolicy, WalConfig, WalEntry, WalReader, WalWriter};

/// Durability knobs.
#[derive(Clone, Copy, Debug)]
pub struct DurabilityConfig {
    /// fsync policy for the log.
    pub sync: SyncPolicy,
    /// Automatically checkpoint after this many logged mutations
    /// (`0` = only on explicit [`DurableDcTree::checkpoint`] calls).
    pub checkpoint_every: u64,
    /// WAL segment rotation budget in bytes.
    pub segment_bytes: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            sync: SyncPolicy::Always,
            checkpoint_every: 0,
            segment_bytes: WalConfig::default().segment_bytes,
        }
    }
}

/// What recovery found and discarded when a durable tree was opened.
#[derive(Clone, Copy, Default, Debug)]
pub struct RecoveryReport {
    /// The checkpoint LSN recovery started from (0 = no checkpoint).
    pub checkpoint_lsn: u64,
    /// Tail entries replayed over the checkpoint.
    pub replayed_entries: u64,
    /// Bytes discarded as torn or unreadable.
    pub truncated_bytes: u64,
    /// Whole segments were dropped, not just a torn tail.
    pub tail_lost: bool,
}

/// A crash-safe DC-tree: mutations go to the write-ahead log first, the
/// in-memory tree second; recovery replays the tail of the log over the
/// last checkpoint. Queries go straight to the wrapped [`DcTree`]
/// ([`Self::tree`]).
#[derive(Debug)]
pub struct DurableDcTree {
    tree: DcTree,
    wal: WalWriter,
    fs: Arc<dyn WalFs>,
    dir: PathBuf,
    durability: DurabilityConfig,
    since_checkpoint: u64,
    checkpoints: u64,
    report: RecoveryReport,
}

impl DurableDcTree {
    /// Opens (or creates) a durable tree in `dir` on the real filesystem,
    /// recovering any previous state: last checkpoint + clean log tail.
    /// `make_tree` builds the initial tree when no checkpoint exists.
    pub fn open(
        dir: impl AsRef<Path>,
        make_tree: impl FnOnce() -> DcTree,
        durability: DurabilityConfig,
    ) -> DcResult<Self> {
        Self::open_with_fs(Arc::new(StdFs), dir, make_tree, durability)
    }

    /// [`Self::open`] through an explicit [`WalFs`] — the entry point the
    /// fault-injection harness uses to crash mid-write.
    pub fn open_with_fs(
        fs: Arc<dyn WalFs>,
        dir: impl AsRef<Path>,
        make_tree: impl FnOnce() -> DcTree,
        durability: DurabilityConfig,
    ) -> DcResult<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs.create_dir_all(&dir)?;
        let scan = WalReader::recover(&*fs, &dir)?;
        let mut tree = match scan.manifest.checkpoint_lsn {
            0 => make_tree(),
            lsn => {
                let name = checkpoint_file_name(lsn, None);
                let bytes = fs.read(&dir.join(&name))?.ok_or_else(|| {
                    dc_common::DcError::Corrupt(format!("missing checkpoint image {name}"))
                })?;
                DcTree::from_bytes(&bytes)?
            }
        };
        for entry in &scan.entries {
            apply(&mut tree, entry)?;
        }
        let report = RecoveryReport {
            checkpoint_lsn: scan.manifest.checkpoint_lsn,
            replayed_entries: scan.entries.len() as u64,
            truncated_bytes: scan.truncated_bytes,
            tail_lost: scan.tail_lost,
        };
        let wal = WalWriter::open(
            Arc::clone(&fs),
            &dir,
            WalConfig {
                segment_bytes: durability.segment_bytes,
                sync: durability.sync,
            },
            &scan,
            0,
        )?;
        Ok(DurableDcTree {
            tree,
            wal,
            fs,
            dir,
            durability,
            since_checkpoint: report.replayed_entries,
            checkpoints: 0,
            report,
        })
    }

    /// The wrapped tree, for queries (`range_query`, `group_by`, stats …).
    pub fn tree(&self) -> &DcTree {
        &self.tree
    }

    /// The tree's configuration.
    pub fn config(&self) -> &DcTreeConfig {
        self.tree.config()
    }

    /// Mutations logged since the last checkpoint.
    pub fn log_length(&self) -> u64 {
        self.since_checkpoint
    }

    /// What the opening recovery pass found.
    pub fn recovery_report(&self) -> RecoveryReport {
        self.report
    }

    /// The LSN of the last logged mutation.
    pub fn last_lsn(&self) -> u64 {
        self.wal.lsn()
    }

    /// The highest LSN known durable: a crash now loses nothing at or
    /// below it.
    pub fn synced_lsn(&self) -> u64 {
        self.wal.synced_lsn()
    }

    /// Checkpoints taken by this handle.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    fn log(&mut self, entry: &WalEntry) -> DcResult<()> {
        self.wal.append(entry)?;
        self.since_checkpoint += 1;
        Ok(())
    }

    fn maybe_auto_checkpoint(&mut self) -> DcResult<()> {
        if self.durability.checkpoint_every > 0
            && self.since_checkpoint >= self.durability.checkpoint_every
        {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Durable insert: validated, logged, then applied. Validation comes
    /// first — a record the tree would reject must never reach the WAL,
    /// or the rejection replays as corruption on recovery.
    pub fn insert_raw<S: AsRef<str>>(
        &mut self,
        paths: &[Vec<S>],
        measure: Measure,
    ) -> DcResult<RecordId> {
        self.tree.schema().validate_paths(paths)?;
        let entry = WalEntry::Insert {
            paths: paths
                .iter()
                .map(|d| d.iter().map(|s| s.as_ref().to_string()).collect())
                .collect(),
            measure,
        };
        self.log(&entry)?;
        let id = self.tree.insert_raw(paths, measure)?;
        self.maybe_auto_checkpoint()?;
        Ok(id)
    }

    /// Durable batched insert: the whole batch is appended to the log as
    /// one frame group — a single write and a single sync-policy decision
    /// — then applied to the tree in order. A crash inside the group
    /// recovers a clean prefix of the batch: per-frame CRCs make a torn
    /// group indistinguishable from a shorter stream of single inserts,
    /// so replay semantics are byte-identical to looped
    /// [`Self::insert_raw`] calls.
    pub fn insert_batch_raw<S: AsRef<str>>(
        &mut self,
        batch: &[(Vec<Vec<S>>, Measure)],
    ) -> DcResult<Vec<RecordId>> {
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        for (paths, _) in batch {
            self.tree.schema().validate_paths(paths)?;
        }
        let entries: Vec<WalEntry> = batch
            .iter()
            .map(|(paths, measure)| WalEntry::Insert {
                paths: paths
                    .iter()
                    .map(|d| d.iter().map(|s| s.as_ref().to_string()).collect())
                    .collect(),
                measure: *measure,
            })
            .collect();
        self.wal.append_batch(&entries)?;
        self.since_checkpoint += entries.len() as u64;
        let mut ids = Vec::with_capacity(batch.len());
        for (paths, measure) in batch {
            ids.push(self.tree.insert_raw(paths, *measure)?);
        }
        self.maybe_auto_checkpoint()?;
        Ok(ids)
    }

    /// Durable delete by raw paths + measure. Returns `false` when no
    /// matching record exists (the no-op is still logged for replay
    /// fidelity).
    pub fn delete_raw<S: AsRef<str>>(
        &mut self,
        paths: &[Vec<S>],
        measure: Measure,
    ) -> DcResult<bool> {
        self.tree.schema().validate_paths(paths)?;
        let entry = WalEntry::Delete {
            paths: paths
                .iter()
                .map(|d| d.iter().map(|s| s.as_ref().to_string()).collect())
                .collect(),
            measure,
        };
        self.log(&entry)?;
        let deleted = apply(&mut self.tree, &entry)?;
        self.maybe_auto_checkpoint()?;
        Ok(deleted)
    }

    /// Takes a checkpoint: serializes the tree (with its interning state)
    /// as the image for the current LSN, commits the manifest, and deletes
    /// the superseded segments and images. After this, recovery needs only
    /// the new image plus segments written from now on.
    pub fn checkpoint(&mut self) -> DcResult<()> {
        let (lsn, start_seq) = self.wal.prepare_checkpoint()?;
        self.fs.write_atomic(
            &self.dir.join(checkpoint_file_name(lsn, None)),
            &self.tree.to_bytes(),
        )?;
        self.wal.commit_checkpoint(lsn, start_seq, 0)?;
        for name in self.fs.list(&self.dir)? {
            if let Some((image_lsn, _)) = parse_checkpoint_file_name(&name) {
                if image_lsn != lsn {
                    self.fs.remove(&self.dir.join(&name))?;
                }
            }
        }
        self.since_checkpoint = 0;
        self.checkpoints += 1;
        Ok(())
    }

    /// Durability barrier: everything logged so far survives a crash once
    /// this returns (meaningful under the deferred [`SyncPolicy`]s).
    pub fn sync(&mut self) -> DcResult<()> {
        self.wal.sync()
    }
}

/// Applies one WAL entry to a tree (the replay step). Public as the replay
/// oracle: the crash and replication harnesses fold it over a plain tree
/// and hold the serving engine's recovery to the result.
pub fn apply(tree: &mut DcTree, entry: &WalEntry) -> DcResult<bool> {
    match entry {
        WalEntry::Insert { paths, measure } => {
            tree.insert_raw(paths, *measure)?;
            Ok(true)
        }
        WalEntry::Delete { paths, measure } => {
            // Resolve the paths against the (replayed) schema; a miss means
            // the original call was a no-op too.
            let mut dims = Vec::with_capacity(paths.len());
            for (d, path) in paths.iter().enumerate() {
                match tree
                    .schema()
                    .dim(dc_common::DimensionId(d as u16))
                    .lookup_path(path)
                {
                    Some(id) => dims.push(id),
                    None => return Ok(false),
                }
            }
            let record = dc_hierarchy::Record::new(dims, *measure);
            tree.delete(&record)
        }
    }
}
