//! Deterministic fault injection for the durability layer (behind the
//! `fault-injection` feature).
//!
//! [`FaultFs`] wraps [`StdFs`] and counts every byte written to segment
//! files. A [`FaultPlan`] makes it misbehave at an exact, reproducible
//! point: crash after byte `N` of WAL traffic (writing only the prefix
//! that fits — a genuine torn frame), flip one bit of a write, or fail
//! the `n`-th fsync. Once the plan's crash point fires the shim is
//! *crashed*: every further mutating operation fails with
//! [`DcError::Fault`], emulating a dead process, while the files keep
//! exactly the bytes a real crash would have left. The harness then
//! recovers from the same directory with a clean [`StdFs`] and checks the
//! result against a never-crashed oracle.
//!
//! Determinism: byte offsets are counted over segment-file appends only
//! (headers included), in the order the writer issues them, so the same
//! seeded workload + the same plan always tears the same frame.

use std::path::Path;
use std::sync::{Arc, Mutex};

use dc_common::{DcError, DcResult};

use crate::fs::{StdFs, WalFile, WalFs};

/// What to break, and exactly where.
#[derive(Clone, Copy, Default, Debug)]
pub struct FaultPlan {
    /// Crash once this many bytes of segment traffic have been written:
    /// the write that crosses the budget lands only its in-budget prefix.
    pub crash_after_bytes: Option<u64>,
    /// Flip `mask` into the byte at this absolute segment-traffic offset.
    pub flip_bit: Option<(u64, u8)>,
    /// Fail (and crash on) the `n`-th fsync, 1-based.
    pub fail_sync: Option<u64>,
}

#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    written: u64,
    syncs: u64,
    crashed: bool,
}

/// A [`WalFs`] that injects the faults described by a [`FaultPlan`].
#[derive(Clone, Debug)]
pub struct FaultFs {
    inner: StdFs,
    state: Arc<Mutex<FaultState>>,
}

impl FaultFs {
    /// A shim that will fault per `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultFs {
            inner: StdFs,
            state: Arc::new(Mutex::new(FaultState {
                plan,
                written: 0,
                syncs: 0,
                crashed: false,
            })),
        }
    }

    /// Whether the planned crash point has fired.
    pub fn crashed(&self) -> bool {
        self.state.lock().unwrap().crashed
    }

    /// Total segment-file bytes written so far (headers included).
    pub fn written(&self) -> u64 {
        self.state.lock().unwrap().written
    }

    /// Total fsyncs issued so far. Lets a harness plan `fail_sync` points
    /// that actually fire under lazy policies (`EveryN`, `GroupCommitMs`),
    /// where a run issues far fewer syncs than it has appends.
    pub fn synced(&self) -> u64 {
        self.state.lock().unwrap().syncs
    }

    fn check_alive(&self) -> DcResult<()> {
        if self.state.lock().unwrap().crashed {
            Err(DcError::Fault("process crashed by fault plan".into()))
        } else {
            Ok(())
        }
    }
}

#[derive(Debug)]
struct FaultFile {
    inner: Box<dyn WalFile>,
    state: Arc<Mutex<FaultState>>,
}

impl WalFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> DcResult<()> {
        let mut st = self.state.lock().unwrap();
        if st.crashed {
            return Err(DcError::Fault("process crashed by fault plan".into()));
        }
        let mut owned;
        let mut chunk: &[u8] = buf;
        if let Some((offset, mask)) = st.plan.flip_bit {
            if offset >= st.written && offset < st.written + buf.len() as u64 {
                owned = buf.to_vec();
                owned[(offset - st.written) as usize] ^= mask;
                chunk = &owned;
            }
        }
        if let Some(budget) = st.plan.crash_after_bytes {
            if st.written + chunk.len() as u64 > budget {
                let keep = (budget.saturating_sub(st.written)) as usize;
                self.inner.write_all(&chunk[..keep])?;
                // A real crash offers no durability for the torn prefix,
                // but leaving it unsynced in the page cache is the same
                // observable state for a scan-based recovery.
                st.written += keep as u64;
                st.crashed = true;
                return Err(DcError::Fault(format!(
                    "crash after {budget} WAL bytes (torn write of {keep}/{} bytes)",
                    chunk.len()
                )));
            }
        }
        self.inner.write_all(chunk)?;
        st.written += chunk.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> DcResult<()> {
        let mut st = self.state.lock().unwrap();
        if st.crashed {
            return Err(DcError::Fault("process crashed by fault plan".into()));
        }
        st.syncs += 1;
        if st.plan.fail_sync == Some(st.syncs) {
            st.crashed = true;
            return Err(DcError::Fault(format!("fsync #{} failed", st.syncs)));
        }
        self.inner.sync()
    }
}

impl WalFs for FaultFs {
    fn create_dir_all(&self, dir: &Path) -> DcResult<()> {
        self.check_alive()?;
        self.inner.create_dir_all(dir)
    }

    fn create_append(&self, path: &Path) -> DcResult<Box<dyn WalFile>> {
        self.check_alive()?;
        Ok(Box::new(FaultFile {
            inner: self.inner.create_append(path)?,
            state: Arc::clone(&self.state),
        }))
    }

    fn read(&self, path: &Path) -> DcResult<Option<Vec<u8>>> {
        self.inner.read(path)
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> DcResult<()> {
        self.check_alive()?;
        self.inner.write_atomic(path, bytes)
    }

    fn set_len(&self, path: &Path, len: u64) -> DcResult<()> {
        self.check_alive()?;
        self.inner.set_len(path, len)
    }

    fn remove(&self, path: &Path) -> DcResult<()> {
        self.check_alive()?;
        self.inner.remove(path)
    }

    fn list(&self, dir: &Path) -> DcResult<Vec<String>> {
        self.inner.list(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_common::TempDir;

    #[test]
    fn crash_budget_tears_the_crossing_write() {
        let dir = TempDir::new("fault-budget");
        let fs = FaultFs::new(FaultPlan {
            crash_after_bytes: Some(10),
            ..FaultPlan::default()
        });
        let path = dir.join("seg");
        let mut f = fs.create_append(&path).unwrap();
        f.write_all(&[1; 6]).unwrap();
        let err = f.write_all(&[2; 6]).unwrap_err();
        assert!(matches!(err, DcError::Fault(_)));
        assert!(fs.crashed());
        assert_eq!(std::fs::read(&path).unwrap().len(), 10, "prefix landed");
        assert!(matches!(f.write_all(&[3]).unwrap_err(), DcError::Fault(_)));
        assert!(matches!(
            fs.create_append(&dir.join("other")).unwrap_err(),
            DcError::Fault(_)
        ));
    }

    #[test]
    fn bit_flip_lands_at_the_absolute_offset() {
        let dir = TempDir::new("fault-flip");
        let fs = FaultFs::new(FaultPlan {
            flip_bit: Some((5, 0x80)),
            ..FaultPlan::default()
        });
        let path = dir.join("seg");
        let mut f = fs.create_append(&path).unwrap();
        f.write_all(&[0; 4]).unwrap();
        f.write_all(&[0; 4]).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[5], 0x80);
        assert!(bytes.iter().enumerate().all(|(i, &b)| (i == 5) ^ (b == 0)));
        assert!(!fs.crashed(), "a flip is silent, not a crash");
    }

    #[test]
    fn nth_sync_fails_and_crashes() {
        let dir = TempDir::new("fault-sync");
        let fs = FaultFs::new(FaultPlan {
            fail_sync: Some(2),
            ..FaultPlan::default()
        });
        let mut f = fs.create_append(&dir.join("seg")).unwrap();
        f.write_all(&[1]).unwrap();
        f.sync().unwrap();
        f.write_all(&[2]).unwrap();
        assert!(matches!(f.sync().unwrap_err(), DcError::Fault(_)));
        assert!(fs.crashed());
    }
}
