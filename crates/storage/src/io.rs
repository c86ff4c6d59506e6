//! Logical I/O accounting.
//!
//! Query and insert paths charge one logical *page read* (or write) per
//! block of every node they touch. Supernodes therefore cost as many
//! accesses as they span blocks — exactly the cost model under which the
//! paper's supernode trade-off (one multi-block sequential read instead of
//! overlapping subtrees) is discussed.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// A snapshot of I/O counters.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct IoStats {
    /// Logical block reads.
    pub reads: u64,
    /// Logical block writes.
    pub writes: u64,
}

impl IoStats {
    /// Total logical accesses.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// Component-wise difference (`self` must be the later snapshot).
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
        }
    }
}

impl fmt::Display for IoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} reads / {} writes", self.reads, self.writes)
    }
}

/// Interior-mutable I/O counter, so the baselines' `&self` query paths can
/// account reads (the DC-tree counts a read's pages in the read instead).
///
/// Counters are relaxed atomics, so counting does not un-`Sync` the
/// structures that carry one.
#[derive(Default, Debug)]
pub struct IoTracker {
    reads: AtomicU64,
    writes: AtomicU64,
    /// Optional access trace (synthetic block ids) for cache simulation;
    /// `None` when tracing is off. Uncontended in practice — tracing is a
    /// single-threaded measurement mode.
    trace: Mutex<Option<Vec<u64>>>,
    /// Whether `trace` is `Some`: keyed reads, charged on every node visit
    /// by readers sharing one tree, take the lock only while it is set.
    /// Relaxed: it publishes nothing, the trace is read under the lock.
    tracing: AtomicBool,
}

impl IoTracker {
    /// Fresh tracker with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `blocks` logical reads.
    #[inline]
    pub fn read(&self, blocks: u32) {
        self.reads.fetch_add(blocks as u64, Ordering::Relaxed);
    }

    /// Charges `blocks` logical writes.
    #[inline]
    pub fn write(&self, blocks: u32) {
        self.writes.fetch_add(blocks as u64, Ordering::Relaxed);
    }

    /// Charges `blocks` logical reads attributed to the storage object
    /// `key` (e.g. a node id); when tracing is active, appends one synthetic
    /// block id per block to the trace, which the A6 ablation's cache
    /// simulation (`dc_bench::cachesim::CacheSim`) replays.
    #[inline]
    pub fn read_keyed(&self, key: u64, blocks: u32) {
        self.read(blocks);
        if !self.tracing.load(Ordering::Relaxed) {
            return;
        }
        let mut guard = self.trace.lock().expect("trace mutex");
        if let Some(trace) = guard.as_mut() {
            for b in 0..blocks as u64 {
                trace.push(key * 4096 + b);
            }
        }
    }

    /// Starts recording an access trace (clearing any previous one).
    pub fn begin_trace(&self) {
        *self.trace.lock().expect("trace mutex") = Some(Vec::new());
        self.tracing.store(true, Ordering::Relaxed);
    }

    /// Stops recording and returns the trace (empty if tracing was off).
    pub fn end_trace(&self) -> Vec<u64> {
        self.tracing.store(false, Ordering::Relaxed);
        self.trace
            .lock()
            .expect("trace mutex")
            .take()
            .unwrap_or_default()
    }

    /// Current counter values.
    pub fn stats(&self) -> IoStats {
        IoStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }

    /// Resets both counters to zero.
    pub fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
    }
}

impl Clone for IoTracker {
    fn clone(&self) -> Self {
        // Counters carry over; an in-progress trace does not.
        let t = IoTracker::new();
        let s = self.stats();
        t.reads.store(s.reads, Ordering::Relaxed);
        t.writes.store(s.writes, Ordering::Relaxed);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_accumulates() {
        let t = IoTracker::new();
        t.read(1);
        t.read(3);
        t.write(2);
        assert_eq!(
            t.stats(),
            IoStats {
                reads: 4,
                writes: 2
            }
        );
        assert_eq!(t.stats().total(), 6);
    }

    #[test]
    fn since_computes_deltas() {
        let t = IoTracker::new();
        t.read(10);
        let before = t.stats();
        t.read(5);
        t.write(1);
        let delta = t.stats().since(&before);
        assert_eq!(
            delta,
            IoStats {
                reads: 5,
                writes: 1
            }
        );
    }

    #[test]
    fn keyed_reads_trace_when_enabled() {
        let t = IoTracker::new();
        t.read_keyed(7, 2); // tracing off: only counters move
        t.begin_trace();
        t.read_keyed(1, 1);
        t.read_keyed(2, 3);
        let trace = t.end_trace();
        assert_eq!(trace.len(), 4);
        assert_eq!(trace[0], 4096);
        assert_eq!(&trace[1..], &[2 * 4096, 2 * 4096 + 1, 2 * 4096 + 2]);
        assert_eq!(t.stats().reads, 2 + 4);
        // A second end without begin yields empty.
        assert!(t.end_trace().is_empty());
    }

    #[test]
    fn reset_zeroes() {
        let t = IoTracker::new();
        t.read(7);
        t.reset();
        assert_eq!(t.stats(), IoStats::default());
    }
}
