//! Trace-driven cache simulation, for ablation A6.
//!
//! The paper normalizes resources by restricting "the main memory available
//! for the X-tree … to the memory size that the DC-tree uses". This module
//! makes that comparison executable: the baselines record a trace of
//! logical block accesses (see [`IoTracker::begin_trace`]), as does the
//! node store the ablations read a DC-tree through, and
//! [`CacheSim`] replays a trace against an LRU cache of a fixed frame
//! budget, yielding the **physical** reads a disk-resident deployment with
//! that much memory would issue.
//!
//! [`IoTracker::begin_trace`]: dc_storage::IoTracker::begin_trace

use std::collections::HashMap;

/// Result of replaying one trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheReport {
    /// Logical block accesses in the trace.
    pub logical: u64,
    /// Accesses that missed the cache (physical reads).
    pub physical: u64,
    /// Cache capacity used, in frames (blocks).
    pub frames: usize,
}

impl CacheReport {
    /// Fraction of accesses served from memory.
    pub fn hit_ratio(&self) -> f64 {
        if self.logical == 0 {
            return 1.0;
        }
        1.0 - self.physical as f64 / self.logical as f64
    }
}

/// An LRU cache simulator over block identifiers.
#[derive(Debug)]
pub struct CacheSim {
    frames: usize,
    /// block → last-use clock
    resident: HashMap<u64, u64>,
    clock: u64,
}

impl CacheSim {
    /// A simulator with a budget of `frames` blocks.
    ///
    /// # Panics
    /// Panics if `frames` is zero.
    pub fn new(frames: usize) -> Self {
        assert!(frames > 0, "a cache needs at least one frame");
        CacheSim {
            frames,
            resident: HashMap::new(),
            clock: 0,
        }
    }

    /// Touches one block; returns `true` on a hit.
    pub fn touch(&mut self, block: u64) -> bool {
        self.clock += 1;
        if let Some(last) = self.resident.get_mut(&block) {
            *last = self.clock;
            return true;
        }
        if self.resident.len() >= self.frames {
            // Evict the least recently used frame. Linear scan: simulation
            // budgets are small and correctness is what matters here.
            let victim = *self
                .resident
                .iter()
                .min_by_key(|(_, &t)| t)
                .map(|(b, _)| b)
                .expect("non-empty cache");
            self.resident.remove(&victim);
        }
        self.resident.insert(block, self.clock);
        false
    }

    /// Replays a trace of block ids, returning the physical-read report.
    pub fn replay(frames: usize, trace: impl IntoIterator<Item = u64>) -> CacheReport {
        let mut sim = CacheSim::new(frames);
        let mut logical = 0;
        let mut physical = 0;
        for block in trace {
            logical += 1;
            if !sim.touch(block) {
                physical += 1;
            }
        }
        CacheReport {
            logical,
            physical,
            frames,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits_after_first_miss() {
        let r = CacheSim::replay(4, [1, 1, 1, 1, 1]);
        assert_eq!(r.logical, 5);
        assert_eq!(r.physical, 1);
        assert!((r.hit_ratio() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn working_set_within_budget_misses_once_per_block() {
        let trace: Vec<u64> = (0..4).cycle().take(40).collect();
        let r = CacheSim::replay(4, trace);
        assert_eq!(r.physical, 4);
    }

    #[test]
    fn lru_thrashes_on_cyclic_overflow() {
        // Classic LRU worst case: cycling over frames+1 blocks misses every
        // access.
        let trace: Vec<u64> = (0..5).cycle().take(50).collect();
        let r = CacheSim::replay(4, trace);
        assert_eq!(r.physical, 50);
    }

    #[test]
    fn hot_block_survives_scans() {
        // Touch block 0 between scans of a large set: with 2 frames the hot
        // block keeps hitting while scan blocks miss.
        let mut trace = Vec::new();
        for i in 0..20u64 {
            trace.push(0);
            trace.push(100 + i);
        }
        let r = CacheSim::replay(2, trace);
        assert_eq!(
            r.physical,
            1 + 20,
            "one miss for block 0, one per scan block"
        );
    }

    #[test]
    fn empty_trace() {
        let r = CacheSim::replay(8, []);
        assert_eq!(r.logical, 0);
        assert_eq!(r.physical, 0);
        assert_eq!(r.hit_ratio(), 1.0);
    }
}
