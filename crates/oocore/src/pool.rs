//! A concurrent, scan-resistant buffer pool over a [`PagedFile`].
//!
//! The workspace's one buffer pool: every paged DC-tree, served shard or
//! single-threaded tool, reaches its pages through it. A sharded serving
//! engine needs many readers resolving (possibly cold) pages at once:
//!
//! * **Latch striping** — the page table is split into stripes, each behind
//!   its own mutex, hashed by page id. Touches on different stripes never
//!   contend; the backing file is behind a separate mutex acquired only for
//!   real I/O (cold reads, write-backs).
//! * **RAII pins** — [`ConcurrentPool::pin`] returns a [`PinnedPage`]
//!   holding an `Arc` of the frame and a pin count. Pinned frames are never
//!   evicted; the pin drops with the guard. Page bytes are read through a
//!   per-frame `RwLock`, so readers of the *same* hot page also proceed in
//!   parallel.
//! * **Scan resistance** — eviction is segmented LRU: a page faults into the
//!   *probationary* segment and is promoted to the *protected* segment only
//!   on a second touch. Victims come from probation first, so a one-touch
//!   sweep (a 25 %-selectivity range scan walking every leaf once) churns
//!   probation and leaves the multi-touch hot set (root, upper directory
//!   levels) resident.
//! * **Checkpoint coordination** — dirty frames are written back lazily on
//!   eviction, and [`ConcurrentPool::flush`] force-writes every dirty frame
//!   and fsyncs, giving the checkpointer a consistent on-disk image.
//!
//! Lock order is `stripe → file`; `flush` takes each frame's data lock
//! *exclusively* before reading it so the dirty flag (set under the same
//! lock by writers) can be cleared without losing a concurrent update.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use dc_common::{DcError, DcResult};
use dc_storage::{PageId, PagedFile};
use parking_lot::{Mutex, RwLock, RwLockWriteGuard};

/// One resident page: bytes plus eviction/write-back state.
#[derive(Debug)]
struct Frame {
    page: u64,
    data: RwLock<Vec<u8>>,
    /// Set (under the data write lock) when the bytes diverge from disk.
    dirty: AtomicBool,
    /// Outstanding [`PinnedPage`] guards; a pinned frame is never evicted.
    pins: AtomicU32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    Probation,
    Protected,
}

#[derive(Debug)]
struct Resident {
    frame: Arc<Frame>,
    seg: Segment,
    /// Current key in the segment's recency map.
    stamp: u64,
}

/// One latch stripe: a page table plus the two recency queues of the
/// segmented LRU, keyed by a per-stripe logical clock.
#[derive(Debug, Default)]
struct Stripe {
    map: HashMap<u64, Resident>,
    probation: BTreeMap<u64, u64>,
    protected: BTreeMap<u64, u64>,
    clock: u64,
}

impl Stripe {
    fn next_stamp(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn insert_probation(&mut self, page: u64, frame: Arc<Frame>) {
        let stamp = self.next_stamp();
        self.probation.insert(stamp, page);
        self.map.insert(
            page,
            Resident {
                frame,
                seg: Segment::Probation,
                stamp,
            },
        );
    }

    /// Records a hit: probationary pages are promoted to protected (the
    /// second touch proves re-use); protected pages are refreshed in place.
    /// Protected overflow is demoted back to probation rather than evicted,
    /// so it gets one more chance before leaving the pool.
    fn touch(&mut self, page: u64, protected_cap: usize) {
        let Some(res) = self.map.get(&page) else {
            return;
        };
        let (seg, old) = (res.seg, res.stamp);
        let stamp = self.next_stamp();
        match seg {
            Segment::Probation => {
                self.probation.remove(&old);
                self.protected.insert(stamp, page);
                let r = self.map.get_mut(&page).expect("checked resident");
                r.seg = Segment::Protected;
                r.stamp = stamp;
                while self.protected.len() > protected_cap.max(1) {
                    let (&s, &p) = self.protected.iter().next().expect("len checked");
                    self.protected.remove(&s);
                    let demoted = self.next_stamp();
                    self.probation.insert(demoted, p);
                    let r = self.map.get_mut(&p).expect("queued page resident");
                    r.seg = Segment::Probation;
                    r.stamp = demoted;
                }
            }
            Segment::Protected => {
                self.protected.remove(&old);
                self.protected.insert(stamp, page);
                self.map.get_mut(&page).expect("checked resident").stamp = stamp;
            }
        }
    }

    /// Oldest unpinned page, probation before protected.
    fn pick_victim(&self) -> Option<u64> {
        self.probation
            .values()
            .chain(self.protected.values())
            .copied()
            .find(|p| self.map[p].frame.pins.load(Ordering::Acquire) == 0)
    }

    fn remove(&mut self, page: u64) -> Option<Resident> {
        let res = self.map.remove(&page)?;
        match res.seg {
            Segment::Probation => self.probation.remove(&res.stamp),
            Segment::Protected => self.protected.remove(&res.stamp),
        };
        Some(res)
    }
}

/// Monotonic pool counters, exported as `pool_*` gauges by the server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OocPoolStats {
    /// Page touches served from a resident frame.
    pub hits: u64,
    /// Page touches that went to disk.
    pub misses: u64,
    /// Frames dropped to make room.
    pub evictions: u64,
    /// Dirty frames written back (on eviction or flush).
    pub writebacks: u64,
    /// Frames currently resident.
    pub resident: u64,
    /// Total frame budget.
    pub capacity: u64,
    /// Nodes decoded from their pages by the store above the pool.
    pub node_decodes: u64,
    /// Nodes encoded into their pages by the store above the pool.
    pub node_encodes: u64,
    /// Node accesses the store served from its decoded write-back set —
    /// node reads that touched no page, so absent from `hits` and `misses`.
    pub decoded_hits: u64,
    /// Nodes currently in the store's decoded write-back set.
    pub decoded_nodes: u64,
}

/// Node-level counters, kept here so that one [`ConcurrentPool::stats`] call
/// — which needs no tree lock — reports a shard's whole read path. The
/// store above the pool is what updates them.
#[derive(Debug, Default)]
pub(crate) struct NodeCounters {
    pub(crate) decodes: AtomicU64,
    pub(crate) encodes: AtomicU64,
    /// Accesses served from the decoded write-back set.
    pub(crate) served: AtomicU64,
    /// Current size of the decoded write-back set.
    pub(crate) held: AtomicU64,
}

/// The concurrent, scan-resistant buffer pool. See the module docs.
#[derive(Debug)]
pub struct ConcurrentPool {
    file: Mutex<PagedFile>,
    stripes: Vec<Mutex<Stripe>>,
    /// Frame budget per stripe.
    stripe_cap: usize,
    /// Protected-segment budget per stripe (≈ ⅔ of the stripe).
    protected_cap: usize,
    page_size: usize,
    /// The file's page count, mirrored so chain walks can bound themselves
    /// by it without taking the file lock.
    num_pages: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
    pub(crate) nodes: NodeCounters,
}

impl ConcurrentPool {
    /// Wraps `file` with a budget of `frames` resident pages (min 4).
    pub fn new(file: PagedFile, frames: usize) -> Self {
        let frames = frames.max(4);
        let n_stripes = match frames {
            0..=15 => 1,
            16..=63 => 4,
            _ => 16,
        };
        let stripe_cap = frames.div_ceil(n_stripes);
        ConcurrentPool {
            page_size: file.page_size(),
            num_pages: AtomicU64::new(file.num_pages()),
            file: Mutex::new(file),
            stripes: (0..n_stripes)
                .map(|_| Mutex::new(Stripe::default()))
                .collect(),
            stripe_cap,
            protected_cap: (stripe_cap * 2 / 3).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            writebacks: AtomicU64::new(0),
            nodes: NodeCounters::default(),
        }
    }

    fn stripe_of(&self, page: u64) -> usize {
        // Fibonacci hashing spreads the sequential page ids a chain
        // allocator hands out; `len` is 1, 4, or 16 so the mask is exact.
        (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as usize & (self.stripes.len() - 1)
    }

    /// Pins `page` into the pool, faulting it from disk if cold. The frame
    /// stays resident until the returned guard drops.
    pub fn pin(&self, page: PageId) -> DcResult<PinnedPage> {
        let mut stripe = self.stripes[self.stripe_of(page.0)].lock();
        if let Some(res) = stripe.map.get(&page.0) {
            let frame = Arc::clone(&res.frame);
            frame.pins.fetch_add(1, Ordering::AcqRel);
            stripe.touch(page.0, self.protected_cap);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(PinnedPage { frame });
        }
        // Miss: read under the stripe lock so a racing pin of the same page
        // waits for this load instead of reading the file twice.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let bytes = self.file.lock().read(page)?;
        let frame = Arc::new(Frame {
            page: page.0,
            data: RwLock::new(bytes),
            dirty: AtomicBool::new(false),
            pins: AtomicU32::new(1),
        });
        stripe.insert_probation(page.0, Arc::clone(&frame));
        self.evict_overflow(&mut stripe)?;
        Ok(PinnedPage { frame })
    }

    /// Evicts oldest-first until the stripe is within budget. Pinned frames
    /// are skipped; if everything is pinned the stripe runs over budget
    /// rather than failing the caller.
    fn evict_overflow(&self, stripe: &mut Stripe) -> DcResult<()> {
        while stripe.map.len() > self.stripe_cap {
            let Some(victim) = stripe.pick_victim() else {
                break;
            };
            let res = stripe.remove(victim).expect("victim resident");
            if res.frame.dirty.swap(false, Ordering::AcqRel) {
                // pins == 0 and the stripe lock bars new pins, so nobody
                // holds the data lock.
                let data = res.frame.data.read();
                self.file.lock().write(PageId(victim), &data)?;
                self.writebacks.fetch_add(1, Ordering::Relaxed);
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Runs `f` over the page's bytes.
    pub fn with_page<R>(&self, page: PageId, f: impl FnOnce(&[u8]) -> R) -> DcResult<R> {
        let pinned = self.pin(page)?;
        let data = pinned.data();
        Ok(f(&data))
    }

    /// Runs `f` over the page's bytes mutably and marks the frame dirty.
    pub fn with_page_mut<R>(&self, page: PageId, f: impl FnOnce(&mut [u8]) -> R) -> DcResult<R> {
        let pinned = self.pin(page)?;
        let mut data = pinned.data_mut();
        Ok(f(&mut data))
    }

    /// Allocates a fresh (zeroed) page in the backing file.
    pub fn alloc(&self) -> DcResult<PageId> {
        let mut file = self.file.lock();
        let page = file.alloc();
        self.num_pages.store(file.num_pages(), Ordering::SeqCst);
        page
    }

    /// Drops the page from the pool (discarding dirty bytes — the caller is
    /// deleting it) and returns it to the file's free list.
    pub fn free(&self, page: PageId) -> DcResult<()> {
        {
            let mut stripe = self.stripes[self.stripe_of(page.0)].lock();
            if let Some(res) = stripe.map.get(&page.0) {
                if res.frame.pins.load(Ordering::Acquire) > 0 {
                    return Err(DcError::Corrupt(format!("freeing pinned page {}", page.0)));
                }
                stripe.remove(page.0);
            }
        }
        self.file.lock().free(page)
    }

    /// Writes every dirty frame back and fsyncs the file: the write-back
    /// barrier the checkpointer runs before copying the shard file.
    pub fn flush(&self) -> DcResult<()> {
        for stripe in &self.stripes {
            let stripe = stripe.lock();
            for res in stripe.map.values() {
                // Exclusive data lock: a writer sets `dirty` under the same
                // lock, so swap-then-copy here cannot lose its update.
                let data = res.frame.data.write();
                if res.frame.dirty.swap(false, Ordering::AcqRel) {
                    self.file.lock().write(PageId(res.frame.page), &data)?;
                    self.writebacks.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.file.lock().sync()
    }

    /// Snapshot of the pool counters.
    pub fn stats(&self) -> OocPoolStats {
        OocPoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
            resident: self.stripes.iter().map(|s| s.lock().map.len() as u64).sum(),
            capacity: (self.stripe_cap * self.stripes.len()) as u64,
            node_decodes: self.nodes.decodes.load(Ordering::Relaxed),
            node_encodes: self.nodes.encodes.load(Ordering::Relaxed),
            decoded_hits: self.nodes.served.load(Ordering::Relaxed),
            decoded_nodes: self.nodes.held.load(Ordering::Relaxed),
        }
    }

    /// Page size of the backing file.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Pages allocated in the backing file (header included) — the on-disk
    /// footprint used by the records-per-GB benchmark.
    pub fn num_pages(&self) -> u64 {
        self.num_pages.load(Ordering::SeqCst)
    }
}

/// RAII pin over one resident page. Holding it guarantees the frame stays
/// in the pool; `data`/`data_mut` lock the bytes for the access.
#[derive(Debug)]
pub struct PinnedPage {
    frame: Arc<Frame>,
}

impl PinnedPage {
    /// The pinned page's id.
    pub fn page(&self) -> PageId {
        PageId(self.frame.page)
    }

    /// Shared access to the page bytes.
    pub fn data(&self) -> parking_lot::RwLockReadGuard<'_, Vec<u8>> {
        self.frame.data.read()
    }

    /// Exclusive access to the page bytes; marks the frame dirty (under the
    /// data lock, so `flush` cannot miss the update).
    pub fn data_mut(&self) -> RwLockWriteGuard<'_, Vec<u8>> {
        let guard = self.frame.data.write();
        self.frame.dirty.store(true, Ordering::Release);
        guard
    }
}

impl Drop for PinnedPage {
    fn drop(&mut self) {
        self.frame.pins.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_common::TempDir;
    use dc_storage::BlockConfig;

    /// A pool of `frames` frames over a fresh file of `pages` pages; the
    /// file lives in the returned directory.
    fn pool_with(frames: usize, pages: usize) -> (ConcurrentPool, Vec<PageId>, TempDir) {
        let dir = TempDir::new("pool");
        let file = PagedFile::create(dir.join("pool.dat"), BlockConfig::new(512)).unwrap();
        let pool = ConcurrentPool::new(file, frames);
        let ids = (0..pages).map(|_| pool.alloc().unwrap()).collect();
        (pool, ids, dir)
    }

    #[test]
    fn hit_miss_and_writeback_counters() {
        let (pool, ids, _dir) = pool_with(8, 4);
        pool.with_page_mut(ids[0], |d| d[0] = 7).unwrap();
        pool.with_page(ids[0], |d| assert_eq!(d[0], 7)).unwrap();
        let s = pool.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        pool.flush().unwrap();
        assert_eq!(pool.stats().writebacks, 1);
        // Flushing again writes nothing: the dirty bit was cleared.
        pool.flush().unwrap();
        assert_eq!(pool.stats().writebacks, 1);
    }

    #[test]
    fn eviction_writes_back_and_rereads_from_disk() {
        let (pool, ids, _dir) = pool_with(4, 32);
        for (i, &id) in ids.iter().enumerate() {
            pool.with_page_mut(id, |d| d[0] = i as u8).unwrap();
        }
        let s = pool.stats();
        assert!(s.evictions > 0, "32 pages through 4 frames must evict");
        assert!(s.writebacks > 0, "dirty victims must be written back");
        assert!(s.resident <= s.capacity);
        for (i, &id) in ids.iter().enumerate() {
            pool.with_page(id, |d| assert_eq!(d[0], i as u8)).unwrap();
        }
    }

    #[test]
    fn scan_does_not_flush_the_hot_set() {
        let (pool, ids, _dir) = pool_with(16, 128);
        // Establish a hot set with two touches each: promoted to protected.
        let hot = &ids[0..4];
        for _ in 0..2 {
            for &id in hot {
                pool.with_page(id, |_| ()).unwrap();
            }
        }
        // One-touch sweep over everything else — 8× the frame budget.
        for &id in &ids[4..] {
            pool.with_page(id, |_| ()).unwrap();
        }
        let before = pool.stats();
        for &id in hot {
            pool.with_page(id, |_| ()).unwrap();
        }
        let after = pool.stats();
        assert_eq!(
            after.misses, before.misses,
            "hot set must survive the scan (segmented LRU)"
        );
        assert_eq!(after.hits, before.hits + hot.len() as u64);
    }

    #[test]
    fn pinned_frames_survive_eviction_pressure() {
        let (pool, ids, _dir) = pool_with(4, 32);
        let pinned = pool.pin(ids[0]).unwrap();
        pinned.data_mut()[0] = 42;
        for &id in &ids[1..] {
            pool.with_page(id, |_| ()).unwrap();
        }
        // Still resident: reading through the guard sees our byte, and a
        // fresh pin is a hit.
        assert_eq!(pinned.data()[0], 42);
        let before = pool.stats().misses;
        pool.with_page(ids[0], |d| assert_eq!(d[0], 42)).unwrap();
        assert_eq!(pool.stats().misses, before);
        drop(pinned);
        assert!(pool.free(ids[0]).is_ok());
    }

    #[test]
    fn free_of_pinned_page_is_refused() {
        let (pool, ids, _dir) = pool_with(8, 2);
        let guard = pool.pin(ids[0]).unwrap();
        assert!(matches!(pool.free(ids[0]), Err(DcError::Corrupt(_))));
        drop(guard);
        pool.free(ids[0]).unwrap();
    }

    #[test]
    fn flush_persists_without_eviction() {
        let (pool, ids, dir) = pool_with(8, 1);
        pool.with_page_mut(ids[0], |d| d[..4].copy_from_slice(b"DCDC"))
            .unwrap();
        pool.flush().unwrap();
        assert_eq!(pool.stats().evictions, 0);
        drop(pool);
        let mut reopened = PagedFile::open(dir.join("pool.dat"), BlockConfig::new(512)).unwrap();
        assert_eq!(&reopened.read(ids[0]).unwrap()[..4], b"DCDC");
    }

    #[test]
    fn freeing_cached_page_drops_the_frame() {
        let (pool, ids, _dir) = pool_with(8, 1);
        pool.with_page_mut(ids[0], |d| d[0] = 1).unwrap();
        assert_eq!(pool.stats().resident, 1);
        pool.free(ids[0]).unwrap();
        assert_eq!(pool.stats().resident, 0);
        // Reallocating reuses the page; its old cached content is gone.
        assert_eq!(pool.alloc().unwrap(), ids[0]);
        pool.with_page(ids[0], |d| assert_eq!(d[0], 0, "stale frame leaked"))
            .unwrap();
    }

    /// Every resident page sits in exactly one recency queue, under the
    /// stamp its page-table entry names.
    fn assert_stripes_agree(pool: &ConcurrentPool) {
        for stripe in &pool.stripes {
            let s = stripe.lock();
            assert_eq!(s.map.len(), s.probation.len() + s.protected.len());
            for (page, res) in &s.map {
                let queue = match res.seg {
                    Segment::Probation => &s.probation,
                    Segment::Protected => &s.protected,
                };
                assert_eq!(queue.get(&res.stamp), Some(page));
            }
        }
    }

    #[test]
    fn ordered_lru_survives_interleaved_frees_and_touches() {
        let (pool, ids, _dir) = pool_with(4, 12);
        for (i, &id) in ids.iter().enumerate() {
            pool.with_page_mut(id, |d| d[0] = i as u8 + 1).unwrap();
        }
        // Free a resident page (probation) and a promoted one (protected),
        // re-touching survivors in a scrambled order in between.
        pool.free(ids[11]).unwrap();
        assert_stripes_agree(&pool);
        for &i in &[9, 3, 10, 9, 0, 3] {
            pool.with_page(ids[i], |_| ()).unwrap();
            assert_stripes_agree(&pool);
        }
        pool.free(ids[9]).unwrap();
        assert_stripes_agree(&pool);
        // Every surviving page still round-trips its byte through the
        // evictions the sweep forces, and the pool stays within budget.
        for (i, &id) in ids.iter().enumerate().filter(|(i, _)| ![9, 11].contains(i)) {
            pool.with_page(id, |d| assert_eq!(d[0], i as u8 + 1, "page {i}"))
                .unwrap();
            assert_stripes_agree(&pool);
        }
        let s = pool.stats();
        assert_eq!(s.resident, s.capacity);
    }

    #[test]
    fn concurrent_readers_and_writers_converge() {
        let (pool, ids, _dir) = pool_with(8, 16);
        let pool = std::sync::Arc::new(pool);
        let mut handles = Vec::new();
        for t in 0..4 {
            let pool = std::sync::Arc::clone(&pool);
            let ids = ids.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..50 {
                    for &id in &ids {
                        if (round + t) % 2 == 0 {
                            pool.with_page(id, |d| d[0]).unwrap();
                        } else {
                            pool.with_page_mut(id, |d| d[t] = d[t].wrapping_add(1))
                                .unwrap();
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        pool.flush().unwrap();
        // Each thread incremented its own byte 25 times (odd rounds).
        for &id in &ids {
            pool.with_page(id, |d| {
                for (t, &b) in d.iter().take(4).enumerate() {
                    assert_eq!(b, 25, "page {} byte {t}", id.0);
                }
            })
            .unwrap();
        }
    }
}
