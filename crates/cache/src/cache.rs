//! The aggregate cache proper: MDS-keyed [`MeasureSummary`] entries, a
//! per-(dimension, value) inverted index for write-through delta
//! maintenance, and cost-aware eviction.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use dc_common::{DcResult, DimensionId, MeasureSummary, ValueId};
use dc_hierarchy::{CubeSchema, Record};
use dc_mds::Mds;
use parking_lot::Mutex;

use crate::semantic::remainder_terms;

/// Cache construction knobs.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Maximum cached entries; eviction starts above this.
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { capacity: 4096 }
    }
}

/// Upper bound on attribute values materialized when expanding a query
/// down to a cached entry's levels; candidates needing more are skipped.
const MAX_REMAINDER_VALUES: usize = 1024;

/// How many entries a semantic lookup may examine for containment — bounds
/// the miss-path cost at large capacities.
const SEMANTIC_SCAN_LIMIT: usize = 128;

/// One record-level write, queued by a shard writer and applied to the
/// cache atomically with that shard's snapshot publication.
#[derive(Clone, Debug)]
pub struct CacheDelta {
    /// The interned record (leaf values + measure).
    pub record: Record,
    /// `true` for a delete that the shard tree actually held (delete misses
    /// change nothing and must not be queued).
    pub delete: bool,
}

/// Counts returned by one delta batch.
#[derive(Clone, Copy, Default, Debug)]
pub struct ApplyStats {
    /// Entries patched in place (sum/count always; min/max when exact).
    pub patches: u64,
    /// Entries whose min/max became unreliable (a delete touched the
    /// extremum) or that were dropped as inconsistent.
    pub invalidations: u64,
}

/// Counts returned by one insertion.
#[derive(Clone, Copy, Default, Debug)]
pub struct InsertStats {
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries resident after the insertion.
    pub entries: u64,
}

/// What a lookup found (inner, version-free form; [`SharedCache::lookup`]
/// attaches the publish version).
pub enum InnerLookup {
    /// An entry answering the query outright.
    Hit(MeasureSummary),
    /// A contained entry plus the disjoint remainder MDSs that must still
    /// descend the tree.
    Semantic {
        /// The cached entry's summary.
        base: MeasureSummary,
        /// `false` when the base can only vouch for sum/count (its extrema
        /// were degraded by a delete) — the combined answer then must not be
        /// served for MIN/MAX nor re-cached as exact.
        exact_extrema: bool,
        /// Pairwise-disjoint MDSs covering everything the entry does not.
        remainders: Vec<Mds>,
    },
    /// Nothing usable.
    Miss,
}

/// A lookup against the [`SharedCache`], carrying the publish version the
/// optimistic insertion protocol checks (see the crate docs).
pub enum Lookup {
    /// An entry answering the query outright.
    Hit(MeasureSummary),
    /// Partial answer: merge `base` with descents of `remainders`.
    Semantic {
        /// The cached entry's summary.
        base: MeasureSummary,
        /// Whether the base's min/max are exact.
        exact_extrema: bool,
        /// Disjoint MDSs that still descend the tree.
        remainders: Vec<Mds>,
        /// Version for [`SharedCache::insert_if_current`].
        version: u64,
    },
    /// Nothing usable; descend and optionally insert at `version`.
    Miss {
        /// Version for [`SharedCache::insert_if_current`].
        version: u64,
    },
}

struct Entry {
    mds: Mds,
    summary: MeasureSummary,
    /// `false` after a delete removed an extremum: sum/count stay exact,
    /// min/max may be stale-wide and must not be served.
    extrema_valid: bool,
    /// Logical page reads the filling descent performed — the benefit a hit
    /// reaps, and the first factor of the eviction score.
    saved_pages: u64,
    hits: u64,
    last_used: u64,
}

/// A single-threaded aggregate cache over normalized query MDSs.
///
/// [`SharedCache`] adds the lock and the publish-version discipline; this
/// type holds the data structures:
///
/// * `by_key`: exact-match index (MDSs are canonical — sorted, deduplicated
///   per-dimension sets — so structural equality is semantic equality at
///   equal levels);
/// * `inverted`: per-(dimension, value) postings used by delta maintenance.
///   A record affects an entry iff, in every dimension, the record's
///   ancestor at the entry's relevant level is in the entry's set — so the
///   ancestor *chain* of the record's leaf in one probe dimension meets the
///   postings of every affected entry, no matter how coarse the cached
///   level. Candidates from the probe dimension are then verified on the
///   remaining dimensions with `contains_record`.
pub struct AggregateCache {
    config: CacheConfig,
    tick: u64,
    next_id: u64,
    entries: HashMap<u64, Entry>,
    by_key: HashMap<Mds, u64>,
    inverted: HashMap<(DimensionId, ValueId), HashSet<u64>>,
}

impl AggregateCache {
    /// An empty cache.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.capacity > 0, "cache capacity must be positive");
        AggregateCache {
            config,
            tick: 0,
            next_id: 0,
            entries: HashMap::new(),
            by_key: HashMap::new(),
            inverted: HashMap::new(),
        }
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up `query`. `need_extrema` demands exact min/max (a full
    /// summary or a MIN/MAX query); entries degraded by deletes then
    /// neither hit nor contribute.
    pub fn lookup(
        &mut self,
        schema: &CubeSchema,
        query: &Mds,
        need_extrema: bool,
    ) -> DcResult<InnerLookup> {
        self.tick += 1;
        if let Some(&id) = self.by_key.get(query) {
            let e = self.entries.get_mut(&id).expect("indexed entry exists");
            if e.extrema_valid || !need_extrema {
                e.hits += 1;
                e.last_used = self.tick;
                return Ok(InnerLookup::Hit(e.summary));
            }
        }
        // Best contained entry = the one covering the most records: every
        // covered record is a record the remainder descent skips.
        let mut best: Option<(u64, u64)> = None;
        for (&id, e) in self.entries.iter().take(SEMANTIC_SCAN_LIMIT) {
            if (need_extrema && !e.extrema_valid) || e.summary.is_empty() {
                continue;
            }
            if best.is_some_and(|(_, count)| e.summary.count <= count) {
                continue;
            }
            if e.mds.contained_in(query, schema)? {
                best = Some((id, e.summary.count));
            }
        }
        let Some((id, _)) = best else {
            return Ok(InnerLookup::Miss);
        };
        let entry_mds = self.entries[&id].mds.clone();
        match remainder_terms(schema, query, &entry_mds, MAX_REMAINDER_VALUES)? {
            None => Ok(InnerLookup::Miss),
            Some(remainders) => {
                let e = self.entries.get_mut(&id).expect("candidate entry exists");
                e.hits += 1;
                e.last_used = self.tick;
                Ok(InnerLookup::Semantic {
                    base: e.summary,
                    exact_extrema: e.extrema_valid,
                    remainders,
                })
            }
        }
    }

    /// Applies one batch of record-level writes: every entry covering a
    /// record is patched in place (insert: add; delete: subtract, degrading
    /// the extrema only when the deleted value touched them — the
    /// MIN/MAX-only invalidation of the write-through design).
    pub fn apply_deltas(&mut self, schema: &CubeSchema, deltas: &[CacheDelta]) -> ApplyStats {
        let mut stats = ApplyStats::default();
        if self.entries.is_empty() {
            return stats;
        }
        let probe = DimensionId(0);
        let h = schema.dim(probe);
        let top = h.top_level();
        for delta in deltas {
            let record = &delta.record;
            let leaf = record.dims[probe.as_usize()];
            let mut candidates: Vec<u64> = Vec::new();
            for level in leaf.level()..=top {
                let Ok(anc) = h.ancestor_at(leaf, level) else {
                    break;
                };
                if let Some(ids) = self.inverted.get(&(probe, anc)) {
                    candidates.extend(ids.iter().copied());
                }
            }
            for id in candidates {
                let Some(e) = self.entries.get_mut(&id) else {
                    continue;
                };
                if !matches!(e.mds.contains_record(schema, record), Ok(true)) {
                    continue;
                }
                if delta.delete {
                    if e.summary.is_empty() {
                        // A delete under an empty entry means the entry no
                        // longer reflects the tree; drop it defensively.
                        stats.invalidations += 1;
                        self.remove(id);
                        continue;
                    }
                    let exact = e.summary.subtract(record.measure);
                    if e.summary.is_empty() {
                        e.extrema_valid = true; // empty is exact again
                    } else if !exact {
                        if e.extrema_valid {
                            stats.invalidations += 1;
                        }
                        e.extrema_valid = false;
                    }
                } else {
                    e.summary.add(record.measure);
                }
                stats.patches += 1;
            }
        }
        stats
    }

    /// Inserts (or refreshes) the entry for `query`. `saved_pages` is the
    /// logical page-read cost of the descent this entry short-circuits.
    pub fn insert(&mut self, query: Mds, summary: MeasureSummary, saved_pages: u64) -> InsertStats {
        let mut stats = InsertStats::default();
        self.tick += 1;
        if let Some(&id) = self.by_key.get(&query) {
            let e = self.entries.get_mut(&id).expect("indexed entry exists");
            e.summary = summary;
            e.extrema_valid = true;
            e.saved_pages = e.saved_pages.max(saved_pages);
            e.last_used = self.tick;
            stats.entries = self.entries.len() as u64;
            return stats;
        }
        while self.entries.len() >= self.config.capacity {
            let Some(victim) = self.pick_victim() else {
                break;
            };
            self.remove(victim);
            stats.evictions += 1;
        }
        let id = self.next_id;
        self.next_id += 1;
        for (d, set) in query.dims().enumerate() {
            for &v in set.values() {
                self.inverted
                    .entry((DimensionId(d as u16), v))
                    .or_default()
                    .insert(id);
            }
        }
        self.by_key.insert(query.clone(), id);
        self.entries.insert(
            id,
            Entry {
                mds: query,
                summary,
                extrema_valid: true,
                saved_pages,
                hits: 0,
                last_used: self.tick,
            },
        );
        stats.entries = self.entries.len() as u64;
        stats
    }

    /// The entry with the lowest benefit score: pages-saved × hit count,
    /// discounted by recency (ticks since last use) — a cheap, frequently
    /// re-used entry outlives an expensive one nobody asks for anymore.
    fn pick_victim(&self) -> Option<u64> {
        self.entries
            .iter()
            .min_by_key(|(_, e)| {
                let benefit = u128::from(e.saved_pages.max(1)) * u128::from(e.hits + 1);
                let age = u128::from(self.tick - e.last_used + 1);
                // Scale before dividing so small benefits stay ordered.
                benefit.saturating_mul(1 << 20) / age
            })
            .map(|(&id, _)| id)
    }

    fn remove(&mut self, id: u64) {
        let Some(e) = self.entries.remove(&id) else {
            return;
        };
        self.by_key.remove(&e.mds);
        for (d, set) in e.mds.dims().enumerate() {
            for &v in set.values() {
                let key = (DimensionId(d as u16), v);
                if let Some(ids) = self.inverted.get_mut(&key) {
                    ids.remove(&id);
                    if ids.is_empty() {
                        self.inverted.remove(&key);
                    }
                }
            }
        }
    }
}

/// The thread-safe cache the serving engine embeds.
///
/// One mutex guards the whole cache; a monotonically increasing *publish
/// version* implements the epoch discipline (see the crate docs): shard
/// writers call [`publish`](Self::publish), which applies their delta batch
/// and swaps their snapshot while holding the lock, so cache contents and
/// published snapshots never diverge observably. Query threads that miss
/// compute from snapshots and insert through
/// [`insert_if_current`](Self::insert_if_current), which drops the insertion
/// if any publish intervened — a summary computed from superseded snapshots
/// never enters the cache.
pub struct SharedCache {
    inner: Mutex<AggregateCache>,
    version: AtomicU64,
}

impl SharedCache {
    /// An empty shared cache.
    pub fn new(config: CacheConfig) -> Self {
        SharedCache {
            inner: Mutex::new(AggregateCache::new(config)),
            version: AtomicU64::new(0),
        }
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// The current publish version (for tests and tools).
    pub fn version(&self) -> u64 {
        self.version.load(Relaxed)
    }

    /// Looks up `query`, attaching the publish version misses must echo
    /// back through [`insert_if_current`](Self::insert_if_current).
    pub fn lookup(&self, schema: &CubeSchema, query: &Mds, need_extrema: bool) -> DcResult<Lookup> {
        let mut inner = self.inner.lock();
        let version = self.version.load(Relaxed);
        Ok(match inner.lookup(schema, query, need_extrema)? {
            InnerLookup::Hit(s) => Lookup::Hit(s),
            InnerLookup::Semantic {
                base,
                exact_extrema,
                remainders,
            } => Lookup::Semantic {
                base,
                exact_extrema,
                remainders,
                version,
            },
            InnerLookup::Miss => Lookup::Miss { version },
        })
    }

    /// Applies a shard writer's delta batch and runs `swap` (the snapshot
    /// publication) under the cache lock, bumping the publish version iff
    /// the batch changed anything. Atomicity of patch + swap is what keeps a
    /// cached answer pinned to the epoch a bypassing query would see.
    pub fn publish<R>(
        &self,
        schema: &CubeSchema,
        deltas: &[CacheDelta],
        swap: impl FnOnce() -> R,
    ) -> (ApplyStats, R) {
        let mut inner = self.inner.lock();
        let stats = inner.apply_deltas(schema, deltas);
        if !deltas.is_empty() {
            self.version.fetch_add(1, Relaxed);
        }
        let result = swap();
        (stats, result)
    }

    /// Inserts the entry unless a publish intervened since `version` was
    /// observed (the summary would then describe superseded snapshots).
    pub fn insert_if_current(
        &self,
        version: u64,
        query: Mds,
        summary: MeasureSummary,
        saved_pages: u64,
    ) -> Option<InsertStats> {
        let mut inner = self.inner.lock();
        if self.version.load(Relaxed) != version {
            return None;
        }
        Some(inner.insert(query, summary, saved_pages))
    }
}

impl std::fmt::Debug for SharedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedCache")
            .field("entries", &self.len())
            .field("version", &self.version())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_hierarchy::HierarchySchema;
    use dc_mds::DimSet;

    fn schema() -> CubeSchema {
        let mut s = CubeSchema::new(
            vec![
                HierarchySchema::new("X", vec!["Region".into(), "Nation".into()]),
                HierarchySchema::new("Y", vec!["Year".into()]),
            ],
            "m",
        );
        for (r, n) in [("EU", "DE"), ("EU", "FR"), ("AS", "JP")] {
            for y in ["1996", "1997"] {
                s.intern_record(&[vec![r, n], vec![y]], 0).unwrap();
            }
        }
        s
    }

    fn record(s: &mut CubeSchema, r: &str, n: &str, y: &str, m: i64) -> Record {
        s.intern_record(&[vec![r, n], vec![y]], m).unwrap()
    }

    fn eu_96(s: &CubeSchema) -> Mds {
        Mds::new(vec![
            DimSet::singleton(s.dim(DimensionId(0)).lookup_path(&["EU"]).unwrap()),
            DimSet::singleton(s.dim(DimensionId(1)).lookup_path(&["1996"]).unwrap()),
        ])
    }

    #[test]
    fn exact_hit_after_insert() {
        let s = schema();
        let mut c = AggregateCache::new(CacheConfig::default());
        let q = eu_96(&s);
        let summary: MeasureSummary = [10i64, 20].into_iter().collect();
        c.insert(q.clone(), summary, 7);
        match c.lookup(&s, &q, true).unwrap() {
            InnerLookup::Hit(got) => assert_eq!(got, summary),
            _ => panic!("expected exact hit"),
        }
    }

    #[test]
    fn coarse_entry_is_patched_through_the_ancestor_chain() {
        let mut s = schema();
        let mut c = AggregateCache::new(CacheConfig::default());
        // Cached at the Region level; the record arrives at the leaf level.
        let q = eu_96(&s);
        c.insert(q.clone(), [10i64, 20].into_iter().collect(), 1);
        let r = record(&mut s, "EU", "DE", "1996", 5);
        let stats = c.apply_deltas(
            &s,
            &[CacheDelta {
                record: r,
                delete: false,
            }],
        );
        assert_eq!(stats.patches, 1);
        assert_eq!(stats.invalidations, 0);
        match c.lookup(&s, &q, true).unwrap() {
            InnerLookup::Hit(got) => {
                assert_eq!(got.sum, 35);
                assert_eq!(got.count, 3);
                assert_eq!(got.min, 5);
                assert_eq!(got.max, 20);
            }
            _ => panic!("expected hit"),
        }
        // A record outside the entry (AS or 1997) leaves it untouched.
        let out = record(&mut s, "AS", "JP", "1996", 100);
        let stats = c.apply_deltas(
            &s,
            &[CacheDelta {
                record: out,
                delete: false,
            }],
        );
        assert_eq!(stats.patches, 0);
    }

    #[test]
    fn delete_patches_sum_count_and_degrades_extrema_only_when_touched() {
        let mut s = schema();
        let mut c = AggregateCache::new(CacheConfig::default());
        let q = eu_96(&s);
        c.insert(q.clone(), [10i64, 20, 30].into_iter().collect(), 1);
        // Interior delete: everything stays exact.
        let mid = record(&mut s, "EU", "FR", "1996", 20);
        c.apply_deltas(
            &s,
            &[CacheDelta {
                record: mid,
                delete: true,
            }],
        );
        match c.lookup(&s, &q, true).unwrap() {
            InnerLookup::Hit(got) => {
                assert_eq!((got.sum, got.count, got.min, got.max), (40, 2, 10, 30))
            }
            _ => panic!("expected hit"),
        }
        // Extremum delete: sum/count remain servable, min/max do not.
        let top = record(&mut s, "EU", "DE", "1996", 30);
        let stats = c.apply_deltas(
            &s,
            &[CacheDelta {
                record: top,
                delete: true,
            }],
        );
        assert_eq!(stats.invalidations, 1);
        assert!(matches!(
            c.lookup(&s, &q, false).unwrap(),
            InnerLookup::Hit(got) if got.sum == 10 && got.count == 1
        ));
        assert!(matches!(c.lookup(&s, &q, true).unwrap(), InnerLookup::Miss));
    }

    #[test]
    fn semantic_lookup_returns_contained_entry_plus_remainder() {
        let s = schema();
        let mut c = AggregateCache::new(CacheConfig::default());
        // Cache {DE} × 1996; query EU × 1996.
        let entry = Mds::new(vec![
            DimSet::singleton(s.dim(DimensionId(0)).lookup_path(&["EU", "DE"]).unwrap()),
            DimSet::singleton(s.dim(DimensionId(1)).lookup_path(&["1996"]).unwrap()),
        ]);
        let base: MeasureSummary = [5i64].into_iter().collect();
        c.insert(entry, base, 3);
        match c.lookup(&s, &eu_96(&s), true).unwrap() {
            InnerLookup::Semantic {
                base: got,
                exact_extrema,
                remainders,
            } => {
                assert_eq!(got, base);
                assert!(exact_extrema);
                assert_eq!(remainders.len(), 1); // {FR} × {1996}
            }
            _ => panic!("expected semantic reuse"),
        }
    }

    #[test]
    fn eviction_prefers_low_benefit_entries() {
        let s = schema();
        let mut c = AggregateCache::new(CacheConfig { capacity: 2 });
        let expensive = eu_96(&s);
        c.insert(expensive.clone(), MeasureSummary::of(1), 1_000);
        let cheap = Mds::new(vec![
            DimSet::singleton(s.dim(DimensionId(0)).lookup_path(&["AS"]).unwrap()),
            DimSet::singleton(s.dim(DimensionId(1)).lookup_path(&["1997"]).unwrap()),
        ]);
        c.insert(cheap, MeasureSummary::of(2), 1);
        // Keep the expensive entry warm.
        let _ = c.lookup(&s, &expensive, true).unwrap();
        let third = Mds::new(vec![
            DimSet::singleton(s.dim(DimensionId(0)).all()),
            DimSet::singleton(s.dim(DimensionId(1)).all()),
        ]);
        let stats = c.insert(third, MeasureSummary::of(3), 10);
        assert_eq!(stats.evictions, 1);
        assert_eq!(c.len(), 2);
        // The expensive, recently-hit entry survived.
        assert!(matches!(
            c.lookup(&s, &expensive, true).unwrap(),
            InnerLookup::Hit(_)
        ));
    }

    #[test]
    fn shared_cache_version_gates_stale_insertions() {
        let mut s = schema();
        let shared = SharedCache::new(CacheConfig::default());
        let q = eu_96(&s);
        let Lookup::Miss { version } = shared.lookup(&s, &q, true).unwrap() else {
            panic!("expected miss");
        };
        // A publish with deltas intervenes: the insertion must be dropped.
        let r = record(&mut s, "EU", "DE", "1996", 5);
        let (_, ()) = shared.publish(
            &s,
            &[CacheDelta {
                record: r,
                delete: false,
            }],
            || (),
        );
        assert!(shared
            .insert_if_current(version, q.clone(), MeasureSummary::of(1), 1)
            .is_none());
        // A delta-free publish (flush-only) does not bump the version.
        let Lookup::Miss { version } = shared.lookup(&s, &q, true).unwrap() else {
            panic!("expected miss");
        };
        let (_, ()) = shared.publish(&s, &[], || ());
        assert!(shared
            .insert_if_current(version, q, MeasureSummary::of(1), 1)
            .is_some());
        assert_eq!(shared.len(), 1);
    }
}
