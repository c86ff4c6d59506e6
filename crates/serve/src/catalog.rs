//! The shared schema catalog: one globally ordered intern log that keeps
//! every shard's `ValueId` space identical to the engine's.
//!
//! Concept-hierarchy IDs are assigned sequentially per level, in insertion
//! order (`dc-hierarchy`), so any two schemas that intern the same sequence
//! of attribute paths assign the same IDs. The catalog exploits this: it
//! interns every incoming record's paths into a master schema and appends
//! the paths of *state-changing* interns (those that created at least one
//! new value) to a log. Shard writer threads replay the log — in order,
//! through [`dc_tree::DcTree::intern_paths`] — before applying records, so
//! a `ValueId` means the same value in the catalog and in every shard.

use std::sync::Arc;

use dc_common::{DcResult, Measure};
use dc_hierarchy::{CubeSchema, Dims, Record};
use parking_lot::Mutex;

/// One logged intern: the attribute paths (top → leaf, one per dimension)
/// that introduced at least one new hierarchy value.
pub type InternEntry = Arc<Vec<Vec<String>>>;

/// The master schema plus the ordered intern log.
pub struct SchemaCatalog {
    inner: Mutex<Inner>,
}

struct Inner {
    schema: CubeSchema,
    log: Vec<InternEntry>,
}

impl SchemaCatalog {
    /// Wraps an initial schema. Values already present in `schema` are the
    /// shared baseline: shard trees must be constructed from a clone of the
    /// same schema (see [`ShardedDcTree`](crate::ShardedDcTree)), so the
    /// log only needs to carry values interned after this point.
    pub fn new(schema: CubeSchema) -> Self {
        SchemaCatalog {
            inner: Mutex::new(Inner {
                schema,
                log: Vec::new(),
            }),
        }
    }

    /// Interns a record's paths into the master schema. Returns the
    /// pre-interned record and the log epoch a shard must have replayed
    /// before it may apply this record.
    pub fn intern<S: AsRef<str>>(
        &self,
        paths: &[Vec<S>],
        measure: Measure,
    ) -> DcResult<(Record, u64)> {
        let mut inner = self.inner.lock();
        let before: usize = inner.schema.dims().map(|h| h.num_values()).sum();
        let record = inner.schema.intern_record(paths, measure)?;
        let after: usize = inner.schema.dims().map(|h| h.num_values()).sum();
        if after != before {
            let owned: Vec<Vec<String>> = paths
                .iter()
                .map(|dim| dim.iter().map(|s| s.as_ref().to_string()).collect())
                .collect();
            inner.log.push(Arc::new(owned));
        }
        Ok((record, inner.log.len() as u64))
    }

    /// Resolves a record's paths against the master schema **without
    /// interning**: `None` when some path names a value the catalog has
    /// never seen (no such record can exist), else the record and the epoch
    /// a shard must have replayed before it may look for it. Malformed
    /// paths (dimension count, depth) are an error, as in [`Self::intern`].
    pub fn lookup<S: AsRef<str>>(
        &self,
        paths: &[Vec<S>],
        measure: Measure,
    ) -> DcResult<Option<(Record, u64)>> {
        let inner = self.inner.lock();
        inner.schema.validate_paths(paths)?;
        let dims: Option<Dims> = inner
            .schema
            .dims()
            .zip(paths)
            .map(|(h, path)| h.lookup_path(path))
            .collect();
        Ok(dims.map(|dims| (Record { dims, measure }, inner.log.len() as u64)))
    }

    /// The current log length — the epoch a fully caught-up shard has
    /// replayed.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().log.len() as u64
    }

    /// Clones the log entries in `[from, to)` for shard replay. Entries are
    /// `Arc`s, so this copies pointers, not paths.
    pub fn entries(&self, from: u64, to: u64) -> Vec<InternEntry> {
        let inner = self.inner.lock();
        inner.log[from as usize..to as usize].to_vec()
    }

    /// Runs `f` against the master schema (parsing queries, resolving
    /// routing ancestors). Keep `f` short: the catalog lock is shared with
    /// the ingest path.
    pub fn with_schema<R>(&self, f: impl FnOnce(&CubeSchema) -> R) -> R {
        f(&self.inner.lock().schema)
    }

    /// A clone of the current master schema.
    pub fn schema(&self) -> CubeSchema {
        self.inner.lock().schema.clone()
    }
}

impl std::fmt::Debug for SchemaCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("SchemaCatalog")
            .field("log_len", &inner.log.len())
            .field("dims", &inner.schema.num_dims())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_hierarchy::HierarchySchema;

    fn schema() -> CubeSchema {
        CubeSchema::new(
            vec![HierarchySchema::new("D", vec!["Top".into(), "Leaf".into()])],
            "m",
        )
    }

    #[test]
    fn only_state_changing_interns_are_logged() {
        let cat = SchemaCatalog::new(schema());
        let (_, e1) = cat.intern(&[vec!["a", "a1"]], 1).unwrap();
        assert_eq!(e1, 1);
        // Same paths again: no new values, no new log entry.
        let (_, e2) = cat.intern(&[vec!["a", "a1"]], 2).unwrap();
        assert_eq!(e2, 1);
        let (_, e3) = cat.intern(&[vec!["a", "a2"]], 3).unwrap();
        assert_eq!(e3, 2);
        assert_eq!(cat.entries(0, 2).len(), 2);
    }

    #[test]
    fn lookup_resolves_without_interning() {
        let cat = SchemaCatalog::new(schema());
        let (rec, epoch) = cat.intern(&[vec!["a", "a1"]], 1).unwrap();
        assert_eq!(
            cat.lookup(&[vec!["a", "a1"]], 1).unwrap(),
            Some((rec, epoch))
        );
        // Unknown leaf, unknown top: a miss that changes nothing.
        assert_eq!(cat.lookup(&[vec!["a", "a9"]], 1).unwrap(), None);
        assert_eq!(cat.lookup(&[vec!["z", "z1"]], 1).unwrap(), None);
        assert_eq!(cat.epoch(), epoch);
        assert_eq!(
            cat.with_schema(|s| s.dims().map(|h| h.num_values()).sum::<usize>()),
            3
        );
        // Malformed paths fail like an intern does.
        assert!(cat.lookup(&[vec!["a"]], 1).is_err());
        assert!(cat.lookup::<&str>(&[], 1).is_err());
    }

    #[test]
    fn replaying_log_reproduces_ids() {
        let cat = SchemaCatalog::new(schema());
        let inputs = [
            vec!["a", "a1"],
            vec!["b", "b1"],
            vec!["a", "a2"],
            vec!["b", "b1"],
        ];
        let mut records = Vec::new();
        for p in &inputs {
            records.push(cat.intern(std::slice::from_ref(p), 0).unwrap());
        }
        // An independent schema replaying the log assigns identical IDs.
        let mut replica = schema();
        for entry in cat.entries(0, cat.epoch()) {
            replica.intern_record(&entry, 0).unwrap();
        }
        for (p, (rec, _)) in inputs.iter().zip(&records) {
            let via_replica = replica.intern_record(std::slice::from_ref(p), 0).unwrap();
            assert_eq!(via_replica.dims, rec.dims);
        }
    }
}
