//! The shared schema catalog: the engine's one interner and one concept
//! hierarchy per dimension.
//!
//! The catalog interns every incoming record's paths into the master
//! schema, which alone keeps the name dictionaries. Once a batch is
//! interned, [`SchemaCatalog::snapshot`] publishes a read-only snapshot of
//! it ([`CubeSchema::snapshot`]): it shares the hierarchies' value storage
//! with the master (see [`dc_hierarchy::ConceptHierarchy`]), so the next
//! intern copies at most the open tail of each level's names, and appends
//! ancestor rows past the snapshot's end. The engine hands
//! that snapshot to the shards it routes the batch to, and every shard tree
//! adopts it ([`dc_tree::DcTree::adopt_schema`]) before applying the batch.
//! So a `ValueId` means the same value in the catalog and in every shard,
//! and the hierarchy exists once however many shards there are.
//!
//! Snapshots are published in intern order, and each extends every earlier
//! one. [`SchemaCatalog::current`] is the latest, and it knows every value
//! any shard or any earlier reader knows. That is why queries resolve and
//! prepare against it without holding the interner's lock.

use std::sync::Arc;

use dc_common::{DcResult, Measure};
use dc_hierarchy::{CubeSchema, Dims, Record};
use parking_lot::{Mutex, RwLock};

/// The master schema and its latest published snapshot.
pub struct SchemaCatalog {
    master: Mutex<CubeSchema>,
    /// The latest snapshot. Written only under the `master` lock, so the
    /// master has grown since it was taken iff their value counts differ.
    current: RwLock<Arc<CubeSchema>>,
}

impl SchemaCatalog {
    /// Wraps an initial schema. Values already present in `schema` are the
    /// shared baseline every shard tree starts from.
    pub fn new(schema: CubeSchema) -> Self {
        SchemaCatalog {
            current: RwLock::new(Arc::new(schema.snapshot())),
            master: Mutex::new(schema),
        }
    }

    /// Interns a record's paths into the master schema and returns the
    /// pre-interned record. A shard may apply it once it holds a
    /// [`snapshot`](Self::snapshot) taken after this call.
    pub fn intern<S: AsRef<str>>(&self, paths: &[Vec<S>], measure: Measure) -> DcResult<Record> {
        self.master.lock().intern_record(paths, measure)
    }

    /// Resolves a record's paths against the master schema **without
    /// interning**: `None` when some path names a value the catalog has
    /// never seen (no such record can exist). Malformed paths (dimension
    /// count, depth) are an error, as in [`Self::intern`].
    pub fn lookup<S: AsRef<str>>(
        &self,
        paths: &[Vec<S>],
        measure: Measure,
    ) -> DcResult<Option<Record>> {
        let master = self.master.lock();
        master.validate_paths(paths)?;
        let dims: Option<Dims> = (master.dims())
            .zip(paths)
            .map(|(h, path)| h.lookup_path(path))
            .collect();
        Ok(dims.map(|dims| Record { dims, measure }))
    }

    /// Publishes the master schema as it is now — a new snapshot only if
    /// an intern grew it since the last one — and returns it. It knows
    /// every value interned before this call.
    pub fn snapshot(&self) -> Arc<CubeSchema> {
        let master = self.master.lock();
        if master.num_values() != self.current.read().num_values() {
            *self.current.write() = Arc::new(master.snapshot());
        }
        self.current()
    }

    /// The latest published snapshot, read without the interner's lock. It
    /// extends the schema of every shard and every snapshot handed out
    /// before this call.
    pub fn current(&self) -> Arc<CubeSchema> {
        Arc::clone(&self.current.read())
    }
}

impl std::fmt::Debug for SchemaCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let master = self.master.lock();
        f.debug_struct("SchemaCatalog")
            .field("values", &master.num_values())
            .field("dims", &master.num_dims())
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
        cat.intern(&[vec!["a", "a1"]], 1).unwrap();
        let s1 = cat.snapshot();
        assert_eq!(s1.num_values(), 3);
        // Same paths again: no new values, no new snapshot.
        cat.intern(&[vec!["a", "a1"]], 2).unwrap();
        assert!(Arc::ptr_eq(&cat.snapshot(), &s1));
        cat.intern(&[vec!["a", "a2"]], 3).unwrap();
        let s2 = cat.snapshot();
        assert!(!Arc::ptr_eq(&s2, &s1));
        assert!(s2.extends(&s1));
        assert_eq!(s2.num_values(), 4);
        assert!(Arc::ptr_eq(&cat.current(), &s2));
    }

    #[test]
    fn lookup_resolves_without_interning() {
        let cat = SchemaCatalog::new(schema());
        let rec = cat.intern(&[vec!["a", "a1"]], 1).unwrap();
        let before = cat.snapshot();
        assert_eq!(cat.lookup(&[vec!["a", "a1"]], 1).unwrap(), Some(rec));
        // Unknown leaf, unknown top: a miss that changes nothing.
        assert_eq!(cat.lookup(&[vec!["a", "a9"]], 1).unwrap(), None);
        assert_eq!(cat.lookup(&[vec!["z", "z1"]], 1).unwrap(), None);
        assert!(Arc::ptr_eq(&cat.snapshot(), &before));
        assert_eq!(before.num_values(), 3);
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
        let mut snapshots = Vec::new();
        for p in &inputs {
            records.push(cat.intern(std::slice::from_ref(p), 0).unwrap());
            snapshots.push(cat.snapshot());
        }
        // A fresh schema interning the same sequence assigns identical IDs,
        // and each snapshot names exactly what that prefix interned.
        let mut fresh = schema();
        for (i, (p, rec)) in inputs.iter().zip(&records).enumerate() {
            let again = fresh.intern_record(std::slice::from_ref(p), 0).unwrap();
            assert_eq!(again.dims, rec.dims);
            let snap = &snapshots[i];
            assert_eq!(snap.num_values(), fresh.num_values());
            assert_eq!(
                snap.dims().next().unwrap().lookup_path(p),
                Some(rec.dims[0])
            );
        }
        // A snapshot does not change when the catalog interns later.
        let first = Arc::clone(&snapshots[0]);
        cat.intern(&[vec!["c", "c1"]], 0).unwrap();
        assert_eq!(first.num_values(), 3);
        let h = first.dims().next().unwrap();
        assert_eq!(h.lookup_path(&["c"]), None);
        assert_eq!(h.lookup_path(&["a", "a1"]), Some(records[0].dims[0]));
    }
}
