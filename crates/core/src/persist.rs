//! Tree persistence: a versioned, checked binary image of a whole DC-tree —
//! configuration, concept hierarchies (with their dynamically assigned IDs),
//! node arena, and counters.
//!
//! IDs are preserved exactly across a round-trip: hierarchies are replayed
//! in per-level insertion order (which is what assigns IDs), and arena slots
//! are stored positionally, holes included, so `NodeId`s stay valid.
//!
//! All reads go through the checked [`ByteReader`], so a corrupt or
//! truncated image produces [`DcError::Corrupt`] rather than a panic.

use std::path::Path;

use dc_common::{DcError, DcResult, DimensionId, MeasureSummary, RecordId, ValueId};
use dc_hierarchy::{CubeSchema, HierarchySchema, Record};
use dc_mds::{DimSet, Mds};
use dc_storage::{BlockConfig, ByteReader, ByteWriter};

use crate::config::DcTreeConfig;
use crate::node::{DirEntry, Node, NodeId, NodeKind, StoredRecord};
use crate::store::Arena;
use crate::tree::DcTree;

const MAGIC: &[u8; 8] = b"DCTREE01";

impl DcTree {
    /// Serializes the whole tree into a byte image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(1 << 16);
        for &b in MAGIC {
            w.put_u8(b);
        }
        write_config(&mut w, self.config());
        write_schema(&mut w, self.schema());

        let slots = self.store.slots();
        w.put_u32(slots.len() as u32);
        for slot in slots {
            match slot {
                None => w.put_u8(0),
                Some(node) => {
                    w.put_u8(1);
                    write_node(&mut w, node);
                }
            }
        }
        w.put_u32(self.root.0);
        w.put_u64(self.next_record_id_for_persist());
        w.put_u64(self.len());
        w.into_vec()
    }

    /// Reconstructs a tree from a byte image produced by [`Self::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> DcResult<DcTree> {
        let mut r = ByteReader::new(bytes);
        for &expected in MAGIC {
            if r.get_u8()? != expected {
                return Err(DcError::Corrupt("bad magic — not a DC-tree image".into()));
            }
        }
        let config = read_config(&mut r)?;
        let schema = read_schema(&mut r)?;
        let num_dims = schema.num_dims();

        let num_slots = r.get_count(1)?;
        let mut slots = Vec::with_capacity(num_slots);
        for _ in 0..num_slots {
            match r.get_u8()? {
                0 => slots.push(None),
                1 => slots.push(Some(read_node(&mut r, num_dims)?)),
                tag => return Err(DcError::Corrupt(format!("bad slot tag {tag}"))),
            }
        }
        let root = NodeId(r.get_u32()?);
        if root.index() >= slots.len() || slots[root.index()].is_none() {
            return Err(DcError::Corrupt("root points at a missing slot".into()));
        }
        // Child pointers must resolve before any traversal may follow them.
        for slot in slots.iter().flatten() {
            if let NodeKind::Dir(entries) = &slot.kind {
                for e in entries {
                    if e.child.index() >= slots.len() || slots[e.child.index()].is_none() {
                        return Err(DcError::Corrupt(format!(
                            "entry references missing child {:?}",
                            e.child
                        )));
                    }
                }
            }
        }
        let next_record_id = r.get_u64()?;
        let len = r.get_u64()?;
        r.expect_end()?;

        let arena = Arena::from_slots(slots);
        let nodes = arena.len();
        let tree = DcTree::from_stored(schema, config, arena, root, next_record_id, len, nodes)?;
        // A loaded image is untrusted input: validate before use.
        tree.check_invariants()?;
        Ok(tree)
    }

    /// Saves the tree image to a file.
    pub fn save_to(&self, path: impl AsRef<Path>) -> DcResult<()> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Loads a tree image from a file.
    pub fn load_from(path: impl AsRef<Path>) -> DcResult<DcTree> {
        let bytes = std::fs::read(path)?;
        DcTree::from_bytes(&bytes)
    }
}

fn write_config(w: &mut ByteWriter, c: &DcTreeConfig) {
    w.put_u64(c.block.block_size as u64);
    w.put_u64(c.dir_capacity as u64);
    w.put_u64(c.data_capacity as u64);
    w.put_u64(c.min_fill.to_bits());
    w.put_u64(c.max_overlap.to_bits());
    w.put_u8(u8::from(c.allow_supernodes));
    w.put_u32(c.max_supernode_blocks);
    w.put_u8(u8::from(c.use_materialized_aggregates));
    w.put_u8(u8::from(c.use_paper_fig7_containment));
}

fn read_config(r: &mut ByteReader) -> DcResult<DcTreeConfig> {
    let block_size = r.get_u64()? as usize;
    if block_size == 0 {
        return Err(DcError::Corrupt("zero block size".into()));
    }
    let config = DcTreeConfig {
        block: BlockConfig::new(block_size),
        dir_capacity: r.get_u64()? as usize,
        data_capacity: r.get_u64()? as usize,
        min_fill: f64::from_bits(r.get_u64()?),
        max_overlap: f64::from_bits(r.get_u64()?),
        allow_supernodes: r.get_u8()? != 0,
        max_supernode_blocks: r.get_u32()?,
        use_materialized_aggregates: r.get_u8()? != 0,
        use_paper_fig7_containment: r.get_u8()? != 0,
    };
    config
        .validate_checked()
        .map_err(|msg| DcError::Corrupt(format!("invalid persisted config: {msg}")))?;
    Ok(config)
}

pub fn write_schema(w: &mut ByteWriter, schema: &CubeSchema) {
    w.put_u16(schema.num_dims() as u16);
    w.put_str(schema.measure_name());
    // First all hierarchy schemata, then all values — mirroring the two
    // passes of `read_schema`.
    for h in schema.dims() {
        w.put_str(h.schema().name());
        w.put_u16(h.schema().num_attributes() as u16);
        for level in (0..h.top_level()).rev() {
            w.put_str(h.schema().attribute_name(level).expect("attribute level"));
        }
    }
    for h in schema.dims() {
        // Values per level, top-1 downwards, in ID (insertion) order —
        // replaying in this order reproduces identical IDs.
        for level in (0..h.top_level()).rev() {
            w.put_u32(h.num_values_at(level) as u32);
            for id in h.values_at(level) {
                let parent = h.parent(id).expect("known id").expect("non-root");
                w.put_u32(parent.raw());
                w.put_str(h.name(id).expect("known id"));
            }
        }
    }
}

pub fn read_schema(r: &mut ByteReader) -> DcResult<CubeSchema> {
    let num_dims = r.get_u16()? as usize;
    let measure = r.get_str()?;
    let mut dim_schemas = Vec::with_capacity(num_dims);
    let mut attr_counts = Vec::with_capacity(num_dims);
    for _ in 0..num_dims {
        let name = r.get_str()?;
        let n_attrs = r.get_u16()? as usize;
        let mut attrs = Vec::with_capacity(n_attrs);
        for _ in 0..n_attrs {
            attrs.push(r.get_str()?);
        }
        attr_counts.push(n_attrs);
        dim_schemas.push(HierarchySchema::new(name, attrs));
    }
    let mut schema = CubeSchema::new(dim_schemas, measure);
    // Second pass: replay values in ID order.
    for (d, &n_attrs) in attr_counts.iter().enumerate() {
        let dim = DimensionId(d as u16);
        for level in (0..n_attrs as u8).rev() {
            let count = r.get_count(8)? as u32;
            for expected_index in 0..count {
                let parent = ValueId::from_raw(r.get_u32()?);
                let name = r.get_str()?;
                let h = schema.dim_mut(dim);
                let id = h.insert_child(parent, &name)?;
                if id != ValueId::new(level, expected_index) {
                    return Err(DcError::Corrupt(format!(
                        "hierarchy replay produced {id} instead of v{expected_index}@L{level}"
                    )));
                }
            }
        }
    }
    Ok(schema)
}

pub(crate) fn write_mds(w: &mut ByteWriter, mds: &Mds) {
    for d in mds.dims() {
        w.put_u8(d.level());
        w.put_u32(d.len() as u32);
        for &v in d.values() {
            w.put_u32(v.raw());
        }
    }
}

pub(crate) fn read_mds(r: &mut ByteReader, num_dims: usize) -> DcResult<Mds> {
    let mut dims = Vec::with_capacity(num_dims);
    for _ in 0..num_dims {
        let level = r.get_u8()?;
        let len = r.get_count(4)?;
        let mut values = Vec::with_capacity(len);
        for _ in 0..len {
            let v = ValueId::from_raw(r.get_u32()?);
            if v.level() != level {
                return Err(DcError::Corrupt(format!(
                    "MDS value {v} not on relevant level {level}"
                )));
            }
            values.push(v);
        }
        dims.push(DimSet::new(level, values));
    }
    Ok(Mds::new(dims))
}

pub(crate) fn write_summary(w: &mut ByteWriter, s: &MeasureSummary) {
    w.put_i64(s.sum);
    w.put_u64(s.count);
    w.put_i64(s.min);
    w.put_i64(s.max);
}

pub(crate) fn read_summary(r: &mut ByteReader) -> DcResult<MeasureSummary> {
    Ok(MeasureSummary {
        sum: r.get_i64()?,
        count: r.get_u64()?,
        min: r.get_i64()?,
        max: r.get_i64()?,
    })
}

pub fn write_node(w: &mut ByteWriter, node: &Node) {
    write_mds(w, &node.mds);
    write_summary(w, &node.summary);
    w.put_u32(node.blocks);
    match &node.kind {
        NodeKind::Dir(entries) => {
            w.put_u8(0);
            w.put_u32(entries.len() as u32);
            for e in entries {
                write_mds(w, &e.mds);
                write_summary(w, &e.summary);
                w.put_u32(e.child.0);
            }
        }
        NodeKind::Data(records) => {
            w.put_u8(1);
            w.put_u32(records.len() as u32);
            for r in records {
                w.put_u64(r.id.0);
                for &d in &r.record.dims {
                    w.put_u32(d.raw());
                }
                w.put_i64(r.record.measure);
            }
        }
    }
}

pub fn read_node(r: &mut ByteReader, num_dims: usize) -> DcResult<Node> {
    let mds = read_mds(r, num_dims)?;
    let summary = read_summary(r)?;
    let blocks = r.get_u32()?;
    if blocks == 0 {
        return Err(DcError::Corrupt("node with zero blocks".into()));
    }
    let kind = match r.get_u8()? {
        0 => {
            let n = r.get_count(32)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let mds = read_mds(r, num_dims)?;
                let summary = read_summary(r)?;
                let child = NodeId(r.get_u32()?);
                entries.push(DirEntry {
                    mds,
                    summary,
                    child,
                });
            }
            NodeKind::Dir(entries)
        }
        1 => {
            let n = r.get_count(16)?;
            let mut records = Vec::with_capacity(n);
            for _ in 0..n {
                let id = RecordId(r.get_u64()?);
                let dims = (0..num_dims)
                    .map(|_| r.get_u32().map(ValueId::from_raw))
                    .collect::<DcResult<_>>()?;
                let measure = r.get_i64()?;
                records.push(StoredRecord {
                    id,
                    record: Record { dims, measure },
                });
            }
            NodeKind::Data(records)
        }
        tag => return Err(DcError::Corrupt(format!("bad node kind tag {tag}"))),
    };
    Ok(Node {
        mds,
        summary,
        blocks,
        kind,
    })
}
