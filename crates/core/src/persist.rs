//! Byte codecs of the paged store's on-disk form: the cube schema the tree
//! metadata carries (IDs survive exactly: values are replayed in per-level
//! insertion order, which is what assigns them) and the plain node layout.
//! Reads go through the checked [`ByteReader`]: corrupt bytes are
//! [`DcError::Corrupt`], never a panic.

use dc_common::{DcError, DcResult, DimensionId, MeasureSummary, RecordId, ValueId};
use dc_hierarchy::{CubeSchema, HierarchySchema, Record};
use dc_mds::{DimSet, Mds};
use dc_storage::{ByteReader, ByteWriter};

use crate::node::{DirEntry, Node, NodeId, NodeKind, StoredRecord};

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
