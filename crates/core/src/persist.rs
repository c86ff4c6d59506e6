//! Byte codec of the cube schema the paged store's tree metadata carries.
//! IDs survive exactly: values are replayed in per-level insertion order,
//! which is what assigns them. Reads go through the checked
//! [`ByteReader`]: corrupt bytes are [`DcError::Corrupt`], never a panic.
//! Node pages have their own codec, `dc_oocore::codec`.

use dc_common::{DcError, DcResult, DimensionId, ValueId};
use dc_hierarchy::{CubeSchema, HierarchySchema};
use dc_storage::{ByteReader, ByteWriter};

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
