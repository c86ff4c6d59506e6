//! Shard files of the two earlier node formats still open, as a disk shard
//! and as a checkpoint image, as the tree they were written from: the same
//! nodes, the same total and the same answers.
//!
//! * `data/format1_shard.dct`: node format 1 — every node page headed by
//!   the node's MDS and summary, every record preceded by an id — and
//!   tree metadata `DCDISK02`, without the root entry.
//! * `data/format2_shard.dct`: node format 2 — records preceded by ids,
//!   no header — and tree metadata `DCDISK03`, with a record-id counter.
//!
//! Both hold the same tree: 480 TPC-D records (`TpcdConfig::scaled(600,
//! 46)` inserted one at a time, each insert `i` with `i % 5 == 4` followed
//! by a delete of record `i - 2`) in a disk shard with 512-byte blocks,
//! directory capacity 4 and data capacity 16: height 4, 69 nodes, one
//! directory supernode. The pinned values below were computed by the code
//! that wrote each file.

use std::fmt::Write;
use std::path::PathBuf;

use dc_common::{AggregateOp, DimensionId, MeasureSummary, TempDir, ValueId};
use dc_mds::{DimSet, Mds};
use dc_oocore::{read_image, write_image, OocDcTree, OocOptions};
use dc_storage::BlockConfig;
use dc_tree::{DcTree, DcTreeConfig, NodeStore};

const TOTAL: MeasureSummary = MeasureSummary {
    sum: 17_438_988,
    count: 480,
    min: 979,
    max: 94_150,
};
/// FNV-1a of [`answers`].
const ANSWERS: u64 = 0x7559_2113_8756_5175;
/// FNV-1a of [`structure`].
const STRUCTURE: u64 = 0xaf97_de40_a3c2_d01e;
/// FNV-1a of [`structure`] after [`churn`].
const CHURNED: u64 = 0xc79a_c34f_86a2_3148;

const FIXTURES: [&str; 2] = ["format1_shard.dct", "format2_shard.dct"];

fn config() -> DcTreeConfig {
    DcTreeConfig {
        block: BlockConfig::new(512),
        dir_capacity: 4,
        data_capacity: 16,
        ..DcTreeConfig::default()
    }
}

fn opts() -> OocOptions {
    OocOptions {
        block: BlockConfig::new(512),
        frames: 8,
    }
}

/// A scratch copy of the fixture `name`: opening a shard may write to it.
fn fixture(dir: &TempDir, name: &str) -> PathBuf {
    let src = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name);
    let path = dir.join(name);
    std::fs::copy(src, &path).unwrap();
    path
}

fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The answers to a fixed set of reads: per dimension, the first twelve
/// values of levels 1 and 0 as single-value ranges (summary and `SUM`),
/// then a `GROUP BY` of the whole cube on every level below the top.
fn answers<S: NodeStore>(tree: &DcTree<S>) -> String {
    let schema = tree.schema();
    let d = schema.num_dims();
    let all = |k: usize| DimSet::singleton(schema.dim(DimensionId(k as u16)).all());
    let mut out = String::new();
    for dim in 0..d {
        let h = schema.dim(DimensionId(dim as u16));
        for level in [1, 0] {
            for i in 0..h.num_values_at(level).min(12) {
                let v = ValueId::new(level, i as u32);
                let mut sets: Vec<DimSet> = (0..d).map(all).collect();
                sets[dim] = DimSet::singleton(v);
                let q = Mds::new(sets);
                let s = tree.range_summary(&q).unwrap();
                let sum = tree.range_query(&q, AggregateOp::Sum).unwrap();
                writeln!(out, "range d{dim} {v:?}: {s:?} {sum:?}").unwrap();
            }
        }
    }
    for dim in 0..d {
        let dim_id = DimensionId(dim as u16);
        for level in 0..schema.dim(dim_id).top_level() {
            let g = tree.group_by(dim_id, level, &Mds::all(schema)).unwrap();
            writeln!(out, "group d{dim} L{level}: {g:?}").unwrap();
        }
    }
    out
}

/// The tree's structure, one line per node: depth, MDS, summary, blocks
/// and members — a data node's records, each its leaf values and measure.
fn structure<S: NodeStore>(tree: &DcTree<S>) -> String {
    let mut out = String::new();
    for (depth, entry, node) in tree.structure().unwrap() {
        let (mds, summary) = (&entry.mds, &entry.summary);
        writeln!(
            out,
            "{depth} {mds:?} {summary:?} {} {:?}",
            node.blocks, node.kind
        )
        .unwrap();
    }
    out
}

/// Deletes the first record of the first data node and inserts it back:
/// the nodes on both paths are rewritten, the answers stay the same.
fn churn<S: NodeStore>(tree: &mut DcTree<S>) {
    let mut first = None;
    tree.for_each_node(|_, _, node| {
        if first.is_none() && node.is_data() && !node.is_empty() {
            first = Some(node.records()[0].clone());
        }
    })
    .unwrap();
    let record = first.unwrap();
    assert!(tree.delete(&record).unwrap());
    tree.insert(record).unwrap();
}

fn assert_is_the_tree<S: NodeStore>(tree: &DcTree<S>, structure_digest: u64) {
    tree.check_invariants().unwrap();
    assert_eq!((tree.len(), tree.num_nodes(), tree.height()), (480, 69, 4));
    assert_eq!(tree.total_summary().unwrap(), TOTAL);
    let mut dir_supernodes = 0;
    tree.for_each_node(|_, _, node| {
        dir_supernodes += usize::from(!node.is_data() && node.is_supernode());
    })
    .unwrap();
    assert_eq!(dir_supernodes, 1);
    assert_eq!(fnv(&answers(tree)), ANSWERS);
    assert_eq!(fnv(&structure(tree)), structure_digest);
}

#[test]
fn a_format1_shard_opens_as_a_disk_shard() {
    for name in FIXTURES {
        let dir = TempDir::new("format1");
        let path = fixture(&dir, name);
        let shard = OocDcTree::open(&path, config(), opts()).unwrap();
        assert_is_the_tree(&*shard.read(), STRUCTURE);

        // Churned and flushed, the shard holds the rewritten nodes in the
        // current format beside the old pages, and its metadata in the
        // current form; it reopens as the churned tree.
        churn(&mut shard.write());
        assert_is_the_tree(&*shard.read(), CHURNED);
        shard.flush().unwrap();
        drop(shard);
        let shard = OocDcTree::open(&path, config(), opts()).unwrap();
        assert_is_the_tree(&*shard.read(), CHURNED);
    }
}

#[test]
fn a_format1_shard_opens_as_a_checkpoint_image() {
    for name in FIXTURES {
        let dir = TempDir::new("format1");
        let tree = read_image(fixture(&dir, name), config()).unwrap();
        assert_is_the_tree(&tree, STRUCTURE);

        // Written again, the image is in the current format and reads back
        // as the same tree.
        let path = dir.join("rewritten.dct");
        write_image(&tree, &path).unwrap();
        assert_is_the_tree(&read_image(&path, config()).unwrap(), STRUCTURE);
    }
}
