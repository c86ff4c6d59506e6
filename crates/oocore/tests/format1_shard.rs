//! A shard file of the first node format — every node page headed by the
//! node's MDS and summary, tree metadata without the root entry — still
//! opens, as a disk shard and as a checkpoint image, as the tree it was
//! written from: the same nodes, the same total and the same answers.
//!
//! `data/format1_shard.dct` is 480 TPC-D records (`TpcdConfig::scaled(600,
//! 46)` inserted one at a time, every fifth insert followed by a delete of
//! the record inserted three before it) in a disk shard with 512-byte
//! blocks, directory capacity 4 and data capacity 16: height 4, 69 nodes,
//! one directory supernode. The pinned values below were read from the
//! code that wrote it.

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
const STRUCTURE: u64 = 0xf262_af1a_9c75_3caa;

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

/// A scratch copy of the fixture: opening a shard may write to it.
fn fixture(dir: &TempDir) -> PathBuf {
    let src = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/format1_shard.dct");
    let path = dir.join("format1_shard.dct");
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
/// and members.
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

fn assert_is_the_written_tree<S: NodeStore>(tree: &DcTree<S>) {
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
    assert_eq!(fnv(&structure(tree)), STRUCTURE);
}

#[test]
fn a_format1_shard_opens_as_a_disk_shard() {
    let dir = TempDir::new("format1");
    let path = fixture(&dir);
    let shard = OocDcTree::open(&path, config(), opts()).unwrap();
    assert_is_the_written_tree(&*shard.read());

    // Flushed, the shard's metadata takes the current form; the tree
    // reopens unchanged.
    shard.flush().unwrap();
    drop(shard);
    let shard = OocDcTree::open(&path, config(), opts()).unwrap();
    assert_is_the_written_tree(&*shard.read());
}

#[test]
fn a_format1_shard_opens_as_a_checkpoint_image() {
    let dir = TempDir::new("format1");
    let tree = read_image(fixture(&dir), config()).unwrap();
    assert_is_the_written_tree(&tree);

    // Written again, the image is in the current format and reads back as
    // the same tree.
    let path = dir.join("rewritten.dct");
    write_image(&tree, &path).unwrap();
    assert_is_the_written_tree(&read_image(&path, config()).unwrap());
}
