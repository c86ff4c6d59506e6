//! Differential tests: one `DcTree`, whatever the store. Over disk pages it
//! must build the very tree — node for node — that it builds in the arena,
//! answer identically, survive close/reopen cycles, and exercise the buffer
//! pool for real.

use dc_common::{AggregateOp, DimensionId, MeasureSummary, ValueId};
use dc_hierarchy::{CubeSchema, HierarchySchema, Record};
use dc_mds::{DimSet, Mds};
use dc_tree::{DcTree, DcTreeConfig, DiskDcTree};
use rand::prelude::*;
use rand::rngs::StdRng;

fn schema() -> CubeSchema {
    CubeSchema::new(
        vec![
            HierarchySchema::new(
                "Customer",
                vec!["Region".into(), "Nation".into(), "Cust".into()],
            ),
            HierarchySchema::new("Part", vec!["Type".into(), "Part".into()]),
            HierarchySchema::new("Time", vec!["Year".into(), "Month".into()]),
        ],
        "Price",
    )
}

fn random_paths(rng: &mut StdRng) -> [Vec<String>; 3] {
    let region = rng.gen_range(0..4);
    let nation = rng.gen_range(0..5);
    let cust = rng.gen_range(0..8);
    let ptype = rng.gen_range(0..6);
    let part = rng.gen_range(0..10);
    let year = rng.gen_range(1995..1999);
    let month = rng.gen_range(1..13);
    [
        vec![
            format!("R{region}"),
            format!("R{region}-N{nation}"),
            format!("R{region}-N{nation}-C{cust}"),
        ],
        vec![format!("T{ptype}"), format!("T{ptype}-P{part}")],
        vec![format!("{year}"), format!("{year}-{month:02}")],
    ]
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("dc-disk-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(format!("{name}-{}", std::process::id()));
    std::fs::remove_file(&p).ok();
    p
}

fn random_query(schema: &CubeSchema, rng: &mut StdRng) -> Mds {
    let dims = (0..schema.num_dims())
        .map(|d| {
            let h = schema.dim(DimensionId(d as u16));
            let level = rng.gen_range(0..=h.top_level());
            let values: Vec<ValueId> = h.values_at(level).collect();
            let take = rng.gen_range(1..=values.len().min(4));
            DimSet::new(level, values.choose_multiple(rng, take).copied().collect())
        })
        .collect();
    Mds::new(dims)
}

#[test]
fn disk_tree_matches_in_memory_tree() {
    let path = tmp("differential");
    let config = DcTreeConfig {
        dir_capacity: 4,
        data_capacity: 4,
        ..DcTreeConfig::default()
    };
    let mut mem = DcTree::new(schema(), config);
    let mut disk = DiskDcTree::create(&path, schema(), config, 16).unwrap();

    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..400 {
        let paths = random_paths(&mut rng);
        let measure = rng.gen_range(-100..1000);
        mem.insert_raw(&paths, measure).unwrap();
        disk.insert_raw(&paths, measure).unwrap();
    }
    assert_eq!(disk.len(), mem.len());
    assert_eq!(disk.total_summary().unwrap(), mem.total_summary().unwrap());
    assert_eq!(disk.height(), mem.height());
    assert_eq!(disk.num_nodes(), mem.num_nodes());
    disk.check_invariants().unwrap();
    assert_eq!(disk.structure().unwrap(), mem.structure().unwrap());

    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..80 {
        let q = random_query(mem.schema(), &mut rng);
        assert_eq!(
            disk.range_summary(&q).unwrap(),
            mem.range_summary(&q).unwrap(),
            "query {q:?}"
        );
        for op in AggregateOp::ALL {
            assert_eq!(
                disk.range_query(&q, op).unwrap(),
                mem.range_query(&q, op).unwrap()
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn disk_tree_survives_reopen() {
    let path = tmp("reopen");
    let config = DcTreeConfig {
        dir_capacity: 4,
        data_capacity: 4,
        ..DcTreeConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(3);
    let mut inserted: Vec<([Vec<String>; 3], i64)> = Vec::new();
    {
        let mut disk = DiskDcTree::create(&path, schema(), config, 16).unwrap();
        for _ in 0..200 {
            let paths = random_paths(&mut rng);
            let measure = rng.gen_range(0..1000);
            disk.insert_raw(&paths, measure).unwrap();
            inserted.push((paths, measure));
        }
        disk.flush().unwrap();
    }
    let mut disk = DiskDcTree::open(&path, config, 16).unwrap();
    assert_eq!(disk.len(), 200);
    disk.check_invariants().unwrap();
    let expected: MeasureSummary = inserted.iter().map(|(_, m)| *m).collect();
    assert_eq!(disk.total_summary().unwrap(), expected);
    // Still fully dynamic after reopen (including schema growth).
    disk.insert_raw(
        &[
            vec!["R9", "R9-N9", "R9-N9-C9"],
            vec!["T9", "T9-P9"],
            vec!["2001", "2001-01"],
        ],
        123,
    )
    .unwrap();
    disk.flush().unwrap();
    let disk = DiskDcTree::open(&path, config, 16).unwrap();
    assert_eq!(disk.len(), 201);
    std::fs::remove_file(&path).ok();
}

#[test]
fn disk_tree_deletes_like_memory_tree() {
    let path = tmp("deletes");
    let config = DcTreeConfig {
        dir_capacity: 4,
        data_capacity: 4,
        ..DcTreeConfig::default()
    };
    let mut mem = DcTree::new(schema(), config);
    let mut disk = DiskDcTree::create(&path, schema(), config, 16).unwrap();

    let mut rng = StdRng::seed_from_u64(5);
    let mut records: Vec<Record> = Vec::new();
    for _ in 0..200 {
        let paths = random_paths(&mut rng);
        let measure = rng.gen_range(0..500);
        mem.insert_raw(&paths, measure).unwrap();
        disk.insert_raw(&paths, measure).unwrap();
        let dims: Vec<ValueId> = (0..3)
            .map(|d| {
                mem.schema()
                    .dim(DimensionId(d as u16))
                    .lookup_path(&paths[d])
                    .unwrap()
            })
            .collect();
        records.push(Record::new(dims, measure));
    }
    for _ in 0..120 {
        let idx = rng.gen_range(0..records.len());
        let victim = records.swap_remove(idx);
        assert_eq!(
            disk.delete(&victim).unwrap(),
            mem.delete(&victim).unwrap(),
            "delete outcome must agree"
        );
    }
    assert_eq!(disk.len(), mem.len());
    mem.check_invariants().unwrap();
    disk.check_invariants().unwrap();
    assert_eq!(disk.structure().unwrap(), mem.structure().unwrap());
    let mut rng = StdRng::seed_from_u64(6);
    for _ in 0..40 {
        let q = random_query(mem.schema(), &mut rng);
        assert_eq!(
            disk.range_summary(&q).unwrap(),
            mem.range_summary(&q).unwrap()
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn buffer_pool_pressure_still_answers_correctly() {
    // A tiny pool (4 frames) forces constant eviction and reload.
    let path = tmp("pressure");
    let config = DcTreeConfig {
        dir_capacity: 4,
        data_capacity: 4,
        ..DcTreeConfig::default()
    };
    let mut mem = DcTree::new(schema(), config);
    let mut disk = DiskDcTree::create(&path, schema(), config, 4).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..300 {
        let paths = random_paths(&mut rng);
        let m = rng.gen_range(0..100);
        mem.insert_raw(&paths, m).unwrap();
        disk.insert_raw(&paths, m).unwrap();
    }
    let stats = disk.pool_stats();
    assert!(stats.evictions > 0, "4 frames must thrash: {stats:?}");
    assert!(stats.writebacks > 0, "dirty nodes must be written back");
    disk.check_invariants().unwrap();
    let mut rng = StdRng::seed_from_u64(8);
    for _ in 0..30 {
        let q = random_query(mem.schema(), &mut rng);
        assert_eq!(
            disk.range_summary(&q).unwrap(),
            mem.range_summary(&q).unwrap()
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn opening_garbage_fails_cleanly() {
    let path = tmp("garbage");
    std::fs::write(&path, vec![0u8; 8192]).unwrap();
    assert!(DiskDcTree::open(&path, DcTreeConfig::default(), 8).is_err());
    std::fs::remove_file(&path).ok();
}
