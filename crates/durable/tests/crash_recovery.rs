//! Crash-recovery tests: kill the process state at arbitrary points (drop
//! without checkpoint, torn log tails, checkpoint + tail mixes) and verify
//! the store always reopens to exactly the acknowledged state.

use dc_common::TempDir;
use dc_durable::{segment_file_name, DurabilityConfig, DurableDcTree, SyncPolicy};
use dc_hierarchy::{CubeSchema, HierarchySchema};
use dc_mds::Mds;
use dc_tree::{DcTree, DcTreeConfig};
use rand::prelude::*;
use rand::rngs::StdRng;

fn schema() -> CubeSchema {
    CubeSchema::new(
        vec![
            HierarchySchema::new("Customer", vec!["Region".into(), "Nation".into()]),
            HierarchySchema::new("Time", vec!["Year".into(), "Month".into()]),
        ],
        "Revenue",
    )
}

fn make_tree() -> DcTree {
    DcTree::new(
        schema(),
        DcTreeConfig {
            dir_capacity: 4,
            data_capacity: 4,
            ..DcTreeConfig::default()
        },
    )
}

fn paths(i: u64) -> [Vec<String>; 2] {
    [
        vec![format!("R{}", i % 3), format!("R{}-N{}", i % 3, i % 7)],
        vec![
            format!("199{}", i % 4),
            format!("199{}-{:02}", i % 4, i % 12 + 1),
        ],
    ]
}

/// The segment file the writer currently appends to.
fn live_segment(dir: &std::path::Path) -> std::path::PathBuf {
    let mut seqs: Vec<u64> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            dc_durable::parse_segment_file_name(e.unwrap().file_name().to_str().unwrap())
        })
        .collect();
    seqs.sort_unstable();
    dir.join(segment_file_name(*seqs.last().expect("a live segment")))
}

#[test]
fn reopen_without_checkpoint_replays_the_log() {
    let dir = TempDir::new("durable-replay");
    {
        let mut store = DurableDcTree::open(&dir, make_tree, DurabilityConfig::default()).unwrap();
        for i in 0..60 {
            store.insert_raw(&paths(i), i as i64).unwrap();
        }
        // Dropped without checkpoint: recovery must come from the WAL alone.
    }
    let store = DurableDcTree::open(&dir, make_tree, DurabilityConfig::default()).unwrap();
    assert_eq!(store.tree().len(), 60);
    assert_eq!(store.recovery_report().replayed_entries, 60);
    assert_eq!(store.recovery_report().checkpoint_lsn, 0);
    let q = Mds::all(store.tree().schema());
    assert_eq!(
        store.tree().range_summary(&q).unwrap().sum,
        (0..60).sum::<i64>()
    );
    store.tree().check_invariants().unwrap();
}

#[test]
fn checkpoint_plus_tail_recovers_both_parts() {
    let dir = TempDir::new("durable-mixed");
    {
        let mut store = DurableDcTree::open(&dir, make_tree, DurabilityConfig::default()).unwrap();
        for i in 0..40 {
            store.insert_raw(&paths(i), 1).unwrap();
        }
        store.checkpoint().unwrap();
        assert_eq!(store.log_length(), 0);
        for i in 40..70 {
            store.insert_raw(&paths(i), 1).unwrap();
        }
        // Deletes in the tail too.
        assert!(store.delete_raw(&paths(0), 1).unwrap());
    }
    let store = DurableDcTree::open(&dir, make_tree, DurabilityConfig::default()).unwrap();
    assert_eq!(store.tree().len(), 69);
    let report = store.recovery_report();
    assert_eq!(report.checkpoint_lsn, 40);
    assert_eq!(report.replayed_entries, 31, "only the tail is replayed");
    store.tree().check_invariants().unwrap();
}

#[test]
fn torn_log_tail_is_truncated_on_recovery() {
    let dir = TempDir::new("durable-torn");
    {
        let mut store = DurableDcTree::open(&dir, make_tree, DurabilityConfig::default()).unwrap();
        for i in 0..25 {
            store.insert_raw(&paths(i), 2).unwrap();
        }
    }
    // Simulate a crash mid-append: garbage half-frame at the segment end.
    let wal = live_segment(&dir);
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
        f.write_all(&[0x55, 0x00, 0x00, 0x00, 0xAB]).unwrap();
    }
    let store = DurableDcTree::open(&dir, make_tree, DurabilityConfig::default()).unwrap();
    assert_eq!(store.tree().len(), 25, "clean prefix fully recovered");
    assert_eq!(store.recovery_report().truncated_bytes, 5);
    drop(store);
    // The truncation made the file clean: a third open sees no corruption
    // and the same state.
    let store = DurableDcTree::open(&dir, make_tree, DurabilityConfig::default()).unwrap();
    assert_eq!(store.tree().len(), 25);
    assert_eq!(store.recovery_report().truncated_bytes, 0);
}

#[test]
fn recovery_is_equivalent_to_never_crashing() {
    // Run the same random workload twice: once continuously, once chopped
    // into sessions with crashes (no checkpoint) between them. Final state
    // must match exactly.
    let dir = TempDir::new("durable-equivalence");
    let mut rng = StdRng::seed_from_u64(7);
    let ops: Vec<(bool, u64, i64)> = (0..200)
        .map(|_| {
            (
                rng.gen_bool(0.75),
                rng.gen_range(0..50),
                rng.gen_range(0..100),
            )
        })
        .collect();

    let mut continuous = make_tree();
    for &(is_insert, key, measure) in &ops {
        if is_insert {
            continuous.insert_raw(&paths(key), measure).unwrap();
        } else {
            let dims: Option<Vec<_>> = (0..2)
                .map(|d| {
                    continuous
                        .schema()
                        .dim(dc_common::DimensionId(d))
                        .lookup_path(&paths(key)[d as usize])
                })
                .collect();
            if let Some(dims) = dims {
                let _ = continuous
                    .delete(&dc_hierarchy::Record::new(dims, measure))
                    .unwrap();
            }
        }
    }

    // Crashy version: reopen every 37 operations, with a tiny segment
    // budget so recovery also crosses rotation boundaries.
    let config = DurabilityConfig {
        sync: SyncPolicy::Always,
        checkpoint_every: 0,
        segment_bytes: 512,
    };
    let mut store = DurableDcTree::open(&dir, make_tree, config).unwrap();
    for (i, &(is_insert, key, measure)) in ops.iter().enumerate() {
        if i % 37 == 36 {
            drop(store);
            store = DurableDcTree::open(&dir, make_tree, config).unwrap();
        }
        if is_insert {
            store.insert_raw(&paths(key), measure).unwrap();
        } else {
            let _ = store.delete_raw(&paths(key), measure).unwrap();
        }
    }
    drop(store);
    let store = DurableDcTree::open(&dir, make_tree, config).unwrap();

    assert_eq!(store.tree().len(), continuous.len());
    let q = Mds::all(store.tree().schema());
    assert_eq!(
        store.tree().range_summary(&q).unwrap(),
        continuous.range_summary(&q).unwrap()
    );
    store.tree().check_invariants().unwrap();
}

#[test]
fn auto_checkpoint_bounds_the_log() {
    let dir = TempDir::new("durable-autockpt");
    let config = DurabilityConfig {
        sync: SyncPolicy::EveryN(16),
        checkpoint_every: 10,
        ..DurabilityConfig::default()
    };
    let mut store = DurableDcTree::open(&dir, make_tree, config).unwrap();
    for i in 0..35 {
        store.insert_raw(&paths(i), 1).unwrap();
    }
    assert!(
        store.log_length() < 10,
        "auto-checkpoints must reset the log"
    );
    assert_eq!(store.checkpoints(), 3);
    drop(store);
    let store = DurableDcTree::open(&dir, make_tree, config).unwrap();
    assert_eq!(store.tree().len(), 35);
    let report = store.recovery_report();
    assert_eq!(report.checkpoint_lsn, 30);
    assert_eq!(report.replayed_entries, 5, "checkpoint bounds the replay");
}

#[test]
fn deleting_unknown_records_is_a_replayable_noop() {
    let dir = TempDir::new("durable-noop");
    {
        let mut store = DurableDcTree::open(&dir, make_tree, DurabilityConfig::default()).unwrap();
        store.insert_raw(&paths(1), 5).unwrap();
        assert!(!store.delete_raw(&paths(2), 5).unwrap(), "never inserted");
        assert!(!store.delete_raw(&paths(1), 999).unwrap(), "wrong measure");
    }
    let store = DurableDcTree::open(&dir, make_tree, DurabilityConfig::default()).unwrap();
    assert_eq!(store.tree().len(), 1);
}

#[test]
fn group_commit_policy_syncs_on_barrier() {
    let dir = TempDir::new("durable-groupcommit");
    let config = DurabilityConfig {
        // An hour-long cadence: only explicit barriers sync.
        sync: SyncPolicy::GroupCommitMs(3_600_000),
        ..DurabilityConfig::default()
    };
    let mut store = DurableDcTree::open(&dir, make_tree, config).unwrap();
    for i in 0..10 {
        store.insert_raw(&paths(i), 1).unwrap();
    }
    assert_eq!(store.last_lsn(), 10);
    assert!(store.synced_lsn() < 10, "no barrier issued yet");
    store.sync().unwrap();
    assert_eq!(store.synced_lsn(), 10);
}

#[test]
fn rejected_writes_never_reach_the_log() {
    // Validation runs *before* the append: a record the tree would reject
    // (wrong dimension count, wrong path depth) must leave the WAL
    // untouched, or recovery replays the rejection and the directory can
    // never be reopened.
    let dir = TempDir::new("durable-rejected-writes");
    {
        let mut store = DurableDcTree::open(&dir, make_tree, DurabilityConfig::default()).unwrap();
        store.insert_raw(&paths(0), 10).unwrap();

        let one_dim = [vec!["R0".to_string(), "R0-N0".to_string()]];
        assert!(store.insert_raw(&one_dim, 5).is_err());
        assert!(store.delete_raw(&one_dim, 5).is_err());
        let shallow = [vec!["R0".to_string()], vec!["1990".to_string()]];
        assert!(store.insert_raw(&shallow, 5).is_err());
        let batch = vec![
            (paths(1).to_vec(), 20),
            (one_dim.to_vec(), 7), // poisons the whole batch
        ];
        assert!(store.insert_batch_raw(&batch).is_err());
        assert_eq!(store.last_lsn(), 1, "a rejected write was logged");

        store.insert_raw(&paths(1), 20).unwrap();
        store.sync().unwrap();
    }
    let store = DurableDcTree::open(&dir, make_tree, DurabilityConfig::default()).unwrap();
    assert_eq!(store.tree().len(), 2);
    assert_eq!(store.recovery_report().replayed_entries, 2);
}
