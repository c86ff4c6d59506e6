//! Compile-time thread-safety assertions: the engine's whole design rests
//! on moving owned `DcTree`s into writer threads and sharing the engine
//! across connection threads. If a future change smuggles an `Rc`/`RefCell`
//! into the tree, this file stops compiling — long before any runtime race.

use dctree::{DcTree, ShardedDcTree};

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}

#[test]
fn tree_and_engine_are_thread_safe() {
    // A DcTree must be movable into a shard writer thread.
    assert_send::<DcTree>();
    // Snapshots are shared across query threads as Arc<DcTree>.
    assert_sync::<DcTree>();
    // The engine itself is shared across connection handler threads.
    assert_send::<ShardedDcTree>();
    assert_sync::<ShardedDcTree>();
}
