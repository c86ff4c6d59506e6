//! The replay oracle: what one logged entry does to a plain [`DcTree`].

use dc_common::DcResult;
use dc_tree::DcTree;

use crate::wal::WalEntry;

/// Applies one WAL entry to a tree (the replay step). Public as the replay
/// oracle: the crash and replication harnesses fold it over a plain tree
/// and hold the serving engine's recovery to the result.
pub fn apply(tree: &mut DcTree, entry: &WalEntry) -> DcResult<bool> {
    match entry {
        WalEntry::Insert { paths, measure } => {
            tree.insert_raw(paths, *measure)?;
            Ok(true)
        }
        WalEntry::Delete { paths, measure } => {
            // Resolve the paths against the (replayed) schema; a miss means
            // the original call was a no-op too.
            let mut dims = Vec::with_capacity(paths.len());
            for (d, path) in paths.iter().enumerate() {
                match tree
                    .schema()
                    .dim(dc_common::DimensionId(d as u16))
                    .lookup_path(path)
                {
                    Some(id) => dims.push(id),
                    None => return Ok(false),
                }
            }
            let record = dc_hierarchy::Record::new(dims, *measure);
            tree.delete(&record)
        }
    }
}
