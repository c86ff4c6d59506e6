//! `EXPLAIN` output: the chosen backends, estimated vs. actual page reads,
//! and per-shard plan fragments, rendered on one protocol line.

use std::fmt;

use crate::physical::Backend;

/// One shard's plan fragment.
#[derive(Clone, PartialEq, Debug)]
pub struct ShardExplain {
    /// Shard index.
    pub shard: usize,
    /// Backend the cost model picked for this shard.
    pub backend: Backend,
    /// Estimated page reads.
    pub est_pages: f64,
    /// Measured page reads (`None` when the shard was skipped as
    /// non-overlapping).
    pub actual_pages: Option<u64>,
}

/// A whole query's explain record.
#[derive(Clone, Debug)]
pub struct Explain {
    /// The backend that served the most shards (ties break by
    /// [`Backend::ALL`] order).
    pub backend: Backend,
    /// Total estimated page reads over executed shards.
    pub est_pages: f64,
    /// Total measured page reads.
    pub actual_pages: u64,
    /// Per-shard fragments, in shard order.
    pub shards: Vec<ShardExplain>,
}

impl Explain {
    /// Builds the roll-up from per-shard fragments.
    pub fn from_shards(shards: Vec<ShardExplain>) -> Self {
        let executed = || shards.iter().filter(|s| s.actual_pages.is_some());
        let backend = Backend::ALL
            .iter()
            .copied()
            .filter(|b| executed().any(|s| s.backend == *b))
            .max_by_key(|b| executed().filter(|s| s.backend == *b).count())
            .unwrap_or(Backend::Descend);
        Explain {
            backend,
            est_pages: executed().map(|s| s.est_pages).sum(),
            actual_pages: executed().filter_map(|s| s.actual_pages).sum(),
            shards,
        }
    }
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "backend={} est_pages={:.1} actual_pages={} shards=[",
            self.backend, self.est_pages, self.actual_pages
        )?;
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                f.write_str(";")?;
            }
            match s.actual_pages {
                Some(actual) => write!(
                    f,
                    "{}:{} est={:.1} act={}",
                    s.shard, s.backend, s.est_pages, actual
                )?,
                None => write!(f, "{}:skipped", s.shard)?,
            }
        }
        f.write_str("]")
    }
}
