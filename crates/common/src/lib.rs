//! # dc-common
//!
//! Shared vocabulary for the DC-tree workspace: the 32-bit attribute-value
//! ID encoding of the paper (§3.1), dimension handles, the fixed-point
//! measure type, mergeable aggregate summaries, aggregation operators, the
//! common error type, and the one [`TempDir`] every test, bench and example
//! of the workspace takes its scratch files from.
//!
//! Everything here is deliberately dependency-free so that every other crate
//! in the workspace can build on it.

pub mod error;
pub mod id;
pub mod measure;
pub mod tempdir;

pub use error::{DcError, DcResult};
pub use id::{DimensionId, Level, RecordId, ValueId};
pub use measure::{AggregateOp, Measure, MeasureSummary};
pub use tempdir::TempDir;
