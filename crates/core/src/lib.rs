//! # dc-tree
//!
//! The **DC-tree**: a fully dynamic index structure for data warehouses
//! modelled as a data cube (Ester, Kohlhammer, Kriegel; ICDE 2000).
//!
//! The DC-tree is a hierarchical, X-tree-like index whose node regions are
//! [minimum describing sequences] over the [concept hierarchies] of the cube
//! dimensions, and whose directory entries *materialize the measure
//! aggregate* of the records below them. Range queries whose range fully
//! contains an entry's MDS are answered from the materialized aggregate
//! without descending — the source of the paper's reported speedups (≈4.5×
//! over the X-tree, ≈12.5× over a sequential scan at 25% selectivity).
//!
//! Unlike the bulk-update data-warehouse indexes it was designed to replace,
//! the DC-tree is updated **record at a time**: inserting a record assigns
//! IDs to its attribute values (growing the concept hierarchies
//! dynamically), descends the directory updating the materialized measures,
//! and splits overfull nodes with the *hierarchy split* — or grows them into
//! multi-block *supernodes* when no balanced, low-overlap split exists.
//!
//! ## Quick start
//!
//! ```
//! use dc_hierarchy::{CubeSchema, HierarchySchema};
//! use dc_tree::{DcTree, DcTreeConfig};
//! use dc_mds::{DimSet, Mds};
//! use dc_common::AggregateOp;
//!
//! // A two-dimensional cube: Customer (Region→Nation) × Time (Year→Month).
//! let schema = CubeSchema::new(
//!     vec![
//!         HierarchySchema::new("Customer", vec!["Region".into(), "Nation".into()]),
//!         HierarchySchema::new("Time", vec!["Year".into(), "Month".into()]),
//!     ],
//!     "Revenue",
//! );
//! let mut tree = DcTree::new(schema, DcTreeConfig::default());
//!
//! // Fully dynamic: insert raw records one at a time.
//! tree.insert_raw(&[vec!["Europe", "Germany"], vec!["1996", "03"]], 1200).unwrap();
//! tree.insert_raw(&[vec!["Europe", "France"], vec!["1996", "07"]], 800).unwrap();
//! tree.insert_raw(&[vec!["Asia", "Japan"], vec!["1997", "01"]], 500).unwrap();
//!
//! // Range query: all European revenue in 1996.
//! let europe = tree.schema().dim(dc_common::DimensionId(0))
//!     .lookup_path(&["Europe"]).unwrap();
//! let y1996 = tree.schema().dim(dc_common::DimensionId(1))
//!     .lookup_path(&["1996"]).unwrap();
//! let query = Mds::new(vec![DimSet::singleton(europe), DimSet::singleton(y1996)]);
//! let sum = tree.range_query(&query, AggregateOp::Sum).unwrap();
//! assert_eq!(sum, Some(2000.0));
//! ```
//!
//! ## One traversal for every read
//!
//! The paper has one range-query algorithm (Fig. 7), and the tree runs it
//! once: [`DcTree::range_summary`], [`DcTree::group_by`], [`DcTree::pivot`],
//! the selections [`DcTree::for_each_in_range`] / [`DcTree::range_records`]
//! and the point count [`DcTree::count_matching`] all descend through one
//! body over a [`PreparedRange`], differing only in what they fold the
//! selected records and contained entries into (see [`query`]). Scalar
//! reads prepare with the configured containment mode
//! (`use_paper_fig7_containment`); grouped reads always prepare soundly.
//! Each read counts the blocks it visits, the paper's cost metric, itself;
//! [`DcTree::read_counted`] returns that count with the answer.
//!
//! ## Where the nodes live
//!
//! The paper's nodes are disk blocks. [`DcTree`] is generic over a
//! [`NodeStore`]: the default [`Arena`] keeps them in memory, and
//! `dc_oocore::OocStore` — the one paged store — keeps them as page chains
//! behind a cache of decoded nodes, in one varint node encoding. Insert,
//! choose-subtree, hierarchy split, supernode growth, queries, deletion,
//! bulk load, the invariant checker and the statistics exist once, written
//! against the trait, so every store builds the same tree node for node
//! ([`DcTree::structure`] is how the tests say so).
//!
//! [minimum describing sequences]: dc_mds::Mds
//! [concept hierarchies]: dc_hierarchy::ConceptHierarchy

pub mod checker;
mod choose;
pub mod config;
pub mod members;
pub mod node;
pub mod persist;
pub mod query;
pub mod split;
pub mod stats;
pub mod store;
pub mod tree;

pub use config::DcTreeConfig;
pub use query::{PreparedRange, QueryOutput};
pub use stats::{DeadSpaceReport, LevelStat, TreeStats};
pub use store::{Arena, CopiedBytes, NodeStore, PersistentStore};
pub use tree::{DcTree, TreeMetrics};
