//! # dc-hierarchy
//!
//! Concept hierarchies for the dimensions of a data cube (§3.1 of the
//! DC-tree paper).
//!
//! A dimension with multiple functional attributes (e.g. Customer with
//! Region, Nation, MktSegment, CustomerId) organizes them in a *hierarchy
//! schema*; a *concept hierarchy* is an instance of that schema: a tree whose
//! nodes are attribute values, whose root is the special value `ALL`, and
//! whose edges are the is-a relationship. The hierarchy induces the partial
//! ordering `a ⊑ b` ("a is equal to b or a descendant of b") on which the
//! whole MDS algebra is built.
//!
//! The DC-tree manages its concept hierarchies **dynamically**: every data
//! record insertion interns the record's attribute-value chain, assigning
//! fresh 32-bit [`ValueId`](dc_common::ValueId)s (4 level bits + 28 index bits) to values never
//! seen before. The per-level insertion order of those IDs is the artificial
//! total order used to drive the X-tree baseline (§5.2).

pub mod cube;
pub mod dims;
pub mod hierarchy;

pub use cube::{CubeSchema, Record};
pub use dims::{Dims, IdVec};
pub use hierarchy::{ConceptHierarchy, HierarchySchema};
