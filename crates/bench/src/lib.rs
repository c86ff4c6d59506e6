//! Shared harness utilities for the DC-tree benchmark binaries.
pub mod cachesim;
pub mod gate;
pub mod harness;
