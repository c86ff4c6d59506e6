//! # dc-bitmap
//!
//! A compressed **bitmap index** over the data cube — the classic
//! one-dimensional warehouse index the DC-tree paper's related work (§2)
//! positions itself against:
//!
//! > "In a bitmap index, leaf pages of an index structure do not contain
//! > lists of record ids but bit vectors with one bit for each data
//! > record. … Bitmap indices, however, are static because on the insertion
//! > of a data record all index entries have to be updated. Furthermore,
//! > one-dimensional index structures build secondary indices which do not
//! > impact the clustering of the database."
//!
//! This crate implements that baseline honestly and competently: one
//! word-aligned-hybrid (WAH-style) compressed bitmap per attribute value of
//! every hierarchy level of every dimension, a measure column, and a range
//! query evaluated as OR-within-dimension / AND-across-dimensions. It is a
//! *secondary* index: the measure column is scanned by record id, so — as
//! the paper observes — it cannot exploit clustering, and every insertion
//! appends to O(levels × dimensions) bitmaps.
//!
//! Used by the benchmark harness as an additional baseline alongside the
//! X-tree and the sequential scan, and by the serving engine's planner as
//! an auxiliary backend that every shard publishes after each writer batch.
//! For that, a clone shares everything a writer appends to: bitmaps keep
//! their words in sealed `Arc` chunks plus a short open tail, and the slot
//! vectors, measure column and deleted mask sit in `Arc`'d blocks, so an
//! insert after a publish copies O(touched tails), never the index.

mod blocks;
pub mod index;
pub mod wah;

pub use index::BitmapIndex;
pub use wah::CompressedBitmap;
