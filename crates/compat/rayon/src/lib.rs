//! The one `rayon` item still named in the tree: a no-op [`set_threads`].
//!
//! Every engine in the workspace runs sequentially, so there is no pool to
//! size. The benchmark crate (`perfbench/`) still calls
//! `rayon::set_threads(1)` at start-up to pin a width; this crate keeps
//! that call compiling until the benchmark drops it, after which the crate
//! can go.

#![warn(missing_docs)]

/// Does nothing: the engines are sequential, so there is no thread count
/// to set. Kept only so existing `rayon::set_threads(n)` calls compile.
pub fn set_threads(_n: usize) {}
