//! # catfish-rtree — an R\*-tree with an RDMA-readable storage layout
//!
//! This crate implements the index at the heart of the Catfish paper:
//!
//! * [`RTree`] — the R\*-tree (Beckmann et al.): R\* choose-subtree,
//!   forced reinsertion, and the margin/overlap-minimizing split;
//! * [`NodeStore`] — pluggable node storage; [`MemStore`] is a plain arena,
//!   [`chunk::ChunkStore`] serializes every node into a fixed-size chunk of
//!   **versioned 64-byte cache lines** ([`codec`]) inside a flat byte arena
//!   that can be registered with an RDMA NIC and traversed by *clients*
//!   with one-sided reads (FaRM-style version validation detects torn
//!   reads);
//! * [`bulk_load`] — STR packing for building large trees quickly.
//!
//! # Examples
//!
//! ```
//! use catfish_rtree::{MemStore, RTree, Rect};
//!
//! let mut tree: RTree<MemStore> = RTree::new(MemStore::new(), Default::default());
//! tree.insert(Rect::new(0.2, 0.2, 0.4, 0.4), 1);
//! tree.insert(Rect::new(0.6, 0.6, 0.8, 0.8), 2);
//! assert_eq!(tree.search(&Rect::new(0.0, 0.0, 0.5, 0.5)), vec![1]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bulk;
pub mod chunk;
pub mod codec;
mod geom;
mod knn;
mod node;
mod split;
mod store;
mod tree;

pub use bulk::{bulk_load, bulk_load_with_fill, partition_by_x, SpacePartition};
pub use geom::Rect;
pub use knn::{min_dist_sq, Neighbor};
pub use node::{Entry, EntryRef, Node, NodeId, RTreeConfig};
pub use store::{MemStore, NodeStore, TreeMeta};
pub use tree::{Iter, RTree, SearchStats};
