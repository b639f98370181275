//! # catfish-bplus — a B+-tree on the Catfish chunk framework
//!
//! Paper §VI argues Catfish is "a framework for accessing link-based data
//! structures over RDMA, such as B+tree and Cuckoo hashing". This crate
//! substantiates that claim: a [`BpTree`] whose nodes serialize into the
//! **same versioned cache-line chunks** as the R-tree
//! ([`catfish_rtree::codec`]), so a server can host it inside an
//! RDMA-registered arena and clients can traverse it with one-sided reads
//! under identical torn-read validation (see the `btree_offload` example
//! in the workspace root).
//!
//! # Examples
//!
//! ```
//! use catfish_bplus::{BpConfig, BpMemStore, BpTree};
//!
//! let mut index = BpTree::new(BpMemStore::new(), BpConfig::default());
//! index.insert(17, 1700);
//! index.insert(3, 300);
//! assert_eq!(index.get(17), Some(1700));
//! assert_eq!(index.range(0, 20), vec![(3, 300), (17, 1700)]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod node;
mod store;
mod tree;

pub use node::{BpConfig, BpLayout, BpNode, BpRefs};
pub use store::{BpChunkStore, BpMemStore, BpStore};
pub use tree::BpTree;
