//! # catfish-workload — evaluation workload and dataset generators
//!
//! Deterministic (seeded) generators for everything the Catfish evaluation
//! feeds its system:
//!
//! * [`uniform_rects`] — the pre-built 2-million-rectangle tree of §V-B;
//! * [`ScaleDist`] — request scales: fixed `1e-5` (CPU-bound), fixed
//!   `1e-2` (bandwidth-bound), and the truncated power law;
//! * [`TraceSpec`] — per-client request traces: 100 % search or the 90/10
//!   search/insert hybrid with corner-skewed insert positions;
//! * [`rea02_dataset`] / [`rea02_queries`] — a synthetic reproduction of
//!   the `rea02` California street-segment benchmark (the original file is
//!   not redistributable; the generator reproduces its documented
//!   clustered structure and 50–150-result query cardinality).
//!
//! # Examples
//!
//! ```
//! use catfish_workload::{ScaleDist, TraceSpec};
//!
//! let spec = TraceSpec::hybrid(ScaleDist::power_law(), 100);
//! let trace = spec.client_trace(7, 12345);
//! assert_eq!(trace.len(), 100);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dataset;
mod hotspot;
mod requests;
mod scale;

pub use dataset::{rea02_dataset, rea02_queries, uniform_rects, REA02_FULL_SIZE};
pub use hotspot::SpatialHotspot;
pub use requests::{hotspot_search_rect, search_rect, skewed_insert_rect, Request, TraceSpec};
pub use scale::ScaleDist;
