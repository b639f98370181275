//! # catfish-core — the adaptive RDMA-enabled R-tree (ICDCS 2019)
//!
//! This crate implements the paper's contribution end to end, over the
//! simulated fabric of [`catfish-rdma`]/[`catfish-simnet`]:
//!
//! * **Fast messaging** (§III-A): per-connection [`ring`] buffers written
//!   with one-sided RDMA Writes; the [`server`] traverses the R\*-tree and
//!   streams CONT/END-segmented responses. The server detects requests
//!   either by **polling** (a core burned per connection, the FaRM
//!   baseline) or **event-driven** via RDMA Write-with-Immediate (§IV-B).
//! * **RDMA offloading** (§III-B): the [`client`] traverses the tree
//!   itself with one-sided RDMA Reads against the server's registered
//!   chunk arena, validating per-cache-line versions to detect torn reads,
//!   optionally pipelining all intersecting children with **multi-issue**
//!   (§IV-C). Writes always go through the ring.
//! * **Adaptive coordination** (§IV-A, Algorithm 1): the server heartbeats
//!   its CPU utilization every `Inv`; each client independently runs the
//!   binary-exponential back-off to decide, per search, between the two
//!   paths.
//! * A [`harness`] that assembles whole clusters (server + hundreds of
//!   clients on shared NICs) and reproduces the paper's measurements.
//!
//! # Examples
//!
//! ```
//! use catfish_core::config::Scheme;
//! use catfish_core::harness::{run_experiment, ExperimentSpec};
//! use catfish_rdma::profile;
//! use catfish_workload::{uniform_rects, ScaleDist, TraceSpec};
//!
//! let spec = ExperimentSpec {
//!     profile: profile::infiniband_100g(),
//!     scheme: Scheme::Catfish,
//!     clients: 4,
//!     client_nodes: 2,
//!     dataset: uniform_rects(2_000, 1e-4, 1),
//!     trace: TraceSpec::search_only(ScaleDist::small(), 20),
//!     ..ExperimentSpec::default()
//! };
//! let result = run_experiment(&spec);
//! assert_eq!(result.completed_requests, 80);
//! ```
//!
//! [`catfish-rdma`]: https://docs.rs/catfish-rdma
//! [`catfish-simnet`]: https://docs.rs/catfish-simnet

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adaptive;
pub mod client;
pub mod config;
pub mod conn;
pub mod harness;
pub mod kv;
pub mod msg;
pub mod obs;
pub mod ring;
pub mod server;
pub mod service;
pub mod stats;
pub mod store;

pub use adaptive::AdaptiveState;
pub use client::{CatfishClient, CatfishClusterClient};
pub use config::{
    AccessMode, AdaptiveParams, ClientConfig, CostModel, Scheme, ServerConfig, ServerMode,
};
pub use conn::{establish, establish_with_mailbox, ClientChannel, RkeyAllocator, ServerChannel};
pub use obs::{
    AdaptiveEvent, AdaptiveEventLog, AdaptiveEventRecord, Anomaly, Assembly, FlightDump,
    FlightEvent, FlightRecorder, LatencyHistogram, MetricsRegistry, Phase, RouteChoice,
    SloObjective, SloReport, SloSpec, SpanRecord, TraceAssembler, TraceSink, TraceTree,
};
pub use server::{CatfishCluster, CatfishServer, RtreeBackend, TreeHandle};
pub use service::{
    ClientBackend, ClusterClient, ClusterServer, Execution, HeartbeatInfo, Incoming, Inconsistent,
    IndexBackend, OpKind, RemoteHandle, ServiceClient, ServiceServer, ShardMap, ShardPartition,
    WireCodec, FETCH_FLAG,
};
pub use stats::{LatencySummary, ServiceStats};
