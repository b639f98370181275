//! # catfish-rdma — simulated RDMA verbs over a discrete-event fabric
//!
//! The Rust RDMA ecosystem is thin and hardware-gated, and the Catfish
//! testbed (ConnectX-3/5 NICs, EDR InfiniBand) is unavailable here, so this
//! crate provides a faithful *simulation* of the subset of the verbs API
//! the paper uses, running on [`catfish-simnet`]'s deterministic virtual
//! time:
//!
//! * [`MemoryRegion`] — registered memory with honest **torn-write**
//!   visibility for remote readers (the race that FaRM-style version
//!   validation detects);
//! * [`Endpoint`] / [`QueuePair`] — reliable-connection queue pairs with
//!   one-sided [`QueuePair::read`], [`QueuePair::write`], and
//!   [`QueuePair::write_with_imm`] (the event-notification mechanism);
//! * [`CompletionQueue`] — polled or awaited (event-channel) completions;
//! * [`tcp`] — a socket baseline whose kernel costs land on the shared
//!   server CPU, for the paper's TCP/IP-1G and TCP/IP-40G comparisons;
//! * [`profile`] — presets for the three fabrics of the paper's cluster.
//!
//! RDMA operations never charge the remote host's CPU — that asymmetry is
//! the paper's entire premise — while TCP messages charge kernel time on
//! both ends.
//!
//! # Examples
//!
//! ```
//! use catfish_rdma::{Endpoint, MemoryRegion, RdmaProfile};
//! use catfish_simnet::{LinkSpec, Network, Sim, SimDuration};
//!
//! let sim = Sim::new();
//! sim.run_until(async {
//!     let net = Network::new();
//!     let spec = LinkSpec::gbps(100.0, SimDuration::from_micros(1));
//!     let client = Endpoint::new(&net, net.add_node(spec), RdmaProfile::default());
//!     let server = Endpoint::new(&net, net.add_node(spec), RdmaProfile::default());
//!     let mr = MemoryRegion::new(4096, 1);
//!     server.register(mr.clone());
//!     let (qp, _server_qp) = client.connect(&server);
//!     mr.write_local(0, b"tree bytes");
//!     let bytes = qp.read(1, 0, 10).await.unwrap();
//!     assert_eq!(&bytes, b"tree bytes");
//! });
//! ```
//!
//! [`catfish-simnet`]: https://docs.rs/catfish-simnet

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod crc;
pub mod fault;
pub mod mailbox;
mod mr;
pub mod profile;
mod qp;
pub mod tcp;

pub use crc::crc32;
pub use fault::{FaultConfig, FaultCounters, FaultPlan};
pub use mailbox::{DepositOutcome, Mailbox, MailboxHandle, MailboxLayout, SlotHeader};
pub use mr::MemoryRegion;
pub use profile::NetProfile;
pub use qp::{Completion, CompletionQueue, Endpoint, QueuePair, RdmaError, RdmaProfile};
