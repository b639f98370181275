//! # catfish-simnet — a deterministic discrete-event async runtime
//!
//! This crate is the simulation substrate of the Catfish reproduction. It
//! provides:
//!
//! * a **virtual clock** ([`SimTime`], [`SimDuration`]) measured in integer
//!   nanoseconds;
//! * a **single-threaded deterministic executor** ([`Sim`]) that polls plain
//!   Rust futures and advances the clock to the next timer when nothing is
//!   runnable — no host time is ever consulted, so runs replay identically;
//! * **task synchronization** primitives ([`sync`]): oneshot and mpsc
//!   channels, [`sync::Notify`], and a fair [`sync::Semaphore`];
//! * a **CPU model** ([`CpuPool`]) — cores scheduled round-robin with a
//!   quantum, with busy-time accounting for utilization sampling;
//! * a **network model** ([`Network`]) — per-node NICs with finite bandwidth
//!   and propagation latency, with traffic accounting.
//!
//! The RDMA verbs simulation ([`catfish-rdma`]) and the Catfish protocol
//! ([`catfish-core`]) are written against these primitives.
//!
//! # Examples
//!
//! ```
//! use catfish_simnet::{CpuPool, Sim, SimDuration};
//!
//! let sim = Sim::new();
//! let elapsed = sim.run_until(async {
//!     let cpu = CpuPool::new(2, SimDuration::from_millis(1));
//!     let c = cpu.clone();
//!     let worker = catfish_simnet::spawn(async move {
//!         c.run(SimDuration::from_micros(300)).await;
//!     });
//!     cpu.run(SimDuration::from_micros(300)).await;
//!     worker.await;
//!     catfish_simnet::now()
//! });
//! // Two 300us jobs on two cores run in parallel.
//! assert_eq!(elapsed.as_nanos(), 300_000);
//! ```
//!
//! [`catfish-rdma`]: https://docs.rs/catfish-rdma
//! [`catfish-core`]: https://docs.rs/catfish-core

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cpu;
mod executor;
mod net;
mod select;
pub mod sync;
mod time;

pub use cpu::{CoreGuard, CpuPool, CpuSample};
pub use executor::{
    now, sleep, sleep_until, spawn, try_now, yield_now, JoinHandle, Sim, Sleep, YieldNow,
};
pub use net::{LinkSpec, Network, NodeId, Traffic};
pub use select::{select2, Either, Select2};
pub use time::{SimDuration, SimTime};
