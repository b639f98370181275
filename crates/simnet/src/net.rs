//! The network fabric model: per-node NICs with finite bandwidth plus a
//! propagation delay.
//!
//! Every node owns one full-duplex NIC. A transfer of `S` bytes from `a` to
//! `b` serializes on `a`'s egress at `a`'s line rate, propagates for the
//! fabric latency, and serializes into `b`'s ingress at `b`'s line rate.
//! Egress and ingress reservations overlap (store-and-forward is *not*
//! modelled twice), so a single stream achieves full line rate while many
//! clients sharing one server NIC queue behind each other — which is what
//! saturates the server's bandwidth in the paper's Fig. 2(a).

use std::cell::RefCell;
use std::rc::Rc;

use crate::executor::sleep_until;
use crate::time::{SimDuration, SimTime};

/// Identifies a node (host) attached to a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The index of this node within its network.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Link characteristics for a NIC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Line rate in bits per second.
    pub bandwidth_bps: f64,
    /// One-way propagation delay (includes switch/NIC fixed costs).
    pub latency: SimDuration,
    /// Fixed per-message framing overhead in bytes (headers etc.).
    pub per_message_overhead_bytes: u32,
}

impl LinkSpec {
    /// A link with the given rate in gigabits per second.
    pub fn gbps(bandwidth_gbps: f64, latency: SimDuration) -> Self {
        LinkSpec {
            bandwidth_bps: bandwidth_gbps * 1e9,
            latency,
            per_message_overhead_bytes: 64,
        }
    }

    /// Serialization time of `bytes` at this link's line rate.
    pub fn tx_time(&self, bytes: u64) -> SimDuration {
        let wire_bytes = bytes + u64::from(self.per_message_overhead_bytes);
        SimDuration::from_secs_f64(wire_bytes as f64 * 8.0 / self.bandwidth_bps)
    }
}

#[derive(Debug, Default)]
struct NicState {
    egress_busy_until: SimTime,
    ingress_busy_until: SimTime,
    bytes_sent: u64,
    bytes_received: u64,
}

#[derive(Debug)]
struct NodeNet {
    spec: LinkSpec,
    nic: RefCell<NicState>,
}

/// A fabric of nodes with point-to-point connectivity.
///
/// # Examples
///
/// ```
/// use catfish_simnet::{LinkSpec, Network, Sim, SimDuration};
///
/// let sim = Sim::new();
/// sim.run_until(async {
///     let net = Network::new();
///     let spec = LinkSpec::gbps(100.0, SimDuration::from_micros(1));
///     let a = net.add_node(spec);
///     let b = net.add_node(spec);
///     net.transfer(a, b, 4096).await;
///     assert!(catfish_simnet::now().as_nanos() > 1_000); // latency + tx time
/// });
/// ```
#[derive(Clone, Default)]
pub struct Network {
    nodes: Rc<RefCell<Vec<Rc<NodeNet>>>>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.nodes.borrow().len())
            .finish()
    }
}

impl Network {
    /// Creates an empty fabric.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a node with the given NIC characteristics.
    pub fn add_node(&self, spec: LinkSpec) -> NodeId {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Rc::new(NodeNet {
            spec,
            nic: RefCell::new(NicState::default()),
        }));
        NodeId(nodes.len() - 1)
    }

    /// Number of attached nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True if no nodes are attached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn node(&self, id: NodeId) -> Rc<NodeNet> {
        Rc::clone(
            self.nodes
                .borrow()
                .get(id.0)
                .unwrap_or_else(|| panic!("unknown {id}")),
        )
    }

    /// Computes and reserves the delivery schedule for a `bytes`-long message
    /// from `src` to `dst`, returning the delivery instant without waiting.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` (loopback is free and should bypass the
    /// fabric) or either id is unknown.
    pub fn schedule_transfer(&self, src: NodeId, dst: NodeId, bytes: u64) -> SimTime {
        assert_ne!(
            src, dst,
            "loopback transfers must not go through the fabric"
        );
        let now = crate::executor::now();
        let s = self.node(src);
        let d = self.node(dst);
        // The sender cannot start serializing before its egress is free, and
        // there is no point starting before the receiver can accept the
        // stream (its ingress frees up `latency` earlier than delivery).
        let latency = s.spec.latency.max(d.spec.latency);
        let tx = {
            // The slower of the two line rates bounds the stream.
            let t_src = s.spec.tx_time(bytes);
            let t_dst = d.spec.tx_time(bytes);
            t_src.max(t_dst)
        };
        let mut s_nic = s.nic.borrow_mut();
        let mut d_nic = d.nic.borrow_mut();
        let start = now
            .max(s_nic.egress_busy_until)
            .max(d_nic.ingress_busy_until.saturating_rewind(latency));
        let delivered = start + tx + latency;
        s_nic.egress_busy_until = start + tx;
        d_nic.ingress_busy_until = delivered;
        s_nic.bytes_sent += bytes;
        d_nic.bytes_received += bytes;
        delivered
    }

    /// Transfers `bytes` from `src` to `dst`, completing at delivery time.
    ///
    /// # Panics
    ///
    /// See [`Network::schedule_transfer`].
    pub async fn transfer(&self, src: NodeId, dst: NodeId, bytes: u64) {
        let delivered = self.schedule_transfer(src, dst, bytes);
        sleep_until(delivered).await;
    }

    /// Cumulative bytes sent and received by `node` (payload bytes, not
    /// counting framing overhead).
    pub fn traffic(&self, node: NodeId) -> Traffic {
        let n = self.node(node);
        let nic = n.nic.borrow();
        Traffic {
            bytes_sent: nic.bytes_sent,
            bytes_received: nic.bytes_received,
            at: crate::executor::now(),
        }
    }
}

trait SaturatingRewind {
    fn saturating_rewind(self, d: SimDuration) -> Self;
}

impl SaturatingRewind for SimTime {
    fn saturating_rewind(self, d: SimDuration) -> SimTime {
        SimTime::from_nanos(self.as_nanos().saturating_sub(d.as_nanos()))
    }
}

/// Cumulative traffic counters sampled from a node's NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Traffic {
    /// Payload bytes sent since simulation start.
    pub bytes_sent: u64,
    /// Payload bytes received since simulation start.
    pub bytes_received: u64,
    /// Sample instant.
    pub at: SimTime,
}

impl Traffic {
    /// Total payload bytes moved (both directions).
    pub fn total(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }

    /// Average throughput in bits per second between two samples.
    ///
    /// Returns 0 for an empty window.
    pub fn throughput_bps_since(&self, earlier: &Traffic) -> f64 {
        let window = self.at.saturating_duration_since(earlier.at);
        if window.is_zero() {
            return 0.0;
        }
        let bytes = self.total().saturating_sub(earlier.total());
        bytes as f64 * 8.0 / window.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{now, spawn, Sim};

    fn spec_100g() -> LinkSpec {
        LinkSpec {
            bandwidth_bps: 100e9,
            latency: SimDuration::from_micros(1),
            per_message_overhead_bytes: 0,
        }
    }

    #[test]
    fn single_transfer_time_is_tx_plus_latency() {
        let sim = Sim::new();
        sim.run_until(async {
            let net = Network::new();
            let a = net.add_node(spec_100g());
            let b = net.add_node(spec_100g());
            let t0 = now();
            net.transfer(a, b, 12_500).await; // 12500B * 8 / 100Gbps = 1us
            assert_eq!(now() - t0, SimDuration::from_micros(2));
        });
    }

    #[test]
    fn shared_ingress_queues() {
        // Two senders into one receiver: second delivery waits for the first
        // stream to clear the receiver's ingress.
        let sim = Sim::new();
        sim.run_until(async {
            let net = Network::new();
            let a = net.add_node(spec_100g());
            let b = net.add_node(spec_100g());
            let dst = net.add_node(spec_100g());
            let n1 = net.clone();
            let h1 = spawn(async move {
                n1.transfer(a, dst, 12_500).await;
                now()
            });
            let n2 = net.clone();
            let h2 = spawn(async move {
                n2.transfer(b, dst, 12_500).await;
                now()
            });
            let (t1, t2) = (h1.await, h2.await);
            assert_eq!(t1.as_nanos(), 2_000);
            // Second stream serializes behind the first at the ingress.
            assert_eq!(t2.as_nanos(), 3_000);
        });
    }

    #[test]
    fn egress_pipeline_back_to_back() {
        let sim = Sim::new();
        sim.run_until(async {
            let net = Network::new();
            let a = net.add_node(spec_100g());
            let b = net.add_node(spec_100g());
            let d1 = net.schedule_transfer(a, b, 12_500);
            let d2 = net.schedule_transfer(a, b, 12_500);
            // Both queue on a's egress: 1us + 1us tx, each + 1us latency.
            assert_eq!(d1.as_nanos(), 2_000);
            assert_eq!(d2.as_nanos(), 3_000);
        });
    }

    #[test]
    fn asymmetric_links_bound_by_slower() {
        let sim = Sim::new();
        sim.run_until(async {
            let net = Network::new();
            let fast = net.add_node(spec_100g());
            let slow = net.add_node(LinkSpec {
                bandwidth_bps: 1e9,
                latency: SimDuration::from_micros(1),
                per_message_overhead_bytes: 0,
            });
            let t0 = now();
            net.transfer(fast, slow, 12_500).await; // at 1Gbps: 100us tx
            assert_eq!(now() - t0, SimDuration::from_micros(101));
        });
    }

    #[test]
    fn traffic_counters_accumulate() {
        let sim = Sim::new();
        sim.run_until(async {
            let net = Network::new();
            let a = net.add_node(spec_100g());
            let b = net.add_node(spec_100g());
            net.transfer(a, b, 1000).await;
            net.transfer(b, a, 500).await;
            let ta = net.traffic(a);
            assert_eq!(ta.bytes_sent, 1000);
            assert_eq!(ta.bytes_received, 500);
            assert_eq!(ta.total(), 1500);
        });
    }

    #[test]
    fn throughput_between_samples() {
        let sim = Sim::new();
        sim.run_until(async {
            let net = Network::new();
            let a = net.add_node(spec_100g());
            let b = net.add_node(spec_100g());
            let s0 = net.traffic(b);
            net.transfer(a, b, 125_000_000).await; // 1 Gbit
            let s1 = net.traffic(b);
            let bps = s1.throughput_bps_since(&s0);
            // 1 Gbit over ~10ms+1us -> just under 100 Gbps.
            assert!(bps > 90e9 && bps <= 100e9, "got {bps}");
        });
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_rejected() {
        let sim = Sim::new();
        sim.run_until(async {
            let net = Network::new();
            let a = net.add_node(spec_100g());
            let _ = net.schedule_transfer(a, a, 1);
        });
    }

    #[test]
    fn per_message_overhead_charged() {
        let spec = LinkSpec {
            bandwidth_bps: 8e9, // 1 byte per ns
            latency: SimDuration::ZERO,
            per_message_overhead_bytes: 64,
        };
        assert_eq!(spec.tx_time(0), SimDuration::from_nanos(64));
        assert_eq!(spec.tx_time(36), SimDuration::from_nanos(100));
    }
}
