//! The cluster topology: N service shards behind scatter-gather clients.
//!
//! Everything below the cluster layer is the unchanged single-server
//! engine — a [`ClusterServer`] is N independent [`ServiceServer`]s on
//! their own fabric nodes (own cores, own NIC, own registered arena, own
//! heartbeat stream), and a [`ClusterClient`] is N independent
//! [`ServiceClient`]s plus a [`ShardMap`] that decides which shard(s) an
//! operation touches:
//!
//! * **R-tree shards** are space partitions: [`ShardPartition`] splits the
//!   bulk-load set into contiguous x-slabs (see
//!   [`catfish_rtree::partition_by_x`]), the slab cuts route point
//!   operations by rectangle center, and each shard's **boundary MBR**
//!   (initial slab MBR, grown on every routed insert) prunes window and
//!   kNN queries to the shards whose bound intersects — the scatter set.
//! * **KV shards** are hash partitions: a ring of virtual points maps each
//!   key to one shard; range scans scatter to every shard and merge by
//!   key.
//!
//! Because every shard has its own connection, heartbeat stream, and
//! [`crate::adaptive::AdaptiveState`], Algorithm 1 runs **independently
//! per shard**: a client hammering one hot shard sees only that shard's
//! heartbeats cross the busy threshold and offloads there, while its
//! connections to cold shards keep fast messaging — the paper's
//! adaptivity, generalized to scale-out.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use catfish_rdma::{Endpoint, NetProfile, RdmaProfile};
use catfish_rtree::Rect;
use catfish_simnet::{spawn, CpuPool, Network};

use crate::config::{AccessMode, ClientConfig, ServerConfig};
use crate::conn::RkeyAllocator;
use crate::obs::{AdaptiveEventLog, OpenSpan, Phase, SpanStart, TraceSink, SERVER_NODE_BASE};
use crate::stats::ServiceStats;

use super::server::ForwardJob;
use super::{
    ClientBackend, IndexBackend, OpKind, RangeDigest, ReplEnvelope, ServiceClient, ServiceServer,
    WireItem, WireMessage, REPL_FENCED, STATUS_UNACKED,
};

/// SplitMix64 — the hash behind the KV ring's virtual points and the
/// repair keys / fingerprints of hash-range reconciliation.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The back-off seed [`ClusterClient::connect_from`] gives the connection
/// to shard `shard`'s primary of a client connected with `seed`. It is an
/// involution in `seed` (`shard_seed(shard_seed(s, i), i) == s`), so a
/// caller that wants a one-shard connection seeded with exactly `s`
/// connects with `shard_seed(s, 0)`.
pub fn shard_seed(seed: u64, shard: usize) -> u64 {
    seed ^ mix64(shard as u64 + 1)
}

/// Virtual ring points per shard: enough that shard loads stay within a
/// few percent of each other without making lookup tables large.
const RING_POINTS_PER_SHARD: usize = 16;

/// The client-side routing table of a cluster.
///
/// Built once by [`ShardPartition::partition`] at bulk-load time and
/// cloned into every [`ClusterClient`]; the only mutable piece is the
/// per-shard boundary MBR, which [`ShardMap::grow`] widens when an insert
/// routed to a shard pokes past its current bound. Clones share the
/// bounds, so every client of a cluster prunes scatters against every
/// client's inserts and never misses an item the cluster accepted.
#[derive(Debug, Clone)]
pub enum ShardMap {
    /// Space partition (R-tree): contiguous x-slabs.
    Region {
        /// Ascending x cuts between adjacent slabs (`shards - 1` entries).
        /// Authoritative for ownership: center-x `x` belongs to shard
        /// `cuts.partition_point(|c| *c <= x)`.
        cuts: Vec<f64>,
        /// Per-shard boundary MBR (`None` while a shard holds nothing),
        /// shared by all clones of the map.
        bounds: Rc<RefCell<Vec<Option<Rect>>>>,
    },
    /// Hash partition (KV): a ring of virtual points.
    Hash {
        /// `(point_hash, shard)` sorted by hash.
        points: Vec<(u64, u32)>,
        /// Shard count.
        shards: usize,
    },
}

impl ShardMap {
    /// A hash ring over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn hash_ring(shards: usize) -> ShardMap {
        assert!(shards > 0, "a cluster needs at least one shard");
        let mut points = Vec::with_capacity(shards * RING_POINTS_PER_SHARD);
        for shard in 0..shards {
            for v in 0..RING_POINTS_PER_SHARD {
                points.push((mix64((shard as u64) << 32 | v as u64), shard as u32));
            }
        }
        points.sort_unstable();
        ShardMap::Hash { points, shards }
    }

    /// A space partition with the given cuts and initial bounds.
    pub fn region(cuts: Vec<f64>, bounds: Vec<Option<Rect>>) -> ShardMap {
        ShardMap::Region {
            cuts,
            bounds: Rc::new(RefCell::new(bounds)),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        match self {
            ShardMap::Region { bounds, .. } => bounds.borrow().len(),
            ShardMap::Hash { shards, .. } => *shards,
        }
    }

    /// The shard owning `rect` — the one point operations (insert, delete)
    /// route to. Ownership follows the rectangle's center-x through the
    /// authoritative cuts, so it never disagrees with bulk-load placement.
    ///
    /// # Panics
    ///
    /// Panics on a hash map (keys route with [`ShardMap::key_shard`]).
    pub fn home_shard(&self, rect: &Rect) -> usize {
        match self {
            ShardMap::Region { cuts, .. } => {
                let x = rect.center().0;
                cuts.partition_point(|c| *c <= x)
            }
            ShardMap::Hash { .. } => panic!("home_shard called on a hash-partitioned map"),
        }
    }

    /// Widens shard `s`'s boundary MBR to cover `rect` (called on every
    /// routed insert, *before* the insert is sent, so a concurrent scatter
    /// can only over-include, never miss). Every clone of the map sees the
    /// wider bound.
    ///
    /// # Panics
    ///
    /// Panics on a hash map.
    pub fn grow(&self, s: usize, rect: &Rect) {
        match self {
            ShardMap::Region { bounds, .. } => {
                let mut bounds = bounds.borrow_mut();
                bounds[s] = Some(match bounds[s] {
                    Some(b) => b.union(rect),
                    None => *rect,
                });
            }
            ShardMap::Hash { .. } => panic!("grow called on a hash-partitioned map"),
        }
    }

    /// The scatter set of a window query: every shard whose boundary MBR
    /// intersects `rect`. A shard with no bound holds nothing and is
    /// skipped; items live entirely inside their owner's bound, so this
    /// set is exact (pruned shards cannot contribute results).
    ///
    /// # Panics
    ///
    /// Panics on a hash map.
    pub fn read_targets(&self, rect: &Rect) -> Vec<usize> {
        match self {
            ShardMap::Region { bounds, .. } => bounds
                .borrow()
                .iter()
                .enumerate()
                .filter(|(_, b)| b.is_some_and(|b| b.intersects(rect)))
                .map(|(i, _)| i)
                .collect(),
            ShardMap::Hash { .. } => panic!("read_targets called on a hash-partitioned map"),
        }
    }

    /// Every shard that currently holds data (kNN's scatter set, and range
    /// scans on hash maps where every shard may hold keys).
    pub fn occupied(&self) -> Vec<usize> {
        match self {
            ShardMap::Region { bounds, .. } => bounds
                .borrow()
                .iter()
                .enumerate()
                .filter(|(_, b)| b.is_some())
                .map(|(i, _)| i)
                .collect(),
            ShardMap::Hash { shards, .. } => (0..*shards).collect(),
        }
    }

    /// The shard owning `key` on the hash ring.
    ///
    /// # Panics
    ///
    /// Panics on a region map (rectangles route with
    /// [`ShardMap::home_shard`]).
    pub fn key_shard(&self, key: u64) -> usize {
        match self {
            ShardMap::Hash { points, .. } => {
                let h = mix64(key);
                let i = points.partition_point(|&(p, _)| p < h);
                let (_, shard) = points[i % points.len()];
                shard as usize
            }
            ShardMap::Region { .. } => panic!("key_shard called on a region-partitioned map"),
        }
    }
}

/// How a backend's bulk-load set splits across cluster shards.
///
/// The R-tree splits by space ([`catfish_rtree::partition_by_x`]); the KV
/// service splits by key hash. Implemented next to each backend's
/// [`IndexBackend`] port.
pub trait ShardPartition: IndexBackend {
    /// Splits `items` into one load set per shard plus the routing map
    /// clients use.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    fn partition(items: Vec<Self::LoadItem>, shards: usize)
        -> (Vec<Vec<Self::LoadItem>>, ShardMap);
}

// ---------------------------------------------------------------------
// Replica sets
// ---------------------------------------------------------------------

#[derive(Debug)]
struct CtlState {
    epoch: u64,
    primary: usize,
    alive: Vec<bool>,
}

/// The shared control block of one shard's replica set: who is primary,
/// the promotion epoch, and per-replica liveness.
///
/// This models the cluster's membership/lease service — the piece a real
/// deployment delegates to a coordination service. Failure reports come
/// in from clients (stale primary heartbeats) and from forwarding pumps
/// (a backup that stopped acking), and the block arbitrates them into a
/// deterministic, epoch-numbered promotion sequence: the epoch advances
/// exactly when the primary role moves, and every mutation carries the
/// epoch its writer believed in, so a deposed primary's in-flight writes
/// are fenced by whichever replica they reach.
#[derive(Debug, Clone)]
pub struct ReplicaCtl {
    inner: Rc<RefCell<CtlState>>,
}

impl ReplicaCtl {
    /// A fresh set of `replicas` members: replica 0 primary, epoch 0, all
    /// alive.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    pub fn new(replicas: usize) -> ReplicaCtl {
        assert!(replicas > 0, "a replica set needs at least one member");
        ReplicaCtl {
            inner: Rc::new(RefCell::new(CtlState {
                epoch: 0,
                primary: 0,
                alive: vec![true; replicas],
            })),
        }
    }

    /// Number of members (dead or alive).
    pub fn replicas(&self) -> usize {
        self.inner.borrow().alive.len()
    }

    /// The current promotion epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.borrow().epoch
    }

    /// The current primary's replica index.
    pub fn primary(&self) -> usize {
        self.inner.borrow().primary
    }

    /// Whether `id` currently holds the primary role.
    pub fn is_primary(&self, id: usize) -> bool {
        self.inner.borrow().primary == id
    }

    /// Whether `id` is currently believed alive.
    pub fn is_alive(&self, id: usize) -> bool {
        self.inner.borrow().alive[id]
    }

    /// Alive members excluding the primary — the forwarding fan-out width.
    pub fn live_backups(&self) -> usize {
        let s = self.inner.borrow();
        s.alive
            .iter()
            .enumerate()
            .filter(|&(i, &a)| a && i != s.primary)
            .count()
    }

    /// Reports `id` suspect under `observed_epoch`. Epoch-gated for
    /// idempotence: a report made under a stale epoch is discarded — its
    /// evidence predates the promotion that already handled the failure.
    /// Suspecting the primary promotes the next alive member in wrapping
    /// index order (deterministic — no election) and bumps the epoch; the
    /// last alive member can never be suspected. Returns whether the
    /// report took effect.
    pub fn suspect(&self, id: usize, observed_epoch: u64) -> bool {
        let mut s = self.inner.borrow_mut();
        if observed_epoch != s.epoch || !s.alive[id] {
            return false;
        }
        s.alive[id] = false;
        if s.primary == id {
            let n = s.alive.len();
            match (1..n).map(|k| (id + k) % n).find(|&c| s.alive[c]) {
                Some(p) => {
                    s.primary = p;
                    s.epoch += 1;
                }
                None => {
                    // No successor: refuse to take the last member down.
                    s.alive[id] = true;
                    return false;
                }
            }
        }
        true
    }

    /// Marks `id` alive again. Call **after** repairing it — a revived
    /// replica serves forwarded mutations and failover reads immediately.
    /// It rejoins as a backup; the primary role never moves back
    /// implicitly.
    pub fn revive(&self, id: usize) {
        self.inner.borrow_mut().alive[id] = true;
    }
}

/// What one hash-range reconciliation pass did (see
/// [`ClusterServer::repair_replica`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Modeled round trips. Digest comparisons are batched per bisection
    /// level, so this grows with the *depth* of the walk — `O(log n)` —
    /// not with the number of mismatched ranges.
    pub rounds: u64,
    /// Digest pairs compared across the walk.
    pub ranges_compared: u64,
    /// Entries shipped authority → lagging replica.
    pub transferred: u64,
    /// Entries deleted on the lagging replica (present there, absent on
    /// the authority).
    pub removed: u64,
    /// Wire bytes the reconciliation moved (digests + entries + tombstone
    /// keys).
    pub bytes_moved: u64,
    /// Wire bytes a naive full resync would have shipped (every authority
    /// entry) — the denominator of the repair-efficiency claim.
    pub full_resync_bytes: u64,
    /// Whether the replicas' root digests agreed after the walk.
    pub converged: bool,
}

/// Per-backup forwarding pump: exclusively owns one ring connection
/// primary-node → backup and ships queued mutations over it **in order**
/// (the connection seq + dedup window give the leg exactly-once). One
/// pump per backup keeps the borrow discipline trivial — a single
/// borrower per connection cell — while backups still replicate in
/// parallel, each down its own pump.
#[allow(clippy::await_holding_refcell_ref)]
async fn forward_pump<B: ClientBackend>(
    client: Rc<RefCell<ServiceClient<B>>>,
    mut rx: catfish_simnet::sync::Receiver<ForwardJob<B>>,
    ctl: ReplicaCtl,
    peer: usize,
) {
    while let Some(job) = rx.recv().await {
        if !ctl.is_alive(peer) {
            // The set already gave up on this backup; it re-converges via
            // hash-range repair before revival, not through this queue.
            job.done.send(STATUS_UNACKED);
            continue;
        }
        // The leg is an `Rpc` child of the request that triggered it, so
        // forwarded hops stay connected in the trace assembly.
        let (status, _) = client
            .borrow_mut()
            .rpc(job.parent, Some(job.env), |_| job.msg)
            .await;
        // Retry-budget exhaustion is deliberately NOT a suspicion: a
        // primary whose own NIC is partitioned would otherwise declare
        // every healthy backup dead and block its own deposition (no
        // successor left to promote). A missed forward is divergence,
        // and divergence is what hash-range repair reconverges; liveness
        // verdicts stay with the failover path that observes the peer
        // directly.
        job.done.send(status);
    }
}

/// A cluster of [`ServiceServer`] shards, each on its own fabric node —
/// own cores, own NIC, own registered arena, own heartbeat stream. With
/// [`ClusterServer::build_replicated`] each shard is a k-way replica set
/// instead of a single server.
pub struct ClusterServer<B: ClientBackend> {
    /// `sets[shard][replica]`; unreplicated clusters hold one-member sets.
    sets: Vec<Vec<ServiceServer<B>>>,
    ctls: Vec<ReplicaCtl>,
    map: ShardMap,
    /// The forwarding pumps' ring clients, `(shard, sending replica,
    /// client)`, kept so [`ClusterServer::set_trace`] can reach them.
    #[allow(clippy::type_complexity)]
    pumps: Vec<(usize, usize, Rc<RefCell<ServiceClient<B>>>)>,
    /// Cluster-level span recorder for repair traces.
    trace: RefCell<TraceSink>,
}

impl<B: ClientBackend> std::fmt::Debug for ClusterServer<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterServer")
            .field("shards", &self.sets.len())
            .field("replicas", &self.replicas())
            .finish()
    }
}

impl<B: ClientBackend + ShardPartition> ClusterServer<B> {
    /// Builds `shards` unreplicated servers, partitioning `items` with the
    /// backend's [`ShardPartition`]: [`ClusterServer::build_replicated`]
    /// with one member per set. Every shard gets the same `cfg` — each
    /// shard is a full machine, so scaling shards scales cores and NICs
    /// with them.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn build(
        net: &Network,
        profile: &NetProfile,
        cfg: ServerConfig,
        index_cfg: B::Config,
        items: Vec<B::LoadItem>,
        shards: usize,
        rkeys: &RkeyAllocator,
    ) -> ClusterServer<B> {
        Self::build_replicated(net, profile, cfg, index_cfg, items, shards, 1, rkeys)
    }

    /// Builds a **replicated** cluster: `shards` replica sets of
    /// `replicas` servers each. Replica 0 of each set is bulk-loaded with
    /// its shard's partition and starts as primary; every other member is
    /// built with [`ServiceServer::build_backup`], its arena a byte copy
    /// of replica 0's (DESIGN.md §9). The whole set
    /// shares one [`ReplicaCtl`]. Between every ordered pair of members a
    /// forwarding pump (a dedicated ring connection plus a queue-draining
    /// task) is strung, and every member holds the pumps to its peers —
    /// so whichever member is promoted later already has its forwarding
    /// plumbing in place.
    ///
    /// With `replicas == 1` there are no pumps and no envelopes.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `replicas` is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn build_replicated(
        net: &Network,
        profile: &NetProfile,
        cfg: ServerConfig,
        index_cfg: B::Config,
        items: Vec<B::LoadItem>,
        shards: usize,
        replicas: usize,
        rkeys: &RkeyAllocator,
    ) -> ClusterServer<B> {
        assert!(shards > 0, "a cluster needs at least one shard");
        assert!(replicas > 0, "a replica set needs at least one member");
        let (parts, map) = B::partition(items, shards);
        let mut sets = Vec::with_capacity(shards);
        let mut ctls = Vec::with_capacity(shards);
        let mut pumps = Vec::new();
        for (i, part) in parts.into_iter().enumerate() {
            let mut set: Vec<ServiceServer<B>> = Vec::with_capacity(replicas);
            set.push(ServiceServer::build(
                net,
                profile,
                cfg,
                index_cfg.clone(),
                part,
                rkeys,
            ));
            for _ in 1..replicas {
                let backup = set[0].build_backup();
                set.push(backup);
            }
            let ctl = ReplicaCtl::new(replicas);
            if replicas > 1 {
                // Forwarding legs are plain fast-messaging ring traffic:
                // no adaptive policy, no offloading.
                let pump_cfg = ClientConfig {
                    mode: AccessMode::FastMessaging,
                    ..ClientConfig::default()
                };
                for r in 0..replicas {
                    let mut backups = Vec::with_capacity(replicas);
                    for r2 in 0..replicas {
                        if r2 == r {
                            backups.push(None);
                            continue;
                        }
                        let ch = set[r2].accept(set[r].endpoint());
                        let seed = 0xF0F0_F0F0
                            ^ mix64(((i as u64) << 20) | ((r as u64) << 10) | r2 as u64);
                        let client = Rc::new(RefCell::new(ServiceClient::new(
                            ch,
                            set[r2].remote_handle(),
                            pump_cfg,
                            seed,
                        )));
                        pumps.push((i, r, Rc::clone(&client)));
                        let (tx, rx) = catfish_simnet::sync::channel();
                        spawn(forward_pump(client, rx, ctl.clone(), r2));
                        backups.push(Some(tx));
                    }
                    set[r].set_replica_role(ctl.clone(), r, backups);
                }
            }
            sets.push(set);
            ctls.push(ctl);
        }
        ClusterServer {
            sets,
            ctls,
            map,
            pumps,
            trace: RefCell::default(),
        }
    }
}

impl<B: ClientBackend> ClusterServer<B> {
    /// Number of shards (replica sets).
    pub fn shards(&self) -> usize {
        self.sets.len()
    }

    /// One shard's **current primary**. With `replicas == 1` this is the
    /// shard's only server — identical to the pre-replication accessor.
    pub fn shard(&self, i: usize) -> &ServiceServer<B> {
        &self.sets[i][self.ctls[i].primary()]
    }

    /// One specific member of a replica set.
    pub fn replica(&self, i: usize, r: usize) -> &ServiceServer<B> {
        &self.sets[i][r]
    }

    /// Replication factor (members per replica set).
    pub fn replicas(&self) -> usize {
        self.sets.first().map_or(1, Vec::len)
    }

    /// Shard `i`'s replica-set control block (epoch, primary, liveness).
    pub fn ctl(&self, i: usize) -> &ReplicaCtl {
        &self.ctls[i]
    }

    /// The routing map clients copy at connect time.
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// Starts every replica's heartbeat publisher.
    pub fn start_heartbeats(&self) {
        for set in &self.sets {
            for s in set {
                s.start_heartbeats();
            }
        }
    }

    /// Routes every replica's spans into `sink`, each under its own node
    /// id (`SERVER_NODE_BASE + shard * replicas + replica`) so assembled
    /// traces show which member executed each leg. Forwarding pump
    /// connections record their legs too (spans only — their ring time is
    /// already inside the primary's [`Phase::IndexExec`]), so replication
    /// legs join the same trace as the triggering request. Call before
    /// any client connects.
    pub fn set_trace(&self, sink: &TraceSink) {
        let k = self.replicas() as u32;
        let node = |i: usize, r: usize| sink.for_node(SERVER_NODE_BASE + i as u32 * k + r as u32);
        for (i, set) in self.sets.iter().enumerate() {
            for (r, s) in set.iter().enumerate() {
                s.set_trace(node(i, r));
            }
        }
        for (i, r, client) in &self.pumps {
            client.borrow_mut().set_trace(node(*i, *r).spans_only());
        }
        *self.trace.borrow_mut() = sink.clone();
    }

    /// Per-shard server counters, in shard order (replica counters summed
    /// within each set).
    pub fn stats_per_shard(&self) -> Vec<ServiceStats> {
        self.sets
            .iter()
            .map(|set| {
                let mut total = ServiceStats::default();
                for s in set {
                    total.merge(&s.stats());
                }
                total
            })
            .collect()
    }

    /// Cluster-wide server counters (all replicas summed).
    pub fn stats(&self) -> ServiceStats {
        let mut total = ServiceStats::default();
        for set in &self.sets {
            for s in set {
                total.merge(&s.stats());
            }
        }
        total
    }
}

/// Entries per leaf range in the reconciliation walk: once a range's
/// population on the authority drops to this, members are compared
/// entry-by-entry instead of bisected further.
const REPAIR_LEAF_ENTRIES: u64 = 32;
/// Wire bytes charged per range digest exchanged: `(lo, hi)` bounds plus
/// the `(xor, count)` fingerprint.
const DIGEST_WIRE_BYTES: u64 = 8 + 8 + 16;
/// Wire bytes charged per tombstone (repair key of an entry deleted on the
/// authority).
const KEY_WIRE_BYTES: u64 = 8;

impl<B: ClientBackend + RangeDigest> ClusterServer<B> {
    /// Reconciles a lagging replica against the shard's current primary by
    /// recursive hash-range bisection (the HRTree scheme): compare the
    /// `(xor-fingerprint, count)` digest of a key range, skip it when equal,
    /// bisect when not, and at leaf granularity transfer only the entries
    /// that actually differ. Ranges are walked level by level, so the
    /// number of rounds is the depth of the divergence — O(log n) — and
    /// the bytes moved are proportional to the divergence, not the index
    /// size.
    ///
    /// The whole walk is synchronous in simulation time (digests are
    /// in-memory reads), so repair-then-[`ReplicaCtl::revive`] is atomic:
    /// no writes can interleave. Byte and round counts in the returned
    /// [`RepairReport`] model the wire cost for the bench gates.
    ///
    /// # Panics
    ///
    /// Panics if `lagging` is the set's current primary.
    pub fn repair_replica(&self, shard: usize, lagging: usize) -> RepairReport {
        let authority = self.ctls[shard].primary();
        assert_ne!(authority, lagging, "cannot repair a primary against itself");
        let auth = &self.sets[shard][authority];
        let lag = &self.sets[shard][lagging];

        let mut report = RepairReport::default();
        let (_, total) = auth.with_index(|ix| ix.digest_range(0, u64::MAX));
        report.full_resync_bytes = total * B::entry_wire_bytes() as u64;

        let mut frontier: Vec<(u64, u64)> = vec![(0, u64::MAX)];
        while !frontier.is_empty() {
            report.rounds += 1;
            let mut next = Vec::new();
            for (lo, hi) in frontier {
                report.ranges_compared += 1;
                report.bytes_moved += DIGEST_WIRE_BYTES;
                let (a_xor, a_count) = auth.with_index(|ix| ix.digest_range(lo, hi));
                let (l_xor, l_count) = lag.with_index(|ix| ix.digest_range(lo, hi));
                if a_xor == l_xor && a_count == l_count {
                    continue;
                }
                if a_count <= REPAIR_LEAF_ENTRIES || lo == hi {
                    self.reconcile_leaf(shard, authority, lagging, lo, hi, &mut report);
                } else {
                    let mid = lo + (hi - lo) / 2;
                    next.push((lo, mid));
                    next.push((mid + 1, hi));
                }
            }
            frontier = next;
        }

        let root_a = auth.with_index(|ix| ix.digest_range(0, u64::MAX));
        let root_l = lag.with_index(|ix| ix.digest_range(0, u64::MAX));
        report.converged = root_a == root_l;

        // Repair shows up in traces like a scattered read: one root with a
        // merge child, stamped under the cluster's own recorder.
        let trace = self.trace.borrow();
        let root = trace.open(None);
        trace.end_under(Phase::Merge, trace.begin(), Some(root.ctx()));
        trace.close(root);
        report
    }

    /// Leaf step of [`ClusterServer::repair_replica`]: full entry exchange
    /// over one small range — upsert entries that are missing or different
    /// on the lagging member, delete entries the authority no longer has.
    fn reconcile_leaf(
        &self,
        shard: usize,
        authority: usize,
        lagging: usize,
        lo: u64,
        hi: u64,
        report: &mut RepairReport,
    ) {
        let auth_items = self.sets[shard][authority].with_index(|ix| ix.items_in_range(lo, hi));
        let lag_items = self.sets[shard][lagging].with_index(|ix| ix.items_in_range(lo, hi));
        let lag_by_key: HashMap<u64, B::Entry> = lag_items.iter().cloned().collect();
        let auth_keys: std::collections::HashSet<u64> =
            auth_items.iter().map(|(k, _)| *k).collect();
        let entry_bytes = B::entry_wire_bytes() as u64;
        for (key, entry) in &auth_items {
            if lag_by_key.get(key) != Some(entry) {
                self.sets[shard][lagging].with_index_mut(|ix| ix.apply_entry(entry));
                report.transferred += 1;
                report.bytes_moved += entry_bytes;
            }
        }
        for (key, _) in &lag_items {
            if !auth_keys.contains(key) {
                self.sets[shard][lagging].with_index_mut(|ix| ix.remove_by_repair_key(*key));
                report.removed += 1;
                report.bytes_moved += KEY_WIRE_BYTES;
            }
        }
    }

    /// Repairs a lagging replica and, if reconciliation converged, revives
    /// it into the set as a backup. Returns the repair report.
    pub fn heal(&self, shard: usize, lagging: usize) -> RepairReport {
        let report = self.repair_replica(shard, lagging);
        if report.converged {
            self.ctls[shard].revive(lagging);
        }
        report
    }
}

/// A scatter-gather client: one [`ServiceClient`] per shard plus the
/// [`ShardMap`] that routes operations.
///
/// Point operations touch exactly one shard; window and kNN queries fan
/// out to the shards whose boundary MBR intersects (in parallel — each
/// shard connection is independent) and merge the partial results. Each
/// per-shard client runs its own Algorithm 1 against that shard's
/// heartbeat stream.
pub struct ClusterClient<B: ClientBackend> {
    /// Connections to each shard's replica 0 — the pre-replication view.
    /// With `replicas == 1` these are the only connections.
    pub(crate) shards: Vec<Rc<RefCell<ServiceClient<B>>>>,
    /// All connections, `replicas[shard][replica]`. `replicas[i][0]` is
    /// the same `Rc` as `shards[i]`.
    pub(crate) replicas: Vec<Vec<Rc<RefCell<ServiceClient<B>>>>>,
    /// Shared replica-set control blocks (one per shard, shared with the
    /// server side and every other client — the simulation stand-in for a
    /// consensus-backed membership view).
    pub(crate) ctls: Vec<ReplicaCtl>,
    pub(crate) map: ShardMap,
    /// This client's replication identity: `(origin, op_id)` pairs name
    /// mutations for the servers' applied table (exactly-once dedup across
    /// retries and failovers).
    pub(crate) origin: u64,
    pub(crate) next_op: Cell<u64>,
    /// The cluster's own span recorder: roots and merge spans for
    /// scattered reads are stamped here; shard clients share the same
    /// storage (same id counter) so every span in a run gets a globally
    /// unique id.
    pub(crate) trace: RefCell<TraceSink>,
}

impl<B: ClientBackend> std::fmt::Debug for ClusterClient<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterClient")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl<B: ClientBackend> ClusterClient<B> {
    /// Connects one client machine to every shard: a fresh fabric node
    /// carrying `shards` ring connections (Storm-style: many logical
    /// endpoints over one NIC). Per-shard back-off seeds are decorrelated
    /// from `seed` so shards don't draw identical bands.
    pub fn connect(
        server: &ClusterServer<B>,
        net: &Network,
        profile: &NetProfile,
        cfg: ClientConfig,
        seed: u64,
    ) -> ClusterClient<B> {
        let ep = Endpoint::new(net, net.add_node(profile.link), RdmaProfile::default());
        Self::connect_from(server, &ep, cfg, seed)
    }

    /// Like [`ClusterClient::connect`], over an existing endpoint (shared
    /// client machines in the harness).
    pub fn connect_from(
        server: &ClusterServer<B>,
        client_ep: &Endpoint,
        cfg: ClientConfig,
        seed: u64,
    ) -> ClusterClient<B> {
        let mut shards = Vec::with_capacity(server.sets.len());
        let mut replicas = Vec::with_capacity(server.sets.len());
        for (i, set) in server.sets.iter().enumerate() {
            let conns: Vec<Rc<RefCell<ServiceClient<B>>>> = set
                .iter()
                .enumerate()
                .map(|(r, s)| {
                    let ch = s.accept(client_ep);
                    // Replica 0's seed is the pre-replication formula, so
                    // unreplicated runs stay byte-identical; backups get
                    // their own decorrelated streams.
                    let conn_seed = if r == 0 {
                        shard_seed(seed, i)
                    } else {
                        seed ^ mix64(((r as u64) << 32) | (i as u64 + 1))
                    };
                    Rc::new(RefCell::new(ServiceClient::new(
                        ch,
                        s.remote_handle(),
                        cfg,
                        conn_seed,
                    )))
                })
                .collect();
            shards.push(Rc::clone(&conns[0]));
            replicas.push(conns);
        }
        ClusterClient {
            shards,
            replicas,
            ctls: server.ctls.clone(),
            map: server.map.clone(),
            origin: mix64(seed ^ 0xC1A5),
            next_op: Cell::new(1),
            trace: RefCell::default(),
        }
    }

    /// The connection a **read** for `shard` should use right now: the
    /// primary while its heartbeats are fresh, otherwise a live,
    /// fresh-looking backup (the staleness failsafe generalized into
    /// failover). A stale primary is also reported to the shared control
    /// block, which may promote — the epoch fence on the servers keeps
    /// that safe even when several clients race.
    pub(crate) fn read_conn(&self, shard: usize) -> Rc<RefCell<ServiceClient<B>>> {
        let conns = &self.replicas[shard];
        if conns.len() <= 1 {
            return Rc::clone(&self.shards[shard]);
        }
        let ctl = &self.ctls[shard];
        let primary = ctl.primary();
        if conns[primary].borrow_mut().is_stale() {
            ctl.suspect(primary, ctl.epoch());
        }
        let p = ctl.primary();
        if !conns[p].borrow_mut().is_stale() {
            return Rc::clone(&conns[p]);
        }
        for (r, c) in conns.iter().enumerate() {
            if r != p && ctl.is_alive(r) && !c.borrow_mut().is_stale() {
                return Rc::clone(c);
            }
        }
        Rc::clone(&conns[p])
    }

    /// Sends one mutation to `shard`'s current primary with exactly-once
    /// replication semantics: the message carries a
    /// `(origin, op_id, epoch)` envelope, the primary replicates it to
    /// live backups before acking, and on an unacknowledged send (retry
    /// budget burned, e.g. primary partitioned mid-batch) the client
    /// suspects the primary and **reissues the same op id** to the new
    /// one — the applied table turns the reissue into an idempotent ack if
    /// the first attempt did land. Unreplicated shards skip the envelope
    /// entirely (byte-identical to the pre-replication path).
    ///
    /// Returns the final `(status, items)`; status [`REPL_FENCED`] only
    /// when the view stopped changing while every member kept fencing us
    /// (i.e. the set is wedged).
    // Single-threaded cooperative executor: holding the RefCell across
    // the await is the crate-wide connection-ownership idiom.
    #[allow(clippy::await_holding_refcell_ref)]
    pub(crate) async fn replicated_write(
        &self,
        shard: usize,
        kind: OpKind,
        build: impl Fn(u32) -> WireMessage<B>,
    ) -> (u32, Vec<WireItem<B>>) {
        let conns = &self.replicas[shard];
        if conns.len() <= 1 {
            return self.shards[shard]
                .borrow_mut()
                .write_request(kind, None, &build)
                .await;
        }
        let ctl = &self.ctls[shard];
        let op_id = self.next_op.get();
        self.next_op.set(op_id + 1);
        let mut last = (STATUS_UNACKED, Vec::new());
        let attempts = 2 * conns.len() + 2;
        for _ in 0..attempts {
            let epoch = ctl.epoch();
            let primary = ctl.primary();
            let env = ReplEnvelope {
                link_seq: 0,
                origin: self.origin,
                op_id,
                epoch,
                flags: 0,
            };
            let (status, items) = conns[primary]
                .borrow_mut()
                .write_request(kind, Some(env), &build)
                .await;
            if status == STATUS_UNACKED {
                ctl.suspect(primary, epoch);
                last = (status, items);
                continue;
            }
            if status == REPL_FENCED {
                last = (status, items);
                if ctl.epoch() == epoch && ctl.primary() == primary {
                    // Nothing changed our view; retrying would loop.
                    return last;
                }
                continue;
            }
            return (status, items);
        }
        last
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shared handle to one shard's client (tests and the harness).
    pub fn shard_client(&self, i: usize) -> Rc<RefCell<ServiceClient<B>>> {
        Rc::clone(&self.shards[i])
    }

    /// The cluster's routing map (bounds reflect every client's inserts).
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// Wires every per-shard Algorithm 1 into `log`, stamped with its
    /// shard id — the per-shard timelines the hot/cold demo plots.
    pub fn set_adaptive_event_log(&self, log: &AdaptiveEventLog) {
        for (i, set) in self.replicas.iter().enumerate() {
            for s in set {
                s.borrow_mut()
                    .set_adaptive_event_log(log.for_shard(i as u32));
            }
        }
    }

    /// Labels every shard connection's flight recorder with this client's
    /// id and the shard it talks to, so anomaly dumps identify the
    /// connection they came from.
    pub fn set_flight_ids(&self, client: u32) {
        for (i, set) in self.replicas.iter().enumerate() {
            for s in set {
                s.borrow().set_flight_ids(client, i as u32);
            }
        }
    }

    /// Snapshots every shard connection's flight-recorder dumps, in shard
    /// order (flattened).
    pub fn flight_dumps(&self) -> Vec<crate::obs::FlightDump> {
        let mut out = Vec::new();
        for set in &self.replicas {
            for s in set {
                out.extend(s.borrow().flight().dumps());
            }
        }
        out
    }

    /// Closes a scattered operation: a merge child of `root` covering
    /// `[merge, now]`, then the root itself.
    pub(crate) fn end_scatter(&self, root: OpenSpan, merge: SpanStart) {
        let trace = self.trace.borrow();
        trace.end_under(Phase::Merge, merge, Some(root.ctx()));
        trace.close(root);
    }

    /// Switches every shard connection to busy-poll response detection on
    /// a core of `pool` (the client machine's CPUs).
    pub fn set_response_polling(&self, pool: &CpuPool) {
        for set in &self.replicas {
            for s in set {
                s.borrow_mut().poll_pool = Some(pool.clone());
            }
        }
    }

    /// Routes this client's spans into `sink`: scatter roots and merges
    /// here, and every shard connection's spans (the cluster analogue of
    /// [`ServiceClient::set_trace`]). All of a client's spans carry one
    /// node id — pass `sink.for_node(client_id)`.
    pub fn set_trace(&self, sink: &TraceSink) {
        for set in &self.replicas {
            for s in set {
                s.borrow_mut().set_trace(sink.clone());
            }
        }
        *self.trace.borrow_mut() = sink.clone();
    }

    /// Per-shard client counters, in shard order.
    pub fn stats_per_shard(&self) -> Vec<ServiceStats> {
        self.replicas
            .iter()
            .map(|set| {
                let mut total = ServiceStats::default();
                for s in set {
                    total.merge(&s.borrow().stats());
                }
                total
            })
            .collect()
    }

    /// Counters summed across all connections.
    pub fn stats(&self) -> ServiceStats {
        let mut total = ServiceStats::default();
        for set in &self.replicas {
            for s in set {
                total.merge(&s.borrow().stats());
            }
        }
        total
    }

    /// Runs `op` against every shard in `targets` **in parallel** (each
    /// shard connection is independent) and returns the per-shard results
    /// in target order. The per-shard futures are spawned, so a slow shard
    /// overlaps the others instead of serializing the scatter.
    pub(crate) async fn scatter<R: 'static>(
        &self,
        targets: &[usize],
        op: impl Fn(
            Rc<RefCell<ServiceClient<B>>>,
        ) -> std::pin::Pin<Box<dyn std::future::Future<Output = R>>>,
    ) -> Vec<R> {
        let mut handles = Vec::with_capacity(targets.len());
        for &t in targets {
            let shard = self.read_conn(t);
            handles.push(spawn(op(shard)));
        }
        let mut out = Vec::with_capacity(handles.len());
        for h in handles {
            out.push(h.await);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_ring_covers_every_shard_roughly_evenly() {
        let map = ShardMap::hash_ring(4);
        let mut counts = [0usize; 4];
        for key in 0..40_000u64 {
            counts[map.key_shard(key)] += 1;
        }
        for (shard, &c) in counts.iter().enumerate() {
            assert!(
                (4_000..=16_000).contains(&c),
                "shard {shard} got {c} of 40000 keys"
            );
        }
    }

    #[test]
    fn hash_ring_is_deterministic() {
        let a = ShardMap::hash_ring(8);
        let b = ShardMap::hash_ring(8);
        for key in 0..1_000u64 {
            assert_eq!(a.key_shard(key), b.key_shard(key));
        }
    }

    #[test]
    fn region_map_routes_and_grows() {
        let map = ShardMap::region(vec![0.5], vec![Some(Rect::new(0.0, 0.0, 0.4, 1.0)), None]);
        assert_eq!(map.shards(), 2);
        // Center below the cut → shard 0; above → shard 1.
        assert_eq!(map.home_shard(&Rect::new(0.1, 0.1, 0.2, 0.2)), 0);
        assert_eq!(map.home_shard(&Rect::new(0.8, 0.1, 0.9, 0.2)), 1);
        // Shard 1 is empty: scatter prunes it even right of the cut.
        assert_eq!(map.read_targets(&Rect::new(0.6, 0.0, 0.9, 1.0)), vec![]);
        assert_eq!(map.occupied(), vec![0]);
        // First insert establishes its bound; scatter now reaches it.
        map.grow(1, &Rect::new(0.7, 0.2, 0.75, 0.25));
        assert_eq!(map.read_targets(&Rect::new(0.6, 0.0, 0.9, 1.0)), vec![1]);
        assert_eq!(map.occupied(), vec![0, 1]);
        // A query spanning the cut scatters to both.
        assert_eq!(map.read_targets(&Rect::new(0.3, 0.0, 0.8, 1.0)), vec![0, 1]);
    }

    #[test]
    fn grow_unions_with_the_existing_bound() {
        let map = ShardMap::region(vec![], vec![Some(Rect::new(0.2, 0.2, 0.4, 0.4))]);
        let copy = map.clone();
        copy.grow(0, &Rect::new(0.35, 0.1, 0.5, 0.3));
        let ShardMap::Region { bounds, .. } = &map else {
            unreachable!()
        };
        // Growth through a clone is visible through the original.
        let b = bounds.borrow()[0].unwrap();
        assert_eq!(
            (b.min_x(), b.min_y(), b.max_x(), b.max_y()),
            (0.2, 0.1, 0.5, 0.4)
        );
    }

    #[test]
    fn replica_ctl_promotes_with_epoch_bump() {
        let ctl = ReplicaCtl::new(3);
        assert_eq!((ctl.primary(), ctl.epoch()), (0, 0));
        // Suspecting a backup changes liveness but not leadership.
        assert!(ctl.suspect(2, 0));
        assert_eq!((ctl.primary(), ctl.epoch()), (0, 0));
        assert!(!ctl.is_alive(2));
        // Suspecting the primary promotes the next live member and fences
        // the old epoch.
        assert!(ctl.suspect(0, 0));
        assert_eq!((ctl.primary(), ctl.epoch()), (1, 1));
    }

    #[test]
    fn replica_ctl_stale_epoch_suspicions_are_ignored() {
        let ctl = ReplicaCtl::new(3);
        assert!(ctl.suspect(0, 0));
        assert_eq!((ctl.primary(), ctl.epoch()), (1, 1));
        // A second client still holding epoch 0 reports the *old* primary:
        // already handled, must not double-promote.
        assert!(!ctl.suspect(0, 0));
        assert_eq!((ctl.primary(), ctl.epoch()), (1, 1));
        // Even a stale report against the *new* primary is ignored.
        assert!(!ctl.suspect(1, 0));
        assert_eq!((ctl.primary(), ctl.epoch()), (1, 1));
    }

    #[test]
    fn replica_ctl_refuses_to_kill_the_last_member() {
        let ctl = ReplicaCtl::new(2);
        assert!(ctl.suspect(1, 0));
        assert!(!ctl.suspect(0, 0), "last live member must survive");
        assert!(ctl.is_alive(0));
        assert_eq!(ctl.primary(), 0);
    }

    #[test]
    fn replica_ctl_revive_rejoins_as_backup() {
        let ctl = ReplicaCtl::new(3);
        assert!(ctl.suspect(0, 0));
        let epoch = ctl.epoch();
        ctl.revive(0);
        assert!(ctl.is_alive(0));
        // Rejoining neither reclaims leadership nor bumps the epoch.
        assert_eq!((ctl.primary(), ctl.epoch()), (1, epoch));
        assert_eq!(ctl.live_backups(), 2);
    }

    mod replicated {
        use super::*;
        use crate::config::{AccessMode, ServerMode};
        use crate::kv::{KvCluster, KvClusterClient};
        use catfish_bplus::BpConfig;
        use catfish_rdma::profile::infiniband_100g;
        use catfish_simnet::Sim;

        fn kv_items(n: u64) -> Vec<(u64, u64)> {
            (0..n).map(|i| (i * 11 % (n * 4), i)).collect()
        }

        fn build_kv(shards: usize, replicas: usize, n: u64) -> (Network, KvCluster) {
            let net = Network::new();
            let profile = infiniband_100g();
            let rkeys = RkeyAllocator::new();
            let cluster = KvCluster::build_replicated(
                &net,
                &profile,
                ServerConfig {
                    cores: 2,
                    mode: ServerMode::EventDriven,
                    ..ServerConfig::default()
                },
                BpConfig::with_max_keys(32),
                kv_items(n),
                shards,
                replicas,
                &rkeys,
            );
            (net, cluster)
        }

        fn connect(net: &Network, cluster: &KvCluster, seed: u64) -> KvClusterClient {
            KvClusterClient::connect(
                cluster,
                net,
                &infiniband_100g(),
                ClientConfig {
                    mode: AccessMode::FastMessaging,
                    ..ClientConfig::default()
                },
                seed,
            )
        }

        fn digest(cluster: &KvCluster, shard: usize, replica: usize) -> (u64, u64) {
            cluster
                .replica(shard, replica)
                .with_index(|ix| RangeDigest::digest_range(ix, 0, u64::MAX))
        }

        #[test]
        fn acked_writes_reach_every_backup() {
            let sim = Sim::new();
            sim.run_until(async {
                let (net, cluster) = build_kv(2, 3, 200);
                let mut c = connect(&net, &cluster, 7);
                for i in 0..40u64 {
                    let key = 1_000_000 + i * 13;
                    assert_eq!(c.put(key, i).await, None);
                }
                assert_eq!(c.remove(1_000_000).await, Some(0));
                // Every member of every set converged to the same content.
                for shard in 0..cluster.shards() {
                    let d0 = digest(&cluster, shard, 0);
                    for r in 1..cluster.replicas() {
                        assert_eq!(digest(&cluster, shard, r), d0, "replica {r} diverged");
                    }
                }
                let st = cluster.stats();
                // 41 acked mutations, each forwarded to 2 backups.
                assert_eq!(st.repl_forwards, 41);
                assert_eq!(st.repl_fenced, 0);
                assert_eq!(st.repl_dups, 0);
            });
        }

        #[test]
        fn promotion_keeps_writes_flowing_and_fences_the_old_primary() {
            let sim = Sim::new();
            sim.run_until(async {
                let (net, cluster) = build_kv(1, 3, 100);
                let mut c = connect(&net, &cluster, 11);
                assert_eq!(c.put(2_000_000, 1).await, None);
                // Fail the primary administratively: epoch 0 → 1, member 1
                // leads. The shared control block is visible to the client.
                assert!(cluster.ctl(0).suspect(0, 0));
                assert_eq!(c.put(2_000_001, 2).await, None);
                assert_eq!(c.get(2_000_001).await, Some(2));
                // The surviving pair converged (the dead member missed it).
                assert_eq!(digest(&cluster, 0, 1), digest(&cluster, 0, 2));
                assert_ne!(digest(&cluster, 0, 0), digest(&cluster, 0, 1));
                // Heal: reconcile the crashed ex-primary and rejoin it.
                let report = cluster.heal(0, 0);
                assert!(report.converged, "repair must converge");
                assert!(report.transferred >= 1);
                assert_eq!(digest(&cluster, 0, 0), digest(&cluster, 0, 1));
                assert!(cluster.ctl(0).is_alive(0));
                // Rejoined as backup: the next write reaches it too.
                assert_eq!(c.put(2_000_002, 3).await, None);
                assert_eq!(digest(&cluster, 0, 0), digest(&cluster, 0, 1));
            });
        }

        #[test]
        fn repair_moves_less_than_full_resync_and_scales_log_n() {
            let sim = Sim::new();
            sim.run_until(async {
                let n = 4_096u64;
                let (_net, cluster) = build_kv(1, 2, n);
                // Diverge the backup: drop a handful of entries and corrupt
                // one value (1% of n).
                let backup = 1;
                cluster.replica(0, backup).with_index_mut(|ix| {
                    for i in 0..40u64 {
                        ix.remove(i * 11 % (n * 4));
                    }
                    ix.insert(11, 0xDEAD);
                });
                let report = cluster.repair_replica(0, backup);
                assert!(report.converged);
                assert!(report.transferred >= 40);
                assert!(
                    report.bytes_moved * 5 <= report.full_resync_bytes,
                    "repair moved {} of {} full-resync bytes",
                    report.bytes_moved,
                    report.full_resync_bytes
                );
                let bound = 2 * (64 - (n.leading_zeros() as u64)) + 2;
                assert!(
                    report.rounds <= bound,
                    "{} rounds exceeds O(log n) bound {bound}",
                    report.rounds
                );
                assert_eq!(digest(&cluster, 0, 0), digest(&cluster, 0, 1));
            });
        }

        #[test]
        fn replicated_one_is_plain_cluster() {
            let sim = Sim::new();
            sim.run_until(async {
                let (net, cluster) = build_kv(2, 1, 100);
                let mut c = connect(&net, &cluster, 3);
                assert_eq!(c.put(5_000, 9).await, None);
                assert_eq!(c.get(5_000).await, Some(9));
                let st = cluster.stats();
                assert_eq!(st.repl_forwards, 0);
                assert_eq!(st.repl_fenced, 0);
                assert_eq!(cluster.replicas(), 1);
            });
        }

        #[test]
        fn unreplicated_traffic_is_byte_identical_to_pre_replication_build() {
            // `build` and `build_replicated(.., 1, ..)` must produce
            // indistinguishable clusters: same seeds, same node ids, same
            // wire bytes — the guarantee that replication is pay-as-you-go.
            let run = |replicated: bool| {
                let sim = Sim::new();
                sim.run_until(async move {
                    let net = Network::new();
                    let profile = infiniband_100g();
                    let rkeys = RkeyAllocator::new();
                    let cfg = ServerConfig {
                        cores: 2,
                        mode: ServerMode::EventDriven,
                        ..ServerConfig::default()
                    };
                    let cluster = if replicated {
                        KvCluster::build_replicated(
                            &net,
                            &profile,
                            cfg,
                            BpConfig::with_max_keys(32),
                            kv_items(500),
                            2,
                            1,
                            &rkeys,
                        )
                    } else {
                        KvCluster::build(
                            &net,
                            &profile,
                            cfg,
                            BpConfig::with_max_keys(32),
                            kv_items(500),
                            2,
                            &rkeys,
                        )
                    };
                    let mut c = connect(&net, &cluster, 42);
                    let mut trace = Vec::new();
                    for i in 0..50u64 {
                        trace.push((
                            c.put(9_000_000 + i * 3, i).await,
                            c.get(9_000_000 + i * 3).await,
                        ));
                    }
                    trace.push((None, c.get(1).await));
                    (trace, cluster.stats(), c.stats(), catfish_simnet::now())
                })
            };
            assert_eq!(run(false), run(true));
        }
    }
}
