//! Anti-entropy repair on both backends: a backup diverged from its
//! primary — entries missing, an entry the primary never held, a changed
//! geometry or value under one id, an R-tree entry held twice — is
//! reconciled by
//! [`ClusterServer::heal`], which must report exactly what it shipped and
//! deleted, leave both members with equal digests, and revive the backup.

use catfish_bplus::BpConfig;
use catfish_core::config::{ServerConfig, ServerMode};
use catfish_core::conn::RkeyAllocator;
use catfish_core::kv::{KvBackend, KvCluster};
use catfish_core::server::{CatfishCluster, RtreeBackend};
use catfish_core::service::{ClientBackend, ClusterServer, Repairable};
use catfish_rdma::profile::infiniband_100g;
use catfish_rtree::{RTreeConfig, Rect};
use catfish_simnet::{Network, Sim};
use catfish_workload::uniform_rects;

const N: usize = 4_096;

fn server_cfg() -> ServerConfig {
    ServerConfig {
        cores: 2,
        mode: ServerMode::EventDriven,
        ..ServerConfig::default()
    }
}

fn rtree_cluster() -> CatfishCluster {
    CatfishCluster::build_replicated(
        &Network::new(),
        &infiniband_100g(),
        server_cfg(),
        RTreeConfig::with_max_entries(16),
        uniform_rects(N, 0.01, 5),
        1,
        2,
        &RkeyAllocator::new(),
    )
}

fn kv_cluster() -> KvCluster {
    KvCluster::build_replicated(
        &Network::new(),
        &infiniband_100g(),
        server_cfg(),
        BpConfig::with_max_keys(32),
        (0..N as u64).map(|i| (i * 3, i)).collect(),
        1,
        2,
        &RkeyAllocator::new(),
    )
}

/// Takes member 1 down, diverges it with `diverge`, heals it against
/// member 0, and checks the report's `(transferred, removed)` counts.
fn check<B: ClientBackend + Repairable>(
    label: &str,
    build: impl FnOnce() -> ClusterServer<B> + 'static,
    diverge: impl FnOnce(&mut B) + 'static,
    transferred: u64,
    removed: u64,
) {
    let label = label.to_string();
    Sim::new().run_until(async move {
        let cluster = build();
        let digest = |r| cluster.member_digest(0, r);
        assert_eq!(digest(0), digest(1), "{label}: copy");
        assert!(cluster.ctl(0).suspect(1, 0));
        cluster.replica(0, 1).with_index_mut(diverge);
        assert_ne!(digest(0), digest(1), "{label}: diverged");
        let report = cluster.heal(0, 1);
        assert_eq!(
            (report.transferred, report.removed),
            (transferred, removed),
            "{label}: {report:?}"
        );
        assert!(report.converged, "{label}: {report:?}");
        assert_eq!(digest(0), digest(1), "{label}: repaired");
        assert!(cluster.ctl(0).is_alive(1), "{label}: revived");
    });
}

#[test]
fn rtree_repair_restores_missing_entries() {
    let items = uniform_rects(N, 0.01, 5);
    check(
        "rtree missing",
        rtree_cluster,
        move |ix: &mut RtreeBackend| {
            for (rect, id) in items.iter().step_by(100) {
                assert!(ix.delete(rect, *id));
            }
        },
        41,
        0,
    );
}

#[test]
fn rtree_repair_removes_an_extra_entry() {
    check(
        "rtree extra",
        rtree_cluster,
        |ix: &mut RtreeBackend| ix.insert(Rect::new(0.5, 0.5, 0.51, 0.51), 1 << 40),
        0,
        1,
    );
}

#[test]
fn rtree_repair_replaces_changed_geometry() {
    let (rect, id) = uniform_rects(N, 0.01, 5)[7];
    check(
        "rtree changed",
        rtree_cluster,
        move |ix: &mut RtreeBackend| {
            assert!(ix.delete(&rect, id));
            ix.insert(Rect::new(0.1, 0.1, 0.2, 0.2), id);
        },
        1,
        0,
    );
}

/// The lagging member holds one entry twice: its copies under that repair
/// key differ from the authority's single one, so both go and one is
/// shipped back.
#[test]
fn rtree_repair_drops_a_doubled_entry() {
    let (rect, id) = uniform_rects(N, 0.01, 5)[7];
    check(
        "rtree doubled",
        rtree_cluster,
        move |ix: &mut RtreeBackend| ix.insert(rect, id),
        1,
        0,
    );
}

#[test]
fn kv_repair_restores_missing_entries() {
    check(
        "kv missing",
        kv_cluster,
        |ix: &mut KvBackend| {
            for i in (0..N as u64).step_by(100) {
                assert_eq!(ix.remove(i * 3), Some(i));
            }
        },
        41,
        0,
    );
}

#[test]
fn kv_repair_removes_an_extra_entry() {
    check(
        "kv extra",
        kv_cluster,
        |ix: &mut KvBackend| assert_eq!(ix.insert(1, 77), None),
        0,
        1,
    );
}

#[test]
fn kv_repair_replaces_a_changed_value() {
    check(
        "kv changed",
        kv_cluster,
        |ix: &mut KvBackend| assert_eq!(ix.insert(21, 0xDEAD), Some(7)),
        1,
        0,
    );
}
