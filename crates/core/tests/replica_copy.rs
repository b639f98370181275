//! A backup replica built by copying its primary's arena
//! ([`ServiceServer::build_backup`]) must be indistinguishable from one
//! built by bulk-loading the same items: every byte of the registered
//! region, the tree metadata and the allocator state `(next, free)` agree,
//! and keep agreeing after the same inserts and deletes reach both. The
//! second round copies a store that has a free list and rewritten chunks,
//! so a copy that dropped the free list or restarted the per-chunk version
//! counters would diverge.

use catfish_bplus::BpConfig;
use catfish_core::config::ServerConfig;
use catfish_core::conn::RkeyAllocator;
use catfish_core::kv::{KvBackend, KvServer};
use catfish_core::server::{CatfishServer, RtreeBackend};
use catfish_core::service::{IndexBackend, ServiceServer};
use catfish_rdma::profile::infiniband_100g;
use catfish_rtree::{RTreeConfig, TreeMeta};
use catfish_simnet::{Network, Sim};
use catfish_workload::{skewed_insert_rect, uniform_rects, ScaleDist};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a, 64-bit, over the whole registered region.
fn fnv(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Everything a replica's index state consists of: region digest and
/// length, tree metadata, allocator state.
type ReplicaState = (u64, usize, TreeMeta, (u32, Vec<u32>));

fn state<B: IndexBackend>(
    server: &ServiceServer<B>,
    allocator: impl Fn(&B) -> (u32, Vec<u32>),
) -> ReplicaState {
    let mr = server
        .endpoint()
        .memory_region(server.remote_handle().rkey)
        .expect("arena registered");
    (
        mr.with_slice(0, mr.len(), fnv),
        mr.len(),
        server.meta(),
        server.with_index(allocator),
    )
}

/// Builds a primary and an independently loaded twin, then checks a copy
/// of the primary against the twin, before and after `edit` reaches both,
/// and once more from a copy of the edited twin.
fn check_copy<B: IndexBackend>(
    build: impl Fn() -> ServiceServer<B>,
    allocator: impl Fn(&B) -> (u32, Vec<u32>) + Copy,
    edit: impl Fn(&mut B, u64),
) {
    let (primary, twin) = (build(), build());
    let backup = primary.build_backup();
    assert_eq!(
        state(&backup, allocator),
        state(&twin, allocator),
        "copy of a load"
    );
    for s in [&backup, &twin] {
        s.with_index_mut(|ix| edit(ix, 0));
    }
    assert_eq!(
        state(&backup, allocator),
        state(&twin, allocator),
        "after edits"
    );

    assert!(
        !twin.with_index(allocator).1.is_empty(),
        "deletes freed chunks"
    );
    let second = twin.build_backup();
    assert_eq!(
        state(&second, allocator),
        state(&twin, allocator),
        "copy of an edited store"
    );
    for s in [&second, &twin] {
        s.with_index_mut(|ix| edit(ix, 1));
    }
    assert_eq!(
        state(&second, allocator),
        state(&twin, allocator),
        "after more edits"
    );
}

#[test]
fn rtree_backup_copy_equals_a_bulk_load() {
    Sim::new().run_until(async {
        let net = Network::new();
        let rkeys = RkeyAllocator::new();
        let items = uniform_rects(5_000, 1e-3, 11);
        let build = || {
            CatfishServer::build(
                &net,
                &infiniband_100g(),
                ServerConfig::default(),
                RTreeConfig::with_max_entries(88),
                items.clone(),
                &rkeys,
            )
        };
        // Round r deletes every bulk item with index parity r, then
        // inserts 1k skewed rectangles under fresh ids.
        let edit = |ix: &mut RtreeBackend, round: u64| {
            for (i, (r, d)) in items.iter().enumerate() {
                if i as u64 % 2 == round {
                    assert!(ix.delete(r, *d), "item {d} present");
                }
            }
            let mut rng = StdRng::seed_from_u64(round);
            for i in 0..1_000 {
                let rect = skewed_insert_rect(&mut rng, &ScaleDist::power_law());
                ix.insert(rect, ((round + 1) << 40) + i);
            }
        };
        check_copy(
            build,
            |ix: &RtreeBackend| ix.store().allocator_state(),
            edit,
        );
    });
}

#[test]
fn kv_backup_copy_equals_a_bulk_load() {
    Sim::new().run_until(async {
        let net = Network::new();
        let rkeys = RkeyAllocator::new();
        let items: Vec<(u64, u64)> = (0..5_000u64).map(|i| (i * 3, i)).collect();
        let build = || {
            KvServer::build(
                &net,
                &infiniband_100g(),
                ServerConfig::default(),
                BpConfig::with_max_keys(32),
                items.clone(),
                &rkeys,
            )
        };
        let edit = |ix: &mut KvBackend, round: u64| {
            for &(k, v) in &items {
                if v % 2 == round {
                    assert_eq!(ix.remove(k), Some(v));
                }
            }
            for i in 0..1_000u64 {
                ix.insert(((round + 1) << 40) + i * 7, i);
            }
        };
        check_copy(build, |ix: &KvBackend| ix.store().allocator_state(), edit);
    });
}
