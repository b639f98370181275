//! Paper §VI: the offloading framework is not R-tree-specific. Here a
//! B+-tree lives in an RDMA-registered chunk arena at the "server", and a
//! client performs key lookups entirely with one-sided RDMA Reads —
//! validating per-cache-line versions and retrying torn reads, exactly
//! like the R-tree path.
//!
//! Run with: `cargo run --release --example btree_offload`

use catfish::bplus::{BpConfig, BpLayout, BpTree};
use catfish::rdma::{Endpoint, MemoryRegion, QueuePair, RdmaProfile};
use catfish::rtree::chunk::{ChunkMemory, ChunkStore};
use catfish::rtree::codec::{CodecError, RemoteLayout};
use catfish::simnet::{now, Network, Sim, SimDuration};

/// ChunkMemory adapter over a registered region with torn-write windows.
#[derive(Debug, Clone)]
struct Arena {
    mr: MemoryRegion,
    window: SimDuration,
}

impl ChunkMemory for Arena {
    fn len(&self) -> usize {
        self.mr.len()
    }
    fn read_into(&self, offset: usize, buf: &mut [u8]) {
        self.mr.read_local(offset, buf);
    }
    fn write_at(&mut self, offset: usize, data: &[u8]) {
        self.mr.write_local_torn(offset, data, self.window);
    }
}

/// Remote lookup: read chunk 0 (meta), then descend, validating versions.
async fn remote_get(qp: &QueuePair, rkey: u32, layout: BpLayout, key: u64) -> Option<u64> {
    let meta = loop {
        let bytes = qp.read(rkey, 0, layout.chunk_bytes()).await.expect("mr");
        match layout.decode_meta(&bytes) {
            Ok((m, _)) => break m,
            Err(CodecError::TornRead { .. }) => continue,
            Err(e) => panic!("corrupt meta: {e}"),
        }
    };
    let mut id = meta.root?;
    loop {
        let node = loop {
            let bytes = qp
                .read(rkey, layout.node_offset(id), layout.chunk_bytes())
                .await
                .expect("mr");
            match layout.decode_node(&bytes) {
                Ok((n, _)) => break n,
                Err(CodecError::TornRead { .. }) => {
                    println!("  torn read on node {id} — retrying");
                    continue;
                }
                Err(e) => panic!("corrupt node: {e}"),
            }
        };
        if node.is_leaf() {
            return match node.keys.binary_search(&key) {
                Ok(i) => Some(node.values()[i]),
                Err(_) => None,
            };
        }
        let idx = node.keys.partition_point(|k| *k <= key);
        id = node.children()[idx];
    }
}

fn main() {
    let sim = Sim::new();
    sim.run_until(async {
        let net = Network::new();
        let profile = catfish::rdma::profile::infiniband_100g();
        let server_ep = Endpoint::new(&net, net.add_node(profile.link), profile.rdma);
        let client_ep = Endpoint::new(&net, net.add_node(profile.link), RdmaProfile::default());

        // Server: a B+-tree in a registered arena — the R-tree's chunk
        // store, under the B+ chunk format.
        let layout = BpLayout::for_max_keys(64);
        let mr = MemoryRegion::new(layout.arena_bytes(4096), 42);
        server_ep.register(mr.clone());
        let arena = Arena {
            mr,
            window: SimDuration::from_micros(2),
        };
        let mut tree = BpTree::new(ChunkStore::new(arena, layout), BpConfig::with_max_keys(64));
        for k in 0..50_000u64 {
            tree.insert(k * 3, k);
        }
        println!(
            "server B+-tree: {} keys, height {}, {}-byte chunks",
            tree.len(),
            tree.height(),
            layout.chunk_bytes()
        );

        // Client: pure one-sided lookups.
        let (qp, _server_qp) = client_ep.connect(&server_ep);
        let t0 = now();
        let mut hits = 0;
        for probe in 0..1_000u64 {
            let key = probe * 149;
            let got = remote_get(&qp, 42, layout, key).await;
            let expect = if key % 3 == 0 { Some(key / 3) } else { None };
            assert_eq!(got, expect, "key {key}");
            if got.is_some() {
                hits += 1;
            }
        }
        let per_op = (now() - t0) / 1000;
        println!("1000 remote lookups ({hits} hits), {per_op} each — zero server CPU");
        println!("the same verbs, chunk codec, and validation as the R-tree path");
    });
}
