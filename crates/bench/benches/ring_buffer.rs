//! Criterion micro-benchmarks of the ring-buffer protocol: full simulated
//! send→receive cycles, including wrap-around pressure, plus the CRC-32
//! every ring frame and mailbox deposit carries, at a small frame (64 B),
//! a page (4 KiB) and a large mailbox deposit (9 KiB).
//!
//! These run entire mini-simulations per iteration batch, so the numbers
//! measure simulator+protocol cost (useful for tracking regressions in the
//! hot path that every fast-messaging request crosses twice).

use catfish_core::conn::{establish, RkeyAllocator};
use catfish_core::msg::Message;
use catfish_rdma::{crc32, Endpoint, RdmaProfile};
use catfish_rtree::Rect;
use catfish_simnet::{LinkSpec, Network, Sim, SimDuration};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_ring_round_trips(c: &mut Criterion) {
    let mut group = c.benchmark_group("ring_round_trips");
    for msgs in [100usize, 1000] {
        group.bench_with_input(BenchmarkId::from_parameter(msgs), &msgs, |b, &msgs| {
            b.iter(|| {
                let sim = Sim::new();
                sim.run_until(async move {
                    let net = Network::new();
                    let spec = LinkSpec::gbps(100.0, SimDuration::from_micros(1));
                    let client_ep = Endpoint::new(&net, net.add_node(spec), RdmaProfile::default());
                    let server_ep = Endpoint::new(&net, net.add_node(spec), RdmaProfile::default());
                    let rkeys = RkeyAllocator::new();
                    let (cc, sc) = establish(&client_ep, &server_ep, 64 * 1024, &rkeys);
                    let echo = catfish_simnet::spawn(async move {
                        for _ in 0..msgs {
                            let m = sc.rx.wait_message().await;
                            sc.tx.send(&m, 0).await.unwrap();
                        }
                    });
                    for i in 0..msgs {
                        cc.tx.send(&vec![0u8; 64 + (i % 128)], 0).await.unwrap();
                        cc.rx.wait_message().await;
                    }
                    echo.await;
                })
            });
        });
    }
    group.finish();
}

fn bench_message_codec(c: &mut Criterion) {
    let msg = Message::ResponseEnd {
        seq: 9,
        results: (0..100u64)
            .map(|i| (Rect::new(0.0, 0.0, 0.1, 0.1), i))
            .collect(),
        status: 1,
    };
    let bytes = msg.encode();
    c.bench_function("message_encode_100_results", |b| b.iter(|| msg.encode()));
    c.bench_function("message_decode_100_results", |b| {
        b.iter(|| Message::decode(&bytes).expect("valid"))
    });
}

fn bench_crc32(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc32");
    for len in [64usize, 4096, 9216] {
        let data: Vec<u8> = (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, _| {
            b.iter(|| crc32(criterion::black_box(&data)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ring_round_trips,
    bench_message_codec,
    bench_crc32
);
criterion_main!(benches);
