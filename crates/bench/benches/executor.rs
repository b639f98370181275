//! Criterion micro-benchmarks of the simulator core every simulated event
//! crosses: spawning and joining a task, a timer-driven wake among many
//! live tasks, and a channel send waking its receiver.
//!
//! - `spawn_await`: one `run_until` whose root task spawns a child and
//!   awaits its output (two spawns, one join).
//! - `sleep_among/N`: N tasks sleep in turn, 10 ns apart, while 300 more
//!   sit parked on far timers (the request timeouts of a live run); each
//!   iteration advances the clock 10 ns, so exactly one timer fires, one
//!   task is polled and one timer is re-armed.
//! - `channel_wake`: a send from outside the simulation wakes the parked
//!   receiver, which is polled once and parks again.

use catfish_simnet::{sleep, spawn, sync, Sim, SimDuration};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

const STEP: SimDuration = SimDuration::from_nanos(10);
const FAR_TIMERS: usize = 300;

fn bench_executor(c: &mut Criterion) {
    let mut group = c.benchmark_group("executor");

    let sim = Sim::new();
    group.bench_function("spawn_await", |b| {
        b.iter(|| sim.run_until(async { spawn(async { black_box(1u32) }).await }))
    });

    for tasks in [64u64, 256] {
        let sim = Sim::new();
        for _ in 0..FAR_TIMERS {
            sim.spawn(sleep(SimDuration::from_secs(3600)));
        }
        for i in 0..tasks {
            sim.spawn(async move {
                sleep(STEP * (i + 1)).await;
                loop {
                    sleep(STEP * tasks).await;
                }
            });
        }
        sim.run_for(SimDuration::ZERO);
        group.bench_with_input(BenchmarkId::new("sleep_among", tasks), &sim, |b, sim| {
            b.iter(|| sim.run_for(STEP))
        });
    }

    let sim = Sim::new();
    let (tx, mut rx) = sync::channel::<u64>();
    sim.spawn(async move { while rx.recv().await.is_some() {} });
    sim.run();
    group.bench_function("channel_wake", |b| {
        b.iter(|| {
            tx.send(black_box(7));
            sim.run();
        })
    });

    group.finish();
}

criterion_group!(benches, bench_executor);
criterion_main!(benches);
