//! Answered requests leave no timers behind.
//!
//! Every fast-messaging request arms a `request_timeout` timer (1 s by
//! default) and drops it when the reply arrives, long before it is due.
//! The executor must take a dropped timer out of its table at once: after
//! thousands of answered requests, the only timers left are the ones live
//! tasks are still waiting on.

use catfish_core::config::Scheme;
use catfish_core::harness::{ExperimentSpec, Testbed};
use catfish_rdma::FaultConfig;
use catfish_rtree::Rect;
use catfish_simnet::{spawn, Sim};
use catfish_workload::uniform_rects;

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 750;

#[test]
fn answered_requests_leave_no_dead_timers() {
    let spec = ExperimentSpec {
        scheme: Scheme::FastMessaging,
        clients: CLIENTS,
        client_nodes: 2,
        dataset: uniform_rects(5_000, 1e-3, 7),
        // Fault-free even under `CATFISH_FAULTS`: every request is answered.
        fault: Some(FaultConfig::default()),
        ..ExperimentSpec::default()
    };
    assert_eq!(spec.request_timeout, None, "the default 1 s timeout");
    let sim = Sim::new();
    let view = sim.clone();
    let (answered, timers, tasks) = sim.run_until(async move {
        let bed: Testbed = Testbed::build(&spec, spec.tree_config, spec.dataset.clone());
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = bed.connect(c, spec.seed ^ c as u64);
                spawn(async move {
                    for i in 0..REQUESTS_PER_CLIENT {
                        let x = (i * 37 + c * 101) as f64 % 997.0 / 997.0;
                        let rect = Rect::new(x, 1.0 - x, x + 0.01, 1.01 - x);
                        client.search(&rect).await;
                    }
                    REQUESTS_PER_CLIENT
                })
            })
            .collect();
        let mut answered = 0;
        for h in handles {
            answered += h.await;
        }
        (answered, view.pending_timers(), view.live_tasks())
    });
    assert_eq!(answered, CLIENTS * REQUESTS_PER_CLIENT);
    assert!(
        timers <= tasks,
        "{timers} timers pending for {tasks} live tasks after {answered} answered requests"
    );
}
