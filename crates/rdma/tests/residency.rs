//! Host residency of registered memory across set-ups.
//!
//! A benchmark process builds a set-up (clients register rings and
//! mailboxes and write them), drops it, and builds the next. A later
//! set-up must cost the host only the pages it writes, and dropping it
//! must return them. This is its own test binary, with one test, so no
//! other test's allocations move the `VmRSS` readings.

use catfish_rdma::MemoryRegion;

/// Regions per set-up, each the size of a client ring.
const REGIONS: usize = 384;
const REGION_BYTES: usize = 256 << 10;
const MIB: f64 = (1 << 20) as f64;

/// Resident set of this process (`VmRSS`), in MiB.
fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS in /proc/self/status");
    kb / 1024.0
}

fn register(setup: u32) -> Vec<MemoryRegion> {
    (0..REGIONS as u32)
        .map(|i| MemoryRegion::new(REGION_BYTES, (setup << 16) + i))
        .collect()
}

fn fill(regions: &[MemoryRegion]) {
    let bytes = vec![0xa5; REGION_BYTES];
    for mr in regions {
        mr.write_local(0, &bytes);
    }
}

#[test]
fn dropped_setups_return_their_pages_and_fresh_ones_stay_unbacked() {
    let total_mib = (REGIONS * REGION_BYTES) as f64 / MIB;
    let baseline = rss_mib();

    // Two set-ups, every page written (as a long run's rings end up), each
    // dropped before the next is built.
    for setup in 0..2 {
        fill(&register(setup));
    }

    // The third set-up writes one cache line per region.
    let third = register(2);
    for mr in &third {
        mr.write_local(0, &[1u8; 64]);
    }
    let grown = rss_mib() - baseline;
    assert!(
        grown < 8.0,
        "after two dropped set-ups, {REGIONS} fresh regions ({total_mib:.0} MiB \
         registered) with one line written each hold {grown:.1} MiB resident"
    );

    // Fill the third set-up and drop it: its pages must leave too.
    fill(&third);
    drop(third);
    let kept = rss_mib() - baseline;
    assert!(
        kept < 8.0,
        "{kept:.1} MiB stayed resident after dropping {total_mib:.0} MiB of regions"
    );
}
