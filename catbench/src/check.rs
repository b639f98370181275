//! Result checking against a local reference tree.
//!
//! Each search is recorded as a fingerprint — the result count and the XOR
//! of the mixed result ids — and compared after the timed phase against a
//! `bulk_load(MemStore)` reference over the same preloaded dataset. Under
//! concurrent inserts a search may also return items clients inserted:
//! every preloaded match must still be returned, and the extras must be a
//! subset of the inserted items that intersect the window.

use catfish_rtree::{bulk_load, MemStore, RTree, RTreeConfig, Rect};
use catfish_workload::Request;

use crate::run::OpRecord;

/// Largest candidate set [`explains`] can verify: up to 48 mixed ids are
/// linearly independent over GF(2) with probability above 1 − 2⁻¹⁶, which
/// makes the subset it finds unique. A search with more inserted items
/// inside its window counts as a failure.
const MAX_CANDIDATES: usize = 48;

/// SplitMix64 finalizer: spreads dense ids over the whole `u64` range so
/// an XOR of a few of them is unlikely to collide with another set's.
fn mix(id: u64) -> u64 {
    let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `(count, xor of mixed ids)` of a result set.
pub fn fingerprint(ids: &[u64]) -> (u32, u64) {
    let count = u32::try_from(ids.len()).expect("result count fits u32");
    (count, ids.iter().fold(0, |acc, &id| acc ^ mix(id)))
}

/// True when `got` equals `expected` plus some subset of `candidates`.
///
/// The subset whose mixed ids XOR to the fingerprint difference is found
/// by Gaussian elimination over GF(2); with independent candidates it is
/// the only one, so it must also have the right size.
pub fn explains(got: (u32, u64), expected: (u32, u64), candidates: &[u64]) -> bool {
    let Some(need) = got.0.checked_sub(expected.0) else {
        return false;
    };
    if candidates.len() > MAX_CANDIDATES {
        return false;
    }
    // basis[b]: a combination of candidates (value, member mask) whose
    // highest set bit is b.
    let mut basis = [(0u64, 0u64); 64];
    let reduce = |basis: &[(u64, u64); 64], mut v: u64, mut mask: u64| {
        while v != 0 {
            let (bv, bm) = basis[63 - v.leading_zeros() as usize];
            if bv == 0 {
                break;
            }
            v ^= bv;
            mask ^= bm;
        }
        (v, mask)
    };
    for (i, &id) in candidates.iter().enumerate() {
        let (v, mask) = reduce(&basis, mix(id), 1 << i);
        if v == 0 {
            return false; // dependent candidates: the subset is ambiguous
        }
        basis[63 - v.leading_zeros() as usize] = (v, mask);
    }
    let (rest, subset) = reduce(&basis, got.1 ^ expected.1, 0);
    rest == 0 && subset.count_ones() == need
}

/// The reference answers for one workload's preloaded dataset.
#[derive(Debug)]
pub struct Reference {
    cfg: RTreeConfig,
    preload: RTree<MemStore>,
}

impl Reference {
    pub fn new(cfg: RTreeConfig, dataset: Vec<(Rect, u64)>) -> Self {
        Reference {
            cfg,
            preload: bulk_load(MemStore::new(), cfg, dataset),
        }
    }

    /// Counts the operations of one repetition that failed or returned a
    /// wrong result. `ops[c]` holds the records of the requests client `c`
    /// ran: a prefix of `traces[c]`.
    pub fn failures(&self, traces: &[Vec<Request>], ops: &[Vec<OpRecord>]) -> u64 {
        // Items any client inserted during the run: the legal extras.
        let inserted: Vec<(Rect, u64)> = traces
            .iter()
            .zip(ops)
            .flat_map(|(t, recs)| &t[..recs.len()])
            .filter_map(|r| match *r {
                Request::Insert(rect, id) => Some((rect, id)),
                _ => None,
            })
            .collect();
        let inserted = bulk_load(MemStore::new(), self.cfg, inserted);
        let mut failed = 0;
        for (trace, recs) in traces.iter().zip(ops) {
            for (req, rec) in trace.iter().zip(recs) {
                let ok = match req {
                    Request::Search(window) => explains(
                        (rec.count, rec.xor),
                        fingerprint(&self.preload.search(window)),
                        &inserted.search(window),
                    ),
                    Request::Insert(..) | Request::Delete(..) => rec.ok,
                };
                failed += u64::from(!ok);
            }
        }
        failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: u64) -> Vec<(Rect, u64)> {
        (0..n)
            .map(|i| {
                let x = (i % 50) as f64 / 50.0;
                let y = (i / 50) as f64 / 50.0;
                (Rect::new(x, y, x + 0.01, y + 0.01), i)
            })
            .collect()
    }

    fn window() -> Rect {
        Rect::new(0.1, 0.1, 0.2, 0.2)
    }

    fn reference() -> Reference {
        Reference::new(RTreeConfig::default(), grid(2_500))
    }

    fn truth(r: &Reference) -> Vec<u64> {
        r.preload.search(&window())
    }

    const ACKED: OpRecord = OpRecord {
        start_ns: 0,
        latency_ns: 1,
        count: 0,
        xor: 0,
        ok: true,
    };

    /// Whether a search of `window()` that returned `ids` passes, in a run
    /// whose one client first inserted `inserts` and then searched.
    fn search_passes(r: &Reference, inserts: &[(Rect, u64)], ids: &[u64]) -> bool {
        let mut trace: Vec<Request> = inserts
            .iter()
            .map(|&(rect, id)| Request::Insert(rect, id))
            .collect();
        trace.push(Request::Search(window()));
        // Requests after the deadline never ran: their items are no excuse.
        trace.push(Request::Insert(window(), 1 << 42));
        let (count, xor) = fingerprint(ids);
        let mut recs = vec![ACKED; inserts.len()];
        recs.push(OpRecord {
            count,
            xor,
            ..ACKED
        });
        r.failures(&[trace], &[recs]) == 0
    }

    #[test]
    fn correct_result_passes() {
        let r = reference();
        let ids = truth(&r);
        assert!(ids.len() > 4);
        assert!(search_passes(&r, &[], &ids));
    }

    #[test]
    fn missing_wrong_or_duplicated_id_is_caught() {
        let r = reference();
        let ids = truth(&r);
        assert!(!search_passes(&r, &[], &ids[1..]));
        let mut swapped = ids.clone();
        swapped[0] = 999_999;
        assert!(!search_passes(&r, &[], &swapped));
        let mut extra = ids.clone();
        extra.push(999_999);
        assert!(!search_passes(&r, &[], &extra));
        let mut dup = ids.clone();
        dup.push(ids[0]);
        assert!(!search_passes(&r, &[], &dup));
        assert!(!search_passes(&r, &[], &[]));
    }

    #[test]
    fn inserted_extras_pass_only_when_inserted_in_the_window() {
        let inside = (Rect::new(0.15, 0.15, 0.151, 0.151), 1 << 40);
        let outside = (Rect::new(0.9, 0.9, 0.901, 0.901), (1 << 40) + 1);
        let inserts = [inside, outside];
        let r = reference();
        let ids = truth(&r);
        let mut with_inside = ids.clone();
        with_inside.push(inside.1);
        assert!(search_passes(&r, &inserts, &with_inside));
        // The search may be served before the insert is visible.
        assert!(search_passes(&r, &inserts, &ids));
        let mut with_outside = ids.clone();
        with_outside.push(outside.1);
        assert!(!search_passes(&r, &inserts, &with_outside));
        // An inserted extra does not excuse a missing preloaded match.
        with_inside.remove(0);
        assert!(!search_passes(&r, &inserts, &with_inside));
        // Nor does an insert that never ran.
        let mut never_ran = ids.clone();
        never_ran.push(1 << 42);
        assert!(!search_passes(&r, &inserts, &never_ran));
    }

    #[test]
    fn explains_finds_the_one_subset_among_many_candidates() {
        let candidates: Vec<u64> = (100..140).collect();
        let base = fingerprint(&[1, 2, 3]);
        let got = fingerprint(&[1, 2, 3, 105, 117, 139]);
        assert!(explains(got, base, &candidates));
        assert!(!explains((got.0 + 1, got.1), base, &candidates));
        assert!(!explains(
            fingerprint(&[1, 2, 3, 105, 999]),
            base,
            &candidates
        ));
        assert!(!explains(fingerprint(&[1, 2]), base, &candidates));
    }

    #[test]
    fn unacked_writes_fail() {
        let r = reference();
        let trace = vec![Request::Insert(window(), 1 << 41)];
        assert_eq!(r.failures(std::slice::from_ref(&trace), &[vec![ACKED]]), 0);
        let unacked = OpRecord { ok: false, ..ACKED };
        assert_eq!(r.failures(&[trace], &[vec![unacked]]), 1);
    }
}
