//! Per-client request trace generation.

use catfish_rtree::Rect;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::hotspot::SpatialHotspot;
use crate::scale::ScaleDist;

/// One R-tree request issued by a client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Request {
    /// Return all rectangles intersecting this one.
    Search(Rect),
    /// Insert this rectangle with the given payload.
    Insert(Rect, u64),
    /// Delete a previously inserted rectangle (always one this client
    /// inserted earlier in its own trace, so deletes never race other
    /// clients' items).
    Delete(Rect, u64),
}

impl Request {
    /// True for search requests.
    pub fn is_search(&self) -> bool {
        matches!(self, Request::Search(_))
    }
}

/// Builder for per-client request traces.
///
/// # Examples
///
/// ```
/// use catfish_workload::{ScaleDist, TraceSpec};
///
/// let spec = TraceSpec::search_only(ScaleDist::small(), 1_000);
/// let trace = spec.client_trace(0, 42);
/// assert_eq!(trace.len(), 1_000);
/// assert!(trace.iter().all(|r| r.is_search()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSpec {
    /// Scale distribution for search (and insert) rectangle edges.
    pub scale: ScaleDist,
    /// Requests per client.
    pub requests_per_client: usize,
    /// Fraction of insert requests (the paper uses 0.0 or 0.1).
    pub insert_fraction: f64,
    /// Fraction of delete requests (not evaluated in the paper; each
    /// delete targets an item this client inserted earlier, and is
    /// skipped — emitted as a search — while none is available).
    pub delete_fraction: f64,
    /// Optional spatial hotspot: when set, search-rectangle positions are
    /// drawn through it instead of uniformly, concentrating query load on
    /// a sub-region (and thus on one shard of a partitioned cluster).
    pub hotspot: Option<SpatialHotspot>,
}

impl TraceSpec {
    /// A 100 %-search workload (Figs. 10/11).
    pub fn search_only(scale: ScaleDist, requests_per_client: usize) -> Self {
        TraceSpec {
            scale,
            requests_per_client,
            insert_fraction: 0.0,
            delete_fraction: 0.0,
            hotspot: None,
        }
    }

    /// The paper's hybrid workload: 90 % search, 10 % insert (Figs. 12/13).
    pub fn hybrid(scale: ScaleDist, requests_per_client: usize) -> Self {
        TraceSpec {
            scale,
            requests_per_client,
            insert_fraction: 0.1,
            delete_fraction: 0.0,
            hotspot: None,
        }
    }

    /// A read/insert/delete mix (beyond the paper's evaluation).
    pub fn churn(
        scale: ScaleDist,
        requests_per_client: usize,
        insert_fraction: f64,
        delete_fraction: f64,
    ) -> Self {
        TraceSpec {
            scale,
            requests_per_client,
            insert_fraction,
            delete_fraction,
            hotspot: None,
        }
    }

    /// Returns a copy of this spec whose search positions are drawn
    /// through `hotspot` instead of uniformly.
    pub fn with_hotspot(mut self, hotspot: SpatialHotspot) -> Self {
        self.hotspot = Some(hotspot);
        self
    }

    /// Generates client `client_id`'s trace deterministically from `seed`.
    pub fn client_trace(&self, client_id: u64, seed: u64) -> Vec<Request> {
        let mut rng = StdRng::seed_from_u64(seed ^ client_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut live: Vec<(Rect, u64)> = Vec::new();
        (0..self.requests_per_client)
            .map(|i| {
                let roll: f64 = rng.gen();
                if roll < self.insert_fraction {
                    let rect = skewed_insert_rect(&mut rng, &self.scale);
                    // Payload ids unique per client.
                    let id = client_id << 32 | i as u64;
                    live.push((rect, id));
                    Request::Insert(rect, id)
                } else if roll < self.insert_fraction + self.delete_fraction && !live.is_empty() {
                    let pick = rng.gen_range(0..live.len());
                    let (rect, id) = live.swap_remove(pick);
                    Request::Delete(rect, id)
                } else {
                    Request::Search(match &self.hotspot {
                        Some(h) => hotspot_search_rect(&mut rng, &self.scale, h),
                        None => search_rect(&mut rng, &self.scale),
                    })
                }
            })
            .collect()
    }
}

/// A search rectangle: edges from the scale distribution, position uniform.
pub fn search_rect<R: Rng + ?Sized>(rng: &mut R, scale: &ScaleDist) -> Rect {
    let w = scale.sample_edge(rng);
    let h = scale.sample_edge(rng);
    let x = rng.gen::<f64>() * (1.0 - w).max(0.0);
    let y = rng.gen::<f64>() * (1.0 - h).max(0.0);
    Rect::new(x, y, x + w, y + h)
}

/// A search rectangle whose position is drawn through a
/// [`SpatialHotspot`] (edges still come from the scale distribution).
pub fn hotspot_search_rect<R: Rng + ?Sized>(
    rng: &mut R,
    scale: &ScaleDist,
    hotspot: &SpatialHotspot,
) -> Rect {
    let w = scale.sample_edge(rng);
    let h = scale.sample_edge(rng);
    let (x, y) = hotspot.place(rng, w, h);
    Rect::new(x, y, x + w, y + h)
}

/// A skewed insert rectangle per §V-B: coordinates drawn from a power law
/// on `(0.5, 1.0]` and mirrored uniformly into one of the four corners —
/// "the skewed insertion that mimics the geographical data updates more
/// often happening in city areas".
pub fn skewed_insert_rect<R: Rng + ?Sized>(rng: &mut R, scale: &ScaleDist) -> Rect {
    let coord_dist = ScaleDist::PowerLaw {
        min: 0.5,
        max: 1.0,
        exponent: 0.99,
    };
    let x = coord_dist.sample_edge(rng);
    let y = coord_dist.sample_edge(rng);
    let (x, y) = match rng.gen_range(0..4) {
        0 => (x, y),
        1 => (1.0 - x, y),
        2 => (x, 1.0 - y),
        _ => (1.0 - x, 1.0 - y),
    };
    let w = scale.sample_edge(rng).min(1.0);
    let h = scale.sample_edge(rng).min(1.0);
    let x0 = (x - w / 2.0).clamp(0.0, 1.0 - w);
    let y0 = (y - h / 2.0).clamp(0.0, 1.0 - h);
    Rect::new(x0, y0, x0 + w, y0 + h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_only_trace_has_no_inserts() {
        let spec = TraceSpec::search_only(ScaleDist::large(), 500);
        let trace = spec.client_trace(3, 1);
        assert_eq!(trace.len(), 500);
        assert!(trace.iter().all(Request::is_search));
    }

    #[test]
    fn hybrid_trace_has_about_ten_percent_inserts() {
        let spec = TraceSpec::hybrid(ScaleDist::small(), 10_000);
        let trace = spec.client_trace(0, 7);
        let inserts = trace.iter().filter(|r| !r.is_search()).count();
        let frac = inserts as f64 / trace.len() as f64;
        assert!((frac - 0.1).abs() < 0.02, "insert fraction {frac}");
    }

    #[test]
    fn traces_differ_across_clients_but_are_deterministic() {
        let spec = TraceSpec::search_only(ScaleDist::small(), 100);
        assert_eq!(spec.client_trace(1, 9), spec.client_trace(1, 9));
        assert_ne!(spec.client_trace(1, 9), spec.client_trace(2, 9));
    }

    #[test]
    fn insert_payloads_are_unique_across_clients() {
        let spec = TraceSpec::hybrid(ScaleDist::small(), 2_000);
        let mut ids = Vec::new();
        for c in 0..4u64 {
            for r in spec.client_trace(c, 5) {
                if let Request::Insert(_, id) = r {
                    ids.push(id);
                }
            }
        }
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn skewed_inserts_cluster_toward_center_lines() {
        // Coordinates are power-law on (0.5, 1.0] then mirrored, so the
        // distance of each coordinate from the 0.5 line is |t - 0.5| with
        // t ~ t^-0.99. Its mean is ≈ 0.221, vs 0.25 for a uniform draw.
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let mut total = 0.0;
        for _ in 0..n {
            let r = skewed_insert_rect(&mut rng, &ScaleDist::small());
            let (cx, cy) = r.center();
            total += (cx - 0.5).abs() + (cy - 0.5).abs();
        }
        let mean = total / (2 * n) as f64;
        assert!(
            mean < 0.235,
            "mean distance from center lines {mean}, expected < 0.235 (uniform = 0.25)"
        );
    }

    #[test]
    fn hotspot_spec_concentrates_searches() {
        let hot = SpatialHotspot::new(Rect::new(0.0, 0.0, 0.25, 1.0), 0.9);
        let spec = TraceSpec::search_only(ScaleDist::small(), 5_000).with_hotspot(hot);
        let trace = spec.client_trace(0, 31);
        let inside = trace
            .iter()
            .filter(|r| match r {
                Request::Search(rect) => rect.min_x() < 0.25,
                _ => false,
            })
            .count();
        let frac = inside as f64 / trace.len() as f64;
        assert!(frac > 0.85, "only {frac} of searches start in the hot slab");
        // The same spec without the hotspot spreads them uniformly.
        let base = TraceSpec::search_only(ScaleDist::small(), 5_000);
        let uniform_inside = base
            .client_trace(0, 31)
            .iter()
            .filter(|r| match r {
                Request::Search(rect) => rect.min_x() < 0.25,
                _ => false,
            })
            .count();
        assert!(uniform_inside as f64 / 5_000.0 < 0.35);
    }

    #[test]
    fn search_rects_stay_in_unit_square() {
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..1000 {
            let r = search_rect(&mut rng, &ScaleDist::large());
            assert!(r.min_x() >= 0.0 && r.max_x() <= 1.0 + 1e-9);
            assert!(r.min_y() >= 0.0 && r.max_y() <= 1.0 + 1e-9);
        }
    }
}

#[cfg(test)]
mod delete_tests {
    use super::*;

    #[test]
    fn churn_traces_delete_only_own_prior_inserts() {
        let spec = TraceSpec::churn(ScaleDist::small(), 5_000, 0.2, 0.1);
        let trace = spec.client_trace(3, 9);
        let mut live = std::collections::HashSet::new();
        let mut deletes = 0;
        for (i, r) in trace.iter().enumerate() {
            match r {
                Request::Insert(_, id) => {
                    assert!(live.insert(*id), "duplicate insert at {i}");
                }
                Request::Delete(_, id) => {
                    assert!(live.remove(id), "delete of non-live item at {i}");
                    deletes += 1;
                }
                Request::Search(_) => {}
            }
        }
        assert!(deletes > 300, "only {deletes} deletes generated");
    }

    #[test]
    fn hybrid_has_no_deletes() {
        let spec = TraceSpec::hybrid(ScaleDist::small(), 1_000);
        assert!(spec
            .client_trace(0, 1)
            .iter()
            .all(|r| !matches!(r, Request::Delete(..))));
    }
}
