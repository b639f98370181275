//! [`SpatialHotspot`]: skewed query placement, used to drive skewed load
//! onto one shard of a partitioned cluster.

use catfish_rtree::Rect;
use rand::Rng;

/// A spatial query hotspot: a sub-region of the unit square that attracts
/// a fixed fraction of all query positions, with the remainder placed
/// uniformly. This is the spatial analogue of Zipfian key popularity, and
/// is what makes one shard of a space-partitioned cluster "hot" while its
/// siblings stay cold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpatialHotspot {
    /// The hot sub-region (in unit-square coordinates).
    pub region: Rect,
    /// Fraction of query positions drawn from inside `region`.
    pub hot_fraction: f64,
}

impl SpatialHotspot {
    /// Creates a hotspot that attracts `hot_fraction` of query positions.
    ///
    /// # Panics
    ///
    /// Panics if `hot_fraction` is not in `[0, 1]`.
    pub fn new(region: Rect, hot_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&hot_fraction),
            "hot_fraction must be in [0, 1], got {hot_fraction}"
        );
        SpatialHotspot {
            region,
            hot_fraction,
        }
    }

    /// Places the lower-left corner of a `w`×`h` query rectangle: inside
    /// the hot region with probability `hot_fraction`, else uniformly in
    /// the unit square. The rectangle is kept inside the unit square even
    /// when it is larger than the hot region.
    pub fn place<R: Rng + ?Sized>(&self, rng: &mut R, w: f64, h: f64) -> (f64, f64) {
        let (lo_x, span_x, lo_y, span_y) = if rng.gen::<f64>() < self.hot_fraction {
            let span_x = (self.region.max_x() - self.region.min_x() - w).max(0.0);
            let span_y = (self.region.max_y() - self.region.min_y() - h).max(0.0);
            (
                self.region.min_x().min(1.0 - w),
                span_x,
                self.region.min_y().min(1.0 - h),
                span_y,
            )
        } else {
            (0.0, (1.0 - w).max(0.0), 0.0, (1.0 - h).max(0.0))
        };
        (
            (lo_x + rng.gen::<f64>() * span_x).max(0.0),
            (lo_y + rng.gen::<f64>() * span_y).max(0.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn hotspot_concentrates_positions_in_region() {
        let hot = SpatialHotspot::new(Rect::new(0.0, 0.0, 0.25, 1.0), 0.8);
        let mut rng = StdRng::seed_from_u64(21);
        let n = 20_000;
        let mut inside = 0;
        for _ in 0..n {
            let (x, _) = hot.place(&mut rng, 0.01, 0.01);
            if x < 0.25 {
                inside += 1;
            }
        }
        // 80 % land in the hot region directly, plus 25 % of the uniform
        // remainder: expect ≈ 85 %.
        let frac = inside as f64 / n as f64;
        assert!(frac > 0.8, "only {frac} of positions in the hot region");
    }

    #[test]
    fn hotspot_keeps_rects_in_unit_square() {
        let hot = SpatialHotspot::new(Rect::new(0.9, 0.9, 1.0, 1.0), 1.0);
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..1000 {
            // Query larger than the hot region itself.
            let (x, y) = hot.place(&mut rng, 0.3, 0.3);
            assert!(x >= 0.0 && x + 0.3 <= 1.0 + 1e-9, "x {x}");
            assert!(y >= 0.0 && y + 0.3 <= 1.0 + 1e-9, "y {y}");
        }
    }

    #[test]
    #[should_panic(expected = "hot_fraction")]
    fn bad_hot_fraction_rejected() {
        let _ = SpatialHotspot::new(Rect::new(0.0, 0.0, 1.0, 1.0), 1.5);
    }
}
