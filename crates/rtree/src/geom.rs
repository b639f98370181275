//! 2-D axis-aligned geometry used by the R-tree.
//!
//! Coordinates are `f64`, matching the paper's representation of rectangles
//! as four double-precision values (`min(x)`, `max(x)`, `min(y)`, `max(y)`)
//! normalized into the unit square.

use std::fmt;

/// An axis-aligned rectangle (possibly degenerate: a point or segment).
///
/// Invariant: `min_x <= max_x`, `min_y <= max_y`, all coordinates finite.
///
/// # Examples
///
/// ```
/// use catfish_rtree::Rect;
///
/// let a = Rect::new(0.0, 0.0, 2.0, 2.0);
/// let b = Rect::new(1.0, 1.0, 3.0, 3.0);
/// assert!(a.intersects(&b));
/// assert_eq!(a.union(&b), Rect::new(0.0, 0.0, 3.0, 3.0));
/// assert_eq!(a.intersection_area(&b), 1.0);
/// ```
#[derive(Clone, Copy, PartialEq)]
pub struct Rect {
    min_x: f64,
    min_y: f64,
    max_x: f64,
    max_y: f64,
}

impl Rect {
    /// Creates a rectangle from its corner coordinates.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is not finite or if a `min` exceeds the
    /// corresponding `max`.
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        assert!(
            min_x.is_finite() && min_y.is_finite() && max_x.is_finite() && max_y.is_finite(),
            "rectangle coordinates must be finite"
        );
        assert!(
            min_x <= max_x && min_y <= max_y,
            "rectangle min must not exceed max: ({min_x},{min_y})-({max_x},{max_y})"
        );
        Rect {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// Builds a rectangle whose coordinates the caller has already checked
    /// against [`Rect::new`]'s conditions (finite, min not above max).
    #[inline]
    pub(crate) fn from_checked(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        debug_assert!(
            min_x.is_finite() && min_y.is_finite() && max_x.is_finite() && max_y.is_finite()
        );
        debug_assert!(min_x <= max_x && min_y <= max_y);
        Rect {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// A zero-area rectangle at a point.
    pub fn point(x: f64, y: f64) -> Self {
        Rect::new(x, y, x, y)
    }

    /// Creates a rectangle from a center point and edge lengths.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Rect::new`], or if an edge
    /// length is negative.
    pub fn centered(cx: f64, cy: f64, width: f64, height: f64) -> Self {
        assert!(
            width >= 0.0 && height >= 0.0,
            "edge lengths must be non-negative"
        );
        Rect::new(
            cx - width / 2.0,
            cy - height / 2.0,
            cx + width / 2.0,
            cy + height / 2.0,
        )
    }

    /// The lower x bound.
    pub fn min_x(&self) -> f64 {
        self.min_x
    }
    /// The lower y bound.
    pub fn min_y(&self) -> f64 {
        self.min_y
    }
    /// The upper x bound.
    pub fn max_x(&self) -> f64 {
        self.max_x
    }
    /// The upper y bound.
    pub fn max_y(&self) -> f64 {
        self.max_y
    }

    /// Width along x.
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Height along y.
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// The center point `(x, y)`.
    pub fn center(&self) -> (f64, f64) {
        (
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )
    }

    /// Area (zero for degenerate rectangles).
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Perimeter half-sum (the R*-tree "margin"): `width + height`.
    pub fn margin(&self) -> f64 {
        self.width() + self.height()
    }

    /// True if the rectangles share any point (closed-interval semantics:
    /// touching edges count as intersecting, as in Guttman's R-tree).
    ///
    /// The four comparisons are combined with non-short-circuiting `&` so
    /// the compiler emits straight-line compare/and code it can
    /// autovectorize when this is called in a lane scan (see
    /// [`crate::codec::LaneNode::window_hits`]). Semantics are identical to
    /// `&&`: a comparison against NaN is `false`, never a side effect.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        (self.min_x <= other.max_x)
            & (other.min_x <= self.max_x)
            & (self.min_y <= other.max_y)
            & (other.min_y <= self.max_y)
    }

    /// True if `other` lies entirely inside `self` (closed intervals).
    ///
    /// Branchless for the same reason as [`Rect::intersects`].
    #[inline]
    pub fn contains(&self, other: &Rect) -> bool {
        (self.min_x <= other.min_x)
            & (self.min_y <= other.min_y)
            & (self.max_x >= other.max_x)
            & (self.max_y >= other.max_y)
    }

    /// The smallest rectangle enclosing both.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }

    /// The overlap region, if the rectangles intersect.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            min_x: self.min_x.max(other.min_x),
            min_y: self.min_y.max(other.min_y),
            max_x: self.max_x.min(other.max_x),
            max_y: self.max_y.min(other.max_y),
        })
    }

    /// Area of the overlap region (zero if disjoint).
    pub fn intersection_area(&self, other: &Rect) -> f64 {
        let w = (self.max_x.min(other.max_x) - self.min_x.max(other.min_x)).max(0.0);
        let h = (self.max_y.min(other.max_y) - self.min_y.max(other.min_y)).max(0.0);
        w * h
    }

    /// How much this rectangle's area grows if extended to cover `other`.
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Squared distance between the centers of two rectangles.
    pub fn center_distance_sq(&self, other: &Rect) -> f64 {
        let (ax, ay) = self.center();
        let (bx, by) = other.center();
        (ax - bx) * (ax - bx) + (ay - by) * (ay - by)
    }

    /// The smallest rectangle enclosing every rectangle in `rects`.
    ///
    /// Returns `None` for an empty iterator.
    pub fn union_all<'a, I: IntoIterator<Item = &'a Rect>>(rects: I) -> Option<Rect> {
        let mut it = rects.into_iter();
        let first = *it.next()?;
        Some(it.fold(first, |acc, r| acc.union(r)))
    }
}

impl fmt::Debug for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Rect[({}, {})..({}, {})]",
            self.min_x, self.min_y, self.max_x, self.max_y
        )
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_and_margin() {
        let r = Rect::new(0.0, 0.0, 2.0, 3.0);
        assert_eq!(r.area(), 6.0);
        assert_eq!(r.margin(), 5.0);
        assert_eq!(r.center(), (1.0, 1.5));
    }

    #[test]
    fn point_is_degenerate() {
        let p = Rect::point(1.0, 2.0);
        assert_eq!(p.area(), 0.0);
        assert!(p.intersects(&p));
    }

    #[test]
    fn centered_constructor() {
        let r = Rect::centered(0.5, 0.5, 0.2, 0.4);
        assert!((r.min_x() - 0.4).abs() < 1e-12);
        assert!((r.max_y() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn intersects_is_symmetric_and_closed() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(1.0, 1.0, 2.0, 2.0); // touches at a corner
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        let c = Rect::new(1.1, 1.1, 2.0, 2.0);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn contains_requires_full_coverage() {
        let outer = Rect::new(0.0, 0.0, 10.0, 10.0);
        let inner = Rect::new(1.0, 1.0, 2.0, 2.0);
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
        assert!(outer.contains(&outer));
    }

    #[test]
    fn union_and_enlargement() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(2.0, 2.0, 3.0, 3.0);
        assert_eq!(a.union(&b), Rect::new(0.0, 0.0, 3.0, 3.0));
        assert_eq!(a.enlargement(&b), 8.0);
        assert_eq!(a.enlargement(&a), 0.0);
    }

    #[test]
    fn intersection_area_disjoint_is_zero() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(5.0, 5.0, 6.0, 6.0);
        assert_eq!(a.intersection_area(&b), 0.0);
        assert_eq!(a.intersection_area(&a), 1.0);
    }

    #[test]
    fn union_all_folds() {
        let rs = [
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(4.0, -1.0, 5.0, 0.5),
        ];
        assert_eq!(
            Rect::union_all(rs.iter()),
            Some(Rect::new(0.0, -1.0, 5.0, 1.0))
        );
        assert_eq!(Rect::union_all([].iter()), None);
    }

    #[test]
    #[should_panic(expected = "min must not exceed max")]
    fn inverted_rect_rejected() {
        let _ = Rect::new(1.0, 0.0, 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        let _ = Rect::new(f64::NAN, 0.0, 1.0, 1.0);
    }

    #[test]
    fn intersection_region() {
        let a = Rect::new(0.0, 0.0, 2.0, 2.0);
        let b = Rect::new(1.0, 1.0, 3.0, 3.0);
        assert_eq!(a.intersection(&b), Some(Rect::new(1.0, 1.0, 2.0, 2.0)));
        let c = Rect::new(5.0, 5.0, 6.0, 6.0);
        assert_eq!(a.intersection(&c), None);
        // Touching edges intersect in a degenerate rectangle.
        let d = Rect::new(2.0, 0.0, 3.0, 2.0);
        assert_eq!(a.intersection(&d), Some(Rect::new(2.0, 0.0, 2.0, 2.0)));
    }

    #[test]
    fn center_distance() {
        let a = Rect::new(0.0, 0.0, 2.0, 2.0); // center (1,1)
        let b = Rect::new(3.0, 4.0, 5.0, 6.0); // center (4,5)
        assert_eq!(a.center_distance_sq(&b), 9.0 + 16.0);
    }
}
