//! Exact nearest-rank quantiles over recorded per-op latencies.

/// One quantile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    pub value_ns: u64,
    /// Samples the quantile was taken from.
    pub samples: usize,
    /// Samples strictly beyond the quantile's rank.
    pub beyond: usize,
}

/// Fewest samples that must lie beyond a reported quantile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p` quantile of `sorted` (ascending): the value at
/// rank `ceil(p * n)`. `None` for an empty set.
pub fn nearest_rank(sorted: &[u64], p: f64) -> Option<Quantile> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(Quantile {
        value_ns: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let v: Vec<u64> = (1..=1000).collect();
        let p50 = nearest_rank(&v, 0.5).unwrap();
        assert_eq!((p50.value_ns, p50.beyond), (500, 500));
        let p999 = nearest_rank(&v, 0.999).unwrap();
        assert_eq!((p999.value_ns, p999.beyond), (999, 1));
        assert_eq!(nearest_rank(&v, 1.0).unwrap().value_ns, 1000);
        assert_eq!(nearest_rank(&[7], 0.5).unwrap().value_ns, 7);
        assert!(nearest_rank(&[], 0.5).is_none());
    }
}
