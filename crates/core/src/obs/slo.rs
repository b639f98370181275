//! Declared service-level objectives evaluated as burn rates.
//!
//! A bench run's pass/fail criterion used to be an ad-hoc `assert!` per
//! bin. [`SloSpec`] makes the objective declarative — a latency quantile
//! bound, a throughput floor, an error budget — parsed from a compact
//! `--slo` string like `p99=500us,p50=100us,kops=50,budget=0.01`.
//! Evaluation against the run's [`LatencyHistogram`] and counters yields
//! an [`SloReport`] of per-objective **burn rates**: the ratio of
//! observed badness to allowed badness, where `burn <= 1` means the
//! objective holds. For a `p99 = 500µs` objective the allowed badness is
//! the 1% of requests permitted above the threshold, so
//! `burn = fraction_above(500µs) / 0.01`; a burn of 3.0 reads as "eating
//! the tail budget three times faster than allowed", which ranks
//! regressions by severity instead of a bare boolean.
//!
//! Bench bins turn a failing report into a nonzero exit status, making
//! BENCH_* baselines machine-checkable regression gates in CI.

use std::fmt;

use catfish_simnet::SimDuration;

use super::hist::LatencyHistogram;

/// A declared set of objectives for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SloSpec {
    /// Median latency bound.
    pub p50: Option<SimDuration>,
    /// Tail (99th percentile) latency bound.
    pub p99: Option<SimDuration>,
    /// Throughput floor, in thousands of operations per second.
    pub min_kops: Option<f64>,
    /// Fraction of requests allowed to time out (error budget).
    pub error_budget: Option<f64>,
}

/// Parses a duration literal: integer + `ns`/`us`/`ms`/`s` suffix.
fn parse_duration(s: &str) -> Result<SimDuration, String> {
    let (num, mult) = if let Some(v) = s.strip_suffix("ns") {
        (v, 1u64)
    } else if let Some(v) = s.strip_suffix("us") {
        (v, 1_000)
    } else if let Some(v) = s.strip_suffix("ms") {
        (v, 1_000_000)
    } else if let Some(v) = s.strip_suffix('s') {
        (v, 1_000_000_000)
    } else {
        return Err(format!("duration `{s}` needs a ns/us/ms/s suffix"));
    };
    let n: u64 = num
        .parse()
        .map_err(|_| format!("bad duration value `{s}`"))?;
    Ok(SimDuration::from_nanos(n * mult))
}

impl SloSpec {
    /// Parses the `--slo` flag syntax: comma-separated `key=value` pairs
    /// with keys `p50`, `p99` (durations), `kops` (float floor), `budget`
    /// (float fraction).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending pair.
    pub fn parse(s: &str) -> Result<SloSpec, String> {
        let mut spec = SloSpec::default();
        for pair in s.split(',').filter(|p| !p.is_empty()) {
            let (key, val) = pair
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got `{pair}`"))?;
            match key.trim() {
                "p50" => spec.p50 = Some(parse_duration(val.trim())?),
                "p99" => spec.p99 = Some(parse_duration(val.trim())?),
                "kops" => {
                    spec.min_kops = Some(
                        val.trim()
                            .parse()
                            .map_err(|_| format!("bad kops value `{val}`"))?,
                    )
                }
                "budget" => {
                    let b: f64 = val
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad budget value `{val}`"))?;
                    if !(0.0..=1.0).contains(&b) {
                        return Err(format!("budget `{val}` must be in [0, 1]"));
                    }
                    spec.error_budget = Some(b);
                }
                other => return Err(format!("unknown SLO key `{other}`")),
            }
        }
        if spec == SloSpec::default() {
            return Err("empty SLO spec".into());
        }
        Ok(spec)
    }

    /// True if no objective is declared.
    pub fn is_empty(&self) -> bool {
        *self == SloSpec::default()
    }

    /// Evaluates the objectives against a run: the end-to-end latency
    /// histogram, achieved throughput in kops, and the error counters.
    pub fn evaluate(
        &self,
        latency: &LatencyHistogram,
        kops: f64,
        errors: u64,
        requests: u64,
    ) -> SloReport {
        let mut objectives = Vec::new();
        for (q, bound) in [(0.50, self.p50), (0.99, self.p99)] {
            let Some(t) = bound else { continue };
            // Allowed badness: the (1 - q) of requests permitted above t.
            let allowed = 1.0 - q;
            let actual = latency.fraction_above(t);
            objectives.push(SloObjective {
                name: format!("p{:02}<={}ns", (q * 100.0) as u32, t.as_nanos()),
                burn: actual / allowed,
                detail: format!(
                    "{:.4}% of requests above threshold (allowed {:.2}%), observed p{:02} {}ns",
                    actual * 100.0,
                    allowed * 100.0,
                    (q * 100.0) as u32,
                    latency.quantile(q).as_nanos()
                ),
            });
        }
        if let Some(floor) = self.min_kops {
            let burn = if kops > 0.0 {
                floor / kops
            } else {
                f64::INFINITY
            };
            objectives.push(SloObjective {
                name: format!("kops>={floor}"),
                burn,
                detail: format!("achieved {kops:.1} kops"),
            });
        }
        if let Some(budget) = self.error_budget {
            let rate = if requests > 0 {
                errors as f64 / requests as f64
            } else {
                0.0
            };
            let burn = if budget > 0.0 {
                rate / budget
            } else if rate > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
            objectives.push(SloObjective {
                name: format!("errors<={budget}"),
                burn,
                detail: format!(
                    "{errors}/{requests} requests errored ({:.4}%)",
                    rate * 100.0
                ),
            });
        }
        SloReport { objectives }
    }
}

/// One evaluated objective.
#[derive(Debug, Clone)]
pub struct SloObjective {
    /// Objective label, e.g. `p99<=500000ns`.
    pub name: String,
    /// Observed badness / allowed badness; `<= 1` means the objective
    /// holds, `> 1` quantifies how badly it is violated.
    pub burn: f64,
    /// Human-readable evidence line.
    pub detail: String,
}

impl SloObjective {
    /// True if the objective holds.
    pub fn ok(&self) -> bool {
        self.burn <= 1.0
    }
}

/// The evaluated report: one row per declared objective.
#[derive(Debug, Clone, Default)]
pub struct SloReport {
    /// Evaluated objectives, in declaration order.
    pub objectives: Vec<SloObjective>,
}

impl SloReport {
    /// True if every objective holds.
    pub fn ok(&self) -> bool {
        self.objectives.iter().all(SloObjective::ok)
    }
}

impl fmt::Display for SloReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for o in &self.objectives {
            writeln!(
                f,
                "slo {} {} burn {:.3} — {}",
                if o.ok() { "OK  " } else { "FAIL" },
                o.name,
                o.burn,
                o.detail
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_hist() -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(SimDuration::from_micros(i));
        }
        h
    }

    #[test]
    fn parse_round_trips_all_keys() {
        let spec = SloSpec::parse("p99=500us,p50=100us,kops=50,budget=0.01").unwrap();
        assert_eq!(spec.p99, Some(SimDuration::from_micros(500)));
        assert_eq!(spec.p50, Some(SimDuration::from_micros(100)));
        assert_eq!(spec.min_kops, Some(50.0));
        assert_eq!(spec.error_budget, Some(0.01));
        assert_eq!(
            SloSpec::parse("p99=2ms").unwrap().p99,
            Some(SimDuration::from_millis(2))
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(SloSpec::parse("").is_err());
        assert!(SloSpec::parse("p99=500").is_err()); // no suffix
        assert!(SloSpec::parse("p75=1ms").is_err()); // unknown key
        assert!(SloSpec::parse("budget=1.5").is_err()); // out of range
        assert!(SloSpec::parse("kops").is_err()); // no value
    }

    #[test]
    fn latency_burn_scales_with_tail_mass() {
        let h = uniform_hist();
        // p99 bound at 2ms: nothing above → burn 0, holds.
        let spec = SloSpec::parse("p99=2ms").unwrap();
        let rep = spec.evaluate(&h, 100.0, 0, 1000);
        assert!(rep.ok(), "{rep}");
        assert_eq!(rep.objectives[0].burn, 0.0);
        // p99 bound at 500µs: ~50% above vs 1% allowed → burn ~50.
        let spec = SloSpec::parse("p99=500us").unwrap();
        let rep = spec.evaluate(&h, 100.0, 0, 1000);
        assert!(!rep.ok());
        let burn = rep.objectives[0].burn;
        assert!(burn > 10.0, "burn {burn}");
    }

    #[test]
    fn throughput_and_error_objectives() {
        let h = uniform_hist();
        let spec = SloSpec::parse("kops=50,budget=0.01").unwrap();
        // Meets both: 80 kops, 0 errors.
        assert!(spec.evaluate(&h, 80.0, 0, 10_000).ok());
        // Throughput floor violated: burn = 50/25 = 2.
        let rep = spec.evaluate(&h, 25.0, 0, 10_000);
        assert!(!rep.ok());
        assert!((rep.objectives[0].burn - 2.0).abs() < 1e-9);
        // Error budget violated: 5% errors vs 1% budget → burn 5.
        let rep = spec.evaluate(&h, 80.0, 500, 10_000);
        assert!(!rep.ok());
        assert!((rep.objectives[1].burn - 5.0).abs() < 1e-9);
        // Zero throughput is an infinite burn, not a divide-by-zero panic.
        assert!(spec.evaluate(&h, 0.0, 0, 0).objectives[0]
            .burn
            .is_infinite());
    }

    #[test]
    fn report_display_names_failures() {
        let h = uniform_hist();
        let spec = SloSpec::parse("p99=500us,kops=50").unwrap();
        let text = spec.evaluate(&h, 80.0, 0, 1000).to_string();
        assert!(text.contains("FAIL"), "{text}");
        assert!(text.contains("OK"), "{text}");
        assert!(text.contains("burn"), "{text}");
    }
}
