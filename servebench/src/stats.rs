//! Exact-sample latency statistics and failure accounting.
//!
//! Every latency is kept as one `u64` nanosecond sample; percentiles are
//! read off the sorted samples by nearest rank. Nothing here is bucketed,
//! so two regimes that differ by a few percent print different numbers.

/// A percentile is only reported when at least this many samples lie
/// strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// Percentiles in basis points (`9900` = p99).
pub const P50: u64 = 5_000;
pub const P90: u64 = 9_000;
pub const P99: u64 = 9_900;

/// Candidate tail percentiles, highest first, for [`highest_supported`].
pub const TAIL_LADDER: [u64; 5] = [9_999, 9_990, 9_900, 9_000, 5_000];

/// 1-based nearest rank of percentile `bp` (basis points) among `n`
/// samples: the smallest rank `r` with `r / n ≥ bp / 10000`.
pub fn rank(n: usize, bp: u64) -> usize {
    let r = (bp as u128 * n as u128).div_ceil(10_000) as usize;
    r.clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank percentile `bp`.
pub fn beyond(n: usize, bp: u64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, bp)
}

/// Whether `n` samples support reporting percentile `bp`.
pub fn supports(n: usize, bp: u64) -> bool {
    beyond(n, bp) >= MIN_BEYOND
}

/// The highest percentile of [`TAIL_LADDER`] that `n` samples support.
pub fn highest_supported(n: usize) -> Option<u64> {
    TAIL_LADDER.iter().copied().find(|&bp| supports(n, bp))
}

/// Formats basis points as a percentile label (`9900` → `p99`).
pub fn label(bp: u64) -> String {
    let whole = bp / 100;
    let frac = bp % 100;
    if frac == 0 {
        format!("p{whole}")
    } else if frac.is_multiple_of(10) {
        format!("p{whole}.{}", frac / 10)
    } else {
        format!("p{whole}.{frac:02}")
    }
}

/// Exact latency samples in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Samples {
        Samples {
            ns: Vec::with_capacity(n),
            sorted: true,
        }
    }

    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile `bp` in nanoseconds, or `None` when fewer
    /// than [`MIN_BEYOND`] samples lie beyond it (the median needs only
    /// one sample).
    pub fn percentile_ns(&mut self, bp: u64) -> Option<u64> {
        let n = self.ns.len();
        if n == 0 || (bp > P50 && !supports(n, bp)) {
            return None;
        }
        self.sort();
        self.ns.get(rank(n, bp) - 1).copied()
    }

    /// [`Samples::percentile_ns`] in microseconds.
    pub fn percentile_us(&mut self, bp: u64) -> Option<f64> {
        self.percentile_ns(bp).map(|ns| ns as f64 / 1e3)
    }
}

/// Median of a small set of measurements (e.g. repeated set-up times).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// One open-loop request's timeline, in nanoseconds from the run start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timeline {
    /// When the schedule said the request should be sent.
    pub due: u64,
    /// When the generator actually began sending it.
    pub sent: u64,
    /// When its (last) response had been received and decoded.
    pub done: u64,
}

impl Timeline {
    /// Latency as the user sees it: from the due time, so a stalled
    /// generator or server also charges the requests queued behind it.
    pub fn latency(&self) -> u64 {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent the request.
    pub fn lag(&self) -> u64 {
        self.sent.saturating_sub(self.due)
    }
}

/// Outcome counters of one run. Every attempted unit ends in exactly one
/// of `ok`, `errors`, `busy`, `timeouts` or `budget_rejects`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    pub attempted: u64,
    pub ok: u64,
    /// Typed error responses other than budget rejects, and transport
    /// faults.
    pub errors: u64,
    /// `BUSY` sheds.
    pub busy: u64,
    /// Requests with no answer by the drain deadline.
    pub timeouts: u64,
    /// Commits refused for an exhausted buyer budget.
    pub budget_rejects: u64,
}

impl Outcomes {
    pub fn failed(&self) -> u64 {
        self.errors + self.busy + self.timeouts + self.budget_rejects
    }

    /// Failed over attempted: a refused request counts as a miss.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed() as f64 / self.attempted as f64
    }
}

/// Longest interval inside `[start, end]` in which nothing completed.
/// `completions` need not be sorted.
pub fn max_gap(completions: &[u64], start: u64, end: u64) -> u64 {
    let mut t: Vec<u64> = completions
        .iter()
        .copied()
        .filter(|&c| c >= start && c <= end)
        .collect();
    t.sort_unstable();
    let mut prev = start;
    let mut gap = 0;
    for c in t {
        gap = gap.max(c - prev);
        prev = c;
    }
    gap.max(end.saturating_sub(prev))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_is_nearest_rank_in_integer_arithmetic() {
        assert_eq!(rank(1000, P99), 990);
        assert_eq!(rank(100, P50), 50);
        assert_eq!(rank(101, P50), 51);
        assert_eq!(rank(1, P99), 1);
        // 0.99 is not exact in binary; basis points keep the rank exact.
        assert_eq!(rank(100_000, P99), 99_000);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, P99), 10);
        assert!(supports(1000, P99));
        assert!(!supports(999, P99));
        assert_eq!(highest_supported(999), Some(9_000));
        assert_eq!(highest_supported(1000), Some(9_900));
        assert_eq!(highest_supported(10_000), Some(9_990));
        assert_eq!(highest_supported(100_000), Some(9_999));
        assert_eq!(highest_supported(10), None);
        assert_eq!(highest_supported(20), Some(5_000));
    }

    #[test]
    fn unsupported_tails_are_withheld() {
        let mut s = Samples::with_capacity(999);
        for i in 0..999 {
            s.push(i);
        }
        assert_eq!(s.percentile_ns(P99), None);
        s.push(999);
        // 1000 samples 0..=999: rank 990 holds 989, ten samples beyond.
        assert_eq!(s.percentile_ns(P99), Some(989));
        assert_eq!(s.percentile_ns(P50), Some(499));
    }

    #[test]
    fn percentiles_read_exact_samples_not_buckets() {
        let mut a = Samples::with_capacity(2000);
        let mut b = Samples::with_capacity(2000);
        for i in 0..2000u64 {
            a.push(100_000 + i);
            b.push(120_000 + i);
        }
        // A power-of-two histogram would put both medians in the
        // 65.5–131 µs bucket; exact samples tell them apart.
        assert_eq!(a.percentile_us(P50), Some(100.999));
        assert_eq!(b.percentile_us(P50), Some(120.999));
    }

    #[test]
    fn latency_runs_from_the_due_time() {
        let t = Timeline {
            due: 1_000,
            sent: 101_000,
            done: 121_000,
        };
        // Sent 100 µs late, answered 20 µs after sending: the user waited
        // 120 µs.
        assert_eq!(t.latency(), 120_000);
        assert_eq!(t.lag(), 100_000);
        let early = Timeline {
            due: 5,
            sent: 5,
            done: 4,
        };
        assert_eq!(early.latency(), 0);
    }

    #[test]
    fn fail_ratio_counts_every_refusal_against_attempts() {
        let o = Outcomes {
            attempted: 100,
            ok: 90,
            errors: 1,
            busy: 2,
            timeouts: 3,
            budget_rejects: 4,
        };
        assert_eq!(o.failed(), 10);
        assert!((o.fail_ratio() - 0.10).abs() < 1e-15);
        let empty = Outcomes::default();
        assert_eq!(empty.fail_ratio(), 0.0);
    }

    #[test]
    fn max_gap_includes_the_edges() {
        assert_eq!(max_gap(&[30, 10, 20], 0, 100), 70);
        assert_eq!(max_gap(&[50], 0, 60), 50);
        assert_eq!(max_gap(&[], 5, 25), 20);
        assert_eq!(max_gap(&[1, 500], 100, 200), 100);
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(label(9_900), "p99");
        assert_eq!(label(9_990), "p99.9");
        assert_eq!(label(9_999), "p99.99");
    }
}
