//! Shared fixtures for the Nimbus criterion benches.
//!
//! Each bench target mirrors a runtime claim of the paper's §6.3 or
//! measures one layer of the serving path beneath it:
//!
//! * `optim` — Algorithm 1 DP vs Algorithm 2 brute force vs baselines, the
//!   core of Figures 9/10/13/14;
//! * `mechanism` — the per-sale cost of noisy model generation (the reason
//!   the broker can do "real time interaction");
//! * `training` — the broker's one-time training cost across trainers;
//! * `curves` — error-curve estimation (the Figure 6 inner loop) and the
//!   price-interpolation solvers;
//! * `market` — end-to-end market opening and purchase throughput;
//! * `market_throughput` — in-process quote + commit batches across
//!   threads against the immutable market snapshot;
//! * `journal_append` — the sale journal's append, compaction and replay
//!   costs;
//! * `sim_throughput` — the closed-loop agent simulator end to end.
//!
//! The served TCP path is measured by the separate `servebench/` package.

use nimbus_market::curves::{DemandCurve, MarketCurves, ValueCurve};
use nimbus_optim::{PricePoint, RevenueProblem};

/// A convex-valued problem on the integer grid `a_j = 10·j` — grid-rational
/// so the brute force accepts it (as in the runtime figures).
pub fn integer_convex_problem(k: usize) -> RevenueProblem {
    let value = ValueCurve::standard_convex();
    let points: Vec<PricePoint> = (0..k)
        .map(|j| {
            let t = if k == 1 {
                0.5
            } else {
                j as f64 / (k - 1) as f64
            };
            PricePoint {
                a: 10.0 * (j + 1) as f64,
                b: 1.0 / k as f64,
                v: value.value_at(t),
            }
        })
        .collect();
    RevenueProblem::new(points).expect("valid bench problem")
}

/// The standard figure market: concave value, uniform demand, n points on
/// `1/NCP ∈ [1, 100]`.
pub fn standard_market(n: usize) -> RevenueProblem {
    MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform)
        .build_problem(n)
        .expect("valid market")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        assert_eq!(integer_convex_problem(8).len(), 8);
        assert_eq!(standard_market(50).len(), 50);
    }
}
