//! Strategy comparison and arbitrage demonstration — the machinery behind
//! Figures 5 and 7–14.

use crate::buyer::BuyerPopulation;
use crate::Result;
use nimbus_core::arbitrage::{find_attack, ArbitrageAttack};
use nimbus_core::pricing::PiecewiseLinearPricing;
use nimbus_optim::baselines::{Baseline, BaselineKind};
use nimbus_optim::{
    affordability_ratio, revenue, solve_revenue_brute_force, solve_revenue_dp, RevenueProblem,
};
use nimbus_randkit::NimbusRng;
use std::time::Duration;

/// A pricing strategy under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PricingStrategy {
    /// Model-based pricing: the Algorithm 1 DP (the paper's MBP).
    Mbp,
    /// The exact subadditive optimum via Algorithm 2 (the paper's MILP).
    BruteForce,
    /// One of the four §6.2 baselines.
    Baseline(BaselineKind),
}

impl PricingStrategy {
    /// All six strategies in the figures' presentation order.
    pub const ALL: [PricingStrategy; 6] = [
        PricingStrategy::Mbp,
        PricingStrategy::Baseline(BaselineKind::Lin),
        PricingStrategy::Baseline(BaselineKind::MaxC),
        PricingStrategy::Baseline(BaselineKind::MedC),
        PricingStrategy::Baseline(BaselineKind::OptC),
        PricingStrategy::BruteForce,
    ];

    /// The five polynomial-time strategies (no brute force) used by the
    /// larger-n figures.
    pub const FAST: [PricingStrategy; 5] = [
        PricingStrategy::Mbp,
        PricingStrategy::Baseline(BaselineKind::Lin),
        PricingStrategy::Baseline(BaselineKind::MaxC),
        PricingStrategy::Baseline(BaselineKind::MedC),
        PricingStrategy::Baseline(BaselineKind::OptC),
    ];

    /// Display name as used in the figures.
    pub fn name(&self) -> &'static str {
        match self {
            PricingStrategy::Mbp => "MBP",
            PricingStrategy::BruteForce => "MILP",
            PricingStrategy::Baseline(k) => k.name(),
        }
    }
}

/// Result of pricing a problem with one strategy.
#[derive(Debug, Clone)]
pub struct StrategyOutcome {
    /// Strategy display name.
    pub name: &'static str,
    /// Prices at the problem's points.
    pub prices: Vec<f64>,
    /// Expected revenue under the demand model.
    pub revenue: f64,
    /// Expected affordability ratio.
    pub affordability: f64,
    /// Wall-clock time spent computing the prices.
    pub runtime: Duration,
}

/// Prices `problem` with `strategy`, timing the computation on the wall
/// clock. Convenience wrapper over [`price_with_clock`].
pub fn price_with(strategy: PricingStrategy, problem: &RevenueProblem) -> Result<StrategyOutcome> {
    let clock = crate::clock::wall_clock();
    price_with_clock(strategy, problem, &clock)
}

/// Prices `problem` with `strategy`, timing the computation on a
/// caller-supplied [`crate::clock::Clock`]. With [`crate::clock::null_clock`]
/// the outcome is a pure function of `(strategy, problem)` — no ambient
/// time reaches this module.
pub fn price_with_clock(
    strategy: PricingStrategy,
    problem: &RevenueProblem,
    clock: crate::clock::Clock<'_>,
) -> Result<StrategyOutcome> {
    let start = clock();
    let prices = match strategy {
        PricingStrategy::Mbp => solve_revenue_dp(problem)?.prices,
        PricingStrategy::BruteForce => solve_revenue_brute_force(problem)?.prices,
        PricingStrategy::Baseline(kind) => Baseline::fit(kind, problem)?.prices,
    };
    let runtime = clock().saturating_sub(start);
    let revenue = revenue(&prices, problem)?;
    let affordability = affordability_ratio(&prices, problem)?;
    Ok(StrategyOutcome {
        name: strategy.name(),
        prices,
        revenue,
        affordability,
        runtime,
    })
}

/// Prices `problem` with every listed strategy, fanning the independent
/// solves out over scoped threads (the brute force dominates the wall
/// clock, so the DP and baselines finish in its shadow). Outcomes keep the
/// input strategy order.
pub fn compare_strategies(
    problem: &RevenueProblem,
    strategies: &[PricingStrategy],
) -> Result<Vec<StrategyOutcome>> {
    crate::parallel::parallel_map(strategies.to_vec(), None, |s| price_with(s, problem))
        .into_iter()
        .collect()
}

/// Monte-Carlo check of an outcome against a sampled buyer population:
/// returns `(realized revenue per buyer, realized affordability)`.
pub fn realize_outcome(
    outcome: &StrategyOutcome,
    problem: &RevenueProblem,
    buyers: usize,
    rng: &mut NimbusRng,
) -> Result<(f64, f64)> {
    let pop = BuyerPopulation::sample(problem, buyers, rng)?;
    let (rev, aff) = pop.evaluate_prices(&outcome.prices)?;
    Ok((rev / buyers as f64, aff))
}

/// The staged arbitrage demonstration of Figures 3/5(a): price naively at
/// the (convex) valuation curve and exhibit the cheap combination a savvy
/// buyer would purchase instead.
#[derive(Debug, Clone)]
pub struct ArbitrageDemo {
    /// The naive (valuation-matching) prices.
    pub naive_prices: Vec<f64>,
    /// The found attack, if the naive pricing is indeed vulnerable.
    pub attack: Option<ArbitrageAttack>,
}

/// Runs the arbitrage demonstration against naive valuation pricing.
pub fn arbitrage_demo(problem: &RevenueProblem) -> Result<ArbitrageDemo> {
    let params = problem.parameters();
    let naive_prices = problem.valuations();
    let pricing = PiecewiseLinearPricing::new(
        params
            .iter()
            .copied()
            .zip(naive_prices.iter().copied())
            .collect(),
    )?;
    // Attack the most accurate (most expensive) version.
    #[expect(
        clippy::expect_used,
        reason = "RevenueProblem::new rejects an empty point set"
    )]
    let target = *params.last().expect("non-empty problem");
    let attack = find_attack(&pricing, target, &params, 4 * params.len().max(100))?;
    Ok(ArbitrageDemo {
        naive_prices,
        attack,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::{DemandCurve, MarketCurves, ValueCurve};
    use nimbus_randkit::seeded_rng;

    fn convex_market(n: usize) -> RevenueProblem {
        MarketCurves::new(ValueCurve::standard_convex(), DemandCurve::Uniform)
            .build_problem(n)
            .unwrap()
    }

    #[test]
    fn mbp_dominates_all_baselines_on_convex_market() {
        // Every baseline (constants; a non-negative-intercept line) is
        // itself relaxed-feasible, so the DP's optimum must weakly dominate
        // all of them on *revenue*. (Affordability dominance is empirical,
        // not a theorem — §6.3 notes MedC can slightly exceed MBP there —
        // so it is asserted only against the revenue-oriented baselines.)
        let problem = convex_market(60);
        let outcomes = compare_strategies(&problem, &PricingStrategy::FAST).unwrap();
        let mbp = &outcomes[0];
        assert_eq!(mbp.name, "MBP");
        for o in &outcomes[1..] {
            assert!(
                mbp.revenue >= o.revenue - 1e-9,
                "{} revenue {} beats MBP {}",
                o.name,
                o.revenue,
                mbp.revenue
            );
        }
        let maxc = outcomes.iter().find(|o| o.name == "MaxC").unwrap();
        let lin = outcomes.iter().find(|o| o.name == "Lin").unwrap();
        assert!(mbp.affordability >= maxc.affordability - 1e-9);
        assert!(mbp.affordability >= lin.affordability - 1e-9);
    }

    /// Convex-valued problem on the integer grid `a = 10, 20, …, 10n` —
    /// grid-rational, as the brute force's covering DP requires.
    fn integer_convex_market(n: usize) -> RevenueProblem {
        let value = ValueCurve::standard_convex();
        let a: Vec<f64> = (1..=n).map(|j| 10.0 * j as f64).collect();
        let v: Vec<f64> = (0..n)
            .map(|j| {
                let t = if n == 1 {
                    0.5
                } else {
                    j as f64 / (n - 1) as f64
                };
                value.value_at(t)
            })
            .collect();
        let b = vec![1.0 / n as f64; n];
        RevenueProblem::from_slices(&a, &b, &v).unwrap()
    }

    #[test]
    fn mbp_within_factor_two_of_brute_force() {
        // Small n so the brute force stays fast.
        let problem = integer_convex_market(10);
        let mbp = price_with(PricingStrategy::Mbp, &problem).unwrap();
        let bf = price_with(PricingStrategy::BruteForce, &problem).unwrap();
        assert!(mbp.revenue <= bf.revenue + 1e-9);
        assert!(mbp.revenue >= bf.revenue / 2.0 - 1e-9);
    }

    #[test]
    fn concave_market_gives_mbp_full_extraction() {
        let problem = MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform)
            .build_problem(40)
            .unwrap();
        let mbp = price_with(PricingStrategy::Mbp, &problem).unwrap();
        // A concave value curve is (almost) subadditive, so MBP extracts
        // essentially the entire valuation mass. "Almost": the curve starts
        // at v_min = 2 at x = 1 rather than passing through the origin, so
        // the unit price rises briefly at the very left edge and the DP
        // must shave a little there.
        let full: f64 = problem.points().iter().map(|p| p.b * p.v).sum();
        assert!(
            mbp.revenue >= 0.95 * full,
            "revenue {} below 95% of full extraction {}",
            mbp.revenue,
            full
        );
        assert!(mbp.affordability >= 0.95);
    }

    #[test]
    fn realized_outcomes_match_expected() {
        let problem = convex_market(30);
        let mbp = price_with(PricingStrategy::Mbp, &problem).unwrap();
        let mut rng = seeded_rng(17);
        let (realized_rev, realized_aff) =
            realize_outcome(&mbp, &problem, 40_000, &mut rng).unwrap();
        // Expected revenue is per unit of demand mass (masses sum to 1), so
        // per-buyer realized revenue converges to it.
        assert!(
            (realized_rev - mbp.revenue).abs() < 0.05 * mbp.revenue,
            "realized {realized_rev} vs expected {}",
            mbp.revenue
        );
        assert!((realized_aff - mbp.affordability).abs() < 0.02);
    }

    #[test]
    fn naive_convex_pricing_is_attackable() {
        let problem = convex_market(20);
        let demo = arbitrage_demo(&problem).unwrap();
        let attack = demo
            .attack
            .expect("convex valuation pricing must admit arbitrage");
        assert!(attack.savings() > 0.0);
        assert!(attack.combined_inverse_ncp() >= attack.target - 1e-9);
        // The attack buys strictly more than one instance.
        let count: usize = attack.purchases.iter().map(|(_, c)| *c).sum();
        assert!(count >= 2);
    }

    #[test]
    fn concave_pricing_is_not_attackable() {
        let problem = MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform)
            .build_problem(20)
            .unwrap();
        let demo = arbitrage_demo(&problem).unwrap();
        assert!(
            demo.attack.is_none(),
            "concave valuations are subadditive; no attack should exist"
        );
    }

    #[test]
    fn milp_is_slower_than_dp_at_moderate_n() {
        let problem = integer_convex_market(14);
        let mbp = price_with(PricingStrategy::Mbp, &problem).unwrap();
        let bf = price_with(PricingStrategy::BruteForce, &problem).unwrap();
        assert!(
            bf.runtime > mbp.runtime,
            "brute force {:?} should exceed DP {:?}",
            bf.runtime,
            mbp.runtime
        );
    }

    #[test]
    fn strategy_names() {
        let names: Vec<&str> = PricingStrategy::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["MBP", "Lin", "MaxC", "MedC", "OptC", "MILP"]);
    }
}
