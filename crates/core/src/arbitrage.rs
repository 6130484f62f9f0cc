//! Arbitrage-freeness: validation and constructive attacks.
//!
//! **Theorem 5** (the paper's central result): a pricing function is
//! arbitrage-free for the Gaussian mechanism under square loss iff, viewed
//! as `p(x)` over the inverse NCP `x = 1/δ`, it is
//!
//! 1. *subadditive* — `1/δ₁ = 1/δ₂ + 1/δ₃ ⟹ p(δ₁) ≤ p(δ₂) + p(δ₃)`, and
//! 2. *monotone* — `δ₁ ≤ δ₂ ⟹ p(δ₁) ≥ p(δ₂)` (non-increasing in δ,
//!    non-decreasing in `x`).
//!
//! [`certify_menu`] proves both for a piecewise-linear menu, exactly and in
//! `O(n)`, from its knots alone: it is the gate every published menu
//! passes, and [`clamp_menu`] is the pass that makes optimizer output meet
//! it. [`check_arbitrage_free`] samples both conditions over a grid, an
//! oracle for tests and figures.
//! [`ArbitrageAttack`] is the *constructive* half of the theorem's proof:
//! when subadditivity fails, a buyer purchases `k` cheap high-noise
//! instances `h^{δ_i}` and averages them with inverse-variance weights
//! `δ₀/δ_i` (where `1/δ₀ = Σ 1/δ_i`), obtaining an unbiased instance whose
//! variance — hence expected square loss — equals `δ₀`, for less than the
//! posted `p(δ₀)`. The attack search is an unbounded min-cost covering
//! problem solved by dynamic programming over a discretized `x` axis.

use crate::pricing::PricingFunction;
use crate::{CoreError, InverseNcp, Ncp, Result};
use nimbus_ml::LinearModel;

/// Certifies a piecewise-linear menu (knots `a_i`, prices `z_i`, as in
/// [`crate::PiecewiseLinearPricing`]) arbitrage-free for every `x`, exactly
/// and in `O(n)`: knots finite, positive and strictly increasing; prices
/// finite and non-negative; and for each consecutive pair `z_i ≤ z_{i+1}`
/// and `z_{i+1}·a_i ≤ z_i·a_{i+1}`, products compared exactly (tolerance 0).
///
/// These are the relaxed constraints of program (5): every chord of the
/// interpolant then has a non-negative intercept, so `p(x)/x` is
/// non-increasing and `p` monotone and subadditive (Lemma 8, Proposition 1;
/// DESIGN.md gives the argument). The error names the first failing knot.
pub fn certify_menu(knots: &[f64], prices: &[f64]) -> Result<()> {
    if knots.is_empty() || knots.len() != prices.len() {
        return Err(CoreError::EmptyCurve);
    }
    for (i, (&a, &z)) in knots.iter().zip(prices).enumerate() {
        let reason = if !(a.is_finite() && a > 0.0) || (i > 0 && a <= knots[i - 1]) {
            "knots must be positive, finite and strictly increasing"
        } else if !(z.is_finite() && z >= 0.0) {
            "prices must be non-negative and finite"
        } else if i > 0 && z < prices[i - 1] {
            "price decreases: a buyer pays less for a better model"
        } else if i > 0 && !unit_price_holds(prices[i - 1], knots[i - 1], z, a) {
            "unit price rises: smaller versions undercut it"
        } else {
            continue;
        };
        return Err(CoreError::InvalidCurvePoint { index: i, reason });
    }
    Ok(())
}

/// Moves each `z_i` (`i ≥ 1`) into `[z_{i−1}, B_i]`, `B_i` the largest `f64`
/// with `B_i·a_{i−1} ≤ z_{i−1}·a_i` exactly, so [`certify_menu`] accepts the
/// result (given valid knots and `z_0 ≥ 0`). A certified menu is unchanged.
/// On a non-decreasing input whose unit prices exceed no earlier one by more
/// than a relative `ρ`, no price rises, and one at the end of a run of `m`
/// lowered knots falls by at most a relative `ρ + m·2⁻⁵²`: each lowered knot
/// loses under an ulp of unit price to rounding down.
pub fn clamp_menu(knots: &[f64], prices: &mut [f64]) {
    for i in 1..prices.len().min(knots.len()) {
        let lo = prices[i - 1];
        let hi = unit_price_bound(lo, knots[i - 1], knots[i]);
        prices[i] = prices[i].max(lo).min(hi);
    }
}

/// Whether `z_next·a ≤ z·a_next` holds exactly. Each product is split into
/// an unevaluated sum `hi + lo` by one fused multiply-add, which is exact
/// unless a product is below 2⁻⁹⁷⁰ (and non-zero); equal high parts then
/// compare their low parts. A product that overflows fails the test.
fn unit_price_holds(z: f64, a: f64, z_next: f64, a_next: f64) -> bool {
    let two_product = |x: f64, y: f64| {
        let hi = x * y;
        (hi, x.mul_add(y, -hi))
    };
    let (right_hi, right_lo) = two_product(z, a_next);
    right_hi.is_finite() && two_product(z_next, a) <= (right_hi, right_lo)
}

/// The largest `f64` `B ≥ z` with `B·a ≤ z·a_next` exactly (`0 < a < a_next`,
/// `z ≥ 0`), stepping from the rounded `z·a_next/a`, a few ulps away. Returns
/// `z` when that is zero or overflows.
fn unit_price_bound(z: f64, a: f64, a_next: f64) -> f64 {
    let mut bound = z * a_next / a;
    if !(bound.is_finite() && bound > 0.0) {
        return z;
    }
    while bound > z && !unit_price_holds(z, a, bound, a_next) {
        bound = bound.next_down();
    }
    while unit_price_holds(z, a, bound.next_up(), a_next) {
        bound = bound.next_up();
    }
    bound
}

/// Outcome of the numeric arbitrage-freeness check.
#[derive(Debug, Clone)]
pub struct ArbitrageReport {
    /// Pairs `(x_lo, x_hi)` where the price *decreased* with `x` (monotonicity
    /// violations).
    pub monotonicity_violations: Vec<(f64, f64)>,
    /// Triples `(x, y, gap)` with `p(x + y) − p(x) − p(y) = gap > tol`
    /// (subadditivity violations).
    pub subadditivity_violations: Vec<(f64, f64, f64)>,
}

impl ArbitrageReport {
    /// `true` when no violations were found.
    pub fn is_arbitrage_free(&self) -> bool {
        self.monotonicity_violations.is_empty() && self.subadditivity_violations.is_empty()
    }
}

/// Verifies Theorem 5's two conditions for `pricing` over the grid `xs`
/// (inverse-NCP values). Monotonicity is checked on consecutive grid points;
/// subadditivity on all pairs whose sum stays within the grid range (prices
/// beyond the largest grid point are still evaluated — pricing functions are
/// total). At most 32 violations of each kind are retained.
pub fn check_arbitrage_free<P: PricingFunction + ?Sized>(
    pricing: &P,
    xs: &[f64],
    tol: f64,
) -> Result<ArbitrageReport> {
    if xs.is_empty() {
        return Err(CoreError::EmptyCurve);
    }
    let mut grid: Vec<f64> = xs.to_vec();
    grid.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    for (i, &x) in grid.iter().enumerate() {
        if !(x.is_finite() && x > 0.0) {
            return Err(CoreError::InvalidCurvePoint {
                index: i,
                reason: "grid values must be positive and finite",
            });
        }
    }
    let price = |v: f64| -> Result<f64> { Ok(pricing.price(InverseNcp::new(v)?)) };

    let mut monotonicity_violations = Vec::new();
    for w in grid.windows(2) {
        let (p0, p1) = (price(w[0])?, price(w[1])?);
        if p1 < p0 - tol && monotonicity_violations.len() < 32 {
            monotonicity_violations.push((w[0], w[1]));
        }
    }

    let mut subadditivity_violations = Vec::new();
    'outer: for (i, &a) in grid.iter().enumerate() {
        for &b in &grid[i..] {
            let gap = price(a + b)? - price(a)? - price(b)?;
            if gap > tol {
                subadditivity_violations.push((a, b, gap));
                if subadditivity_violations.len() >= 32 {
                    break 'outer;
                }
            }
        }
    }

    Ok(ArbitrageReport {
        monotonicity_violations,
        subadditivity_violations,
    })
}

/// A concrete arbitrage opportunity: buy `purchases` (inverse-NCP, count)
/// pairs instead of the single instance at `target`.
#[derive(Debug, Clone)]
pub struct ArbitrageAttack {
    /// The inverse NCP the buyer actually wants.
    pub target: f64,
    /// Posted price at the target.
    pub target_price: f64,
    /// `(x_i, multiplicity)` purchases whose x-sum is ≥ target.
    pub purchases: Vec<(f64, usize)>,
    /// Total price of the purchases (strictly below `target_price`).
    pub total_cost: f64,
}

impl ArbitrageAttack {
    /// Combined accuracy `Σ x_i · count_i` of the purchases (at least the
    /// target by construction).
    pub fn combined_inverse_ncp(&self) -> f64 {
        self.purchases.iter().map(|(x, c)| x * *c as f64).sum()
    }

    /// Money saved relative to buying the target directly.
    pub fn savings(&self) -> f64 {
        self.target_price - self.total_cost
    }
}

/// Searches for an arbitrage attack against `pricing` at target inverse NCP
/// `target`, buying only at the `candidates` grid. Uses an unbounded
/// min-cost covering DP with `resolution` buckets across `[0, target]`.
///
/// Returns `Ok(None)` when no combination beats the posted price at the
/// chosen resolution — which for arbitrage-free prices is guaranteed by
/// Theorem 5, and is what the property tests assert.
pub fn find_attack<P: PricingFunction + ?Sized>(
    pricing: &P,
    target: f64,
    candidates: &[f64],
    resolution: usize,
) -> Result<Option<ArbitrageAttack>> {
    if !(target.is_finite() && target > 0.0) {
        return Err(CoreError::InvalidNcp { value: target });
    }
    if candidates.is_empty() || resolution == 0 {
        return Err(CoreError::EmptyCurve);
    }
    let target_price = pricing.price(InverseNcp::new(target)?);
    let unit = target / resolution as f64;

    // Items: candidate x values bucketized by floor — rounding *down* makes
    // the DP conservative (claims at least the x it credits), so any attack
    // found is genuine.
    struct Item {
        x: f64,
        units: usize,
        price: f64,
    }
    let mut items = Vec::new();
    for &x in candidates {
        if !(x.is_finite() && x > 0.0) {
            continue;
        }
        let units = (x / unit).floor() as usize;
        if units == 0 {
            continue;
        }
        let price = pricing.price(InverseNcp::new(x)?);
        items.push(Item { x, units, price });
    }
    if items.is_empty() {
        return Ok(None);
    }

    // dp[u] = min cost to accumulate at least u units; parent pointers
    // reconstruct the purchase multiset.
    let n = resolution;
    let mut dp = vec![f64::INFINITY; n + 1];
    let mut parent: Vec<Option<usize>> = vec![None; n + 1];
    dp[0] = 0.0;
    for u in 1..=n {
        for (idx, item) in items.iter().enumerate() {
            let from = u.saturating_sub(item.units);
            if dp[from].is_finite() {
                let cost = dp[from] + item.price;
                if cost < dp[u] {
                    dp[u] = cost;
                    parent[u] = Some(idx);
                }
            }
        }
    }

    if dp[n] + 1e-12 >= target_price {
        return Ok(None);
    }

    // Reconstruct purchases.
    let mut counts = vec![0usize; items.len()];
    let mut u = n;
    while u > 0 {
        let idx = parent[u].expect("finite dp entries have parents");
        counts[idx] += 1;
        u = u.saturating_sub(items[idx].units);
    }
    let purchases: Vec<(f64, usize)> = items
        .iter()
        .zip(&counts)
        .filter(|(_, &c)| c > 0)
        .map(|(item, &c)| (item.x, c))
        .collect();
    Ok(Some(ArbitrageAttack {
        target,
        target_price,
        purchases,
        total_cost: dp[n],
    }))
}

/// Re-verifies a pricing function *after* the error-inverse map `φ` has been
/// threaded through it — a Theorem 6 check by sampling.
///
/// This is an oracle for tests, figures and benchmarks, not the publish
/// gate: it checks pairs of grid points only, in `O(n²)`, with a slack.
/// Published menus pass [`certify_menu`] instead, which proves both
/// conditions for every `x` (and therefore after `φ`) from the knots.
///
/// Buyers of a general metric name an error budget `e`; the broker serves
/// the NCP `δ = φ(e)` and charges `pricing` at `x = 1/δ`. Arbitrage lives in
/// model space, where Theorem 5's criterion is stated over `x`, so the
/// buyer-facing grid must be pushed through `φ` first: for every grid error
/// level of `error_curve` (the smoothed `E[ε]` values), this maps it back to
/// its `x = 1/φ(e)` and checks monotonicity + subadditivity of `pricing` on
/// the resulting grid. Flat (isotonically pooled) stretches of the curve
/// collapse to a single `x`, exactly as they collapse for buyers.
pub fn check_arbitrage_free_after_phi<P>(
    pricing: &P,
    error_curve: &crate::ErrorCurve,
    tol: f64,
) -> Result<ArbitrageReport>
where
    P: PricingFunction + ?Sized,
{
    if error_curve.is_empty() {
        return Err(CoreError::EmptyCurve);
    }
    let mut xs: Vec<f64> = Vec::with_capacity(error_curve.len());
    for point in error_curve.points() {
        let ncp = error_curve.error_inverse(point.smoothed_error)?;
        let x = 1.0 / ncp.delta();
        // Pooled stretches of the smoothed curve map to one δ; skip repeats.
        if xs
            .last()
            .is_none_or(|&last| (x - last).abs() > 1e-12 * x.abs().max(1.0))
        {
            xs.push(x);
        }
    }
    check_arbitrage_free(pricing, &xs, tol)
}

/// Combines independently purchased noisy instances into a single unbiased
/// instance of lower variance — the function `g` from Theorem 5's proof.
///
/// Given instances `h_i` bought at NCPs `δ_i`, returns
/// `h = Σ (δ₀/δ_i) h_i` with `1/δ₀ = Σ 1/δ_i`, together with the effective
/// NCP `δ₀`. The weights sum to 1 (unbiasedness) and the combined variance
/// is exactly `δ₀` when the instances were drawn independently from an
/// additive mechanism with total variance `δ_i`.
pub fn combine_instances(instances: &[(LinearModel, Ncp)]) -> Result<(LinearModel, Ncp)> {
    if instances.is_empty() {
        return Err(CoreError::InvalidAttack {
            reason: "no instances to combine",
        });
    }
    let d = instances[0].0.dim();
    if instances.iter().any(|(m, _)| m.dim() != d) {
        return Err(CoreError::InvalidAttack {
            reason: "instances have mismatched dimensions",
        });
    }
    let inv_sum: f64 = instances.iter().map(|(_, ncp)| 1.0 / ncp.delta()).sum();
    let delta0 = 1.0 / inv_sum;
    let mut combined = nimbus_linalg::Vector::zeros(d);
    for (model, ncp) in instances {
        let weight = delta0 / ncp.delta();
        combined.axpy(weight, model.weights())?;
    }
    Ok((LinearModel::new(combined), Ncp::new(delta0)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::{GaussianMechanism, RandomizedMechanism};
    use crate::pricing::{ConstantPricing, LinearPricing, PiecewiseLinearPricing};
    use crate::square_loss::square_loss;
    use nimbus_linalg::Vector;
    use nimbus_randkit::seeded_rng;

    fn grid() -> Vec<f64> {
        (1..=40).map(|i| i as f64).collect()
    }

    fn sampled_free<P: PricingFunction>(pricing: &P, xs: &[f64], tol: f64) -> bool {
        check_arbitrage_free(pricing, xs, tol)
            .unwrap()
            .is_arbitrage_free()
    }

    /// `30·√x` on 50 knots `0.2, 0.4, …, 10`: strictly concave, certified.
    fn sqrt_menu() -> (Vec<f64>, Vec<f64>) {
        let knots: Vec<f64> = (1..=50).map(|i| i as f64 * 0.2).collect();
        let prices = knots.iter().map(|x| 30.0 * x.sqrt()).collect();
        (knots, prices)
    }

    #[test]
    fn constant_and_linear_prices_are_arbitrage_free() {
        let c = ConstantPricing::new(5.0).unwrap();
        assert!(sampled_free(&c, &grid(), 1e-9));
        let l = LinearPricing::new(2.0, 1.0).unwrap();
        assert!(sampled_free(&l, &grid(), 1e-9));
    }

    #[test]
    fn relaxed_constraint_piecewise_is_arbitrage_free() {
        // z/a non-increasing, z non-decreasing ⇒ arbitrage-free (Lemma 8).
        let p =
            PiecewiseLinearPricing::new(vec![(1.0, 10.0), (2.0, 16.0), (4.0, 24.0), (8.0, 30.0)])
                .unwrap();
        certify_menu(p.breakpoints(), p.values()).unwrap();
        assert!(sampled_free(&p, &grid(), 1e-9));
    }

    #[test]
    fn certificate_checks_each_relaxed_constraint() {
        let a = [1.0, 2.0, 4.0];
        let refused = |prices: &[f64]| match certify_menu(&a, prices) {
            Err(CoreError::InvalidCurvePoint { index, .. }) => Some(index),
            _ => None,
        };
        certify_menu(&a, &[1.0, 1.5, 2.0]).unwrap();
        // Constant unit price and flat prices are the two boundaries.
        certify_menu(&a, &[1.0, 2.0, 4.0]).unwrap();
        certify_menu(&a, &[3.0, 3.0, 3.0]).unwrap();
        // Unit price rises 1 → 1.25.
        assert_eq!(refused(&[1.0, 2.5, 2.6]), Some(1));
        // Price decreases.
        assert_eq!(refused(&[2.0, 1.0, 1.0]), Some(1));
        // Negative or non-finite price.
        assert_eq!(refused(&[-1.0, 0.0, 0.0]), Some(0));
        assert_eq!(refused(&[1.0, f64::NAN, 2.0]), Some(1));
        // Knots out of order.
        assert!(certify_menu(&[1.0, 4.0, 2.0], &[1.0, 1.5, 2.0]).is_err());
        // Length mismatch, empty menu.
        assert!(certify_menu(&a, &[1.0]).is_err());
        assert!(certify_menu(&[], &[]).is_err());
    }

    #[test]
    fn one_ulp_over_the_unit_price_bound_is_refused() {
        // Raise the last price to the largest value its predecessor's unit
        // price allows, then one ulp more: exact arithmetic tells the two
        // apart, and only the first is certified.
        let (knots, mut prices) = sqrt_menu();
        let last = prices.len() - 1;
        prices[last] = f64::MAX;
        clamp_menu(&knots, &mut prices);
        certify_menu(&knots, &prices).unwrap();
        prices[last] = prices[last].next_up();
        assert!(matches!(
            certify_menu(&knots, &prices),
            Err(CoreError::InvalidCurvePoint { index, .. }) if index == last
        ));

        // The sampled post-φ oracle, at a 1e-6 slack, cannot see a
        // violation that small.
        let pricing =
            PiecewiseLinearPricing::new(knots.iter().copied().zip(prices).collect()).unwrap();
        let deltas: Vec<Ncp> = knots.iter().map(|x| Ncp::new(1.0 / x).unwrap()).collect();
        let curve = crate::ErrorCurve::analytic_square_loss(&deltas).unwrap();
        let report = check_arbitrage_free_after_phi(&pricing, &curve, 1e-6).unwrap();
        assert!(report.is_arbitrage_free());
    }

    #[test]
    fn clamp_repairs_rounding_and_keeps_certified_menus() {
        let (knots, prices) = sqrt_menu();
        let mut clamped = prices.clone();
        clamp_menu(&knots, &mut clamped);
        assert_eq!(clamped, prices);

        // A constant unit price on irregular knots: each rounded product
        // can sit an ulp above its predecessor's unit price.
        let knots: Vec<f64> = (1..=500).map(|i| 0.37 * i as f64 + 0.011).collect();
        let ray: Vec<f64> = knots.iter().map(|x| 0.1 * x).collect();
        assert!(certify_menu(&knots, &ray).is_err());
        let mut clamped = ray.clone();
        clamp_menu(&knots, &mut clamped);
        certify_menu(&knots, &clamped).unwrap();
        // At most a relative 2⁻⁵² per lowered knot, and never upward.
        let bound = knots.len() as f64 * f64::EPSILON;
        for (z, r) in clamped.iter().zip(&ray) {
            assert!(z <= r && r - z <= bound * r, "{z} vs {r}");
        }

        // A price below its predecessor is raised to it.
        let mut dip = vec![4.0, 3.0, 5.0];
        clamp_menu(&[1.0, 2.0, 3.0], &mut dip);
        assert_eq!(dip, vec![4.0, 4.0, 5.0]);
    }

    #[test]
    fn superadditive_prices_are_flagged() {
        // Unit price increases with x: buying two halves is cheaper.
        let p = PiecewiseLinearPricing::new(vec![(1.0, 1.0), (2.0, 4.0), (4.0, 16.0)]).unwrap();
        let report = check_arbitrage_free(&p, &[1.0, 2.0, 4.0], 1e-9).unwrap();
        assert!(!report.is_arbitrage_free());
        assert!(!report.subadditivity_violations.is_empty());
    }

    #[test]
    fn decreasing_prices_are_flagged_as_monotonicity_violation() {
        let p = PiecewiseLinearPricing::new(vec![(1.0, 10.0), (2.0, 5.0)]).unwrap();
        let report = check_arbitrage_free(&p, &[1.0, 2.0], 1e-9).unwrap();
        assert!(!report.monotonicity_violations.is_empty());
    }

    #[test]
    fn attack_found_against_superadditive_pricing() {
        // p(x) = x² on breakpoints: p(4)=16 but two x=2 purchases cost 8.
        let p = PiecewiseLinearPricing::new(vec![(1.0, 1.0), (2.0, 4.0), (4.0, 16.0)]).unwrap();
        let attack = find_attack(&p, 4.0, &[1.0, 2.0], 400)
            .unwrap()
            .expect("attack must exist");
        assert!(attack.total_cost < attack.target_price);
        assert!(attack.combined_inverse_ncp() >= 4.0 - 1e-9);
        assert!(attack.savings() > 0.0);
    }

    #[test]
    fn no_attack_against_arbitrage_free_pricing() {
        let c = ConstantPricing::new(5.0).unwrap();
        assert!(find_attack(&c, 10.0, &grid(), 1000).unwrap().is_none());
        let l = LinearPricing::new(1.0, 2.0).unwrap();
        assert!(find_attack(&l, 10.0, &grid(), 1000).unwrap().is_none());
        let p = PiecewiseLinearPricing::new(vec![(1.0, 10.0), (2.0, 16.0), (4.0, 24.0)]).unwrap();
        assert!(find_attack(&p, 4.0, &[1.0, 2.0, 4.0], 2000)
            .unwrap()
            .is_none());
    }

    #[test]
    fn combine_instances_weights_sum_to_one() {
        // Combining two copies of the SAME deterministic vector returns it.
        let h = LinearModel::new(Vector::from_vec(vec![3.0, -1.0]));
        let instances = vec![
            (h.clone(), Ncp::new(2.0).unwrap()),
            (h.clone(), Ncp::new(2.0).unwrap()),
        ];
        let (combined, delta0) = combine_instances(&instances).unwrap();
        assert!((delta0.delta() - 1.0).abs() < 1e-12);
        for j in 0..2 {
            assert!((combined.weights()[j] - h.weights()[j]).abs() < 1e-12);
        }
    }

    #[test]
    fn combined_variance_matches_theorem5() {
        // Buy k independent Gaussian instances at δ_i; the combination has
        // empirical square loss ≈ δ₀ = 1 / Σ(1/δ_i).
        let optimal = LinearModel::new(Vector::from_vec(vec![1.0, 2.0, -0.5, 0.7]));
        let deltas = [2.0, 3.0, 6.0];
        let delta0_expected = 1.0 / deltas.iter().map(|d| 1.0 / d).sum::<f64>(); // = 1.0
        let mut rng = seeded_rng(31);
        let reps = 20_000;
        let mut total = 0.0;
        for _ in 0..reps {
            let instances: Vec<(LinearModel, Ncp)> = deltas
                .iter()
                .map(|&d| {
                    let ncp = Ncp::new(d).unwrap();
                    (
                        GaussianMechanism.perturb(&optimal, ncp, &mut rng).unwrap(),
                        ncp,
                    )
                })
                .collect();
            let (combined, delta0) = combine_instances(&instances).unwrap();
            assert!((delta0.delta() - delta0_expected).abs() < 1e-12);
            total += square_loss(&combined, &optimal).unwrap();
        }
        let mean = total / reps as f64;
        assert!(
            (mean - delta0_expected).abs() < 0.05 * delta0_expected.max(1.0),
            "combined variance {mean} vs expected {delta0_expected}"
        );
    }

    #[test]
    fn combine_rejects_bad_inputs() {
        assert!(combine_instances(&[]).is_err());
        let a = LinearModel::zeros(2);
        let b = LinearModel::zeros(3);
        let instances = vec![(a, Ncp::new(1.0).unwrap()), (b, Ncp::new(1.0).unwrap())];
        assert!(combine_instances(&instances).is_err());
    }

    #[test]
    fn theorem6_composition_over_square_loss_curve() {
        // E[ε_s] = δ = 1/x, so pricing "50/(1+err)" over the error composes
        // to p(x) = 50x/(x+1) over the inverse NCP — concave through the
        // origin, hence monotone + subadditive: arbitrage-free.
        let deltas: Vec<Ncp> = (1..=20)
            .map(|i| Ncp::new(i as f64 * 0.1).unwrap())
            .collect();
        let curve = crate::ErrorCurve::analytic_square_loss(&deltas).unwrap();
        let xs: Vec<f64> = curve.points().iter().map(|p| p.inverse).collect();
        let over_error = |price_of_error: fn(f64) -> f64| {
            let menu = xs
                .iter()
                .map(|&x| {
                    (
                        x,
                        price_of_error(curve.expected_error_at(Ncp::new(1.0 / x).unwrap())),
                    )
                })
                .collect();
            check_arbitrage_free(&PiecewiseLinearPricing::new(menu).unwrap(), &xs, 1e-9).unwrap()
        };
        let report = over_error(|err| 50.0 / (1.0 + err));
        assert!(report.is_arbitrage_free(), "{report:?}");

        // Pricing that *rises* with the error is not monotone in x.
        let report = over_error(|err| err * 10.0);
        assert!(!report.is_arbitrage_free());
        assert!(!report.monotonicity_violations.is_empty());

        // Pricing convex in x (superadditive): p = 1/err² = x² under ε_s.
        let report = over_error(|err| 1.0 / (err * err));
        assert!(!report.subadditivity_violations.is_empty());
    }

    #[test]
    fn phi_recheck_accepts_concave_and_flags_convex_pricing() {
        // A noisy, non-monotone raw curve: isotonic smoothing pools the dip,
        // and φ pushes the pooled error levels back onto a clean x grid.
        let raw = vec![
            (0.25, 0.27, 0.01),
            (0.5, 0.46, 0.01),
            (1.0, 0.95, 0.02),
            (2.0, 1.85, 0.02),
            (2.5, 1.80, 0.02), // dip — pooled with the previous point
            (4.0, 4.10, 0.03),
        ];
        let curve = crate::ErrorCurve::from_raw(raw).unwrap();
        let good = crate::pricing::PiecewiseLinearPricing::new(
            (1..=50)
                .map(|i| {
                    let x = i as f64 * 0.2;
                    (x, 30.0 * x.sqrt())
                })
                .collect(),
        )
        .unwrap();
        let report = check_arbitrage_free_after_phi(&good, &curve, 1e-9).unwrap();
        assert!(report.is_arbitrage_free(), "{report:?}");

        // Convex-in-x pricing is superadditive and must be flagged after φ.
        let bad = crate::pricing::PiecewiseLinearPricing::new(
            (1..=50)
                .map(|i| {
                    let x = i as f64 * 0.2;
                    (x, x * x)
                })
                .collect(),
        )
        .unwrap();
        let report = check_arbitrage_free_after_phi(&bad, &curve, 1e-9).unwrap();
        assert!(!report.subadditivity_violations.is_empty());
    }

    #[test]
    fn checker_rejects_bad_grids() {
        let c = ConstantPricing::new(1.0).unwrap();
        assert!(check_arbitrage_free(&c, &[], 1e-9).is_err());
        assert!(check_arbitrage_free(&c, &[0.0], 1e-9).is_err());
        assert!(check_arbitrage_free(&c, &[-1.0], 1e-9).is_err());
    }

    #[test]
    fn attack_rejects_bad_inputs() {
        let c = ConstantPricing::new(1.0).unwrap();
        assert!(find_attack(&c, 0.0, &[1.0], 10).is_err());
        assert!(find_attack(&c, 1.0, &[], 10).is_err());
        assert!(find_attack(&c, 1.0, &[1.0], 0).is_err());
    }
}
