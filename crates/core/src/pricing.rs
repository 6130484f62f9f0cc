//! Pricing functions over the inverse noise control parameter.
//!
//! Per Theorem 5, all pricing analysis happens in the transformed view
//! `p(x) = p_ε,λ(1/x, D)` where `x = 1/δ`: a price curve is arbitrage-free
//! for the Gaussian mechanism iff `p` is monotone non-decreasing and
//! subadditive on `x > 0`.
//!
//! Three families are provided:
//!
//! * [`PiecewiseLinearPricing`] — the optimizer's output format. Given the
//!   values at the `n` parameter points, Proposition 1 shows the piecewise
//!   linear interpolant (through the origin before the first point,
//!   constant after the last) satisfies the relaxed constraints whenever
//!   the point values do, and is therefore arbitrage-free by Lemma 8.
//! * [`ConstantPricing`] — the MaxC / MedC / OptC baselines of §6.2:
//!   trivially monotone and subadditive.
//! * [`LinearPricing`] — the Lin baseline: `p(x) = slope·x + intercept`
//!   with `slope, intercept ≥ 0`, which is monotone and subadditive
//!   (subadditivity costs one intercept).

use crate::{CoreError, InverseNcp, Result};

/// A buyer-facing pricing function over the inverse NCP `x = 1/δ`.
pub trait PricingFunction {
    /// Price at inverse NCP `x` (`x > 0`).
    fn price(&self, x: InverseNcp) -> f64;

    /// Short stable identifier for reports.
    fn name(&self) -> &'static str;

    /// Prices at many points (convenience).
    fn prices(&self, xs: &[InverseNcp]) -> Vec<f64> {
        xs.iter().map(|&x| self.price(x)).collect()
    }
}

/// Piecewise-linear pricing through `(a_i, z_i)` points (Proposition 1).
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseLinearPricing {
    /// Strictly increasing inverse-NCP breakpoints `a_1 < … < a_n`.
    xs: Vec<f64>,
    /// Non-negative prices `z_i = p(a_i)`.
    zs: Vec<f64>,
}

impl PiecewiseLinearPricing {
    /// Builds the interpolant from `(a_i, z_i)` pairs. Points are sorted by
    /// `a`; requires `a_i > 0` and distinct, `z_i ≥ 0` and finite.
    pub fn new(points: Vec<(f64, f64)>) -> Result<Self> {
        if points.is_empty() {
            return Err(CoreError::EmptyCurve);
        }
        let mut pts = points;
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        for (i, (a, z)) in pts.iter().enumerate() {
            if !(a.is_finite() && *a > 0.0) {
                return Err(CoreError::InvalidCurvePoint {
                    index: i,
                    reason: "inverse NCP breakpoint must be positive and finite",
                });
            }
            if !(z.is_finite() && *z >= 0.0) {
                return Err(CoreError::InvalidCurvePoint {
                    index: i,
                    reason: "price must be non-negative and finite",
                });
            }
            if i > 0 && pts[i - 1].0 >= *a {
                return Err(CoreError::InvalidCurvePoint {
                    index: i,
                    reason: "breakpoints must be strictly increasing",
                });
            }
        }
        let (xs, zs) = pts.into_iter().unzip();
        Ok(PiecewiseLinearPricing { xs, zs })
    }

    /// The breakpoints `a_i`.
    pub fn breakpoints(&self) -> &[f64] {
        &self.xs
    }

    /// The prices `z_i` at the breakpoints.
    pub fn values(&self) -> &[f64] {
        &self.zs
    }

    /// The posted `(a_i, z_i)` menu pairs, in breakpoint order. Snapshot
    /// consumers use this instead of zipping [`Self::breakpoints`] and
    /// [`Self::values`] by hand.
    pub fn menu(&self) -> Vec<(f64, f64)> {
        self.xs
            .iter()
            .copied()
            .zip(self.zs.iter().copied())
            .collect()
    }

    /// The breakpoint range `(a_1, a_n)` — the inverse-NCP interval on which
    /// the menu interpolates (outside it the curve extends through the
    /// origin on the left and as a constant on the right).
    pub fn support(&self) -> (f64, f64) {
        (self.xs[0], self.xs[self.xs.len() - 1])
    }
}

impl PricingFunction for PiecewiseLinearPricing {
    fn price(&self, x: InverseNcp) -> f64 {
        let v = x.value();
        let xs = &self.xs;
        let zs = &self.zs;
        if v <= xs[0] {
            // Through the origin: p(x) = (z_1 / a_1) · x on [0, a_1].
            return zs[0] / xs[0] * v;
        }
        let n = xs.len();
        if v >= xs[n - 1] {
            return zs[n - 1];
        }
        let idx = xs.partition_point(|&a| a < v);
        let (x0, x1) = (xs[idx - 1], xs[idx]);
        let (z0, z1) = (zs[idx - 1], zs[idx]);
        z0 + (z1 - z0) * (v - x0) / (x1 - x0)
    }

    fn name(&self) -> &'static str {
        "piecewise_linear"
    }
}

/// A constant price for every model version (the MaxC/MedC/OptC baselines).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantPricing {
    price: f64,
}

impl ConstantPricing {
    /// Creates a constant pricing function; the price must be non-negative
    /// and finite.
    pub fn new(price: f64) -> Result<Self> {
        if price.is_finite() && price >= 0.0 {
            Ok(ConstantPricing { price })
        } else {
            Err(CoreError::InvalidPrice { value: price })
        }
    }

    /// The constant price.
    pub fn value(&self) -> f64 {
        self.price
    }
}

impl PricingFunction for ConstantPricing {
    fn price(&self, _x: InverseNcp) -> f64 {
        self.price
    }

    fn name(&self) -> &'static str {
        "constant"
    }
}

/// Linear pricing `p(x) = slope·x + intercept` (the Lin baseline).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearPricing {
    slope: f64,
    intercept: f64,
}

impl LinearPricing {
    /// Creates a linear pricing function. Both coefficients must be
    /// non-negative and finite for the function to be monotone and
    /// subadditive (hence arbitrage-free).
    pub fn new(slope: f64, intercept: f64) -> Result<Self> {
        if !(slope.is_finite() && slope >= 0.0) {
            return Err(CoreError::InvalidPrice { value: slope });
        }
        if !(intercept.is_finite() && intercept >= 0.0) {
            return Err(CoreError::InvalidPrice { value: intercept });
        }
        Ok(LinearPricing { slope, intercept })
    }

    /// Fits the Lin baseline of §6.2: the line through the smallest and
    /// largest buyer values over the inverse-NCP range `[x_lo, x_hi]`,
    /// clamped to a non-negative intercept.
    pub fn through(x_lo: f64, v_lo: f64, x_hi: f64, v_hi: f64) -> Result<Self> {
        if x_hi <= x_lo || x_hi.is_nan() || x_lo.is_nan() {
            return Err(CoreError::InvalidCurvePoint {
                index: 1,
                reason: "x_hi must exceed x_lo",
            });
        }
        let slope = ((v_hi - v_lo) / (x_hi - x_lo)).max(0.0);
        let intercept = (v_lo - slope * x_lo).max(0.0);
        LinearPricing::new(slope, intercept)
    }

    /// Slope coefficient.
    pub fn slope(&self) -> f64 {
        self.slope
    }

    /// Intercept coefficient.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }
}

impl PricingFunction for LinearPricing {
    fn price(&self, x: InverseNcp) -> f64 {
        self.slope * x.value() + self.intercept
    }

    fn name(&self) -> &'static str {
        "linear"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x(v: f64) -> InverseNcp {
        InverseNcp::new(v).unwrap()
    }

    #[test]
    fn piecewise_linear_interpolates() {
        let p = PiecewiseLinearPricing::new(vec![(1.0, 10.0), (3.0, 30.0), (5.0, 40.0)]).unwrap();
        assert_eq!(p.price(x(1.0)), 10.0);
        assert_eq!(p.price(x(2.0)), 20.0);
        assert_eq!(p.price(x(4.0)), 35.0);
        // Before the first point: through the origin.
        assert_eq!(p.price(x(0.5)), 5.0);
        // After the last point: constant.
        assert_eq!(p.price(x(100.0)), 40.0);
    }

    #[test]
    fn piecewise_linear_sorts_input() {
        let p = PiecewiseLinearPricing::new(vec![(3.0, 30.0), (1.0, 10.0)]).unwrap();
        assert_eq!(p.breakpoints(), &[1.0, 3.0]);
        assert_eq!(p.values(), &[10.0, 30.0]);
    }

    #[test]
    fn piecewise_linear_rejects_bad_points() {
        assert!(PiecewiseLinearPricing::new(vec![]).is_err());
        assert!(PiecewiseLinearPricing::new(vec![(0.0, 1.0)]).is_err());
        assert!(PiecewiseLinearPricing::new(vec![(-1.0, 1.0)]).is_err());
        assert!(PiecewiseLinearPricing::new(vec![(1.0, -1.0)]).is_err());
        assert!(PiecewiseLinearPricing::new(vec![(1.0, 1.0), (1.0, 2.0)]).is_err());
        assert!(PiecewiseLinearPricing::new(vec![(1.0, f64::NAN)]).is_err());
    }

    #[test]
    fn relaxed_constraints_detection() {
        let certified = |p: &PiecewiseLinearPricing| {
            crate::arbitrage::certify_menu(p.breakpoints(), p.values()).is_ok()
        };
        // z increasing, z/a decreasing: 10/1 ≥ 15/2 ≥ 18/3.
        let good =
            PiecewiseLinearPricing::new(vec![(1.0, 10.0), (2.0, 15.0), (3.0, 18.0)]).unwrap();
        assert!(certified(&good));
        // Unit price increases: violates the relaxed subadditivity.
        let bad = PiecewiseLinearPricing::new(vec![(1.0, 1.0), (2.0, 5.0)]).unwrap();
        assert!(!certified(&bad));
        // Price decreases: violates monotonicity.
        let bad2 = PiecewiseLinearPricing::new(vec![(1.0, 5.0), (2.0, 3.0)]).unwrap();
        assert!(!certified(&bad2));
    }

    #[test]
    fn constant_pricing() {
        let c = ConstantPricing::new(7.0).unwrap();
        assert_eq!(c.price(x(0.1)), 7.0);
        assert_eq!(c.price(x(1000.0)), 7.0);
        assert!(ConstantPricing::new(-1.0).is_err());
        assert!(ConstantPricing::new(f64::INFINITY).is_err());
    }

    #[test]
    fn linear_pricing_and_fit() {
        let l = LinearPricing::new(2.0, 1.0).unwrap();
        assert_eq!(l.price(x(3.0)), 7.0);
        assert!(LinearPricing::new(-1.0, 0.0).is_err());
        assert!(LinearPricing::new(1.0, -0.1).is_err());

        let fit = LinearPricing::through(1.0, 10.0, 100.0, 100.0).unwrap();
        assert!((fit.price(x(1.0)) - 10.0).abs() < 1e-9);
        assert!((fit.price(x(100.0)) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn linear_through_clamps_negative_intercept() {
        // Steep line would have negative intercept; clamp to 0 keeps it
        // subadditive at the cost of slightly higher prices at low x.
        let fit = LinearPricing::through(10.0, 1.0, 20.0, 100.0).unwrap();
        assert!(fit.intercept() >= 0.0);
        assert!(fit.price(x(0.001)) >= 0.0);
    }

    #[test]
    fn prices_batch_helper() {
        let c = ConstantPricing::new(2.0).unwrap();
        let xs = vec![x(1.0), x(2.0)];
        assert_eq!(c.prices(&xs), vec![2.0, 2.0]);
    }

    #[test]
    fn single_point_piecewise() {
        let p = PiecewiseLinearPricing::new(vec![(2.0, 8.0)]).unwrap();
        assert_eq!(p.price(x(1.0)), 4.0); // through origin
        assert_eq!(p.price(x(2.0)), 8.0);
        assert_eq!(p.price(x(5.0)), 8.0); // constant tail
    }
}
