//! Model-based pricing (MBP) core — the primary contribution of the paper
//! *"Model-based Pricing for Machine Learning in a Data Marketplace"*
//! (Chen, Koutris, Kumar), demonstrated at SIGMOD 2019 as **Nimbus**.
//!
//! Instead of selling raw data, the broker sells *noisy versions* of the
//! optimal ML model `h*_λ(D)`, with the noise magnitude — and hence the
//! expected error and the price — controlled by a single knob, the **noise
//! control parameter (NCP) δ**. This crate implements:
//!
//! * [`ncp`] — the validated `δ` / inverse-`δ` types. Throughout the paper
//!   prices are analyzed as functions of `x = 1/δ` ("inverse NCP"), which
//!   for the Gaussian mechanism under square loss is precisely the inverse
//!   of the expected error.
//! * [`mechanism`] — the randomized mechanisms `K`: the paper's central
//!   Gaussian mechanism `K_G` (§4.1, `W_δ = N(0, (δ/d)·I_d)`), a Laplace
//!   variant, an additive-uniform variant, and the scalar mechanisms of
//!   Example 1. All are unbiased and error-monotone, the two restrictions
//!   §3.2 places on `K`.
//! * [`square_loss`] — `ε_s(h, D) = ‖h − h*‖²` and the Lemma 3 identity
//!   `E[ε_s(h^δ)] = δ`.
//! * [`properties`] — empirical verifiers for the mechanism restrictions
//!   (unbiasedness and monotonicity of expected error in δ).
//! * [`error_curve`] — Monte-Carlo estimation of `δ ↦ E[ε(h^δ, D)]` (with a
//!   deterministic parallel estimator whose per-δ RNG streams make it
//!   bitwise-identical to the sequential path), its isotonic smoothing, and
//!   the error-inverse map `φ` of Theorem 6.
//! * [`curve_provider`] — [`CurveProvider`], the dispatch from an
//!   `nimbus-ml` [`ErrorMetric`](nimbus_ml::ErrorMetric) to its curve:
//!   exact closed form when the metric has one (square loss, Lemma 3),
//!   parallel Monte Carlo otherwise.
//! * [`parallel`] — the crossbeam-scoped, order-preserving [`parallel_map`]
//!   shared by curve estimation and the market/experiment layers.
//! * [`isotonic`] — weighted pool-adjacent-violators regression (shared
//!   with the revenue optimizer in `nimbus-optim`).
//! * [`pricing`] — the [`pricing::PricingFunction`] abstraction over the
//!   inverse NCP plus the concrete families (piecewise-linear from the
//!   optimizer's points per Proposition 1, constant, linear).
//! * [`arbitrage`] — Theorem 5's characterization: arbitrage-freeness ⟺
//!   monotone + subadditive in `x = 1/δ`; the exact `O(n)` certificate
//!   every published menu passes, sampled validators over point sets, plus
//!   the constructive *attack* from the theorem's proof (inverse-variance
//!   combination of cheap noisy instances) used to demonstrate arbitrage
//!   against badly priced curves.
//! * [`price_error_curve`] — the buyer-facing curve of §3.2 with the three
//!   purchase options (pick a point, error budget, price budget).

pub mod arbitrage;
// Noise is a pure function of `(seed, tx_id, x)`: these modules read no
// wall clock, environment or hash order (lists in `crates/clippy.toml`).
#[cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
pub mod curve_provider;
pub mod error;
pub mod error_curve;
pub mod isotonic;
#[cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
pub mod mechanism;
pub mod ncp;
pub mod parallel;
pub mod price_error_curve;
pub mod pricing;
pub mod properties;
pub mod square_loss;

pub use arbitrage::{certify_menu, ArbitrageAttack, ArbitrageReport};
pub use curve_provider::CurveProvider;
pub use error::CoreError;
pub use error_curve::{ErrorCurve, ErrorCurvePoint};
pub use mechanism::{
    GaussianMechanism, LaplaceMechanism, RandomizedMechanism, SnappedGaussianMechanism,
    UniformMechanism,
};
pub use ncp::{inverse_ncp_grid, InverseNcp, Ncp};
pub use parallel::parallel_map;
pub use price_error_curve::{PriceErrorCurve, PriceErrorPoint, PurchaseChoice};
pub use pricing::{ConstantPricing, LinearPricing, PiecewiseLinearPricing, PricingFunction};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
