//! # Nimbus — model-based pricing for machine learning in a data marketplace
//!
//! A from-scratch Rust reproduction of *"Model-based Pricing for Machine
//! Learning in a Data Marketplace"* (Chen, Koutris, Kumar), the system
//! demonstrated at SIGMOD 2019 as **Nimbus**.
//!
//! Instead of selling raw data, a broker sells *noisy versions* of the
//! optimal ML model trained on a seller's dataset. A single knob — the
//! noise control parameter (NCP) δ of a Gaussian perturbation — trades
//! expected model error against price, and a pricing function over the
//! inverse NCP is **arbitrage-free iff it is monotone and subadditive**
//! (Theorem 5). Revenue-optimal arbitrage-free prices are computed by an
//! `O(n²)` dynamic program within a provable factor 2 of the (coNP-hard)
//! exact optimum.
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`linalg`] | `nimbus-linalg` | dense vectors/matrices, Cholesky |
//! | [`randkit`] | `nimbus-randkit` | seedable normal/Laplace/uniform/discrete sampling |
//! | [`data`] | `nimbus-data` | datasets, splits, CSV, Table 3 generators |
//! | [`ml`] | `nimbus-ml` | losses, linear/logistic/SVM trainers, metrics, error metrics |
//! | [`core`] | `nimbus-core` | **the MBP contribution**: mechanisms, error curves + φ, curve provider, pricing, arbitrage |
//! | [`optim`] | `nimbus-optim` | revenue DP, brute force, baselines, interpolation |
//! | [`market`] | `nimbus-market` | seller/broker/buyer agents, end-to-end simulation |
//! | [`server`] | `nimbus-server` | TCP broker service: wire protocol, admission control, client, load generator |
//! | [`agents`] | `nimbus-agents` | closed-loop buyer-agent ecology: adaptive agents, empirical demand, demand-fed re-pricing |
//!
//! ## Quickstart
//!
//! ```
//! use nimbus::prelude::*;
//!
//! // A seller lists a dataset with market-research curves.
//! let spec = DatasetSpec::scaled(PaperDataset::Simulated1, 400);
//! let (dataset, _) = spec.materialize(7).unwrap();
//! let curves = MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform);
//! let seller = Seller::new("acme-data", dataset, curves);
//!
//! // The broker is configured through a validating builder; it trains
//! // once, optimizes arbitrage-free prices, and publishes an immutable
//! // market snapshot that serves all buyer reads.
//! let broker = Broker::builder(seller)
//!     .trainer(LinearRegressionTrainer::ridge(1e-6))
//!     .mechanism(GaussianMechanism)
//!     .n_price_points(20)
//!     .error_curve_samples(50)
//!     .seed(1)
//!     .build()
//!     .unwrap();
//! broker.open_market().unwrap();
//!
//! // A buyer asks for a quote under an error budget, then commits the
//! // quoted offer and receives a noisy model. The budget is interpreted
//! // under the broker's error metric (square distance by default) by
//! // pushing it through the φ error-inverse map of the snapshot's curve.
//! let quote = broker.quote_request(PurchaseRequest::ErrorBudget(0.05)).unwrap();
//! assert_eq!(quote.metric, "square");
//! assert!(quote.expected_error <= 0.05 + 1e-12);
//! let sale = broker.commit(quote, quote.price).unwrap();
//! assert!(sale.expected_error <= 0.05 + 1e-12);
//! ```
//!
//! To price against a buyer-facing loss instead — logistic, hinge, or 0/1
//! classification error — configure the broker with an error metric:
//! `Broker::builder(seller).error_metric(LossMetric::zero_one(test_set))`.
//! The broker then estimates the metric's error curve with a deterministic
//! parallel Monte-Carlo sweep, maps market research through φ, and
//! re-verifies arbitrage-freeness on the φ-mapped grid before publishing.

pub use nimbus_agents as agents;
pub use nimbus_core as core;
pub use nimbus_data as data;
pub use nimbus_linalg as linalg;
pub use nimbus_market as market;
pub use nimbus_ml as ml;
pub use nimbus_optim as optim;
pub use nimbus_randkit as randkit;
pub use nimbus_server as server;

/// One-stop imports for the common Nimbus workflow.
pub mod prelude {
    pub use nimbus_agents::{
        run_scenario, BuyerAgent, DemandObserver, Repricer, Scenario, SimHarness, SimOutcome,
    };
    pub use nimbus_core::{
        arbitrage::{
            certify_menu, check_arbitrage_free, check_arbitrage_free_after_phi, combine_instances,
            find_attack,
        },
        inverse_ncp_grid, parallel_map, ConstantPricing, CurveProvider, ErrorCurve,
        GaussianMechanism, InverseNcp, LaplaceMechanism, LinearPricing, Ncp,
        PiecewiseLinearPricing, PriceErrorCurve, PricingFunction, RandomizedMechanism,
        UniformMechanism,
    };
    pub use nimbus_data::{
        catalog::{DatasetSpec, PaperDataset},
        synthetic::{
            generate_classification, generate_regression, ClassificationSpec, RegressionSpec,
        },
        train_test_split, Dataset, Standardizer, Task, TrainTest,
    };
    pub use nimbus_market::{
        curves::{DemandCurve, MarketCurves, ValueCurve},
        simulation::{compare_strategies, price_with, PricingStrategy},
        BatchCommitItem, Broker, BrokerBuilder, Buyer, BuyerPopulation, FaultPlan, Journal,
        JournalError, ListingBuilder, ListingMeta, ListingState, ListingStats, MarketSnapshot,
        Marketplace, MarketplaceStats, MenuEntry, PurchaseRequest, Quote, Recovery, Sale, Seller,
        SellerTerms,
    };
    pub use nimbus_ml::{
        metrics, ErrorMetric, LinearModel, LinearRegressionTrainer, LogisticRegressionTrainer,
        LossMetric, PegasosSvmTrainer, SquareDistanceMetric, Trainer,
    };
    pub use nimbus_optim::{
        affordability_ratio, revenue, solve_revenue_brute_force, solve_revenue_dp, Baseline,
        BaselineKind, InterpolationProblem, PricePoint, RevenueProblem,
    };
    pub use nimbus_randkit::{seeded_rng, split_stream, NimbusRng};
    pub use nimbus_server::{
        loadgen::{run_load, ListingLoad, LoadConfig, LoadMode},
        render_prometheus, ClientConfig, NimbusClient, NimbusServer, RetryPolicy, ServerConfig,
    };
}

pub use nimbus_core::ncp::inverse_ncp_grid;

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_compiles_and_links_every_layer() {
        let grid = nimbus_core::ncp::inverse_ncp_grid(1.0, 10.0, 5).unwrap();
        assert_eq!(grid.len(), 5);
        let problem = RevenueProblem::figure5_example();
        let dp = solve_revenue_dp(&problem).unwrap();
        assert!(dp.revenue > 0.0);
        let mut rng = seeded_rng(1);
        let (ds, _) = generate_regression(&RegressionSpec::simulated1(50, 3), 2).unwrap();
        let tt = train_test_split(&ds, 0.75, &mut rng).unwrap();
        let model = LinearRegressionTrainer::ols().train(&tt.train).unwrap();
        assert_eq!(model.dim(), 3);
    }
}
