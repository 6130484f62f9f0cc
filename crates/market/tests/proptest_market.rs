//! Property-based tests for the marketplace layer.

use nimbus_data::catalog::{DatasetSpec, PaperDataset};
use nimbus_market::curves::{DemandCurve, MarketCurves, ValueCurve};
use nimbus_market::{BatchCommitItem, Broker, BuyerPopulation, PurchaseRequest, Seller};
use nimbus_randkit::seeded_rng;
use proptest::prelude::*;

fn any_value_curve() -> impl Strategy<Value = ValueCurve> {
    prop_oneof![
        (0.1..20.0f64, 20.0..200.0f64, 1.1..6.0f64).prop_map(|(v_min, v_max, power)| {
            ValueCurve::Convex {
                v_min,
                v_max,
                power,
            }
        }),
        (0.1..20.0f64, 20.0..200.0f64, 0.1..0.9f64).prop_map(|(v_min, v_max, power)| {
            ValueCurve::Concave {
                v_min,
                v_max,
                power,
            }
        }),
        (0.1..20.0f64, 20.0..200.0f64)
            .prop_map(|(v_min, v_max)| ValueCurve::Linear { v_min, v_max }),
        (0.1..20.0f64, 20.0..200.0f64, 0.1..0.9f64, 2.0..20.0f64).prop_map(
            |(v_min, v_max, midpoint, steepness)| ValueCurve::Sigmoid {
                v_min,
                v_max,
                midpoint,
                steepness
            }
        ),
    ]
}

fn any_demand_curve() -> impl Strategy<Value = DemandCurve> {
    prop_oneof![
        Just(DemandCurve::Uniform),
        (0.05..0.5f64).prop_map(|width| DemandCurve::MidPeaked { width }),
        (0.05..0.5f64).prop_map(|width| DemandCurve::BimodalExtremes { width }),
        Just(DemandCurve::Increasing),
        Just(DemandCurve::Decreasing),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_curve_pair_builds_a_valid_problem(
        value in any_value_curve(),
        demand in any_demand_curve(),
        n in 2usize..60,
    ) {
        let problem = MarketCurves::new(value, demand).build_problem(n).unwrap();
        prop_assert_eq!(problem.len(), n);
        prop_assert!((problem.total_demand() - 1.0).abs() < 1e-9);
        // Valuations monotone, parameters strictly increasing — the DP's
        // preconditions for every shape combination.
        let v = problem.valuations();
        prop_assert!(v.windows(2).all(|w| w[1] >= w[0]));
        let a = problem.parameters();
        prop_assert!(a.windows(2).all(|w| w[1] > w[0]));
        // And the optimizer runs on it.
        let dp = nimbus_optim::solve_revenue_dp(&problem).unwrap();
        prop_assert!(dp.revenue >= 0.0);
    }

    #[test]
    fn mbp_dominates_constant_baselines_for_any_shape(
        value in any_value_curve(),
        demand in any_demand_curve(),
    ) {
        let problem = MarketCurves::new(value, demand).build_problem(25).unwrap();
        let dp = nimbus_optim::solve_revenue_dp(&problem).unwrap();
        for baseline in nimbus_optim::Baseline::fit_all(&problem).unwrap() {
            let r = nimbus_optim::revenue(&baseline.prices, &problem).unwrap();
            prop_assert!(
                dp.revenue >= r - 1e-9,
                "{} ({r}) beats MBP ({}) on {}x{}",
                baseline.kind.name(),
                dp.revenue,
                problem.points()[0].v,
                problem.len()
            );
        }
    }

    #[test]
    fn population_realization_converges_to_expectation(
        demand in any_demand_curve(),
        seed in 0u64..300,
    ) {
        let problem = MarketCurves::new(ValueCurve::standard_concave(), demand)
            .build_problem(20)
            .unwrap();
        let dp = nimbus_optim::solve_revenue_dp(&problem).unwrap();
        let expected = dp.revenue;
        let mut rng = seeded_rng(seed);
        let pop = BuyerPopulation::sample(&problem, 30_000, &mut rng).unwrap();
        let (rev, _) = pop.evaluate_prices(&dp.prices).unwrap();
        let per_buyer = rev / 30_000.0;
        prop_assert!(
            (per_buyer - expected).abs() < 0.1 * expected.max(1.0),
            "realized {per_buyer} vs expected {expected}"
        );
    }
}

// Broker invariants are slow to set up, so exercise them deterministically
// over a handful of purchase points rather than via proptest shrinking.
#[test]
fn broker_resolve_is_consistent_with_quote_across_the_menu() {
    let (tt, _) = DatasetSpec::scaled(PaperDataset::Simulated1, 600)
        .materialize(3)
        .unwrap();
    let curves = MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform);
    let broker = Broker::builder(Seller::new("prop", tt, curves))
        .n_price_points(30)
        .error_curve_samples(20)
        .seed(9)
        .build()
        .unwrap();
    broker.open_market().unwrap();
    for i in 1..=30 {
        let x = 1.0 + (i as f64 / 30.0) * 99.0;
        let q = broker
            .quote_request(PurchaseRequest::AtInverseNcp(x))
            .unwrap();
        assert_eq!(q.x, x);
        assert!((q.delta - 1.0 / x).abs() < 1e-12);
        assert!((q.price - broker.quote(x).unwrap()).abs() < 1e-12);
        // Error budgets resolve to prices no greater than buying 1/e directly.
        let e = 1.0 / x;
        let bq = broker
            .quote_request(PurchaseRequest::ErrorBudget(e))
            .unwrap();
        assert!(bq.price <= q.price + 1e-9);
    }
}

// ---------------------------------------------------------------------------
// Per-buyer budget accounting vs the arbitrage-free menu: averaging k noisy
// instances at inverse NCPs x₁..xₖ yields effective precision Σxᵢ (the
// multi-purchase analogue of Theorem 5), so the ledger meters exactly Σxᵢ
// and the money collected must be at least the posted price of the combined
// model — otherwise splitting a purchase would be an arbitrage.
// ---------------------------------------------------------------------------

fn shared_metered_broker() -> &'static Broker {
    use std::sync::OnceLock;
    static BROKER: OnceLock<Broker> = OnceLock::new();
    BROKER.get_or_init(|| {
        let (tt, _) = DatasetSpec::scaled(PaperDataset::Simulated1, 600)
            .materialize(3)
            .unwrap();
        let curves = MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform);
        let broker = Broker::builder(Seller::new("prop-budget", tt, curves))
            .n_price_points(30)
            .error_curve_samples(20)
            .seed(9)
            .build()
            .unwrap();
        broker.open_market().unwrap();
        broker
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn k_purchases_charge_at_least_the_subadditive_bound(
        xs in prop::collection::vec(1.0..100.0f64, 1..6),
    ) {
        let broker = shared_metered_broker();
        // One fresh buyer per case: the shared ledger never mixes cases.
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        let buyer = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut paid = 0.0f64;
        let mut precision = 0.0f64;
        for &x in &xs {
            let q = broker
                .quote_request(PurchaseRequest::AtInverseNcp(x))
                .unwrap();
            let sale = broker
                .commit_batch_at(&[BatchCommitItem {
                    x: q.x,
                    snapshot_epoch: q.snapshot_epoch,
                    payment: q.price,
                    nonce: None,
                    buyer: Some(buyer),
                }])
                .remove(0)
                .unwrap();
            paid += sale.transaction.price;
            precision += sale.transaction.inverse_ncp;
        }
        // The ledger meters exactly the precision sold, accumulated in
        // commit order — bit for bit.
        prop_assert_eq!(
            broker.accounts().spent(buyer).to_bits(),
            precision.to_bits(),
            "ledger drifted from the sold precision"
        );
        // Subadditive floor: the k instances average into a model of
        // effective precision Σxᵢ (capped at the menu's support), whose
        // posted price the buyer must have at least paid.
        let combined = precision.min(100.0);
        let bound = broker.quote(combined).unwrap();
        prop_assert!(
            paid >= bound - 1e-6 * bound.abs().max(1.0),
            "k-split arbitrage: paid {paid} for effective x={combined}, menu asks {bound}"
        );
    }
}
