//! End-to-end integration: every layer of the reproduction in one flow —
//! dataset generation → training → market optimization → noisy sales →
//! buyer-side evaluation → arbitrage immunity.

use nimbus::prelude::*;

/// The dataset `build_broker(seed)` lists; the broker drops its own copy
/// once h* is trained.
fn dataset(seed: u64) -> TrainTest {
    let spec = DatasetSpec::scaled(PaperDataset::Simulated1, 2_000);
    spec.materialize(seed).unwrap().0
}

fn build_broker(seed: u64) -> Broker {
    let curves = MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform);
    let seller = Seller::new("e2e", dataset(seed), curves);
    Broker::builder(seller)
        .trainer(LinearRegressionTrainer::ridge(1e-6))
        .mechanism(GaussianMechanism)
        .n_price_points(40)
        .error_curve_samples(60)
        .seed(seed)
        .build()
        .unwrap()
}

fn buy(broker: &Broker, request: PurchaseRequest) -> Sale {
    let quote = broker.quote_request(request).unwrap();
    broker.commit(quote, quote.price).unwrap()
}

#[test]
fn full_market_flow() {
    let broker = build_broker(11);
    let expected = broker.open_market().unwrap();
    assert!(expected > 0.0);

    // The posted menu satisfies Theorem 5's conditions numerically.
    let menu = broker.posted_menu().unwrap();
    let pricing = PiecewiseLinearPricing::new(menu.clone()).unwrap();
    let grid: Vec<f64> = menu.iter().map(|(x, _)| *x).collect();
    assert!(check_arbitrage_free(&pricing, &grid, 1e-9)
        .unwrap()
        .is_arbitrage_free());

    // Sales through all three options, via quote -> commit.
    let s1 = buy(&broker, PurchaseRequest::AtInverseNcp(10.0));
    let s2 = buy(&broker, PurchaseRequest::ErrorBudget(0.1));
    let budget = s1.price;
    let q3 = broker
        .quote_request(PurchaseRequest::PriceBudget(budget))
        .unwrap();
    let s3 = broker.commit(q3, budget).unwrap();
    assert_eq!(broker.sales_count(), 3);
    assert!((broker.collected_revenue() - (s1.price + s2.price + s3.price)).abs() < 1e-9);

    // Error budgets are honored in expectation semantics.
    assert!(s2.expected_error <= 0.1 + 1e-12);
    // Price budgets are honored exactly.
    assert!(s3.price <= budget + 1e-9);
}

#[test]
fn noisier_versions_cost_less_and_err_more() {
    let broker = build_broker(13);
    broker.open_market().unwrap();
    let cheap = buy(&broker, PurchaseRequest::AtInverseNcp(2.0));
    let sharp = buy(&broker, PurchaseRequest::AtInverseNcp(90.0));
    assert!(cheap.price < sharp.price);
    assert!(cheap.expected_error > sharp.expected_error);

    // And the actual delivered models reflect it on the test set, in
    // expectation over repeated purchases.
    let test = dataset(13).test;
    let reps = 60;
    let mut cheap_mse = 0.0;
    let mut sharp_mse = 0.0;
    for _ in 0..reps {
        let c = buy(&broker, PurchaseRequest::AtInverseNcp(2.0));
        let s = buy(&broker, PurchaseRequest::AtInverseNcp(90.0));
        cheap_mse += metrics::mse(&c.model, &test).unwrap();
        sharp_mse += metrics::mse(&s.model, &test).unwrap();
    }
    assert!(
        cheap_mse > sharp_mse,
        "cheap versions must be less accurate on average: {cheap_mse} vs {sharp_mse}"
    );
}

#[test]
fn buyer_facing_curve_uses_buyer_error_function() {
    let broker = build_broker(17);
    broker.open_market().unwrap();
    let test = dataset(17).test;
    let curve = broker
        .price_error_curve(move |m| metrics::mse(m, &test).map_err(Into::into))
        .unwrap();
    // Price decreases as expected error increases along the curve.
    let pts = curve.points();
    for w in pts.windows(2) {
        assert!(w[1].expected_error >= w[0].expected_error - 1e-9);
        assert!(w[1].price <= w[0].price + 1e-9);
    }
    // The three buyer options work against the estimated curve too.
    let sharpest_err = pts[0].expected_error;
    let pick = curve.choose_with_error_budget(sharpest_err * 2.0).unwrap();
    assert!(pick.point.expected_error <= sharpest_err * 2.0);
    let cheapest = pts.last().unwrap().price;
    let pick = curve.choose_with_price_budget(cheapest * 1.5).unwrap();
    assert!(pick.point.price <= cheapest * 1.5);
}

#[test]
fn classification_market_end_to_end() {
    let spec = DatasetSpec::scaled(PaperDataset::Simulated2, 3_000);
    let (dataset, _) = spec.materialize(23).unwrap();
    let test = dataset.test.clone();
    let curves = MarketCurves::new(
        ValueCurve::standard_sigmoid(),
        DemandCurve::MidPeaked { width: 0.2 },
    );
    let broker = Broker::builder(Seller::new("cls", dataset, curves))
        .trainer(LogisticRegressionTrainer::new(1e-4))
        .mechanism(GaussianMechanism)
        .n_price_points(30)
        .error_curve_samples(40)
        .seed(5)
        .build()
        .unwrap();
    broker.open_market().unwrap();
    let sale = buy(&broker, PurchaseRequest::AtInverseNcp(80.0));
    // A lightly noised logistic model still classifies far above chance.
    let acc = metrics::accuracy(&sale.model, &test).unwrap();
    assert!(acc > 0.8, "accuracy {acc}");
}

#[test]
fn metric_market_error_budget_end_to_end() {
    // A broker configured with the 0/1 metric prices the menu through the
    // Monte-Carlo curve and φ; an error-budget purchase resolves against
    // the same curve, and the posted prices stay arbitrage-free.
    let spec = DatasetSpec::scaled(PaperDataset::Simulated2, 2_000);
    let (dataset, _) = spec.materialize(41).unwrap();
    let test = dataset.test.clone();
    let curves = MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform);
    let broker = Broker::builder(Seller::new("cls-metric", dataset, curves))
        .trainer(LogisticRegressionTrainer::new(1e-4))
        .mechanism(GaussianMechanism)
        .n_price_points(24)
        .error_curve_samples(40)
        .seed(9)
        .error_metric(nimbus::ml::LossMetric::zero_one(test))
        .build()
        .unwrap();
    broker.open_market().unwrap();

    let quote = broker
        .quote_request(PurchaseRequest::ErrorBudget(0.45))
        .unwrap();
    assert_eq!(quote.metric, "zero_one");
    assert!(quote.expected_error <= 0.45 + 1e-9);
    let sale = broker.commit(quote, quote.price).unwrap();
    assert_eq!(sale.metric, "zero_one");
    assert!((sale.expected_error - quote.expected_error).abs() < 1e-12);

    let menu = broker.posted_menu().unwrap();
    let pricing = PiecewiseLinearPricing::new(menu.clone()).unwrap();
    let xs: Vec<f64> = menu.iter().map(|(x, _)| *x).collect();
    assert!(check_arbitrage_free(&pricing, &xs, 1e-6)
        .unwrap()
        .is_arbitrage_free());
}

#[test]
fn dp_prices_are_immune_to_the_attack_search() {
    let broker = build_broker(29);
    broker.open_market().unwrap();
    let menu = broker.posted_menu().unwrap();
    let pricing = PiecewiseLinearPricing::new(menu.clone()).unwrap();
    let xs: Vec<f64> = menu.iter().map(|(x, _)| *x).collect();
    for target in [10.0, 40.0, 100.0] {
        let attack = find_attack(&pricing, target, &xs, 2_000).unwrap();
        assert!(attack.is_none(), "attack found at target {target}");
    }
}
