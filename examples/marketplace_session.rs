//! A full marketplace session: a classification dataset (the CovType
//! stand-in), a logistic-regression listing, a sampled buyer population,
//! and the realized revenue/affordability ledger — the scenario the
//! paper's introduction motivates, where buyers with very different
//! budgets all get *some* version of the model.
//!
//! The session runs through the marketplace layer: sellers describe their
//! listings with [`ListingBuilder`], the marketplace builds and publishes
//! them, and every buyer interaction routes by listing name — the same
//! path `nimbus serve` exposes over TCP.
//!
//! Run with: `cargo run -p nimbus --example marketplace_session`

use nimbus::prelude::*;

fn main() {
    // CovType stand-in: forest-cover classification, d = 54.
    let spec = DatasetSpec::scaled(PaperDataset::CovType, 6_000);
    let (dataset, _) = spec.materialize(7).expect("dataset");
    let test_set = dataset.test.clone();

    // Market research found mid-market-heavy demand on a sigmoid value curve.
    let curves = MarketCurves::new(
        ValueCurve::standard_sigmoid(),
        DemandCurve::MidPeaked { width: 0.18 },
    );
    let seller = Seller::new("forest-bureau", dataset, curves);

    // A second seller lists a regression dataset in the same marketplace.
    let (housing, _) = DatasetSpec::scaled(PaperDataset::Simulated1, 2_000)
        .materialize(11)
        .expect("dataset");
    let housing_seller = Seller::new(
        "metro-housing",
        housing,
        MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform),
    );

    let marketplace = Marketplace::open_listings(vec![
        ListingBuilder::new("forest-cover", seller)
            .model_kind("logistic_regression")
            .trainer(LogisticRegressionTrainer::new(1e-4))
            .mechanism(GaussianMechanism)
            .n_price_points(60)
            .error_curve_samples(100)
            .seed(99),
        ListingBuilder::new("metro-housing", housing_seller)
            .trainer(LinearRegressionTrainer::ridge(1e-6))
            .n_price_points(40)
            .seed(5),
    ])
    .expect("valid listing configurations");

    println!("marketplace menu:");
    for entry in marketplace.menu() {
        println!(
            "  {:<14} {:<20} {:<10} E[revenue] {:>7.2}",
            entry.name,
            entry.model_kind,
            entry.state.name(),
            entry.expected_revenue
        );
    }

    // Everything below routes by listing name, exactly like wire peers do.
    let (broker, meta) = marketplace.broker("forest-cover").expect("listing");
    println!(
        "\nrouted to {:?} ({} via {}, {})",
        meta.name,
        meta.model_kind,
        meta.mechanism,
        meta.state.name()
    );

    // Buyer-facing curve in the buyer's own error metric (0/1 test error),
    // not the broker-internal square loss — the ε/λ distinction of §3.1.
    let ts = test_set.clone();
    let curve = broker
        .price_error_curve(move |m| metrics::zero_one_error(m, &ts).map_err(Into::into))
        .expect("price-error curve");
    println!("\nbuyer-facing curve (0/1 test error vs price), excerpt:");
    for p in curve.points().iter().step_by(curve.len() / 6) {
        println!(
            "  E[0/1 error] {:>6.4}  price {:>7.2}  (1/NCP {:>5.1})",
            p.expected_error, p.price, p.inverse
        );
    }

    // A population of buyers sampled from the demand curve walks in.
    let problem = broker.terms().curves.build_problem(60).expect("problem");
    let mut rng = seeded_rng(2024);
    let population = BuyerPopulation::sample(&problem, 500, &mut rng).expect("population");

    let mut served = 0usize;
    for buyer in population.buyers() {
        let quote = marketplace
            .quote_request(
                "forest-cover",
                PurchaseRequest::AtInverseNcp(buyer.desired_x),
            )
            .expect("quote");
        if buyer.will_buy(quote.price) {
            broker.commit(quote, quote.price).expect("purchase");
            served += 1;
        }
    }
    println!(
        "\nsession: {}/{} buyers served ({}% affordability), realized revenue {:.2}",
        served,
        population.len(),
        100 * served / population.len(),
        broker.collected_revenue()
    );

    // Every served buyer got a usable model: spot-check the last sale.
    let quote = marketplace
        .quote_request("forest-cover", PurchaseRequest::AtInverseNcp(60.0))
        .expect("final quote");
    let sale = broker.commit(quote, quote.price).expect("final purchase");
    let acc = metrics::accuracy(&sale.model, &test_set).expect("evaluate");
    println!("spot check: purchased model test accuracy {:.3}", acc);

    // The whole marketplace reconciles in one consistent snapshot.
    let stats = marketplace.stats();
    println!(
        "\nmarketplace ledger: {} sale(s), revenue {:.2} across {} listing(s)",
        stats.total_sales,
        stats.total_revenue,
        stats.listings.len()
    );
}
