//! Command execution for the `nimbus` binary.
//!
//! Each command returns its report as a `String` (testable without stdout
//! capture). All markets are built from the same stack the experiments use.

use crate::parse::{usage, BuyRequest, ClientAction, Command, SimAction};
use nimbus::core::arbitrage::find_attack;
use nimbus::ml::{ErrorMetric, LossMetric};
use nimbus::prelude::ErrorCurve;
use nimbus::prelude::*;
use std::fmt::Write as _;

/// Boxed evaluation closure for buyer-side error functions. `Sync` so the
/// deterministic curve estimator may fan points out across threads.
type EvalFn = Box<dyn Fn(&LinearModel) -> nimbus::core::Result<f64> + Sync>;

/// Executes a parsed command, returning the text to print.
pub fn run_command(command: Command) -> Result<String, String> {
    match command {
        Command::Help => Ok(usage()),
        Command::Demo { dataset, seed } => demo(&dataset, seed),
        Command::Price {
            value,
            demand,
            points,
        } => price(&value, &demand, points),
        Command::Buy {
            dataset,
            request,
            metric,
            seed,
        } => buy(&dataset, request, &metric, seed),
        Command::Attack {
            value,
            points,
            naive,
        } => attack(&value, points, naive),
        Command::Fairness { value, points, tau } => fairness(&value, points, tau),
        Command::Curve {
            dataset,
            samples,
            seed,
        } => error_curve(&dataset, samples, seed),
        Command::Serve {
            addr,
            datasets,
            metric,
            seed,
            shards,
            workers,
            queue,
            journal,
            journal_dir,
            buyer_budget,
        } => serve(
            &addr,
            &datasets,
            &metric,
            seed,
            shards,
            workers,
            queue,
            journal.as_deref(),
            journal_dir.as_deref(),
            buyer_budget,
        ),
        Command::Client { addr, action } => client(&addr, action),
        Command::Sim { action } => sim(action),
    }
}

fn lookup_dataset(name: &str) -> Result<PaperDataset, String> {
    PaperDataset::ALL
        .into_iter()
        .find(|d| d.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            format!(
                "unknown dataset {name:?}; available: {}",
                PaperDataset::ALL
                    .iter()
                    .map(|d| d.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
}

fn lookup_value(shape: &str) -> Result<ValueCurve, String> {
    match shape.to_ascii_lowercase().as_str() {
        "convex" => Ok(ValueCurve::standard_convex()),
        "concave" => Ok(ValueCurve::standard_concave()),
        "linear" => Ok(ValueCurve::standard_linear()),
        "sigmoid" => Ok(ValueCurve::standard_sigmoid()),
        other => Err(format!(
            "unknown value shape {other:?}; available: convex, concave, linear, sigmoid"
        )),
    }
}

fn lookup_demand(shape: &str) -> Result<DemandCurve, String> {
    match shape.to_ascii_lowercase().as_str() {
        "uniform" => Ok(DemandCurve::Uniform),
        "mid_peaked" | "mid-peaked" => Ok(DemandCurve::MidPeaked { width: 0.15 }),
        "bimodal" => Ok(DemandCurve::BimodalExtremes { width: 0.12 }),
        "increasing" => Ok(DemandCurve::Increasing),
        "decreasing" => Ok(DemandCurve::Decreasing),
        other => Err(format!(
            "unknown demand shape {other:?}; available: uniform, mid_peaked, bimodal, \
             increasing, decreasing"
        )),
    }
}

/// Builds the `ErrorMetric` the market should price against, or `None` for
/// the closed-form square-distance default.
fn lookup_metric(
    metric: &str,
    dataset: PaperDataset,
    test: &nimbus::data::Dataset,
) -> Result<Option<Box<dyn ErrorMetric>>, String> {
    let name = metric.to_ascii_lowercase();
    match name.as_str() {
        "square" => Ok(None),
        "logistic" | "zero_one" | "zero-one" | "hinge" => {
            if !matches!(dataset.task(), Task::BinaryClassification) {
                return Err(format!(
                    "metric {name:?} needs a binary-classification dataset; {} is regression",
                    dataset.name()
                ));
            }
            let boxed: Box<dyn ErrorMetric> = match name.as_str() {
                "logistic" => Box::new(LossMetric::logistic(test.clone())),
                "hinge" => {
                    Box::new(LossMetric::hinge(test.clone(), 1e-4).map_err(|e| e.to_string())?)
                }
                _ => Box::new(LossMetric::zero_one(test.clone())),
            };
            Ok(Some(boxed))
        }
        other => Err(format!(
            "unknown metric {other:?}; available: square, logistic, zero_one, hinge"
        )),
    }
}

/// Human-facing label for a sale's expected-error line.
fn metric_label(metric: &str) -> String {
    match metric {
        "square" => "E[square loss]".to_string(),
        "logistic" => "E[logistic loss]".to_string(),
        "zero_one" => "E[0/1 error]".to_string(),
        "hinge" => "E[hinge loss]".to_string(),
        other => format!("E[{other}]"),
    }
}

fn build_broker(
    dataset: PaperDataset,
    metric: &str,
    seed: u64,
    journal: Option<&str>,
) -> Result<Broker, String> {
    let spec = DatasetSpec::scaled(dataset, 4_000);
    let (tt, _) = spec.materialize(seed).map_err(|e| e.to_string())?;
    let metric = lookup_metric(metric, dataset, &tt.test)?;
    let curves = MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform);
    let seller = Seller::new(dataset.name(), tt, curves);
    let trainer: Box<dyn Trainer + Send + Sync> = match dataset.task() {
        Task::Regression => Box::new(LinearRegressionTrainer::ridge(1e-6)),
        Task::BinaryClassification => Box::new(LogisticRegressionTrainer::new(1e-4)),
    };
    let mut builder = Broker::builder(seller)
        .boxed_trainer(trainer)
        .mechanism(GaussianMechanism)
        .n_price_points(50)
        .error_curve_samples(50)
        .seed(seed);
    if let Some(path) = journal {
        builder = builder.journal(path);
    }
    if let Some(m) = metric {
        builder = builder.boxed_error_metric(m);
    }
    let broker = builder.build().map_err(|e| e.to_string())?;
    broker.open_market().map_err(|e| e.to_string())?;
    Ok(broker)
}

fn demo(dataset_name: &str, seed: u64) -> Result<String, String> {
    let dataset = lookup_dataset(dataset_name)?;
    let mut out = String::new();
    let _ = writeln!(out, "=== Nimbus demo on {} ===", dataset.name());

    let start = std::time::Instant::now();
    let broker = build_broker(dataset, "square", seed, None)?;
    let optimal = broker.optimal_model();
    let _ = writeln!(
        out,
        "broker trained the optimal {}-feature model and opened the market in {:?}",
        optimal.dim(),
        start.elapsed()
    );
    let _ = writeln!(
        out,
        "expected revenue per unit demand: {:.2}",
        broker.expected_revenue().map_err(|e| e.to_string())?
    );

    let menu = broker.posted_menu().map_err(|e| e.to_string())?;
    let _ = writeln!(out, "\nposted price curve (excerpt):");
    for (x, p) in menu.iter().step_by((menu.len() / 5).max(1)) {
        let _ = writeln!(
            out,
            "  1/NCP {x:>6.1}  E[square loss] {:>8.4}  price {p:>7.2}",
            1.0 / x
        );
    }

    for (label, request) in [
        ("point x=25", PurchaseRequest::AtInverseNcp(25.0)),
        ("error budget 0.1", PurchaseRequest::ErrorBudget(0.1)),
        ("price budget 30", PurchaseRequest::PriceBudget(30.0)),
    ] {
        match broker
            .quote_request(request)
            .and_then(|quote| broker.commit(quote, quote.price))
        {
            Ok(sale) => {
                let _ = writeln!(
                    out,
                    "buyer ({label}): got x={:.1} for {:.2} (E[sq loss] {:.4})",
                    sale.inverse_ncp, sale.price, sale.expected_error
                );
            }
            Err(e) => {
                let _ = writeln!(out, "buyer ({label}): rejected — {e}");
            }
        }
    }
    let _ = writeln!(
        out,
        "\nledger: {} sales, revenue {:.2}",
        broker.sales_count(),
        broker.collected_revenue()
    );

    // Attack the posted menu: must fail.
    let pricing = PiecewiseLinearPricing::new(menu.clone()).map_err(|e| e.to_string())?;
    let xs: Vec<f64> = menu.iter().map(|(x, _)| *x).collect();
    let target = *xs.last().expect("non-empty menu");
    match find_attack(&pricing, target, &xs, 2_000).map_err(|e| e.to_string())? {
        None => {
            let _ = writeln!(
                out,
                "arbitrage search against the posted curve: NO attack exists (Theorem 5 holds)"
            );
        }
        Some(a) => {
            let _ = writeln!(out, "UNEXPECTED arbitrage found: {a:?}");
        }
    }
    Ok(out)
}

fn price(value: &str, demand: &str, points: usize) -> Result<String, String> {
    let curves = MarketCurves::new(lookup_value(value)?, lookup_demand(demand)?);
    let problem = curves.build_problem(points).map_err(|e| e.to_string())?;
    let outcomes =
        compare_strategies(&problem, &PricingStrategy::FAST).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "market: {value} value x {demand} demand, {points} versions"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>10} {:>15}",
        "strategy", "revenue", "affordability"
    );
    for o in &outcomes {
        let _ = writeln!(
            out,
            "{:<10} {:>10.3} {:>15.3}",
            o.name, o.revenue, o.affordability
        );
    }
    let mbp = &outcomes[0];
    let _ = writeln!(out, "\nMBP price curve:");
    for (p, z) in problem
        .points()
        .iter()
        .zip(&mbp.prices)
        .step_by((points / 10).max(1))
    {
        let _ = writeln!(
            out,
            "  1/NCP {:>6.1}  value {:>7.2}  price {:>7.2}",
            p.a, p.v, z
        );
    }
    Ok(out)
}

fn buy(dataset_name: &str, request: BuyRequest, metric: &str, seed: u64) -> Result<String, String> {
    let dataset = lookup_dataset(dataset_name)?;
    let broker = build_broker(dataset, metric, seed, None)?;
    let req = match request {
        BuyRequest::ErrorBudget(e) => PurchaseRequest::ErrorBudget(e),
        BuyRequest::PriceBudget(p) => PurchaseRequest::PriceBudget(p),
        BuyRequest::AtInverseNcp(x) => PurchaseRequest::AtInverseNcp(x),
    };
    let quote = broker.quote_request(req).map_err(|e| e.to_string())?;
    let sale = broker
        .commit(quote, quote.price)
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(out, "purchased from the {} market:", dataset.name());
    let _ = writeln!(out, "  version       : 1/NCP = {:.2}", sale.inverse_ncp);
    let _ = writeln!(out, "  price         : {:.2}", sale.price);
    let _ = writeln!(
        out,
        "  {:<14}: {:.5}",
        metric_label(sale.metric),
        sale.expected_error
    );
    let _ = writeln!(
        out,
        "  model         : {} weights, first = {:.4}",
        sale.model.dim(),
        sale.model.weights()[0]
    );
    Ok(out)
}

fn attack(value: &str, points: usize, naive: bool) -> Result<String, String> {
    let curves = MarketCurves::new(lookup_value(value)?, DemandCurve::Uniform);
    let problem = curves.build_problem(points).map_err(|e| e.to_string())?;
    let params = problem.parameters();
    let prices = if naive {
        problem.valuations()
    } else {
        solve_revenue_dp(&problem)
            .map_err(|e| e.to_string())?
            .prices
    };
    let pricing = PiecewiseLinearPricing::new(params.iter().copied().zip(prices).collect())
        .map_err(|e| e.to_string())?;
    let target = *params.last().expect("non-empty");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "attacking the {} pricing of a {value}-value market at x = {target}",
        if naive {
            "NAIVE (valuation)"
        } else {
            "MBP (DP-optimized)"
        }
    );
    match find_attack(&pricing, target, &params, 2_000).map_err(|e| e.to_string())? {
        Some(a) => {
            let _ = writeln!(out, "ARBITRAGE FOUND:");
            let _ = writeln!(out, "  posted price : {:.2}", a.target_price);
            let _ = writeln!(out, "  buy instead  : {:?}", a.purchases);
            let _ = writeln!(
                out,
                "  total cost   : {:.2} (saves {:.2}; combined accuracy x = {:.1})",
                a.total_cost,
                a.savings(),
                a.combined_inverse_ncp()
            );
        }
        None => {
            let _ = writeln!(
                out,
                "no arbitrage exists (monotone + subadditive, Theorem 5)"
            );
        }
    }
    Ok(out)
}

fn fairness(value: &str, points: usize, tau: Option<f64>) -> Result<String, String> {
    use nimbus::optim::fairness::{fairness_frontier, maximize_revenue_with_affordability_floor};
    let curves = MarketCurves::new(lookup_value(value)?, DemandCurve::Uniform);
    let problem = curves.build_problem(points).map_err(|e| e.to_string())?;
    let lambdas = [0.0, 1.0, 4.0, 16.0, 64.0, 256.0];
    let frontier = fairness_frontier(&problem, &lambdas).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "revenue/affordability frontier ({value} value, uniform demand, {points} versions):"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>15}",
        "lambda", "revenue", "affordability"
    );
    for p in &frontier {
        let _ = writeln!(
            out,
            "{:>8.1} {:>10.3} {:>15.3}",
            p.lambda, p.revenue, p.affordability
        );
    }
    if let Some(tau) = tau {
        let sol =
            maximize_revenue_with_affordability_floor(&problem, tau).map_err(|e| e.to_string())?;
        let _ = writeln!(
            out,
            "\nhard floor tau = {tau}: revenue {:.3} at affordability {:.3} (lambda* = {:.3})",
            sol.revenue, sol.affordability, sol.lambda
        );
    }
    Ok(out)
}

fn error_curve(dataset_name: &str, samples: usize, seed: u64) -> Result<String, String> {
    let dataset = lookup_dataset(dataset_name)?;
    let spec = DatasetSpec::scaled(dataset, 4_000);
    let (tt, _) = spec.materialize(seed).map_err(|e| e.to_string())?;
    let trainer: Box<dyn Trainer + Send + Sync> = match dataset.task() {
        Task::Regression => Box::new(LinearRegressionTrainer::ridge(1e-6)),
        Task::BinaryClassification => Box::new(LogisticRegressionTrainer::new(1e-4)),
    };
    let model = trainer.train(&tt.train).map_err(|e| e.to_string())?;
    let test = tt.test;
    let eval: EvalFn = match dataset.task() {
        Task::Regression => {
            Box::new(move |h: &LinearModel| nimbus::ml::metrics::mse(h, &test).map_err(Into::into))
        }
        Task::BinaryClassification => Box::new(move |h: &LinearModel| {
            nimbus::ml::metrics::zero_one_error(h, &test).map_err(Into::into)
        }),
    };
    let deltas: Vec<Ncp> = (0..12)
        .map(|i| Ncp::new(1.0 / (1.0 + 9.0 * i as f64)).expect("positive"))
        .collect();
    let curve = ErrorCurve::estimate(
        &GaussianMechanism,
        &model,
        eval,
        &deltas,
        samples.max(10),
        seed,
    )
    .map_err(|e| e.to_string())?;
    let mut out = String::new();
    let loss_name = match dataset.task() {
        Task::Regression => "test MSE",
        Task::BinaryClassification => "test 0/1 error",
    };
    let _ = writeln!(
        out,
        "error transformation curve for {} ({loss_name}, {} samples/NCP):",
        dataset.name(),
        samples.max(10)
    );
    let mut pts: Vec<_> = curve.points().to_vec();
    pts.reverse();
    for p in &pts {
        let _ = writeln!(
            out,
            "  1/NCP {:>7.1}  E[error] {:>10.4}  (stderr {:.4})",
            p.inverse, p.mean_error, p.std_error
        );
    }
    let monotone = curve.raw_is_monotone(0.05 * pts[0].mean_error.abs().max(1e-9));
    let _ = writeln!(
        out,
        "monotone in delta (Theorem 4): {}",
        if monotone {
            "yes"
        } else {
            "within Monte-Carlo noise"
        }
    );
    Ok(out)
}

/// Builds one listing's validating builder with the same market stack the
/// experiments use. The listing is named after its dataset.
fn listing_builder(
    dataset: PaperDataset,
    metric: &str,
    seed: u64,
) -> Result<ListingBuilder, String> {
    let spec = DatasetSpec::scaled(dataset, 4_000);
    let (tt, _) = spec.materialize(seed).map_err(|e| e.to_string())?;
    let metric = lookup_metric(metric, dataset, &tt.test)?;
    let curves = MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform);
    let seller = Seller::new(dataset.name(), tt, curves);
    let (trainer, kind): (Box<dyn Trainer + Send + Sync>, &'static str) = match dataset.task() {
        Task::Regression => (
            Box::new(LinearRegressionTrainer::ridge(1e-6)),
            "linear_regression",
        ),
        Task::BinaryClassification => (
            Box::new(LogisticRegressionTrainer::new(1e-4)),
            "logistic_regression",
        ),
    };
    let mut builder = ListingBuilder::new(dataset.name(), seller)
        .model_kind(kind)
        .boxed_trainer(trainer)
        .mechanism(GaussianMechanism)
        .n_price_points(50)
        .error_curve_samples(50)
        .seed(seed);
    if let Some(m) = metric {
        builder = builder.boxed_error_metric(m);
    }
    Ok(builder)
}

/// Builds the marketplace for `datasets` (one published listing each) and
/// starts the TCP service on `addr`. The first dataset is the default
/// listing. Shared by [`serve`] (which then blocks forever) and the tests
/// (which shut the returned handle down).
#[allow(clippy::too_many_arguments)]
pub(crate) fn start_marketplace_server(
    addr: &str,
    dataset_names: &[String],
    metric: &str,
    seed: u64,
    shards: usize,
    workers: usize,
    queue: usize,
    journal: Option<&str>,
    journal_dir: Option<&str>,
    buyer_budget: Option<f64>,
) -> Result<NimbusServer, String> {
    if dataset_names.is_empty() {
        return Err("serve needs at least one --dataset".to_string());
    }
    if journal.is_some() && dataset_names.len() > 1 {
        return Err(
            "--journal is single-listing only; use --journal-dir for a multi-listing serve"
                .to_string(),
        );
    }
    let mut builders = Vec::with_capacity(dataset_names.len());
    let mut default_listing = String::new();
    for name in dataset_names {
        let dataset = lookup_dataset(name)?;
        if default_listing.is_empty() {
            default_listing = dataset.name().to_string();
        }
        // The gathering window is only an upper bound: a lone commit
        // never waits for it, concurrent ones share one fsync.
        let mut builder = listing_builder(dataset, metric, seed)?
            .journal_group_commit_window(nimbus::market::MAX_GROUP_COMMIT_WINDOW);
        if let Some(path) = journal {
            builder = builder.journal(path);
        }
        if let Some(dir) = journal_dir {
            builder = builder.journal_root(dir);
        }
        if let Some(budget) = buyer_budget {
            builder = builder.buyer_budget(budget);
        }
        builders.push(builder);
    }
    let marketplace = Marketplace::open_listings(builders).map_err(|e| e.to_string())?;
    let config = ServerConfig {
        shards,
        workers_per_shard: workers,
        queue_capacity: queue,
        ..ServerConfig::default()
    };
    NimbusServer::start(
        std::sync::Arc::new(marketplace),
        default_listing,
        addr,
        config,
    )
    .map_err(|e| e.to_string())
}

/// `nimbus serve`: build the marketplace, bind, and serve until killed.
#[allow(clippy::too_many_arguments)]
fn serve(
    addr: &str,
    datasets: &[String],
    metric: &str,
    seed: u64,
    shards: usize,
    workers: usize,
    queue: usize,
    journal: Option<&str>,
    journal_dir: Option<&str>,
    buyer_budget: Option<f64>,
) -> Result<String, String> {
    let server = start_marketplace_server(
        addr,
        datasets,
        metric,
        seed,
        shards,
        workers,
        queue,
        journal,
        journal_dir,
        buyer_budget,
    )?;
    let marketplace = server.marketplace();
    println!(
        "nimbus-server: {} listing(s) ({metric} metric) on {} \
         [{shards} shard(s) x {workers} worker(s), queue {queue}]",
        marketplace.len(),
        server.local_addr()
    );
    for entry in marketplace.menu() {
        println!(
            "  listing {:?}: {} ({}), expected revenue {:.2}{}",
            entry.name,
            entry.model_kind,
            entry.state.name(),
            entry.expected_revenue,
            if entry.name == server.default_listing() {
                " [default]"
            } else {
                ""
            }
        );
    }
    if let Some(budget) = buyer_budget {
        println!(
            "per-buyer noise budget: sum(x) <= {budget} per listing; \
             exhausted buyers get typed BUDGET_EXHAUSTED rejects"
        );
    }
    if journal.is_some() || journal_dir.is_some() {
        for name in marketplace.names() {
            let Ok((broker, _)) = marketplace.broker(&name) else {
                continue;
            };
            match broker.recovery() {
                Some(rec) if rec.sales > 0 || rec.truncated.is_some() => println!(
                    "journal for {name:?}: recovered {} sale(s), revenue {:.2}, \
                     next transaction #{}{}",
                    rec.sales,
                    rec.revenue,
                    rec.next_tx_id,
                    match &rec.truncated {
                        Some(e) => format!(" (salvaged a torn tail: {e})"),
                        None => String::new(),
                    }
                ),
                _ => println!("journal for {name:?}: fresh log"),
            }
        }
    }
    println!("serving until the process is killed (Ctrl-C)");
    // Park forever: the accept loop and workers own the serving; Ctrl-C
    // tears the process (and with it the socket) down.
    loop {
        std::thread::park();
    }
}

/// `nimbus client <action>`.
fn client(addr: &str, action: ClientAction) -> Result<String, String> {
    let config = ClientConfig::default();
    let mut out = String::new();
    match action {
        ClientAction::Menu { listing } => {
            let mut conn = NimbusClient::connect(addr, &config).map_err(|e| e.to_string())?;
            let menu = conn.menu(listing.as_deref()).map_err(|e| e.to_string())?;
            let _ = writeln!(
                out,
                "menu from {addr} (epoch {}, {} metric, {} versions):",
                menu.epoch,
                menu.metric,
                menu.points.len()
            );
            for (x, p) in menu.points.iter().step_by((menu.points.len() / 10).max(1)) {
                let _ = writeln!(out, "  1/NCP {x:>8.2}  price {p:>8.2}");
            }
        }
        ClientAction::Info { listing } => {
            let mut conn = NimbusClient::connect(addr, &config).map_err(|e| e.to_string())?;
            let info = conn.info(listing.as_deref()).map_err(|e| e.to_string())?;
            let _ = writeln!(out, "listing {:?} at {addr}:", info.listing);
            let _ = writeln!(out, "  metric           : {}", info.metric);
            let _ = writeln!(out, "  snapshot epoch   : {}", info.epoch);
            let _ = writeln!(
                out,
                "  menu             : {} versions on 1/NCP in [{:.2}, {:.2}]",
                info.menu_len, info.x_lo, info.x_hi
            );
            let _ = writeln!(out, "  expected revenue : {:.2}", info.expected_revenue);
            let _ = writeln!(
                out,
                "  ledger           : {} sales, revenue {:.2}",
                info.sales, info.revenue
            );
        }
        ClientAction::Listings => {
            let mut conn = NimbusClient::connect(addr, &config).map_err(|e| e.to_string())?;
            let listings = conn.listings().map_err(|e| e.to_string())?;
            let _ = writeln!(
                out,
                "{} listing(s) at {addr} (default {:?}):",
                listings.listings.len(),
                listings.default_listing
            );
            let _ = writeln!(
                out,
                "  {:<20} {:<20} {:<10} {:>6} {:>10}",
                "listing", "model", "state", "open", "E[revenue]"
            );
            for l in &listings.listings {
                let _ = writeln!(
                    out,
                    "  {:<20} {:<20} {:<10} {:>6} {:>10.2}",
                    l.name, l.model_kind, l.state, l.open, l.expected_revenue
                );
            }
        }
        ClientAction::Publish { listing } => {
            let mut conn = NimbusClient::connect(addr, &config).map_err(|e| e.to_string())?;
            let (epoch, expected_revenue) = conn.publish(&listing).map_err(|e| e.to_string())?;
            let _ = writeln!(
                out,
                "published {listing:?}: epoch {epoch} is live (expected revenue {:.2}); \
                 quotes from earlier epochs are now void",
                expected_revenue
            );
        }
        ClientAction::Retire { listing } => {
            let mut conn = NimbusClient::connect(addr, &config).map_err(|e| e.to_string())?;
            conn.retire(&listing).map_err(|e| e.to_string())?;
            let _ = writeln!(out, "retired {listing:?}: it no longer quotes or sells");
        }
        ClientAction::Stats { text } => {
            let mut conn = NimbusClient::connect(addr, &config).map_err(|e| e.to_string())?;
            let stats = conn.stats().map_err(|e| e.to_string())?;
            if text {
                out.push_str(&render_prometheus(&stats));
                return Ok(out);
            }
            let _ = writeln!(out, "server stats at {addr}:");
            let _ = writeln!(out, "  connections      : {}", stats.connections);
            let _ = writeln!(out, "  busy rejections  : {}", stats.busy_rejections);
            let _ = writeln!(out, "  protocol errors  : {}", stats.protocol_errors);
            let _ = writeln!(out, "  queue depth      : {}", stats.queue_depth);
            let _ = writeln!(
                out,
                "  {:<8} {:>10} {:>8} {:>12} {:>12}",
                "op", "requests", "errors", "p50 (µs ≤)", "p99 (µs ≤)"
            );
            for op in &stats.ops {
                let _ = writeln!(
                    out,
                    "  {:<8} {:>10} {:>8} {:>12} {:>12}",
                    op.op, op.requests, op.errors, op.p50_micros, op.p99_micros
                );
            }
            if !stats.listings.is_empty() {
                let _ = writeln!(
                    out,
                    "  {:<16} {:<10} {:>8} {:>10} {:>14} {:>10} {:>8} {:>8} {:>6}",
                    "listing",
                    "state",
                    "sales",
                    "revenue",
                    "budget-rejects",
                    "exhausted",
                    "flushes",
                    "records",
                    "waits"
                );
                for l in &stats.listings {
                    let _ = writeln!(
                        out,
                        "  {:<16} {:<10} {:>8} {:>10.2} {:>14} {:>10} {:>8} {:>8} {:>6}",
                        l.listing,
                        l.state,
                        l.sales,
                        l.revenue,
                        l.budget_rejects,
                        l.exhausted_buyers,
                        l.journal_flushes,
                        l.journal_records,
                        l.journal_window_waits
                    );
                }
            }
        }
        ClientAction::Account { buyer, listing } => {
            let mut conn = NimbusClient::connect(addr, &config).map_err(|e| e.to_string())?;
            let account = conn
                .account(listing.as_deref(), buyer)
                .map_err(|e| e.to_string())?;
            let _ = writeln!(
                out,
                "account for buyer {} on listing {:?} at {addr}:",
                account.buyer, account.listing
            );
            let _ = writeln!(out, "  spent (sum x)    : {:.4}", account.spent);
            match (account.budget, account.remaining) {
                (Some(budget), Some(remaining)) => {
                    let _ = writeln!(out, "  budget           : {budget:.4}");
                    let _ = writeln!(out, "  remaining        : {remaining:.4}");
                }
                _ => {
                    let _ = writeln!(out, "  budget           : unmetered");
                }
            }
        }
        ClientAction::Buy {
            request,
            listing,
            buyer,
        } => {
            let mut conn = NimbusClient::connect(addr, &config).map_err(|e| e.to_string())?;
            conn.set_buyer(buyer);
            let req = match request {
                BuyRequest::ErrorBudget(e) => PurchaseRequest::ErrorBudget(e),
                BuyRequest::PriceBudget(p) => PurchaseRequest::PriceBudget(p),
                BuyRequest::AtInverseNcp(x) => PurchaseRequest::AtInverseNcp(x),
            };
            let quote = conn
                .quote(listing.as_deref(), req)
                .map_err(|e| e.to_string())?;
            let sale = conn
                .commit(&quote, quote.price)
                .map_err(|e| e.to_string())?;
            let _ = writeln!(out, "purchased over the wire from {addr}:");
            let _ = writeln!(out, "  version       : 1/NCP = {:.2}", sale.inverse_ncp);
            let _ = writeln!(out, "  price         : {:.2}", sale.price);
            let _ = writeln!(
                out,
                "  {:<14}: {:.5}",
                metric_label(&sale.metric),
                sale.expected_error
            );
            let _ = writeln!(
                out,
                "  model         : {} weights delivered, first = {:.4}",
                sale.weights.len(),
                sale.weights.first().copied().unwrap_or(f64::NAN)
            );
            let _ = writeln!(out, "  transaction   : #{}", sale.transaction);
            if let Some(buyer) = buyer {
                // The purchase has already succeeded, so a failed account
                // lookup is reported on its line, not as a failure.
                let _ = match conn.account(listing.as_deref(), buyer) {
                    Ok(account) => writeln!(
                        out,
                        "  buyer {buyer:<8}: spent {:.4}{}",
                        account.spent,
                        match account.remaining {
                            Some(r) => format!(", remaining {r:.4}"),
                            None => " (unmetered)".to_string(),
                        }
                    ),
                    Err(e) => writeln!(out, "  buyer {buyer:<8}: account lookup failed: {e}"),
                };
            }
        }
        ClientAction::Load {
            threads,
            requests,
            buy,
            retries,
            mix,
            pipeline,
            batch,
            buyer,
        } => {
            let resolved: std::net::SocketAddr = {
                use std::net::ToSocketAddrs;
                addr.to_socket_addrs()
                    .map_err(|e| e.to_string())?
                    .next()
                    .ok_or_else(|| format!("address {addr:?} resolved to nothing"))?
            };
            let load = LoadConfig {
                threads,
                requests_per_thread: requests,
                mode: if buy { LoadMode::Buy } else { LoadMode::Quote },
                client: config,
                busy_retries: retries,
                mix,
                pipeline_depth: pipeline,
                batch_size: batch,
                buyer,
                ..LoadConfig::default()
            };
            let report = run_load(resolved, &load);
            let _ = writeln!(
                out,
                "load against {addr}: {threads} thread(s) x {requests} {} request(s)",
                if buy { "buy" } else { "quote" }
            );
            let _ = writeln!(
                out,
                "  ok / busy / errors : {} / {} / {}",
                report.ok, report.busy, report.errors
            );
            let _ = writeln!(out, "  retried sheds      : {}", report.busy_retried);
            let _ = writeln!(out, "  budget-rejected    : {}", report.budget_rejected);
            let _ = writeln!(
                out,
                "  ok rate            : {:.1}%",
                100.0 * report.ok_rate()
            );
            let _ = writeln!(out, "  open connections   : {}", report.open_connections);
            let _ = writeln!(
                out,
                "  latency p50 / p99  : {} us / {} us",
                report.p50_micros, report.p99_micros
            );
            let _ = writeln!(out, "  elapsed            : {:?}", report.elapsed);
            let _ = writeln!(
                out,
                "  throughput         : {:.0} req/s",
                report.throughput()
            );
            let _ = writeln!(
                out,
                "  shed rate          : {:.1}%",
                100.0 * report.shed_rate()
            );
            if buy {
                let _ = writeln!(out, "  revenue observed   : {:.2}", report.revenue);
            }
            for slice in &report.per_listing {
                let _ = writeln!(
                    out,
                    "  listing {:<12}: {} ok, revenue {:.2}",
                    format!("{:?}", slice.listing),
                    slice.ok,
                    slice.revenue
                );
            }
        }
    }
    Ok(out)
}

/// Runs the closed-loop agent-ecology simulator (`nimbus sim ...`).
fn sim(action: SimAction) -> Result<String, String> {
    use nimbus::agents::metrics::{parse_log, summarize};
    use nimbus::agents::run_scenario;
    use nimbus::market::clock::wall_clock;

    let mut out = String::new();
    match action {
        SimAction::Scenarios => {
            let _ = writeln!(out, "built-in scenarios:");
            for name in Scenario::BUILTIN_NAMES {
                let s = Scenario::builtin(name).expect("catalog name resolves");
                let _ = writeln!(
                    out,
                    "  {:<12} {} agents x {} ticks, {} listing(s), re-price every {}, {} event(s)",
                    name,
                    s.agents,
                    s.ticks,
                    s.listings.len(),
                    s.reprice_every,
                    s.events.len()
                );
            }
        }
        SimAction::Run {
            scenario,
            file,
            seed,
            out: journal_path,
        } => {
            let resolved = match file {
                Some(path) => {
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("cannot read scenario file {path:?}: {e}"))?;
                    Scenario::parse(&text).map_err(|e| e.to_string())?
                }
                None => Scenario::builtin(&scenario).ok_or_else(|| {
                    format!(
                        "unknown scenario {scenario:?}; built-ins: {}",
                        Scenario::BUILTIN_NAMES.join(", ")
                    )
                })?,
            };
            let harness = SimHarness::start(&resolved, seed).map_err(|e| e.to_string())?;
            // The wall clock only feeds the elapsed/re-price latency
            // lines below; the journal itself excludes timings, so the
            // determinism contract survives the live clock.
            let outcome = run_scenario(
                &resolved,
                seed,
                harness.server.local_addr(),
                &harness.marketplace,
                &wall_clock(),
            )
            .map_err(|e| e.to_string())?;
            harness.server.shutdown();
            if let Some(path) = journal_path {
                std::fs::write(&path, &outcome.log)
                    .map_err(|e| format!("cannot write journal {path:?}: {e}"))?;
                let _ = writeln!(out, "journal written to {path}");
            }
            let _ = writeln!(
                out,
                "scenario {:?} seed {} over {} listing(s): {:?}",
                outcome.scenario,
                outcome.seed,
                outcome.listings.len(),
                outcome.listings
            );
            let _ = writeln!(
                out,
                "  elapsed            : {:?} ({:.0} ticks/s)",
                outcome.elapsed,
                outcome.records.len() as f64 / outcome.elapsed.as_secs_f64().max(1e-9)
            );
            let _ = writeln!(
                out,
                "  re-price cycles    : {} (total {:?}, max {:?})",
                outcome.reprice_count, outcome.reprice_total, outcome.reprice_max
            );
            let _ = writeln!(
                out,
                "  acked sales        : {} for {:.2} revenue",
                outcome.acked_commits(),
                outcome.acked_revenue()
            );
            out.push_str(&summarize(&outcome.records));
        }
        SimAction::Report { file } => {
            let text = std::fs::read_to_string(&file)
                .map_err(|e| format!("cannot read journal {file:?}: {e}"))?;
            let records = parse_log(&text).map_err(|e| e.to_string())?;
            out.push_str(&summarize(&records));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_args;

    fn run(args: &[&str]) -> Result<String, String> {
        crate::run(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&["help"]).unwrap();
        assert!(out.contains("nimbus demo"));
        assert!(out.contains("nimbus attack"));
    }

    #[test]
    fn price_command_reports_all_strategies() {
        let out = run(&["price", "--value", "concave", "--points", "12"]).unwrap();
        for name in ["MBP", "Lin", "MaxC", "MedC", "OptC"] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
        assert!(out.contains("price curve"));
    }

    #[test]
    fn buy_with_error_budget() {
        let out = run(&["buy", "--error-budget", "0.1", "--dataset", "CASP"]).unwrap();
        assert!(out.contains("E[square loss]"));
        assert!(out.contains("CASP"));
    }

    #[test]
    fn buy_with_classification_metrics() {
        let zero_one = run(&[
            "buy",
            "--error-budget",
            "0.45",
            "--dataset",
            "Simulated2",
            "--metric",
            "zero_one",
        ])
        .unwrap();
        assert!(zero_one.contains("E[0/1 error]"), "{zero_one}");
        assert!(zero_one.contains("Simulated2"));
        let logistic = run(&[
            "buy",
            "--error-budget",
            "0.69",
            "--dataset",
            "Simulated2",
            "--metric",
            "logistic",
        ])
        .unwrap();
        assert!(logistic.contains("E[logistic loss]"), "{logistic}");
    }

    #[test]
    fn buy_rejects_bad_metric_combinations() {
        let err = run(&[
            "buy",
            "--at",
            "5",
            "--dataset",
            "CASP",
            "--metric",
            "logistic",
        ])
        .unwrap_err();
        assert!(err.contains("binary-classification"), "{err}");
        let err = run(&["buy", "--at", "5", "--metric", "nope"]).unwrap_err();
        assert!(err.contains("unknown metric"), "{err}");
    }

    #[test]
    fn attack_naive_finds_arbitrage_mbp_does_not() {
        let naive = run(&["attack", "--naive", "--points", "10"]).unwrap();
        assert!(naive.contains("ARBITRAGE FOUND"), "{naive}");
        let mbp = run(&["attack", "--points", "10"]).unwrap();
        assert!(mbp.contains("no arbitrage exists"), "{mbp}");
    }

    #[test]
    fn demo_runs_end_to_end() {
        let out = run(&["demo", "--dataset", "Simulated1", "--seed", "3"]).unwrap();
        assert!(out.contains("opened the market"));
        assert!(out.contains("NO attack exists"));
        assert!(out.contains("ledger"));
    }

    #[test]
    fn unknown_names_are_reported() {
        assert!(run(&["demo", "--dataset", "MNIST"])
            .unwrap_err()
            .contains("unknown dataset"));
        assert!(run(&["price", "--value", "wavy"])
            .unwrap_err()
            .contains("unknown value shape"));
        assert!(run(&["price", "--demand", "weird"])
            .unwrap_err()
            .contains("unknown demand shape"));
    }

    #[test]
    fn classification_dataset_demo() {
        let out = run(&["demo", "--dataset", "CovType", "--seed", "5"]).unwrap();
        assert!(out.contains("CovType"));
        assert!(out.contains("sales"));
    }

    #[test]
    fn fairness_command_reports_frontier() {
        let out = run(&["fairness", "--points", "30", "--tau", "0.9"]).unwrap();
        assert!(out.contains("frontier"));
        assert!(out.contains("hard floor"));
        assert!(out.contains("lambda"));
    }

    #[test]
    fn curve_command_regression_and_classification() {
        let reg = run(&["curve", "--dataset", "CASP", "--samples", "20"]).unwrap();
        assert!(reg.contains("test MSE"), "{reg}");
        let cls = run(&["curve", "--dataset", "SUSY", "--samples", "20"]).unwrap();
        assert!(cls.contains("0/1 error"), "{cls}");
    }

    #[test]
    fn client_commands_against_in_process_server() {
        // `serve` itself blocks forever, so the test drives the same
        // builder the command uses and points `nimbus client` at it.
        let datasets = vec!["Simulated1".to_string(), "Simulated2".to_string()];
        let server = start_marketplace_server(
            "127.0.0.1:0",
            &datasets,
            "square",
            3,
            1,
            2,
            32,
            None,
            None,
            None,
        )
        .unwrap();
        let addr = server.local_addr().to_string();

        let menu = run(&["client", "menu", "--addr", &addr]).unwrap();
        assert!(menu.contains("epoch"), "{menu}");
        assert!(menu.contains("price"), "{menu}");

        let listings = run(&["client", "listings", "--addr", &addr]).unwrap();
        assert!(listings.contains("Simulated1"), "{listings}");
        assert!(listings.contains("Simulated2"), "{listings}");
        assert!(listings.contains("default \"Simulated1\""), "{listings}");

        let buy = run(&["client", "buy", "--at", "25", "--addr", &addr]).unwrap();
        assert!(buy.contains("purchased over the wire"), "{buy}");
        assert!(buy.contains("weights delivered"), "{buy}");

        // Routed buy against the second listing.
        let routed = run(&[
            "client",
            "buy",
            "--at",
            "25",
            "--listing",
            "Simulated2",
            "--addr",
            &addr,
        ])
        .unwrap();
        assert!(routed.contains("purchased over the wire"), "{routed}");

        let load = run(&[
            "client",
            "load",
            "--threads",
            "2",
            "--requests",
            "5",
            "--buy",
            "--mix",
            "Simulated1=1,Simulated2=1",
            "--addr",
            &addr,
        ])
        .unwrap();
        assert!(load.contains("throughput"), "{load}");
        assert!(load.contains("revenue observed"), "{load}");
        assert!(load.contains("listing \"Simulated1\""), "{load}");
        assert!(load.contains("listing \"Simulated2\""), "{load}");

        // 1 unrouted CLI buy + the Simulated1 half of the 2×5 load buys.
        let info = run(&["client", "info", "--addr", &addr]).unwrap();
        assert!(info.contains("6 sales"), "{info}");
        let info2 = run(&["client", "info", "--listing", "Simulated2", "--addr", &addr]).unwrap();
        // 1 routed CLI buy + the Simulated2 half of the load buys.
        assert!(info2.contains("6 sales"), "{info2}");

        // Live lifecycle: re-publish bumps the epoch, retire sheds.
        let published = run(&[
            "client",
            "publish",
            "--listing",
            "Simulated2",
            "--addr",
            &addr,
        ])
        .unwrap();
        assert!(published.contains("epoch"), "{published}");
        let retired = run(&[
            "client",
            "retire",
            "--listing",
            "Simulated2",
            "--addr",
            &addr,
        ])
        .unwrap();
        assert!(retired.contains("retired"), "{retired}");
        let err = run(&[
            "client",
            "buy",
            "--at",
            "25",
            "--listing",
            "Simulated2",
            "--addr",
            &addr,
        ])
        .unwrap_err();
        assert!(err.contains("retired"), "{err}");

        let stats = run(&["client", "stats", "--addr", &addr]).unwrap();
        assert!(stats.contains("commit"), "{stats}");
        assert!(stats.contains("busy rejections"), "{stats}");
        server.shutdown();

        // With the server gone, client commands fail with an error string
        // instead of hanging.
        assert!(run(&["client", "menu", "--addr", &addr]).is_err());
    }

    #[test]
    fn metered_buyers_over_the_cli() {
        // A server with a tight per-buyer noise budget: one x=25 purchase
        // fits, the second (identical) one must be rejected with the
        // typed error, and `client account` reads the ledger truth.
        let datasets = vec!["Simulated1".to_string(), "Simulated2".to_string()];
        let server = start_marketplace_server(
            "127.0.0.1:0",
            &datasets,
            "square",
            3,
            1,
            2,
            32,
            None,
            None,
            Some(40.0),
        )
        .unwrap();
        let addr = server.local_addr().to_string();

        let first = run(&[
            "client", "buy", "--at", "25", "--buyer", "9", "--addr", &addr,
        ])
        .unwrap();
        assert!(first.contains("purchased over the wire"), "{first}");
        assert!(first.contains("buyer 9"), "{first}");
        assert!(first.contains("remaining 15"), "{first}");

        let err = run(&[
            "client", "buy", "--at", "25", "--buyer", "9", "--addr", &addr,
        ])
        .unwrap_err();
        assert!(err.contains("budget_exhausted"), "{err}");

        // An anonymous buy on the same listing is unmetered.
        let anon = run(&["client", "buy", "--at", "25", "--addr", &addr]).unwrap();
        assert!(anon.contains("purchased over the wire"), "{anon}");

        // A routed buy reports the buyer's account on the listing it sold on.
        let routed = run(&[
            "client",
            "buy",
            "--at",
            "10",
            "--buyer",
            "9",
            "--listing",
            "Simulated2",
            "--addr",
            &addr,
        ])
        .unwrap();
        assert!(
            routed.contains("spent 10.0000, remaining 30.0000"),
            "{routed}"
        );

        let account = run(&["client", "account", "9", "--addr", &addr]).unwrap();
        assert!(account.contains("buyer 9"), "{account}");
        assert!(account.contains("spent (sum x)    : 25.0000"), "{account}");
        assert!(account.contains("budget           : 40.0000"), "{account}");
        assert!(account.contains("remaining        : 15.0000"), "{account}");
        // A buyer that never bought reads as a zero account, not an error.
        let fresh = run(&["client", "account", "777", "--addr", &addr]).unwrap();
        assert!(fresh.contains("spent (sum x)    : 0.0000"), "{fresh}");

        // The reject shows up in the stats table and Prometheus text.
        let stats = run(&["client", "stats", "--addr", &addr]).unwrap();
        assert!(stats.contains("budget-rejects"), "{stats}");
        let text = run(&["client", "stats", "--text", "--addr", &addr]).unwrap();
        assert!(
            text.contains("nimbus_listing_budget_rejects_total"),
            "{text}"
        );
        server.shutdown();
    }

    #[test]
    fn journalled_serve_reports_group_commit_counters() {
        let path =
            std::env::temp_dir().join(format!("nimbus-cli-serve-{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let datasets = vec!["Simulated1".to_string()];
        let server = start_marketplace_server(
            "127.0.0.1:0",
            &datasets,
            "square",
            3,
            1,
            2,
            32,
            path.to_str(),
            None,
            None,
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        for _ in 0..2 {
            let bought = run(&["client", "buy", "--at", "25", "--addr", &addr]).unwrap();
            assert!(bought.contains("purchased over the wire"), "{bought}");
        }
        // Two lone commits: two flushes of one record, neither gathering.
        let text = run(&["client", "stats", "--text", "--addr", &addr]).unwrap();
        for series in [
            "nimbus_listing_journal_flushes_total{listing=\"Simulated1\"} 2",
            "nimbus_listing_journal_records_total{listing=\"Simulated1\"} 2",
            "nimbus_listing_journal_window_waits_total{listing=\"Simulated1\"} 0",
        ] {
            assert!(text.contains(series), "{text}");
        }
        let table = run(&["client", "stats", "--addr", &addr]).unwrap();
        assert!(table.contains("flushes"), "{table}");
        server.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parse_then_run_pipeline_matches() {
        let cmd = parse_args(["help".to_string()]).unwrap();
        let out = run_command(cmd).unwrap();
        assert!(out.contains("usage"));
    }

    #[test]
    fn sim_scenarios_lists_the_catalog() {
        let out = run(&["sim", "scenarios"]).unwrap();
        for name in nimbus::agents::Scenario::BUILTIN_NAMES {
            assert!(out.contains(name), "missing scenario {name}");
        }
    }

    #[test]
    fn sim_run_smoke_then_report_roundtrips() {
        let dir = std::env::temp_dir().join(format!("nimbus-cli-sim-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("smoke.jsonl");
        let journal_arg = journal.to_str().unwrap().to_string();
        let out = run(&[
            "sim",
            "run",
            "--scenario",
            "smoke",
            "--seed",
            "7",
            "--out",
            &journal_arg,
        ])
        .unwrap();
        assert!(out.contains("scenario \"smoke\" seed 7"));
        assert!(out.contains("re-price cycles"));
        let report = run(&["sim", "report", &journal_arg]).unwrap();
        // The report over the saved journal matches the run's own summary
        // tail (the run output prefixes harness/timing lines).
        assert!(out.ends_with(&report));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sim_run_rejects_unknown_scenario() {
        let err = run(&["sim", "run", "--scenario", "no-such"]).unwrap_err();
        assert!(err.contains("unknown scenario"));
        assert!(err.contains("smoke"));
    }
}
