//! Building the workload's marketplace and server, and timing set-up.

use crate::affinity;
use crate::workload::{ListingSpec, Rng, BUYER_BUDGET, GROUP_COMMIT_WINDOW};
use nimbus_core::arbitrage::check_arbitrage_free_after_phi;
use nimbus_core::{
    CurveProvider, ErrorCurve, GaussianMechanism, InverseNcp, Ncp, PiecewiseLinearPricing,
    RandomizedMechanism, SnappedGaussianMechanism,
};
use nimbus_data::TrainTest;
use nimbus_market::curves::{DemandCurve, MarketCurves, ValueCurve};
use nimbus_market::{ListingBuilder, Marketplace, PurchaseRequest, Seller};
use nimbus_ml::{LinearRegressionTrainer, LogisticRegressionTrainer, LossMetric, Trainer};
use nimbus_optim::{solve_revenue_dp, RevenueProblem};
use nimbus_server::{ClientConfig, NimbusClient, NimbusServer, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Menu points per listing, as the shipped `serve` command posts.
const PRICE_POINTS: usize = 50;
/// Monte-Carlo samples per menu point for non-square metrics.
const CURVE_SAMPLES: usize = 50;

/// The layout `nimbus serve` ships: 2 shards × 2 workers, 64 pending jobs
/// per shard before it sheds with `BUSY`.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        shards: 2,
        workers_per_shard: 2,
        queue_capacity: 64,
        ..ServerConfig::default()
    }
}

fn curves() -> MarketCurves {
    MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform)
}

/// A workload's listings: specs plus the seeds their datasets and noise
/// streams are drawn from. Datasets are materialized on demand (before
/// any clock starts), so only the live marketplace holds a copy.
pub struct Listings {
    pub specs: Vec<ListingSpec>,
    data_seeds: Vec<u64>,
    pub seeds: Vec<u64>,
}

impl Listings {
    pub fn generate(specs: Vec<ListingSpec>, rng: &mut Rng) -> Listings {
        let data_seeds = specs.iter().map(|_| rng.fork()).collect();
        let seeds = specs.iter().map(|_| rng.fork()).collect();
        Listings {
            specs,
            data_seeds,
            seeds,
        }
    }

    pub fn names(&self) -> Vec<&'static str> {
        self.specs.iter().map(|s| s.name).collect()
    }

    pub fn data(&self, i: usize) -> Result<TrainTest, String> {
        let (tt, _) = self.specs[i]
            .spec()
            .materialize(self.data_seeds[i])
            .map_err(|e| e.to_string())?;
        Ok(tt)
    }

    fn builder(&self, i: usize, journal_root: Option<&Path>) -> Result<ListingBuilder, String> {
        let spec = self.specs[i];
        let data = self.data(i)?;
        let test = data.test.clone();
        let seller = Seller::new(spec.name, data, curves());
        let mut b = ListingBuilder::new(spec.name, seller)
            .n_price_points(PRICE_POINTS)
            .error_curve_samples(CURVE_SAMPLES)
            .seed(self.seeds[i]);
        b = if spec.logistic {
            b.model_kind("logistic_regression")
                .trainer(LogisticRegressionTrainer::new(1e-4))
                .error_metric(LossMetric::logistic(test))
        } else {
            b.trainer(LinearRegressionTrainer::ridge(1e-6))
        };
        b = if spec.snapped {
            b.mechanism(SnappedGaussianMechanism)
                .mechanism_name("snapped_gaussian")
        } else {
            b.mechanism(GaussianMechanism)
        };
        if let Some(root) = journal_root {
            b = b
                .journal_root(root)
                .journal_group_commit_window(GROUP_COMMIT_WINDOW)
                .buyer_budget(BUYER_BUDGET);
        }
        Ok(b)
    }

    pub fn builders(&self, journal_root: Option<&Path>) -> Result<Vec<ListingBuilder>, String> {
        (0..self.specs.len())
            .map(|i| self.builder(i, journal_root))
            .collect()
    }

    /// Opens the marketplace in-process, without a server.
    pub fn open(&self, journal_root: Option<&Path>) -> Result<Marketplace, String> {
        Marketplace::open_listings(self.builders(journal_root)?).map_err(|e| e.to_string())
    }
}

/// A running server over the workload's marketplace.
pub struct Served {
    pub server: NimbusServer,
    pub market: Arc<Marketplace>,
    pub journal_root: Option<PathBuf>,
}

/// `Marketplace::open_listings` + `NimbusServer::start` until the first
/// OK response, timed. Builders (dataset clones) are made before the
/// clock starts.
pub fn start(listings: &Listings, journal_root: Option<PathBuf>) -> Result<(Served, f64), String> {
    if let Some(root) = &journal_root {
        let _ = std::fs::remove_dir_all(root);
    }
    let builders = listings.builders(journal_root.as_deref())?;
    let default = listings.specs[0].name;
    let started = Instant::now();
    let market = Arc::new(Marketplace::open_listings(builders).map_err(|e| e.to_string())?);
    let split = affinity::split();
    if split {
        affinity::pin_current_thread(&[affinity::SERVER_CPU]);
    }
    let server = NimbusServer::start(market.clone(), default, "127.0.0.1:0", server_config());
    if split {
        affinity::pin_current_thread(&[]);
    }
    let server = server.map_err(|e| e.to_string())?;
    let mut client = NimbusClient::connect(server.local_addr(), &ClientConfig::default())
        .map_err(|e| e.to_string())?;
    client
        .quote_on(default, PurchaseRequest::AtInverseNcp(1.0))
        .map_err(|e| format!("first quote failed: {e}"))?;
    let secs = started.elapsed().as_secs_f64();
    Ok((
        Served {
            server,
            market,
            journal_root,
        },
        secs,
    ))
}

/// Sets up `reps` times, keeping the last server; returns every set-up
/// time. Earlier servers are shut down and their journals removed.
pub fn start_repeated(
    listings: &Listings,
    workdir: &Path,
    journalled: bool,
    reps: usize,
) -> Result<(Served, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps.max(1) {
        if let Some(prev) = last.take() {
            stop(prev);
        }
        let root = journalled.then(|| workdir.join(format!("journal-{rep}")));
        let (served, secs) = start(listings, root)?;
        times.push(secs);
        last = Some(served);
    }
    let served = last.ok_or("no set-up ran")?;
    Ok((served, times))
}

/// Shuts a server down and removes its journals.
pub fn stop(served: Served) {
    served.server.shutdown();
    if let Some(root) = served.journal_root {
        let _ = std::fs::remove_dir_all(root);
    }
}

/// Set-up time split by layer: the trainer, error-curve estimation, the
/// revenue DP and the post-φ arbitrage check, each called on the inputs
/// `Broker::open_market` uses, listing by listing.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupLayers {
    pub train_s: f64,
    pub curve_s: f64,
    pub dp_s: f64,
    pub arbitrage_s: f64,
}

impl SetupLayers {
    pub fn total_s(&self) -> f64 {
        self.train_s + self.curve_s + self.dp_s + self.arbitrage_s
    }
}

pub fn setup_layers(listings: &Listings) -> Result<SetupLayers, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut out = SetupLayers::default();
    for (i, spec) in listings.specs.iter().enumerate() {
        let data = &listings.data(i)?;
        let t = Instant::now();
        let optimal = if spec.logistic {
            LogisticRegressionTrainer::new(1e-4).train(&data.train)
        } else {
            LinearRegressionTrainer::ridge(1e-6).train(&data.train)
        }
        .map_err(|e| err(&e))?;
        out.train_s += t.elapsed().as_secs_f64();

        let market = curves();
        let t = Instant::now();
        let (problem, curve) = if spec.logistic {
            let deltas: Vec<Ncp> = (0..PRICE_POINTS)
                .map(|k| {
                    let x = market.x_lo
                        + (market.x_hi - market.x_lo) * k as f64 / (PRICE_POINTS - 1) as f64;
                    InverseNcp::new(x).map(|x| x.ncp())
                })
                .collect::<Result<_, _>>()
                .map_err(|e| err(&e))?;
            let provider = CurveProvider::new(
                CURVE_SAMPLES,
                nimbus_randkit::split_stream(listings.seeds[i], u64::MAX),
            );
            let metric = LossMetric::logistic(data.test.clone());
            let mechanism: &(dyn RandomizedMechanism + Sync) = if spec.snapped {
                &SnappedGaussianMechanism
            } else {
                &GaussianMechanism
            };
            let curve = provider
                .curve_for(&metric, mechanism, &optimal, &deltas)
                .map_err(|e| err(&e))?;
            out.curve_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let pts = curve.points();
            let (e_lo, e_hi) = (pts[0].smoothed_error, pts[pts.len() - 1].smoothed_error);
            let range = e_hi - e_lo;
            let t_of = move |e: f64| if range > 0.0 { (e_hi - e) / range } else { 0.5 };
            let (value, demand) = (market.value, market.demand);
            let problem = RevenueProblem::on_phi_grid(
                &curve,
                move |e| value.value_at(t_of(e)),
                move |e| demand.mass_at(t_of(e)),
            )
            .map_err(|e| err(&e))?;
            out.dp_s += t.elapsed().as_secs_f64();
            (problem, curve)
        } else {
            let problem = market.build_problem(PRICE_POINTS).map_err(|e| err(&e))?;
            let deltas: Vec<Ncp> = problem
                .parameters()
                .iter()
                .map(|&x| InverseNcp::new(x).map(|x| x.ncp()))
                .collect::<Result<_, _>>()
                .map_err(|e| err(&e))?;
            let curve = ErrorCurve::analytic_square_loss(&deltas).map_err(|e| err(&e))?;
            out.curve_s += t.elapsed().as_secs_f64();
            (problem, curve)
        };

        let t = Instant::now();
        let solution = solve_revenue_dp(&problem).map_err(|e| err(&e))?;
        let pricing = PiecewiseLinearPricing::new(
            problem
                .parameters()
                .into_iter()
                .zip(solution.prices.iter().copied())
                .collect(),
        )
        .map_err(|e| err(&e))?;
        out.dp_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let report = check_arbitrage_free_after_phi(&pricing, &curve, 1e-6).map_err(|e| err(&e))?;
        out.arbitrage_s += t.elapsed().as_secs_f64();
        if !report.is_arbitrage_free() {
            return Err(format!(
                "listing {} fails the post-φ arbitrage check",
                spec.name
            ));
        }
    }
    Ok(out)
}
