//! Stands up the real serving stack for a simulation run.
//!
//! The simulator is deliberately *not* an in-process mock: agents speak
//! the pipelined wire protocol over real TCP to a real [`NimbusServer`]
//! fronting a real [`Marketplace`], so every run doubles as a
//! protocol/serving soak.
//! The harness builds one published listing per [`crate::scenario::ListingSpec`] (small
//! synthetic datasets — the simulation exercises market dynamics, not
//! training scale), starts the server on an ephemeral port, and hands the
//! `Arc<Marketplace>` to the engine so the re-pricer can publish through
//! the same directory the server routes against.

use crate::scenario::Scenario;
use crate::{AgentsError, Result};
use nimbus_core::GaussianMechanism;
use nimbus_data::catalog::{DatasetSpec, PaperDataset};
use nimbus_market::{DemandCurve, ListingBuilder, MarketCurves, Marketplace, Seller, ValueCurve};
use nimbus_ml::LinearRegressionTrainer;
use nimbus_server::{NimbusServer, ServerConfig};
use std::sync::Arc;

/// Menu resolution of harness listings: small enough that a modest agent
/// population covers the grid with observations inside one re-price
/// window, large enough for the DP to have real choices.
const PRICE_POINTS: usize = 16;
/// Rows in the synthetic training set.
const DATASET_ROWS: usize = 400;
/// Stream label separating market seeds from agent seeds.
const MARKET_STREAM: u64 = 0x4D4B_5453;

/// A running marketplace + server pair for one scenario.
pub struct SimHarness {
    /// The marketplace the server routes against; the engine re-prices
    /// through it in-process.
    pub marketplace: Arc<Marketplace>,
    /// The live TCP server. Shut down (or drop) when the run ends.
    pub server: NimbusServer,
}

impl SimHarness {
    /// Builds and publishes the scenario's listings and starts the
    /// server on an ephemeral local port.
    pub fn start(scenario: &Scenario, seed: u64) -> Result<SimHarness> {
        scenario.validate()?;
        let mut builders = Vec::with_capacity(scenario.listings.len());
        for spec in &scenario.listings {
            let mut builder = listing_builder(
                &spec.name,
                nimbus_randkit::split_stream(seed, MARKET_STREAM ^ spec.seed_label),
            )?;
            if let Some(budget) = scenario.buyer_budget {
                builder = builder.buyer_budget(budget);
            }
            builders.push(builder);
        }
        let marketplace =
            Arc::new(Marketplace::open_listings(builders).map_err(AgentsError::Market)?);
        let default_listing = scenario.listings[0].name.clone();
        let config = ServerConfig {
            // Head-room over the engine's pipelining window: the engine
            // keeps at most `connections × MAX_IN_FLIGHT` frames
            // outstanding, and it answers a queue-overflow `BUSY` by
            // reconnecting and re-sending, which would cost a reconnect
            // mid-run. (The server itself keeps the connection open.)
            queue_capacity: 4096,
            ..ServerConfig::default()
        };
        let server =
            NimbusServer::start(marketplace.clone(), default_listing, "127.0.0.1:0", config)
                .map_err(AgentsError::Server)?;
        Ok(SimHarness {
            marketplace,
            server,
        })
    }
}

/// One published listing on a small synthetic regression dataset, square
/// metric (analytic error curve — fast and deterministic).
fn listing_builder(name: &str, market_seed: u64) -> Result<ListingBuilder> {
    let (tt, _) = DatasetSpec::scaled(PaperDataset::Simulated1, DATASET_ROWS)
        .materialize(market_seed)
        .map_err(|e| AgentsError::Config(format!("dataset for listing `{name}`: {e}")))?;
    let seller = Seller::new(
        name,
        tt,
        MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform),
    );
    Ok(ListingBuilder::new(name, seller)
        .trainer(LinearRegressionTrainer::ridge(1e-6))
        .mechanism(GaussianMechanism)
        .model_kind("linear_regression")
        .n_price_points(PRICE_POINTS)
        .error_curve_samples(PRICE_POINTS)
        .seed(market_seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_publishes_and_serves() {
        let scenario = Scenario::builtin("smoke").expect("catalog");
        let h = SimHarness::start(&scenario, 77).expect("harness starts");
        assert_eq!(h.marketplace.names(), vec!["alpha"]);
        let menu = h
            .marketplace
            .route("alpha")
            .and_then(|b| b.posted_menu())
            .expect("published menu");
        assert_eq!(menu.len(), PRICE_POINTS);
        let addr = h.server.local_addr();
        assert_ne!(addr.port(), 0);
        h.server.shutdown();
    }
}
