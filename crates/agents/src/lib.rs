//! # nimbus-agents — adaptive buyer-agent ecology
//!
//! A closed-loop market simulator for the Nimbus model marketplace. A
//! population of heterogeneous, adaptive [`agent::BuyerAgent`]s issues
//! real `MENU`/`QUOTE`/`COMMIT` traffic over TCP (pipelined wire protocol)
//! against a live [`nimbus_server::NimbusServer`]; a
//! [`demand::DemandObserver`] aggregates their accepted/rejected quotes
//! into an empirical demand curve per listing; and a
//! [`reprice::Repricer`] periodically re-solves the Algorithm 1 revenue
//! DP against that *observed* demand and hot re-publishes the price
//! table through the marketplace's PUBLISH lifecycle — killing
//! outstanding quotes via the epoch mechanism, which the agents absorb
//! by retrying. The loop is the demonstration the paper's pricing engine
//! cannot give alone: prices chase demand that is itself reacting to
//! prices.
//!
//! Everything is deterministic by construction: the same
//! ([`scenario::Scenario`], seed) pair produces a bitwise-identical tick
//! journal (see [`engine`] for how pipelined I/O is kept out of the
//! deterministic state). Scenarios are plain data — a built-in catalog
//! plus a `key = value` text format — so experiments are configs, not
//! code.

// The same (scenario, seed) replays to the same journal, so no module
// here reads the wall clock, the environment or hash order in shipped code
// (the lists are in `crates/clippy.toml`), and nothing here unwraps or
// panics.
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
#![warn(clippy::unwrap_used, clippy::panic)]

pub mod agent;
pub mod demand;
pub mod engine;
pub mod harness;
pub mod metrics;
pub mod reprice;
pub mod scenario;

use nimbus_market::MarketError;
use nimbus_server::ServerError;
use std::fmt;

pub use agent::{BuyerAgent, BuyerType, Decision, Intent};
pub use demand::{DemandObserver, PointDemand};
pub use engine::{run_scenario, LedgerAck, SimOutcome};
pub use harness::SimHarness;
pub use metrics::{parse_log, render_log, summarize, RepriceDelta, TickRecord};
pub use reprice::{RepriceOutcome, Repricer};
pub use scenario::{AgentMix, ListingSpec, Scenario, SimEvent};

/// Everything that can go wrong in a simulation run.
#[derive(Debug)]
pub enum AgentsError {
    /// The marketplace refused an operation (open, route, re-publish).
    Market(MarketError),
    /// The serving stack failed (connect, transport, server start).
    Server(ServerError),
    /// A scenario or configuration was invalid.
    Config(String),
    /// The server answered with something the engine cannot reconcile.
    Protocol(String),
}

impl fmt::Display for AgentsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgentsError::Market(e) => write!(f, "market: {e}"),
            AgentsError::Server(e) => write!(f, "server: {e}"),
            AgentsError::Config(why) => write!(f, "scenario config: {why}"),
            AgentsError::Protocol(why) => write!(f, "protocol: {why}"),
        }
    }
}

impl std::error::Error for AgentsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AgentsError::Market(e) => Some(e),
            AgentsError::Server(e) => Some(e),
            AgentsError::Config(_) | AgentsError::Protocol(_) => None,
        }
    }
}

impl From<MarketError> for AgentsError {
    fn from(e: MarketError) -> Self {
        AgentsError::Market(e)
    }
}

impl From<ServerError> for AgentsError {
    fn from(e: ServerError) -> Self {
        AgentsError::Server(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, AgentsError>;
