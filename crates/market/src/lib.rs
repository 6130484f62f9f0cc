// Shipped code answers with a typed error, never a panic; unit tests
// exercise failure paths where `unwrap`/`panic!` are the point.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![forbid(unsafe_code)]

//! End-to-end marketplace simulation — the Nimbus demo flow.
//!
//! Wires every layer of the reproduction together into the three-agent
//! market of Figure 1:
//!
//! * the [`seller::Seller`] lists a dataset together with the value and
//!   demand curves obtained from market research ([`curves`]);
//! * the [`broker::Broker`] trains the optimal model once, when it is
//!   built (the one-time cost of §4), and then drops the dataset. It
//!   transforms the curves through the error-inverse, optimizes prices
//!   with `nimbus-optim`, and serves buyers through the three §3.2
//!   purchase options via an explicit quote→commit protocol, recording
//!   every sale in one id-ordered [`ledger::Ledger`];
//! * [`buyer::BuyerPopulation`] draws buyers from the demand curve, each
//!   with a valuation from the value curve, who decide to buy iff the
//!   posted price does not exceed their valuation.
//!
//! # Concurrency model
//!
//! The broker is built for a read-mostly serving workload: the posted menu
//! is immutable between `open_market()` calls, while many buyers quote and
//! purchase concurrently. Three mechanisms keep the hot path off shared
//! locks, or hold them for one small step:
//!
//! 1. **Snapshot publication.** `Broker::open_market()` bundles the revenue
//!    problem, the optimized price table and the shared optimal model into
//!    an immutable [`broker::MarketSnapshot`] and swaps an `Arc` of it into
//!    a mutex. Every read — `quote`, `quote_request`, `posted_menu`,
//!    `expected_revenue` — holds that mutex only to clone the `Arc` and
//!    prices off its own reference. A superseded snapshot drops with its
//!    last reader, and each carries an epoch: a [`broker::Quote`] issued
//!    against epoch `k` is rejected with [`MarketError::QuoteExpired`] if
//!    epoch `k+1` has been posted by the time the buyer commits.
//! 2. **One id-ordered ledger.** A durable commit inserts its row into one
//!    `Mutex<`[`ledger::Ledger`]`>` at its place in transaction-id order
//!    (at or near the tail); [`Broker::ledger`](broker::Broker::ledger) is
//!    a plain copy, and revenue is folded in id order, so neither depends
//!    on how commits interleaved.
//! 3. **Per-transaction RNG streams.** Each sale's transaction id comes
//!    from an atomic counter and seeds its own
//!    `seeded_rng(split_stream(seed, id))`, so the noise a buyer receives
//!    is a pure function of `(seed, transaction id, x)` — reproducible
//!    under any thread interleaving, with zero shared RNG state on the
//!    serving path.
//!
//! Every sale goes through one commit path,
//! [`Broker::commit_batch_at`](broker::Broker::commit_batch_at): a single
//! commit is a batch of one, so concurrent buyers, wire `COMMIT`s and
//! `BATCH_COMMIT` frames share the same dedup, budget and journal steps.
//!
//! [`simulation`] runs strategy comparisons (MBP vs Lin/MaxC/MedC/OptC vs
//! the exact brute force) on a shared population — the machinery behind
//! Figures 7–14 — and stages the arbitrage demonstration of Figure 3.
//! [`transform`] implements the Figure 2(a)→(b) pipeline: market research
//! expressed over *model error* is mapped onto the inverse-NCP axis through
//! the (analytic or Monte-Carlo) error-transformation curve.
//! [`parallel`] re-exports the order-preserving crossbeam-scoped map (now
//! hosted in `nimbus-core`, which also uses it for deterministic parallel
//! error-curve estimation) used to fan experiment sweeps across cores.
//! [`persist`] round-trips a posted market through
//! CSV, re-validating arbitrage-freeness on load. [`marketplace`] hosts a
//! menu of models (§3.1), one broker per listing, behind a shared
//! listing directory with a draft → published → retired lifecycle and
//! per-listing journals recovered in parallel.

// Deterministic modules replay from the journal alone, so they read no
// wall clock, environment or hash order (the lists are in
// `crates/clippy.toml`). Hot-path modules run inside every commit, where
// an out-of-bounds index would kill a serving worker.
#[cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
#[cfg_attr(not(test), deny(clippy::indexing_slicing))]
pub mod account;
#[cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
#[cfg_attr(not(test), deny(clippy::indexing_slicing))]
pub mod broker;
pub mod buyer;
pub mod clock;
pub mod curves;
pub mod error;
#[cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
#[cfg_attr(not(test), deny(clippy::indexing_slicing))]
pub mod journal;
#[cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
#[cfg_attr(not(test), deny(clippy::indexing_slicing))]
pub mod ledger;
#[cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
#[cfg_attr(not(test), deny(clippy::indexing_slicing))]
pub mod marketplace;
pub mod parallel;
pub mod persist;
pub mod seller;
#[cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
pub mod simulation;
pub mod transform;

pub use account::BuyerAccounts;
pub use broker::{
    BatchCommitItem, Broker, BrokerBuilder, MarketSnapshot, MarketStats, PurchaseRequest, Quote,
    RecoverySummary, Sale, MAX_PRICE_POINTS,
};
pub use buyer::{Buyer, BuyerPopulation};
pub use curves::{DemandCurve, MarketCurves, ValueCurve};
pub use error::MarketError;
pub use journal::{
    Announcement, FaultPlan, FaultyFile, GroupCommit, GroupCommitStats, Journal, JournalError,
    Recovery, SaleRecord, MAX_GROUP_COMMIT_WINDOW,
};
pub use ledger::{Ledger, Transaction};
pub use marketplace::{
    ListingBuilder, ListingMeta, ListingState, ListingStats, Marketplace, MarketplaceStats,
    MenuEntry,
};
pub use persist::PostedMarket;
pub use seller::{Seller, SellerTerms};
pub use simulation::{compare_strategies, PricingStrategy, StrategyOutcome};
pub use transform::transform_research;

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, MarketError>;
