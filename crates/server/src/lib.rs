// The serving hot path answers, never aborts: a panic here kills a worker
// under load, so shipped code may not unwrap, index or panic. Unit tests
// exercise failure paths where `unwrap`/`panic!` are the point.
#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::expect_used,
        clippy::unwrap_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]

//! # nimbus-server — the broker as a networked service
//!
//! The SIGMOD'19 Nimbus demo is a *service*: buyers drive live purchase
//! sessions against a running broker, not a library. This crate is that
//! serving layer, built on std TCP alone (the workspace vendors no async
//! runtime or serialization crates):
//!
//! * [`wire`] — a hand-rolled, length-prefixed, explicitly versioned
//!   binary protocol covering the full quote→commit epoch protocol:
//!   `MENU`, `QUOTE`, `COMMIT` (weight vectors included in the reply),
//!   `INFO` and `STATS`, plus typed `BUSY` and error frames. Every call
//!   is routed by listing name (`LISTINGS` enumerates the marketplace;
//!   `PUBLISH`/`RETIRE` drive the listing lifecycle live; an empty name
//!   means the server's default listing) and carries a correlation id
//!   for pipelining; `BATCH_COMMIT` (many sales, one frame, per-item
//!   status) rounds it out. Every request gets exactly one response
//!   frame. One protocol version is spoken; any other is refused with a
//!   typed error.
//! * [`server`] — [`NimbusServer`]: a single readiness event loop
//!   (`epoll`/`poll(2)` via [`sys`], no async runtime) multiplexing every
//!   connection. It answers `MENU` and `QUOTE`, snapshot reads that
//!   hold a lock only to clone an `Arc`, on the loop thread itself, and
//!   dispatches every other complete frame onto sharded bounded job queues drained by workers.
//!   Bounded queues shed those ops with `BUSY` instead of stalling
//!   (snapshot reads take no queue slot); slow-loris and idle peers are
//!   shed by event-loop deadlines; graceful shutdown drains in-flight
//!   requests, whose sales are already durable in the listing journals;
//!   an atomic per-op stats registry records everything.
//! * [`client`] — [`NimbusClient`]: a blocking connection with typed
//!   errors (`Busy` vs `Remote { code, .. }`), full timeouts, bounded
//!   [`RetryPolicy`] backoff on sheds and transient faults, and
//!   idempotent commits keyed by a client nonce so a retried purchase
//!   after a lost ACK is deduplicated by the broker's sale journal.
//!   [`PipelinedClient`] keeps many correlated requests in flight on one
//!   connection; `buy_batch` amortizes commits over `BATCH_COMMIT`.
//! * [`loadgen`] — the N-threads × M-requests loopback load generator
//!   behind `nimbus client load` and the end-to-end tests: one request
//!   loop over [`PipelinedClient`] at any pipeline depth, batch size and
//!   listing mix, with p50/p99 latency reporting.
//! * [`stats`] — [`StatsRegistry`]: lock-free counters and log-linear
//!   latency histograms (p50/p99) served by `STATS`.
//! * [`sys`] — the raw `epoll`/`poll(2)` syscall shim the event loop
//!   runs on.
//!
//! ## Quickstart
//!
//! ```no_run
//! use nimbus_server::{ClientConfig, NimbusClient, NimbusServer, ServerConfig};
//! use nimbus_market::PurchaseRequest;
//! use std::sync::Arc;
//!
//! # fn doc(marketplace: nimbus_market::Marketplace) -> nimbus_server::Result<()> {
//! // Server side: a marketplace of published listings; the named
//! // default listing is what requests with an empty listing name are
//! // routed to.
//! let server = NimbusServer::start(
//!     Arc::new(marketplace),
//!     "acme-data",
//!     "127.0.0.1:0",
//!     ServerConfig::default(),
//! )?;
//! let addr = server.local_addr();
//!
//! // Client side: quote → commit, epochs checked end to end. Every
//! // listing-scoped call names its listing, or passes `None` for the
//! // server's default.
//! let mut client = NimbusClient::connect(addr, &ClientConfig::default())?;
//! let quote = client.quote(Some("acme-data"), PurchaseRequest::ErrorBudget(0.05))?;
//! let sale = client.commit(&quote, quote.price)?;
//! assert_eq!(sale.weights.is_empty(), false);
//! server.shutdown();
//! # Ok(()) }
//! ```

pub mod client;
pub mod error;
// Deadline timers run on an injected clock: replay must not see the wall.
#[cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
mod event;
pub mod loadgen;
pub mod server;
pub mod stats;
pub mod sys;
pub mod wire;

pub use client::{ClientConfig, NimbusClient, PipelinedClient, RetryPolicy};
pub use error::ServerError;
pub use loadgen::{run_load, ListingLoad, LoadConfig, LoadMode, LoadReport};
pub use server::{NimbusServer, ServerConfig};
pub use stats::{render_prometheus, LatencyHistogram, Op, StatsRegistry};
pub use wire::{
    AccountMsg, BatchCommitMsg, BatchItemMsg, BatchOutcomeMsg, ErrorCode, InfoMsg, ListingMsg,
    ListingStatsMsg, ListingsMsg, MenuMsg, OpStatsMsg, QuoteMsg, Request, Response, SaleMsg,
    StatsMsg,
};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, ServerError>;
