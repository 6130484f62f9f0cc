//! The broker service: an event-driven TCP server over std.
//!
//! # Architecture
//!
//! ```text
//!               ┌──────────────────────────────┐   shard 0: job queue ─ workers
//!   TCP conns ─▶│ event loop (crate::event)    │─┬▶ shard 1: job queue ─ workers
//!   (epoll /    │ accept · read · frame-parse  │ │          …
//!    poll(2))   │ MENU/QUOTE executed inline   │ │
//!               │ flush ◀─ completions ◀ wake ─┼─┴▶ shard K: job queue ─ workers
//!               └──────────────────────────────┘   queue full ⇒ typed BUSY frame
//! ```
//!
//! * **One loop thread, many sockets.** A single readiness loop
//!   (`crate::event`) owns every connection: it accepts, reads frames,
//!   and flushes responses without ever blocking on a peer. Tens of
//!   thousands of idle connections cost two fds and a slab slot — no
//!   thread per connection.
//! * **Snapshot reads on the loop thread.** A current-version `MENU` or
//!   `QUOTE` frame is decoded, priced against the published snapshot (a
//!   leaf lock held to clone its `Arc`) and encoded by the loop itself,
//!   through the same `execute_job` the workers use; its response goes
//!   straight into the connection's write buffer.
//! * **Sharded execution.** Every other frame becomes a `Job` on one of
//!   `K` bounded `Mutex<VecDeque<Job>> + Condvar` shard queues, drained
//!   by worker threads that do the blocking work (decode, route, commit
//!   and its fsync, encode). Completed frames flow back through
//!   `Inner::completions` plus one byte on a wake pipe.
//! * **Pipelining.** Every frame carries a correlation id, so frames may
//!   overlap on one connection; responses are matched by id.
//! * **Load shedding, not stalling.** A full shard queue answers the
//!   frame with a typed `BUSY` instead of queueing unboundedly; the
//!   connection stays open. Snapshot reads take no queue slot, so they
//!   are never shed. Slow-loris and idle peers are
//!   shed by event-loop deadlines ([`ServerConfig::header_read_timeout`],
//!   [`ServerConfig::idle_timeout`]) and counted separately in
//!   [`StatsRegistry::timeout_sheds`].
//! * **Graceful shutdown.** [`NimbusServer::shutdown`] flips one atomic
//!   flag and writes a wake byte. The loop closes the listener, stops
//!   reading, drops undispatched frames, and keeps flushing until every
//!   dispatched job's response has been written; workers drain their
//!   queues and join. Responses are never truncated.
//! * **Stats.** Every handled request lands in the shared
//!   [`StatsRegistry`] (atomic counters + log-linear latency
//!   histograms), served back over the wire by `STATS`.
//!
//! The market side is exactly the in-process API: requests resolve their
//! listing through [`Marketplace::route`] (one map lookup and one `Arc`
//! clone under a leaf lock), `MENU`/`QUOTE` price off a cloned snapshot
//! `Arc`, and both `COMMIT` (a
//! batch of one) and `BATCH_COMMIT` route through
//! [`Broker::commit_batch_at`], the broker's one commit path: the same
//! dedup, epoch check, payment validation, price re-derivation, budget
//! charge and group-commit fsync as a local caller. A request with an
//! empty listing field resolves to the server's configured *default
//! listing*. The `PUBLISH`/`RETIRE` admin opcodes drive the
//! marketplace's listing lifecycle live.
//!
//! [`Broker::commit_batch_at`]: nimbus_market::Broker::commit_batch_at
//! [`Marketplace::route`]: nimbus_market::Marketplace::route
//! [`StatsRegistry::timeout_sheds`]: crate::stats::StatsRegistry::timeout_sheds

use crate::error::ServerError;
use crate::stats::{Op, StatsRegistry};
use crate::wire::{
    self, BatchCommitMsg, BatchOutcomeMsg, ErrorCode, InfoMsg, ListingMsg, ListingStatsMsg,
    ListingsMsg, MenuMsg, QuoteMsg, Request, Response, SaleMsg,
};
use crate::Result;
use nimbus_market::{BatchCommitItem, Marketplace, Quote};
use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs, validated by [`NimbusServer::start`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Number of execution shards (`≥ 1`).
    pub shards: usize,
    /// Worker threads per shard (`≥ 1`).
    pub workers_per_shard: usize,
    /// Pending-job bound per shard (`≥ 1`); beyond it, the frame is shed
    /// with a typed `BUSY`. Applies to worker-executed ops only: `MENU`
    /// and `QUOTE` run on the event thread, take no queue slot and are
    /// never shed.
    pub queue_capacity: usize,
    /// Write-stall bound: a connection whose buffered response bytes make
    /// no progress for this long is closed (the peer stopped reading).
    pub write_timeout: Duration,
    /// Artificial service time per worker-executed request, for load and
    /// shedding tests. The worker sleeps it before executing each queued
    /// frame; `MENU` and `QUOTE`, answered on the event thread, never pay
    /// it.
    pub handle_delay: Option<Duration>,
    /// Back-off hint carried in `BUSY` frames: how long a shed client
    /// should wait before retrying. Purely advisory; milliseconds on the
    /// wire (saturating at `u32::MAX` ms).
    pub retry_after_hint: Duration,
    /// Slow-loris bound: once the first byte of a frame arrives, the
    /// whole frame must complete within this window or the connection is
    /// shed (`BUSY` + close, counted in `timeout_sheds`).
    pub header_read_timeout: Duration,
    /// Keep-alive bound: a connection with no request in flight and no
    /// bytes pending for this long is shed (`BUSY` + close, counted in
    /// `timeout_sheds`).
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 2,
            workers_per_shard: 2,
            queue_capacity: 16,
            write_timeout: Duration::from_secs(5),
            handle_delay: None,
            retry_after_hint: Duration::from_millis(25),
            header_read_timeout: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(60),
        }
    }
}

/// One complete frame handed from the event loop to a worker.
pub(crate) struct Job {
    /// Slab slot of the owning connection.
    pub(crate) slot: u32,
    /// Slot generation at dispatch time (guards slot reuse).
    pub(crate) gen: u32,
    /// Sniffed correlation id, echoed by the response frame.
    pub(crate) corr: u64,
    /// The undecoded frame payload.
    pub(crate) payload: Vec<u8>,
}

/// A worker's answer to one [`Job`]: the encoded response frame for the
/// event loop to flush, and whether the connection must close after it
/// (protocol violations poison the framing).
pub(crate) struct Completion {
    pub(crate) slot: u32,
    pub(crate) gen: u32,
    pub(crate) frame: Vec<u8>,
    pub(crate) close: bool,
}

/// One execution shard: a bounded queue of parsed frames.
pub(crate) struct Shard {
    pub(crate) queue: Mutex<VecDeque<Job>>,
    pub(crate) available: Condvar,
}

pub(crate) struct Inner {
    pub(crate) marketplace: Arc<Marketplace>,
    pub(crate) default_listing: String,
    pub(crate) config: ServerConfig,
    pub(crate) stats: Arc<StatsRegistry>,
    pub(crate) stop: AtomicBool,
    pub(crate) shards: Vec<Shard>,
    /// Completed jobs waiting for the event loop to pick them up.
    pub(crate) completions: Mutex<Vec<Completion>>,
    /// Write end of the wake pipe: one byte per completion batch nudges
    /// the event loop out of its poll.
    pub(crate) wake_tx: UnixStream,
}

/// A running broker service bound to a TCP address.
///
/// Dropping the handle shuts the server down gracefully (equivalent to
/// [`NimbusServer::shutdown`]).
pub struct NimbusServer {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    event: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl NimbusServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `marketplace` under `config`. `default_listing` names the listing
    /// that unscoped requests resolve to; it must exist and be published
    /// when the server starts.
    pub fn start(
        marketplace: Arc<Marketplace>,
        default_listing: impl Into<String>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> Result<NimbusServer> {
        if config.shards < 1 || config.workers_per_shard < 1 || config.queue_capacity < 1 {
            return Err(ServerError::InvalidConfig {
                reason: format!(
                    "shards ({}), workers_per_shard ({}) and queue_capacity ({}) must all be ≥ 1",
                    config.shards, config.workers_per_shard, config.queue_capacity
                ),
            });
        }
        if config.write_timeout.is_zero()
            || config.header_read_timeout.is_zero()
            || config.idle_timeout.is_zero()
        {
            return Err(ServerError::InvalidConfig {
                reason: "timeouts must be non-zero".to_string(),
            });
        }
        let default_listing = default_listing.into();
        // Unscoped requests resolve to the default listing: it must be
        // resolvable and serving before we accept.
        marketplace.route(&default_listing)?;
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;

        let inner = Arc::new(Inner {
            marketplace,
            default_listing,
            config,
            stats: Arc::new(StatsRegistry::new()),
            stop: AtomicBool::new(false),
            shards: (0..config.shards)
                .map(|_| Shard {
                    queue: Mutex::new(VecDeque::new()),
                    available: Condvar::new(),
                })
                .collect(),
            completions: Mutex::new(Vec::new()),
            wake_tx,
        });

        let mut workers = Vec::with_capacity(config.shards * config.workers_per_shard);
        let mut spawn_err: Option<std::io::Error> = None;
        'spawn: for shard_idx in 0..config.shards {
            for worker_idx in 0..config.workers_per_shard {
                let inner = inner.clone();
                let spawned = std::thread::Builder::new()
                    .name(format!("nimbus-worker-{shard_idx}-{worker_idx}"))
                    .spawn(move || worker_loop(&inner, shard_idx));
                match spawned {
                    Ok(handle) => workers.push(handle),
                    Err(e) => {
                        spawn_err = Some(e);
                        break 'spawn;
                    }
                }
            }
        }
        let event = if spawn_err.is_none() {
            let inner_for_loop = inner.clone();
            // The loop never reads the ambient clock directly; deadlines
            // are pure functions of this injected monotonic source.
            let clock: Box<dyn Fn() -> Duration + Send> =
                Box::new(nimbus_market::clock::wall_clock());
            let spawned = std::thread::Builder::new()
                .name("nimbus-event".to_string())
                .spawn(move || crate::event::run(inner_for_loop, listener, wake_rx, clock));
            match spawned {
                Ok(handle) => Some(handle),
                Err(e) => {
                    spawn_err = Some(e);
                    None
                }
            }
        } else {
            None
        };
        if let Some(e) = spawn_err {
            // Unwind the partial spawn: wake and join whatever started, so
            // no orphaned worker outlives the failed constructor.
            inner.stop.store(true, Ordering::SeqCst);
            for shard in &inner.shards {
                shard.available.notify_all();
            }
            for handle in workers {
                let _ = handle.join();
            }
            return Err(e.into());
        }

        Ok(NimbusServer {
            inner,
            local_addr,
            event,
            workers,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared stats registry (same counters `STATS` serves).
    pub fn stats(&self) -> Arc<StatsRegistry> {
        self.inner.stats.clone()
    }

    /// The marketplace being served.
    pub fn marketplace(&self) -> Arc<Marketplace> {
        self.inner.marketplace.clone()
    }

    /// The default listing unscoped requests resolve to.
    pub fn default_listing(&self) -> &str {
        &self.inner.default_listing
    }

    /// Gracefully shuts down: stop accepting, finish in-flight requests,
    /// flush every dispatched response, join every thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        for shard in &self.inner.shards {
            shard.available.notify_all();
        }
        // Nudge the event loop out of its poll; a full pipe is fine (any
        // pending byte wakes it just as well).
        let _ = (&self.inner.wake_tx).write(&[1u8]);
        if let Some(handle) = self.event.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for NimbusServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Drains one shard's job queue until shutdown. The exit check runs under
/// the queue lock and only fires on an empty queue, so every job the
/// event loop managed to enqueue is executed and answered.
pub(crate) fn worker_loop(inner: &Arc<Inner>, shard_idx: usize) {
    let Some(shard) = inner.shards.get(shard_idx) else {
        return;
    };
    loop {
        let next = {
            let mut queue = match shard.queue.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if inner.stop.load(Ordering::SeqCst) {
                    break None;
                }
                queue = match shard.available.wait(queue) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        let Some(job) = next else { break };
        if let Some(delay) = inner.config.handle_delay {
            std::thread::sleep(delay);
        }
        let (frame, close) = execute_job(inner, job.corr, &job.payload);
        let mut guard = match inner.completions.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.push(Completion {
            slot: job.slot,
            gen: job.gen,
            frame,
            close,
        });
        drop(guard);
        // Errors (pipe full / loop gone) are fine: a full pipe already
        // has a wake byte in flight, and a gone loop needs none.
        let _ = (&inner.wake_tx).write(&[1u8]);
    }
}

/// Decodes and executes one frame payload, producing the encoded response
/// frame, which carries the request's correlation id `corr`, and whether
/// the connection must close after it. A frame that fails to decode —
/// including one at another protocol version — is answered with a typed
/// error and closes the connection. Workers call this for queued frames;
/// the event loop calls it for snapshot reads (`MENU`, `QUOTE`).
pub(crate) fn execute_job(inner: &Inner, corr: u64, payload: &[u8]) -> (Vec<u8>, bool) {
    let started = Instant::now();
    let request = match Request::decode_framed(payload) {
        Ok((_corr, request)) => request,
        Err(e) => {
            inner.stats.protocol_error();
            let (code, message) = match e {
                ServerError::UnsupportedVersion { got } => (
                    ErrorCode::UnsupportedVersion,
                    format!("server speaks version {}, got {got}", wire::VERSION),
                ),
                e => (ErrorCode::BadFrame, e.to_string()),
            };
            return (
                Response::Error { code, message }.encode_with_corr(corr),
                true,
            );
        }
    };
    let op = match request {
        Request::Menu { .. } => Op::Menu,
        Request::Quote { .. } => Op::Quote,
        Request::Commit { .. } => Op::Commit,
        Request::BatchCommit { .. } => Op::BatchCommit,
        Request::Info { .. } => Op::Info,
        Request::Account { .. } => Op::Account,
        Request::Listings => Op::Listings,
        Request::Stats => Op::Stats,
        Request::Publish { .. } => Op::Publish,
        Request::Retire { .. } => Op::Retire,
    };
    let (response, ok) = match execute(inner, request) {
        Ok(response) => (response, true),
        Err(e) => (
            Response::Error {
                code: ErrorCode::for_market_error(&e),
                message: e.to_string(),
            },
            false,
        ),
    };
    let frame = response.encode_with_corr(corr);
    inner.stats.record(op, ok, started.elapsed());
    (frame, false)
}

/// Resolves a request's optional listing to a concrete name: `None` means
/// the server's default listing.
fn resolve<'a>(inner: &'a Inner, listing: &'a Option<String>) -> &'a str {
    listing.as_deref().unwrap_or(&inner.default_listing)
}

/// The wire image of a completed sale.
fn sale_msg(sale: &nimbus_market::Sale) -> SaleMsg {
    SaleMsg {
        inverse_ncp: sale.inverse_ncp,
        price: sale.price,
        expected_error: sale.expected_error,
        metric: sale.metric.to_string(),
        transaction: sale.transaction.sequence,
        weights: sale.model.weights().as_slice().to_vec(),
    }
}

/// Executes one request against the marketplace, producing its one
/// response.
fn execute(inner: &Inner, request: Request) -> nimbus_market::Result<Response> {
    let marketplace = &inner.marketplace;
    match request {
        Request::Menu { listing } => {
            let broker = marketplace.route(resolve(inner, &listing))?;
            let snapshot = broker
                .snapshot()
                .ok_or(nimbus_market::MarketError::MarketNotOpen)?;
            Ok(Response::Menu(MenuMsg {
                epoch: snapshot.epoch(),
                metric: snapshot.metric_name().to_string(),
                points: snapshot.menu(),
            }))
        }
        Request::Quote {
            listing,
            request: purchase,
        } => {
            let name = resolve(inner, &listing);
            let quote: Quote = marketplace.route(name)?.quote_request(purchase)?;
            Ok(Response::Quote(QuoteMsg {
                x: quote.x,
                delta: quote.delta,
                price: quote.price,
                expected_error: quote.expected_error,
                metric: quote.metric.to_string(),
                snapshot_epoch: quote.snapshot_epoch,
                listing: name.to_string(),
            }))
        }
        Request::Commit {
            listing,
            x,
            snapshot_epoch,
            payment,
            nonce,
            buyer,
        } => {
            let broker = marketplace.route(resolve(inner, &listing))?;
            // A batch of one: a nonce makes the commit idempotent (a retry
            // after a lost ACK replays the journalled sale instead of
            // double-charging money or budget), and a buyer identity
            // routes the sale through the listing's noise-budget accounts.
            let item = BatchCommitItem {
                x,
                snapshot_epoch,
                payment,
                nonce,
                buyer,
            };
            let sale = broker.commit_batch_at(&[item]).pop().ok_or(
                nimbus_market::MarketError::InvalidConfig {
                    reason: "batch commit slot left unresolved".to_string(),
                },
            )??;
            Ok(Response::Commit(sale_msg(&sale)))
        }
        Request::BatchCommit { listing, items } => {
            let broker = marketplace.route(resolve(inner, &listing))?;
            let batch: Vec<BatchCommitItem> = items
                .iter()
                .map(|item| BatchCommitItem {
                    x: item.x,
                    snapshot_epoch: item.snapshot_epoch,
                    payment: item.payment,
                    nonce: item.nonce,
                    buyer: item.buyer,
                })
                .collect();
            // Items resolve independently; the broker coalesces the
            // journal fsyncs of the successful ones (group commit), so
            // durability-per-sale is preserved at one fsync per batch.
            let outcomes = broker
                .commit_batch_at(&batch)
                .into_iter()
                .map(|outcome| match outcome {
                    Ok(sale) => BatchOutcomeMsg::Sale(sale_msg(&sale)),
                    Err(e) => BatchOutcomeMsg::Error {
                        code: ErrorCode::for_market_error(&e),
                        message: e.to_string(),
                    },
                })
                .collect();
            Ok(Response::BatchCommit(BatchCommitMsg { items: outcomes }))
        }
        Request::Info { listing } => {
            let name = resolve(inner, &listing);
            let broker = marketplace.route(name)?;
            let snapshot = broker
                .snapshot()
                .ok_or(nimbus_market::MarketError::MarketNotOpen)?;
            let stats = broker.market_stats();
            let (x_lo, x_hi) = snapshot.support();
            Ok(Response::Info(InfoMsg {
                listing: name.to_string(),
                metric: snapshot.metric_name().to_string(),
                epoch: snapshot.epoch(),
                menu_len: snapshot.menu().len() as u64,
                x_lo,
                x_hi,
                expected_revenue: stats.expected_revenue.unwrap_or(0.0),
                sales: stats.sales as u64,
                revenue: stats.revenue,
            }))
        }
        Request::Account { listing, buyer } => {
            let name = resolve(inner, &listing);
            let broker = marketplace.route(name)?;
            let accounts = broker.accounts();
            Ok(Response::Account(wire::AccountMsg {
                listing: name.to_string(),
                buyer,
                spent: accounts.spent(buyer),
                budget: accounts.budget(),
                remaining: accounts.remaining(buyer),
            }))
        }
        Request::Listings => {
            let listings = marketplace
                .menu()
                .into_iter()
                .map(|e| ListingMsg {
                    name: e.name,
                    model_kind: e.model_kind.to_string(),
                    mechanism: e.mechanism.to_string(),
                    state: e.state.name().to_string(),
                    open: e.open,
                    expected_revenue: e.expected_revenue,
                })
                .collect();
            Ok(Response::Listings(ListingsMsg {
                default_listing: inner.default_listing.clone(),
                listings,
            }))
        }
        Request::Stats => {
            let mut msg = inner.stats.snapshot();
            // Queue depth and per-listing accounting are instantaneous
            // state, not counters, so they are read at serve time rather
            // than from the registry.
            msg.queue_depth = inner
                .shards
                .iter()
                .map(|s| s.queue.lock().map(|q| q.len() as u64).unwrap_or(0))
                .sum();
            msg.listings = marketplace
                .stats()
                .listings
                .into_iter()
                .map(|row| ListingStatsMsg {
                    listing: row.name,
                    state: row.state.name().to_string(),
                    epoch: row.epoch,
                    sales: row.sales,
                    revenue: row.revenue,
                    budget_rejects: row.budget_rejects,
                    exhausted_buyers: row.exhausted_buyers,
                    journal_flushes: row.journal.flushes,
                    journal_records: row.journal.records,
                    journal_window_waits: row.journal.window_waits,
                })
                .collect();
            Ok(Response::Stats(msg))
        }
        Request::Publish { listing } => {
            let expected_revenue = marketplace.publish(&listing)?;
            let epoch = match marketplace.broker(&listing)?.0.snapshot() {
                Some(snapshot) => snapshot.epoch(),
                None => 0,
            };
            Ok(Response::Publish {
                listing,
                epoch,
                expected_revenue,
            })
        }
        Request::Retire { listing } => {
            if listing == inner.default_listing {
                // Unscoped requests resolve to the default listing;
                // retiring it would orphan every one of them.
                return Err(nimbus_market::MarketError::InvalidConfig {
                    reason: format!(
                        "listing {listing:?} is the server's default listing and cannot be retired"
                    ),
                });
            }
            marketplace.retire(&listing)?;
            Ok(Response::Retire { listing })
        }
    }
}
