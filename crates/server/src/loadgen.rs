//! Loopback load generator: N client threads × M requests against one
//! server, reporting throughput, latency quantiles and shed rate.
//!
//! Shared by the `nimbus client load` CLI subcommand and the end-to-end
//! tests. Every [`LoadConfig`] runs the same per-thread loop over one
//! [`PipelinedClient`]: it keeps up to [`LoadConfig::pipeline_depth`]
//! correlated frames in flight, and settles each request as its answers
//! arrive, in whatever order they come. Depth `0` or `1` is one frame in
//! flight, i.e. blocking request/response.
//!
//! # Requests and frames
//!
//! A [`LoadMode::Quote`] request is one `QUOTE`. A [`LoadMode::Buy`]
//! request is a `QUOTE` and then, with [`LoadConfig::batch_size`] `0` or
//! `1`, one keyed `COMMIT` at the quoted price. With a larger batch size
//! the quoted requests wait in a window per listing, and one
//! `BATCH_COMMIT` redeems each full window (one group-committed journal
//! write server-side); windows still partly filled when the last quote
//! answers are redeemed as they are. Every commit carries an idempotency
//! nonce keyed by the retry seed of [`LoadConfig::client`] (`0` =
//! wall-clock entropy), so a resent commit never charges twice and two
//! runs against one server do not collide.
//!
//! # Shed retries and accounting
//!
//! A `BUSY` answer with retries left sleeps the server's
//! `retry_after_ms` hint and resends the same frame. A request's `QUOTE`
//! and `COMMIT` share its [`LoadConfig::busy_retries`]; a `BATCH_COMMIT`
//! has its own. Every request settles exactly once, as `ok`, `busy`,
//! `budget_rejected` or `errors`, so the report reconciles exactly:
//! `attempted == ok + busy + budget_rejected + errors`. A request that is
//! shed and then succeeds counts once in `ok` and not in `busy`; each
//! absorbed shed counts in `busy_retried`. When every shed frame carries
//! one request (batch size `0` or `1`), the server's `busy_rejections`
//! counter equals `busy + busy_retried`. A `BATCH_COMMIT` whose retries
//! run out counts every request in its window as `busy` (one shed frame,
//! many shed requests), so the equality does not hold for batched runs.
//! For [`LoadMode::Buy`] the client-observed revenue can be checked
//! against the server-side ledger.
//!
//! A transport failure settles every request with a frame in flight on
//! that connection as an error; quoted requests waiting in a window keep
//! their quotes. The thread then dials a new connection for its next
//! frame and goes on; a failed dial settles that frame's requests as
//! errors.
//!
//! # Latency
//!
//! One latency sample is taken per successful request: from its first
//! `QUOTE` send to the answer that completes it (the `QUOTE` in quote
//! mode; its `COMMIT`, or its window's `BATCH_COMMIT`, in buy mode).
//! Shed retries and their sleeps fall inside the sample.
//!
//! # Buyer identity and budget sheds
//!
//! With [`LoadConfig::buyer`] set, every commit carries that buyer
//! identity and is metered against the listing's noise budget. A
//! `BUDGET_EXHAUSTED` rejection is **not** a `BUSY` shed and not a
//! generic error: it is deterministic (retrying cannot succeed), so it
//! is never retried and lands in [`LoadReport::budget_rejected`] — a
//! run that drains its buyer's budget reports exactly how much of the
//! offered load the server refused for exhaustion.
//!
//! # Idle connections
//!
//! [`LoadConfig::idle_connections`] extra sockets are opened before the
//! run and held silent until it ends, so the event loop serves the load
//! with a herd of parked sockets. [`LoadReport::open_connections`]
//! reports how many sockets the run held open concurrently.
//!
//! # Per-listing traffic mix
//!
//! [`LoadConfig::mix`] drives the marketplace routing path at every
//! depth and batch size: each entry is a `(listing, weight)` pair.
//! Request `i` of thread `t` takes slot `(t·M + i) mod W` of a cycle of
//! `W` = total weight, in which each listing holds as many consecutive
//! slots as its weight, so a mix of `[("a", 3), ("b", 1)]` sends 3 of
//! every 4 requests to `"a"`. An empty mix sends every request to the
//! server's default listing. [`LoadReport::per_listing`] breaks `ok` and
//! `revenue` down by listing so each ledger reconciles independently.

use crate::client::{seed_entropy, splitmix_finalize, ClientConfig, PipelinedClient};
use crate::stats::LatencyHistogram;
use crate::wire::{BatchItemMsg, BatchOutcomeMsg, ErrorCode, QuoteMsg, Request, Response};
use nimbus_market::PurchaseRequest;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// What each load-generator request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Read-only pricing: one `QUOTE` per request.
    Quote,
    /// Full purchase: `QUOTE` then `COMMIT` at the quoted price (or one
    /// shared `BATCH_COMMIT` per window when batching).
    Buy,
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent client threads.
    pub threads: usize,
    /// Requests issued per thread.
    pub requests_per_thread: usize,
    /// Per-request mode.
    pub mode: LoadMode,
    /// Socket timeouts for every connection. Its retry schedule is
    /// unused: the load generator paces and counts every `BUSY` itself.
    /// Its [`crate::RetryPolicy::seed`] keys the commit nonces (`0` =
    /// wall-clock entropy).
    pub client: ClientConfig,
    /// Times a shed request is retried (after the server's
    /// `retry_after_ms` hint) before counting as a final `busy`. `0`
    /// makes every shed final.
    pub busy_retries: u32,
    /// Weighted per-listing traffic mix. Empty = every request targets
    /// the server's default listing; entries with weight 0 are skipped.
    pub mix: Vec<(String, u32)>,
    /// Correlated frames kept in flight per thread. `0` or `1` = one
    /// frame at a time (blocking request/response).
    pub pipeline_depth: usize,
    /// Commits grouped into one `BATCH_COMMIT` frame per window
    /// ([`LoadMode::Buy`] only). `0` or `1` = one keyed `COMMIT` per
    /// request.
    pub batch_size: usize,
    /// Extra connections opened before the run and held silent until it
    /// ends, to measure serving latency under connection pressure.
    pub idle_connections: usize,
    /// Buyer identity attached to every commit. `None` =
    /// anonymous commits that bypass budget accounting.
    pub buyer: Option<u64>,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            threads: 4,
            requests_per_thread: 64,
            mode: LoadMode::Quote,
            client: ClientConfig::default(),
            busy_retries: 0,
            mix: Vec::new(),
            pipeline_depth: 1,
            batch_size: 1,
            idle_connections: 0,
            buyer: None,
        }
    }
}

/// One listing's slice of a [`LoadReport`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ListingLoad {
    /// Listing name (empty string = the server's default listing).
    pub listing: String,
    /// Requests that completed successfully against this listing.
    pub ok: u64,
    /// Client-observed revenue at this listing ([`LoadMode::Buy`] only).
    pub revenue: f64,
}

/// Aggregate outcome of one load run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadReport {
    /// Requests attempted (`threads × requests_per_thread`).
    pub attempted: u64,
    /// Requests that completed successfully.
    pub ok: u64,
    /// Requests whose final outcome was the typed `BUSY` shed.
    pub busy: u64,
    /// `BUSY` sheds that were absorbed by a retry (the request itself
    /// went on to succeed or fail some other way).
    pub busy_retried: u64,
    /// Requests rejected with `BUDGET_EXHAUSTED`: the buyer's
    /// noise budget could not cover the commit. Deterministic — never
    /// retried — and counted separately from `busy` and `errors`.
    pub budget_rejected: u64,
    /// Requests that failed any other way (timeouts, resets, remote errors).
    pub errors: u64,
    /// Sum of client-observed sale prices (only grows in [`LoadMode::Buy`]).
    pub revenue: f64,
    /// Per-listing breakdown of `ok`/`revenue`, in listing-name order.
    /// Empty when the run used no mix (all traffic on the default
    /// listing).
    pub per_listing: Vec<ListingLoad>,
    /// Sockets the run held open concurrently: one per worker thread
    /// plus every idle connection that opened successfully.
    pub open_connections: u64,
    /// Median successful-request latency (upper bucket bound, µs; 0 when
    /// nothing succeeded).
    pub p50_micros: u64,
    /// 99th-percentile successful-request latency (upper bucket bound,
    /// µs; 0 when nothing succeeded).
    pub p99_micros: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
}

impl LoadReport {
    /// Successful requests per second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.ok as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// Fraction of attempts shed with `BUSY`.
    pub fn shed_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.busy as f64 / self.attempted as f64
        }
    }

    /// Fraction of attempts that succeeded. A request shed and then
    /// retried to success counts exactly once, as a success.
    pub fn ok_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.ok as f64 / self.attempted as f64
        }
    }
}

/// The request issued for attempt `i` of thread `t`: a deterministic
/// spread over the menu support.
fn request_for(thread: usize, i: usize, per_thread: usize) -> PurchaseRequest {
    PurchaseRequest::AtInverseNcp(1.0 + ((thread * per_thread + i) % 99) as f64)
}

/// The weighted mix as `(cumulative weight, listing)` pairs: a listing
/// owns the cycle slots from the previous entry's end up to its own.
fn expand_mix(mix: &[(String, u32)]) -> Vec<(u64, &str)> {
    let mut end = 0u64;
    mix.iter()
        .map(|(listing, weight)| {
            end = end.saturating_add(u64::from(*weight));
            (end, listing.as_str())
        })
        .collect()
}

/// The listing targeted by attempt `i` of thread `t`; `None` (= the
/// default listing) when the mix is empty or all-zero.
fn target_for<'a>(
    cumulative: &[(u64, &'a str)],
    thread: usize,
    i: usize,
    per_thread: usize,
) -> Option<&'a str> {
    let total = cumulative.last()?.0;
    let slot = (thread as u64 * per_thread as u64 + i as u64).checked_rem(total)?;
    let k = cumulative.partition_point(|&(end, _)| end <= slot);
    cumulative.get(k).map(|&(_, listing)| listing)
}

/// Runs the load: `threads × requests_per_thread` requests against
/// `addr`, each thread on its own connection(s).
pub fn run_load(addr: SocketAddr, config: &LoadConfig) -> LoadReport {
    let targets = expand_mix(&config.mix);
    // One histogram shared by every thread: the buckets are atomic, so
    // recording through a shared reference needs no merge step.
    let latency = LatencyHistogram::default();
    // Idle connections open before the load starts and stay silent until
    // after it ends: the server must carry them while serving the real
    // traffic. They are opened from a small pool of threads (a loopback
    // handshake still costs ~1ms of kernel time, which would dominate a
    // 10k herd opened serially) and excluded from `elapsed`, which times
    // only the load itself.
    let idle: Vec<TcpStream> = if config.idle_connections == 0 {
        Vec::new()
    } else {
        let openers = 16.min(config.idle_connections);
        let per = config.idle_connections.div_ceil(openers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..openers)
                .map(|o| {
                    let count = per.min(config.idle_connections.saturating_sub(o * per));
                    scope.spawn(move || {
                        (0..count)
                            .filter_map(|_| {
                                TcpStream::connect_timeout(&addr, config.client.connect_timeout)
                                    .ok()
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_default())
                .collect()
        })
    };
    let nonce_key = seed_entropy(config.client.retry.seed);
    let started = Instant::now();
    let per_thread: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.threads)
            .map(|t| {
                let (targets, latency) = (&targets, &latency);
                scope.spawn(move || thread_load(addr, config, targets, nonce_key, latency, t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(tally) => tally,
                // Surface the worker's own panic payload instead of
                // minting a second, less informative one here.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut total = LoadReport {
        elapsed: started.elapsed(),
        open_connections: (config.threads + idle.len()) as u64,
        ..LoadReport::default()
    };
    drop(idle);
    let mut by_listing: BTreeMap<&str, (u64, f64)> = BTreeMap::new();
    for (r, slices) in per_thread {
        total.attempted += r.attempted;
        total.ok += r.ok;
        total.busy += r.busy;
        total.busy_retried += r.busy_retried;
        total.budget_rejected += r.budget_rejected;
        total.errors += r.errors;
        // nimbus-audit: allow(money-safety) — per-run totals were finiteness-guarded where each price was accumulated
        total.revenue += r.revenue;
        for (listing, (ok, revenue)) in slices {
            let entry = by_listing.entry(listing).or_insert((0, 0.0));
            entry.0 += ok;
            // nimbus-audit: allow(money-safety) — per-listing slices carry revenue already guarded in the worker loop
            entry.1 += revenue;
        }
    }
    total.per_listing = by_listing
        .into_iter()
        .map(|(listing, (ok, revenue))| ListingLoad {
            listing: listing.to_string(),
            ok,
            revenue,
        })
        .collect();
    if latency.count() > 0 {
        total.p50_micros = latency.quantile_upper_micros(0.5);
        total.p99_micros = latency.quantile_upper_micros(0.99);
    }
    total
}

/// A request on its way through the loop.
#[derive(Clone, Copy)]
struct Pending<'a> {
    /// The idempotency nonce its commit carries.
    nonce: u64,
    /// Its target listing (`None` = the default listing).
    listing: Option<&'a str>,
    /// When its first `QUOTE` was sent.
    started: Instant,
}

/// A frame a thread awaits the answer to.
struct InFlight<'a> {
    /// The frame itself, kept so a shed can resend it unchanged. Commits
    /// carry their nonces, so a resend never charges twice.
    frame: Request,
    /// The requests the frame settles: one for a `QUOTE` or `COMMIT`,
    /// the window for a `BATCH_COMMIT`.
    requests: Vec<Pending<'a>>,
    /// Sheds the frame may still absorb before it settles as `busy`.
    sheds_left: u32,
}

/// One listing's quoted requests awaiting their `BATCH_COMMIT`.
type Window<'a> = (Vec<Pending<'a>>, Vec<BatchItemMsg>);

/// One thread's run: its connection, the frames in flight on it, the
/// quoted requests waiting for a `BATCH_COMMIT`, and its tallies.
struct Worker<'a> {
    addr: SocketAddr,
    config: &'a LoadConfig,
    latency: &'a LatencyHistogram,
    conn: Option<PipelinedClient>,
    in_flight: BTreeMap<u64, InFlight<'a>>,
    windows: BTreeMap<Option<&'a str>, Window<'a>>,
    report: LoadReport,
    /// `ok` and revenue per listing, kept when the run has a mix.
    by_listing: BTreeMap<&'a str, (u64, f64)>,
}

/// Runs thread `thread`'s share of the load through the one request
/// loop, returning its report and its per-listing tallies.
fn thread_load<'a>(
    addr: SocketAddr,
    config: &'a LoadConfig,
    cumulative: &[(u64, &'a str)],
    nonce_key: u64,
    latency: &'a LatencyHistogram,
    thread: usize,
) -> (LoadReport, BTreeMap<&'a str, (u64, f64)>) {
    let total = config.requests_per_thread;
    let depth = config.pipeline_depth.max(1);
    let mut w = Worker {
        addr,
        config,
        latency,
        conn: None,
        in_flight: BTreeMap::new(),
        windows: BTreeMap::new(),
        report: LoadReport::default(),
        by_listing: BTreeMap::new(),
    };
    let mut next = 0;
    loop {
        while next < total && w.in_flight.len() < depth {
            let listing = target_for(cumulative, thread, next, total);
            let frame = Request::Quote {
                listing: listing.map(str::to_string),
                request: request_for(thread, next, total),
            };
            // Request `i` of thread `t` commits under the nonce
            // `splitmix(key + (t·M + i + 1)·γ)`: distinct across the run.
            let k = (thread * total + next + 1) as u64;
            let request = Pending {
                nonce: splitmix_finalize(
                    nonce_key.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                ),
                listing,
                started: Instant::now(),
            };
            w.send(InFlight {
                frame,
                requests: vec![request],
                sheds_left: config.busy_retries,
            });
            next += 1;
        }
        // Once no quote is left to join a window, redeem the partial ones.
        let quoting = w
            .in_flight
            .values()
            .any(|f| matches!(f.frame, Request::Quote { .. }));
        while next == total && !quoting && w.in_flight.len() < depth {
            let Some((listing, window)) = w.windows.pop_first() else {
                break;
            };
            w.send_window(listing, window);
        }
        if !w.in_flight.is_empty() {
            w.receive();
        } else if next == total && w.windows.is_empty() {
            break;
        }
    }
    w.report.attempted = total as u64;
    (w.report, w.by_listing)
}

impl<'a> Worker<'a> {
    /// Sends `frame`, dialing first if the thread has no connection. A
    /// failed dial or write settles the frame's requests as errors.
    fn send(&mut self, frame: InFlight<'a>) {
        if self.conn.is_none() {
            self.conn = PipelinedClient::connect(self.addr, &self.config.client).ok();
        }
        match self.conn.as_mut().map(|conn| conn.send(&frame.frame)) {
            Some(Ok(corr)) => {
                self.in_flight.insert(corr, frame);
            }
            _ => {
                self.report.errors += frame.requests.len() as u64;
                self.lose_connection();
            }
        }
    }

    /// Waits for the next answer and settles the frame it answers.
    fn receive(&mut self) {
        match self.conn.as_mut().map(PipelinedClient::recv) {
            Some(Ok((corr, response))) => {
                // An id nobody awaits is a loop-originated shed (corr 0);
                // the server hangs up after it, and the next read fails.
                if let Some(frame) = self.in_flight.remove(&corr) {
                    self.settle(frame, response);
                }
            }
            _ => self.lose_connection(),
        }
    }

    /// The connection failed: every frame in flight on it is lost, so its
    /// requests settle as errors. The next send dials afresh.
    fn lose_connection(&mut self) {
        self.conn = None;
        for frame in std::mem::take(&mut self.in_flight).into_values() {
            self.report.errors += frame.requests.len() as u64;
        }
    }

    /// Settles (or resends) `frame` under its answer.
    fn settle(&mut self, mut frame: InFlight<'a>, response: Response) {
        let n = frame.requests.len() as u64;
        match (&frame.frame, response) {
            (Request::Quote { .. }, Response::Quote(quote)) => self.quoted(frame, &quote),
            (Request::Commit { .. }, Response::Commit(sale)) => {
                for request in frame.requests {
                    self.succeed(request, sale.price);
                }
            }
            (Request::BatchCommit { .. }, Response::BatchCommit(batch)) => {
                // Outcomes are index-aligned with the window; an answer
                // short of items leaves the rest as errors.
                let mut outcomes = batch.items.into_iter();
                for request in frame.requests {
                    match outcomes.next() {
                        Some(BatchOutcomeMsg::Sale(sale)) => self.succeed(request, sale.price),
                        Some(BatchOutcomeMsg::Error {
                            code: ErrorCode::BudgetExhausted,
                            ..
                        }) => self.report.budget_rejected += 1,
                        _ => self.report.errors += 1,
                    }
                }
            }
            (_, Response::Busy { retry_after_ms }) if frame.sheds_left > 0 => {
                frame.sheds_left -= 1;
                self.report.busy_retried += 1;
                std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms).max(1)));
                self.send(frame);
            }
            (_, Response::Busy { .. }) => self.report.busy += n,
            // Budget exhaustion is deterministic: retrying cannot succeed.
            (
                _,
                Response::Error {
                    code: ErrorCode::BudgetExhausted,
                    ..
                },
            ) => self.report.budget_rejected += n,
            _ => self.report.errors += n,
        }
    }

    /// A request's `QUOTE` answered: it succeeds (quote mode), goes on to
    /// its keyed `COMMIT`, or joins its listing's batch window.
    fn quoted(&mut self, frame: InFlight<'a>, quote: &QuoteMsg) {
        let Some(&request) = frame.requests.first() else {
            return;
        };
        let batch = self.config.batch_size;
        if self.config.mode == LoadMode::Quote {
            self.succeed(request, 0.0);
        } else if batch <= 1 {
            let BatchItemMsg {
                x,
                snapshot_epoch,
                payment,
                nonce,
                buyer,
            } = self.item(request, quote);
            let frame = InFlight {
                frame: Request::Commit {
                    listing: request.listing.map(str::to_string),
                    x,
                    snapshot_epoch,
                    payment,
                    nonce,
                    buyer,
                },
                ..frame
            };
            self.send(frame);
        } else {
            let item = self.item(request, quote);
            let window = self.windows.entry(request.listing).or_default();
            window.0.push(request);
            window.1.push(item);
            if window.0.len() >= batch {
                if let Some(window) = self.windows.remove(&request.listing) {
                    self.send_window(request.listing, window);
                }
            }
        }
    }

    /// Redeems one listing's window of quoted requests in one
    /// `BATCH_COMMIT`.
    fn send_window(&mut self, listing: Option<&str>, (requests, items): Window<'a>) {
        let frame = Request::BatchCommit {
            listing: listing.map(str::to_string),
            items,
        };
        self.send(InFlight {
            frame,
            requests,
            sheds_left: self.config.busy_retries,
        });
    }

    /// The commit that redeems `request`'s quote at the quoted price.
    fn item(&self, request: Pending, quote: &QuoteMsg) -> BatchItemMsg {
        BatchItemMsg {
            x: quote.x,
            snapshot_epoch: quote.snapshot_epoch,
            payment: quote.price,
            nonce: Some(request.nonce),
            buyer: self.config.buyer,
        }
    }

    /// `request` succeeded at `price` (`0.0` for a quote).
    fn succeed(&mut self, request: Pending<'a>, price: f64) {
        self.latency.record(request.started.elapsed());
        // Wire-sourced price: never let a corrupt frame poison the
        // running revenue totals.
        let price = if price.is_finite() { price } else { 0.0 };
        self.report.ok += 1;
        self.report.revenue += price;
        if !self.config.mix.is_empty() {
            let slice = self
                .by_listing
                .entry(request.listing.unwrap_or(""))
                .or_insert((0, 0.0));
            slice.0 += 1;
            slice.1 += price;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{self, SaleMsg};
    use std::net::TcpListener;
    use std::thread::JoinHandle;

    #[test]
    fn empty_mix_targets_the_default_listing() {
        let targets = expand_mix(&[]);
        assert!(targets.is_empty());
        assert_eq!(target_for(&targets, 3, 17, 64), None);
    }

    #[test]
    fn weighted_mix_expands_proportionally() {
        let mix = [("a".into(), 3), ("zero".into(), 0), ("b".into(), 1)];
        let targets = expand_mix(&mix);
        assert_eq!(targets.last().map(|&(total, _)| total), Some(4));
        let cycle: Vec<_> = (0..4).map(|i| target_for(&targets, 0, i, 4)).collect();
        let a = cycle.iter().filter(|&&t| t == Some("a")).count();
        let b = cycle.iter().filter(|&&t| t == Some("b")).count();
        assert_eq!((a, b), (3, 1));
        // Deterministic: the same (thread, i) always targets the same listing.
        assert_eq!(target_for(&targets, 1, 2, 8), target_for(&targets, 1, 2, 8));
        // Across a full cycle every entry is hit per its weight.
        let hits = (0..8)
            .filter(|&i| target_for(&targets, 0, i, 8) == Some("b"))
            .count();
        assert_eq!(hits, 2);

        // A u32::MAX weight costs one entry, not one per unit of weight.
        let mix = [("a".into(), u32::MAX), ("b".into(), 1)];
        let targets = expand_mix(&mix);
        assert_eq!(targets.len(), 2);
        let last_a = u32::MAX as usize - 1;
        assert_eq!(target_for(&targets, 0, last_a, 8), Some("a"));
        assert_eq!(target_for(&targets, 0, last_a + 1, 8), Some("b"));
        assert_eq!(target_for(&targets, 0, last_a + 2, 8), Some("a"));
    }

    /// Serves scripted answers on a loopback port, one list per
    /// connection in accept order: the `k`-th frame read on a connection
    /// is answered with its `k`-th response under the frame's correlation
    /// id, and a frame past the end of its list makes the peer hang up.
    /// The handle yields every request frame read, in order.
    fn scripted_peer(script: Vec<Vec<Response>>) -> (SocketAddr, JoinHandle<Vec<Request>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut seen = Vec::new();
            for answers in script {
                let (mut stream, _) = listener.accept().unwrap();
                let mut answers = answers.into_iter();
                while let Ok(payload) = wire::read_frame(&mut stream) {
                    let (corr, request) = Request::decode_framed(&payload).unwrap();
                    seen.push(request);
                    let Some(answer) = answers.next() else {
                        break;
                    };
                    wire::write_frame(&mut stream, &answer.encode_with_corr(corr)).unwrap();
                }
            }
            seen
        });
        (addr, handle)
    }

    fn one_thread(mode: LoadMode, requests: usize, busy_retries: u32) -> LoadConfig {
        LoadConfig {
            threads: 1,
            requests_per_thread: requests,
            mode,
            busy_retries,
            ..LoadConfig::default()
        }
    }

    fn quote_msg() -> Response {
        Response::Quote(QuoteMsg {
            x: 5.0,
            delta: 0.2,
            price: 2.5,
            expected_error: 0.1,
            metric: "mse".into(),
            snapshot_epoch: 3,
            listing: String::new(),
        })
    }

    fn sale_msg(price: f64) -> Response {
        Response::Commit(SaleMsg {
            inverse_ncp: 5.0,
            price,
            expected_error: 0.1,
            metric: "mse".into(),
            transaction: 1,
            weights: vec![0.5],
        })
    }

    #[test]
    fn busy_then_success_counts_once_as_ok() {
        // The accounting bug this guards against: a request shed once and
        // then served must not show up in both `busy` and `ok`. The shed
        // COMMIT is resent unchanged after the server's hint.
        let hint = 40;
        let (addr, peer) = scripted_peer(vec![vec![
            quote_msg(),
            Response::Busy {
                retry_after_ms: hint,
            },
            sale_msg(2.5),
        ]]);
        let report = run_load(addr, &one_thread(LoadMode::Buy, 1, 2));
        assert_eq!(
            (
                report.attempted,
                report.ok,
                report.busy,
                report.busy_retried
            ),
            (1, 1, 0, 1)
        );
        assert_eq!(report.attempted, report.ok + report.busy + report.errors);
        assert!((report.ok_rate() - 1.0).abs() < 1e-12);
        assert_eq!(report.revenue, 2.5);
        assert!(report.elapsed >= Duration::from_millis(hint.into()));
        let seen = peer.join().unwrap();
        assert_eq!(seen.len(), 3);
        assert!(matches!(seen[1], Request::Commit { nonce: Some(_), .. }));
        assert_eq!(seen[1], seen[2]);
    }

    #[test]
    fn busy_budget_exhaustion_is_a_final_shed() {
        let busy = || Response::Busy { retry_after_ms: 1 };
        let (addr, peer) = scripted_peer(vec![vec![busy(), busy()]]);
        let report = run_load(addr, &one_thread(LoadMode::Quote, 1, 1));
        assert_eq!((report.ok, report.busy, report.busy_retried), (0, 1, 1));
        assert_eq!(report.attempted, report.ok + report.busy + report.errors);
        assert_eq!(peer.join().unwrap().len(), 2);
    }

    #[test]
    fn transport_errors_resolve_without_retry() {
        // The first connection hangs up on its first frame: that request
        // is an error, never resent, and the next request dials afresh.
        let (addr, peer) = scripted_peer(vec![vec![], vec![quote_msg()]]);
        let report = run_load(addr, &one_thread(LoadMode::Quote, 2, 3));
        assert_eq!((report.ok, report.busy, report.errors), (1, 0, 1));
        assert_eq!(report.attempted, 2);
        assert_eq!(peer.join().unwrap().len(), 2);
    }
}
