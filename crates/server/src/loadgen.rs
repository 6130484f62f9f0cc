//! Loopback load generator: N client threads × M requests against one
//! server, reporting throughput, latency quantiles and shed rate.
//!
//! Shared by the `nimbus client load` CLI subcommand and the end-to-end
//! tests. Each thread owns its own connection(s) and issues its
//! requests; when a connection is shed (`BUSY`) or fails, the thread
//! reconnects and keeps going, counting every outcome. With
//! [`LoadConfig::busy_retries`] > 0, a shed request
//! is retried after honoring the server's `retry_after_ms` hint; retried
//! sheds are counted separately from final ones, and a request that is
//! shed then succeeds counts **once** in `ok` and zero times in `busy`
//! (see `run_request`'s unit tests). The report therefore reconciles
//! exactly: `attempted == ok + busy + budget_rejected + errors` and —
//! on the classic per-request path — the server's `busy_rejections`
//! counter equals `busy + busy_retried`; for [`LoadMode::Buy`] the
//! client-observed revenue can be checked against the server-side
//! ledger.
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
//! # Pipelining and batching
//!
//! With [`LoadConfig::pipeline_depth`] > 1 each thread drives one
//! [`PipelinedClient`] with up to that many correlated requests in
//! flight. [`LoadMode::Buy`] additionally groups commits:
//! [`LoadConfig::batch_size`] quotes pipeline first, then one
//! `BATCH_COMMIT` frame redeems the window (one group-committed journal
//! write server-side). A shed `BATCH_COMMIT` is retried like any shed
//! request (its items carry nonces, so replays are deduplicated); if its
//! retry budget runs out, *every* request in the window counts as `busy`
//! — one shed frame, `batch_size` shed requests — so the server-side
//! `busy_rejections` equality above does not hold for batched runs.
//! The pipelined path targets the server's default listing; a non-empty
//! [`LoadConfig::mix`] falls back to the classic per-request path.
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
//! [`LoadConfig::mix`] drives the marketplace routing path: each entry is
//! a `(listing, weight)` pair. Request `i` of thread `t` takes slot
//! `(t·M + i) mod W` of a cycle of `W` = total weight, in which each
//! listing holds as many consecutive slots as its weight, so a mix of
//! `[("a", 3), ("b", 1)]` sends 3 of every 4 requests to `"a"`.
//! An empty mix preserves the classic behavior: every request goes to the
//! server's default listing. [`LoadReport::per_listing`] breaks `ok` and
//! `revenue` down by listing so each ledger reconciles independently.

use crate::client::{ClientConfig, NimbusClient, PipelinedClient, RetryPolicy};
use crate::error::ServerError;
use crate::stats::LatencyHistogram;
use crate::wire::{BatchItemMsg, BatchOutcomeMsg, ErrorCode, QuoteMsg, Request, Response};
use crate::Result;
use nimbus_market::PurchaseRequest;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
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
    /// Socket timeouts for every connection. The retry policy inside is
    /// overridden to [`RetryPolicy::none`]: the load generator does its
    /// own shed accounting and must see every `BUSY` individually.
    pub client: ClientConfig,
    /// Times a shed request is retried (after the server's
    /// `retry_after_ms` hint) before counting as a final `busy`. `0`
    /// preserves the classic one-shot accounting.
    pub busy_retries: u32,
    /// Weighted per-listing traffic mix. Empty = every request targets
    /// the server's default listing; entries with weight 0 are skipped.
    pub mix: Vec<(String, u32)>,
    /// Correlated requests kept in flight per thread. `0` or
    /// `1` = classic blocking request/response.
    pub pipeline_depth: usize,
    /// Commits grouped into one `BATCH_COMMIT` frame per window
    /// ([`LoadMode::Buy`] on the pipelined path only). `0` or `1` =
    /// one `COMMIT` per request.
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

/// Final resolution of one load-generator request, after retries.
#[derive(Debug, Default, PartialEq)]
struct RequestOutcome {
    /// The request succeeded (exactly one of `ok`/`busy`/`error`).
    ok: bool,
    /// Sale price (`Buy`) or `0.0` (`Quote`) when `ok`.
    price: f64,
    /// The final outcome was a `BUSY` shed.
    busy: bool,
    /// The final outcome was a `BUDGET_EXHAUSTED` rejection.
    budget: bool,
    /// The final outcome was some other failure.
    error: bool,
    /// `BUSY` sheds absorbed by retries along the way.
    busy_retried: u64,
}

/// Resolves one request under the shed-retry budget. Every call of
/// `attempt` is one wire round trip; a `BUSY` with budget left sleeps
/// the server's hint and tries again. The outcome is **mutually
/// exclusive**: a request that was shed and then succeeded reports `ok`
/// (with its sheds in `busy_retried`), never both `ok` and `busy` —
/// this is what keeps `attempted == ok + busy + errors` exact.
fn run_request<F>(busy_retries: u32, mut attempt: F) -> RequestOutcome
where
    F: FnMut() -> Result<f64>,
{
    let mut outcome = RequestOutcome::default();
    let mut sheds_left = busy_retries;
    loop {
        match attempt() {
            Ok(price) => {
                outcome.ok = true;
                outcome.price = price;
                return outcome;
            }
            Err(ServerError::Busy { retry_after_ms }) => {
                if sheds_left > 0 {
                    sheds_left -= 1;
                    outcome.busy_retried += 1;
                    std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms).max(1)));
                    continue;
                }
                outcome.busy = true;
                return outcome;
            }
            // Budget exhaustion is deterministic: retrying cannot
            // succeed, so it resolves immediately regardless of the
            // shed-retry budget.
            Err(ServerError::Remote {
                code: ErrorCode::BudgetExhausted,
                ..
            }) => {
                outcome.budget = true;
                return outcome;
            }
            Err(_) => {
                outcome.error = true;
                return outcome;
            }
        }
    }
}

/// Folds one resolved request into the running report.
fn apply_outcome(report: &mut LoadReport, outcome: &RequestOutcome) {
    report.attempted += 1;
    report.busy_retried += outcome.busy_retried;
    if outcome.ok {
        report.ok += 1;
        // Wire-sourced price: never let a corrupt frame poison the
        // running revenue total.
        if outcome.price.is_finite() {
            report.revenue += outcome.price;
        }
    } else if outcome.busy {
        report.busy += 1;
    } else if outcome.budget {
        report.budget_rejected += 1;
    } else {
        report.errors += 1;
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
    let latency = Arc::new(LatencyHistogram::default());
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
    let started = Instant::now();
    let pipelined = config.pipeline_depth > 1 && config.mix.is_empty();
    let per_thread: Vec<LoadReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.threads)
            .map(|t| {
                let targets = &targets;
                let latency = Arc::clone(&latency);
                scope.spawn(move || {
                    if pipelined {
                        thread_load_pipelined(addr, config, &latency, t)
                    } else {
                        thread_load(addr, config, targets, &latency, t)
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(report) => report,
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
    let mut by_listing: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    for r in per_thread {
        total.attempted += r.attempted;
        total.ok += r.ok;
        total.busy += r.busy;
        total.busy_retried += r.busy_retried;
        total.budget_rejected += r.budget_rejected;
        total.errors += r.errors;
        // nimbus-audit: allow(money-safety) — per-run totals were finiteness-guarded where each price was accumulated
        total.revenue += r.revenue;
        for slice in r.per_listing {
            let entry = by_listing.entry(slice.listing).or_insert((0, 0.0));
            entry.0 += slice.ok;
            // nimbus-audit: allow(money-safety) — per-listing slices carry revenue already guarded in the worker loop
            entry.1 += slice.revenue;
        }
    }
    total.per_listing = by_listing
        .into_iter()
        .map(|(listing, (ok, revenue))| ListingLoad {
            listing,
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

/// Classic blocking path: one request at a time per thread.
fn thread_load(
    addr: SocketAddr,
    config: &LoadConfig,
    targets: &[(u64, &str)],
    latency: &LatencyHistogram,
    thread: usize,
) -> LoadReport {
    let mut report = LoadReport::default();
    let mut by_listing: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    let mut client: Option<NimbusClient> = None;
    for i in 0..config.requests_per_thread {
        let target = target_for(targets, thread, i, config.requests_per_thread);
        let mut last_latency = Duration::ZERO;
        let outcome = run_request(config.busy_retries, || {
            let attempt_started = Instant::now();
            let result = attempt(&mut client, addr, config, target, thread, i);
            last_latency = attempt_started.elapsed();
            if result.is_err() {
                // The connection state is unknown after any failure;
                // reconnect before the next attempt.
                client = None;
            }
            result
        });
        if outcome.ok {
            latency.record(last_latency);
            if !config.mix.is_empty() {
                let entry = by_listing
                    .entry(target.unwrap_or("").to_string())
                    .or_insert((0, 0.0));
                entry.0 += 1;
                // Wire-sourced price: never let a corrupt frame poison
                // the per-listing revenue total.
                if outcome.price.is_finite() {
                    entry.1 += outcome.price;
                }
            }
        }
        apply_outcome(&mut report, &outcome);
    }
    report.per_listing = by_listing
        .into_iter()
        .map(|(listing, (ok, revenue))| ListingLoad {
            listing,
            ok,
            revenue,
        })
        .collect();
    report
}

/// One request on a cached connection (re-established on demand).
/// Returns the sale price for `Buy`, `0.0` for `Quote`.
fn attempt(
    client: &mut Option<NimbusClient>,
    addr: SocketAddr,
    config: &LoadConfig,
    target: Option<&str>,
    thread: usize,
    i: usize,
) -> Result<f64> {
    let conn = match client {
        Some(conn) => conn,
        None => {
            // Force off the client's internal retries: the generator
            // counts and paces every shed itself.
            let client_config = ClientConfig {
                retry: RetryPolicy::none(),
                ..config.client
            };
            let conn = client.insert(NimbusClient::connect(addr, &client_config)?);
            conn.set_buyer(config.buyer);
            conn
        }
    };
    let request = request_for(thread, i, config.requests_per_thread);
    match (config.mode, target) {
        (LoadMode::Quote, None) => {
            conn.quote(request)?;
            Ok(0.0)
        }
        (LoadMode::Quote, Some(listing)) => {
            conn.quote_on(listing, request)?;
            Ok(0.0)
        }
        (LoadMode::Buy, None) => Ok(conn.buy(request)?.price),
        (LoadMode::Buy, Some(listing)) => Ok(conn.buy_on(listing, request)?.price),
    }
}

/// splitmix64 finalizer — the generator's nonce stream for batched
/// commits (must never repeat within a run, or the journal dedups a
/// genuine purchase).
fn splitmix(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Pipelined path: up to `pipeline_depth` quotes in flight on
/// one connection; `Buy` windows redeem through `BATCH_COMMIT`.
fn thread_load_pipelined(
    addr: SocketAddr,
    config: &LoadConfig,
    latency: &LatencyHistogram,
    thread: usize,
) -> LoadReport {
    let mut report = LoadReport::default();
    let total = config.requests_per_thread;
    let window = match config.mode {
        LoadMode::Quote => total.max(1),
        LoadMode::Buy => config.batch_size.max(1),
    };
    let client_config = ClientConfig {
        retry: RetryPolicy::none(),
        ..config.client
    };
    let mut conn = match PipelinedClient::connect(addr, &client_config) {
        Ok(conn) => conn,
        Err(_) => {
            report.attempted = total as u64;
            report.errors = total as u64;
            return report;
        }
    };
    // Seeded per thread, chained across windows: every nonce in the run
    // is distinct.
    let mut nonce_state = splitmix((thread as u64) ^ 0xD1B5_4A32_D192_ED03);
    let mut issued = 0usize;
    while issued < total {
        let batch = window.min(total - issued);
        let quotes = pipeline_quotes(
            &mut conn,
            config,
            latency,
            &mut report,
            thread,
            issued,
            batch,
        );
        issued += batch;
        let Some(quotes) = quotes else {
            // Transport death: everything not yet resolved (including
            // all still-unissued requests) counts as an error.
            let resolved = report.ok + report.busy + report.budget_rejected + report.errors;
            report.attempted = total as u64;
            report.errors += (total as u64).saturating_sub(resolved);
            return report;
        };
        if config.mode == LoadMode::Buy
            && !quotes.is_empty()
            && !batch_commit_window(
                &mut conn,
                config,
                latency,
                &mut report,
                &mut nonce_state,
                &quotes,
            )
        {
            let resolved = report.ok + report.busy + report.budget_rejected + report.errors;
            report.attempted = total as u64;
            report.errors += (total as u64).saturating_sub(resolved);
            return report;
        }
    }
    report.attempted = total as u64;
    report
}

/// Pipelines `count` quote requests starting at request index `base`,
/// resolving each as it answers (responses may arrive out of order). In
/// `Quote` mode a successful quote is a successful request; in `Buy`
/// mode the quotes come back for the window's `BATCH_COMMIT` and the
/// requests they price stay unresolved until it answers. A shed quote
/// with retry budget left is re-issued immediately under a fresh
/// correlation id — the pipeline keeps moving, so the `retry_after_ms`
/// hint is not slept on here. Returns `None` on transport death.
fn pipeline_quotes(
    conn: &mut PipelinedClient,
    config: &LoadConfig,
    latency: &LatencyHistogram,
    report: &mut LoadReport,
    thread: usize,
    base: usize,
    count: usize,
) -> Option<Vec<QuoteMsg>> {
    let depth = config.pipeline_depth.max(1);
    // corr id -> (request index, sheds left, send time)
    let mut pending: BTreeMap<u64, (usize, u32, Instant)> = BTreeMap::new();
    let mut quotes = Vec::new();
    let mut next = 0usize;
    let mut resolved = 0usize;
    while resolved < count {
        while next < count && pending.len() < depth {
            let corr = send_quote(conn, config, thread, base + next)?;
            pending.insert(corr, (next, config.busy_retries, Instant::now()));
            next += 1;
        }
        let (corr, response) = conn.recv().ok()?;
        let Some((idx, sheds_left, sent_at)) = pending.remove(&corr) else {
            continue; // unmatched id (e.g. a corr-0 loop-originated shed)
        };
        match response {
            Response::Quote(quote) => {
                latency.record(sent_at.elapsed());
                if config.mode == LoadMode::Quote {
                    report.ok += 1;
                } else {
                    quotes.push(quote);
                }
                resolved += 1;
            }
            Response::Busy { .. } if sheds_left > 0 => {
                report.busy_retried += 1;
                let corr = send_quote(conn, config, thread, base + idx)?;
                pending.insert(corr, (idx, sheds_left - 1, Instant::now()));
            }
            Response::Busy { .. } => {
                report.busy += 1;
                resolved += 1;
            }
            _ => {
                report.errors += 1;
                resolved += 1;
            }
        }
    }
    Some(quotes)
}

/// Sends one default-listing quote for request index `i` of `thread`,
/// returning its correlation id (`None` on transport death).
fn send_quote(
    conn: &mut PipelinedClient,
    config: &LoadConfig,
    thread: usize,
    i: usize,
) -> Option<u64> {
    let request = Request::Quote {
        listing: None,
        request: request_for(thread, i, config.requests_per_thread),
    };
    conn.send(&request).ok()
}

/// Redeems one window of quotes with a single idempotent `BATCH_COMMIT`.
/// Returns `false` on transport death.
fn batch_commit_window(
    conn: &mut PipelinedClient,
    config: &LoadConfig,
    latency: &LatencyHistogram,
    report: &mut LoadReport,
    nonce_state: &mut u64,
    quotes: &[QuoteMsg],
) -> bool {
    let items: Vec<BatchItemMsg> = quotes
        .iter()
        .map(|q| {
            *nonce_state = splitmix(*nonce_state);
            BatchItemMsg {
                x: q.x,
                snapshot_epoch: q.snapshot_epoch,
                payment: q.price,
                nonce: Some(*nonce_state),
                buyer: config.buyer,
            }
        })
        .collect();
    let request = Request::BatchCommit {
        listing: None,
        items,
    };
    let mut sheds_left = config.busy_retries;
    loop {
        let sent_at = Instant::now();
        let Ok(corr) = conn.send(&request) else {
            return false;
        };
        let outcome = loop {
            let Ok((got, response)) = conn.recv() else {
                return false;
            };
            if got == corr {
                break response;
            }
        };
        match outcome {
            Response::BatchCommit(batch) => {
                latency.record(sent_at.elapsed());
                for item in batch.items {
                    match item {
                        BatchOutcomeMsg::Sale(sale) => {
                            report.ok += 1;
                            // Wire-sourced price: never let a corrupt
                            // frame poison the running revenue total.
                            if sale.price.is_finite() {
                                report.revenue += sale.price;
                            }
                        }
                        BatchOutcomeMsg::Error {
                            code: ErrorCode::BudgetExhausted,
                            ..
                        } => report.budget_rejected += 1,
                        BatchOutcomeMsg::Error { .. } => report.errors += 1,
                    }
                }
                return true;
            }
            Response::Busy { retry_after_ms } if sheds_left > 0 => {
                // The items carry nonces, so a full replay is safe: the
                // journal dedups anything that did land.
                sheds_left -= 1;
                report.busy_retried += 1;
                std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms).max(1)));
            }
            Response::Busy { .. } => {
                // One shed frame, `quotes.len()` shed requests.
                report.busy += quotes.len() as u64;
                return true;
            }
            _ => {
                report.errors += quotes.len() as u64;
                return true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn busy_then_success_counts_once_as_ok() {
        // The accounting bug this guards against: a request shed once and
        // then served must not show up in both `busy` and `ok`.
        let mut calls = 0;
        let outcome = run_request(2, || {
            calls += 1;
            if calls == 1 {
                Err(ServerError::Busy { retry_after_ms: 1 })
            } else {
                Ok(2.5)
            }
        });
        assert!(outcome.ok);
        assert!(!outcome.busy);
        assert!(!outcome.error);
        assert_eq!(outcome.busy_retried, 1);
        assert_eq!(outcome.price, 2.5);

        let mut report = LoadReport::default();
        apply_outcome(&mut report, &outcome);
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
    }

    #[test]
    fn busy_budget_exhaustion_is_a_final_shed() {
        let outcome = run_request(1, || Err::<f64, _>(ServerError::Busy { retry_after_ms: 1 }));
        assert!(outcome.busy);
        assert!(!outcome.ok);
        assert_eq!(outcome.busy_retried, 1);

        let mut report = LoadReport::default();
        apply_outcome(&mut report, &outcome);
        assert_eq!((report.ok, report.busy, report.busy_retried), (0, 1, 1));
        assert_eq!(report.attempted, report.ok + report.busy + report.errors);
    }

    #[test]
    fn transport_errors_resolve_without_retry() {
        let mut calls = 0;
        let outcome = run_request(3, || {
            calls += 1;
            Err::<f64, _>(ServerError::ConnectionClosed)
        });
        assert_eq!(calls, 1); // only BUSY is retried
        assert!(outcome.error);

        let mut report = LoadReport::default();
        apply_outcome(&mut report, &outcome);
        assert_eq!((report.ok, report.busy, report.errors), (0, 0, 1));
    }
}
