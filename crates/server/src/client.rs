//! Blocking client for the Nimbus wire protocol.
//!
//! One [`NimbusClient`] owns one TCP connection (re-established on demand
//! after a failure) and issues synchronous request/response calls. A
//! server-side `BUSY` frame (admission-control shedding) and transient
//! transport faults are retried under the configured [`RetryPolicy`] with
//! exponential backoff and jitter; once the budget is exhausted they
//! surface as typed errors. Any other error frame surfaces as
//! [`ServerError::Remote`] with its machine-readable
//! [`crate::wire::ErrorCode`]. Connect, read and write are all bounded by
//! [`ClientConfig`] timeouts — a hung server costs the caller at most one
//! timeout per attempt, never a stuck thread.
//!
//! # Retry safety
//!
//! Read-only requests (`MENU`, `QUOTE`, `INFO`, `STATS`) are always safe
//! to retry. A plain [`NimbusClient::commit`] is *not*: if the ACK is
//! lost the client cannot tell a failed commit from a successful one, so
//! it is only retried when the failure provably happened before the
//! request was sent. [`NimbusClient::commit_idempotent`] closes that gap:
//! it attaches an idempotency key (quote epoch + a client nonce), which
//! the broker's write-ahead journal deduplicates — a retried commit after
//! a lost ACK replays the recorded [`SaleMsg`] instead of charging twice.
//! [`NimbusClient::buy`] uses the idempotent path.

//!
//! # Pipelining
//!
//! [`PipelinedClient`] keeps many requests in flight on one connection:
//! [`PipelinedClient::send`] stamps each frame with a fresh correlation
//! id and returns immediately, [`PipelinedClient::recv`] returns the next
//! response *with its id* — responses may arrive out of request order.
//! [`NimbusClient::buy_batch`] amortizes whole purchase sessions: quotes
//! pipeline, then a single `BATCH_COMMIT` frame redeems all of them with
//! per-item status (one fsync per batch server-side).

use crate::error::ServerError;
use crate::wire::{
    self, AccountMsg, BatchItemMsg, BatchOutcomeMsg, InfoMsg, ListingsMsg, MenuMsg, QuoteMsg,
    Request, Response, SaleMsg, StatsMsg,
};
use crate::Result;
use nimbus_market::PurchaseRequest;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Bounded-retry schedule for `BUSY` sheds and transient transport
/// faults: attempt `k` (1-based) backs off `base_backoff · 2^(k-1)`
/// capped at `max_backoff`, jittered uniformly into the upper half of
/// that window. A server `retry_after_ms` hint raises (never lowers) the
/// wait.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts including the first (`1` disables retries; `0` is
    /// treated as `1`).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff sleep.
    pub max_backoff: Duration,
    /// Jitter / nonce seed. `0` (the default) derives a per-client seed
    /// from wall-clock entropy; fix it for deterministic tests.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// No retries: every failure surfaces on the first attempt. Load
    /// generators that do their own shed accounting use this.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }
}

/// Client-side socket timeouts and retry schedule.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Response read timeout.
    pub read_timeout: Duration,
    /// Request write timeout.
    pub write_timeout: Duration,
    /// Retry schedule for `BUSY` and transient transport failures.
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(5),
            retry: RetryPolicy::default(),
        }
    }
}

/// A blocking connection to a [`crate::NimbusServer`].
pub struct NimbusClient {
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    stream: Option<TcpStream>,
    rng_state: u64,
    buyer: Option<u64>,
}

/// Where in the request lifecycle an attempt failed — decides whether a
/// non-idempotent request may be retried.
enum Failure {
    /// The request never left this process (connect or resolution).
    BeforeSend(ServerError),
    /// The request may have reached the server (write or read failed).
    AfterSend(ServerError),
}

impl Failure {
    fn into_error(self) -> ServerError {
        match self {
            Failure::BeforeSend(e) | Failure::AfterSend(e) => e,
        }
    }
}

impl NimbusClient {
    /// Connects to `addr` under `config`'s timeouts.
    pub fn connect(addr: impl ToSocketAddrs, config: &ClientConfig) -> Result<NimbusClient> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )
            .into());
        }
        let mut client = NimbusClient {
            addrs,
            config: *config,
            stream: None,
            rng_state: seed_entropy(config.retry.seed),
            buyer: None,
        };
        client.ensure_connected().map_err(Failure::into_error)?;
        Ok(client)
    }

    /// Attaches a buyer identity to every subsequent commit
    /// and batch item, routing purchases through the listing's per-buyer
    /// noise-budget accounts. `None` (the default) commits anonymously.
    ///
    /// A [`crate::wire::ErrorCode::BudgetExhausted`] rejection is a
    /// *typed* error — it surfaces immediately as
    /// [`ServerError::Remote`] and is never retried (retrying cannot
    /// succeed until the budget is raised).
    pub fn set_buyer(&mut self, buyer: Option<u64>) {
        self.buyer = buyer;
    }

    /// The buyer identity attached to commits, if any.
    pub fn buyer(&self) -> Option<u64> {
        self.buyer
    }

    /// Fetches the posted `(inverse NCP, price)` menu of `listing`
    /// (`None` = the server's default listing).
    pub fn menu(&mut self, listing: Option<&str>) -> Result<MenuMsg> {
        let listing = listing.map(str::to_string);
        match self.call(&Request::Menu { listing }, true)? {
            Response::Menu(m) => Ok(m),
            other => Err(unexpected(&other)),
        }
    }

    /// Prices a purchase request against `listing` (`None` = the
    /// server's default listing); the quote pins the snapshot epoch and
    /// echoes the listing.
    pub fn quote(&mut self, listing: Option<&str>, request: PurchaseRequest) -> Result<QuoteMsg> {
        let listing = listing.map(str::to_string);
        match self.call(&Request::Quote { listing, request }, true)? {
            Response::Quote(q) => Ok(q),
            other => Err(unexpected(&other)),
        }
    }

    /// [`NimbusClient::quote`] against a named listing. The serving
    /// benchmark's set-up calls it; new code passes the listing to
    /// `quote`.
    pub fn quote_on(&mut self, listing: &str, request: PurchaseRequest) -> Result<QuoteMsg> {
        self.quote(Some(listing), request)
    }

    /// Redeems a quote with a payment; the sale carries the noisy weights.
    /// The commit routes to the listing the quote echoes (the default
    /// listing when the quote names none).
    ///
    /// Without an idempotency key, this is only retried when the failure
    /// provably happened before the request was sent — prefer
    /// [`NimbusClient::commit_idempotent`] under lossy conditions.
    pub fn commit(&mut self, quote: &QuoteMsg, payment: f64) -> Result<SaleMsg> {
        self.commit_keyed(quote, payment, None)
    }

    /// Redeems a quote under a fresh idempotency key, so retries after a
    /// lost ACK replay the journalled sale exactly once instead of
    /// charging twice. Routes to the listing the quote echoes.
    pub fn commit_idempotent(&mut self, quote: &QuoteMsg, payment: f64) -> Result<SaleMsg> {
        let nonce = self.next_u64();
        self.commit_keyed(quote, payment, Some(nonce))
    }

    /// A `COMMIT` of `quote`; only a keyed one is retried after a failure
    /// that may have reached the server.
    fn commit_keyed(
        &mut self,
        quote: &QuoteMsg,
        payment: f64,
        nonce: Option<u64>,
    ) -> Result<SaleMsg> {
        let request = Request::Commit {
            listing: Some(quote.listing.clone()).filter(|l| !l.is_empty()),
            x: quote.x,
            snapshot_epoch: quote.snapshot_epoch,
            payment,
            nonce,
            buyer: self.buyer,
        };
        match self.call(&request, nonce.is_some())? {
            Response::Commit(s) => Ok(s),
            other => Err(unexpected(&other)),
        }
    }

    /// Quote then commit at exactly the quoted price, idempotently,
    /// against `listing` (`None` = the server's default listing).
    pub fn buy(&mut self, listing: Option<&str>, request: PurchaseRequest) -> Result<SaleMsg> {
        let quote = self.quote(listing, request)?;
        self.commit_idempotent(&quote, quote.price)
    }

    /// Fetches metadata and ledger accounting of `listing` (`None` = the
    /// server's default listing).
    pub fn info(&mut self, listing: Option<&str>) -> Result<InfoMsg> {
        let listing = listing.map(str::to_string);
        match self.call(&Request::Info { listing }, true)? {
            Response::Info(i) => Ok(i),
            other => Err(unexpected(&other)),
        }
    }

    /// Queries a buyer's noise-budget account against `listing` (`None`
    /// = the server's default listing): precision spent, budget, and
    /// remaining.
    pub fn account(&mut self, listing: Option<&str>, buyer: u64) -> Result<AccountMsg> {
        let listing = listing.map(str::to_string);
        match self.call(&Request::Account { listing, buyer }, true)? {
            Response::Account(a) => Ok(a),
            other => Err(unexpected(&other)),
        }
    }

    /// Enumerates the marketplace's listing directory.
    pub fn listings(&mut self) -> Result<ListingsMsg> {
        match self.call(&Request::Listings, true)? {
            Response::Listings(l) => Ok(l),
            other => Err(unexpected(&other)),
        }
    }

    /// Admin: publishes (or re-publishes) a listing, returning
    /// `(epoch, expected_revenue)` of the freshly posted snapshot. A
    /// re-publish invalidates every outstanding quote via the epoch check.
    pub fn publish(&mut self, listing: &str) -> Result<(u64, f64)> {
        let request = Request::Publish {
            listing: listing.to_string(),
        };
        // Publishing is idempotent at the marketplace level (a repeated
        // publish just posts another epoch), so retries are safe.
        match self.call(&request, true)? {
            Response::Publish {
                epoch,
                expected_revenue,
                ..
            } => Ok((epoch, expected_revenue)),
            other => Err(unexpected(&other)),
        }
    }

    /// Admin: retires a listing permanently.
    pub fn retire(&mut self, listing: &str) -> Result<()> {
        let request = Request::Retire {
            listing: listing.to_string(),
        };
        match self.call(&request, false)? {
            Response::Retire { .. } => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the server's serving statistics.
    pub fn stats(&mut self) -> Result<StatsMsg> {
        match self.call(&Request::Stats, true)? {
            Response::Stats(s) => Ok(s),
            other => Err(unexpected(&other)),
        }
    }

    /// Redeems many quotes in one `BATCH_COMMIT` frame, returning
    /// per-item outcomes in request order. One stale epoch or short
    /// payment fails only its own item.
    ///
    /// The call is retried after a lost ACK only when *every* item
    /// carries an idempotency nonce — the journal then dedups replayed
    /// items exactly like [`NimbusClient::commit_idempotent`].
    pub fn commit_batch(
        &mut self,
        listing: Option<&str>,
        items: Vec<BatchItemMsg>,
    ) -> Result<Vec<BatchOutcomeMsg>> {
        let idempotent = !items.is_empty() && items.iter().all(|i| i.nonce.is_some());
        let request = Request::BatchCommit {
            listing: listing.map(str::to_string),
            items,
        };
        match self.call(&request, idempotent)? {
            Response::BatchCommit(batch) => Ok(batch.items),
            other => Err(unexpected(&other)),
        }
    }

    /// Quotes every request, then redeems all of them in one idempotent
    /// `BATCH_COMMIT` at exactly the quoted prices, against `listing`
    /// (`None` = the server's default listing). Returns per-item outcomes
    /// in request order.
    ///
    /// Compared with [`NimbusClient::buy`] in a loop this pays one
    /// commit round trip — and one journal fsync server-side — for the
    /// whole batch.
    pub fn buy_batch(
        &mut self,
        listing: Option<&str>,
        requests: &[PurchaseRequest],
    ) -> Result<Vec<BatchOutcomeMsg>> {
        let mut items = Vec::with_capacity(requests.len());
        for request in requests {
            let quote = self.quote(listing, *request)?;
            items.push(BatchItemMsg {
                x: quote.x,
                snapshot_epoch: quote.snapshot_epoch,
                payment: quote.price,
                nonce: Some(self.next_u64()),
                buyer: self.buyer,
            });
        }
        if items.is_empty() {
            return Ok(Vec::new());
        }
        self.commit_batch(listing, items)
    }

    /// One request with bounded retries. `idempotent` gates whether
    /// attempts that may have reached the server can be retried.
    fn call(&mut self, request: &Request, idempotent: bool) -> Result<Response> {
        let max_attempts = self.config.retry.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let budget_left = attempt < max_attempts;
            match self.call_once(request) {
                Ok(Response::Busy { retry_after_ms }) => {
                    // A queue-full BUSY leaves the connection open, but a
                    // deadline shed sends the same frame and then closes.
                    // The client cannot tell them apart, so it reconnects
                    // on the next attempt rather than retry on a socket
                    // the server may have closed.
                    self.stream = None;
                    if !budget_left {
                        return Err(ServerError::Busy { retry_after_ms });
                    }
                    self.backoff(attempt, Some(retry_after_ms));
                }
                Ok(Response::Error { code, message }) => {
                    return Err(ServerError::Remote { code, message });
                }
                Ok(ok) => return Ok(ok),
                Err(failure) => {
                    self.stream = None;
                    let retryable = match &failure {
                        Failure::BeforeSend(e) => transient(e),
                        Failure::AfterSend(e) => idempotent && transient(e),
                    };
                    if !budget_left || !retryable {
                        return Err(failure.into_error());
                    }
                    self.backoff(attempt, None);
                }
            }
        }
    }

    /// One synchronous round trip over the current (or a fresh)
    /// connection.
    fn call_once(&mut self, request: &Request) -> std::result::Result<Response, Failure> {
        let stream = self.ensure_connected()?;
        wire::write_frame(stream, &request.encode()).map_err(Failure::AfterSend)?;
        let payload = wire::read_frame(stream).map_err(Failure::AfterSend)?;
        Response::decode(&payload).map_err(Failure::AfterSend)
    }

    /// Returns the live connection, dialing every configured address in
    /// order if there is none.
    fn ensure_connected(&mut self) -> std::result::Result<&mut TcpStream, Failure> {
        let stream = match self.stream.take() {
            Some(stream) => stream,
            None => dial(&self.addrs, &self.config).map_err(Failure::BeforeSend)?,
        };
        Ok(self.stream.insert(stream))
    }

    /// Sleeps the jittered exponential backoff for retry `attempt`
    /// (1-based); a server hint raises the wait but never lowers it.
    fn backoff(&mut self, attempt: u32, hint_ms: Option<u32>) {
        let retry = self.config.retry;
        let exp = retry
            .base_backoff
            .saturating_mul(1u32 << (attempt - 1).min(16));
        let cap = exp.min(retry.max_backoff).max(Duration::from_millis(1));
        // Uniform jitter in [cap/2, cap]: decorrelates clients that were
        // shed by the same queue-full episode.
        let half = cap / 2;
        let jitter_ns = self.next_u64() % (half.as_nanos().max(1) as u64);
        let mut wait = half + Duration::from_nanos(jitter_ns);
        if let Some(ms) = hint_ms {
            wait = wait.max(Duration::from_millis(ms as u64));
        }
        std::thread::sleep(wait);
    }

    /// splitmix64 step over the client's private state.
    fn next_u64(&mut self) -> u64 {
        self.rng_state = self.rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix_finalize(self.rng_state)
    }
}

/// A pipelined connection: many requests in flight at once,
/// responses matched by correlation id rather than order.
///
/// [`PipelinedClient::send`] writes a frame stamped with a fresh id and
/// returns without waiting; [`PipelinedClient::recv`] blocks for the
/// *next* response on the socket, which may answer any outstanding id —
/// the server executes frames concurrently and answers as they
/// complete. It is the load generator's transport. Unlike
/// [`NimbusClient`] it does no retrying or reconnecting of its own
/// (in-flight requests cannot be transparently replayed), so a transport
/// error poisons the connection and the caller starts a new one.
pub struct PipelinedClient {
    stream: TcpStream,
    next_corr: u64,
    in_flight: usize,
}

impl PipelinedClient {
    /// Connects under `config`'s timeouts (the retry policy is unused:
    /// pipelined transport errors are not retryable).
    pub fn connect(addr: impl ToSocketAddrs, config: &ClientConfig) -> Result<PipelinedClient> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        Ok(PipelinedClient {
            stream: dial(&addrs, config)?,
            // Corr ids start at 1: 0 is what loop-originated frames
            // (timeout sheds) are stamped with.
            next_corr: 1,
            in_flight: 0,
        })
    }

    /// Sends `request` stamped with a fresh correlation id, returning the
    /// id without waiting for the response.
    pub fn send(&mut self, request: &Request) -> Result<u64> {
        let corr = self.next_corr;
        self.next_corr = self.next_corr.wrapping_add(1).max(1);
        wire::write_frame(&mut self.stream, &request.encode_with_corr(corr))?;
        self.in_flight += 1;
        Ok(corr)
    }

    /// Receives the next response frame, whichever outstanding request it
    /// answers. Typed error and `BUSY` frames are returned as
    /// [`Response`] values (they carry the id of the request they
    /// answer); only transport faults surface as `Err`.
    pub fn recv(&mut self) -> Result<(u64, Response)> {
        let payload = wire::read_frame(&mut self.stream)?;
        let decoded = Response::decode_framed(&payload)?;
        self.in_flight = self.in_flight.saturating_sub(1);
        Ok(decoded)
    }

    /// Requests sent minus responses received.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }
}

/// Dials each address in order and returns the first connection, with
/// `config`'s read and write timeouts set and Nagle off.
fn dial(addrs: &[SocketAddr], config: &ClientConfig) -> Result<TcpStream> {
    let mut last_err: Option<std::io::Error> = None;
    for candidate in addrs {
        match TcpStream::connect_timeout(candidate, config.connect_timeout) {
            Ok(stream) => {
                stream.set_read_timeout(Some(config.read_timeout))?;
                stream.set_write_timeout(Some(config.write_timeout))?;
                let _ = stream.set_nodelay(true);
                return Ok(stream);
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err
        .unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::AddrNotAvailable, "no addresses to dial")
        })
        .into())
}

pub(crate) fn splitmix_finalize(v: u64) -> u64 {
    let mut z = v;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeds the jitter/nonce stream: a fixed non-zero seed is deterministic;
/// seed 0 mixes wall-clock nanos with the process id so concurrent
/// clients draw distinct nonces.
pub(crate) fn seed_entropy(seed: u64) -> u64 {
    if seed != 0 {
        return splitmix_finalize(seed);
    }
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    splitmix_finalize(nanos ^ (u64::from(std::process::id()) << 32))
}

/// Whether an error is a transient transport fault worth retrying, as
/// opposed to a protocol violation or typed server error.
fn transient(e: &ServerError) -> bool {
    matches!(e, ServerError::Io(_) | ServerError::ConnectionClosed)
}

fn unexpected(response: &Response) -> ServerError {
    ServerError::Protocol {
        reason: format!("response variant does not match the request: {response:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_policy_defaults_are_bounded() {
        let p = RetryPolicy::default();
        assert!(p.max_attempts >= 2);
        assert!(p.base_backoff <= p.max_backoff);
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }

    #[test]
    fn seeded_nonce_streams_are_deterministic_and_distinct() {
        let a1 = splitmix_finalize(7u64.wrapping_add(0x9E37_79B9_7F4A_7C15));
        let mut state = splitmix_finalize(7);
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        assert_ne!(splitmix_finalize(state), a1); // chained state, not a pure fn of the seed
        assert_eq!(seed_entropy(42), seed_entropy(42));
        assert_ne!(seed_entropy(42), seed_entropy(43));
    }

    #[test]
    fn transient_classification() {
        assert!(transient(&ServerError::ConnectionClosed));
        assert!(transient(
            &std::io::Error::new(std::io::ErrorKind::TimedOut, "slow").into()
        ));
        assert!(!transient(&ServerError::Busy { retry_after_ms: 1 }));
        assert!(!transient(&ServerError::Protocol {
            reason: "bad".into()
        }));
    }
}
