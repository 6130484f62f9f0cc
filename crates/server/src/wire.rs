//! The Nimbus wire protocol: hand-rolled, length-prefixed, versioned.
//!
//! The build environment vendors no serialization or async crates, so the
//! protocol is a small explicit binary format over std TCP:
//!
//! ```text
//! frame   := u32_be payload_len | payload           (len ≤ MAX_FRAME_LEN)
//! payload := 'N' 'B' version:u8 opcode:u8 corr:u64 body
//! ```
//!
//! Every integer is big-endian; an `f64` travels as its IEEE-754 bit
//! pattern in a `u64` (bitwise round-trip, NaN-safe); a string is
//! `u16_be len | utf8 bytes` capped at [`MAX_STRING_LEN`]; an `f64` vector
//! is `u32_be len | f64*` capped at [`MAX_VEC_LEN`]. Decoders reject
//! trailing bytes, so a frame means exactly one message.
//!
//! # Operations
//!
//! | opcode | request | response |
//! |---|---|---|
//! | `0x01` / `0x81` | `MENU` (listing-scoped) | posted `(inverse NCP, price)` table + epoch |
//! | `0x02` / `0x82` | `QUOTE` (listing + one of the three §3.2 purchase options) | priced [`QuoteMsg`] pinned to a snapshot epoch |
//! | `0x03` / `0x83` | `COMMIT` (listing, quoted x, epoch, payment, optional idempotency nonce) | [`SaleMsg`] **including the noisy weight vector** |
//! | `0x04` / `0x84` | `INFO` (listing-scoped) | listing metadata + ledger accounting |
//! | `0x05` / `0x85` | `STATS` | per-op request/error counters + latency + per-listing accounting and group-commit counters |
//! | `0x06` / `0x86` | `LISTINGS` | the marketplace's listing directory, states included |
//! | `0x07` / `0x87` | `BATCH_COMMIT` (many sales, one frame) | per-item status: [`SaleMsg`] or typed error |
//! | `0x10` / `0x90` | `PUBLISH` (admin) | listing (re-)published: new epoch + expected revenue |
//! | `0x11` / `0x91` | `RETIRE` (admin) | listing retired, name echoed |
//! | `0x12` / `0x92` | `ACCOUNT` (buyer budget query) | [`AccountMsg`]: spent precision + budget + remaining |
//! | — / `0xBB` | — | `BUSY`: shed by admission control, with a `retry_after_ms` hint |
//! | — / `0xEE` | — | typed error: [`ErrorCode`] + message |
//!
//! The quote→commit epoch protocol crosses the wire intact: `QUOTE`
//! returns the snapshot epoch the price was derived from, `COMMIT` sends
//! it back, and a re-opened market answers with
//! [`ErrorCode::QuoteExpired`] exactly like the in-process API. A live
//! `PUBLISH` of an already-published listing rides the same rail: it
//! posts a new snapshot epoch, so every outstanding quote dies with
//! [`ErrorCode::QuoteExpired`] at commit time. Requests against a retired
//! listing answer [`ErrorCode::Retired`].
//!
//! Versioning is explicit and checked on both sides: encoders stamp
//! [`VERSION`] and decoders accept exactly [`VERSION`]. Every payload
//! carries a `u64` correlation id right after the opcode, so a client may
//! keep many requests in flight on one connection and responses (which
//! echo the id) may return **out of order**. `COMMIT` and each
//! `BATCH_COMMIT` item carry an optional idempotency nonce and an optional
//! `buyer: u64` charged against the listing's noise budget; an empty
//! listing name means the server's default listing. A payload at any
//! other version decodes to [`ServerError::UnsupportedVersion`], which the
//! server answers with a typed error frame before closing the connection.

use crate::error::ServerError;
use crate::Result;
use nimbus_market::{MarketError, PurchaseRequest};
use std::io::{Read, Write};

/// Leading magic bytes of every payload.
pub const MAGIC: [u8; 2] = *b"NB";
/// The protocol version: the only one this build encodes or decodes.
pub const VERSION: u8 = 5;
/// Cap on the number of items in one `BATCH_COMMIT` frame.
pub const MAX_BATCH_ITEMS: usize = 256;
/// Hard cap on a frame's payload length (framing limit: a peer cannot make
/// the other side allocate more than this per frame).
pub const MAX_FRAME_LEN: usize = 1 << 20;
/// Cap on an encoded string.
pub const MAX_STRING_LEN: usize = 1 << 10;
/// Cap on an encoded `f64` vector (covers menus and weight vectors).
pub const MAX_VEC_LEN: usize = 1 << 16;

// Request opcodes.
const OP_MENU: u8 = 0x01;
const OP_QUOTE: u8 = 0x02;
const OP_COMMIT: u8 = 0x03;
const OP_INFO: u8 = 0x04;
const OP_STATS: u8 = 0x05;
const OP_LISTINGS: u8 = 0x06;
const OP_BATCH_COMMIT: u8 = 0x07;
const OP_PUBLISH: u8 = 0x10;
const OP_RETIRE: u8 = 0x11;
const OP_ACCOUNT: u8 = 0x12;
// Response opcodes.
const OP_R_MENU: u8 = 0x81;
const OP_R_QUOTE: u8 = 0x82;
const OP_R_COMMIT: u8 = 0x83;
const OP_R_INFO: u8 = 0x84;
const OP_R_STATS: u8 = 0x85;
const OP_R_LISTINGS: u8 = 0x86;
const OP_R_BATCH_COMMIT: u8 = 0x87;
const OP_R_PUBLISH: u8 = 0x90;
const OP_R_RETIRE: u8 = 0x91;
const OP_R_ACCOUNT: u8 = 0x92;
const OP_R_BUSY: u8 = 0xBB;
const OP_R_ERROR: u8 = 0xEE;

/// Machine-readable error codes carried by error frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Malformed frame (magic, truncation, trailing bytes, caps).
    BadFrame = 1,
    /// Version byte mismatch.
    UnsupportedVersion = 2,
    /// Opcode not in the table above.
    UnknownOpcode = 3,
    /// Broker has no published snapshot.
    MarketNotOpen = 4,
    /// Commit carried a superseded snapshot epoch.
    QuoteExpired = 5,
    /// Payment below the re-derived posted price.
    InsufficientPayment = 6,
    /// Payment not a finite, non-negative amount.
    InvalidPayment = 7,
    /// Error/price budget unsatisfiable on the posted menu.
    Unsatisfiable = 8,
    /// Request parameters invalid (e.g. non-positive inverse NCP).
    InvalidRequest = 9,
    /// Server is draining for shutdown.
    ShuttingDown = 10,
    /// Anything else on the server side.
    Internal = 11,
    /// The write-ahead journal refused or failed the commit; the sale was
    /// not made durable and was not recorded.
    Durability = 12,
    /// The named listing has been retired; it no longer quotes or sells.
    Retired = 13,
    /// The buyer's cumulative noise budget cannot cover the commit; the
    /// message carries a machine-readable remaining-budget hint.
    BudgetExhausted = 14,
}

impl ErrorCode {
    fn from_u16(raw: u16) -> Option<ErrorCode> {
        use ErrorCode::*;
        Some(match raw {
            1 => BadFrame,
            2 => UnsupportedVersion,
            3 => UnknownOpcode,
            4 => MarketNotOpen,
            5 => QuoteExpired,
            6 => InsufficientPayment,
            7 => InvalidPayment,
            8 => Unsatisfiable,
            9 => InvalidRequest,
            10 => ShuttingDown,
            11 => Internal,
            12 => Durability,
            13 => Retired,
            14 => BudgetExhausted,
            _ => return None,
        })
    }

    /// Maps a broker-side failure onto its wire code.
    pub fn for_market_error(e: &MarketError) -> ErrorCode {
        match e {
            MarketError::MarketNotOpen => ErrorCode::MarketNotOpen,
            MarketError::ListingRetired { .. } => ErrorCode::Retired,
            MarketError::UnknownListing { .. }
            | MarketError::DuplicateListing { .. }
            | MarketError::InvalidConfig { .. } => ErrorCode::InvalidRequest,
            MarketError::QuoteExpired { .. } => ErrorCode::QuoteExpired,
            MarketError::BudgetExhausted { .. } => ErrorCode::BudgetExhausted,
            MarketError::InsufficientPayment { .. } => ErrorCode::InsufficientPayment,
            MarketError::InvalidPayment { .. } => ErrorCode::InvalidPayment,
            MarketError::Core(nimbus_core::CoreError::BudgetUnsatisfiable { .. }) => {
                ErrorCode::Unsatisfiable
            }
            MarketError::Core(_) => ErrorCode::InvalidRequest,
            MarketError::Journal(_) => ErrorCode::Durability,
            _ => ErrorCode::Internal,
        }
    }
}

/// A client→server message.
///
/// Every listing-scoped request carries `listing: Option<String>`:
/// `None` (an empty name on the wire) resolves to the server's configured
/// default listing, `Some(name)` routes to that listing by name.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Fetch the posted menu of a listing.
    Menu {
        /// Listing to read; `None` = the server's default listing.
        listing: Option<String>,
    },
    /// Price one of the three §3.2 purchase options against a listing.
    Quote {
        /// Listing to quote; `None` = the server's default listing.
        listing: Option<String>,
        /// The purchase option to price.
        request: PurchaseRequest,
    },
    /// Redeem a quote by `(x, epoch)` identity with a payment.
    Commit {
        /// Listing to commit at; `None` = the server's default listing.
        listing: Option<String>,
        /// Quoted inverse NCP.
        x: f64,
        /// Snapshot epoch the quote was priced against.
        snapshot_epoch: u64,
        /// Payment offered.
        payment: f64,
        /// Idempotency nonce: with `Some`, the server dedups the key
        /// `(snapshot_epoch, nonce)`, so a retried commit after a lost ACK
        /// replays the original sale instead of charging twice. `None`
        /// is a plain non-idempotent commit.
        nonce: Option<u64>,
        /// Buyer identity: with `Some`, the sale is charged against
        /// the buyer's cumulative noise-budget account and rejected with
        /// [`ErrorCode::BudgetExhausted`] when it cannot cover the
        /// commit. `None` is anonymous and bypasses budget accounting.
        buyer: Option<u64>,
    },
    /// Redeem many quotes in one frame. Items resolve independently:
    /// one stale epoch does not poison its neighbours, and the response
    /// reports a per-item [`SaleMsg`]-or-error in request order.
    BatchCommit {
        /// Listing to commit at; `None` = the server's default listing.
        listing: Option<String>,
        /// The commits, at most [`MAX_BATCH_ITEMS`].
        items: Vec<BatchItemMsg>,
    },
    /// Fetch a listing's metadata and ledger accounting.
    Info {
        /// Listing to describe; `None` = the server's default listing.
        listing: Option<String>,
    },
    /// Query a buyer's noise-budget account against a listing.
    Account {
        /// Listing to query; `None` = the server's default listing.
        listing: Option<String>,
        /// Buyer identity to look up.
        buyer: u64,
    },
    /// Enumerate the marketplace's listing directory.
    Listings,
    /// Fetch the server's per-op serving statistics.
    Stats,
    /// Admin: publish (or re-publish) a listing. Re-publishing posts a
    /// new snapshot epoch, invalidating every outstanding quote.
    Publish {
        /// Listing to publish.
        listing: String,
    },
    /// Admin: retire a listing permanently.
    Retire {
        /// Listing to retire.
        listing: String,
    },
}

/// `MENU` response body.
#[derive(Debug, Clone, PartialEq)]
pub struct MenuMsg {
    /// Epoch of the snapshot the menu was read from.
    pub epoch: u64,
    /// Metric the market is denominated in.
    pub metric: String,
    /// The posted `(inverse NCP, price)` table.
    pub points: Vec<(f64, f64)>,
}

/// One commit inside a `BATCH_COMMIT` request — the same fields a
/// standalone `COMMIT` carries, minus the listing (the batch routes as a
/// whole).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchItemMsg {
    /// Quoted inverse NCP.
    pub x: f64,
    /// Snapshot epoch the quote was priced against.
    pub snapshot_epoch: u64,
    /// Payment offered.
    pub payment: f64,
    /// Idempotency nonce; same dedup semantics as a standalone `COMMIT`.
    pub nonce: Option<u64>,
    /// Buyer identity; same budget semantics as a standalone
    /// `COMMIT`. `None` = anonymous.
    pub buyer: Option<u64>,
}

/// One item's resolution inside a `BATCH_COMMIT` response.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchOutcomeMsg {
    /// The item committed; the completed sale, weights included.
    Sale(SaleMsg),
    /// The item failed; its neighbours are unaffected.
    Error {
        /// Machine-readable code.
        code: ErrorCode,
        /// Human-readable message.
        message: String,
    },
}

/// `BATCH_COMMIT` response body: one outcome per request item, in
/// request order.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchCommitMsg {
    /// Per-item outcomes, index-aligned with the request's items.
    pub items: Vec<BatchOutcomeMsg>,
}

/// `QUOTE` response body — the wire image of a broker `Quote`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuoteMsg {
    /// Inverse NCP of the quoted version.
    pub x: f64,
    /// Noise control parameter δ = 1/x.
    pub delta: f64,
    /// Posted price.
    pub price: f64,
    /// Expected error under the market's metric.
    pub expected_error: f64,
    /// Metric name the error is denominated in.
    pub metric: String,
    /// Epoch the quote is pinned to; `COMMIT` must echo it.
    pub snapshot_epoch: u64,
    /// Listing the quote was priced at. `COMMIT` should route back to the
    /// same listing.
    pub listing: String,
}

/// One listing's row in a `LISTINGS` response.
#[derive(Debug, Clone, PartialEq)]
pub struct ListingMsg {
    /// Listing name buyers route by.
    pub name: String,
    /// Trainer identifier (e.g. `"linear_regression"`).
    pub model_kind: String,
    /// Mechanism identifier (e.g. `"gaussian"`).
    pub mechanism: String,
    /// Lifecycle state: `"draft"`, `"published"` or `"retired"`.
    pub state: String,
    /// Whether the listing currently serves buyers.
    pub open: bool,
    /// Expected revenue of the posted prices (0 until published).
    pub expected_revenue: f64,
}

/// `LISTINGS` response body — the marketplace's listing directory.
#[derive(Debug, Clone, PartialEq)]
pub struct ListingsMsg {
    /// The server's configured default listing (what unscoped requests
    /// resolve to).
    pub default_listing: String,
    /// Every listing, in name order, states included.
    pub listings: Vec<ListingMsg>,
}

/// One listing's accounting row in a `STATS` response.
#[derive(Debug, Clone, PartialEq)]
pub struct ListingStatsMsg {
    /// Listing name.
    pub listing: String,
    /// Lifecycle state: `"draft"`, `"published"` or `"retired"`.
    pub state: String,
    /// Epoch of the published snapshot (0 before first publish).
    pub epoch: u64,
    /// Completed sales so far.
    pub sales: u64,
    /// Revenue collected so far.
    pub revenue: f64,
    /// Commits rejected for budget exhaustion.
    pub budget_rejects: u64,
    /// Buyers whose remaining noise budget is zero.
    pub exhausted_buyers: u64,
    /// Group-commit flushes (one `write + fsync` each) of the listing's
    /// journal; 0 without a journal.
    pub journal_flushes: u64,
    /// Sale records those flushes carried.
    pub journal_records: u64,
    /// Flush leaders that waited in the gathering window for an announced
    /// sibling commit.
    pub journal_window_waits: u64,
}

/// `ACCOUNT` response body — one buyer's noise-budget account
/// against one listing.
#[derive(Debug, Clone, PartialEq)]
pub struct AccountMsg {
    /// Listing the account is held against.
    pub listing: String,
    /// Buyer identity queried.
    pub buyer: u64,
    /// Cumulative precision (inverse NCP) charged so far.
    pub spent: f64,
    /// Per-buyer budget; `None` when the listing is unmetered.
    pub budget: Option<f64>,
    /// Budget remaining; `None` when the listing is unmetered.
    pub remaining: Option<f64>,
}

/// `COMMIT` response body — the completed sale, weights included.
#[derive(Debug, Clone, PartialEq)]
pub struct SaleMsg {
    /// Inverse NCP of the version sold.
    pub inverse_ncp: f64,
    /// Price charged (re-derived server-side).
    pub price: f64,
    /// Expected error of the delivered instance.
    pub expected_error: f64,
    /// Metric name.
    pub metric: String,
    /// Ledger transaction id.
    pub transaction: u64,
    /// The noisy model's weight vector.
    pub weights: Vec<f64>,
}

/// `INFO` response body.
#[derive(Debug, Clone, PartialEq)]
pub struct InfoMsg {
    /// Listing (seller/dataset) name.
    pub listing: String,
    /// Metric the market is denominated in.
    pub metric: String,
    /// Published snapshot epoch.
    pub epoch: u64,
    /// Number of posted menu points.
    pub menu_len: u64,
    /// Menu support, low end.
    pub x_lo: f64,
    /// Menu support, high end.
    pub x_hi: f64,
    /// Expected revenue of the posted prices.
    pub expected_revenue: f64,
    /// Completed sales so far.
    pub sales: u64,
    /// Revenue collected so far.
    pub revenue: f64,
}

/// One operation's row in a `STATS` response.
#[derive(Debug, Clone, PartialEq)]
pub struct OpStatsMsg {
    /// Operation name.
    pub op: String,
    /// Requests handled (ok + error).
    pub requests: u64,
    /// Requests answered with a typed error.
    pub errors: u64,
    /// p50 service latency, upper bucket bound in µs (0 when empty).
    pub p50_micros: u64,
    /// p99 service latency, upper bucket bound in µs (0 when empty).
    pub p99_micros: u64,
}

/// `STATS` response body.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsMsg {
    /// Connections accepted.
    pub connections: u64,
    /// Connections shed with `BUSY` at admission.
    pub busy_rejections: u64,
    /// Frames that failed to decode.
    pub protocol_errors: u64,
    /// Connections currently parked in the admission queues, summed over
    /// shards at snapshot time.
    pub queue_depth: u64,
    /// Per-operation counters, in registry order.
    pub ops: Vec<OpStatsMsg>,
    /// Per-listing accounting rows from one consistent marketplace
    /// snapshot.
    pub listings: Vec<ListingStatsMsg>,
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Posted menu.
    Menu(MenuMsg),
    /// Priced quote.
    Quote(QuoteMsg),
    /// Completed sale.
    Commit(SaleMsg),
    /// Per-item outcomes of a `BATCH_COMMIT`.
    BatchCommit(BatchCommitMsg),
    /// Listing metadata.
    Info(InfoMsg),
    /// A buyer's noise-budget account.
    Account(AccountMsg),
    /// The marketplace's listing directory.
    Listings(ListingsMsg),
    /// Serving statistics.
    Stats(StatsMsg),
    /// A listing was (re-)published.
    Publish {
        /// Listing name echoed back.
        listing: String,
        /// Epoch of the freshly posted snapshot.
        epoch: u64,
        /// Expected revenue of the freshly posted prices.
        expected_revenue: f64,
    },
    /// A listing was retired.
    Retire {
        /// Listing name echoed back.
        listing: String,
    },
    /// Shed by admission control (or drained at shutdown).
    Busy {
        /// Server's hint for how long to back off before retrying, in
        /// milliseconds (0 = no hint).
        retry_after_ms: u32,
    },
    /// Typed failure.
    Error {
        /// Machine-readable code.
        code: ErrorCode,
        /// Human-readable message.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Primitive encoding
// ---------------------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Starts a payload: magic, [`VERSION`], opcode, correlation id.
    fn header(opcode: u8, corr: u64) -> Enc {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        buf.push(opcode);
        buf.extend_from_slice(&corr.to_be_bytes());
        Enc { buf }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes `s`, cut at the last char boundary within
    /// [`MAX_STRING_LEN`]: an error message may echo a client's name.
    fn str(&mut self, s: &str) {
        let mut len = s.len().min(MAX_STRING_LEN);
        while !s.is_char_boundary(len) {
            len -= 1;
        }
        #[expect(clippy::indexing_slicing, reason = "len ≤ s.len(), on a char boundary")]
        let bytes = &s.as_bytes()[..len];
        self.u16(bytes.len() as u16);
        self.buf.extend_from_slice(bytes);
    }

    fn f64s(&mut self, vs: &[f64]) {
        debug_assert!(vs.len() <= MAX_VEC_LEN);
        self.u32(vs.len() as u32);
        for &v in vs {
            self.f64(v);
        }
    }

    fn finish(self) -> Vec<u8> {
        self.buf
    }
}

struct Dec<'a> {
    buf: &'a [u8],
}

impl<'a> Dec<'a> {
    fn bad(reason: impl Into<String>) -> ServerError {
        ServerError::Protocol {
            reason: reason.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(Dec::bad(format!(
                "truncated body: wanted {n} more bytes, have {}",
                self.buf.len()
            )));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    #[expect(clippy::indexing_slicing, reason = "take(1) returns exactly one byte")]
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        let bytes = self.take(2)?;
        bytes
            .try_into()
            .map(u16::from_be_bytes)
            .map_err(|_| Dec::bad("u16 field"))
    }

    fn u32(&mut self) -> Result<u32> {
        let bytes = self.take(4)?;
        bytes
            .try_into()
            .map(u32::from_be_bytes)
            .map_err(|_| Dec::bad("u32 field"))
    }

    fn u64(&mut self) -> Result<u64> {
        let bytes = self.take(8)?;
        bytes
            .try_into()
            .map(u64::from_be_bytes)
            .map_err(|_| Dec::bad("u64 field"))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String> {
        let len = self.u16()? as usize;
        if len > MAX_STRING_LEN {
            return Err(Dec::bad(format!("string of {len} bytes exceeds cap")));
        }
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| Dec::bad("string is not valid UTF-8"))
    }

    fn f64s(&mut self) -> Result<Vec<f64>> {
        let len = self.u32()? as usize;
        if len > MAX_VEC_LEN {
            return Err(Dec::bad(format!("vector of {len} f64s exceeds cap")));
        }
        (0..len).map(|_| self.f64()).collect()
    }

    fn finish(self) -> Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(Dec::bad(format!("{} trailing bytes", self.buf.len())))
        }
    }
}

/// Strips and validates the `magic | version | opcode | corr` header,
/// returning the opcode, the correlation id and the body decoder. Only
/// [`VERSION`] is accepted.
fn open_payload(payload: &[u8]) -> Result<(u8, u64, Dec<'_>)> {
    let mut dec = Dec { buf: payload };
    let magic = dec.take(2)?;
    if magic != MAGIC {
        return Err(Dec::bad(format!("bad magic bytes {magic:02x?}")));
    }
    let version = dec.u8()?;
    if version != VERSION {
        return Err(ServerError::UnsupportedVersion { got: version });
    }
    let opcode = dec.u8()?;
    let corr = dec.u64()?;
    Ok((opcode, corr, dec))
}

/// Sniffs a payload's correlation id and opcode without decoding the body
/// — what the event loop needs to route and answer a frame before
/// anything is validated. Frames at another version report `(0, None)`;
/// a frame too short to carry the id reports id 0, and one too short to
/// carry the opcode reports `None`. The full decoder rejects all of them
/// with a typed error.
pub fn sniff_header(payload: &[u8]) -> (u64, Option<u8>) {
    if payload.get(2) != Some(&VERSION) {
        return (0, None);
    }
    let corr = payload
        .get(4..12)
        .and_then(|bytes| <[u8; 8]>::try_from(bytes).ok())
        .map_or(0, u64::from_be_bytes);
    (corr, payload.get(3).copied())
}

/// Whether a sniffed opcode is a snapshot read (`MENU` or `QUOTE`): a
/// read of the published menu, behind leaf locks held only to clone an
/// `Arc`, that the event loop answers itself instead of queueing it for
/// a worker.
pub(crate) fn is_snapshot_read(op: Option<u8>) -> bool {
    matches!(op, Some(OP_MENU | OP_QUOTE))
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(ServerError::FrameTooLarge {
            len: payload.len() as u64,
        });
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame; `Ok(None)` on clean EOF before any
/// byte of the length prefix (the peer hung up between frames).
pub fn read_frame_opt(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        #[expect(
            clippy::indexing_slicing,
            reason = "loop guard keeps filled < 4 = len_buf.len()"
        )]
        let n = r.read(&mut len_buf[filled..])?;
        if n == 0 {
            return if filled == 0 {
                Ok(None)
            } else {
                Err(ServerError::ConnectionClosed)
            };
        }
        filled += n;
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ServerError::FrameTooLarge { len: len as u64 });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ServerError::ConnectionClosed
        } else {
            ServerError::Io(e)
        }
    })?;
    Ok(Some(payload))
}

/// Reads one frame, treating clean EOF as [`ServerError::ConnectionClosed`]
/// (client side: a response was expected).
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>> {
    read_frame_opt(r)?.ok_or(ServerError::ConnectionClosed)
}

// ---------------------------------------------------------------------------
// Request encode/decode
// ---------------------------------------------------------------------------

const REQ_AT: u8 = 1;
const REQ_ERROR_BUDGET: u8 = 2;
const REQ_PRICE_BUDGET: u8 = 3;

/// Encodes an optional listing name; `None` travels as the empty string
/// (listing names are validated non-empty, so the encoding is unambiguous).
fn enc_listing(e: &mut Enc, listing: &Option<String>) {
    match listing {
        Some(name) => e.str(name),
        None => e.str(""),
    }
}

/// Decodes a listing field; empty means "the server's default listing".
fn dec_listing(d: &mut Dec<'_>) -> Result<Option<String>> {
    let name = d.str()?;
    Ok(if name.is_empty() { None } else { Some(name) })
}

/// Decodes an optional buyer identity (flag byte + `u64`).
fn dec_buyer(d: &mut Dec<'_>) -> Result<Option<u64>> {
    match d.u8()? {
        0 => Ok(None),
        1 => Ok(Some(d.u64()?)),
        other => Err(Dec::bad(format!("bad buyer flag {other}"))),
    }
}

impl Request {
    /// Encodes into a complete payload (header + body) at [`VERSION`]
    /// with correlation id 0 — what a non-pipelined client sends.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with_corr(0)
    }

    /// Encodes at [`VERSION`] carrying an explicit correlation id, for
    /// pipelined connections where responses may return out of order.
    pub fn encode_with_corr(&self, corr: u64) -> Vec<u8> {
        match self {
            Request::Menu { listing } => {
                let mut e = Enc::header(OP_MENU, corr);
                enc_listing(&mut e, listing);
                e.finish()
            }
            Request::Quote { listing, request } => {
                let mut e = Enc::header(OP_QUOTE, corr);
                let (kind, v) = match request {
                    PurchaseRequest::AtInverseNcp(x) => (REQ_AT, *x),
                    PurchaseRequest::ErrorBudget(b) => (REQ_ERROR_BUDGET, *b),
                    PurchaseRequest::PriceBudget(b) => (REQ_PRICE_BUDGET, *b),
                };
                e.u8(kind);
                e.f64(v);
                enc_listing(&mut e, listing);
                e.finish()
            }
            Request::Commit {
                listing,
                x,
                snapshot_epoch,
                payment,
                nonce,
                buyer,
            } => {
                let mut e = Enc::header(OP_COMMIT, corr);
                e.f64(*x);
                e.u64(*snapshot_epoch);
                e.f64(*payment);
                match nonce {
                    Some(n) => {
                        e.u8(1);
                        e.u64(*n);
                    }
                    None => e.u8(0),
                }
                enc_listing(&mut e, listing);
                match buyer {
                    Some(b) => {
                        e.u8(1);
                        e.u64(*b);
                    }
                    None => e.u8(0),
                }
                e.finish()
            }
            Request::BatchCommit { listing, items } => {
                debug_assert!(items.len() <= MAX_BATCH_ITEMS);
                let mut e = Enc::header(OP_BATCH_COMMIT, corr);
                enc_listing(&mut e, listing);
                let count = items.len().min(MAX_BATCH_ITEMS);
                e.u16(count as u16);
                for item in items.iter().take(count) {
                    e.f64(item.x);
                    e.u64(item.snapshot_epoch);
                    e.f64(item.payment);
                    match item.nonce {
                        Some(n) => {
                            e.u8(1);
                            e.u64(n);
                        }
                        None => e.u8(0),
                    }
                    match item.buyer {
                        Some(b) => {
                            e.u8(1);
                            e.u64(b);
                        }
                        None => e.u8(0),
                    }
                }
                e.finish()
            }
            Request::Info { listing } => {
                let mut e = Enc::header(OP_INFO, corr);
                enc_listing(&mut e, listing);
                e.finish()
            }
            Request::Account { listing, buyer } => {
                let mut e = Enc::header(OP_ACCOUNT, corr);
                e.u64(*buyer);
                enc_listing(&mut e, listing);
                e.finish()
            }
            Request::Listings => Enc::header(OP_LISTINGS, corr).finish(),
            Request::Stats => Enc::header(OP_STATS, corr).finish(),
            Request::Publish { listing } => {
                let mut e = Enc::header(OP_PUBLISH, corr);
                e.str(listing);
                e.finish()
            }
            Request::Retire { listing } => {
                let mut e = Enc::header(OP_RETIRE, corr);
                e.str(listing);
                e.finish()
            }
        }
    }

    /// Decodes a payload into a request, dropping the correlation id.
    pub fn decode(payload: &[u8]) -> Result<Request> {
        Ok(Request::decode_framed(payload)?.1)
    }

    /// Decodes a payload into `(correlation id, request)`.
    pub fn decode_framed(payload: &[u8]) -> Result<(u64, Request)> {
        let (opcode, corr, mut d) = open_payload(payload)?;
        let req = match opcode {
            OP_MENU => Request::Menu {
                listing: dec_listing(&mut d)?,
            },
            OP_QUOTE => {
                let kind = d.u8()?;
                let v = d.f64()?;
                let request = match kind {
                    REQ_AT => PurchaseRequest::AtInverseNcp(v),
                    REQ_ERROR_BUDGET => PurchaseRequest::ErrorBudget(v),
                    REQ_PRICE_BUDGET => PurchaseRequest::PriceBudget(v),
                    other => {
                        return Err(Dec::bad(format!("unknown purchase-request kind {other}")))
                    }
                };
                Request::Quote {
                    listing: dec_listing(&mut d)?,
                    request,
                }
            }
            OP_COMMIT => {
                let x = d.f64()?;
                let snapshot_epoch = d.u64()?;
                let payment = d.f64()?;
                let nonce = match d.u8()? {
                    0 => None,
                    1 => Some(d.u64()?),
                    other => {
                        return Err(Dec::bad(format!("bad commit nonce flag {other}")));
                    }
                };
                Request::Commit {
                    listing: dec_listing(&mut d)?,
                    x,
                    snapshot_epoch,
                    payment,
                    nonce,
                    buyer: dec_buyer(&mut d)?,
                }
            }
            OP_BATCH_COMMIT => {
                let listing = dec_listing(&mut d)?;
                let count = d.u16()? as usize;
                if count > MAX_BATCH_ITEMS {
                    return Err(Dec::bad(format!(
                        "batch of {count} commits exceeds cap of {MAX_BATCH_ITEMS}"
                    )));
                }
                let items = (0..count)
                    .map(|_| {
                        let x = d.f64()?;
                        let snapshot_epoch = d.u64()?;
                        let payment = d.f64()?;
                        let nonce = match d.u8()? {
                            0 => None,
                            1 => Some(d.u64()?),
                            other => {
                                return Err(Dec::bad(format!("bad batch nonce flag {other}")));
                            }
                        };
                        Ok(BatchItemMsg {
                            x,
                            snapshot_epoch,
                            payment,
                            nonce,
                            buyer: dec_buyer(&mut d)?,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                Request::BatchCommit { listing, items }
            }
            OP_INFO => Request::Info {
                listing: dec_listing(&mut d)?,
            },
            OP_ACCOUNT => {
                let buyer = d.u64()?;
                Request::Account {
                    listing: dec_listing(&mut d)?,
                    buyer,
                }
            }
            OP_LISTINGS => Request::Listings,
            OP_STATS => Request::Stats,
            OP_PUBLISH => Request::Publish { listing: d.str()? },
            OP_RETIRE => Request::Retire { listing: d.str()? },
            other => {
                return Err(Dec::bad(format!("unknown request opcode {other:#04x}")));
            }
        };
        d.finish()?;
        Ok((corr, req))
    }
}

// ---------------------------------------------------------------------------
// Response encode/decode
// ---------------------------------------------------------------------------

impl Response {
    /// Encodes into a complete payload (header + body) at [`VERSION`]
    /// with correlation id 0.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with_corr(0)
    }

    /// Encodes at [`VERSION`] echoing `corr`. Every peer speaks
    /// [`VERSION`], so `version` only keeps existing callers compiling;
    /// the payload is always [`Response::encode_with_corr`]'s.
    pub fn encode_versioned(&self, _version: u8, corr: u64) -> Vec<u8> {
        self.encode_with_corr(corr)
    }

    /// Encodes at [`VERSION`] echoing the request's correlation id.
    pub fn encode_with_corr(&self, corr: u64) -> Vec<u8> {
        let enc = |opcode: u8| Enc::header(opcode, corr);
        match self {
            Response::Menu(m) => {
                let mut e = enc(OP_R_MENU);
                e.u64(m.epoch);
                e.str(&m.metric);
                e.u32(m.points.len() as u32);
                for &(x, p) in &m.points {
                    e.f64(x);
                    e.f64(p);
                }
                e.finish()
            }
            Response::Quote(q) => {
                let mut e = enc(OP_R_QUOTE);
                e.f64(q.x);
                e.f64(q.delta);
                e.f64(q.price);
                e.f64(q.expected_error);
                e.str(&q.metric);
                e.u64(q.snapshot_epoch);
                e.str(&q.listing);
                e.finish()
            }
            Response::Commit(s) => {
                let mut e = enc(OP_R_COMMIT);
                e.f64(s.inverse_ncp);
                e.f64(s.price);
                e.f64(s.expected_error);
                e.str(&s.metric);
                e.u64(s.transaction);
                e.f64s(&s.weights);
                e.finish()
            }
            Response::BatchCommit(b) => {
                let mut e = enc(OP_R_BATCH_COMMIT);
                e.u16(b.items.len().min(MAX_BATCH_ITEMS) as u16);
                for item in b.items.iter().take(MAX_BATCH_ITEMS) {
                    match item {
                        BatchOutcomeMsg::Sale(s) => {
                            e.u8(1);
                            e.f64(s.inverse_ncp);
                            e.f64(s.price);
                            e.f64(s.expected_error);
                            e.str(&s.metric);
                            e.u64(s.transaction);
                            e.f64s(&s.weights);
                        }
                        BatchOutcomeMsg::Error { code, message } => {
                            e.u8(0);
                            e.u16(*code as u16);
                            e.str(message);
                        }
                    }
                }
                e.finish()
            }
            Response::Account(a) => {
                let mut e = enc(OP_R_ACCOUNT);
                e.str(&a.listing);
                e.u64(a.buyer);
                e.f64(a.spent);
                for opt in [a.budget, a.remaining] {
                    match opt {
                        Some(v) => {
                            e.u8(1);
                            e.f64(v);
                        }
                        None => e.u8(0),
                    }
                }
                e.finish()
            }
            Response::Info(i) => {
                let mut e = enc(OP_R_INFO);
                e.str(&i.listing);
                e.str(&i.metric);
                e.u64(i.epoch);
                e.u64(i.menu_len);
                e.f64(i.x_lo);
                e.f64(i.x_hi);
                e.f64(i.expected_revenue);
                e.u64(i.sales);
                e.f64(i.revenue);
                e.finish()
            }
            Response::Listings(l) => {
                let mut e = enc(OP_R_LISTINGS);
                e.str(&l.default_listing);
                e.u16(l.listings.len() as u16);
                for row in &l.listings {
                    e.str(&row.name);
                    e.str(&row.model_kind);
                    e.str(&row.mechanism);
                    e.str(&row.state);
                    e.u8(u8::from(row.open));
                    e.f64(row.expected_revenue);
                }
                e.finish()
            }
            Response::Stats(s) => {
                let mut e = enc(OP_R_STATS);
                e.u64(s.connections);
                e.u64(s.busy_rejections);
                e.u64(s.protocol_errors);
                e.u64(s.queue_depth);
                e.u16(s.ops.len() as u16);
                for op in &s.ops {
                    e.str(&op.op);
                    e.u64(op.requests);
                    e.u64(op.errors);
                    e.u64(op.p50_micros);
                    e.u64(op.p99_micros);
                }
                e.u16(s.listings.len() as u16);
                for row in &s.listings {
                    e.str(&row.listing);
                    e.str(&row.state);
                    e.u64(row.epoch);
                    e.u64(row.sales);
                    e.f64(row.revenue);
                    e.u64(row.budget_rejects);
                    e.u64(row.exhausted_buyers);
                    e.u64(row.journal_flushes);
                    e.u64(row.journal_records);
                    e.u64(row.journal_window_waits);
                }
                e.finish()
            }
            Response::Publish {
                listing,
                epoch,
                expected_revenue,
            } => {
                let mut e = enc(OP_R_PUBLISH);
                e.str(listing);
                e.u64(*epoch);
                e.f64(*expected_revenue);
                e.finish()
            }
            Response::Retire { listing } => {
                let mut e = enc(OP_R_RETIRE);
                e.str(listing);
                e.finish()
            }
            Response::Busy { retry_after_ms } => {
                let mut e = enc(OP_R_BUSY);
                e.u32(*retry_after_ms);
                e.finish()
            }
            Response::Error { code, message } => {
                let mut e = enc(OP_R_ERROR);
                e.u16(*code as u16);
                e.str(message);
                e.finish()
            }
        }
    }

    /// Decodes a payload into a response, dropping the correlation id.
    pub fn decode(payload: &[u8]) -> Result<Response> {
        Ok(Response::decode_framed(payload)?.1)
    }

    /// Decodes a payload into `(correlation id, response)`.
    pub fn decode_framed(payload: &[u8]) -> Result<(u64, Response)> {
        let (opcode, corr, mut d) = open_payload(payload)?;
        let resp = match opcode {
            OP_R_MENU => {
                let epoch = d.u64()?;
                let metric = d.str()?;
                let len = d.u32()? as usize;
                if len > MAX_VEC_LEN {
                    return Err(Dec::bad(format!("menu of {len} points exceeds cap")));
                }
                let points = (0..len)
                    .map(|_| Ok((d.f64()?, d.f64()?)))
                    .collect::<Result<Vec<_>>>()?;
                Response::Menu(MenuMsg {
                    epoch,
                    metric,
                    points,
                })
            }
            OP_R_QUOTE => Response::Quote(QuoteMsg {
                x: d.f64()?,
                delta: d.f64()?,
                price: d.f64()?,
                expected_error: d.f64()?,
                metric: d.str()?,
                snapshot_epoch: d.u64()?,
                listing: d.str()?,
            }),
            OP_R_COMMIT => Response::Commit(SaleMsg {
                inverse_ncp: d.f64()?,
                price: d.f64()?,
                expected_error: d.f64()?,
                metric: d.str()?,
                transaction: d.u64()?,
                weights: d.f64s()?,
            }),
            OP_R_BATCH_COMMIT => {
                let count = d.u16()? as usize;
                if count > MAX_BATCH_ITEMS {
                    return Err(Dec::bad(format!(
                        "batch of {count} outcomes exceeds cap of {MAX_BATCH_ITEMS}"
                    )));
                }
                let items = (0..count)
                    .map(|_| {
                        Ok(match d.u8()? {
                            1 => BatchOutcomeMsg::Sale(SaleMsg {
                                inverse_ncp: d.f64()?,
                                price: d.f64()?,
                                expected_error: d.f64()?,
                                metric: d.str()?,
                                transaction: d.u64()?,
                                weights: d.f64s()?,
                            }),
                            0 => {
                                let raw = d.u16()?;
                                let code = ErrorCode::from_u16(raw).ok_or_else(|| {
                                    Dec::bad(format!("unknown batch error code {raw}"))
                                })?;
                                BatchOutcomeMsg::Error {
                                    code,
                                    message: d.str()?,
                                }
                            }
                            other => {
                                return Err(Dec::bad(format!("bad batch outcome tag {other}")));
                            }
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                Response::BatchCommit(BatchCommitMsg { items })
            }
            OP_R_ACCOUNT => {
                let listing = d.str()?;
                let buyer = d.u64()?;
                let spent = d.f64()?;
                let mut opt_f64 = || -> Result<Option<f64>> {
                    match d.u8()? {
                        0 => Ok(None),
                        1 => Ok(Some(d.f64()?)),
                        other => Err(Dec::bad(format!("bad account field flag {other}"))),
                    }
                };
                let budget = opt_f64()?;
                let remaining = opt_f64()?;
                Response::Account(AccountMsg {
                    listing,
                    buyer,
                    spent,
                    budget,
                    remaining,
                })
            }
            OP_R_INFO => Response::Info(InfoMsg {
                listing: d.str()?,
                metric: d.str()?,
                epoch: d.u64()?,
                menu_len: d.u64()?,
                x_lo: d.f64()?,
                x_hi: d.f64()?,
                expected_revenue: d.f64()?,
                sales: d.u64()?,
                revenue: d.f64()?,
            }),
            OP_R_LISTINGS => {
                let default_listing = d.str()?;
                let n = d.u16()? as usize;
                let listings = (0..n)
                    .map(|_| {
                        Ok(ListingMsg {
                            name: d.str()?,
                            model_kind: d.str()?,
                            mechanism: d.str()?,
                            state: d.str()?,
                            open: d.u8()? != 0,
                            expected_revenue: d.f64()?,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                Response::Listings(ListingsMsg {
                    default_listing,
                    listings,
                })
            }
            OP_R_STATS => {
                let connections = d.u64()?;
                let busy_rejections = d.u64()?;
                let protocol_errors = d.u64()?;
                let queue_depth = d.u64()?;
                let n = d.u16()? as usize;
                let ops = (0..n)
                    .map(|_| {
                        Ok(OpStatsMsg {
                            op: d.str()?,
                            requests: d.u64()?,
                            errors: d.u64()?,
                            p50_micros: d.u64()?,
                            p99_micros: d.u64()?,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                let n = d.u16()? as usize;
                let listings = (0..n)
                    .map(|_| {
                        Ok(ListingStatsMsg {
                            listing: d.str()?,
                            state: d.str()?,
                            epoch: d.u64()?,
                            sales: d.u64()?,
                            revenue: d.f64()?,
                            budget_rejects: d.u64()?,
                            exhausted_buyers: d.u64()?,
                            journal_flushes: d.u64()?,
                            journal_records: d.u64()?,
                            journal_window_waits: d.u64()?,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                Response::Stats(StatsMsg {
                    connections,
                    busy_rejections,
                    protocol_errors,
                    queue_depth,
                    ops,
                    listings,
                })
            }
            OP_R_PUBLISH => Response::Publish {
                listing: d.str()?,
                epoch: d.u64()?,
                expected_revenue: d.f64()?,
            },
            OP_R_RETIRE => Response::Retire { listing: d.str()? },
            OP_R_BUSY => Response::Busy {
                retry_after_ms: d.u32()?,
            },
            OP_R_ERROR => {
                let raw = d.u16()?;
                let code = ErrorCode::from_u16(raw)
                    .ok_or_else(|| Dec::bad(format!("unknown error code {raw}")))?;
                Response::Error {
                    code,
                    message: d.str()?,
                }
            }
            other => {
                return Err(Dec::bad(format!("unknown response opcode {other:#04x}")));
            }
        };
        d.finish()?;
        Ok((corr, resp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus_market::MAX_PRICE_POINTS;
    use std::collections::BTreeSet;

    fn roundtrip_request(req: Request) {
        let decoded = Request::decode(&req.encode()).unwrap();
        assert_eq!(decoded, req);
    }

    fn roundtrip_response(resp: Response) {
        let decoded = Response::decode(&resp.encode()).unwrap();
        assert_eq!(decoded, resp);
    }

    #[test]
    fn requests_round_trip() {
        roundtrip_request(Request::Menu { listing: None });
        roundtrip_request(Request::Menu {
            listing: Some("acme-data".into()),
        });
        roundtrip_request(Request::Info { listing: None });
        roundtrip_request(Request::Info {
            listing: Some("acme-data".into()),
        });
        roundtrip_request(Request::Listings);
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Publish {
            listing: "acme-data".into(),
        });
        roundtrip_request(Request::Retire {
            listing: "acme-data".into(),
        });
        roundtrip_request(Request::Quote {
            listing: None,
            request: PurchaseRequest::AtInverseNcp(42.5),
        });
        roundtrip_request(Request::Quote {
            listing: Some("acme-data".into()),
            request: PurchaseRequest::ErrorBudget(0.05),
        });
        roundtrip_request(Request::Quote {
            listing: None,
            request: PurchaseRequest::PriceBudget(17.0),
        });
        roundtrip_request(Request::Commit {
            listing: None,
            x: 99.0,
            snapshot_epoch: 3,
            payment: 12.75,
            nonce: None,
            buyer: None,
        });
        roundtrip_request(Request::Commit {
            listing: Some("acme-data".into()),
            x: 99.0,
            snapshot_epoch: 3,
            payment: 12.75,
            nonce: Some(0xDEAD_BEEF_CAFE_F00D),
            buyer: Some(42),
        });
        roundtrip_request(Request::Account {
            listing: None,
            buyer: 7,
        });
        roundtrip_request(Request::Account {
            listing: Some("acme-data".into()),
            buyer: 0xFFFF_FFFF_FFFF_FFFF,
        });
    }

    #[test]
    fn responses_round_trip() {
        roundtrip_response(Response::Busy { retry_after_ms: 25 });
        roundtrip_response(Response::Error {
            code: ErrorCode::QuoteExpired,
            message: "stale epoch".into(),
        });
        roundtrip_response(Response::Menu(MenuMsg {
            epoch: 2,
            metric: "square".into(),
            points: vec![(1.0, 0.5), (50.0, 20.25), (100.0, 30.0)],
        }));
        roundtrip_response(Response::Quote(QuoteMsg {
            x: 20.0,
            delta: 0.05,
            price: 14.5,
            expected_error: 0.05,
            metric: "logistic".into(),
            snapshot_epoch: 7,
            listing: "acme-data".into(),
        }));
        roundtrip_response(Response::Listings(ListingsMsg {
            default_listing: "acme-data".into(),
            listings: vec![
                ListingMsg {
                    name: "acme-data".into(),
                    model_kind: "linear_regression".into(),
                    mechanism: "gaussian".into(),
                    state: "published".into(),
                    open: true,
                    expected_revenue: 31.5,
                },
                ListingMsg {
                    name: "old-data".into(),
                    model_kind: "logistic_regression".into(),
                    mechanism: "gaussian".into(),
                    state: "retired".into(),
                    open: false,
                    expected_revenue: 0.0,
                },
            ],
        }));
        roundtrip_response(Response::Publish {
            listing: "acme-data".into(),
            epoch: 4,
            expected_revenue: 29.75,
        });
        roundtrip_response(Response::Retire {
            listing: "old-data".into(),
        });
        roundtrip_response(Response::Commit(SaleMsg {
            inverse_ncp: 20.0,
            price: 14.5,
            expected_error: 0.05,
            metric: "square".into(),
            transaction: 123,
            weights: vec![0.25, -1.5, 3.125, f64::MIN_POSITIVE],
        }));
        roundtrip_response(Response::Info(InfoMsg {
            listing: "Simulated1".into(),
            metric: "square".into(),
            epoch: 1,
            menu_len: 50,
            x_lo: 1.0,
            x_hi: 100.0,
            expected_revenue: 31.5,
            sales: 12,
            revenue: 340.0,
        }));
        roundtrip_response(Response::Stats(StatsMsg {
            connections: 10,
            busy_rejections: 3,
            protocol_errors: 1,
            queue_depth: 7,
            ops: vec![OpStatsMsg {
                op: "quote".into(),
                requests: 100,
                errors: 2,
                p50_micros: 64,
                p99_micros: 1024,
            }],
            listings: vec![ListingStatsMsg {
                listing: "acme-data".into(),
                state: "published".into(),
                epoch: 2,
                sales: 12,
                revenue: 340.0,
                budget_rejects: 5,
                exhausted_buyers: 2,
                journal_flushes: 9,
                journal_records: 12,
                journal_window_waits: 3,
            }],
        }));
        roundtrip_response(Response::Account(AccountMsg {
            listing: "acme-data".into(),
            buyer: 42,
            spent: 75.0,
            budget: Some(100.0),
            remaining: Some(25.0),
        }));
        roundtrip_response(Response::Account(AccountMsg {
            listing: "acme-data".into(),
            buyer: 43,
            spent: 320.0,
            budget: None,
            remaining: None,
        }));
    }

    #[test]
    fn stats_rows_round_trip_group_commit_counters() {
        let row = |listing: &str, flushes, records, waits| ListingStatsMsg {
            listing: listing.into(),
            state: "published".into(),
            epoch: 1,
            sales: records,
            revenue: 10.0,
            budget_rejects: 0,
            exhausted_buyers: 0,
            journal_flushes: flushes,
            journal_records: records,
            journal_window_waits: waits,
        };
        roundtrip_response(Response::Stats(StatsMsg {
            connections: 1,
            busy_rejections: 0,
            protocol_errors: 0,
            queue_depth: 0,
            ops: Vec::new(),
            listings: vec![row("journalled", 40, 57, 11), row("in-memory", 0, 0, 0)],
        }));
    }

    #[test]
    fn nan_payloads_survive_bitwise() {
        let payload = Request::Commit {
            listing: None,
            x: f64::NAN,
            snapshot_epoch: 0,
            payment: f64::NEG_INFINITY,
            nonce: None,
            buyer: None,
        }
        .encode();
        match Request::decode(&payload).unwrap() {
            Request::Commit { x, payment, .. } => {
                assert!(x.is_nan());
                assert_eq!(payment, f64::NEG_INFINITY);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn bad_magic_version_and_opcode_are_typed() {
        let mut payload = Request::Menu { listing: None }.encode();
        payload[0] = b'X';
        assert!(matches!(
            Request::decode(&payload),
            Err(ServerError::Protocol { .. })
        ));

        let mut payload = Request::Menu { listing: None }.encode();
        payload[2] = VERSION + 1;
        assert!(matches!(
            Request::decode(&payload),
            Err(ServerError::UnsupportedVersion { got }) if got == VERSION + 1
        ));

        // 0x08/0x88 were the retired chunked menu read.
        for opcode in [0x7F, 0x08, 0x88] {
            let mut payload = Request::Menu { listing: None }.encode();
            payload[3] = opcode;
            assert!(matches!(
                Request::decode(&payload),
                Err(ServerError::Protocol { .. })
            ));
        }
        let mut payload = Response::Retire {
            listing: String::new(),
        }
        .encode();
        payload[3] = 0x88;
        assert!(matches!(
            Response::decode(&payload),
            Err(ServerError::Protocol { .. })
        ));
    }

    #[test]
    fn over_long_strings_are_cut_on_a_char_boundary() {
        let message = format!("a{}", "é".repeat(600));
        let payload = Response::Error {
            code: ErrorCode::InvalidRequest,
            message: message.clone(),
        }
        .encode();
        match Response::decode(&payload).unwrap() {
            Response::Error { code, message: got } => {
                assert_eq!(code, ErrorCode::InvalidRequest);
                assert!(got.len() <= MAX_STRING_LEN);
                assert!(got.len() >= MAX_STRING_LEN - 1);
                assert!(message.starts_with(&got));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn a_menu_at_the_price_point_cap_fits_one_frame() {
        let menu = Response::Menu(MenuMsg {
            epoch: 3,
            metric: "m".repeat(MAX_STRING_LEN),
            points: (0..MAX_PRICE_POINTS)
                .map(|i| (i as f64 + 1.0, 0.5 * i as f64))
                .collect(),
        });
        let mut buf = Vec::new();
        write_frame(&mut buf, &menu.encode()).unwrap();
        let payload = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(Response::decode(&payload).unwrap(), menu);
    }

    #[test]
    fn truncated_and_trailing_bytes_are_rejected() {
        let payload = Request::Commit {
            listing: Some("acme-data".into()),
            x: 1.0,
            snapshot_epoch: 1,
            payment: 1.0,
            nonce: Some(1),
            buyer: Some(9),
        }
        .encode();
        assert!(matches!(
            Request::decode(&payload[..payload.len() - 1]),
            Err(ServerError::Protocol { .. })
        ));
        let mut extended = payload;
        extended.push(0);
        assert!(matches!(
            Request::decode(&extended),
            Err(ServerError::Protocol { .. })
        ));
    }

    #[test]
    fn framing_round_trips_and_enforces_the_cap() {
        let payload = Request::Quote {
            listing: None,
            request: PurchaseRequest::ErrorBudget(0.25),
        }
        .encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        // Two frames back to back parse independently.
        write_frame(&mut buf, &payload).unwrap();
        let mut reader = &buf[..];
        assert_eq!(read_frame(&mut reader).unwrap(), payload);
        assert_eq!(read_frame_opt(&mut reader).unwrap().unwrap(), payload);
        assert!(read_frame_opt(&mut reader).unwrap().is_none());

        // An announced length beyond the cap is rejected without allocating.
        let huge = ((MAX_FRAME_LEN + 1) as u32).to_be_bytes();
        assert!(matches!(
            read_frame(&mut &huge[..]),
            Err(ServerError::FrameTooLarge { .. })
        ));
        // Writing an oversized frame is refused up front.
        assert!(matches!(
            write_frame(&mut Vec::new(), &vec![0u8; MAX_FRAME_LEN + 1]),
            Err(ServerError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn mid_frame_eof_is_connection_closed() {
        let payload = Request::Menu { listing: None }.encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        // Cut inside the length prefix and inside the payload.
        assert!(matches!(
            read_frame(&mut &buf[..2]),
            Err(ServerError::ConnectionClosed)
        ));
        assert!(matches!(
            read_frame(&mut &buf[..buf.len() - 1]),
            Err(ServerError::ConnectionClosed)
        ));
    }

    #[test]
    fn market_errors_map_to_codes() {
        use nimbus_market::MarketError;
        assert_eq!(
            ErrorCode::for_market_error(&MarketError::MarketNotOpen),
            ErrorCode::MarketNotOpen
        );
        assert_eq!(
            ErrorCode::for_market_error(&MarketError::QuoteExpired {
                quoted: 1,
                current: 2
            }),
            ErrorCode::QuoteExpired
        );
        assert_eq!(
            ErrorCode::for_market_error(&MarketError::InvalidPayment { offered: -1.0 }),
            ErrorCode::InvalidPayment
        );
        assert_eq!(
            ErrorCode::for_market_error(&MarketError::InsufficientPayment {
                price: 2.0,
                offered: 1.0
            }),
            ErrorCode::InsufficientPayment
        );
        assert_eq!(
            ErrorCode::for_market_error(&MarketError::Core(
                nimbus_core::CoreError::BudgetUnsatisfiable {
                    kind: "error",
                    budget: 0.001
                }
            )),
            ErrorCode::Unsatisfiable
        );
        assert_eq!(
            ErrorCode::for_market_error(&MarketError::ListingRetired { name: "m".into() }),
            ErrorCode::Retired
        );
        assert_eq!(
            ErrorCode::for_market_error(&MarketError::UnknownListing { name: "m".into() }),
            ErrorCode::InvalidRequest
        );
        assert_eq!(
            ErrorCode::for_market_error(&MarketError::DuplicateListing { name: "m".into() }),
            ErrorCode::InvalidRequest
        );
        assert_eq!(
            ErrorCode::for_market_error(&MarketError::BudgetExhausted {
                buyer: 7,
                requested: 10.0,
                remaining: 2.5
            }),
            ErrorCode::BudgetExhausted
        );
    }

    #[test]
    fn correlation_ids_round_trip() {
        let req = Request::Quote {
            listing: Some("acme-data".into()),
            request: PurchaseRequest::AtInverseNcp(42.5),
        };
        let payload = req.encode_with_corr(0xFEED_F00D_1234_5678);
        assert_eq!(payload[2], VERSION);
        assert_eq!(
            sniff_header(&payload),
            (0xFEED_F00D_1234_5678, Some(OP_QUOTE))
        );
        let (corr, decoded) = Request::decode_framed(&payload).unwrap();
        assert_eq!(corr, 0xFEED_F00D_1234_5678);
        assert_eq!(decoded, req);

        let resp = Response::Busy { retry_after_ms: 9 };
        let payload = resp.encode_versioned(VERSION, 77);
        let (corr, decoded) = Response::decode_framed(&payload).unwrap();
        assert_eq!(corr, 77);
        assert_eq!(decoded, resp);
    }

    #[test]
    fn batch_commit_round_trips_with_mixed_outcomes() {
        roundtrip_request(Request::BatchCommit {
            listing: Some("acme-data".into()),
            items: vec![
                BatchItemMsg {
                    x: 10.0,
                    snapshot_epoch: 1,
                    payment: 5.5,
                    nonce: None,
                    buyer: None,
                },
                BatchItemMsg {
                    x: 20.0,
                    snapshot_epoch: 1,
                    payment: 9.25,
                    nonce: Some(0xABCD),
                    buyer: Some(77),
                },
            ],
        });
        roundtrip_response(Response::BatchCommit(BatchCommitMsg {
            items: vec![
                BatchOutcomeMsg::Sale(SaleMsg {
                    inverse_ncp: 10.0,
                    price: 5.5,
                    expected_error: 0.1,
                    metric: "square".into(),
                    transaction: 42,
                    weights: vec![1.0, -2.0],
                }),
                BatchOutcomeMsg::Error {
                    code: ErrorCode::QuoteExpired,
                    message: "superseded".into(),
                },
                BatchOutcomeMsg::Error {
                    code: ErrorCode::Retired,
                    message: "gone".into(),
                },
            ],
        }));
    }

    #[test]
    fn batch_commit_rejects_oversized_and_pre_v4_frames() {
        // Announced count over the cap is refused before allocating.
        let mut payload = Request::BatchCommit {
            listing: None,
            items: vec![],
        }
        .encode();
        let base = payload.len();
        payload.truncate(base - 2);
        payload.extend_from_slice(&((MAX_BATCH_ITEMS + 1) as u16).to_be_bytes());
        assert!(matches!(
            Request::decode(&payload),
            Err(ServerError::Protocol { .. })
        ));

        // A pre-v4 BATCH_COMMIT frame is refused by its version byte.
        let mut v3 = vec![b'N', b'B', 3, 0x07];
        v3.extend_from_slice(&0u16.to_be_bytes()); // listing ""
        v3.extend_from_slice(&0u16.to_be_bytes()); // zero items
        assert!(matches!(
            Request::decode(&v3),
            Err(ServerError::UnsupportedVersion { got: 3 })
        ));
    }

    #[test]
    fn sniff_header_tolerates_short_and_old_frames() {
        assert_eq!(sniff_header(&[]), (0, None));
        assert_eq!(sniff_header(b"NB"), (0, None));
        // Frames at another version report id 0 and no opcode, whatever
        // their bytes.
        assert_eq!(
            sniff_header(&[b'N', b'B', 3, 0x01, 0, 0, 0, 0, 0, 0, 0, 9]),
            (0, None)
        );
        // A header too short for the id reports id 0 and leaves the
        // rejection to the full decoder.
        assert_eq!(
            sniff_header(&[b'N', b'B', VERSION, 0x01, 1, 2]),
            (0, Some(OP_MENU))
        );

        // Only current-version MENU and QUOTE frames are snapshot reads.
        let quote = Request::Quote {
            listing: None,
            request: PurchaseRequest::AtInverseNcp(5.0),
        }
        .encode_with_corr(9);
        let menu = Request::Menu { listing: None }.encode_with_corr(9);
        assert!(is_snapshot_read(sniff_header(&quote).1));
        assert!(is_snapshot_read(sniff_header(&menu).1));
        let account = Request::Account {
            listing: None,
            buyer: 1,
        }
        .encode_with_corr(9);
        assert!(!is_snapshot_read(sniff_header(&account).1));
        // An old-version QUOTE goes to a worker for its typed
        // UnsupportedVersion answer, as does a frame too short for an
        // opcode.
        let mut old_quote = quote.clone();
        old_quote[2] = VERSION - 1;
        assert!(!is_snapshot_read(sniff_header(&old_quote).1));
        assert!(!is_snapshot_read(sniff_header(&quote[..3]).1));
    }

    #[test]
    fn only_the_current_version_decodes() {
        let request = Request::Menu { listing: None }.encode_with_corr(7);
        let response = Response::Busy { retry_after_ms: 3 }.encode_with_corr(7);
        for version in (0..VERSION).chain([VERSION + 1]) {
            for payload in [&request, &response] {
                let mut payload = payload.clone();
                payload[2] = version;
                assert!(matches!(
                    Request::decode(&payload),
                    Err(ServerError::UnsupportedVersion { got }) if got == version
                ));
                assert!(matches!(
                    Response::decode(&payload),
                    Err(ServerError::UnsupportedVersion { got }) if got == version
                ));
            }
        }
        assert!(Request::decode(&request).is_ok());
        assert!(Response::decode(&response).is_ok());
    }

    #[test]
    fn every_error_code_round_trips() {
        for raw in 1..=14u16 {
            let code = ErrorCode::from_u16(raw).unwrap();
            assert_eq!(code as u16, raw);
            roundtrip_response(Response::Error {
                code,
                message: format!("code {raw}"),
            });
        }
        assert!(ErrorCode::from_u16(0).is_none());
        assert!(ErrorCode::from_u16(999).is_none());
    }

    /// The request's name in `DESIGN.md`'s opcode table. No `_` arm: a
    /// new variant does not compile until it is named here.
    fn request_name(req: &Request) -> &'static str {
        match req {
            Request::Menu { .. } => "MENU",
            Request::Quote { .. } => "QUOTE",
            Request::Commit { .. } => "COMMIT",
            Request::BatchCommit { .. } => "BATCH_COMMIT",
            Request::Info { .. } => "INFO",
            Request::Account { .. } => "ACCOUNT",
            Request::Listings => "LISTINGS",
            Request::Stats => "STATS",
            Request::Publish { .. } => "PUBLISH",
            Request::Retire { .. } => "RETIRE",
        }
    }

    /// The response's name in `DESIGN.md`'s opcode table; no `_` arm.
    fn response_name(resp: &Response) -> &'static str {
        match resp {
            Response::Menu(_) => "R_MENU",
            Response::Quote(_) => "R_QUOTE",
            Response::Commit(_) => "R_COMMIT",
            Response::BatchCommit(_) => "R_BATCH_COMMIT",
            Response::Info(_) => "R_INFO",
            Response::Account(_) => "R_ACCOUNT",
            Response::Listings(_) => "R_LISTINGS",
            Response::Stats(_) => "R_STATS",
            Response::Publish { .. } => "R_PUBLISH",
            Response::Retire { .. } => "R_RETIRE",
            Response::Busy { .. } => "R_BUSY",
            Response::Error { .. } => "R_ERROR",
        }
    }

    /// The `(value, name)` rows of the table headed `header` in
    /// `DESIGN.md`'s wire-protocol section. A value is hex (`` `0x81` ``)
    /// or decimal (`14`).
    fn design_table(header: &str) -> BTreeSet<(u16, String)> {
        let section = include_str!("../../../DESIGN.md")
            .split("\n### ")
            .find(|s| s.starts_with("Wire protocol and framing limits"))
            .expect("DESIGN.md has the wire-protocol section");
        section
            .lines()
            .skip_while(|line| *line != header)
            .skip(2) // the header and its `|---|` rule
            .take_while(|line| line.starts_with('|'))
            .map(|row| {
                let cells: Vec<&str> = row.split('|').map(|c| c.trim().trim_matches('`')).collect();
                let value = match cells[1].strip_prefix("0x") {
                    Some(hex) => u16::from_str_radix(hex, 16),
                    None => cells[1].parse(),
                };
                let value = value.unwrap_or_else(|e| panic!("DESIGN.md row `{row}`: {e}"));
                (value, cells[2].to_string())
            })
            .collect()
    }

    fn assert_same(table: &str, design: &BTreeSet<(u16, String)>, codec: &BTreeSet<(u16, String)>) {
        assert!(
            design == codec,
            "DESIGN.md {table} table and the codec differ: only in DESIGN.md {:?}, only in the codec {:?}",
            design.difference(codec).collect::<Vec<_>>(),
            codec.difference(design).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn design_md_protocol_tables_match_the_codec() {
        let requests = [
            Request::Menu { listing: None },
            Request::Quote {
                listing: None,
                request: PurchaseRequest::AtInverseNcp(1.0),
            },
            Request::Commit {
                listing: None,
                x: 1.0,
                snapshot_epoch: 1,
                payment: 1.0,
                nonce: None,
                buyer: None,
            },
            Request::BatchCommit {
                listing: None,
                items: Vec::new(),
            },
            Request::Info { listing: None },
            Request::Account {
                listing: None,
                buyer: 1,
            },
            Request::Listings,
            Request::Stats,
            Request::Publish {
                listing: String::new(),
            },
            Request::Retire {
                listing: String::new(),
            },
        ];
        let responses = [
            Response::Menu(MenuMsg {
                epoch: 1,
                metric: String::new(),
                points: Vec::new(),
            }),
            Response::Quote(QuoteMsg {
                x: 1.0,
                delta: 1.0,
                price: 1.0,
                expected_error: 1.0,
                metric: String::new(),
                snapshot_epoch: 1,
                listing: String::new(),
            }),
            Response::Commit(SaleMsg {
                inverse_ncp: 1.0,
                price: 1.0,
                expected_error: 1.0,
                metric: String::new(),
                transaction: 0,
                weights: Vec::new(),
            }),
            Response::BatchCommit(BatchCommitMsg { items: Vec::new() }),
            Response::Info(InfoMsg {
                listing: String::new(),
                metric: String::new(),
                epoch: 1,
                menu_len: 0,
                x_lo: 1.0,
                x_hi: 1.0,
                expected_revenue: 0.0,
                sales: 0,
                revenue: 0.0,
            }),
            Response::Account(AccountMsg {
                listing: String::new(),
                buyer: 1,
                spent: 0.0,
                budget: None,
                remaining: None,
            }),
            Response::Listings(ListingsMsg {
                default_listing: String::new(),
                listings: Vec::new(),
            }),
            Response::Stats(StatsMsg {
                connections: 0,
                busy_rejections: 0,
                protocol_errors: 0,
                queue_depth: 0,
                ops: Vec::new(),
                listings: Vec::new(),
            }),
            Response::Publish {
                listing: String::new(),
                epoch: 1,
                expected_revenue: 0.0,
            },
            Response::Retire {
                listing: String::new(),
            },
            Response::Busy { retry_after_ms: 0 },
            Response::Error {
                code: ErrorCode::Internal,
                message: String::new(),
            },
        ];
        // Byte 3 of a payload is its opcode (`'N' 'B' version opcode`).
        let mut opcodes: BTreeSet<(u16, String)> = requests
            .iter()
            .map(|r| (u16::from(r.encode()[3]), request_name(r).to_string()))
            .collect();
        opcodes.extend(
            responses
                .iter()
                .map(|r| (u16::from(r.encode()[3]), response_name(r).to_string())),
        );
        assert_same(
            "opcode",
            &design_table("| opcode | message | direction |"),
            &opcodes,
        );

        let codes: BTreeSet<(u16, String)> = (0..=u16::MAX)
            .filter_map(|raw| ErrorCode::from_u16(raw).map(|code| (raw, format!("{code:?}"))))
            .collect();
        assert_same(
            "error-code",
            &design_table("| code | error | meaning |"),
            &codes,
        );
    }
}
