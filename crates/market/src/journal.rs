//! Crash-safe write-ahead journal of committed sales.
//!
//! The broker's striped ledger is volatile: a crashed `nimbus serve`
//! forgets its revenue books and transaction sequence. This module is the
//! durability layer behind `BrokerBuilder::journal(path)` — an append-only,
//! checksummed, length-prefixed log written *before* a sale is
//! acknowledged, so every commit a buyer ever saw an ACK for can be
//! replayed after process death. The log is never rewritten: each flush
//! appends its records, and after [`Journal::open`] the journal keeps
//! nothing of the books in memory but the highest epoch written.
//!
//! # File format
//!
//! ```text
//! +----------------+----------------------------------------------+
//! | "NIMBUSJ1" (8) | record | record | record | ...               |
//! +----------------+----------------------------------------------+
//!
//! record := len:u32 | crc32(payload):u32 | payload[len]
//!
//! payload := 0x01 SALE  tx_id:u64 epoch:u64 x:f64 price:f64 err:f64
//!                       has_nonce:u8 [nonce:u64]
//!          | 0x02 CHECKPOINT  (decode-only) next_tx:u64 max_epoch:u64
//!                             n_tx:u32  (seq:u64 x:f64 price:f64 err:f64)*
//!                             n_key:u32 (epoch:u64 nonce:u64 tx_id:u64)*
//!                             [n_acct:u32 (buyer:u64 spent_x:f64)*]
//!          | 0x03 SALE_BUYER  as SALE, then buyer:u64
//! ```
//!
//! `SALE_BUYER` (tag `0x03`) is a sale attributed to a buyer identity; on
//! replay it additionally charges the buyer's noise-budget account by the
//! sale's inverse NCP `x`. Anonymous sales keep the `0x01` tag, so journals
//! written before buyer accounting replay unchanged.
//!
//! `CHECKPOINT` (tag `0x02`) is only decoded, never written: earlier
//! versions compacted the log into one such record, and those logs stay
//! readable. A checkpoint *replaces* all state replayed before it. Its
//! trailing accounts section is optional: older checkpoints replay with
//! empty accounts.
//!
//! All integers and float bit patterns are big-endian, matching the wire
//! protocol. The CRC is CRC-32/ISO-HDLC (the IEEE polynomial used by zip
//! and Ethernet), implemented in-crate — the workspace vendors no
//! checksum crate.
//!
//! # Recovery contract
//!
//! [`Journal::open`] scans the log front to back and stops at the first
//! record that is torn (header or body runs past EOF), corrupt (checksum
//! mismatch, unknown tag, malformed body) or semantically invalid
//! (duplicate transaction id, snapshot-epoch regression, a checkpoint key
//! naming a transaction the checkpoint does not hold). What happens
//! next depends on whether a crash can explain that record:
//!
//! - **Salvaged:** the 8-byte header, or a body of at most
//!   [`MAX_RECORD_LEN`] bytes, cut short by EOF; a complete bad record
//!   that ends exactly at EOF; or a bad region whose every byte up to EOF
//!   is zero. The file is truncated back to the valid prefix, so the next
//!   append produces a clean log, and the typed [`JournalError`] is
//!   reported in [`Recovery::truncated`].
//! - **Refused:** anything else — a length prefix over
//!   [`MAX_RECORD_LEN`], or a bad record with non-zero bytes after it.
//!   Acknowledged sales may lie past it, so `open` returns the typed
//!   error and leaves the file byte-for-byte unchanged.
//!
//! Creating the file also fsyncs its parent directory, so the new entry
//! survives power loss along with the records appended to it.
//!
//! # Fault injection
//!
//! Every byte the journal writes goes through a [`FaultyFile`], which
//! consults a shared [`FaultPlan`]: fail the nth write outright, write
//! half of it and then fail (a torn record), fail the nth fsync, or flip
//! one bit in the nth write (silent corruption caught by the checksum on
//! recovery). Plans are cheap `Arc` clones, so one plan can govern every
//! handle a journal opens across tail repairs and test restarts.

use crate::ledger::Transaction;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::time::Duration;

/// Leading bytes of every journal file.
pub const MAGIC: [u8; 8] = *b"NIMBUSJ1";

/// Hard cap on one record's payload; anything larger is treated as a
/// corrupt length prefix rather than an allocation request.
pub const MAX_RECORD_LEN: u32 = 1 << 20;

const TAG_SALE: u8 = 0x01;
const TAG_CHECKPOINT: u8 = 0x02;
const TAG_SALE_BUYER: u8 = 0x03;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE), table-driven, std-only.
// ---------------------------------------------------------------------------

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        // nimbus-audit: allow(no-panic) — const-eval loop, i < 256 by the guard
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = build_crc_table();

/// CRC-32/ISO-HDLC over `bytes` (the classic zip/Ethernet CRC).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        // nimbus-audit: allow(no-panic) — index masked to 0xFF, table has 256 entries
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed failures of the journal layer.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The file exists but does not start with the journal magic — refuse
    /// to touch it rather than truncate something that isn't ours.
    NotAJournal {
        /// Path of the offending file.
        path: PathBuf,
    },
    /// A record's length prefix or body runs past end of file (torn tail).
    TruncatedRecord {
        /// Byte offset of the record that tore.
        offset: u64,
    },
    /// A record's checksum does not match its payload.
    BadChecksum {
        /// Byte offset of the corrupt record.
        offset: u64,
    },
    /// A record decoded but its body is malformed (unknown tag, short
    /// body, trailing bytes).
    BadRecord {
        /// Byte offset of the malformed record.
        offset: u64,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// A sale record re-uses a transaction id already replayed.
    DuplicateTransaction {
        /// Byte offset of the duplicate.
        offset: u64,
        /// The repeated transaction id.
        tx_id: u64,
    },
    /// A sale record's snapshot epoch went backwards — epochs are monotone
    /// across the broker's lifetime, including restarts.
    EpochRegression {
        /// Byte offset of the regressing record.
        offset: u64,
        /// Highest epoch seen before it.
        previous: u64,
        /// The epoch it carried.
        got: u64,
    },
    /// A record's length prefix exceeds [`MAX_RECORD_LEN`].
    RecordTooLarge {
        /// Byte offset of the record.
        offset: u64,
        /// The claimed payload length.
        len: u32,
    },
    /// A previous append failed and the journal could not restore its
    /// durable tail; further appends are refused.
    Poisoned,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o: {e}"),
            JournalError::NotAJournal { path } => {
                write!(f, "{} is not a nimbus journal (bad magic)", path.display())
            }
            JournalError::TruncatedRecord { offset } => {
                write!(f, "torn record at byte {offset}")
            }
            JournalError::BadChecksum { offset } => {
                write!(f, "checksum mismatch at byte {offset}")
            }
            JournalError::BadRecord { offset, reason } => {
                write!(f, "malformed record at byte {offset}: {reason}")
            }
            JournalError::DuplicateTransaction { offset, tx_id } => {
                write!(f, "duplicate transaction id {tx_id} at byte {offset}")
            }
            JournalError::EpochRegression {
                offset,
                previous,
                got,
            } => write!(
                f,
                "snapshot epoch regressed from {previous} to {got} at byte {offset}"
            ),
            JournalError::RecordTooLarge { offset, len } => {
                write!(f, "record at byte {offset} claims {len} bytes")
            }
            JournalError::Poisoned => {
                write!(f, "journal poisoned by an unrecoverable append failure")
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct FaultState {
    writes: AtomicU64,
    syncs: AtomicU64,
    fail_write_at: AtomicU64,
    short_write_at: AtomicU64,
    flip_bit_at: AtomicU64,
    fail_sync_at: AtomicU64,
}

/// A shared plan of injected filesystem faults.
///
/// Counters are 1-based and count *calls*: the nth write is the nth
/// [`Journal::append_sales`] batch framed to disk, and the nth sync is its
/// fsync (the magic header and directory syncs bypass the plan). A
/// threshold of 0 disables that fault. Clones share state, so the plan
/// survives the journal reopening handles.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    inner: Arc<FaultState>,
}

impl FaultPlan {
    /// A plan with no faults armed.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Fail the `n`th write outright (nothing reaches the file).
    pub fn fail_nth_write(self, n: u64) -> Self {
        self.inner.fail_write_at.store(n, Ordering::SeqCst);
        self
    }

    /// Write only half of the `n`th write, then fail — a torn record.
    pub fn short_nth_write(self, n: u64) -> Self {
        self.inner.short_write_at.store(n, Ordering::SeqCst);
        self
    }

    /// Silently flip one bit in the middle of the `n`th write.
    pub fn flip_bit_in_nth_write(self, n: u64) -> Self {
        self.inner.flip_bit_at.store(n, Ordering::SeqCst);
        self
    }

    /// Fail the `n`th fsync (data may or may not be durable).
    pub fn fail_nth_sync(self, n: u64) -> Self {
        self.inner.fail_sync_at.store(n, Ordering::SeqCst);
        self
    }

    /// Writes issued through this plan so far.
    pub fn writes_observed(&self) -> u64 {
        self.inner.writes.load(Ordering::SeqCst)
    }

    fn injected(kind: &str) -> io::Error {
        io::Error::other(format!("injected fault: {kind}"))
    }
}

/// A file handle that routes writes and syncs through a [`FaultPlan`].
#[derive(Debug)]
pub struct FaultyFile {
    file: File,
    plan: FaultPlan,
}

impl FaultyFile {
    /// Wraps `file` so writes and syncs consult `plan`.
    pub fn new(file: File, plan: FaultPlan) -> Self {
        FaultyFile { file, plan }
    }

    /// Writes `buf` in full, subject to the plan's armed faults.
    pub fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let n = self.plan.inner.writes.fetch_add(1, Ordering::SeqCst) + 1;
        if n == self.plan.inner.fail_write_at.load(Ordering::SeqCst) {
            return Err(FaultPlan::injected("write failure"));
        }
        if n == self.plan.inner.short_write_at.load(Ordering::SeqCst) {
            // nimbus-audit: allow(no-panic) — len / 2 ≤ len, prefix slice is in bounds
            self.file.write_all(&buf[..buf.len() / 2])?;
            let _ = self.file.sync_data();
            return Err(FaultPlan::injected("short write"));
        }
        if n == self.plan.inner.flip_bit_at.load(Ordering::SeqCst) && !buf.is_empty() {
            let mut corrupt = buf.to_vec();
            let mid = corrupt.len() / 2;
            // nimbus-audit: allow(no-panic) — buf is non-empty here, so mid < len
            corrupt[mid] ^= 0x40;
            return self.file.write_all(&corrupt);
        }
        self.file.write_all(buf)
    }

    /// Flushes file data to stable storage, subject to the plan.
    pub fn sync_data(&mut self) -> io::Result<()> {
        let n = self.plan.inner.syncs.fetch_add(1, Ordering::SeqCst) + 1;
        if n == self.plan.inner.fail_sync_at.load(Ordering::SeqCst) {
            return Err(FaultPlan::injected("fsync failure"));
        }
        self.file.sync_data()
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One committed sale as journaled: the ledger row, the snapshot epoch it
/// was priced against, and the client's idempotency nonce if it sent one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaleRecord {
    /// The ledger transaction (id, inverse NCP, price, expected error).
    pub transaction: Transaction,
    /// Epoch of the snapshot the sale committed against.
    pub snapshot_epoch: u64,
    /// Client idempotency nonce; the dedup key is `(snapshot_epoch, nonce)`.
    pub nonce: Option<u64>,
    /// Buyer identity charged for this sale, if the commit carried one.
    /// Journaled under the `SALE_BUYER` tag; `None` keeps the legacy tag.
    pub buyer: Option<u64>,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_be_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).and_then(|b| b.first().copied())
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .and_then(|b| b.try_into().ok())
            .map(u32::from_be_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .and_then(|b| b.try_into().ok())
            .map(u64::from_be_bytes)
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Encodes a sale payload (tag byte included, no frame header).
pub fn encode_sale_payload(record: &SaleRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(58);
    out.push(if record.buyer.is_some() {
        TAG_SALE_BUYER
    } else {
        TAG_SALE
    });
    put_u64(&mut out, record.transaction.sequence);
    put_u64(&mut out, record.snapshot_epoch);
    put_f64(&mut out, record.transaction.inverse_ncp);
    put_f64(&mut out, record.transaction.price);
    put_f64(&mut out, record.transaction.expected_error);
    match record.nonce {
        Some(nonce) => {
            out.push(1);
            put_u64(&mut out, nonce);
        }
        None => out.push(0),
    }
    if let Some(buyer) = record.buyer {
        put_u64(&mut out, buyer);
    }
    out
}

/// Frames a payload as it appears on disk: `len | crc | payload`.
pub fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(payload));
    out.extend_from_slice(payload);
    out
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// Everything a broker needs to resume its books after a restart.
/// [`BrokerBuilder::build`](crate::BrokerBuilder::build) moves it into the
/// books and keeps only a [`RecoverySummary`](crate::RecoverySummary).
#[derive(Debug, Default)]
pub struct Recovery {
    /// Replayed transactions in journal (= commit) order.
    pub transactions: Vec<Transaction>,
    /// Replayed idempotency keys: `(snapshot_epoch, nonce, tx_id)`.
    pub dedup: Vec<(u64, u64, u64)>,
    /// The next transaction id to hand out (max replayed id + 1).
    pub next_tx_id: u64,
    /// The highest snapshot epoch any replayed sale committed against.
    pub max_epoch: u64,
    /// Replayed per-buyer noise-budget spend: `(buyer, cumulative x)`,
    /// sorted by buyer. Recomputed from `SALE_BUYER` records (and the last
    /// checkpoint's accounts section), so accounts always reconcile with
    /// the durable sale history.
    pub accounts: Vec<(u64, f64)>,
    /// Length of the valid prefix, in bytes (including the magic header).
    pub valid_bytes: u64,
    /// The typed error that ended the scan, if a crash left a bad tail.
    /// The file has already been truncated back to `valid_bytes`.
    pub truncated: Option<JournalError>,
}

impl Recovery {
    /// Revenue across all replayed sales. Folds from `+0.0` (std's `Sum`
    /// starts at `-0.0`) so an empty recovery reports plain zero.
    pub fn total_revenue(&self) -> f64 {
        self.transactions.iter().fold(0.0, |acc, t| acc + t.price)
    }
}

/// The books as the scan replays them, moved into a [`Recovery`] at the
/// end.
#[derive(Debug, Default)]
struct State {
    transactions: Vec<Transaction>,
    dedup: Vec<(u64, u64, u64)>,
    accounts: BTreeMap<u64, f64>,
    next_tx: u64,
    max_epoch: u64,
}

impl State {
    fn apply_sale(&mut self, record: &SaleRecord) {
        self.transactions.push(record.transaction);
        self.next_tx = self.next_tx.max(record.transaction.sequence + 1);
        self.max_epoch = self.max_epoch.max(record.snapshot_epoch);
        if let Some(nonce) = record.nonce {
            self.dedup
                .push((record.snapshot_epoch, nonce, record.transaction.sequence));
        }
        if let Some(buyer) = record.buyer {
            *self.accounts.entry(buyer).or_insert(0.0) += record.transaction.inverse_ncp;
        }
    }

    fn into_recovery(self, valid_bytes: u64, truncated: Option<JournalError>) -> Recovery {
        Recovery {
            transactions: self.transactions,
            dedup: self.dedup,
            next_tx_id: self.next_tx,
            max_epoch: self.max_epoch,
            accounts: self.accounts.into_iter().collect(),
            valid_bytes,
            truncated,
        }
    }
}

/// Big-endian `u32` at `at`, `None` when the slice is too short.
fn be_u32(bytes: &[u8], at: usize) -> Option<u32> {
    bytes
        .get(at..at.checked_add(4)?)?
        .try_into()
        .ok()
        .map(u32::from_be_bytes)
}

/// Scans `bytes` (after the magic) and returns the replayed state, the
/// valid byte count and the error that ended the scan, if a crash can
/// explain it. Any other bad record is the `Err` (see the module's
/// recovery contract).
fn scan(bytes: &[u8]) -> Result<(State, usize, Option<JournalError>), JournalError> {
    let mut state = State::default();
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let mut pos: usize = 0;
    // The error that stopped the scan, and whether its record is torn or
    // ends exactly at EOF — the shapes an interrupted append leaves.
    let stop = loop {
        let rest = bytes.get(pos..).unwrap_or(&[]);
        if rest.is_empty() {
            break None;
        }
        let offset = (MAGIC.len() + pos) as u64;
        let (Some(len), Some(crc)) = (be_u32(rest, 0), be_u32(rest, 4)) else {
            break Some((JournalError::TruncatedRecord { offset }, true));
        };
        if len > MAX_RECORD_LEN {
            break Some((JournalError::RecordTooLarge { offset, len }, false));
        }
        let end = 8 + len as usize;
        let Some(payload) = rest.get(8..end) else {
            break Some((JournalError::TruncatedRecord { offset }, true));
        };
        let at_eof = end == rest.len();
        if crc32(payload) != crc {
            break Some((JournalError::BadChecksum { offset }, at_eof));
        }
        if let Err(e) = decode_payload(payload, offset, &mut state, &mut seen) {
            break Some((e, at_eof));
        }
        pos += end;
    };
    match stop {
        None => Ok((state, pos, None)),
        // A zero-filled region is space the filesystem allocated for an
        // append whose data never reached the disk.
        Some((e, crash_shaped))
            if crash_shaped || bytes.get(pos..).unwrap_or(&[]).iter().all(|&b| b == 0) =>
        {
            Ok((state, pos, Some(e)))
        }
        Some((e, _)) => Err(e),
    }
}

fn decode_payload(
    payload: &[u8],
    offset: u64,
    state: &mut State,
    seen: &mut BTreeSet<u64>,
) -> Result<(), JournalError> {
    let bad = |reason| JournalError::BadRecord { offset, reason };
    let mut c = Cursor::new(payload);
    match c.u8().ok_or(bad("empty payload"))? {
        tag @ (TAG_SALE | TAG_SALE_BUYER) => {
            let tx_id = c.u64().ok_or(bad("short sale record"))?;
            let epoch = c.u64().ok_or(bad("short sale record"))?;
            let inverse_ncp = c.f64().ok_or(bad("short sale record"))?;
            let price = c.f64().ok_or(bad("short sale record"))?;
            let expected_error = c.f64().ok_or(bad("short sale record"))?;
            let nonce = match c.u8().ok_or(bad("short sale record"))? {
                0 => None,
                1 => Some(c.u64().ok_or(bad("short sale record"))?),
                _ => return Err(bad("bad nonce flag")),
            };
            let buyer = if tag == TAG_SALE_BUYER {
                Some(c.u64().ok_or(bad("short sale record"))?)
            } else {
                None
            };
            if !c.done() {
                return Err(bad("trailing bytes in sale record"));
            }
            if !seen.insert(tx_id) {
                return Err(JournalError::DuplicateTransaction { offset, tx_id });
            }
            if epoch < state.max_epoch {
                return Err(JournalError::EpochRegression {
                    offset,
                    previous: state.max_epoch,
                    got: epoch,
                });
            }
            state.apply_sale(&SaleRecord {
                transaction: Transaction {
                    sequence: tx_id,
                    inverse_ncp,
                    price,
                    expected_error,
                },
                snapshot_epoch: epoch,
                nonce,
                buyer,
            });
            Ok(())
        }
        TAG_CHECKPOINT => {
            let next_tx = c.u64().ok_or(bad("short checkpoint"))?;
            let max_epoch = c.u64().ok_or(bad("short checkpoint"))?;
            let n_tx = c.u32().ok_or(bad("short checkpoint"))? as usize;
            let mut fresh = State {
                next_tx,
                max_epoch,
                ..State::default()
            };
            let mut fresh_seen = BTreeSet::new();
            for _ in 0..n_tx {
                let sequence = c.u64().ok_or(bad("short checkpoint"))?;
                let inverse_ncp = c.f64().ok_or(bad("short checkpoint"))?;
                let price = c.f64().ok_or(bad("short checkpoint"))?;
                let expected_error = c.f64().ok_or(bad("short checkpoint"))?;
                if !fresh_seen.insert(sequence) {
                    return Err(JournalError::DuplicateTransaction {
                        offset,
                        tx_id: sequence,
                    });
                }
                if sequence >= next_tx {
                    return Err(bad("checkpoint transaction beyond next_tx"));
                }
                fresh.transactions.push(Transaction {
                    sequence,
                    inverse_ncp,
                    price,
                    expected_error,
                });
            }
            let n_key = c.u32().ok_or(bad("short checkpoint"))? as usize;
            for _ in 0..n_key {
                let epoch = c.u64().ok_or(bad("short checkpoint"))?;
                let nonce = c.u64().ok_or(bad("short checkpoint"))?;
                let tx_id = c.u64().ok_or(bad("short checkpoint"))?;
                if !fresh_seen.contains(&tx_id) {
                    return Err(bad("checkpoint key for a transaction it does not hold"));
                }
                fresh.dedup.push((epoch, nonce, tx_id));
            }
            // Optional trailing accounts section: checkpoints written
            // before buyer accounting end here and replay with no accounts.
            if !c.done() {
                let n_acct = c.u32().ok_or(bad("short checkpoint"))? as usize;
                for _ in 0..n_acct {
                    let buyer = c.u64().ok_or(bad("short checkpoint"))?;
                    let spent = c.f64().ok_or(bad("short checkpoint"))?;
                    if fresh.accounts.insert(buyer, spent).is_some() {
                        return Err(bad("duplicate buyer account in checkpoint"));
                    }
                }
            }
            if !c.done() {
                return Err(bad("trailing bytes in checkpoint"));
            }
            *state = fresh;
            *seen = fresh_seen;
            Ok(())
        }
        _ => Err(bad("unknown record tag")),
    }
}

// ---------------------------------------------------------------------------
// The journal proper
// ---------------------------------------------------------------------------

/// An open write-ahead journal: an append handle plus the highest epoch
/// written, which no later append may go below. The books themselves are
/// handed out once, as the [`Recovery`] from [`Journal::open`].
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: FaultyFile,
    plan: FaultPlan,
    durable_len: u64,
    max_epoch: u64,
    poisoned: bool,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path` and replays it.
    ///
    /// The `u64` is ignored; it only keeps existing callers compiling. A
    /// bad tail a crash can explain is salvaged and reported in
    /// [`Recovery::truncated`]; other corruption, or a file that is not a
    /// journal, is an error that leaves the file unchanged.
    pub fn open(
        path: impl Into<PathBuf>,
        _ignored: u64,
        plan: FaultPlan,
    ) -> Result<(Journal, Recovery), JournalError> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let (state, valid_bytes, truncated) = if bytes.len() < MAGIC.len() {
            if !MAGIC.starts_with(&bytes) {
                return Err(JournalError::NotAJournal { path });
            }
            // A fresh file, or a crash tore the header itself: stamp it,
            // then make the file's directory entry durable as well.
            let torn = (!bytes.is_empty()).then_some(JournalError::TruncatedRecord { offset: 0 });
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&MAGIC)?;
            sync_parent_dir(&path)?;
            (State::default(), MAGIC.len() as u64, torn)
        } else if bytes.get(..MAGIC.len()) != Some(MAGIC.as_slice()) {
            return Err(JournalError::NotAJournal { path });
        } else {
            let (state, valid, err) = scan(bytes.get(MAGIC.len()..).unwrap_or(&[]))?;
            let valid = (MAGIC.len() + valid) as u64;
            if err.is_some() {
                file.set_len(valid)?;
            }
            (state, valid, err)
        };

        // The books now rest on what the scan read, which a crash may
        // have left written but never synced.
        file.sync_data()?;
        file.seek(SeekFrom::Start(valid_bytes))?;
        let journal = Journal {
            path,
            file: FaultyFile::new(file, plan.clone()),
            plan,
            durable_len: valid_bytes,
            max_epoch: state.max_epoch,
            poisoned: false,
        };
        Ok((journal, state.into_recovery(valid_bytes, truncated)))
    }

    /// Path this journal writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes durably framed so far (header included).
    pub fn durable_len(&self) -> u64 {
        self.durable_len
    }

    /// Whether an unrecoverable append failure disabled this journal.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Appends sales with **one** write and **one** fsync before returning
    /// — the ACK barrier, and the group commit primitive. Returns one
    /// result per input record, in order.
    ///
    /// Journaled epochs must be non-decreasing (recovery treats a
    /// regression as corruption). A record whose epoch is below the
    /// highest one written, or admitted earlier in the batch, is refused
    /// with [`JournalError::EpochRegression`] and skipped without aborting
    /// the batch: its commit raced a re-open and lost, a newer snapshot
    /// has already sold, and the buyer should re-quote.
    ///
    /// All admitted records are framed into a single buffer and flushed
    /// with one `write + sync_data`, so the durability barrier costs one
    /// fsync regardless of batch size while every acknowledged record is
    /// still durable before its `Ok` is returned. If the write or the
    /// fsync fails, *no* admitted record is durable and the broker must
    /// not acknowledge any: every admitted record reports the failure, and
    /// the journal truncates back to its durable tail so the log stays
    /// clean, poisoning itself only if even that repair fails.
    ///
    /// Under a [`FaultPlan`] the whole batch counts as one write call and
    /// one sync call.
    pub fn append_sales(&mut self, records: &[SaleRecord]) -> Vec<Result<(), JournalError>> {
        if self.poisoned {
            return records
                .iter()
                .map(|_| Err(JournalError::Poisoned))
                .collect();
        }
        let mut results: Vec<Result<(), JournalError>> = Vec::with_capacity(records.len());
        let mut admitted: Vec<usize> = Vec::with_capacity(records.len());
        let mut buf: Vec<u8> = Vec::new();
        let mut max_epoch = self.max_epoch;
        for (i, record) in records.iter().enumerate() {
            if record.snapshot_epoch < max_epoch {
                results.push(Err(JournalError::EpochRegression {
                    offset: self.durable_len,
                    previous: max_epoch,
                    got: record.snapshot_epoch,
                }));
                continue;
            }
            max_epoch = max_epoch.max(record.snapshot_epoch);
            buf.extend_from_slice(&frame_record(&encode_sale_payload(record)));
            admitted.push(i);
            results.push(Ok(()));
        }
        if admitted.is_empty() {
            return results;
        }
        if let Err(e) = self
            .file
            .write_all(&buf)
            .and_then(|()| self.file.sync_data())
        {
            self.repair();
            // `io::Error` is not `Clone`: every admitted record gets a
            // freshly built error carrying the original failure's text.
            let reason = e.to_string();
            for &i in &admitted {
                if let Some(slot) = results.get_mut(i) {
                    *slot = Err(JournalError::Io(io::Error::other(format!(
                        "group append failed: {reason}"
                    ))));
                }
            }
            return results;
        }
        self.durable_len += buf.len() as u64;
        self.max_epoch = max_epoch;
        results
    }

    /// After a failed append, restore the file to its last durable length
    /// so the next append starts from a clean tail.
    fn repair(&mut self) {
        let restored = (|| -> io::Result<()> {
            let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
            file.set_len(self.durable_len)?;
            file.sync_data()?;
            file.seek(SeekFrom::Start(self.durable_len))?;
            self.file = FaultyFile::new(file, self.plan.clone());
            Ok(())
        })();
        if restored.is_err() {
            self.poisoned = true;
        }
    }
}

/// Fsyncs the directory holding `path`, so a new entry in it survives
/// power loss.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// Creates `dir` and any missing ancestors, fsyncing the parent of each
/// directory it creates.
pub(crate) fn create_dir_durable(dir: &Path) -> io::Result<()> {
    let missing: Vec<&Path> = dir
        .ancestors()
        .take_while(|d| !d.as_os_str().is_empty() && !d.exists())
        .collect();
    std::fs::create_dir_all(dir)?;
    missing.iter().rev().try_for_each(|d| sync_parent_dir(d))
}

// ---------------------------------------------------------------------------
// Group commit
// ---------------------------------------------------------------------------

/// State shared between concurrent committers: the records waiting for the
/// next flush and the results of flushes already performed.
#[derive(Debug, Default)]
struct GroupQueue {
    /// `(ticket, record)` pairs waiting to be flushed, in arrival order.
    queue: Vec<(u64, SaleRecord)>,
    /// Results of flushed tickets, awaiting pickup by their submitters.
    results: BTreeMap<u64, Result<(), JournalError>>,
    /// Next ticket to hand out.
    next_ticket: u64,
    /// Whether some thread is currently leading a flush.
    flushing: bool,
    /// Committers that hold an [`Announcement`] but have not enqueued
    /// through it yet — the only siblings a gathering leader waits for.
    preparing: usize,
}

/// Monotone group-commit counters of one journal, for monitoring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// `write + fsync` flushes performed.
    pub flushes: u64,
    /// Records those flushes carried (failed ones included).
    pub records: u64,
    /// Flush leaders that waited in the gathering window because a
    /// sibling had announced a record; a lone leader never counts here.
    pub window_waits: u64,
}

/// A commit batcher that coalesces concurrent [`GroupCommit::append_sale`]
/// calls into one `write + fsync` — *group commit*.
///
/// Committers enqueue their record and the first to find no flush in
/// progress becomes the **leader**: it drains the whole queue, appends it
/// with [`Journal::append_sales`] (one fsync for the batch) and deposits
/// the per-record results for the other committers to pick up. Arrivals
/// during a flush queue behind the running fsync and are absorbed by the
/// next leader, so batching emerges from contention.
///
/// The gathering `window` is an upper bound, not a fixed delay. A
/// committer first [`announce`](GroupCommit::announce)s itself, does its
/// pre-durability work, then enqueues through the returned
/// [`Announcement`]. A leader waits only while some announced sibling has
/// not enqueued yet (PostgreSQL's `commit_delay` gated on
/// `commit_siblings`), and never longer than `window`: a lone commit
/// flushes at once. The ACK barrier is preserved either way:
/// `append_sale` only returns `Ok` after the record's fsync completed, so
/// everything the recovery corpus guarantees about single appends holds
/// verbatim for batched ones.
#[derive(Debug)]
pub struct GroupCommit {
    /// The journal, locked only by the flush leader (and `with_journal`).
    journal: StdMutex<Journal>,
    shared: StdMutex<GroupQueue>,
    /// Signals a gathering leader that a sibling enqueued or withdrew.
    arrived: Condvar,
    /// Signals waiters that a flush deposited results.
    done: Condvar,
    window: Duration,
    flushes: AtomicU64,
    flushed_records: AtomicU64,
    window_waits: AtomicU64,
}

/// A committer's promise to enqueue records with a [`GroupCommit`] soon,
/// from [`GroupCommit::announce`]. While it is held, a flush leader may
/// wait (up to the window) for it; consuming it with
/// [`Announcement::append_sales`] enqueues, and dropping it unconsumed —
/// every slot failed, or a panic unwound — withdraws it.
#[derive(Debug)]
#[must_use = "an announcement keeps flush leaders waiting until it is consumed or dropped"]
pub struct Announcement<'a> {
    group: Option<&'a GroupCommit>,
}

impl Announcement<'_> {
    /// Enqueues `records` and returns once they are durable or failed,
    /// one result per record in order (see [`GroupCommit::append_sales`]).
    /// An empty `records` just withdraws the announcement.
    pub fn append_sales(mut self, records: Vec<SaleRecord>) -> Vec<Result<(), JournalError>> {
        match self.group.take() {
            Some(group) => group.enqueue(records),
            None => Vec::new(),
        }
    }
}

impl Drop for Announcement<'_> {
    fn drop(&mut self) {
        if let Some(group) = self.group.take() {
            group.enqueue(Vec::new());
        }
    }
}

impl GroupCommit {
    /// Wraps `journal` in a batcher whose leaders gather for at most
    /// `window` (clamped to [`MAX_GROUP_COMMIT_WINDOW`]; `Duration::ZERO`
    /// never gathers).
    pub fn new(journal: Journal, window: Duration) -> Self {
        GroupCommit {
            journal: StdMutex::new(journal),
            shared: StdMutex::new(GroupQueue::default()),
            arrived: Condvar::new(),
            done: Condvar::new(),
            window: window.min(MAX_GROUP_COMMIT_WINDOW),
            flushes: AtomicU64::new(0),
            flushed_records: AtomicU64::new(0),
            window_waits: AtomicU64::new(0),
        }
    }

    /// The configured upper bound on a leader's gathering wait.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// The flush, record and window-wait counters so far.
    pub fn stats(&self) -> GroupCommitStats {
        GroupCommitStats {
            flushes: self.flushes.load(Ordering::Relaxed),
            records: self.flushed_records.load(Ordering::Relaxed),
            window_waits: self.window_waits.load(Ordering::Relaxed),
        }
    }

    fn lock_shared(&self) -> StdMutexGuard<'_, GroupQueue> {
        // A poisoning panic can only come from a peer committer; the queue
        // state is a plain value store and stays coherent, so recover it.
        self.shared.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn lock_journal(&self) -> StdMutexGuard<'_, Journal> {
        self.journal.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Runs `f` on the wrapped journal (its path, length or poisoning).
    /// Waits for any in-flight flush to release the journal lock.
    pub fn with_journal<R>(&self, f: impl FnOnce(&mut Journal) -> R) -> R {
        f(&mut self.lock_journal())
    }

    /// Announced committers that have not enqueued yet.
    #[cfg(test)]
    pub(crate) fn preparing(&self) -> usize {
        self.lock_shared().preparing
    }

    /// Announces that the caller will enqueue records soon. Call it before
    /// the work that produces the records, so a leader flushing meanwhile
    /// waits for them instead of flushing without them.
    pub fn announce(&self) -> Announcement<'_> {
        self.lock_shared().preparing += 1;
        Announcement { group: Some(self) }
    }

    /// Appends one sale through the batcher, returning once the record is
    /// durable (its fsync — possibly shared with concurrent committers —
    /// has completed) or failed.
    pub fn append_sale(&self, record: SaleRecord) -> Result<(), JournalError> {
        self.append_sales(vec![record])
            .pop()
            .unwrap_or(Err(JournalError::Poisoned))
    }

    /// Appends many sales through the batcher with one enqueue, returning
    /// one result per record in order. The records share a flush with any
    /// concurrent committers, so `BATCH_COMMIT` and group commit compound:
    /// one fsync can cover many batches. Equivalent to announcing and
    /// enqueueing at once.
    pub fn append_sales(&self, records: Vec<SaleRecord>) -> Vec<Result<(), JournalError>> {
        self.announce().append_sales(records)
    }

    /// The one enqueue path: retires one announcement and queues its
    /// `records` in the same critical section — a gathering leader never
    /// sees the announcement gone before the records are queued — then
    /// waits for (or leads) their flush.
    fn enqueue(&self, records: Vec<SaleRecord>) -> Vec<Result<(), JournalError>> {
        let n = records.len() as u64;
        let mut shared = self.lock_shared();
        shared.preparing = shared.preparing.saturating_sub(1);
        let first = shared.next_ticket;
        shared.next_ticket += n;
        for (k, record) in records.into_iter().enumerate() {
            shared.queue.push((first + k as u64, record));
        }
        // Wake a leader gathering inside its window: a sibling it waits
        // for has enqueued (or withdrawn).
        self.arrived.notify_one();
        if n == 0 {
            return Vec::new();
        }
        loop {
            let mine = first..first + n;
            if mine.clone().all(|t| shared.results.contains_key(&t)) {
                return mine
                    .map(|t| {
                        shared
                            .results
                            .remove(&t)
                            .unwrap_or(Err(JournalError::Poisoned))
                    })
                    .collect();
            }
            if !shared.flushing {
                // Become the leader for the next flush.
                shared.flushing = true;
                if shared.preparing > 0 && !self.window.is_zero() {
                    // Gather only the announced siblings, for at most
                    // `window`; the predicate needs no clock read.
                    self.window_waits.fetch_add(1, Ordering::Relaxed);
                    let (guard, _) = self
                        .arrived
                        .wait_timeout_while(shared, self.window, |q| q.preparing > 0)
                        .unwrap_or_else(|p| p.into_inner());
                    shared = guard;
                }
                let batch = std::mem::take(&mut shared.queue);
                drop(shared);
                let records: Vec<SaleRecord> = batch.iter().map(|(_, r)| *r).collect();
                // nimbus-audit: allow(lock-order) — by design: the leader holds the journal mutex exactly for the group fsync; followers park on the condvar, not the disk
                let results = self.lock_journal().append_sales(&records);
                self.flushes.fetch_add(1, Ordering::Relaxed);
                self.flushed_records
                    .fetch_add(records.len() as u64, Ordering::Relaxed);
                shared = self.lock_shared();
                for ((ticket, _), result) in batch.into_iter().zip(results) {
                    shared.results.insert(ticket, result);
                }
                shared.flushing = false;
                self.done.notify_all();
                continue;
            }
            shared = self.done.wait(shared).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// Upper bound on the group-commit gathering window — latency added to a
/// commit must stay bounded even under misconfiguration.
pub const MAX_GROUP_COMMIT_WINDOW: Duration = Duration::from_micros(500);

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering as AtomicOrdering};

    fn temp_path(name: &str) -> PathBuf {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let n = COUNTER.fetch_add(1, AtomicOrdering::SeqCst);
        std::env::temp_dir().join(format!(
            "nimbus-journal-{}-{}-{}.journal",
            std::process::id(),
            name,
            n
        ))
    }

    fn sale(tx_id: u64, epoch: u64, nonce: Option<u64>) -> SaleRecord {
        SaleRecord {
            transaction: Transaction {
                sequence: tx_id,
                inverse_ncp: 10.0 + tx_id as f64,
                price: 2.5 * (tx_id + 1) as f64,
                expected_error: 0.1 / (tx_id + 1) as f64,
            },
            snapshot_epoch: epoch,
            nonce,
            buyer: None,
        }
    }

    fn buyer_sale(tx_id: u64, epoch: u64, nonce: Option<u64>, buyer: u64) -> SaleRecord {
        SaleRecord {
            buyer: Some(buyer),
            ..sale(tx_id, epoch, nonce)
        }
    }

    /// One record through `append_sales`: one faultable write, one sync.
    fn append(j: &mut Journal, record: SaleRecord) -> Result<(), JournalError> {
        j.append_sales(&[record]).remove(0)
    }

    /// A journal of `n` anonymous sales at epoch 1, and each record's
    /// byte offset.
    fn journal_of(name: &str, n: u64) -> (PathBuf, Vec<u64>) {
        let path = temp_path(name);
        let (mut j, _) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
        let mut offsets = Vec::new();
        for i in 0..n {
            offsets.push(j.durable_len());
            append(&mut j, sale(i, 1, None)).unwrap();
        }
        (path, offsets)
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn fresh_journal_roundtrips_sales() {
        let path = temp_path("roundtrip");
        {
            let (mut j, rec) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
            assert!(rec.transactions.is_empty());
            assert_eq!(rec.next_tx_id, 0);
            append(&mut j, sale(0, 1, None)).unwrap();
            append(&mut j, sale(1, 1, Some(0xDEAD))).unwrap();
            append(&mut j, sale(2, 2, None)).unwrap();
        }
        let (_, rec) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
        assert!(rec.truncated.is_none());
        assert_eq!(rec.transactions.len(), 3);
        assert_eq!(rec.transactions[1], sale(1, 1, None).transaction);
        assert_eq!(rec.next_tx_id, 3);
        assert_eq!(rec.max_epoch, 2);
        assert_eq!(rec.dedup, vec![(1, 0xDEAD, 1)]);
        assert!((rec.total_revenue() - (2.5 + 5.0 + 7.5)).abs() < 1e-12);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn buyer_sales_roundtrip_and_accumulate_accounts() {
        let path = temp_path("buyer-roundtrip");
        {
            let (mut j, _) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
            append(&mut j, buyer_sale(0, 1, Some(7), 500)).unwrap();
            append(&mut j, sale(1, 1, None)).unwrap();
            append(&mut j, buyer_sale(2, 2, None, 500)).unwrap();
            append(&mut j, buyer_sale(3, 2, None, 501)).unwrap();
        }
        let (_, rec) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
        assert!(rec.truncated.is_none());
        assert_eq!(rec.transactions.len(), 4);
        // x charges are 10 + tx_id; buyer 500 bought tx 0 and tx 2.
        assert_eq!(rec.accounts, vec![(500, 10.0 + 12.0), (501, 13.0)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_without_accounts_section_still_decodes() {
        // A checkpoint frame ending right after the dedup section (the
        // pre-accounting shape) must replay with empty accounts.
        let path = temp_path("old-checkpoint");
        let mut payload = Vec::new();
        payload.push(TAG_CHECKPOINT);
        put_u64(&mut payload, 5); // next_tx
        put_u64(&mut payload, 2); // max_epoch
        put_u32(&mut payload, 1); // n_tx
        put_u64(&mut payload, 4);
        put_f64(&mut payload, 14.0);
        put_f64(&mut payload, 12.5);
        put_f64(&mut payload, 0.02);
        put_u32(&mut payload, 0); // n_key — and nothing after it
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&frame_record(&payload));
        std::fs::write(&path, &bytes).unwrap();
        let (_, rec) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
        assert!(rec.truncated.is_none());
        assert_eq!(rec.transactions.len(), 1);
        assert!(rec.accounts.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_salvaged_and_log_stays_usable() {
        let (path, _) = journal_of("torn", 2);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        // Simulate a crash mid-append: half a record at the tail.
        let frame = frame_record(&encode_sale_payload(&sale(2, 1, None)));
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&frame[..frame.len() / 2]).unwrap();
        drop(f);
        let (mut j, rec) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
        assert!(matches!(
            rec.truncated,
            Some(JournalError::TruncatedRecord { offset }) if offset == clean_len
        ));
        assert_eq!(rec.transactions.len(), 2);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        // Appending after salvage produces a clean log.
        append(&mut j, sale(2, 1, None)).unwrap();
        drop(j);
        let (_, rec) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
        assert!(rec.truncated.is_none());
        assert_eq!(rec.transactions.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flip_is_caught_by_checksum_on_recovery() {
        let path = temp_path("bitflip");
        // The magic header goes through the raw handle, so appends count
        // from write 1: corrupt the second sale.
        let plan = FaultPlan::new().flip_bit_in_nth_write(2);
        let second = {
            let (mut j, _) = Journal::open(&path, 0, plan).unwrap();
            append(&mut j, sale(0, 1, None)).unwrap();
            let second = j.durable_len();
            append(&mut j, sale(1, 1, None)).unwrap(); // silently corrupted
            append(&mut j, sale(2, 1, None)).unwrap();
            second
        };
        // A durable sale follows the corrupt record, so no crash explains
        // it: recovery refuses rather than cut the log short.
        let before = std::fs::read(&path).unwrap();
        assert!(matches!(
            Journal::open(&path, 0, FaultPlan::new()),
            Err(JournalError::BadChecksum { offset }) if offset == second
        ));
        assert_eq!(std::fs::read(&path).unwrap(), before);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_middle_record_is_refused_and_file_left_unchanged() {
        let (path, offsets) = journal_of("middle", 3);
        let mut bytes = std::fs::read(&path).unwrap();
        // One payload byte of the second of three records.
        bytes[offsets[1] as usize + 12] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Journal::open(&path, 0, FaultPlan::new()),
            Err(JournalError::BadChecksum { offset }) if offset == offsets[1]
        ));
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn oversized_length_prefix_is_refused() {
        // Salvaging at a bad first length would cut the book to its
        // header; the refusal keeps all three sales on disk.
        let (path, offsets) = journal_of("oversized", 3);
        assert_eq!(offsets[0], 8);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&u32::MAX.to_be_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Journal::open(&path, 0, FaultPlan::new()),
            Err(JournalError::RecordTooLarge {
                offset: 8,
                len: u32::MAX
            })
        ));
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn zero_filled_tail_is_salvaged() {
        // A crash can leave space the filesystem allocated but never
        // wrote: zeros, which is no record but no evidence of loss either.
        let (path, _) = journal_of("zero-tail", 2);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0u8; 4096]).unwrap();
        drop(f);
        let (mut j, rec) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
        assert!(matches!(
            rec.truncated,
            Some(JournalError::BadRecord { offset, .. }) if offset == clean_len
        ));
        assert_eq!(rec.transactions.len(), 2);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        append(&mut j, sale(2, 1, None)).unwrap();
        drop(j);
        let (_, rec) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
        assert!(rec.truncated.is_none());
        assert_eq!(rec.transactions.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compacted_log_from_earlier_versions_still_replays() {
        // Three sales (two keyed, two buyer-attributed), a checkpoint, then
        // one SALE and one SALE_BUYER, as written by the last version that
        // compacted its log.
        let path = temp_path("checkpointed-fixture");
        let fixture = include_bytes!("../tests/fixtures/checkpointed.journal");
        std::fs::write(&path, fixture).unwrap();
        let (_, rec) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
        assert!(rec.truncated.is_none());
        let expected: Vec<Transaction> = (0..5).map(|i| sale(i, 0, None).transaction).collect();
        assert_eq!(rec.transactions, expected);
        assert_eq!(rec.dedup, vec![(1, 101, 0), (1, 102, 1), (3, 103, 3)]);
        // Buyer 7 bought tx 0 (x = 10) and tx 4 (x = 14); buyer 8 tx 2.
        assert_eq!(rec.accounts, vec![(7, 24.0), (8, 12.0)]);
        assert_eq!(rec.next_tx_id, 5);
        assert_eq!(rec.max_epoch, 3);
        assert_eq!(rec.valid_bytes, 337);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_write_is_not_acked_and_journal_recovers() {
        let path = temp_path("failwrite");
        let plan = FaultPlan::new().fail_nth_write(2);
        let (mut j, _) = Journal::open(&path, 0, plan).unwrap();
        append(&mut j, sale(0, 1, None)).unwrap();
        assert!(matches!(
            append(&mut j, sale(1, 1, None)),
            Err(JournalError::Io(_))
        ));
        assert!(!j.is_poisoned());
        // The journal repaired its tail; the next append succeeds.
        append(&mut j, sale(2, 1, None)).unwrap();
        drop(j);
        let (_, rec) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
        assert!(rec.truncated.is_none());
        let ids: Vec<u64> = rec.transactions.iter().map(|t| t.sequence).collect();
        assert_eq!(ids, vec![0, 2]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn short_write_leaves_no_partial_record_behind() {
        let path = temp_path("shortwrite");
        let plan = FaultPlan::new().short_nth_write(1);
        let (mut j, _) = Journal::open(&path, 0, plan).unwrap();
        assert!(append(&mut j, sale(0, 1, None)).is_err());
        append(&mut j, sale(1, 1, None)).unwrap();
        drop(j);
        let (_, rec) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
        assert!(rec.truncated.is_none());
        let ids: Vec<u64> = rec.transactions.iter().map(|t| t.sequence).collect();
        assert_eq!(ids, vec![1]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fsync_failure_fails_the_append() {
        let path = temp_path("fsync");
        let plan = FaultPlan::new().fail_nth_sync(1);
        let (mut j, _) = Journal::open(&path, 0, plan).unwrap();
        assert!(matches!(
            append(&mut j, sale(0, 1, None)),
            Err(JournalError::Io(_))
        ));
        append(&mut j, sale(1, 1, None)).unwrap();
        drop(j);
        let (_, rec) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
        let ids: Vec<u64> = rec.transactions.iter().map(|t| t.sequence).collect();
        assert_eq!(ids, vec![1]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn refuses_files_that_are_not_journals() {
        let path = temp_path("notajournal");
        std::fs::write(&path, b"hello world, definitely not a journal").unwrap();
        assert!(matches!(
            Journal::open(&path, 0, FaultPlan::new()),
            Err(JournalError::NotAJournal { .. })
        ));
        // The file was not destroyed by the refusal.
        assert!(std::fs::read(&path).unwrap().starts_with(b"hello"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_sales_is_one_write_one_fsync() {
        let path = temp_path("groupwrite");
        let plan = FaultPlan::new();
        let (mut j, _) = Journal::open(&path, 0, plan.clone()).unwrap();
        let results = j.append_sales(&[sale(0, 1, None), sale(1, 1, Some(7)), sale(2, 2, None)]);
        assert!(results.iter().all(|r| r.is_ok()));
        // The magic header goes through the raw handle; the whole batch is
        // exactly one faultable write.
        assert_eq!(plan.writes_observed(), 1);
        drop(j);
        let (_, rec) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
        assert!(rec.truncated.is_none());
        assert_eq!(rec.transactions.len(), 3);
        assert_eq!(rec.max_epoch, 2);
        assert_eq!(rec.dedup, vec![(1, 7, 1)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_sales_rejects_epoch_regressions_per_record() {
        let path = temp_path("groupepoch");
        let (mut j, _) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
        append(&mut j, sale(0, 5, None)).unwrap();
        let results = j.append_sales(&[
            sale(1, 4, None), // regresses vs the journaled epoch 5
            sale(2, 5, None),
            sale(3, 6, None),
            sale(4, 5, None), // regresses vs epoch 6 admitted earlier in the batch
        ]);
        assert!(matches!(
            results[0],
            Err(JournalError::EpochRegression {
                previous: 5,
                got: 4,
                ..
            })
        ));
        assert!(results[1].is_ok());
        assert!(results[2].is_ok());
        assert!(matches!(
            results[3],
            Err(JournalError::EpochRegression {
                previous: 6,
                got: 5,
                ..
            })
        ));
        drop(j);
        let (_, rec) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
        assert!(rec.truncated.is_none());
        let ids: Vec<u64> = rec.transactions.iter().map(|t| t.sequence).collect();
        assert_eq!(ids, vec![0, 2, 3]);
        assert_eq!(rec.max_epoch, 6);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_group_write_acks_nothing_and_repairs() {
        let path = temp_path("groupfail");
        let plan = FaultPlan::new().fail_nth_write(2);
        let (mut j, _) = Journal::open(&path, 0, plan).unwrap();
        append(&mut j, sale(0, 1, None)).unwrap();
        let results = j.append_sales(&[sale(1, 1, None), sale(2, 1, None), sale(3, 1, None)]);
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(matches!(r, Err(JournalError::Io(_))), "{r:?}");
        }
        assert!(!j.is_poisoned());
        // The tail was repaired; appends keep working.
        append(&mut j, sale(4, 1, None)).unwrap();
        drop(j);
        let (_, rec) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
        assert!(rec.truncated.is_none());
        let ids: Vec<u64> = rec.transactions.iter().map(|t| t.sequence).collect();
        assert_eq!(ids, vec![0, 4]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_commit_batches_a_multi_record_enqueue_into_one_write() {
        let path = temp_path("groupcommit-batch");
        let plan = FaultPlan::new();
        let (j, _) = Journal::open(&path, 0, plan.clone()).unwrap();
        let gc = GroupCommit::new(j, Duration::ZERO);
        let results = gc.append_sales(vec![sale(0, 1, None), sale(1, 1, None), sale(2, 1, None)]);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(plan.writes_observed(), 1);
        drop(gc);
        let (_, rec) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
        assert_eq!(rec.transactions.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_commit_is_correct_under_concurrency() {
        let path = temp_path("groupcommit-threads");
        let plan = FaultPlan::new();
        let (j, _) = Journal::open(&path, 0, plan.clone()).unwrap();
        let gc = std::sync::Arc::new(GroupCommit::new(j, Duration::from_micros(200)));
        let threads = 8;
        let per_thread = 16;
        std::thread::scope(|s| {
            for t in 0..threads {
                let gc = gc.clone();
                s.spawn(move || {
                    for i in 0..per_thread {
                        let id = (t * per_thread + i) as u64;
                        gc.append_sale(sale(id, 1, None)).unwrap();
                    }
                });
            }
        });
        // Every record became durable exactly once…
        let (_, rec) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
        assert!(rec.truncated.is_none());
        assert_eq!(rec.transactions.len(), threads * per_thread);
        let mut ids: Vec<u64> = rec.transactions.iter().map(|t| t.sequence).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..(threads * per_thread) as u64).collect::<Vec<_>>());
        // …and contention produced at least some coalescing: fewer flushes
        // than records (each flush is one faultable write).
        assert!(
            plan.writes_observed() <= (threads * per_thread) as u64,
            "flushes {} > records",
            plan.writes_observed()
        );
        let stats = gc.stats();
        assert_eq!(stats.records, (threads * per_thread) as u64);
        assert_eq!(stats.flushes, plan.writes_observed());
        assert!(stats.window_waits <= stats.flushes);
        assert_eq!(gc.preparing(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_commit_lone_appends_never_wait() {
        let path = temp_path("groupcommit-lone");
        let (j, _) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
        let gc = GroupCommit::new(j, MAX_GROUP_COMMIT_WINDOW);
        for id in 0..200 {
            gc.append_sale(sale(id, 1, None)).unwrap();
        }
        assert_eq!(
            gc.stats(),
            GroupCommitStats {
                flushes: 200,
                records: 200,
                window_waits: 0,
            }
        );
        assert_eq!(gc.preparing(), 0);
        drop(gc);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_commit_held_announcement_gathers_until_the_window_closes() {
        let path = temp_path("groupcommit-held");
        let (j, _) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
        let gc = GroupCommit::new(j, MAX_GROUP_COMMIT_WINDOW);
        let held = gc.announce();
        // The sibling never enqueues, so the leader can only return by
        // running out its window — and then it flushes without it.
        gc.append_sale(sale(0, 1, None)).unwrap();
        assert_eq!(gc.stats().window_waits, 1);
        assert_eq!(gc.stats().flushes, 1);
        assert_eq!(gc.preparing(), 1);
        // Dropping the announcement unconsumed withdraws it.
        drop(held);
        assert_eq!(gc.preparing(), 0);
        gc.append_sale(sale(1, 1, None)).unwrap();
        assert_eq!(gc.stats().window_waits, 1, "lone again: no wait");
        // An announcement consumed with no records withdraws as well.
        assert!(gc.announce().append_sales(Vec::new()).is_empty());
        assert_eq!(gc.preparing(), 0);
        drop(gc);
        let (_, rec) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
        assert_eq!(rec.transactions.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_commit_announcement_withdraws_on_panic() {
        let path = temp_path("groupcommit-panic");
        let (j, _) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
        let gc = GroupCommit::new(j, MAX_GROUP_COMMIT_WINDOW);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _announced = gc.announce();
            panic!("committer died between announce and enqueue");
        }));
        assert!(unwound.is_err());
        assert_eq!(gc.preparing(), 0);
        gc.append_sale(sale(0, 1, None)).unwrap();
        assert_eq!(gc.stats().window_waits, 0);
        drop(gc);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_commit_clamps_the_window() {
        let path = temp_path("groupcommit-window");
        let (j, _) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
        let gc = GroupCommit::new(j, Duration::from_secs(10));
        assert_eq!(gc.window(), MAX_GROUP_COMMIT_WINDOW);
        drop(gc);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn error_display_is_informative() {
        let e = JournalError::EpochRegression {
            offset: 42,
            previous: 3,
            got: 1,
        };
        assert!(e.to_string().contains("regressed"));
        assert!(JournalError::Poisoned.to_string().contains("poisoned"));
        assert!(JournalError::BadChecksum { offset: 9 }
            .to_string()
            .contains("checksum"));
    }
}
