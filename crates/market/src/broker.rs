//! The broker agent: trains once, prices optimally, sells noisy models.
//!
//! The broker realizes the full §3.2 interaction model:
//!
//! 1. **Listing** — takes a [`Seller`]'s dataset and market-research curves.
//! 2. **One-time training** — [`BrokerBuilder::build`] trains the optimal
//!    model `h*_λ(D)` once, then frees `D` and hands its pages back to the
//!    OS ([`Dataset::release`](nimbus_data::Dataset::release)); every
//!    published snapshot shares `h*` (the "train once, sell many"
//!    economics of §4 that make real-time interaction possible).
//! 3. **Market opening** — transforms the curves onto the inverse-NCP axis,
//!    builds the [`RevenueProblem`], runs the Algorithm 1 DP, certifies the
//!    posted table arbitrage-free for every `x` from its own knots
//!    ([`nimbus_core::certify_menu`], exact and `O(n)`; it holds after the
//!    error-inverse map `φ` too, since `φ` only picks which `x` a buyer
//!    gets), and publishes the result as an immutable [`MarketSnapshot`].
//! 4. **Sales** — serves the three §3.2 buyer options through an explicit
//!    quote→commit protocol: [`Broker::quote_request`] resolves a
//!    [`PurchaseRequest`] to a priced [`Quote`] against the published
//!    snapshot, and [`Broker::commit`] exchanges the quote plus payment for
//!    a noisy model instance.
//!
//! # Error metrics and φ
//!
//! Budget arithmetic is quoted in the broker's configured
//! [`ErrorMetric`]. The default is the square-loss
//! distance, where Lemma 3 gives the exact identity
//! `expected error = δ = 1/x` and the snapshot's error curve is analytic.
//! [`BrokerBuilder::error_metric`] switches the listing to any other metric
//! (logistic, hinge, 0/1): `open_market()` then estimates the metric's
//! monotone error curve by deterministic parallel Monte Carlo
//! ([`nimbus_core::CurveProvider`]), caches it in the snapshot, and every
//! error budget is resolved through the empirical inverse `φ` of Theorem 6.
//! Quotes and sales are tagged with the metric name so buyers always know
//! which `ε` the `expected_error` field is denominated in. One-off curves
//! for a different `ε` are still available via
//! [`Broker::price_error_curve`] / [`Broker::price_error_curve_for`].
//!
//! # Concurrency model
//!
//! The serving path is designed for heavy concurrent buyer traffic:
//!
//! * **Immutable snapshot.** `open_market()` publishes an
//!   `Arc<MarketSnapshot>` (price table, revenue problem, shared optimal
//!   model) by swapping it into a mutex; every read path —
//!   [`Broker::quote`], [`Broker::quote_request`], [`Broker::posted_menu`],
//!   [`Broker::expected_revenue`] — holds that mutex only to clone the
//!   `Arc`, then prices off its own reference. A superseded snapshot drops
//!   with its last reader; outstanding quotes from it are rejected at
//!   commit time with [`MarketError::QuoteExpired`].
//! * **One ledger.** A durable sale inserts its row into one
//!   `Mutex<`[`Ledger`]`>` at its place in transaction-id order; the
//!   insert lands at or near the tail, and a commit holds the lock for that
//!   one insert. Reads clone or fold the rows in id order, so the books and
//!   their revenue bits do not depend on thread interleaving.
//! * **Per-transaction RNG.** Each commit draws its noise from an
//!   independent stream `seeded_rng(split_stream(seed, transaction_id))`,
//!   so the model a buyer receives depends only on `(seed, transaction id,
//!   x)` — never on thread interleaving — and concurrent sales share no RNG
//!   state at all. Monte-Carlo error-curve estimation is equally
//!   deterministic: each δ point owns a stream derived from
//!   `(seed, point index)`, so the parallel estimator is bitwise-identical
//!   to a sequential one and the broker holds no RNG state at all.

use crate::account::BuyerAccounts;
use crate::journal::{FaultPlan, GroupCommit, GroupCommitStats, Journal, JournalError, SaleRecord};
use crate::ledger::{Ledger, Transaction};
use crate::seller::{Seller, SellerTerms};
use crate::{MarketError, Result};
use nimbus_core::mechanism::RandomizedMechanism;
use nimbus_core::pricing::{PiecewiseLinearPricing, PricingFunction};
use nimbus_core::{
    certify_menu, CurveProvider, ErrorCurve, GaussianMechanism, InverseNcp, Ncp, PriceErrorCurve,
};
use nimbus_ml::{ErrorMetric, LinearModel, LinearRegressionTrainer, Trainer};
use nimbus_optim::{solve_revenue_dp, RevenueProblem};
use nimbus_randkit::{seeded_rng, split_stream};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Largest menu a broker posts. A `MENU` reply of this many points is
/// about 64 KiB, so a whole menu always fits one wire frame.
pub const MAX_PRICE_POINTS: usize = 4096;

/// Broker configuration, set through [`BrokerBuilder`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct BrokerConfig {
    /// Number of versions (price points) on the posted menu.
    pub n_price_points: usize,
    /// Monte-Carlo samples per δ when estimating buyer-facing error curves.
    pub error_curve_samples: usize,
    /// Seed for the broker's noise stream.
    pub seed: u64,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            n_price_points: 100,
            error_curve_samples: 200,
            seed: 0xB20CE2,
        }
    }
}

/// A buyer's purchase request (the three options of §3.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PurchaseRequest {
    /// Option 1: a specific point on the curve, by inverse NCP.
    AtInverseNcp(f64),
    /// Option 2: cheapest version whose expected error — in the broker's
    /// configured metric — is ≤ budget. Resolved through the snapshot's
    /// error curve and its inverse `φ` (Theorem 6).
    ErrorBudget(f64),
    /// Option 3: most accurate version with price ≤ budget.
    PriceBudget(f64),
}

/// A priced offer, resolved against one published [`MarketSnapshot`].
///
/// Returned by [`Broker::quote_request`] and redeemed by
/// [`Broker::commit`]. A quote pins the snapshot epoch it was priced
/// against: if the market is re-opened in between, commit rejects the stale
/// quote instead of silently charging a different price.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quote {
    /// Inverse NCP `x` of the quoted version.
    pub x: f64,
    /// Noise control parameter `δ = 1/x` of the quoted version.
    pub delta: f64,
    /// Posted price of the version.
    pub price: f64,
    /// Expected error of the version under the broker's configured metric,
    /// read off the snapshot's error curve (`= δ` for the square-loss
    /// default, Lemma 3).
    pub expected_error: f64,
    /// Name of the metric `expected_error` is denominated in.
    pub metric: &'static str,
    /// Epoch of the snapshot this quote was priced against.
    pub snapshot_epoch: u64,
}

/// One item of a commit ([`Broker::commit_batch_at`]): the `(x, epoch,
/// payment, nonce, buyer)` identity a `COMMIT` frame or one `BATCH_COMMIT`
/// item carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchCommitItem {
    /// The quoted inverse NCP.
    pub x: f64,
    /// Epoch of the snapshot the quote was priced against.
    pub snapshot_epoch: u64,
    /// Payment offered.
    pub payment: f64,
    /// Optional idempotency nonce (dedup key is `(snapshot_epoch, nonce)`).
    pub nonce: Option<u64>,
    /// Optional buyer identity; charged against the listing's noise budget.
    pub buyer: Option<u64>,
}

/// A commit that has passed validation and perturbation but has not yet
/// crossed the durability barrier: everything needed to journal it and,
/// once durable, record it on the ledger.
struct PreparedSale {
    record: SaleRecord,
    model: LinearModel,
    metric: &'static str,
}

/// A completed sale.
#[derive(Debug, Clone)]
pub struct Sale {
    /// The noisy model instance handed to the buyer.
    pub model: LinearModel,
    /// The version's inverse NCP.
    pub inverse_ncp: f64,
    /// Price charged.
    pub price: f64,
    /// Expected error of the instance under the broker's configured metric
    /// (`= δ` for the square-loss default, Lemma 3). Before the metric
    /// layer this field was named `expected_square_error`; it is now tagged
    /// by [`Sale::metric`] instead of being hard-wired to the square loss.
    pub expected_error: f64,
    /// Name of the metric `expected_error` is denominated in.
    pub metric: &'static str,
    /// The ledger entry.
    pub transaction: Transaction,
}

/// Immutable posted-market state, published atomically by
/// [`Broker::open_market`].
///
/// Everything a buyer-facing read needs — the revenue problem, the
/// optimized price table, the trained optimal model and the menu support —
/// lives here, so quoting and resolving never take a lock.
#[derive(Debug, Clone)]
pub struct MarketSnapshot {
    problem: RevenueProblem,
    pricing: PiecewiseLinearPricing,
    /// The broker's one `h*`, shared by every snapshot it publishes.
    optimal: Arc<LinearModel>,
    /// The metric's monotone error curve over the menu's δ grid — analytic
    /// for the square-loss default, Monte-Carlo estimated otherwise. Cached
    /// here so error-budget resolution (via `φ`) stays lock-free, and shared
    /// by every snapshot re-priced from it.
    curve: Arc<ErrorCurve>,
    metric_name: &'static str,
    expected_revenue: f64,
    epoch: u64,
    x_lo: f64,
    x_hi: f64,
}

impl MarketSnapshot {
    /// The revenue problem the posted prices were optimized for.
    pub fn problem(&self) -> &RevenueProblem {
        &self.problem
    }

    /// The posted piecewise-linear pricing function.
    pub fn pricing(&self) -> &PiecewiseLinearPricing {
        &self.pricing
    }

    /// The trained optimal model `h*_λ(D)` instances are perturbed from.
    pub fn optimal(&self) -> &LinearModel {
        &self.optimal
    }

    /// The cached error curve `δ ↦ E[ε(h^δ, D)]` of the broker's metric.
    pub fn error_curve(&self) -> &ErrorCurve {
        &self.curve
    }

    /// Name of the metric all expected errors are denominated in.
    pub fn metric_name(&self) -> &'static str {
        self.metric_name
    }

    /// Expected revenue of the posted prices under the demand model.
    pub fn expected_revenue(&self) -> f64 {
        self.expected_revenue
    }

    /// Monotone publication counter: 1 for the first `open_market()`, +1
    /// for each re-opening.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The menu's inverse-NCP support `[x_lo, x_hi]`.
    pub fn support(&self) -> (f64, f64) {
        (self.x_lo, self.x_hi)
    }

    /// The posted `(inverse NCP, price)` menu.
    pub fn menu(&self) -> Vec<(f64, f64)> {
        self.pricing.menu()
    }

    /// Price at an arbitrary inverse NCP.
    pub fn price_at(&self, x: f64) -> Result<f64> {
        Ok(self.pricing.price(InverseNcp::new(x)?))
    }

    /// Resolves a purchase request to `(inverse NCP, price)` without
    /// buying. Pure snapshot arithmetic — no locks, no side effects.
    pub fn resolve(&self, request: PurchaseRequest) -> Result<(f64, f64)> {
        match request {
            PurchaseRequest::AtInverseNcp(x) => {
                if !(x > 0.0 && x.is_finite()) {
                    return Err(nimbus_core::CoreError::InvalidNcp { value: x }.into());
                }
                Ok((x, self.price_at(x)?))
            }
            PurchaseRequest::ErrorBudget(e) => {
                if !(e > 0.0 && e.is_finite()) {
                    return Err(nimbus_core::CoreError::BudgetUnsatisfiable {
                        kind: "error",
                        budget: e,
                    }
                    .into());
                }
                // The cheapest feasible version is the noisiest whose
                // expected error still meets the budget: δ = φ(e), with φ
                // the inverse of the snapshot's error curve (Theorem 6).
                // For the square-loss default the curve is the Lemma 3
                // identity and this reduces to x = 1/e exactly.
                let pts = self.curve.points();
                #[expect(
                    clippy::indexing_slicing,
                    reason = "config validation enforces ≥ 2 curve points"
                )]
                let loosest_error = pts[pts.len() - 1].smoothed_error;
                let x = if e >= loosest_error {
                    // Looser than anything on the menu: clamp to the floor.
                    self.x_lo
                } else {
                    // Errors below the curve's range surface here as
                    // BudgetUnsatisfiable — tighter than the best version.
                    let ncp = self.curve.error_inverse(e)?;
                    (1.0 / ncp.delta()).clamp(self.x_lo, self.x_hi)
                };
                Ok((x, self.price_at(x)?))
            }
            PurchaseRequest::PriceBudget(budget) => {
                if !(budget >= 0.0 && budget.is_finite()) {
                    return Err(nimbus_core::CoreError::BudgetUnsatisfiable {
                        kind: "price",
                        budget,
                    }
                    .into());
                }
                if self.price_at(self.x_lo)? > budget {
                    return Err(nimbus_core::CoreError::BudgetUnsatisfiable {
                        kind: "price",
                        budget,
                    }
                    .into());
                }
                // Most accurate affordable version: binary search on the
                // monotone posted curve.
                let mut lo = self.x_lo;
                let mut hi = self.x_hi;
                if self.price_at(hi)? <= budget {
                    return Ok((hi, self.price_at(hi)?));
                }
                for _ in 0..96 {
                    let mid = 0.5 * (lo + hi);
                    if self.price_at(mid)? <= budget {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                Ok((lo, self.price_at(lo)?))
            }
        }
    }

    /// Resolves a purchase request to a committable [`Quote`]. The quote's
    /// expected error is read off the snapshot's cached error curve for the
    /// broker's metric.
    pub fn quote(&self, request: PurchaseRequest) -> Result<Quote> {
        let (x, price) = self.resolve(request)?;
        let ncp = InverseNcp::new(x)?.ncp();
        Ok(Quote {
            x,
            delta: ncp.delta(),
            price,
            expected_error: self.curve.expected_error_at(ncp),
            metric: self.metric_name,
            snapshot_epoch: self.epoch,
        })
    }
}

/// Validating builder for [`Broker`].
///
/// Configuration is checked once at [`BrokerBuilder::build`]
/// (`n_price_points` in `2..=`[`MAX_PRICE_POINTS`],
/// `error_curve_samples ≥ 1`, commission in `[0, 1)`) instead of surfacing
/// as panics or optimizer errors mid-session. Trainer and mechanism default
/// to ridge regression and the Gaussian mechanism — the paper's square-loss
/// instantiation.
///
/// ```no_run
/// # use nimbus_market::{Broker, Seller};
/// # fn doc(seller: Seller) -> nimbus_market::Result<()> {
/// let broker = Broker::builder(seller)
///     .n_price_points(100)
///     .commission(0.05)
///     .seed(42)
///     .build()?;
/// # Ok(()) }
/// ```
pub struct BrokerBuilder {
    seller: Seller,
    trainer: Box<dyn Trainer + Send + Sync>,
    mechanism: Box<dyn RandomizedMechanism + Send + Sync>,
    metric: Option<Box<dyn ErrorMetric>>,
    config: BrokerConfig,
    commission: f64,
    pub(crate) journal_path: Option<PathBuf>,
    journal_faults: FaultPlan,
    journal_group_commit_window: Duration,
    buyer_budget: Option<f64>,
}

impl BrokerBuilder {
    /// Starts a builder for a seller's listing with default trainer
    /// (ridge regression), mechanism (Gaussian), metric (square-loss
    /// distance), 100 price points, 200 error-curve samples per δ and a
    /// fixed seed.
    pub fn new(seller: Seller) -> Self {
        BrokerBuilder {
            seller,
            trainer: Box::new(LinearRegressionTrainer::ridge(1e-6)),
            mechanism: Box::new(GaussianMechanism),
            metric: None,
            config: BrokerConfig::default(),
            commission: 0.0,
            journal_path: None,
            journal_faults: FaultPlan::new(),
            journal_group_commit_window: Duration::ZERO,
            buyer_budget: None,
        }
    }

    /// Caps each buyer's cumulative noise-precision spend `Σ x` on this
    /// listing (validated finite and positive at build). Commits that carry
    /// a buyer identity are charged against the cap *before* the durability
    /// barrier; over-budget commits fail with
    /// [`MarketError::BudgetExhausted`] and journal nothing. Without a cap
    /// (the default) accounts still accumulate but never reject.
    pub fn buyer_budget(mut self, budget: f64) -> Self {
        self.buyer_budget = Some(budget);
        self
    }

    /// Journals every committed sale to the append-only write-ahead log at
    /// `path`, fsynced before the sale is acknowledged; the log is never
    /// rewritten. On [`BrokerBuilder::build`] an existing journal is
    /// replayed: the ledger, the monotone transaction-id sequence
    /// and the idempotency table are restored, and epochs of snapshots
    /// published by [`Broker::open_market`] continue above the highest
    /// journaled epoch. A tail torn by a crash is salvaged; corruption
    /// anywhere else fails the build and leaves the file untouched.
    pub fn journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal_path = Some(path.into());
        self
    }

    /// Routes every journal write through an injected [`FaultPlan`] —
    /// the hook behind the crash/recovery tests.
    pub fn journal_faults(mut self, plan: FaultPlan) -> Self {
        self.journal_faults = plan;
        self
    }

    /// Upper bound on the group-commit gathering wait (clamped to
    /// [`crate::journal::MAX_GROUP_COMMIT_WINDOW`], 500µs). A flush leader
    /// waits only while a concurrent commit has announced a record it has
    /// not enqueued yet, and at most this long, so a lone commit never
    /// waits. `Duration::ZERO` (the default) never gathers; commits still
    /// coalesce behind an in-flight fsync either way.
    pub fn journal_group_commit_window(mut self, window: Duration) -> Self {
        self.journal_group_commit_window = window;
        self
    }

    /// Sets the trainer.
    pub fn trainer(mut self, trainer: impl Trainer + Send + Sync + 'static) -> Self {
        self.trainer = Box::new(trainer);
        self
    }

    /// Sets an already-boxed trainer (for dynamic selection).
    pub fn boxed_trainer(mut self, trainer: Box<dyn Trainer + Send + Sync>) -> Self {
        self.trainer = trainer;
        self
    }

    /// Sets the randomized mechanism.
    pub fn mechanism(
        mut self,
        mechanism: impl RandomizedMechanism + Send + Sync + 'static,
    ) -> Self {
        self.mechanism = Box::new(mechanism);
        self
    }

    /// Sets the buyer-facing error metric the market is denominated in.
    ///
    /// The default (square-loss distance to the optimum) prices off the
    /// exact Lemma 3 curve. Any other metric makes `open_market()` estimate
    /// the metric's error curve by deterministic parallel Monte Carlo and
    /// resolve error budgets through its inverse `φ` (Theorem 6).
    pub fn error_metric(mut self, metric: impl ErrorMetric + 'static) -> Self {
        self.metric = Some(Box::new(metric));
        self
    }

    /// Sets an already-boxed error metric (for dynamic selection).
    pub fn boxed_error_metric(mut self, metric: Box<dyn ErrorMetric>) -> Self {
        self.metric = Some(metric);
        self
    }

    /// Sets the number of menu price points (validated in
    /// `2..=`[`MAX_PRICE_POINTS`] at build).
    pub fn n_price_points(mut self, n: usize) -> Self {
        self.config.n_price_points = n;
        self
    }

    /// Sets the Monte-Carlo samples per δ for error-curve estimation
    /// (validated `≥ 1` at build).
    pub fn error_curve_samples(mut self, n: usize) -> Self {
        self.config.error_curve_samples = n;
        self
    }

    /// Sets the seed of the broker's deterministic noise streams.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the commission rate (validated in `[0, 1)` at build).
    pub fn commission(mut self, rate: f64) -> Self {
        self.commission = rate;
        self
    }

    /// Validates the configuration, trains the optimal model and
    /// constructs the broker. Training runs before the journal is opened,
    /// so a failing trainer leaves no file behind.
    pub fn build(self) -> Result<Broker> {
        if !(2..=MAX_PRICE_POINTS).contains(&self.config.n_price_points) {
            return Err(MarketError::InvalidConfig {
                reason: format!(
                    "n_price_points must be in 2..={MAX_PRICE_POINTS}, got {}",
                    self.config.n_price_points
                ),
            });
        }
        if self.config.error_curve_samples < 1 {
            return Err(MarketError::InvalidConfig {
                reason: "error_curve_samples must be at least 1".to_string(),
            });
        }
        if !(self.commission.is_finite() && (0.0..1.0).contains(&self.commission)) {
            return Err(MarketError::InvalidConfig {
                reason: format!("commission rate must be in [0, 1), got {}", self.commission),
            });
        }
        if let Some(budget) = self.buyer_budget {
            if !(budget.is_finite() && budget > 0.0) {
                return Err(MarketError::InvalidConfig {
                    reason: format!("buyer budget must be finite and positive, got {budget}"),
                });
            }
        }
        // Serving needs h*, the curves and the books, never `D`: free it as
        // soon as h* is trained, and hand its pages back to the OS, since
        // the allocator may keep a freed block resident in its heap.
        let Seller { dataset, terms } = self.seller;
        let optimal = Arc::new(self.trainer.train(&dataset.train)?);
        dataset.train.release();
        dataset.test.release();
        let mut ledger = Ledger::default();
        let mut dedup = BTreeMap::new();
        let accounts = BuyerAccounts::new(self.buyer_budget);
        let mut journal = None;
        let mut recovery = None;
        if let Some(path) = self.journal_path {
            // Move the replay into the books: its id-ordered sales become
            // the ledger, its key → id map the idempotency table (the scan
            // holds every key to a replayed sale), and buyer spend goes
            // into the accounts.
            let (j, rec) = Journal::open(path, 0, self.journal_faults)?;
            let revenue = rec.total_revenue();
            let sales = rec.transactions.len();
            ledger = Ledger::from_sorted(rec.transactions);
            dedup = rec.dedup;
            accounts.seed(&rec.accounts);
            journal = Some(GroupCommit::new(j, self.journal_group_commit_window));
            recovery = Some(RecoverySummary {
                sales,
                revenue,
                next_tx_id: rec.next_tx_id,
                max_epoch: rec.max_epoch,
                valid_bytes: rec.valid_bytes,
                truncated: rec.truncated,
            });
        }
        Ok(Broker {
            terms,
            mechanism: self.mechanism,
            metric: self.metric,
            config: self.config,
            commission: self.commission,
            optimal,
            current: Mutex::new(None),
            ledger: Mutex::new(ledger),
            tx_counter: AtomicU64::new(recovery.as_ref().map_or(0, |r| r.next_tx_id)),
            journal,
            dedup: DedupTable::with(dedup),
            accounts,
            recovery,
        })
    }
}

/// What a broker keeps of the [`Recovery`](crate::Recovery) its journal
/// replayed at build, once the books in it have moved onto the ledger,
/// the idempotency table and the buyer accounts.
#[derive(Debug)]
pub struct RecoverySummary {
    /// Replayed sales.
    pub sales: usize,
    /// Revenue across the replayed sales, folded in id order.
    pub revenue: f64,
    /// The first transaction id handed out after the replay.
    pub next_tx_id: u64,
    /// The highest snapshot epoch any replayed sale committed against.
    pub max_epoch: u64,
    /// Length of the journal's valid prefix, in bytes.
    pub valid_bytes: u64,
    /// The typed error that ended the scan, if a crash left a bad tail.
    pub truncated: Option<JournalError>,
}

/// Idempotency table `(quote epoch, client nonce) → transaction id`: a
/// retry finds its sale's ledger row by that id.
///
/// A keyed commit *claims* its key before the durability barrier and
/// *resolves* it afterwards, so the table is never locked across a journal
/// fsync: concurrent keyed commits coalesce inside the group-commit
/// batcher instead of serializing behind one another's fsyncs. A retry of
/// a key that is still in flight parks on the condvar until the first
/// attempt resolves, then replays its sale (or, if the first attempt
/// failed, claims the key itself).
#[derive(Debug, Default)]
struct DedupTable {
    state: std::sync::Mutex<DedupState>,
    resolved: std::sync::Condvar,
}

#[derive(Debug, Default)]
struct DedupState {
    committed: BTreeMap<(u64, u64), u64>,
    in_flight: BTreeSet<(u64, u64)>,
}

impl DedupTable {
    fn with(committed: BTreeMap<(u64, u64), u64>) -> Self {
        DedupTable {
            state: std::sync::Mutex::new(DedupState {
                committed,
                in_flight: BTreeSet::new(),
            }),
            resolved: std::sync::Condvar::new(),
        }
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, DedupState> {
        // A poisoning panic can only come from a peer committer; both maps
        // are plain value stores and stay coherent, so recover the guard.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Waits out any in-flight commit of `key`, then either returns the
    /// id of the committed transaction to replay or, with `None`, hands
    /// the key to the caller, who must [`DedupTable::resolve`] it.
    fn claim(&self, key: (u64, u64)) -> Option<u64> {
        let mut state = self.lock_state();
        loop {
            if let Some(&tx_id) = state.committed.get(&key) {
                return Some(tx_id);
            }
            if state.in_flight.insert(key) {
                return None;
            }
            state = self.resolved.wait(state).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Releases a claimed key, recording its transaction id on success
    /// and waking every retry parked on it.
    fn resolve(&self, key: (u64, u64), tx_id: Option<u64>) {
        let mut state = self.lock_state();
        state.in_flight.remove(&key);
        if let Some(tx_id) = tx_id {
            state.committed.insert(key, tx_id);
        }
        drop(state);
        self.resolved.notify_all();
    }
}

/// The broker.
pub struct Broker {
    terms: SellerTerms,
    mechanism: Box<dyn RandomizedMechanism + Send + Sync>,
    /// The buyer-facing metric the market is denominated in; `None` means
    /// the square-loss default with its analytic Lemma 3 curve.
    metric: Option<Box<dyn ErrorMetric>>,
    config: BrokerConfig,
    /// The broker's commission rate in [0, 1) — Figure 1(B): the broker
    /// "gets a cut from the seller for each sale".
    commission: f64,
    /// The optimal model `h*_λ(D)`, trained once at build.
    optimal: Arc<LinearModel>,
    /// The currently published snapshot (`None` before `open_market`).
    /// Held only to clone the `Arc` out or to swap a new one in.
    current: Mutex<Option<Arc<MarketSnapshot>>>,
    /// Every recorded sale, in transaction-id order.
    ledger: Mutex<Ledger>,
    /// Globally unique transaction ids, also the label of each sale's
    /// private RNG stream.
    tx_counter: AtomicU64,
    /// Optional write-ahead journal behind the group-commit batcher; when
    /// present, every sale is appended and fsynced *before* the commit
    /// returns (the ACK barrier). Concurrent commits share one fsync.
    journal: Option<GroupCommit>,
    /// Idempotency claims and commitments (see [`DedupTable`]). Keyed
    /// commits claim before and resolve after the durability barrier, so
    /// they share group-commit fsyncs; plain commits never touch it.
    dedup: DedupTable,
    /// Per-buyer cumulative noise-budget accounts, charged in
    /// [`Broker::prepare_commit`] — before the durability barrier — and
    /// refunded if the journal append fails. Seeded from journal recovery.
    accounts: BuyerAccounts,
    /// What the journal replayed at build time (`None` without a journal).
    recovery: Option<RecoverySummary>,
}

impl Broker {
    /// Starts a validating [`BrokerBuilder`] for a seller's listing.
    pub fn builder(seller: Seller) -> BrokerBuilder {
        BrokerBuilder::new(seller)
    }

    /// The seller's name and market research: all the broker keeps of the
    /// [`Seller`] once `h*` is trained.
    pub fn terms(&self) -> &SellerTerms {
        &self.terms
    }

    /// The commission rate.
    pub fn commission(&self) -> f64 {
        self.commission
    }

    /// The broker's cut of the revenue collected so far.
    pub fn broker_cut(&self) -> f64 {
        self.collected_revenue() * self.commission
    }

    /// The seller's proceeds from the revenue collected so far.
    pub fn seller_proceeds(&self) -> f64 {
        self.collected_revenue() * (1.0 - self.commission)
    }

    /// The optimal model `h*_λ(D)`, trained once at build.
    pub fn optimal_model(&self) -> &LinearModel {
        &self.optimal
    }

    /// The menu's δ grid: the reciprocals of an `n`-point uniform inverse-NCP
    /// grid over the seller's `[x_lo, x_hi]` support.
    fn menu_deltas(&self) -> Result<Vec<Ncp>> {
        let curves = &self.terms.curves;
        let n = self.config.n_price_points;
        (0..n)
            .map(|i| {
                let t = if n == 1 {
                    0.5
                } else {
                    i as f64 / (n - 1) as f64
                };
                let x = curves.x_lo + (curves.x_hi - curves.x_lo) * t;
                Ok(InverseNcp::new(x)?.ncp())
            })
            .collect()
    }

    /// Opens the market: builds the metric's error curve and the revenue
    /// problem, optimizes prices with the Algorithm 1 DP, re-verifies
    /// arbitrage-freeness of the posted table after the φ map, and
    /// publishes the resulting immutable [`MarketSnapshot`]. Returns the
    /// expected revenue.
    ///
    /// For the square-loss default the error curve is the analytic Lemma 3
    /// identity and the market research is sampled directly on the
    /// inverse-NCP grid. With [`BrokerBuilder::error_metric`] set, the
    /// curve is Monte-Carlo estimated (deterministically, in parallel) and
    /// the research curves are transformed through it via
    /// [`RevenueProblem::on_phi_grid`].
    ///
    /// Re-opening publishes a fresh snapshot with the next epoch;
    /// outstanding quotes against the old epoch are rejected at commit.
    pub fn open_market(&self) -> Result<f64> {
        let curves = self.terms.curves;
        let (problem, curve, metric_name) = match self.metric.as_deref() {
            None => {
                let problem = curves.build_problem(self.config.n_price_points)?;
                let deltas: Vec<Ncp> = problem
                    .parameters()
                    .iter()
                    .map(|&x| Ok(InverseNcp::new(x)?.ncp()))
                    .collect::<Result<Vec<_>>>()?;
                let curve = ErrorCurve::analytic_square_loss(&deltas)?;
                (problem, curve, "square")
            }
            Some(metric) => {
                let deltas = self.menu_deltas()?;
                let provider = CurveProvider::new(
                    self.config.error_curve_samples,
                    split_stream(self.config.seed, u64::MAX),
                );
                let curve =
                    provider.curve_for(metric, self.mechanism.as_ref(), &self.optimal, &deltas)?;
                // Market research speaks in normalized quality t ∈ [0, 1];
                // map the metric's observed error range onto it (t = 1 at
                // the lowest error) before transforming onto the φ grid.
                let pts = curve.points();
                #[expect(
                    clippy::indexing_slicing,
                    reason = "provider returns ≥ 1 sampled point"
                )]
                let (e_lo, e_hi) = (pts[0].smoothed_error, pts[pts.len() - 1].smoothed_error);
                let range = e_hi - e_lo;
                let t_of = move |e: f64| {
                    if range > 0.0 {
                        (e_hi - e) / range
                    } else {
                        0.5
                    }
                };
                let (value, demand) = (curves.value, curves.demand);
                let problem = RevenueProblem::on_phi_grid(
                    &curve,
                    move |e| value.value_at(t_of(e)),
                    move |e| demand.mass_at(t_of(e)),
                )?;
                (problem, curve, metric.name())
            }
        };
        self.publish(problem, Arc::new(curve), metric_name)
    }

    /// Re-publishes the market from a caller-supplied revenue problem —
    /// typically one whose demand masses and valuations were *observed*
    /// (empirical demand from live traffic) rather than taken from the
    /// seller's market research. Requires an open market: the optimal
    /// model, error curve, and metric name of the current snapshot are
    /// carried over unchanged; only the problem, the DP-optimized price
    /// table, and the epoch are new.
    ///
    /// Prices are always re-derived through the Algorithm 1 DP and
    /// certified over the knots of the new table — a caller cannot
    /// publish a table that admits arbitrage at any `x`.
    ///
    /// Publishing bumps the epoch exactly like [`Broker::open_market`]:
    /// every outstanding quote dies with [`MarketError::QuoteExpired`]
    /// at commit time. Returns the expected revenue of the new table
    /// under the supplied demand.
    pub fn republish_with_problem(&self, problem: RevenueProblem) -> Result<f64> {
        if problem.len() > MAX_PRICE_POINTS {
            return Err(MarketError::InvalidConfig {
                reason: format!(
                    "a menu of {} points exceeds the cap of {MAX_PRICE_POINTS}",
                    problem.len()
                ),
            });
        }
        let current = self.published()?;
        self.publish(problem, Arc::clone(&current.curve), current.metric_name)
    }

    /// Prices `problem` with the Algorithm 1 DP and publishes the table if
    /// its own knots pass the exact arbitrage certificate
    /// ([`certify_menu`]); returns its expected revenue.
    fn publish(
        &self,
        problem: RevenueProblem,
        curve: Arc<ErrorCurve>,
        metric_name: &'static str,
    ) -> Result<f64> {
        let solution = solve_revenue_dp(&problem)?;
        let pricing = PiecewiseLinearPricing::new(
            problem
                .parameters()
                .into_iter()
                .zip(solution.prices)
                .collect(),
        )?;
        certify_menu(pricing.breakpoints(), pricing.values()).map_err(|_| {
            MarketError::InvalidCurve {
                reason: "posted price table failed the arbitrage certificate",
            }
        })?;
        let (x_lo, x_hi) = pricing.support();
        self.install_snapshot(MarketSnapshot {
            problem,
            pricing,
            optimal: Arc::clone(&self.optimal),
            curve,
            metric_name,
            expected_revenue: solution.revenue,
            epoch: 0,
            x_lo,
            x_hi,
        });
        Ok(solution.revenue)
    }

    /// Stamps `snapshot` with the next epoch — one above the live
    /// snapshot's, or above the highest replayed epoch before the first
    /// publish, so no pre-crash quote commits against a rebuilt snapshot —
    /// and swaps it in. The superseded snapshot drops with its last reader.
    fn install_snapshot(&self, mut snapshot: MarketSnapshot) {
        let replayed = self.recovery.as_ref().map_or(0, |r| r.max_epoch);
        let mut current = self.current.lock();
        snapshot.epoch = current.as_ref().map_or(replayed, |s| s.epoch) + 1;
        let superseded = current.replace(Arc::new(snapshot));
        drop(current);
        drop(superseded);
    }

    /// The currently published snapshot (`None` before `open_market`).
    /// Locks only to clone the `Arc`; the caller's reference stays valid
    /// however many re-publishes follow.
    pub fn snapshot(&self) -> Option<Arc<MarketSnapshot>> {
        self.current.lock().clone()
    }

    fn published(&self) -> Result<Arc<MarketSnapshot>> {
        self.snapshot().ok_or(MarketError::MarketNotOpen)
    }

    /// Whether [`Broker::open_market`] has been called.
    pub fn is_open(&self) -> bool {
        self.snapshot().is_some()
    }

    /// The posted `(inverse NCP, price)` menu.
    pub fn posted_menu(&self) -> Result<Vec<(f64, f64)>> {
        Ok(self.published()?.menu())
    }

    /// Expected revenue of the posted prices under the market-research
    /// demand model.
    pub fn expected_revenue(&self) -> Result<f64> {
        Ok(self.published()?.expected_revenue())
    }

    /// Price quote at an arbitrary inverse NCP.
    ///
    /// Routes through the same [`MarketSnapshot::quote`] path as
    /// [`Broker::quote_request`] — `quote(x)` is exactly
    /// `quote_request(PurchaseRequest::AtInverseNcp(x))` reduced to the
    /// price, so the two can never disagree on validation or rounding.
    pub fn quote(&self, x: f64) -> Result<f64> {
        Ok(self.quote_request(PurchaseRequest::AtInverseNcp(x))?.price)
    }

    /// Resolves a purchase request to a committable [`Quote`] against the
    /// current snapshot; no side effects. The single internal
    /// quoting path: [`Broker::quote`] and the network serving layer both
    /// funnel through here.
    pub fn quote_request(&self, request: PurchaseRequest) -> Result<Quote> {
        self.published()?.quote(request)
    }

    /// Redeems a [`Quote`]: checks the payment against the (re-derived)
    /// posted price, perturbs the optimal model on the transaction's
    /// private RNG stream and records the sale on the ledger.
    ///
    /// The quote must carry the epoch of the currently published snapshot;
    /// a quote issued before a re-`open_market()` fails with
    /// [`MarketError::QuoteExpired`]. Only the quote's `(x, epoch)`
    /// identity is used: the price is re-derived from the snapshot rather
    /// than trusted from the quote, so a tampered quote cannot underpay.
    /// A batch of one through [`Broker::commit_batch_at`].
    pub fn commit(&self, quote: Quote, payment: f64) -> Result<Sale> {
        self.commit_one(BatchCommitItem {
            x: quote.x,
            snapshot_epoch: quote.snapshot_epoch,
            payment,
            nonce: None,
            buyer: None,
        })
    }

    /// A keyed, optionally buyer-attributed commit by `(x, epoch)`
    /// identity — a batch of one through [`Broker::commit_batch_at`].
    ///
    /// A repeat of `(snapshot_epoch, nonce)` returns the *original* sale
    /// (same transaction id, price and bitwise-identical model) without
    /// charging money or noise budget again, including across restarts
    /// and after a re-`open_market()`.
    pub fn commit_at_idempotent_for(
        &self,
        x: f64,
        snapshot_epoch: u64,
        payment: f64,
        nonce: u64,
        buyer: Option<u64>,
    ) -> Result<Sale> {
        self.commit_one(BatchCommitItem {
            x,
            snapshot_epoch,
            payment,
            nonce: Some(nonce),
            buyer,
        })
    }

    fn commit_one(&self, item: BatchCommitItem) -> Result<Sale> {
        self.commit_batch_at(&[item])
            .pop()
            .unwrap_or(Err(MarketError::InvalidConfig {
                reason: "batch commit slot left unresolved".to_string(),
            }))
    }

    /// Everything a commit does *before* the durability barrier: payment
    /// validation, epoch check, price re-derivation from the snapshot,
    /// the buyer's noise-budget charge, transaction-id allocation and the
    /// deterministic model perturbation. No side effects beyond burning a
    /// transaction id and holding the budget charge (refunded if the
    /// journal append fails) — nothing is recorded until
    /// [`Broker::record_prepared`] runs after the journal append (if any)
    /// succeeded. An over-budget commit fails here, so it never reaches
    /// the journal.
    fn prepare_commit(
        &self,
        x: f64,
        snapshot_epoch: u64,
        payment: f64,
        nonce: Option<u64>,
        buyer: Option<u64>,
    ) -> Result<PreparedSale> {
        if !(payment.is_finite() && payment >= 0.0) {
            return Err(MarketError::InvalidPayment { offered: payment });
        }
        let snapshot = self.published()?;
        if snapshot_epoch != snapshot.epoch() {
            return Err(MarketError::QuoteExpired {
                quoted: snapshot_epoch,
                current: snapshot.epoch(),
            });
        }
        let price = snapshot.price_at(x)?;
        if payment + 1e-12 < price {
            return Err(MarketError::InsufficientPayment {
                price,
                offered: payment,
            });
        }
        let ncp = InverseNcp::new(x)?.ncp();
        // Budget charge — the last admission gate before any irreversible
        // step. Atomic check-and-charge, so racing commits of one buyer
        // cannot jointly overdraw; refunded below if perturbation fails.
        if let Some(buyer) = buyer {
            self.accounts.charge(buyer, x)?;
        }
        let tx_id = self.tx_counter.fetch_add(1, Ordering::Relaxed);
        // The sale's noise depends only on (seed, tx id, x): reproducible
        // under any thread interleaving, contention-free across threads.
        let mut rng = seeded_rng(split_stream(self.config.seed, tx_id));
        let model = match self.mechanism.perturb(snapshot.optimal(), ncp, &mut rng) {
            Ok(model) => model,
            Err(e) => {
                if let Some(buyer) = buyer {
                    self.accounts.refund(buyer, x);
                }
                return Err(e.into());
            }
        };
        let expected_error = snapshot.error_curve().expected_error_at(ncp);
        Ok(PreparedSale {
            record: SaleRecord {
                transaction: Transaction {
                    sequence: tx_id,
                    inverse_ncp: x,
                    price,
                    expected_error,
                },
                snapshot_epoch: snapshot.epoch(),
                nonce,
                buyer,
            },
            model,
            metric: snapshot.metric_name(),
        })
    }

    /// The post-durability half of a commit: records the sale on the
    /// ledger and assembles the buyer-facing [`Sale`].
    fn record_prepared(&self, prepared: PreparedSale) -> Sale {
        let t = prepared.record.transaction;
        self.ledger.lock().record_assigned(t);
        Sale {
            model: prepared.model,
            inverse_ncp: t.inverse_ncp,
            price: t.price,
            expected_error: t.expected_error,
            metric: prepared.metric,
            transaction: t,
        }
    }

    /// The broker's one commit path: redeems many `(x, epoch, payment,
    /// nonce, buyer)` items in one call and returns one result per item,
    /// in order. A single commit — in process or the wire's `COMMIT` — is
    /// a batch of one; `BATCH_COMMIT` is a batch of up to 256.
    ///
    /// Each item is validated and prepared independently (payment, epoch
    /// check, price re-derivation, budget charge, noise draw), so a stale
    /// epoch or a bad payment fails just its own slot. All admitted
    /// records are journaled as **one** group-commit enqueue — one fsync
    /// covers the batch (shared with any concurrent committers), and no
    /// item is recorded or acknowledged before that fsync. A slot whose
    /// append fails is refunded its budget charge and recorded nowhere.
    ///
    /// An item carrying a nonce is idempotent under the key `(epoch,
    /// nonce)`: a repeat returns the *original* sale — same transaction
    /// id, price and bitwise-identical model (sale noise is a pure function
    /// of `(seed, transaction id, x)`) — without charging money or budget
    /// again. The dedup table is replayed from the journal, so a retry
    /// that lands on a recovered broker still dedups, and the lookup runs
    /// *before* the epoch check, so a retry of a sale that committed just
    /// before a re-`open_market()` replays instead of failing
    /// `QuoteExpired`. Keys are claimed up front (in key order, so
    /// overlapping batches never deadlock) and resolved after the flush;
    /// the dedup table is never held across the fsync, and only a retry
    /// of the *same* key parks until the first attempt resolves. A key
    /// repeated *within* one batch fails its later slots: the same nonce
    /// twice in one frame is a malformed request, not a retry.
    pub fn commit_batch_at(&self, items: &[BatchCommitItem]) -> Vec<Result<Sale>> {
        // Claim every distinct idempotency key in sorted order: two
        // overlapping keyed batches then always park on each other in the
        // same global order, so neither can hold a key the other claimed
        // first while waiting on one it claimed later.
        let mut keys: Vec<(u64, u64)> = items
            .iter()
            .filter_map(|i| i.nonce.map(|n| (i.snapshot_epoch, n)))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let claims: BTreeMap<(u64, u64), Option<u64>> = keys
            .into_iter()
            .map(|key| (key, self.dedup.claim(key)))
            .collect();
        // Announce to the group-commit batcher only once every claim is
        // held: a flush leader then waits for this batch's records, but
        // never for a retry still parked on a key above.
        let announced = self.journal.as_ref().map(GroupCommit::announce);
        let mut seen: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut results: Vec<Option<Result<Sale>>> = Vec::with_capacity(items.len());
        let mut prepared: Vec<(usize, PreparedSale)> = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let key = item.nonce.map(|n| (item.snapshot_epoch, n));
            if let Some(key) = key {
                if !seen.insert(key) {
                    results.push(Some(Err(MarketError::InvalidConfig {
                        reason: "duplicate idempotency nonce within one batch".to_string(),
                    })));
                    continue;
                }
                if let Some(&Some(tx_id)) = claims.get(&key) {
                    results.push(Some(self.replay_sale(tx_id)));
                    continue;
                }
            }
            match self.prepare_commit(
                item.x,
                item.snapshot_epoch,
                item.payment,
                item.nonce,
                item.buyer,
            ) {
                Ok(p) => {
                    prepared.push((i, p));
                    results.push(None);
                }
                Err(e) => {
                    // This slot owned its claim; release it unfulfilled.
                    if let Some(key) = key {
                        self.dedup.resolve(key, None);
                    }
                    results.push(Some(Err(e)));
                }
            }
        }
        let journaled: Vec<std::result::Result<(), crate::journal::JournalError>> = match announced
        {
            Some(journal) => journal.append_sales(prepared.iter().map(|(_, p)| p.record).collect()),
            None => prepared.iter().map(|_| Ok(())).collect(),
        };
        for ((slot, p), journal_result) in prepared.into_iter().zip(journaled) {
            let key = p.record.nonce.map(|n| (p.record.snapshot_epoch, n));
            let outcome = match journal_result {
                Ok(()) => {
                    // Record before resolving so a parked retry that wakes
                    // on this key finds the sale already in the books.
                    let sale = self.record_prepared(p);
                    if let Some(key) = key {
                        self.dedup.resolve(key, Some(sale.transaction.sequence));
                    }
                    Ok(sale)
                }
                Err(e) => {
                    if let Some(key) = key {
                        self.dedup.resolve(key, None);
                    }
                    // The slot's sale never became durable: refund its
                    // budget charge.
                    if let Some(buyer) = p.record.buyer {
                        self.accounts
                            .refund(buyer, p.record.transaction.inverse_ncp);
                    }
                    Err(e.into())
                }
            };
            if let Some(entry) = results.get_mut(slot) {
                *entry = Some(outcome);
            }
        }
        results
            .into_iter()
            .map(|r| {
                r.unwrap_or(Err(MarketError::InvalidConfig {
                    reason: "batch commit slot left unresolved".to_string(),
                }))
            })
            .collect()
    }

    /// Reconstructs the exact [`Sale`] of an already-recorded transaction
    /// from its ledger row: the noisy model is re-derived from the
    /// transaction's private RNG stream, which depends only on `(seed,
    /// transaction id, x)` — identical across threads, re-opens and
    /// restarts (training is deterministic).
    fn replay_sale(&self, tx_id: u64) -> Result<Sale> {
        // A key resolves only after its sale is recorded, so the row is
        // there; the guard drops at the end of this statement.
        let transaction =
            self.ledger
                .lock()
                .get(tx_id)
                .copied()
                .ok_or_else(|| MarketError::InvalidConfig {
                    reason: format!("idempotency table points at unknown transaction {tx_id}"),
                })?;
        let snapshot = self.published()?;
        let ncp = InverseNcp::new(transaction.inverse_ncp)?.ncp();
        let mut rng = seeded_rng(split_stream(self.config.seed, transaction.sequence));
        let model = self.mechanism.perturb(snapshot.optimal(), ncp, &mut rng)?;
        Ok(Sale {
            model,
            inverse_ncp: transaction.inverse_ncp,
            price: transaction.price,
            expected_error: transaction.expected_error,
            metric: snapshot.metric_name(),
            transaction,
        })
    }

    /// A summary of what the journal replayed when this broker was built
    /// (`None` without a journal; zero sales for a fresh journal). The
    /// replayed sales themselves live on the ledger, their keys in the
    /// idempotency table.
    pub fn recovery(&self) -> Option<&RecoverySummary> {
        self.recovery.as_ref()
    }

    /// Builds the buyer-facing price–error curve for an arbitrary error
    /// function `ε`, Monte-Carlo estimated with the broker's mechanism.
    ///
    /// Estimation fans out over scoped threads with per-δ RNG streams
    /// derived from the broker's seed, so the curve is deterministic for a
    /// given configuration and independent of thread scheduling.
    pub fn price_error_curve<F>(&self, evaluate: F) -> Result<PriceErrorCurve>
    where
        F: Fn(&LinearModel) -> nimbus_core::Result<f64> + Sync,
    {
        let snapshot = self.published()?;
        let deltas: Vec<Ncp> = snapshot
            .problem()
            .parameters()
            .iter()
            .map(|&x| Ok(InverseNcp::new(x)?.ncp()))
            .collect::<Result<Vec<_>>>()?;
        let curve = ErrorCurve::estimate_parallel(
            self.mechanism.as_ref(),
            snapshot.optimal(),
            evaluate,
            &deltas,
            self.config.error_curve_samples,
            split_stream(self.config.seed, u64::MAX),
            None,
        )?;
        PriceErrorCurve::new(&curve, snapshot.pricing()).map_err(Into::into)
    }

    /// [`Broker::price_error_curve`] for a first-class [`ErrorMetric`] —
    /// exact (closed-form) when the metric provides one, deterministic
    /// parallel Monte Carlo otherwise.
    pub fn price_error_curve_for(&self, metric: &dyn ErrorMetric) -> Result<PriceErrorCurve> {
        let snapshot = self.published()?;
        let deltas: Vec<Ncp> = snapshot
            .problem()
            .parameters()
            .iter()
            .map(|&x| Ok(InverseNcp::new(x)?.ncp()))
            .collect::<Result<Vec<_>>>()?;
        let provider = CurveProvider::new(
            self.config.error_curve_samples,
            split_stream(self.config.seed, u64::MAX),
        );
        let curve =
            provider.curve_for(metric, self.mechanism.as_ref(), snapshot.optimal(), &deltas)?;
        PriceErrorCurve::new(&curve, snapshot.pricing()).map_err(Into::into)
    }

    /// A copy of the ledger, in transaction-id order.
    pub fn ledger(&self) -> Ledger {
        self.ledger.lock().clone()
    }

    /// Total revenue collected so far, folded in transaction-id order.
    pub fn collected_revenue(&self) -> f64 {
        self.ledger.lock().total_revenue()
    }

    /// Number of completed sales.
    pub fn sales_count(&self) -> usize {
        self.ledger.lock().count()
    }

    /// One consistent-enough accounting snapshot for monitoring surfaces
    /// (the `INFO` op of the network serving layer, dashboards, logs).
    /// Epoch and expected revenue are read from the published snapshot;
    /// sales and revenue from the ledger.
    pub fn market_stats(&self) -> MarketStats {
        let snapshot = self.snapshot();
        MarketStats {
            epoch: snapshot.as_deref().map(MarketSnapshot::epoch),
            expected_revenue: snapshot.as_deref().map(MarketSnapshot::expected_revenue),
            sales: self.sales_count(),
            revenue: self.collected_revenue(),
            budget_rejects: self.accounts.budget_rejects(),
            exhausted_buyers: self.accounts.exhausted_buyers(),
            journal: self
                .journal
                .as_ref()
                .map(GroupCommit::stats)
                .unwrap_or_default(),
        }
    }

    /// The per-buyer noise-budget ledger of this listing.
    pub fn accounts(&self) -> &BuyerAccounts {
        &self.accounts
    }

    /// The configured per-buyer noise budget (`None` = unmetered).
    pub fn buyer_budget(&self) -> Option<f64> {
        self.accounts.budget()
    }
}

/// Aggregate broker accounting, served to monitoring clients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarketStats {
    /// Epoch of the published snapshot (`None` before `open_market`).
    pub epoch: Option<u64>,
    /// Expected revenue of the posted prices (`None` before `open_market`).
    pub expected_revenue: Option<f64>,
    /// Completed sales so far.
    pub sales: usize,
    /// Revenue collected so far.
    pub revenue: f64,
    /// Commits rejected because a buyer's noise budget was exhausted.
    pub budget_rejects: u64,
    /// Buyers whose remaining noise budget is zero (0 when unmetered).
    pub exhausted_buyers: u64,
    /// Group-commit counters of the journal (all zero without one).
    pub journal: GroupCommitStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::{DemandCurve, MarketCurves, ValueCurve};
    use nimbus_data::catalog::{DatasetSpec, PaperDataset};

    /// The dataset [`test_builder`] lists; the broker drops its own copy.
    fn test_data() -> nimbus_data::TrainTest {
        let (tt, _) = DatasetSpec::scaled(PaperDataset::Simulated1, 600)
            .materialize(7)
            .unwrap();
        tt
    }

    fn test_builder() -> BrokerBuilder {
        let curves = MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform);
        let seller = Seller::new("test", test_data(), curves);
        Broker::builder(seller)
            .trainer(LinearRegressionTrainer::ridge(1e-6))
            .mechanism(GaussianMechanism)
            .n_price_points(50)
            .error_curve_samples(50)
            .seed(42)
    }

    fn test_broker() -> Broker {
        test_builder().build().unwrap()
    }

    /// An unkeyed commit item by `(x, epoch)` identity, as the wire sends it.
    fn at(x: f64, snapshot_epoch: u64, payment: f64, buyer: Option<u64>) -> BatchCommitItem {
        BatchCommitItem {
            x,
            snapshot_epoch,
            payment,
            nonce: None,
            buyer,
        }
    }

    #[test]
    fn builder_validates_config() {
        let (tt, _) = DatasetSpec::scaled(PaperDataset::Simulated1, 100)
            .materialize(7)
            .unwrap();
        let curves = MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform);
        let build = |f: fn(BrokerBuilder) -> BrokerBuilder| {
            f(Broker::builder(Seller::new("v", tt.clone(), curves))).build()
        };
        assert!(matches!(
            build(|b| b.n_price_points(1)),
            Err(MarketError::InvalidConfig { .. })
        ));
        assert!(matches!(
            build(|b| b.n_price_points(MAX_PRICE_POINTS + 1)),
            Err(MarketError::InvalidConfig { .. })
        ));
        assert!(matches!(
            build(|b| b.error_curve_samples(0)),
            Err(MarketError::InvalidConfig { .. })
        ));
        assert!(matches!(
            build(|b| b.commission(1.0)),
            Err(MarketError::InvalidConfig { .. })
        ));
        assert!(matches!(
            build(|b| b.commission(-0.1)),
            Err(MarketError::InvalidConfig { .. })
        ));
        assert!(build(|b| b).is_ok());
    }

    #[test]
    fn republish_rejects_a_menu_over_the_cap() {
        let broker = test_broker();
        broker.open_market().unwrap();
        let epoch = broker.snapshot().unwrap().epoch();
        let problem = broker
            .terms()
            .curves
            .build_problem(MAX_PRICE_POINTS + 1)
            .unwrap();
        assert!(matches!(
            broker.republish_with_problem(problem),
            Err(MarketError::InvalidConfig { .. })
        ));
        assert_eq!(broker.snapshot().unwrap().epoch(), epoch);
    }

    #[test]
    fn concurrent_same_key_retries_charge_once() {
        // The dedup table no longer serializes keyed commits behind one
        // lock across the durability barrier: racing retries of one key
        // must still produce exactly one sale, and every racer must see
        // the same transaction.
        let broker = Arc::new(test_broker());
        broker.open_market().unwrap();
        let quote = broker
            .quote_request(PurchaseRequest::AtInverseNcp(25.0))
            .unwrap();
        let sales: Vec<Sale> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let broker = Arc::clone(&broker);
                    let q = quote;
                    s.spawn(move || {
                        broker
                            .commit_at_idempotent_for(q.x, q.snapshot_epoch, q.price, 0xFEED, None)
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let first = &sales[0];
        for sale in &sales {
            assert_eq!(sale.transaction.sequence, first.transaction.sequence);
            assert_eq!(sale.price, first.price);
            assert_eq!(
                sale.model.weights().as_slice(),
                first.model.weights().as_slice()
            );
        }
        let ledger = broker.ledger();
        assert_eq!(ledger.count(), 1, "one key, one sale");
        // Distinct keys racing concurrently all land individually.
        let q2 = broker
            .quote_request(PurchaseRequest::AtInverseNcp(30.0))
            .unwrap();
        std::thread::scope(|s| {
            for nonce in 0..8u64 {
                let broker = Arc::clone(&broker);
                let q = q2;
                s.spawn(move || {
                    broker
                        .commit_at_idempotent_for(q.x, q.snapshot_epoch, q.price, nonce, None)
                        .unwrap()
                });
            }
        });
        assert_eq!(broker.ledger().count(), 9);
    }

    #[test]
    fn batch_commit_rejects_in_batch_duplicate_nonce() {
        let broker = test_broker();
        broker.open_market().unwrap();
        let quote = broker
            .quote_request(PurchaseRequest::AtInverseNcp(25.0))
            .unwrap();
        let item = |nonce| BatchCommitItem {
            x: quote.x,
            snapshot_epoch: quote.snapshot_epoch,
            payment: quote.price,
            nonce: Some(nonce),
            buyer: None,
        };
        let results = broker.commit_batch_at(&[item(7), item(7), item(8)]);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(MarketError::InvalidConfig { .. })));
        assert!(results[2].is_ok());
        assert_eq!(
            broker.ledger().count(),
            2,
            "the duplicate slot sells nothing"
        );
        // A *retry* of the same key in a later batch replays, not re-sells.
        let retry = broker.commit_batch_at(&[item(7)]);
        assert_eq!(
            retry[0].as_ref().unwrap().transaction.sequence,
            results[0].as_ref().unwrap().transaction.sequence
        );
        assert_eq!(broker.ledger().count(), 2);
    }

    fn budget_broker(budget: f64, journal: Option<&PathBuf>) -> Broker {
        let (tt, _) = DatasetSpec::scaled(PaperDataset::Simulated1, 600)
            .materialize(7)
            .unwrap();
        let curves = MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform);
        let seller = Seller::new("budgeted", tt, curves);
        let mut builder = Broker::builder(seller)
            .trainer(LinearRegressionTrainer::ridge(1e-6))
            .mechanism(GaussianMechanism)
            .n_price_points(50)
            .error_curve_samples(50)
            .seed(42)
            .buyer_budget(budget);
        if let Some(path) = journal {
            builder = builder.journal(path.clone());
        }
        builder.build().unwrap()
    }

    #[test]
    fn builder_validates_buyer_budget() {
        let (tt, _) = DatasetSpec::scaled(PaperDataset::Simulated1, 100)
            .materialize(7)
            .unwrap();
        let curves = MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform);
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                Broker::builder(Seller::new("v", tt.clone(), curves))
                    .buyer_budget(bad)
                    .build(),
                Err(MarketError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn budget_exhaustion_rejects_typed_before_sale() {
        let broker = budget_broker(40.0, None);
        broker.open_market().unwrap();
        let epoch = broker.published().unwrap().epoch();
        let quote = broker
            .quote_request(PurchaseRequest::AtInverseNcp(25.0))
            .unwrap();
        // First purchase (x = 25) fits the 40-budget; the second does not.
        broker
            .commit_one(at(quote.x, epoch, quote.price, Some(1)))
            .unwrap();
        let err = broker
            .commit_one(at(quote.x, epoch, quote.price, Some(1)))
            .unwrap_err();
        assert!(matches!(
            err,
            MarketError::BudgetExhausted {
                buyer: 1,
                remaining,
                ..
            } if (remaining - 15.0).abs() < 1e-9
        ));
        // The rejection sold nothing and other buyers are unaffected.
        assert_eq!(broker.ledger().count(), 1);
        broker
            .commit_one(at(quote.x, epoch, quote.price, Some(2)))
            .unwrap();
        assert_eq!(broker.accounts().budget_rejects(), 1);
        let stats = broker.market_stats();
        assert_eq!(stats.budget_rejects, 1);
    }

    #[test]
    fn anonymous_commits_bypass_budget() {
        let broker = budget_broker(1.0, None);
        broker.open_market().unwrap();
        let epoch = broker.published().unwrap().epoch();
        let quote = broker
            .quote_request(PurchaseRequest::AtInverseNcp(25.0))
            .unwrap();
        for _ in 0..3 {
            broker
                .commit_one(at(quote.x, epoch, quote.price, None))
                .unwrap();
        }
        assert_eq!(broker.ledger().count(), 3);
        assert_eq!(broker.accounts().budget_rejects(), 0);
    }

    #[test]
    fn duplicate_nonce_retry_does_not_double_charge_budget() {
        let broker = budget_broker(30.0, None);
        broker.open_market().unwrap();
        let epoch = broker.published().unwrap().epoch();
        let quote = broker
            .quote_request(PurchaseRequest::AtInverseNcp(25.0))
            .unwrap();
        let first = broker
            .commit_at_idempotent_for(quote.x, epoch, quote.price, 0xABCD, Some(9))
            .unwrap();
        // The budget (30) cannot cover a second x = 25 purchase, yet the
        // same-nonce retry must replay, not reject: it is the same sale.
        let retry = broker
            .commit_at_idempotent_for(quote.x, epoch, quote.price, 0xABCD, Some(9))
            .unwrap();
        assert_eq!(retry.transaction.sequence, first.transaction.sequence);
        assert_eq!(broker.accounts().spent(9), quote.x);
        assert_eq!(broker.ledger().count(), 1);
    }

    #[test]
    fn budget_accounts_survive_restart_via_journal() {
        let path = std::env::temp_dir().join(format!(
            "nimbus-broker-budget-{}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let (x, epoch_nonce) = {
            let broker = budget_broker(40.0, Some(&path));
            broker.open_market().unwrap();
            let epoch = broker.published().unwrap().epoch();
            let quote = broker
                .quote_request(PurchaseRequest::AtInverseNcp(25.0))
                .unwrap();
            broker
                .commit_at_idempotent_for(quote.x, epoch, quote.price, 0x11, Some(5))
                .unwrap();
            (quote.x, (epoch, 0x11u64))
        };
        // "Restart": rebuild from the journal alone.
        let broker = budget_broker(40.0, Some(&path));
        assert_eq!(broker.accounts().spent(5), x);
        broker.open_market().unwrap();
        // A same-nonce retry across the restart replays without charging.
        let quote_price = broker.quote(x).unwrap();
        let replayed =
            broker.commit_at_idempotent_for(x, epoch_nonce.0, quote_price, epoch_nonce.1, Some(5));
        assert!(replayed.is_ok());
        assert_eq!(broker.accounts().spent(5), x, "replay must not re-charge");
        // And the surviving spend still enforces the cap.
        let epoch = broker.published().unwrap().epoch();
        let quote = broker
            .quote_request(PurchaseRequest::AtInverseNcp(25.0))
            .unwrap();
        assert!(matches!(
            broker.commit_one(at(quote.x, epoch, quote.price, Some(5))),
            Err(MarketError::BudgetExhausted { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn journal_failure_refunds_budget_charge() {
        let path = std::env::temp_dir().join(format!(
            "nimbus-broker-refund-{}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let (tt, _) = DatasetSpec::scaled(PaperDataset::Simulated1, 600)
            .materialize(7)
            .unwrap();
        let curves = MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform);
        // Fail the 2nd journal record write: the 1st buyer-attributed
        // commit lands, the 2nd fails at the durability barrier.
        let broker = Broker::builder(Seller::new("refund", tt, curves))
            .trainer(LinearRegressionTrainer::ridge(1e-6))
            .mechanism(GaussianMechanism)
            .n_price_points(50)
            .error_curve_samples(50)
            .seed(42)
            .buyer_budget(60.0)
            .journal(path.clone())
            .journal_faults(FaultPlan::new().fail_nth_write(2))
            .build()
            .unwrap();
        broker.open_market().unwrap();
        let epoch = broker.published().unwrap().epoch();
        let quote = broker
            .quote_request(PurchaseRequest::AtInverseNcp(25.0))
            .unwrap();
        broker
            .commit_one(at(quote.x, epoch, quote.price, Some(3)))
            .unwrap();
        assert!(broker
            .commit_one(at(quote.x, epoch, quote.price, Some(3)))
            .is_err());
        // The failed sale's charge was refunded: spend covers one sale.
        assert_eq!(broker.accounts().spent(3), quote.x);
        // And the freed headroom is spendable again.
        broker
            .commit_one(at(quote.x, epoch, quote.price, Some(3)))
            .unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_and_replayed_commits_leave_no_announcement_behind() {
        let path = std::env::temp_dir().join(format!(
            "nimbus-broker-announce-{}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let broker = test_builder()
            .journal(path.clone())
            .journal_group_commit_window(crate::journal::MAX_GROUP_COMMIT_WINDOW)
            .build()
            .unwrap();
        broker.open_market().unwrap();
        let journal = broker.journal.as_ref().unwrap();
        let quote = broker
            .quote_request(PurchaseRequest::AtInverseNcp(25.0))
            .unwrap();
        // A stale epoch fails before the journal: its announcement is
        // withdrawn.
        assert!(matches!(
            broker.commit_one(at(quote.x, quote.snapshot_epoch + 1, quote.price, None)),
            Err(MarketError::QuoteExpired { .. })
        ));
        assert_eq!(journal.preparing(), 0);
        // A keyed replay journals nothing either.
        let keyed = BatchCommitItem {
            nonce: Some(9),
            ..at(quote.x, quote.snapshot_epoch, quote.price, None)
        };
        let first = broker.commit_one(keyed).unwrap();
        let replay = broker.commit_one(keyed).unwrap();
        assert_eq!(replay.transaction.sequence, first.transaction.sequence);
        assert_eq!(journal.preparing(), 0);
        // So the next lone commit flushes without gathering.
        broker
            .commit_one(at(quote.x, quote.snapshot_epoch, quote.price, None))
            .unwrap();
        assert_eq!(
            broker.market_stats().journal,
            GroupCommitStats {
                flushes: 2,
                records: 2,
                window_waits: 0,
            }
        );
        drop(broker);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn optimal_model_is_trained_at_build_and_shared_by_every_snapshot() {
        let data = test_data();
        let broker = test_broker();
        let trained = LinearRegressionTrainer::ridge(1e-6)
            .train(&data.train)
            .unwrap();
        let bits = |m: &LinearModel| -> Vec<u64> {
            m.weights().as_slice().iter().map(|w| w.to_bits()).collect()
        };
        assert_eq!(bits(broker.optimal_model()), bits(&trained));

        broker.open_market().unwrap();
        let a = broker.snapshot().unwrap();
        broker.republish_with_problem(a.problem().clone()).unwrap();
        let b = broker.snapshot().unwrap();
        broker.open_market().unwrap();
        let c = broker.snapshot().unwrap();
        assert_eq!((a.epoch(), b.epoch(), c.epoch()), (1, 2, 3));
        assert!(std::ptr::eq(a.optimal(), b.optimal()));
        assert!(std::ptr::eq(a.optimal(), c.optimal()));
        assert!(std::ptr::eq(a.optimal(), broker.optimal_model()));
        // A re-price shares its source's error curve; re-opening builds a
        // fresh one.
        assert!(std::ptr::eq(a.error_curve(), b.error_curve()));
        assert!(!std::ptr::eq(a.error_curve(), c.error_curve()));
    }

    /// A trainer that always fails, to show `build` trains before it
    /// touches the journal.
    struct FailingTrainer;

    impl Trainer for FailingTrainer {
        fn train(&self, _: &nimbus_data::Dataset) -> nimbus_ml::Result<LinearModel> {
            Err(nimbus_ml::MlError::EmptyDataset)
        }

        fn name(&self) -> &'static str {
            "failing"
        }
    }

    #[test]
    fn failing_trainer_leaves_no_journal_behind() {
        let path = std::env::temp_dir().join(format!(
            "nimbus-broker-failing-trainer-{}.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let built = test_builder()
            .trainer(FailingTrainer)
            .journal(&path)
            .build();
        assert!(matches!(built, Err(MarketError::Ml(_))));
        assert!(!path.exists(), "no journal file before training succeeds");
    }

    #[test]
    fn superseded_snapshots_drop_with_their_last_reader() {
        const REPUBLISHES: u64 = 5_000;
        let broker = test_broker();
        broker.open_market().unwrap();
        let first = broker.snapshot().unwrap();
        let problem = first.problem().clone();
        let held = first.quote(PurchaseRequest::AtInverseNcp(10.0)).unwrap();
        let mut published = vec![Arc::downgrade(&first)];
        for i in 0..REPUBLISHES {
            if i % 10 == 0 {
                broker.open_market().unwrap();
            } else {
                broker.republish_with_problem(problem.clone()).unwrap();
            }
            published.push(Arc::downgrade(&broker.snapshot().unwrap()));
        }
        assert_eq!(
            broker.snapshot().unwrap().epoch(),
            first.epoch() + REPUBLISHES
        );
        // The live snapshot and the one still held are all that remain.
        let live = published.iter().filter(|w| w.upgrade().is_some()).count();
        assert_eq!(live, 2);

        // A held snapshot keeps pricing after it is superseded, but its
        // quotes no longer commit.
        let again = first.quote(PurchaseRequest::AtInverseNcp(10.0)).unwrap();
        assert_eq!(again.price.to_bits(), held.price.to_bits());
        assert_eq!(again.snapshot_epoch, 1);
        assert!(matches!(
            broker.commit(held, held.price),
            Err(MarketError::QuoteExpired { quoted: 1, current }) if current == 1 + REPUBLISHES
        ));
        drop(first);
        assert!(published[0].upgrade().is_none());
        let live = published.iter().filter(|w| w.upgrade().is_some()).count();
        assert_eq!(live, 1);
    }

    #[test]
    fn market_must_open_before_sales() {
        let broker = test_broker();
        assert!(!broker.is_open());
        assert!(broker.snapshot().is_none());
        assert!(matches!(
            broker.quote(10.0),
            Err(MarketError::MarketNotOpen)
        ));
        assert!(matches!(
            broker.quote_request(PurchaseRequest::AtInverseNcp(10.0)),
            Err(MarketError::MarketNotOpen)
        ));
        let revenue = broker.open_market().unwrap();
        assert!(revenue > 0.0);
        assert!(broker.is_open());
        assert!(broker.quote(10.0).is_ok());
        assert_eq!(broker.snapshot().unwrap().epoch(), 1);
    }

    #[test]
    fn posted_menu_is_arbitrage_free() {
        let broker = test_broker();
        broker.open_market().unwrap();
        let menu = broker.posted_menu().unwrap();
        assert_eq!(menu.len(), 50);
        // Monotone prices, non-increasing unit price.
        for w in menu.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-9);
            assert!(w[1].1 / w[1].0 <= w[0].1 / w[0].0 + 1e-9);
        }
        // The snapshot itself passes the exact certificate.
        let snapshot = broker.snapshot().unwrap();
        let pricing = snapshot.pricing();
        certify_menu(pricing.breakpoints(), pricing.values()).unwrap();
    }

    #[test]
    fn quote_then_commit_returns_noisy_model() {
        let broker = test_broker();
        broker.open_market().unwrap();
        let optimal = broker.optimal_model();
        let quote = broker
            .quote_request(PurchaseRequest::AtInverseNcp(10.0))
            .unwrap();
        assert_eq!(quote.snapshot_epoch, 1);
        assert_eq!(quote.metric, "square");
        assert!((quote.delta - 0.1).abs() < 1e-12);
        assert!((quote.expected_error - 0.1).abs() < 1e-12);
        let sale = broker.commit(quote, quote.price).unwrap();
        assert_eq!(sale.model.dim(), optimal.dim());
        assert_eq!(sale.metric, "square");
        assert!((sale.expected_error - 0.1).abs() < 1e-12);
        // The instance differs from the optimum (noise was added).
        assert!(sale.model.distance_squared(optimal).unwrap() > 0.0);
        assert_eq!(broker.sales_count(), 1);
        assert!((broker.collected_revenue() - sale.price).abs() < 1e-12);
        assert_eq!(broker.ledger().count(), 1);
    }

    #[test]
    fn stale_quote_is_rejected_after_reopen() {
        let broker = test_broker();
        broker.open_market().unwrap();
        let quote = broker
            .quote_request(PurchaseRequest::AtInverseNcp(10.0))
            .unwrap();
        broker.open_market().unwrap();
        assert_eq!(broker.snapshot().unwrap().epoch(), 2);
        assert!(matches!(
            broker.commit(quote, quote.price * 2.0),
            Err(MarketError::QuoteExpired {
                quoted: 1,
                current: 2
            })
        ));
        // A fresh quote against the new snapshot commits fine.
        let fresh = broker
            .quote_request(PurchaseRequest::AtInverseNcp(10.0))
            .unwrap();
        assert!(broker.commit(fresh, fresh.price).is_ok());
    }

    #[test]
    fn tampered_quote_cannot_underpay() {
        let broker = test_broker();
        broker.open_market().unwrap();
        let mut quote = broker
            .quote_request(PurchaseRequest::AtInverseNcp(50.0))
            .unwrap();
        assert!(quote.price > 0.0);
        // Buyer edits the price field; commit re-derives from the snapshot.
        let real_price = quote.price;
        quote.price = 0.0;
        assert!(matches!(
            broker.commit(quote, real_price / 2.0),
            Err(MarketError::InsufficientPayment { .. })
        ));
        assert_eq!(broker.sales_count(), 0);
    }

    #[test]
    fn commit_at_matches_in_process_commit_semantics() {
        let broker = test_broker();
        broker.open_market().unwrap();
        let quote = broker
            .quote_request(PurchaseRequest::AtInverseNcp(25.0))
            .unwrap();
        let sale = broker
            .commit_one(at(25.0, quote.snapshot_epoch, quote.price, None))
            .unwrap();
        assert!((sale.price - quote.price).abs() < 1e-12);
        assert!((sale.expected_error - quote.expected_error).abs() < 1e-12);
        // Wrong epoch and underpayment fail exactly like a local commit.
        assert!(matches!(
            broker.commit_one(at(25.0, quote.snapshot_epoch + 1, quote.price, None)),
            Err(MarketError::QuoteExpired { .. })
        ));
        assert!(matches!(
            broker.commit_one(at(25.0, quote.snapshot_epoch, quote.price / 2.0, None)),
            Err(MarketError::InsufficientPayment { .. })
        ));
        assert!(broker
            .commit_one(at(f64::NAN, quote.snapshot_epoch, 1e9, None))
            .is_err());
    }

    #[test]
    fn non_finite_or_negative_payment_is_rejected() {
        let broker = test_broker();
        broker.open_market().unwrap();
        let quote = broker
            .quote_request(PurchaseRequest::AtInverseNcp(50.0))
            .unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, -0.001] {
            assert!(
                matches!(
                    broker.commit(quote, bad),
                    Err(MarketError::InvalidPayment { .. })
                ),
                "payment {bad} must be rejected as invalid"
            );
        }
        assert_eq!(broker.sales_count(), 0);
        // The validation runs even before the market-open check.
        let closed = test_broker();
        assert!(matches!(
            closed.commit(quote, f64::NAN),
            Err(MarketError::InvalidPayment { .. })
        ));
    }

    #[test]
    fn quote_and_quote_request_share_one_path() {
        let broker = test_broker();
        broker.open_market().unwrap();
        for x in [1.0, 7.5, 42.0, 99.0] {
            let via_scalar = broker.quote(x).unwrap();
            let via_request = broker
                .quote_request(PurchaseRequest::AtInverseNcp(x))
                .unwrap();
            assert_eq!(via_scalar.to_bits(), via_request.price.to_bits());
        }
        // Both reject invalid x with the same typed error.
        for bad in [0.0, -3.0, f64::NAN] {
            assert!(broker.quote(bad).is_err());
            assert!(broker
                .quote_request(PurchaseRequest::AtInverseNcp(bad))
                .is_err());
        }
    }

    #[test]
    fn market_stats_reflect_ledger_and_epoch() {
        let broker = test_broker();
        let stats = broker.market_stats();
        assert_eq!(stats.epoch, None);
        assert_eq!(stats.sales, 0);
        assert_eq!(stats.revenue.to_bits(), 0, "no sales is +0.0, not -0.0");
        broker.open_market().unwrap();
        let q = broker
            .quote_request(PurchaseRequest::AtInverseNcp(10.0))
            .unwrap();
        broker.commit(q, q.price).unwrap();
        let stats = broker.market_stats();
        assert_eq!(stats.epoch, Some(1));
        assert_eq!(stats.sales, 1);
        assert!((stats.revenue - q.price).abs() < 1e-12);
        assert!(stats.expected_revenue.unwrap() > 0.0);
    }

    #[test]
    fn insufficient_payment_is_rejected() {
        let broker = test_broker();
        broker.open_market().unwrap();
        let quote = broker
            .quote_request(PurchaseRequest::AtInverseNcp(50.0))
            .unwrap();
        assert!(quote.price > 0.0);
        assert!(matches!(
            broker.commit(quote, quote.price / 2.0),
            Err(MarketError::InsufficientPayment { .. })
        ));
        assert_eq!(broker.sales_count(), 0);
    }

    #[test]
    fn error_budget_buys_cheapest_feasible() {
        let broker = test_broker();
        broker.open_market().unwrap();
        // Budget e = 0.05 → x = 20.
        let q = broker
            .quote_request(PurchaseRequest::ErrorBudget(0.05))
            .unwrap();
        assert!((q.x - 20.0).abs() < 1e-9);
        // Very loose budget clamps to the menu floor x = 1.
        let q = broker
            .quote_request(PurchaseRequest::ErrorBudget(100.0))
            .unwrap();
        assert!((q.x - 1.0).abs() < 1e-9);
        // Impossible accuracy (x would exceed 100).
        assert!(broker
            .quote_request(PurchaseRequest::ErrorBudget(0.001))
            .is_err());
    }

    #[test]
    fn price_budget_maximizes_accuracy() {
        let broker = test_broker();
        broker.open_market().unwrap();
        let menu = broker.posted_menu().unwrap();
        let (x_max, p_max) = *menu.last().unwrap();
        // Unlimited budget buys the best version.
        let q = broker
            .quote_request(PurchaseRequest::PriceBudget(p_max * 2.0))
            .unwrap();
        assert!((q.x - x_max).abs() < 1e-9);
        assert!((q.price - p_max).abs() < 1e-9);
        // Mid budget: the resolved price must not exceed the budget, and
        // bumping x must exceed it.
        let budget = p_max / 2.0;
        let q = broker
            .quote_request(PurchaseRequest::PriceBudget(budget))
            .unwrap();
        assert!(q.price <= budget + 1e-9);
        let bumped = broker.quote(q.x + 0.5).unwrap();
        assert!(
            bumped >= budget - 1e-6,
            "binary search not tight: {bumped} vs {budget}"
        );
        // No budget at all.
        assert!(broker
            .quote_request(PurchaseRequest::PriceBudget(0.0))
            .is_err());
    }

    #[test]
    fn price_error_curve_for_test_mse() {
        let broker = test_broker();
        broker.open_market().unwrap();
        let test_set = test_data().test;
        let curve = broker
            .price_error_curve(move |m| nimbus_ml::metrics::mse(m, &test_set).map_err(Into::into))
            .unwrap();
        assert_eq!(curve.len(), 50);
        // More accurate versions cost more.
        let pts = curve.points();
        assert!(pts[0].price >= pts[pts.len() - 1].price);
    }

    #[test]
    fn commission_splits_revenue() {
        let broker = test_builder().commission(0.2).build().unwrap();
        broker.open_market().unwrap();
        for x in [30.0, 60.0] {
            let q = broker
                .quote_request(PurchaseRequest::AtInverseNcp(x))
                .unwrap();
            broker.commit(q, q.price + 1.0).unwrap();
        }
        let total = broker.collected_revenue();
        assert!(total > 0.0);
        assert!((broker.broker_cut() - 0.2 * total).abs() < 1e-12);
        assert!((broker.seller_proceeds() - 0.8 * total).abs() < 1e-12);
        assert!((broker.broker_cut() + broker.seller_proceeds() - total).abs() < 1e-12);
    }

    fn classification_broker(
        metric_for: fn(nimbus_data::Dataset) -> nimbus_ml::LossMetric,
    ) -> Broker {
        let (tt, _) = DatasetSpec::scaled(PaperDataset::Simulated2, 600)
            .materialize(11)
            .unwrap();
        let test_set = tt.test.clone();
        let curves = MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform);
        let seller = Seller::new("cls", tt, curves);
        Broker::builder(seller)
            .trainer(nimbus_ml::LogisticRegressionTrainer::new(1e-4))
            .mechanism(GaussianMechanism)
            .error_metric(metric_for(test_set))
            .n_price_points(40)
            .error_curve_samples(60)
            .seed(42)
            .build()
            .unwrap()
    }

    #[test]
    fn metric_market_prices_through_phi() {
        for (metric_for, name) in [
            (
                nimbus_ml::LossMetric::logistic
                    as fn(nimbus_data::Dataset) -> nimbus_ml::LossMetric,
                "logistic",
            ),
            (nimbus_ml::LossMetric::zero_one, "zero_one"),
        ] {
            let broker = classification_broker(metric_for);
            let revenue = broker.open_market().unwrap();
            assert!(revenue > 0.0, "{name}: revenue {revenue}");
            let snapshot = broker.snapshot().unwrap();
            assert_eq!(snapshot.metric_name(), name);
            // The cached curve is monotone (smoothed) over the menu grid.
            let sm: Vec<f64> = snapshot
                .error_curve()
                .points()
                .iter()
                .map(|p| p.smoothed_error)
                .collect();
            assert!(sm.windows(2).all(|w| w[1] >= w[0] - 1e-12), "{name}");

            // An error budget inside the curve's range resolves through φ:
            // the quoted version's expected error meets the budget.
            let (e_lo, e_hi) = (sm[0], sm[sm.len() - 1]);
            let budget = 0.5 * (e_lo + e_hi);
            let quote = broker
                .quote_request(PurchaseRequest::ErrorBudget(budget))
                .unwrap();
            assert_eq!(quote.metric, name);
            assert!(
                quote.expected_error <= budget + 1e-9,
                "{name}: {} > {budget}",
                quote.expected_error
            );
            let sale = broker.commit(quote, quote.price).unwrap();
            assert_eq!(sale.metric, name);
            assert!((sale.expected_error - quote.expected_error).abs() < 1e-12);

            // Budgets tighter than the best version are unsatisfiable.
            if e_lo > 1e-6 {
                assert!(broker
                    .quote_request(PurchaseRequest::ErrorBudget(e_lo / 10.0))
                    .is_err());
            }
            // Very loose budgets clamp to the menu floor.
            let loose = broker
                .quote_request(PurchaseRequest::ErrorBudget(e_hi * 10.0))
                .unwrap();
            assert!((loose.x - 1.0).abs() < 1e-9, "{name}");
        }
    }

    #[test]
    fn metric_market_reopen_is_deterministic() {
        let a = classification_broker(nimbus_ml::LossMetric::logistic);
        let b = classification_broker(nimbus_ml::LossMetric::logistic);
        let ra = a.open_market().unwrap();
        let rb = b.open_market().unwrap();
        assert_eq!(
            ra.to_bits(),
            rb.to_bits(),
            "MC curve must be seed-determined"
        );
        let ca = a.snapshot().unwrap().error_curve().points().to_vec();
        let cb = b.snapshot().unwrap().error_curve().points().to_vec();
        for (p, q) in ca.iter().zip(&cb) {
            assert_eq!(p.mean_error.to_bits(), q.mean_error.to_bits());
        }
    }

    #[test]
    fn commit_batch_preserves_order_and_allocates_dense_ids() {
        let broker = test_broker();
        broker.open_market().unwrap();
        let epoch = broker.published().unwrap().epoch();
        let items: Vec<BatchCommitItem> = (0..64)
            .map(|i| at(1.0 + (i % 99) as f64, epoch, 1e12, None))
            .collect();
        let sales = broker.commit_batch_at(&items);
        assert_eq!(sales.len(), 64);
        for (i, s) in sales.iter().enumerate() {
            let sale = s.as_ref().expect("posted-price batch purchase succeeds");
            assert!((sale.inverse_ncp - (1.0 + (i % 99) as f64)).abs() < 1e-12);
        }
        assert_eq!(broker.sales_count(), 64);
        // Transaction ids are exactly 0..64, each exactly once.
        let ledger = broker.ledger();
        let seqs: Vec<u64> = ledger.transactions().iter().map(|t| t.sequence).collect();
        assert_eq!(seqs, (0..64).collect::<Vec<u64>>());
    }

    #[test]
    fn sale_noise_depends_only_on_transaction_id() {
        // Two brokers with the same seed serve the same requests; sales
        // with equal transaction ids must carry bitwise-identical models.
        let a = test_broker();
        let b = test_broker();
        a.open_market().unwrap();
        b.open_market().unwrap();
        for x in [5.0, 17.0, 42.0] {
            let qa = a.quote_request(PurchaseRequest::AtInverseNcp(x)).unwrap();
            let qb = b.quote_request(PurchaseRequest::AtInverseNcp(x)).unwrap();
            let sa = a.commit(qa, qa.price).unwrap();
            let sb = b.commit(qb, qb.price).unwrap();
            assert_eq!(sa.transaction.sequence, sb.transaction.sequence);
            assert_eq!(sa.model.weights().as_slice(), sb.model.weights().as_slice());
        }
    }

    #[test]
    fn concurrent_purchases_are_consistent() {
        let broker = std::sync::Arc::new(test_broker());
        broker.open_market().unwrap();
        let threads = 4;
        let per_thread = 25;
        std::thread::scope(|s| {
            for t in 0..threads {
                let b = broker.clone();
                s.spawn(move || {
                    for i in 0..per_thread {
                        let x = 1.0 + ((t * per_thread + i) % 99) as f64;
                        let q = b.quote_request(PurchaseRequest::AtInverseNcp(x)).unwrap();
                        b.commit(q, q.price).unwrap();
                    }
                });
            }
        });
        assert_eq!(broker.sales_count(), threads * per_thread);
        assert!(broker.collected_revenue() > 0.0);
        // The ledger has every transaction id exactly once, in order.
        let ledger = broker.ledger();
        let seqs: Vec<u64> = ledger.transactions().iter().map(|t| t.sequence).collect();
        assert_eq!(
            seqs,
            (0..(threads * per_thread) as u64).collect::<Vec<u64>>()
        );
    }

    #[test]
    fn batch_commit_resolves_each_item_independently() {
        let broker = test_broker();
        broker.open_market().unwrap();
        let epoch = broker.published().unwrap().epoch();
        let q = broker
            .quote_request(PurchaseRequest::AtInverseNcp(10.0))
            .unwrap();
        let items = [
            BatchCommitItem {
                x: 10.0,
                snapshot_epoch: epoch,
                payment: q.price,
                nonce: None,
                buyer: None,
            },
            BatchCommitItem {
                x: 10.0,
                snapshot_epoch: epoch + 7,
                payment: q.price,
                nonce: None,
                buyer: None,
            },
            BatchCommitItem {
                x: 10.0,
                snapshot_epoch: epoch,
                payment: q.price * 0.5,
                nonce: None,
                buyer: None,
            },
            BatchCommitItem {
                x: 10.0,
                snapshot_epoch: epoch,
                payment: f64::NAN,
                nonce: None,
                buyer: None,
            },
            BatchCommitItem {
                x: 17.0,
                snapshot_epoch: epoch,
                payment: f64::INFINITY.min(1e12),
                nonce: Some(99),
                buyer: None,
            },
        ];
        let results = broker.commit_batch_at(&items);
        assert_eq!(results.len(), 5);
        let first = results[0].as_ref().expect("well-formed item commits");
        assert!((first.inverse_ncp - 10.0).abs() < 1e-12);
        assert!(matches!(results[1], Err(MarketError::QuoteExpired { .. })));
        assert!(matches!(
            results[2],
            Err(MarketError::InsufficientPayment { .. })
        ));
        assert!(matches!(
            results[3],
            Err(MarketError::InvalidPayment { .. })
        ));
        let keyed = results[4].as_ref().expect("keyed item commits");
        // Exactly the two admitted sales landed; failures left no trace.
        assert_eq!(broker.sales_count(), 2);

        // Replaying the keyed item inside a fresh batch dedups to the
        // original sale instead of selling twice.
        let replay = broker.commit_batch_at(&[items[4]]);
        let replayed = replay[0].as_ref().expect("nonce replay succeeds");
        assert_eq!(replayed.transaction.sequence, keyed.transaction.sequence);
        assert_eq!(
            replayed.model.weights().as_slice(),
            keyed.model.weights().as_slice()
        );
        assert_eq!(broker.sales_count(), 2);
    }
}
