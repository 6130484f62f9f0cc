//! The multi-model marketplace of §3.1, grown into a concurrent routing
//! layer for the serving stack.
//!
//! "The broker specifies a menu of ML models `M` she can support (e.g.
//! logistic regression for classification and ordinary least squares for
//! regression)." A [`Marketplace`] manages one [`Broker`] per listing;
//! buyers first pick a listing from the menu (the first step of the §3.2
//! interaction) and then purchase a version of its model.
//!
//! # Concurrency model
//!
//! The marketplace sits on the serving hot path: every networked request
//! resolves a listing name before it touches a broker. Lookup therefore
//! uses the same snapshot-publication idiom as the broker itself — the
//! listing directory is an immutable [`BTreeMap`] behind an
//! `Arc`, and [`Marketplace::route`] holds the mutex around that `Arc`
//! for one map lookup and one refcount increment. Admin mutations
//! (listing, publishing a draft, retiring) serialize on a separate admin
//! lock, build a new directory, and swap it in; a superseded directory drops
//! with its last reader, exactly like a superseded market snapshot inside
//! a broker. No admin operation holds the directory mutex across a call
//! into a broker.
//!
//! # Listing lifecycle
//!
//! Every listing walks a one-way state machine:
//!
//! ```text
//! draft ──publish──▶ published ──retire──▶ retired
//!                        │  ▲
//!                        └──┘ publish (re-publish: new snapshot epoch,
//!                                      outstanding quotes expire)
//! ```
//!
//! * **Draft** listings exist in the directory but refuse to quote or
//!   sell ([`MarketError::MarketNotOpen`]).
//! * **Publishing** opens (or re-opens) the broker's market. Re-publishing
//!   reuses the broker's epoch protocol: a new [`crate::MarketSnapshot`]
//!   is posted, and every quote priced against the previous epoch dies
//!   with [`MarketError::QuoteExpired`] at commit time. The directory is
//!   unchanged, so a re-publish swaps in none.
//! * **Retired** listings answer every request with
//!   [`MarketError::ListingRetired`]; retirement is terminal. The ledger
//!   and journal stay intact for audit.
//!
//! Listing names are stable routing keys: creating a second listing under
//! an existing name is [`MarketError::DuplicateListing`], never a silent
//! replace.
//!
//! # Per-listing journals
//!
//! Each listing may journal its sales independently. The canonical disk
//! layout is one directory per listing under a common root —
//! `<root>/<listing>/journal.log`, see [`Marketplace::journal_path_for`]
//! and [`ListingBuilder::journal_root`] — and
//! [`Marketplace::open_listings`] recovers all listings **in parallel**
//! on startup (journal replay and the one-time model training both
//! parallelize across listings).

use crate::broker::{Broker, BrokerBuilder, PurchaseRequest, Quote};
use crate::journal::{FaultPlan, GroupCommitStats};
use crate::parallel::parallel_map;
use crate::seller::Seller;
use crate::{MarketError, Result};
use nimbus_core::RandomizedMechanism;
use nimbus_ml::{ErrorMetric, Trainer};
use nimbus_optim::RevenueProblem;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Where a listing is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListingState {
    /// Created but not yet published: visible to admins, refuses buyers.
    Draft,
    /// Live: quotes and sells against the broker's published snapshot.
    Published,
    /// Permanently withdrawn: every request is answered with
    /// [`MarketError::ListingRetired`].
    Retired,
}

impl ListingState {
    /// Stable lowercase name (wire and metrics label).
    pub fn name(self) -> &'static str {
        match self {
            ListingState::Draft => "draft",
            ListingState::Published => "published",
            ListingState::Retired => "retired",
        }
    }
}

/// Descriptive metadata for one listing, returned alongside its broker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListingMeta {
    /// The listing name buyers route by.
    pub name: String,
    /// Trainer identifier (e.g. `"linear_regression"`).
    pub model_kind: &'static str,
    /// Mechanism identifier (e.g. `"gaussian"`).
    pub mechanism: &'static str,
    /// Lifecycle state at snapshot time.
    pub state: ListingState,
}

/// One entry of the broker's model menu.
#[derive(Debug, Clone)]
pub struct MenuEntry {
    /// The listing name the buyer selects by.
    pub name: String,
    /// Trainer identifier (e.g. `"linear_regression"`).
    pub model_kind: &'static str,
    /// Mechanism identifier (e.g. `"gaussian"`).
    pub mechanism: &'static str,
    /// Lifecycle state of the listing.
    pub state: ListingState,
    /// Whether the market for this model is open and serving.
    pub open: bool,
    /// Expected revenue of the posted prices (0 until published).
    pub expected_revenue: f64,
}

/// Accounting for one listing inside a [`MarketplaceStats`] snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ListingStats {
    /// Listing name.
    pub name: String,
    /// Lifecycle state at snapshot time.
    pub state: ListingState,
    /// Epoch of the listing's published snapshot (0 before first publish).
    pub epoch: u64,
    /// Expected revenue of the posted prices (0 before first publish).
    pub expected_revenue: f64,
    /// Completed sales so far.
    pub sales: u64,
    /// Revenue collected so far.
    pub revenue: f64,
    /// Commits rejected because a buyer's noise budget was exhausted.
    pub budget_rejects: u64,
    /// Buyers whose remaining noise budget is zero (0 when unmetered).
    pub exhausted_buyers: u64,
    /// Group-commit counters of the listing's journal (zero without one).
    pub journal: GroupCommitStats,
}

/// One consistent accounting snapshot over the whole marketplace:
/// per-listing counters and their aggregates, all read against a single
/// listing directory (a listing cannot appear in the totals but be
/// missing from the rows, or vice versa).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MarketplaceStats {
    /// Per-listing accounting, in name order.
    pub listings: Vec<ListingStats>,
    /// Sales summed over every listing row above.
    pub total_sales: u64,
    /// Revenue summed over every listing row above.
    pub total_revenue: f64,
}

/// One listed model: its broker plus routing metadata. Clones share the
/// broker.
#[derive(Clone)]
struct Listing {
    broker: Arc<Broker>,
    model_kind: &'static str,
    mechanism: &'static str,
    state: ListingState,
}

impl Listing {
    fn meta(&self, name: &str) -> ListingMeta {
        ListingMeta {
            name: name.to_string(),
            model_kind: self.model_kind,
            mechanism: self.mechanism,
            state: self.state,
        }
    }
}

/// An immutable published view of the listing directory.
#[derive(Default)]
struct Directory {
    listings: BTreeMap<String, Listing>,
}

/// What a [`ListingBuilder`] wraps: either a broker configuration still
/// to be built, or an adopted pre-built broker.
enum ListingSource {
    Build(Box<BrokerBuilder>),
    Ready(Arc<Broker>),
}

/// Validating builder for one marketplace listing, mirroring
/// [`BrokerBuilder`]: name, model configuration (trainer, mechanism,
/// metric, pricing), and the journal path.
///
/// ```no_run
/// # use nimbus_market::{Marketplace, marketplace::ListingBuilder, Seller};
/// # fn doc(seller: Seller) -> nimbus_market::Result<()> {
/// let market = Marketplace::new();
/// market.list(
///     ListingBuilder::new("acme-data", seller)
///         .model_kind("linear_regression")
///         .n_price_points(50)
///         .seed(42),
/// )?;
/// # Ok(()) }
/// ```
pub struct ListingBuilder {
    name: String,
    source: ListingSource,
    model_kind: &'static str,
    mechanism_name: &'static str,
    journal_root: Option<PathBuf>,
    reconfigured_ready: bool,
}

impl ListingBuilder {
    /// Starts a builder for a new listing over `seller`'s dataset, with
    /// [`BrokerBuilder`]'s defaults (ridge trainer, Gaussian mechanism,
    /// square-loss metric).
    pub fn new(name: impl Into<String>, seller: Seller) -> Self {
        ListingBuilder {
            name: name.into(),
            source: ListingSource::Build(Box::new(BrokerBuilder::new(seller))),
            model_kind: "linear_regression",
            mechanism_name: "gaussian",
            journal_root: None,
            reconfigured_ready: false,
        }
    }

    /// Adopts an already-built broker (e.g. one that replayed its own
    /// journal) instead of building one. Broker-configuration setters are
    /// rejected at build time on an adopted broker.
    pub fn from_broker(name: impl Into<String>, broker: Arc<Broker>) -> Self {
        ListingBuilder {
            name: name.into(),
            source: ListingSource::Ready(broker),
            model_kind: "linear_regression",
            mechanism_name: "gaussian",
            journal_root: None,
            reconfigured_ready: false,
        }
    }

    /// Sets the menu's trainer identifier (e.g. `"logistic_regression"`).
    pub fn model_kind(mut self, kind: &'static str) -> Self {
        self.model_kind = kind;
        self
    }

    /// Sets the menu's mechanism identifier (e.g. `"laplace"`).
    pub fn mechanism_name(mut self, name: &'static str) -> Self {
        self.mechanism_name = name;
        self
    }

    fn map_builder(mut self, f: impl FnOnce(BrokerBuilder) -> BrokerBuilder) -> Self {
        match self.source {
            ListingSource::Build(builder) => {
                self.source = ListingSource::Build(Box::new(f(*builder)));
            }
            ListingSource::Ready(_) => self.reconfigured_ready = true,
        }
        self
    }

    /// Sets the trainer (see [`BrokerBuilder::trainer`]).
    pub fn trainer(self, trainer: impl Trainer + Send + Sync + 'static) -> Self {
        self.map_builder(|b| b.trainer(trainer))
    }

    /// Sets an already-boxed trainer (for dynamic selection).
    pub fn boxed_trainer(self, trainer: Box<dyn Trainer + Send + Sync>) -> Self {
        self.map_builder(|b| b.boxed_trainer(trainer))
    }

    /// Sets the randomized mechanism (see [`BrokerBuilder::mechanism`]).
    pub fn mechanism(self, mechanism: impl RandomizedMechanism + Send + Sync + 'static) -> Self {
        self.map_builder(|b| b.mechanism(mechanism))
    }

    /// Sets the buyer-facing error metric the market is denominated in.
    pub fn error_metric(self, metric: impl ErrorMetric + 'static) -> Self {
        self.map_builder(|b| b.error_metric(metric))
    }

    /// Sets an already-boxed error metric (for dynamic selection).
    pub fn boxed_error_metric(self, metric: Box<dyn ErrorMetric>) -> Self {
        self.map_builder(|b| b.boxed_error_metric(metric))
    }

    /// Sets the number of menu price points.
    pub fn n_price_points(self, n: usize) -> Self {
        self.map_builder(|b| b.n_price_points(n))
    }

    /// Sets the Monte-Carlo samples per δ for error-curve estimation.
    pub fn error_curve_samples(self, n: usize) -> Self {
        self.map_builder(|b| b.error_curve_samples(n))
    }

    /// Sets the seed of the broker's deterministic noise streams.
    pub fn seed(self, seed: u64) -> Self {
        self.map_builder(|b| b.seed(seed))
    }

    /// Sets the commission rate.
    pub fn commission(self, rate: f64) -> Self {
        self.map_builder(|b| b.commission(rate))
    }

    /// Journals every committed sale to the write-ahead log at `path`.
    /// A listing takes a journal path or a [`journal_root`](Self::journal_root),
    /// not both.
    pub fn journal(self, path: impl Into<PathBuf>) -> Self {
        self.map_builder(|b| b.journal(path))
    }

    /// Journals under the marketplace's canonical per-listing layout:
    /// `<root>/<listing>/journal.log`. The listing's directory is created
    /// at build time; an existing journal there is replayed.
    pub fn journal_root(mut self, root: impl Into<PathBuf>) -> Self {
        self.journal_root = Some(root.into());
        self
    }

    /// Upper bound on the group-commit gathering wait (see
    /// [`BrokerBuilder::journal_group_commit_window`]): a flush leader
    /// waits only for announced concurrent commits, so a lone commit
    /// never waits. Zero (the default) never gathers.
    pub fn journal_group_commit_window(self, window: std::time::Duration) -> Self {
        self.map_builder(|b| b.journal_group_commit_window(window))
    }

    /// Routes journal writes through an injected [`FaultPlan`].
    pub fn journal_faults(self, plan: FaultPlan) -> Self {
        self.map_builder(|b| b.journal_faults(plan))
    }

    /// Caps each buyer's cumulative noise-precision spend `Σ x` on this
    /// listing (see [`BrokerBuilder::buyer_budget`]).
    pub fn buyer_budget(self, budget: f64) -> Self {
        self.map_builder(|b| b.buyer_budget(budget))
    }

    /// Validates and builds the listing (state: draft).
    fn into_listing(self) -> Result<(String, Listing)> {
        if self.name.is_empty() || self.name.len() > 256 {
            return Err(MarketError::InvalidConfig {
                reason: format!(
                    "listing name must be 1..=256 bytes, got {} bytes",
                    self.name.len()
                ),
            });
        }
        if self.name.contains(['/', '\\', '\0']) {
            return Err(MarketError::InvalidConfig {
                reason: format!(
                    "listing name {:?} may not contain path separators or NUL",
                    self.name
                ),
            });
        }
        if self.reconfigured_ready {
            return Err(MarketError::InvalidConfig {
                reason: format!(
                    "listing {:?} adopts a pre-built broker; its configuration cannot be changed",
                    self.name
                ),
            });
        }
        let broker = match self.source {
            ListingSource::Ready(broker) => {
                if self.journal_root.is_some() {
                    return Err(MarketError::InvalidConfig {
                        reason: format!(
                            "listing {:?} adopts a pre-built broker; configure its journal via BrokerBuilder",
                            self.name
                        ),
                    });
                }
                broker
            }
            ListingSource::Build(builder) => {
                let builder = match self.journal_root {
                    Some(_) if builder.journal_path.is_some() => {
                        return Err(MarketError::InvalidConfig {
                            reason: format!(
                                "listing {:?} has both a journal path and a journal root; \
                                 give one",
                                self.name
                            ),
                        });
                    }
                    Some(root) => {
                        let dir = root.join(&self.name);
                        crate::journal::create_dir_durable(&dir)
                            .map_err(crate::journal::JournalError::Io)?;
                        builder.journal(dir.join("journal.log"))
                    }
                    None => *builder,
                };
                Arc::new(builder.build()?)
            }
        };
        Ok((
            self.name,
            Listing {
                broker,
                model_kind: self.model_kind,
                mechanism: self.mechanism_name,
                state: ListingState::Draft,
            },
        ))
    }
}

/// A marketplace hosting several model listings behind one directory
/// cell.
#[derive(Default)]
pub struct Marketplace {
    /// The currently published directory. Held only to read one listing
    /// or clone the `Arc` out, or to swap a new directory in.
    current: Mutex<Arc<Directory>>,
    /// Serializes admin operations; taken before `current` or any broker
    /// lock, never on the routing path.
    admin: Mutex<()>,
}

/// The listing `name` as an admin operation may act on it: an unknown
/// name or a retired listing refuses.
fn live_listing(listings: &BTreeMap<String, Listing>, name: &str) -> Result<Listing> {
    match listings.get(name) {
        None => Err(MarketError::UnknownListing {
            name: name.to_string(),
        }),
        Some(l) if l.state == ListingState::Retired => Err(MarketError::ListingRetired {
            name: name.to_string(),
        }),
        Some(l) => Ok(l.clone()),
    }
}

impl Marketplace {
    /// Creates an empty marketplace.
    pub fn new() -> Self {
        Marketplace::default()
    }

    /// Builds and publishes every listing **in parallel** — journal
    /// replay and one-time model training are per-listing work — and
    /// returns the marketplace serving all of them. This is the startup
    /// path for a server recovering a `--journal-dir` tree.
    pub fn open_listings(builders: Vec<ListingBuilder>) -> Result<Marketplace> {
        let opened: Vec<Result<(String, Listing, f64)>> = parallel_map(builders, None, |builder| {
            let (name, listing) = builder.into_listing()?;
            if !listing.broker.is_open() {
                listing.broker.open_market()?;
            }
            let listing = Listing {
                state: ListingState::Published,
                ..listing
            };
            Ok((name, listing, 0.0))
        });
        let market = Marketplace::new();
        market.mutate(|listings| {
            for result in opened {
                let (name, listing, _) = result?;
                if listings.contains_key(&name) {
                    return Err(MarketError::DuplicateListing { name });
                }
                listings.insert(name, listing);
            }
            Ok(())
        })?;
        Ok(market)
    }

    /// The canonical per-listing journal path under a journal root:
    /// `<root>/<listing>/journal.log`.
    pub fn journal_path_for(root: &Path, listing: &str) -> PathBuf {
        root.join(listing).join("journal.log")
    }

    /// Lists and immediately publishes a new listing, returning the
    /// expected revenue of its posted prices. A name that already exists
    /// is [`MarketError::DuplicateListing`] — refresh a live listing with
    /// [`Marketplace::publish`] instead.
    pub fn list(&self, builder: ListingBuilder) -> Result<f64> {
        let (name, listing) = builder.into_listing()?;
        if !listing.broker.is_open() {
            listing.broker.open_market()?;
        }
        let expected = listing.broker.expected_revenue()?;
        self.mutate(|listings| {
            if listings.contains_key(&name) {
                return Err(MarketError::DuplicateListing { name: name.clone() });
            }
            listings.insert(
                name.clone(),
                Listing {
                    state: ListingState::Published,
                    ..listing.clone()
                },
            );
            Ok(())
        })?;
        Ok(expected)
    }

    /// Lists a new listing in the draft state: present in the directory,
    /// not yet serving. Publish it with [`Marketplace::publish`].
    pub fn draft(&self, builder: ListingBuilder) -> Result<()> {
        let (name, listing) = builder.into_listing()?;
        self.mutate(|listings| {
            if listings.contains_key(&name) {
                return Err(MarketError::DuplicateListing { name: name.clone() });
            }
            listings.insert(name.clone(), listing.clone());
            Ok(())
        })
    }

    /// Publishes (or re-publishes) a listing and returns the expected
    /// revenue of the freshly posted prices.
    ///
    /// A draft goes live. A published listing is *re-published*: the
    /// broker posts a new market snapshot with a higher epoch, so every
    /// outstanding quote dies with [`MarketError::QuoteExpired`] at
    /// commit time — the same invalidation a local `open_market()` call
    /// performs. A retired listing refuses with
    /// [`MarketError::ListingRetired`]. Only a draft going live changes
    /// the directory, so only then is a new one published.
    pub fn publish(&self, name: &str) -> Result<f64> {
        let _admin = self.admin.lock();
        let live = self.directory();
        let listing = live_listing(&live.listings, name)?;
        let expected = listing.broker.open_market()?;
        if listing.state == ListingState::Draft {
            let mut listings = live.listings.clone();
            listings.insert(
                name.to_string(),
                Listing {
                    state: ListingState::Published,
                    ..listing
                },
            );
            self.install(listings);
        }
        Ok(expected)
    }

    /// Re-publishes a *published* listing's price table from a
    /// caller-supplied [`RevenueProblem`] — the direct in-process
    /// counterpart of the admin wire path's re-PUBLISH, used by
    /// demand-fed re-pricers that observed an empirical demand curve and
    /// want the posted prices re-optimized against it.
    ///
    /// Epoch-kill semantics are identical to [`Marketplace::publish`]:
    /// the broker posts a new snapshot with a higher epoch and every
    /// outstanding quote dies with [`MarketError::QuoteExpired`] at
    /// commit time. Unlike `publish`, a draft refuses with
    /// [`MarketError::MarketNotOpen`] (there is no current table to
    /// re-price) and a retired listing with
    /// [`MarketError::ListingRetired`]. Returns the expected revenue of
    /// the new table under the supplied demand. The directory itself is
    /// unchanged, so none is published.
    pub fn republish_pricing(&self, name: &str, problem: RevenueProblem) -> Result<f64> {
        let _admin = self.admin.lock();
        let listing = live_listing(&self.directory().listings, name)?;
        listing.broker.republish_with_problem(problem)
    }

    /// Retires a listing: it stops quoting and selling permanently, while
    /// its ledger (and journal) remain for audit. Retiring a retired
    /// listing is [`MarketError::ListingRetired`].
    pub fn retire(&self, name: &str) -> Result<()> {
        self.mutate(|listings| {
            let listing = live_listing(listings, name)?;
            listings.insert(
                name.to_string(),
                Listing {
                    state: ListingState::Retired,
                    ..listing
                },
            );
            Ok(())
        })
    }

    /// The menu shown to buyers, in name order.
    pub fn menu(&self) -> Vec<MenuEntry> {
        self.directory()
            .listings
            .iter()
            .map(|(name, l)| MenuEntry {
                name: name.clone(),
                model_kind: l.model_kind,
                mechanism: l.mechanism,
                state: l.state,
                open: l.state == ListingState::Published && l.broker.is_open(),
                expected_revenue: l.broker.expected_revenue().unwrap_or(0.0),
            })
            .collect()
    }

    /// Listing names, in name order.
    pub fn names(&self) -> Vec<String> {
        self.directory().listings.keys().cloned().collect()
    }

    /// Number of listings (any state).
    pub fn len(&self) -> usize {
        self.directory().listings.len()
    }

    /// Whether the marketplace has no listings.
    pub fn is_empty(&self) -> bool {
        self.directory().listings.is_empty()
    }

    /// The named listing's broker plus its metadata, in any lifecycle
    /// state (admin/introspection surface; buyers route with
    /// [`Marketplace::route`]).
    pub fn broker(&self, name: &str) -> Result<(Arc<Broker>, ListingMeta)> {
        let listing = self.listing(name)?;
        let meta = listing.meta(name);
        Ok((listing.broker, meta))
    }

    /// Resolves a listing name to its serving broker — the hot path: one
    /// map lookup and one refcount increment under the directory mutex.
    /// Only published listings serve; drafts answer
    /// [`MarketError::MarketNotOpen`], retired listings
    /// [`MarketError::ListingRetired`], unknown names
    /// [`MarketError::UnknownListing`].
    pub fn route(&self, name: &str) -> Result<Arc<Broker>> {
        let listing = self.listing(name)?;
        match listing.state {
            ListingState::Published => Ok(listing.broker),
            ListingState::Draft => Err(MarketError::MarketNotOpen),
            ListingState::Retired => Err(MarketError::ListingRetired {
                name: name.to_string(),
            }),
        }
    }

    /// The named listing in any state, looked up under one short hold of
    /// the directory mutex.
    fn listing(&self, name: &str) -> Result<Listing> {
        let found = self.current.lock().listings.get(name).cloned();
        found.ok_or_else(|| MarketError::UnknownListing {
            name: name.to_string(),
        })
    }

    /// Quotes a purchase request against the named listing's snapshot.
    pub fn quote_request(&self, name: &str, request: PurchaseRequest) -> Result<Quote> {
        self.route(name)?.quote_request(request)
    }

    /// One consistent accounting snapshot: per-listing counters plus the
    /// aggregates, all computed from a single published directory.
    pub fn stats(&self) -> MarketplaceStats {
        let mut out = MarketplaceStats::default();
        for (name, l) in &self.directory().listings {
            let stats = l.broker.market_stats();
            let row = ListingStats {
                name: name.clone(),
                state: l.state,
                epoch: stats.epoch.unwrap_or(0),
                expected_revenue: stats.expected_revenue.unwrap_or(0.0),
                sales: stats.sales as u64,
                revenue: stats.revenue,
                budget_rejects: stats.budget_rejects,
                exhausted_buyers: stats.exhausted_buyers,
                journal: stats.journal,
            };
            out.total_sales += row.sales;
            // nimbus-audit: allow(money-safety) — per-listing revenue aggregates sales already validated at commit
            out.total_revenue += row.revenue;
            out.listings.push(row);
        }
        out
    }

    /// Total revenue collected across every listing (one
    /// [`Marketplace::stats`] snapshot).
    pub fn total_collected_revenue(&self) -> f64 {
        self.stats().total_revenue
    }

    /// Total completed sales across every listing (one
    /// [`Marketplace::stats`] snapshot).
    pub fn total_sales(&self) -> usize {
        self.stats().total_sales as usize
    }

    /// The currently published directory; the mutex is held only to
    /// clone the `Arc`.
    fn directory(&self) -> Arc<Directory> {
        self.current.lock().clone()
    }

    /// Runs one admin mutation under the admin lock: clones the live
    /// directory, applies `f` (which may call into brokers), and swaps
    /// the result in. On error nothing is published.
    fn mutate<T>(&self, f: impl FnOnce(&mut BTreeMap<String, Listing>) -> Result<T>) -> Result<T> {
        let _admin = self.admin.lock();
        let mut listings = self.directory().listings.clone();
        let out = f(&mut listings)?;
        self.install(listings);
        Ok(out)
    }

    /// Publishes `listings` as the live directory. The caller holds `admin`.
    fn install(&self, listings: BTreeMap<String, Listing>) {
        let next = Arc::new(Directory { listings });
        // The superseded directory is released after the swap's lock.
        let superseded = std::mem::replace(&mut *self.current.lock(), next);
        drop(superseded);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::Sale;
    use crate::curves::{DemandCurve, MarketCurves, ValueCurve};
    use crate::seller::Seller;
    use nimbus_core::GaussianMechanism;
    use nimbus_data::catalog::{DatasetSpec, PaperDataset};
    use nimbus_ml::{LinearRegressionTrainer, LogisticRegressionTrainer};

    /// Quote + commit at `x` on the named listing.
    fn purchase(mp: &Marketplace, name: &str, x: f64, payment: f64) -> Result<Sale> {
        let broker = mp.route(name)?;
        let quote = broker.quote_request(PurchaseRequest::AtInverseNcp(x))?;
        broker.commit(quote, payment)
    }

    fn regression_seller(seed: u64) -> Seller {
        let (tt, _) = DatasetSpec::scaled(PaperDataset::Simulated1, 500)
            .materialize(seed)
            .unwrap();
        Seller::new(
            "reg",
            tt,
            MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform),
        )
    }

    fn regression_listing(name: &str, seed: u64) -> ListingBuilder {
        ListingBuilder::new(name, regression_seller(seed))
            .trainer(LinearRegressionTrainer::ridge(1e-6))
            .mechanism(GaussianMechanism)
            .model_kind("linear_regression")
            .n_price_points(20)
            .error_curve_samples(20)
            .seed(seed)
    }

    fn classification_listing(name: &str, seed: u64) -> ListingBuilder {
        let (tt, _) = DatasetSpec::scaled(PaperDataset::Simulated2, 500)
            .materialize(seed)
            .unwrap();
        let seller = Seller::new(
            "cls",
            tt,
            MarketCurves::new(
                ValueCurve::standard_sigmoid(),
                DemandCurve::MidPeaked { width: 0.2 },
            ),
        );
        ListingBuilder::new(name, seller)
            .trainer(LogisticRegressionTrainer::new(1e-4))
            .mechanism(GaussianMechanism)
            .model_kind("logistic_regression")
            .n_price_points(20)
            .error_curve_samples(20)
            .seed(seed)
    }

    #[test]
    fn menu_lists_all_models() {
        let mp = Marketplace::new();
        mp.list(regression_listing("ols-on-simulated1", 1)).unwrap();
        mp.list(classification_listing("logreg-on-simulated2", 2))
            .unwrap();
        let menu = mp.menu();
        assert_eq!(menu.len(), 2);
        assert!(menu.iter().all(|e| e.open));
        assert!(menu.iter().all(|e| e.state == ListingState::Published));
        assert!(menu.iter().all(|e| e.expected_revenue > 0.0));
        let names: Vec<&str> = menu.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["logreg-on-simulated2", "ols-on-simulated1"]);
    }

    #[test]
    fn purchases_route_to_the_right_broker() {
        let mp = Marketplace::new();
        mp.list(regression_listing("reg", 3)).unwrap();
        mp.list(classification_listing("cls", 4)).unwrap();
        let reg_sale = purchase(&mp, "reg", 10.0, 1e12).unwrap();
        let cls_sale = purchase(&mp, "cls", 10.0, 1e12).unwrap();
        assert_eq!(reg_sale.model.dim(), 20);
        assert_eq!(cls_sale.model.dim(), 20);
        assert_eq!(mp.total_sales(), 2);
        assert!((mp.total_collected_revenue() - (reg_sale.price + cls_sale.price)).abs() < 1e-9);
    }

    #[test]
    fn quote_then_commit_through_the_marketplace() {
        let mp = Marketplace::new();
        mp.list(regression_listing("reg", 9)).unwrap();
        let quote = mp
            .quote_request("reg", PurchaseRequest::AtInverseNcp(8.0))
            .unwrap();
        assert!(quote.price > 0.0);
        let sale = mp
            .route("reg")
            .and_then(|b| b.commit(quote, quote.price))
            .unwrap();
        assert!((sale.inverse_ncp - 8.0).abs() < 1e-12);
        assert_eq!(mp.total_sales(), 1);
    }

    #[test]
    fn unknown_listing_is_typed() {
        let mp = Marketplace::new();
        assert!(matches!(
            mp.broker("nope"),
            Err(MarketError::UnknownListing { name }) if name == "nope"
        ));
        assert!(matches!(
            purchase(&mp, "nope", 1.0, 1.0),
            Err(MarketError::UnknownListing { .. })
        ));
        assert!(matches!(
            mp.publish("nope"),
            Err(MarketError::UnknownListing { .. })
        ));
        assert!(matches!(
            mp.retire("nope"),
            Err(MarketError::UnknownListing { .. })
        ));
        assert!(mp.is_empty());
    }

    #[test]
    fn duplicate_listing_is_rejected_not_replaced() {
        let mp = Marketplace::new();
        mp.list(regression_listing("m", 5)).unwrap();
        purchase(&mp, "m", 5.0, 1e12).unwrap();
        assert_eq!(mp.total_sales(), 1);
        assert!(matches!(
            mp.list(regression_listing("m", 6)),
            Err(MarketError::DuplicateListing { name }) if name == "m"
        ));
        // The original listing (and its ledger) is untouched.
        assert_eq!(mp.total_sales(), 1);
        assert_eq!(mp.len(), 1);
    }

    #[test]
    fn draft_listings_refuse_buyers_until_published() {
        let mp = Marketplace::new();
        mp.draft(regression_listing("d", 7)).unwrap();
        assert!(matches!(
            mp.quote_request("d", PurchaseRequest::AtInverseNcp(5.0)),
            Err(MarketError::MarketNotOpen)
        ));
        let menu = mp.menu();
        assert_eq!(menu.len(), 1);
        assert!(!menu[0].open);
        assert_eq!(menu[0].state, ListingState::Draft);

        let expected = mp.publish("d").unwrap();
        assert!(expected > 0.0);
        purchase(&mp, "d", 5.0, 1e12).unwrap();
        let (_, meta) = mp.broker("d").unwrap();
        assert_eq!(meta.state, ListingState::Published);
        assert_eq!(meta.model_kind, "linear_regression");
        assert_eq!(meta.mechanism, "gaussian");
    }

    #[test]
    fn republish_invalidates_outstanding_quotes() {
        let mp = Marketplace::new();
        mp.list(regression_listing("m", 11)).unwrap();
        let stale = mp
            .quote_request("m", PurchaseRequest::AtInverseNcp(4.0))
            .unwrap();
        mp.publish("m").unwrap();
        assert!(matches!(
            mp.route("m").and_then(|b| b.commit(stale, stale.price)),
            Err(MarketError::QuoteExpired { .. })
        ));
        // A fresh quote against the new epoch commits fine.
        let fresh = mp
            .quote_request("m", PurchaseRequest::AtInverseNcp(4.0))
            .unwrap();
        assert!(fresh.snapshot_epoch > 1);
        mp.route("m")
            .and_then(|b| b.commit(fresh, fresh.price))
            .unwrap();
    }

    #[test]
    fn republish_pricing_kills_stale_quotes_with_quote_expired() {
        let mp = Marketplace::new();
        mp.list(regression_listing("m", 29)).unwrap();
        let stale = mp
            .quote_request("m", PurchaseRequest::AtInverseNcp(4.0))
            .unwrap();

        // An "observed" demand problem on the posted menu grid: same
        // inverse-NCP points and valuations, demand concentrated on the
        // accurate end as live traffic might reveal.
        let (broker, _) = mp.broker("m").unwrap();
        let posted = broker.posted_menu().unwrap();
        let n = posted.len();
        let snapshot_problem = {
            let quote = mp
                .quote_request("m", PurchaseRequest::AtInverseNcp(posted[0].0))
                .unwrap();
            assert_eq!(quote.snapshot_epoch, stale.snapshot_epoch);
            let a: Vec<f64> = posted.iter().map(|&(x, _)| x).collect();
            let v: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
            let b: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
            RevenueProblem::from_slices(&a, &b, &v).unwrap()
        };

        let expected = mp.republish_pricing("m", snapshot_problem).unwrap();
        assert!(expected > 0.0);

        // The pre-republish quote carries a dead epoch.
        assert!(matches!(
            mp.route("m").and_then(|b| b.commit(stale, stale.price)),
            Err(MarketError::QuoteExpired { quoted, current })
                if quoted == stale.snapshot_epoch && current > quoted
        ));
        // Fresh quotes against the re-priced table commit fine.
        let fresh = mp
            .quote_request("m", PurchaseRequest::AtInverseNcp(4.0))
            .unwrap();
        assert!(fresh.snapshot_epoch > stale.snapshot_epoch);
        mp.route("m")
            .and_then(|b| b.commit(fresh, fresh.price))
            .unwrap();
    }

    #[test]
    fn republish_pricing_refuses_drafts_and_retired() {
        let mp = Marketplace::new();
        mp.draft(regression_listing("d", 31)).unwrap();
        let (broker, _) = mp.broker("d").unwrap();
        assert!(!broker.is_open());
        let problem = RevenueProblem::from_slices(&[1.0, 2.0], &[1.0, 1.0], &[1.0, 2.0]).unwrap();
        assert!(matches!(
            mp.republish_pricing("d", problem.clone()),
            Err(MarketError::MarketNotOpen)
        ));
        mp.list(regression_listing("m", 33)).unwrap();
        mp.retire("m").unwrap();
        assert!(matches!(
            mp.republish_pricing("m", problem.clone()),
            Err(MarketError::ListingRetired { .. })
        ));
        assert!(matches!(
            mp.republish_pricing("nope", problem),
            Err(MarketError::UnknownListing { .. })
        ));
    }

    #[test]
    fn retirement_is_terminal_and_typed() {
        let mp = Marketplace::new();
        mp.list(regression_listing("m", 13)).unwrap();
        mp.retire("m").unwrap();
        assert!(matches!(
            mp.quote_request("m", PurchaseRequest::AtInverseNcp(2.0)),
            Err(MarketError::ListingRetired { name }) if name == "m"
        ));
        assert!(matches!(
            mp.publish("m"),
            Err(MarketError::ListingRetired { .. })
        ));
        assert!(matches!(
            mp.retire("m"),
            Err(MarketError::ListingRetired { .. })
        ));
        // Metadata remains inspectable for audit.
        let (_, meta) = mp.broker("m").unwrap();
        assert_eq!(meta.state, ListingState::Retired);
        assert_eq!(meta.state.name(), "retired");
    }

    #[test]
    fn stats_snapshot_is_internally_consistent() {
        let mp = Marketplace::new();
        mp.list(regression_listing("a", 17)).unwrap();
        mp.list(regression_listing("b", 19)).unwrap();
        purchase(&mp, "a", 3.0, 1e12).unwrap();
        purchase(&mp, "b", 3.0, 1e12).unwrap();
        purchase(&mp, "b", 6.0, 1e12).unwrap();
        let stats = mp.stats();
        assert_eq!(stats.listings.len(), 2);
        assert_eq!(stats.total_sales, 3);
        let row_sales: u64 = stats.listings.iter().map(|l| l.sales).sum();
        let row_revenue: f64 = stats.listings.iter().map(|l| l.revenue).sum();
        assert_eq!(stats.total_sales, row_sales);
        assert!((stats.total_revenue - row_revenue).abs() < 1e-12);
        assert!(stats.listings.iter().all(|l| l.epoch >= 1));
        assert_eq!(mp.total_sales(), 3);
    }

    #[test]
    fn open_listings_builds_and_publishes_in_parallel() {
        let builders = vec![
            regression_listing("p0", 21),
            regression_listing("p1", 22),
            classification_listing("p2", 23),
        ];
        let mp = Marketplace::open_listings(builders).unwrap();
        assert_eq!(mp.names(), vec!["p0", "p1", "p2"]);
        for name in mp.names() {
            purchase(&mp, &name, 4.0, 1e12).unwrap();
        }
        assert_eq!(mp.total_sales(), 3);
    }

    #[test]
    fn journal_root_uses_per_listing_layout() {
        let root =
            std::env::temp_dir().join(format!("nimbus-marketplace-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mp = Marketplace::new();
        mp.list(regression_listing("j", 29).journal_root(&root))
            .unwrap();
        purchase(&mp, "j", 5.0, 1e12).unwrap();
        let path = Marketplace::journal_path_for(&root, "j");
        assert_eq!(path, root.join("j").join("journal.log"));
        assert!(path.is_file(), "journal written under <root>/<listing>/");

        // A fresh marketplace over the same root replays the listing's
        // sales from its own journal.
        let mp2 = Marketplace::open_listings(vec![regression_listing("j", 29).journal_root(&root)])
            .unwrap();
        assert_eq!(mp2.total_sales(), 1);
        let (broker, _) = mp2.broker("j").unwrap();
        assert!(broker.recovery().is_some());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn journal_path_next_to_journal_root_is_rejected() {
        let dir =
            std::env::temp_dir().join(format!("nimbus-marketplace-both-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (path, root) = (dir.join("journal.log"), dir.join("root"));
        let mp = Marketplace::new();
        assert!(matches!(
            mp.list(
                regression_listing("j", 29)
                    .journal(&path)
                    .journal_root(&root)
            ),
            Err(MarketError::InvalidConfig { .. })
        ));
        assert!(
            !path.exists() && !root.exists(),
            "a refused listing writes nothing"
        );
        assert!(mp.is_empty());
    }

    #[test]
    fn invalid_listing_names_are_rejected() {
        let mp = Marketplace::new();
        assert!(matches!(
            mp.list(regression_listing("", 31)),
            Err(MarketError::InvalidConfig { .. })
        ));
        assert!(matches!(
            mp.list(regression_listing("a/b", 31)),
            Err(MarketError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn adopted_broker_rejects_reconfiguration() {
        let broker = Arc::new(
            Broker::builder(regression_seller(37))
                .trainer(LinearRegressionTrainer::ridge(1e-6))
                .mechanism(GaussianMechanism)
                .n_price_points(20)
                .error_curve_samples(20)
                .seed(37)
                .build()
                .unwrap(),
        );
        let mp = Marketplace::new();
        assert!(matches!(
            mp.list(ListingBuilder::from_broker("m", broker.clone()).seed(9)),
            Err(MarketError::InvalidConfig { .. })
        ));
        mp.list(ListingBuilder::from_broker("m", broker)).unwrap();
        purchase(&mp, "m", 5.0, 1e12).unwrap();
    }

    #[test]
    fn routing_stays_live_under_concurrent_admin_churn() {
        let mp = Arc::new(Marketplace::new());
        mp.list(regression_listing("hot", 41)).unwrap();
        std::thread::scope(|s| {
            let admin = {
                let mp = mp.clone();
                s.spawn(move || {
                    for i in 0..8 {
                        mp.publish("hot").unwrap();
                        mp.draft(regression_listing(&format!("churn-{i}"), 50 + i))
                            .unwrap();
                    }
                })
            };
            for _ in 0..4 {
                let mp = mp.clone();
                s.spawn(move || {
                    for _ in 0..200 {
                        // Quotes always succeed; commits may race a
                        // re-publish and die with the epoch check — both
                        // are valid outcomes, nothing may panic or wait
                        // on an admin operation.
                        let quote = mp
                            .quote_request("hot", PurchaseRequest::AtInverseNcp(5.0))
                            .unwrap();
                        match mp.route("hot").and_then(|b| b.commit(quote, quote.price)) {
                            Ok(_) => {}
                            Err(MarketError::QuoteExpired { .. }) => {}
                            Err(other) => panic!("unexpected error: {other}"),
                        }
                    }
                });
            }
            admin.join().unwrap();
        });
        assert_eq!(mp.len(), 9);
    }

    #[test]
    fn superseded_directories_drop_with_their_last_reader() {
        let mp = Marketplace::new();
        let mut published = vec![Arc::downgrade(&mp.directory())];
        mp.list(regression_listing("a", 43)).unwrap();
        published.push(Arc::downgrade(&mp.directory()));
        let epoch = |mp: &Marketplace| mp.route("a").unwrap().snapshot().unwrap().epoch();
        for i in 0..200 {
            // Re-publishing a published listing posts a new snapshot but
            // changes no listing, so it publishes no directory.
            let before = mp.directory();
            let was = epoch(&mp);
            mp.publish("a").unwrap();
            assert!(Arc::ptr_eq(&before, &mp.directory()));
            assert_eq!(epoch(&mp), was + 1);
            if i % 50 == 0 {
                let name = format!("b{i}");
                mp.list(regression_listing(&name, 44)).unwrap();
                published.push(Arc::downgrade(&mp.directory()));
                mp.retire(&name).unwrap();
                published.push(Arc::downgrade(&mp.directory()));
            }
        }
        // One directory per list and retire; only the live one remains.
        assert_eq!(published.len(), 10);
        let live = published.iter().filter(|w| w.upgrade().is_some()).count();
        assert_eq!(live, 1);
        assert!(published[0].upgrade().is_none());
        assert_eq!(mp.len(), 5);

        // Re-pricing changes no listing, so it publishes no directory.
        let before = mp.directory();
        let posted = mp.route("a").unwrap().posted_menu().unwrap();
        let a: Vec<f64> = posted.iter().map(|&(x, _)| x).collect();
        let b = vec![1.0; a.len()];
        let v: Vec<f64> = (0..a.len()).map(|i| 1.0 + i as f64).collect();
        let problem = RevenueProblem::from_slices(&a, &b, &v).unwrap();
        mp.republish_pricing("a", problem).unwrap();
        assert!(Arc::ptr_eq(&before, &mp.directory()));
    }
}
