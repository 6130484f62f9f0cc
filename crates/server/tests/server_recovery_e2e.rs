//! Crash-safety end to end: a journalled server is cut down mid-load,
//! restarted on the same journal, and the replayed ledger must reconcile
//! *exactly* — same transaction count, same ids, same total revenue —
//! with what clients were acknowledged over the wire. The multi-listing
//! variant journals three listings under one `--journal-dir`-style root
//! and replays each ledger independently. Plus the lost-ACK story: a
//! commit retried with the same idempotency key after a restart replays
//! the journalled sale instead of charging twice.

use nimbus_core::GaussianMechanism;
use nimbus_data::catalog::{DatasetSpec, PaperDataset};
use nimbus_market::curves::{DemandCurve, MarketCurves, ValueCurve};
use nimbus_market::journal::{FaultPlan, Journal};
use nimbus_market::{Broker, ListingBuilder, Marketplace, PurchaseRequest, Seller};
use nimbus_ml::LinearRegressionTrainer;
use nimbus_server::loadgen::{run_load, LoadConfig, LoadMode};
use nimbus_server::wire::{BatchItemMsg, BatchOutcomeMsg};
use nimbus_server::{ClientConfig, NimbusClient, NimbusServer, RetryPolicy, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn temp_journal(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "nimbus-server-recovery-{name}-{}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn journaled_broker(seed: u64, journal: &Path) -> Arc<Broker> {
    let (dataset, _) = DatasetSpec::scaled(PaperDataset::Simulated1, 600)
        .materialize(seed)
        .unwrap();
    let curves = MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform);
    let broker = Broker::builder(Seller::new("recovery-e2e", dataset, curves))
        .trainer(LinearRegressionTrainer::ridge(1e-6))
        .mechanism(GaussianMechanism)
        .n_price_points(24)
        .error_curve_samples(12)
        .seed(seed)
        .journal(journal)
        .build()
        .unwrap();
    broker.open_market().unwrap();
    Arc::new(broker)
}

/// Hosts an already-recovered broker as the sole listing of a fresh
/// marketplace. Adoption neither rebuilds nor re-opens the broker, so the
/// replayed ledger and epoch carry over untouched.
fn host(broker: Arc<Broker>) -> Arc<Marketplace> {
    let marketplace = Marketplace::new();
    marketplace
        .list(ListingBuilder::from_broker("recovery-e2e", broker))
        .unwrap();
    Arc::new(marketplace)
}

fn client_config(seed: u64) -> ClientConfig {
    ClientConfig {
        retry: RetryPolicy {
            seed,
            ..RetryPolicy::default()
        },
        ..ClientConfig::default()
    }
}

/// The acceptance gate: a journalled server cut down under live purchase
/// traffic, restarted on the same log, must replay a ledger whose
/// transaction count, ids and total revenue exactly match the commits
/// clients were ACKed — and keep selling from where it left off.
#[test]
fn killed_server_recovers_every_acked_commit() {
    let journal = temp_journal("kill-restart");

    // Boot 1: serve purchases and pull the plug mid-load.
    let broker = journaled_broker(61, &journal);
    let server = NimbusServer::start(
        host(broker.clone()),
        "recovery-e2e",
        "127.0.0.1:0",
        ServerConfig {
            shards: 2,
            workers_per_shard: 2,
            queue_capacity: 32,
            handle_delay: Some(Duration::from_millis(1)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let report = std::thread::scope(|scope| {
        let load = scope.spawn(move || {
            run_load(
                addr,
                &LoadConfig {
                    threads: 4,
                    requests_per_thread: 100,
                    mode: LoadMode::Buy,
                    client: client_config(0),
                    busy_retries: 0,
                    mix: Vec::new(),
                    ..LoadConfig::default()
                },
            )
        });
        std::thread::sleep(Duration::from_millis(120));
        server.shutdown();
        load.join().unwrap()
    });
    assert!(
        report.ok > 0,
        "some purchases must have landed before the cut"
    );
    let acked: Vec<_> = broker.ledger().transactions().to_vec();
    assert_eq!(acked.len() as u64, report.ok);
    drop(broker);

    // Boot 2: a fresh broker process on the same journal.
    let broker = journaled_broker(61, &journal);
    let recovery = broker
        .recovery()
        .expect("journalled broker reports recovery");
    assert!(
        recovery.truncated.is_none(),
        "clean shutdown leaves no torn tail"
    );

    // Exact reconciliation: count, ids and revenue of the replayed ledger
    // match the client-ACKed books bit for bit.
    let replayed = broker.ledger();
    assert_eq!(replayed.count() as u64, report.ok);
    let replayed_ids: Vec<u64> = replayed.transactions().iter().map(|t| t.sequence).collect();
    let acked_ids: Vec<u64> = acked.iter().map(|t| t.sequence).collect();
    assert_eq!(replayed_ids, acked_ids);
    for (r, a) in replayed.transactions().iter().zip(&acked) {
        assert_eq!(r.price.to_bits(), a.price.to_bits());
    }
    // Summed in the same (id) order, revenue matches bit for bit, and so
    // does the broker's own total; the load generator's arrival-order
    // total only reassociates f64 addition.
    let acked_revenue: f64 = acked.iter().map(|t| t.price).sum();
    assert_eq!(replayed.total_revenue().to_bits(), acked_revenue.to_bits());
    assert_eq!(
        broker.collected_revenue().to_bits(),
        acked_revenue.to_bits()
    );
    assert!((replayed.total_revenue() - report.revenue).abs() < 1e-6);
    assert!((broker.collected_revenue() - report.revenue).abs() < 1e-6);

    // The restarted server keeps selling: new epoch, fresh ids continue
    // the recovered sequence.
    let server = NimbusServer::start(
        host(broker.clone()),
        "recovery-e2e",
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = NimbusClient::connect(server.local_addr(), &client_config(0)).unwrap();
    let sale = client
        .buy(None, PurchaseRequest::AtInverseNcp(10.0))
        .unwrap();
    assert_eq!(sale.transaction, report.ok);
    assert_eq!(broker.sales_count() as u64, report.ok + 1);
    server.shutdown();
    let _ = std::fs::remove_file(&journal);
}

/// The lost-ACK scenario: a commit whose response never arrived is
/// retried with the same idempotency key — across a server restart — and
/// yields the same sale exactly once in the journal.
#[test]
fn same_nonce_retry_across_restart_charges_once() {
    let journal = temp_journal("lost-ack");

    // Boot 1: one idempotent purchase lands; pretend its ACK was lost.
    let broker = journaled_broker(67, &journal);
    let server = NimbusServer::start(
        host(broker.clone()),
        "recovery-e2e",
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();
    // A fixed retry seed pins the client's nonce stream, so a second
    // client with the same seed re-sends the *same* idempotency key —
    // exactly what a crashed-and-restarted buyer replaying its intent log
    // would do.
    let mut client = NimbusClient::connect(addr, &client_config(99)).unwrap();
    let quote = client
        .quote(None, PurchaseRequest::AtInverseNcp(10.0))
        .unwrap();
    let first = client.commit_idempotent(&quote, quote.price).unwrap();
    assert_eq!(broker.sales_count(), 1);
    server.shutdown();
    drop(client);
    drop(broker);

    // Boot 2: same journal, later epoch. The retried commit presents the
    // old epoch and the same nonce.
    let broker = journaled_broker(67, &journal);
    assert_eq!(broker.sales_count(), 1);
    let server = NimbusServer::start(
        host(broker.clone()),
        "recovery-e2e",
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut retry_client = NimbusClient::connect(server.local_addr(), &client_config(99)).unwrap();
    let replayed = retry_client.commit_idempotent(&quote, quote.price).unwrap();

    // Same sale, not a second one: id, price and weights all match, and
    // the books did not grow.
    assert_eq!(replayed.transaction, first.transaction);
    assert_eq!(replayed.price.to_bits(), first.price.to_bits());
    assert_eq!(replayed.weights.len(), first.weights.len());
    for (r, f) in replayed.weights.iter().zip(&first.weights) {
        assert_eq!(r.to_bits(), f.to_bits());
    }
    assert_eq!(broker.sales_count(), 1);
    assert_eq!(broker.collected_revenue().to_bits(), first.price.to_bits());

    // A *different* nonce at the dead epoch is not deduplicated: it gets
    // the honest epoch rejection.
    let err = retry_client
        .commit_idempotent(&quote, quote.price)
        .unwrap_err();
    match err {
        nimbus_server::ServerError::Remote { code, .. } => {
            assert_eq!(code, nimbus_server::ErrorCode::QuoteExpired);
        }
        other => panic!("expected a remote QuoteExpired, got {other:?}"),
    }
    server.shutdown();
    let _ = std::fs::remove_file(&journal);
}

/// Regression: compaction (since deleted) used to write one checkpoint
/// record holding the whole book. Past ~18.7k keyed sales that record
/// exceeded the journal's record cap, and reopening salvaged the log down
/// to its header — an empty book. More than twice that many keyed,
/// buyer-attributed sales go in as `BATCH_COMMIT` frames, the server shuts
/// down, and the reopened append-only journal must still hold every
/// transaction, dedup key and account; a keyed retry must replay the
/// identical sale.
#[test]
fn books_past_the_checkpoint_record_cap_reopen_whole() {
    const BATCH: usize = 256;
    const SALES: usize = 147 * BATCH; // 37 632 > 2 × 18.7k
    const BUYERS: u64 = 97;
    let journal = temp_journal("past-checkpoint-cap");
    let broker = journaled_broker(71, &journal);
    let server = NimbusServer::start(
        host(broker.clone()),
        "recovery-e2e",
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = NimbusClient::connect(server.local_addr(), &client_config(71)).unwrap();
    let quote = client
        .quote(None, PurchaseRequest::AtInverseNcp(10.0))
        .unwrap();
    let item = |i: usize| BatchItemMsg {
        x: quote.x,
        snapshot_epoch: quote.snapshot_epoch,
        payment: quote.price,
        nonce: Some(i as u64),
        buyer: Some(i as u64 % BUYERS),
    };
    let mut first = None;
    for start in (0..SALES).step_by(BATCH) {
        let outcomes = client
            .commit_batch(None, (start..start + BATCH).map(item).collect())
            .unwrap();
        for outcome in outcomes {
            match outcome {
                BatchOutcomeMsg::Sale(sale) => {
                    first.get_or_insert(sale);
                }
                BatchOutcomeMsg::Error { code, message } => panic!("{code:?}: {message}"),
            }
        }
    }
    let first = first.unwrap();
    let transactions = broker.ledger().transactions().to_vec();
    let accounts = broker.accounts().snapshot();
    assert_eq!(transactions.len(), SALES);
    server.shutdown();
    drop(client);
    drop(broker);

    let (_, recovery) = Journal::open(&journal, 0, FaultPlan::new()).unwrap();
    assert!(recovery.truncated.is_none(), "{:?}", recovery.truncated);
    assert_eq!(recovery.transactions.len(), SALES);
    assert_eq!(recovery.dedup.len(), SALES);
    let broker = journaled_broker(71, &journal);
    assert_eq!(broker.ledger().transactions(), &transactions[..]);
    assert_eq!(broker.accounts().snapshot(), accounts);
    let keys: Vec<(u64, u64)> = recovery.dedup.keys().copied().collect();
    let expected: Vec<(u64, u64)> = (0..SALES as u64)
        .map(|n| (quote.snapshot_epoch, n))
        .collect();
    assert_eq!(keys, expected);

    // A keyed retry of the first sale replays it bit for bit, charging
    // nothing, even though the reopened market posts a later epoch.
    let replayed = broker
        .commit_at_idempotent_for(quote.x, quote.snapshot_epoch, quote.price, 0, Some(0))
        .unwrap();
    assert_eq!(replayed.transaction.sequence, first.transaction);
    let weights: Vec<u64> = replayed
        .model
        .weights()
        .as_slice()
        .iter()
        .map(|w| w.to_bits())
        .collect();
    let original: Vec<u64> = first.weights.iter().map(|w| w.to_bits()).collect();
    assert_eq!(weights, original);
    assert_eq!(broker.sales_count(), SALES);
    assert_eq!(broker.accounts().snapshot(), accounts);
    let _ = std::fs::remove_file(&journal);
}

/// Builds a metered journalled broker: every commit naming a buyer id
/// charges that buyer's per-listing noise budget (`Σx ≤ budget`).
fn metered_broker(seed: u64, journal: &Path, budget: f64) -> Arc<Broker> {
    let (dataset, _) = DatasetSpec::scaled(PaperDataset::Simulated1, 600)
        .materialize(seed)
        .unwrap();
    let curves = MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform);
    let broker = Broker::builder(Seller::new("recovery-e2e", dataset, curves))
        .trainer(LinearRegressionTrainer::ridge(1e-6))
        .mechanism(GaussianMechanism)
        .n_price_points(24)
        .error_curve_samples(12)
        .seed(seed)
        .journal(journal)
        .buyer_budget(budget)
        .build()
        .unwrap();
    broker.open_market().unwrap();
    Arc::new(broker)
}

/// Tentpole acceptance: kill-9 the server between a metered commit and
/// its ACK, restart on the same journal, and the same-nonce retry must
/// charge money AND budget exactly once — the replayed account already
/// carries the spend, the dedup replays the sale without a second
/// charge, and exhaustion survives the crash as a typed pre-journal
/// reject.
#[test]
fn budget_survives_kill9_and_same_nonce_retry_charges_once() {
    let journal = temp_journal("budget-kill9");
    // Budget fits exactly one x=10 purchase: a second metered buy of the
    // same size must exhaust.
    let budget = 15.0;

    // Boot 1: buyer 7 lands one metered idempotent purchase; the "ACK"
    // is considered lost (we keep the quote to replay the intent).
    let broker = metered_broker(83, &journal, budget);
    let server = NimbusServer::start(
        host(broker.clone()),
        "recovery-e2e",
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = NimbusClient::connect(server.local_addr(), &client_config(99)).unwrap();
    client.set_buyer(Some(7));
    let quote = client
        .quote(None, PurchaseRequest::AtInverseNcp(10.0))
        .unwrap();
    let first = client.commit_idempotent(&quote, quote.price).unwrap();
    assert_eq!(broker.sales_count(), 1);
    let spent_before = broker.accounts().spent(7);
    assert_eq!(spent_before.to_bits(), quote.x.to_bits());
    // kill -9: no graceful broker teardown beyond dropping the process
    // state; the journal is all that survives.
    server.shutdown();
    drop(client);
    drop(broker);

    // Boot 2: same journal. Recovery must replay the *account* alongside
    // the ledger — buyer 7's spend is already on the books.
    let broker = metered_broker(83, &journal, budget);
    assert_eq!(broker.sales_count(), 1);
    assert_eq!(broker.accounts().budget(), Some(budget));
    assert_eq!(broker.accounts().spent(7).to_bits(), spent_before.to_bits());

    let server = NimbusServer::start(
        host(broker.clone()),
        "recovery-e2e",
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut retry_client = NimbusClient::connect(server.local_addr(), &client_config(99)).unwrap();
    retry_client.set_buyer(Some(7));

    // The crashed buyer replays its intent: same nonce, same buyer, same
    // dead-epoch quote. It must get the journalled sale back — charged
    // once in money AND once in budget.
    let replayed = retry_client.commit_idempotent(&quote, quote.price).unwrap();
    assert_eq!(replayed.transaction, first.transaction);
    assert_eq!(replayed.price.to_bits(), first.price.to_bits());
    assert_eq!(broker.sales_count(), 1);
    assert_eq!(broker.collected_revenue().to_bits(), first.price.to_bits());
    assert_eq!(
        broker.accounts().spent(7).to_bits(),
        spent_before.to_bits(),
        "same-nonce retry across restart double-charged the budget"
    );

    // Exhaustion survives the crash: a fresh x=10 quote would overdraw
    // the replayed account, so the commit is rejected with the typed
    // error before any journal write.
    let journal_len = std::fs::metadata(&journal).unwrap().len();
    let fresh = retry_client
        .quote(None, PurchaseRequest::AtInverseNcp(10.0))
        .unwrap();
    let err = retry_client
        .commit_idempotent(&fresh, fresh.price)
        .unwrap_err();
    match err {
        nimbus_server::ServerError::Remote {
            code, ref message, ..
        } => {
            assert_eq!(code, nimbus_server::ErrorCode::BudgetExhausted);
            assert!(
                message.contains("budget_exhausted buyer=7"),
                "message should carry the hint: {message}"
            );
        }
        other => panic!("expected a remote BudgetExhausted, got {other:?}"),
    }
    assert_eq!(broker.sales_count(), 1, "rejected commit must not sell");
    assert_eq!(
        std::fs::metadata(&journal).unwrap().len(),
        journal_len,
        "budget rejection must precede any journal write"
    );
    assert_eq!(broker.accounts().budget_rejects(), 1);
    // Graceful, not terminal: buyer 7 keeps 5 units of headroom — the
    // gauge counts fully-spent buyers only, and the typed reject's
    // `remaining` hint lets the client re-quote a smaller x.
    assert_eq!(broker.accounts().exhausted_buyers(), 0);
    assert_eq!(broker.accounts().remaining(7), Some(budget - spent_before));

    // Anonymous buyers are unmetered — the listing still sells.
    retry_client.set_buyer(None);
    let sale = retry_client
        .buy(None, PurchaseRequest::AtInverseNcp(10.0))
        .unwrap();
    assert_eq!(sale.transaction, first.transaction + 1);
    assert_eq!(broker.sales_count(), 2);
    assert_eq!(
        broker.accounts().spent(7).to_bits(),
        spent_before.to_bits(),
        "anonymous sales must not touch buyer accounts"
    );

    // And the wire-level ACCOUNT view agrees with the replayed ledger.
    let view = retry_client.account(None, 7).unwrap();
    assert_eq!(view.spent.to_bits(), spent_before.to_bits());
    assert_eq!(view.budget.map(f64::to_bits), Some(budget.to_bits()));
    assert_eq!(
        view.remaining.map(f64::to_bits),
        Some((budget - spent_before).to_bits())
    );
    server.shutdown();
    let _ = std::fs::remove_file(&journal);
}

/// A listing builder journalling under `<root>/<name>/journal.log` — the
/// layout `nimbus serve --journal-dir` uses.
fn rooted_listing(name: &str, seed: u64, root: &Path) -> ListingBuilder {
    let (dataset, _) = DatasetSpec::scaled(PaperDataset::Simulated1, 600)
        .materialize(seed)
        .unwrap();
    let curves = MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform);
    ListingBuilder::new(name, Seller::new(name, dataset, curves))
        .trainer(LinearRegressionTrainer::ridge(1e-6))
        .mechanism(GaussianMechanism)
        .n_price_points(24)
        .error_curve_samples(12)
        .seed(seed)
        .journal_root(root)
}

/// Tentpole acceptance: a marketplace journalling three listings under one
/// root is cut down under a routed mixed load, rebooted on the same root,
/// and every listing's replayed ledger must reconcile independently —
/// per-listing counts, ids and revenue each matching that listing's
/// client-ACKed slice, never bleeding into a sibling's books.
#[test]
fn killed_marketplace_recovers_every_listing_independently() {
    let root = std::env::temp_dir().join(format!(
        "nimbus-marketplace-recovery-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let names = ["alpha-journal", "beta-journal", "gamma-journal"];
    let builders = |root: &Path| {
        names
            .iter()
            .enumerate()
            .map(|(i, n)| rooted_listing(n, 71 + i as u64, root))
            .collect::<Vec<_>>()
    };

    // Boot 1: three journalled listings under a routed buy mix; pull the
    // plug mid-load.
    let marketplace = Arc::new(Marketplace::open_listings(builders(&root)).unwrap());
    let server = NimbusServer::start(
        marketplace.clone(),
        names[0],
        "127.0.0.1:0",
        ServerConfig {
            shards: 2,
            workers_per_shard: 2,
            queue_capacity: 32,
            handle_delay: Some(Duration::from_millis(1)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let report = std::thread::scope(|scope| {
        let load = scope.spawn(move || {
            run_load(
                addr,
                &LoadConfig {
                    threads: 6,
                    requests_per_thread: 100,
                    mode: LoadMode::Buy,
                    client: client_config(0),
                    busy_retries: 0,
                    mix: names.iter().map(|n| (n.to_string(), 1)).collect(),
                    ..LoadConfig::default()
                },
            )
        });
        std::thread::sleep(Duration::from_millis(150));
        server.shutdown();
        load.join().unwrap()
    });
    assert!(
        report.ok > 0,
        "some purchases must have landed before the cut"
    );
    // Each listing's ACKed books, straight off the wire reports.
    let mut acked_ids = Vec::new();
    for name in names {
        let broker = marketplace.route(name).unwrap();
        let ids: Vec<u64> = broker
            .ledger()
            .transactions()
            .iter()
            .map(|t| t.sequence)
            .collect();
        acked_ids.push(ids);
    }
    let acked = report.per_listing.clone();
    drop(marketplace);

    // The journals landed in the documented per-listing layout.
    for name in names {
        assert!(
            Marketplace::journal_path_for(&root, name).is_file(),
            "missing journal for {name}"
        );
    }

    // Boot 2: same root, fresh marketplace. Recovery runs per listing (in
    // parallel), and each ledger replays only its own log.
    let marketplace = Marketplace::open_listings(builders(&root)).unwrap();
    for (i, name) in names.iter().enumerate() {
        let broker = marketplace.route(name).unwrap();
        let recovery = broker
            .recovery()
            .expect("journalled listing reports recovery");
        assert!(recovery.truncated.is_none(), "{name}: torn tail");
        let (acked_ok, acked_revenue) = acked
            .iter()
            .find(|s| s.listing == *name)
            .map(|s| (s.ok, s.revenue))
            .unwrap_or((0, 0.0));
        assert_eq!(broker.sales_count() as u64, acked_ok, "{name}");
        assert!(
            (broker.collected_revenue() - acked_revenue).abs() < 1e-6,
            "{name}: ledger {} vs clients {acked_revenue}",
            broker.collected_revenue(),
        );
        let replayed_ids: Vec<u64> = broker
            .ledger()
            .transactions()
            .iter()
            .map(|t| t.sequence)
            .collect();
        assert_eq!(replayed_ids, acked_ids[i], "{name}");
    }
    // The marketplace-wide snapshot sums exactly what clients were ACKed.
    let stats = marketplace.stats();
    assert_eq!(stats.total_sales, report.ok);
    assert!((stats.total_revenue - report.revenue).abs() < 1e-6);
    let _ = std::fs::remove_dir_all(&root);
}
