//! Concurrency guarantees of the snapshot-serving broker.
//!
//! The redesign's contract: after `open_market()` the serving path is a pure
//! read of one immutable snapshot, sale noise is a function of
//! `(seed, transaction id)` alone, and the id-ordered ledger holds the same
//! books, to the bit, regardless of thread interleaving. These tests drive 8 threads
//! against one broker and then *replay the same transaction ids
//! sequentially* on a fresh broker — the two runs must agree to the bit.

use nimbus_core::arbitrage::check_arbitrage_free;
use nimbus_core::GaussianMechanism;
use nimbus_data::catalog::{DatasetSpec, PaperDataset};
use nimbus_market::curves::{DemandCurve, MarketCurves, ValueCurve};
use nimbus_market::parallel::parallel_map;
use nimbus_market::{Broker, MarketError, PurchaseRequest, Sale, Seller};
use nimbus_ml::LinearRegressionTrainer;
use nimbus_optim::RevenueProblem;
use std::sync::atomic::{AtomicBool, Ordering};

const THREADS: usize = 8;
const PURCHASES_PER_THREAD: usize = 100;

fn build_broker(seed: u64) -> Broker {
    let (dataset, _) = DatasetSpec::scaled(PaperDataset::Simulated1, 1_200)
        .materialize(seed)
        .unwrap();
    let curves = MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform);
    Broker::builder(Seller::new("conc", dataset, curves))
        .trainer(LinearRegressionTrainer::ridge(1e-6))
        .mechanism(GaussianMechanism)
        .n_price_points(40)
        .error_curve_samples(20)
        .seed(seed)
        .build()
        .unwrap()
}

/// The x each (thread, iteration) pair asks for — any deterministic spread
/// over the menu's support works; what matters is that threads interleave.
fn requested_x(thread: usize, i: usize) -> f64 {
    1.0 + ((thread * PURCHASES_PER_THREAD + i * 7) % 99) as f64
}

#[test]
fn eight_threads_match_sequential_replay_exactly() {
    let seed = 21;
    let broker = build_broker(seed);
    broker.open_market().unwrap();

    // Phase 1: 8 threads x 100 purchases, racing on one broker. Each sale
    // records (transaction id, x, delivered weights).
    let mut concurrent: Vec<(u64, f64, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let broker = &broker;
                scope.spawn(move || {
                    (0..PURCHASES_PER_THREAD)
                        .map(|i| {
                            let x = requested_x(t, i);
                            let quote = broker
                                .quote_request(PurchaseRequest::AtInverseNcp(x))
                                .unwrap();
                            let sale = broker.commit(quote, quote.price).unwrap();
                            (
                                sale.transaction.sequence,
                                sale.inverse_ncp,
                                sale.model.weights().as_slice().to_vec(),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    concurrent.sort_by_key(|(seq, _, _)| *seq);

    // Transaction ids are dense: every id in 0..800 was assigned once.
    let total = THREADS * PURCHASES_PER_THREAD;
    assert_eq!(concurrent.len(), total);
    for (expect, (seq, _, _)) in concurrent.iter().enumerate() {
        assert_eq!(*seq, expect as u64);
    }

    // The ledger agrees with what the buyers saw.
    let ledger = broker.ledger();
    assert_eq!(ledger.count(), total);
    let seen_revenue: f64 = broker.collected_revenue();
    assert_eq!(ledger.total_revenue().to_bits(), seen_revenue.to_bits());

    // Phase 2: sequential replay. A fresh broker with the same seed is asked
    // for the same x's *in transaction-id order*; ids are re-assigned
    // 0,1,2,... so every sale must reproduce the concurrent run bit-for-bit
    // — noise is a pure function of (seed, transaction id, x).
    let replay = build_broker(seed);
    replay.open_market().unwrap();
    for (seq, x, weights) in &concurrent {
        let quote = replay
            .quote_request(PurchaseRequest::AtInverseNcp(*x))
            .unwrap();
        let sale = replay.commit(quote, quote.price).unwrap();
        assert_eq!(sale.transaction.sequence, *seq);
        assert_eq!(
            sale.model.weights().as_slice(),
            weights.as_slice(),
            "weights diverged at transaction {seq}"
        );
    }
    assert_eq!(replay.sales_count(), broker.sales_count());
    // Entry-by-entry the two ledgers are bitwise identical…
    for (c, s) in ledger
        .transactions()
        .iter()
        .zip(replay.ledger().transactions())
    {
        assert_eq!(c.sequence, s.sequence);
        assert_eq!(c.inverse_ncp, s.inverse_ncp);
        assert_eq!(c.price, s.price);
    }
    // …and so are the totals, which fold in id order however the race
    // ordered the inserts.
    assert_eq!(
        replay.collected_revenue().to_bits(),
        broker.collected_revenue().to_bits(),
        "ledger totals diverged: sequential {} vs concurrent {}",
        replay.collected_revenue(),
        broker.collected_revenue()
    );

    // And the snapshot the threads were served from is still arbitrage-free.
    let snapshot = broker.snapshot().unwrap();
    let grid: Vec<f64> = snapshot.menu().iter().map(|(x, _)| *x).collect();
    let report = check_arbitrage_free(snapshot.pricing(), &grid, 1e-9).unwrap();
    assert!(report.is_arbitrage_free(), "{report:?}");
}

/// Sixteen writer threads race on one ledger; its rows must come out in
/// dense id order and match a sequential replay of the same purchases.
#[test]
fn sixteen_threads_commit_into_one_id_ordered_ledger() {
    const THREADS_16: usize = 16;
    const PER_THREAD: usize = 32;
    let broker = build_broker(63);
    broker.open_market().unwrap();

    let mut sales: Vec<(u64, f64, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS_16)
            .map(|t| {
                let broker = &broker;
                scope.spawn(move || {
                    (0..PER_THREAD)
                        .map(|i| {
                            let x = 1.0 + ((t * PER_THREAD + i * 5) % 99) as f64;
                            let quote = broker
                                .quote_request(PurchaseRequest::AtInverseNcp(x))
                                .unwrap();
                            let sale = broker.commit(quote, quote.price).unwrap();
                            (sale.transaction.sequence, sale.inverse_ncp, sale.price)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    sales.sort_by_key(|(seq, _, _)| *seq);

    let total = THREADS_16 * PER_THREAD;
    let ledger = broker.ledger();
    assert_eq!(ledger.count(), total);

    // However the inserts interleaved, the rows are the dense ids 0..512
    // in order, each with the price its buyer was charged.
    let rows: Vec<(u64, f64)> = ledger
        .transactions()
        .iter()
        .map(|t| (t.sequence, t.price))
        .collect();
    let acked: Vec<(u64, f64)> = sales.iter().map(|&(seq, _, price)| (seq, price)).collect();
    assert_eq!(rows, acked);
    assert!(rows
        .iter()
        .enumerate()
        .all(|(i, &(seq, _))| seq == i as u64));

    // Sequential replay in transaction-id order: same sale count, same
    // per-transaction books, totals equal to the bit.
    let replay = build_broker(63);
    replay.open_market().unwrap();
    for (seq, x, price) in &sales {
        let quote = replay
            .quote_request(PurchaseRequest::AtInverseNcp(*x))
            .unwrap();
        let sale = replay.commit(quote, quote.price).unwrap();
        assert_eq!(sale.transaction.sequence, *seq);
        assert_eq!(sale.price, *price, "price diverged at transaction {seq}");
    }
    assert_eq!(replay.sales_count(), broker.sales_count());
    assert_eq!(
        replay.collected_revenue().to_bits(),
        broker.collected_revenue().to_bits()
    );
    assert_eq!(
        ledger.total_revenue().to_bits(),
        replay.ledger().total_revenue().to_bits()
    );
}

/// The quote→commit epoch protocol: a quote priced before `open_market()`
/// re-runs is pinned to the superseded snapshot and must fail with the
/// typed epoch mismatch — never silently honor stale prices.
#[test]
fn quote_from_before_market_reopen_fails_with_epoch_mismatch() {
    let broker = build_broker(77);
    broker.open_market().unwrap();
    let first_epoch = broker.snapshot().unwrap().epoch();
    let stale = broker
        .quote_request(PurchaseRequest::AtInverseNcp(10.0))
        .unwrap();
    assert_eq!(stale.snapshot_epoch, first_epoch);

    // Re-open: a new snapshot (new epoch) replaces the one quoted against.
    broker.open_market().unwrap();
    let current_epoch = broker.snapshot().unwrap().epoch();
    assert!(current_epoch > first_epoch);

    match broker.commit(stale, stale.price) {
        Err(MarketError::QuoteExpired { quoted, current }) => {
            assert_eq!(quoted, first_epoch);
            assert_eq!(current, current_epoch);
        }
        other => panic!("expected QuoteExpired, got {other:?}"),
    }
    assert_eq!(broker.sales_count(), 0, "a stale quote must record no sale");

    // A quote against the new snapshot commits fine.
    let fresh = broker
        .quote_request(PurchaseRequest::AtInverseNcp(10.0))
        .unwrap();
    assert_eq!(fresh.snapshot_epoch, current_epoch);
    broker.commit(fresh, fresh.price).unwrap();
    assert_eq!(broker.sales_count(), 1);
}

/// Quotes and commits every request over up to `threads` scoped threads;
/// results come back in request order.
fn buy_all(
    broker: &Broker,
    requests: &[PurchaseRequest],
    threads: usize,
) -> Vec<Result<Sale, MarketError>> {
    parallel_map(requests.to_vec(), Some(threads), |request| {
        let quote = broker.quote_request(request)?;
        broker.commit(quote, quote.price)
    })
}

#[test]
fn multithreaded_commits_match_single_threaded_books() {
    let requests: Vec<PurchaseRequest> = (0..THREADS * PURCHASES_PER_THREAD)
        .map(|i| match i % 3 {
            0 => PurchaseRequest::AtInverseNcp(1.0 + (i % 99) as f64),
            1 => PurchaseRequest::ErrorBudget(1.0 / (1.0 + (i % 80) as f64)),
            _ => PurchaseRequest::PriceBudget(10.0 + (i % 60) as f64),
        })
        .collect();

    let wide = build_broker(33);
    wide.open_market().unwrap();
    let wide_sales = buy_all(&wide, &requests, THREADS);
    assert!(wide_sales.iter().all(|s| s.is_ok()));

    let narrow = build_broker(33);
    narrow.open_market().unwrap();
    let narrow_sales = buy_all(&narrow, &requests, 1);

    // Prices come from the immutable snapshot (never from the racing
    // transaction counter), so each request costs the same under either
    // thread count, and the two ledgers record the same multiset of sales.
    for (w, n) in wide_sales.iter().zip(&narrow_sales) {
        let (w, n) = (w.as_ref().unwrap(), n.as_ref().unwrap());
        assert_eq!(w.price, n.price);
        assert_eq!(w.inverse_ncp, n.inverse_ncp);
    }
    // Totals only up to f64 reassociation: ids follow arrival order, which
    // differs across thread counts, so the two ledgers fold the same prices
    // in different orders.
    assert!((wide.collected_revenue() - narrow.collected_revenue()).abs() < 1e-6);
}

/// Readers racing a publisher: each reader's view of the epoch only moves
/// forward, and every quote prices off exactly the menu of the snapshot
/// whose epoch it carries, while that snapshot is being superseded.
#[test]
fn readers_see_monotone_epochs_while_a_publisher_republishes() {
    const REPUBLISHES: u64 = 500;
    let broker = build_broker(91);
    broker.open_market().unwrap();
    // Two menus on one grid, told apart by epoch parity: the research
    // problem at odd epochs, a re-weighted demand at even ones.
    let odd = broker.snapshot().unwrap();
    let grid = odd.problem().parameters();
    let demand: Vec<f64> = (0..grid.len()).map(|i| (i + 1) as f64).collect();
    let values: Vec<f64> = (0..grid.len()).map(|i| 1.0 + i as f64).collect();
    let reweighted = RevenueProblem::from_slices(&grid, &demand, &values).unwrap();
    broker.republish_with_problem(reweighted.clone()).unwrap();
    let even = broker.snapshot().unwrap();
    assert_eq!((odd.epoch(), even.epoch()), (1, 2));
    assert_ne!(odd.menu(), even.menu());
    let menu_of = |epoch: u64| if epoch % 2 == 1 { &odd } else { &even };

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for t in 0..4 {
            let (broker, done, menu_of, grid) = (&broker, &done, &menu_of, &grid);
            scope.spawn(move || {
                let mut last = 0;
                let mut reads = 0;
                while !done.load(Ordering::Acquire) || reads < 100 {
                    let snapshot = broker.snapshot().unwrap();
                    assert!(snapshot.epoch() >= last, "epoch went backwards");
                    assert_eq!(snapshot.menu(), menu_of(snapshot.epoch()).menu());
                    let request = PurchaseRequest::AtInverseNcp(grid[(t + reads) % grid.len()]);
                    let quote = broker.quote_request(request).unwrap();
                    assert!(quote.snapshot_epoch >= snapshot.epoch());
                    let expected = menu_of(quote.snapshot_epoch).quote(request).unwrap();
                    assert_eq!(quote.price.to_bits(), expected.price.to_bits());
                    assert_eq!(quote.x.to_bits(), expected.x.to_bits());
                    last = quote.snapshot_epoch;
                    reads += 1;
                }
            });
        }
        scope.spawn(|| {
            for i in 0..REPUBLISHES {
                let problem = if i % 2 == 0 {
                    odd.problem().clone()
                } else {
                    reweighted.clone()
                };
                broker.republish_with_problem(problem).unwrap();
            }
            done.store(true, Ordering::Release);
        });
    });
    assert_eq!(broker.snapshot().unwrap().epoch(), 2 + REPUBLISHES);
}
