//! Crash-recovery integration tests: a journaled broker is killed (dropped
//! or fault-injected mid-commit) and rebuilt from its write-ahead log; the
//! replayed books must reconcile exactly with what buyers were acked, and
//! retried idempotent commits must dedup instead of double-charging.

use nimbus_core::GaussianMechanism;
use nimbus_data::catalog::{DatasetSpec, PaperDataset};
use nimbus_market::curves::{DemandCurve, MarketCurves, ValueCurve};
use nimbus_market::journal::{self, FaultPlan, GroupCommit, Journal, JournalError, SaleRecord};
use nimbus_market::{
    BatchCommitItem, Broker, BrokerBuilder, MarketError, PurchaseRequest, Sale, Seller, Transaction,
};
use nimbus_ml::LinearRegressionTrainer;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

fn temp_path(name: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!(
        "nimbus-recovery-{}-{}-{}.journal",
        std::process::id(),
        name,
        n
    ))
}

/// An anonymous, unkeyed commit item by `(x, epoch)` identity.
fn unkeyed(x: f64, snapshot_epoch: u64, payment: f64) -> BatchCommitItem {
    BatchCommitItem {
        x,
        snapshot_epoch,
        payment,
        nonce: None,
        buyer: None,
    }
}

fn journaled_builder(path: &Path) -> BrokerBuilder {
    let (tt, _) = DatasetSpec::scaled(PaperDataset::Simulated1, 400)
        .materialize(7)
        .unwrap();
    let curves = MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform);
    Broker::builder(Seller::new("journaled", tt, curves))
        .trainer(LinearRegressionTrainer::ridge(1e-6))
        .mechanism(GaussianMechanism)
        .n_price_points(24)
        .error_curve_samples(12)
        .seed(42)
        .journal(path)
}

#[test]
fn broker_resumes_books_after_restart() {
    let path = temp_path("resume");
    let (acked_ids, acked_revenue) = {
        let broker = journaled_builder(&path).build().unwrap();
        assert_eq!(broker.recovery().unwrap().sales, 0);
        broker.open_market().unwrap();
        assert_eq!(broker.snapshot().unwrap().epoch(), 1);
        let mut ids = Vec::new();
        let mut revenue = 0.0;
        for x in [5.0, 20.0, 60.0, 90.0] {
            let q = broker
                .quote_request(PurchaseRequest::AtInverseNcp(x))
                .unwrap();
            let sale = broker.commit(q, q.price).unwrap();
            ids.push(sale.transaction.sequence);
            revenue += sale.price;
        }
        (ids, revenue)
        // Dropped without any graceful flush — the WAL is the only record.
    };

    let broker = journaled_builder(&path).build().unwrap();
    let recovery = broker.recovery().unwrap();
    assert!(recovery.truncated.is_none());
    assert_eq!(recovery.sales, 4);
    assert!((recovery.revenue - acked_revenue).abs() < 1e-12);
    // Books reconcile exactly: same count, same ids, same revenue.
    assert_eq!(broker.sales_count(), 4);
    assert!((broker.collected_revenue() - acked_revenue).abs() < 1e-12);
    let ledger = broker.ledger();
    let replayed: Vec<u64> = ledger.transactions().iter().map(|t| t.sequence).collect();
    assert_eq!(replayed, acked_ids);

    // Epochs continue above the pre-crash epoch: the restarted market
    // posts epoch 2, and a quote from the dead process is rejected.
    broker.open_market().unwrap();
    assert_eq!(broker.snapshot().unwrap().epoch(), 2);
    assert!(matches!(
        broker.commit_batch_at(&[unkeyed(10.0, 1, 1e9)]).remove(0),
        Err(MarketError::QuoteExpired {
            quoted: 1,
            current: 2
        })
    ));

    // New sales continue the id sequence past the replayed ids.
    let q = broker
        .quote_request(PurchaseRequest::AtInverseNcp(10.0))
        .unwrap();
    let sale = broker.commit(q, q.price).unwrap();
    assert_eq!(sale.transaction.sequence, 4);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn idempotent_commit_is_exactly_once_within_and_across_restart() {
    let path = temp_path("idempotent");
    let nonce = 0xFEED_F00D_u64;
    let buyer = 7u64;
    let (original_id, original_price, original_weights) = {
        let broker = journaled_builder(&path).build().unwrap();
        broker.open_market().unwrap();
        let q = broker
            .quote_request(PurchaseRequest::AtInverseNcp(30.0))
            .unwrap();
        let first = broker
            .commit_at_idempotent_for(q.x, q.snapshot_epoch, q.price, nonce, Some(buyer))
            .unwrap();
        let revenue = broker.collected_revenue();
        // A retry with the same key replays the same sale: same id, same
        // price, bitwise-identical noisy model, no new ledger row. The
        // dedup lookup runs before the epoch check, so this holds after a
        // re-`open_market()` too, both as a single commit and as an item
        // of a batch — and never charges money or noise budget twice.
        let same_epoch = broker
            .commit_at_idempotent_for(q.x, q.snapshot_epoch, q.price, nonce, Some(buyer))
            .unwrap();
        broker.open_market().unwrap();
        assert_eq!(broker.snapshot().unwrap().epoch(), 2);
        let after_bump = broker
            .commit_at_idempotent_for(q.x, q.snapshot_epoch, q.price, nonce, Some(buyer))
            .unwrap();
        let batch_item = broker
            .commit_batch_at(&[BatchCommitItem {
                nonce: Some(nonce),
                buyer: Some(buyer),
                ..unkeyed(q.x, q.snapshot_epoch, q.price)
            }])
            .remove(0)
            .unwrap();
        for retry in [&same_epoch, &after_bump, &batch_item] {
            assert_eq!(retry.transaction.sequence, first.transaction.sequence);
            assert_eq!(retry.price.to_bits(), first.price.to_bits());
            assert_eq!(
                retry.model.weights().as_slice(),
                first.model.weights().as_slice()
            );
        }
        assert_eq!(broker.sales_count(), 1);
        assert_eq!(broker.collected_revenue().to_bits(), revenue.to_bits());
        assert_eq!(broker.accounts().spent(buyer), q.x);
        (
            first.transaction.sequence,
            first.price,
            first.model.weights().as_slice().to_vec(),
        )
    };

    // The journal holds the sale exactly once.
    let (_, rec) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
    assert_eq!(rec.transactions.len(), 1);
    assert_eq!(rec.dedup.len(), 1);
    assert_eq!(rec.dedup.get(&(1, nonce)), Some(&original_id));

    // A retry that lands on a *restarted* broker (the lost-ACK case)
    // still dedups: the key was replayed from the journal and the replay
    // re-derives the identical sale, even though the live epoch moved on.
    let broker = journaled_builder(&path).build().unwrap();
    broker.open_market().unwrap();
    assert_eq!(broker.snapshot().unwrap().epoch(), 2);
    let replayed = broker
        .commit_at_idempotent_for(30.0, 1, original_price, nonce, Some(buyer))
        .unwrap();
    assert_eq!(replayed.transaction.sequence, original_id);
    assert_eq!(replayed.price.to_bits(), original_price.to_bits());
    assert_eq!(replayed.model.weights().as_slice(), original_weights);
    assert_eq!(broker.sales_count(), 1);
    assert_eq!(broker.accounts().spent(buyer), 30.0);

    // An *unknown* key against the dead epoch is not replayable — it gets
    // the ordinary staleness rejection, not a silent sale.
    assert!(matches!(
        broker.commit_at_idempotent_for(30.0, 1, original_price, nonce + 1, None),
        Err(MarketError::QuoteExpired { .. })
    ));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn faulty_journal_never_acks_an_unjournaled_sale() {
    let path = temp_path("faulty");
    let plan = FaultPlan::new().fail_nth_write(3).short_nth_write(6);
    let mut acked: Vec<(u64, f64)> = Vec::new();
    let mut rejected = 0;
    {
        let broker = journaled_builder(&path)
            .journal_faults(plan)
            .build()
            .unwrap();
        broker.open_market().unwrap();
        for i in 0..10 {
            let x = 5.0 + 9.0 * i as f64;
            let q = broker
                .quote_request(PurchaseRequest::AtInverseNcp(x))
                .unwrap();
            match broker.commit(q, q.price) {
                Ok(sale) => acked.push((sale.transaction.sequence, sale.price)),
                Err(MarketError::Journal(_)) => rejected += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        // Both armed faults fired; everything else was acked.
        assert_eq!(rejected, 2);
        assert_eq!(acked.len(), 8);
        // The in-memory ledger already reconciles with the acks.
        assert_eq!(broker.sales_count(), 8);
    }

    // Kill and restart: the replayed ledger is exactly the acked set —
    // same ids, same prices, same total — and nothing that failed.
    let broker = journaled_builder(&path).build().unwrap();
    let recovery = broker.recovery().unwrap();
    assert!(recovery.truncated.is_none(), "{:?}", recovery.truncated);
    let ledger = broker.ledger();
    let replayed: Vec<(u64, f64)> = ledger
        .transactions()
        .iter()
        .map(|t| (t.sequence, t.price))
        .collect();
    assert_eq!(replayed, acked);
    let acked_total: f64 = acked.iter().map(|&(_, p)| p).sum();
    assert!((broker.collected_revenue() - acked_total).abs() < 1e-12);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn concurrent_journaled_commits_replay_in_commit_order() {
    // Keyed, buyer-attributed sales from several threads: ids can reach the
    // ledger and the journal out of order, and every key must still replay
    // its own sale after a restart.
    let path = temp_path("concurrent");
    let threads = 4;
    let per_thread = 25;
    // (nonce, buyer, the acknowledged sale) per commit.
    let originals: Vec<(u64, u64, Sale)> = {
        let broker = std::sync::Arc::new(journaled_builder(&path).build().unwrap());
        broker.open_market().unwrap();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let b = broker.clone();
                    s.spawn(move || {
                        (0..per_thread)
                            .map(|i| {
                                let n = (t * per_thread + i) as u64;
                                let x = 1.0 + (n % 99) as f64;
                                let q = b.quote_request(PurchaseRequest::AtInverseNcp(x)).unwrap();
                                let (nonce, buyer) = (0xC0DE_0000 + n, 100 + t as u64);
                                let sale = b
                                    .commit_at_idempotent_for(
                                        q.x,
                                        q.snapshot_epoch,
                                        q.price,
                                        nonce,
                                        Some(buyer),
                                    )
                                    .unwrap();
                                (nonce, buyer, sale)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        })
    };
    let broker = journaled_builder(&path).build().unwrap();
    assert_eq!(broker.sales_count(), threads * per_thread);
    // Replay order equals commit (transaction-id) order: the replayed
    // ledger is exactly 0..N in sequence, with every id exactly once.
    let ledger = broker.ledger();
    let seqs: Vec<u64> = ledger.transactions().iter().map(|t| t.sequence).collect();
    assert_eq!(
        seqs,
        (0..(threads * per_thread) as u64).collect::<Vec<u64>>()
    );
    // A retry of every key on the restarted broker returns the original
    // sale bit for bit, adds no sale and charges no budget.
    broker.open_market().unwrap();
    let revenue = broker.collected_revenue();
    let spent: Vec<f64> = (0..threads)
        .map(|t| broker.accounts().spent(100 + t as u64))
        .collect();
    for (nonce, buyer, sale) in &originals {
        let retry = broker
            .commit_at_idempotent_for(sale.inverse_ncp, 1, sale.price, *nonce, Some(*buyer))
            .unwrap();
        assert_eq!(retry.transaction, sale.transaction);
        assert_eq!(retry.price.to_bits(), sale.price.to_bits());
        assert_eq!(
            retry.model.weights().as_slice(),
            sale.model.weights().as_slice()
        );
    }
    assert_eq!(broker.sales_count(), threads * per_thread);
    assert_eq!(broker.collected_revenue().to_bits(), revenue.to_bits());
    for (t, before) in spent.iter().enumerate() {
        assert_eq!(broker.accounts().spent(100 + t as u64), *before);
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn revenue_is_a_pure_function_of_the_sale_set() {
    // Keyed sales from several threads at non-integer prices: the revenue
    // bits must not depend on how the commits interleaved, nor on a
    // restart that rebuilds the books from the journal.
    let path = temp_path("revenue-bits");
    let id_order_fold = |broker: &Broker| {
        broker
            .ledger()
            .transactions()
            .iter()
            .fold(0.0, |acc, t| acc + t.price)
    };
    let live = {
        let broker = journaled_builder(&path).build().unwrap();
        broker.open_market().unwrap();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let broker = &broker;
                s.spawn(move || {
                    for i in 0..50u64 {
                        let x = 1.5 + ((t * 50 + i) * 7 % 97) as f64 * 0.93;
                        let q = broker
                            .quote_request(PurchaseRequest::AtInverseNcp(x))
                            .unwrap();
                        broker
                            .commit_at_idempotent_for(
                                q.x,
                                q.snapshot_epoch,
                                q.price,
                                t << 32 | i,
                                None,
                            )
                            .unwrap();
                    }
                });
            }
        });
        let ledger = broker.ledger();
        assert_eq!(ledger.count(), 200);
        assert!(ledger.transactions().iter().all(|t| t.price.fract() != 0.0));
        let revenue = broker.collected_revenue();
        assert_eq!(revenue.to_bits(), id_order_fold(&broker).to_bits());
        revenue
    };
    let broker = journaled_builder(&path).build().unwrap();
    assert_eq!(broker.collected_revenue().to_bits(), live.to_bits());
    assert_eq!(id_order_fold(&broker).to_bits(), live.to_bits());
    assert_eq!(broker.recovery().unwrap().revenue.to_bits(), live.to_bits());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn held_announcement_keeps_a_leader_gathering_for_the_window() {
    let path = temp_path("held-announcement");
    let (j, _) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
    let gc = GroupCommit::new(j, journal::MAX_GROUP_COMMIT_WINDOW);
    let held = gc.announce();
    let started = std::time::Instant::now();
    gc.append_sale(SaleRecord {
        transaction: Transaction {
            sequence: 0,
            inverse_ncp: 10.0,
            price: 3.0,
            expected_error: 0.1,
        },
        snapshot_epoch: 1,
        nonce: None,
        buyer: None,
    })
    .unwrap();
    // Lower bound only: a loaded host may add any delay on top.
    assert!(started.elapsed() >= gc.window(), "{:?}", started.elapsed());
    assert_eq!(gc.stats().window_waits, 1);
    drop(held);
    drop(gc);
    std::fs::remove_file(&path).unwrap();
}

// ---------------------------------------------------------------------------
// Corruption corpus: handcrafted bad journals, each asserting the typed
// error. A bad record at the tail, where a crash could have left it, is
// salvaged (file truncated back to the valid prefix); one with durable
// records after it refuses the open and leaves the file alone.
// ---------------------------------------------------------------------------

fn sale_frame(tx_id: u64, epoch: u64) -> Vec<u8> {
    journal::frame_record(&journal::encode_sale_payload(&SaleRecord {
        transaction: Transaction {
            sequence: tx_id,
            inverse_ncp: 10.0,
            price: 3.0,
            expected_error: 0.1,
        },
        snapshot_epoch: epoch,
        nonce: None,
        buyer: None,
    }))
}

fn buyer_sale_frame(tx_id: u64, epoch: u64, buyer: u64) -> Vec<u8> {
    journal::frame_record(&journal::encode_sale_payload(&SaleRecord {
        transaction: Transaction {
            sequence: tx_id,
            inverse_ncp: 10.0,
            price: 3.0,
            expected_error: 0.1,
        },
        snapshot_epoch: epoch,
        nonce: None,
        buyer: Some(buyer),
    }))
}

fn write_journal(name: &str, tail: &[u8], valid_records: &[Vec<u8>]) -> PathBuf {
    let path = temp_path(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(&journal::MAGIC).unwrap();
    for r in valid_records {
        f.write_all(r).unwrap();
    }
    f.write_all(tail).unwrap();
    path
}

#[test]
fn corpus_truncated_length_prefix() {
    // Two good sales, then a torn length prefix (2 of 4 bytes).
    let good = vec![sale_frame(0, 1), sale_frame(1, 1)];
    let path = write_journal("corpus-torn-len", &[0x00, 0x00], &good);
    let valid_len = (journal::MAGIC.len() + good[0].len() + good[1].len()) as u64;
    let (_, rec) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
    assert!(matches!(
        rec.truncated,
        Some(JournalError::TruncatedRecord { offset }) if offset == valid_len
    ));
    assert_eq!(rec.transactions.len(), 2);
    assert_eq!(rec.valid_bytes, valid_len);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), valid_len);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corpus_bad_checksum() {
    let good = vec![sale_frame(0, 1)];
    let mut corrupt = sale_frame(1, 1);
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x01; // payload no longer matches its CRC
    let path = write_journal("corpus-bad-crc", &corrupt, &good);
    let valid_len = (journal::MAGIC.len() + good[0].len()) as u64;
    let (_, rec) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
    assert!(matches!(
        rec.truncated,
        Some(JournalError::BadChecksum { offset }) if offset == valid_len
    ));
    assert_eq!(rec.transactions.len(), 1);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), valid_len);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corpus_duplicate_transaction_id() {
    let good = vec![sale_frame(0, 1), sale_frame(1, 1)];
    let dup = sale_frame(1, 1);
    let path = write_journal("corpus-dup-tx", &dup, &good);
    let (_, rec) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
    assert!(matches!(
        rec.truncated,
        Some(JournalError::DuplicateTransaction { tx_id: 1, .. })
    ));
    assert_eq!(rec.transactions.len(), 2);
    assert_eq!(rec.next_tx_id, 2);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corpus_duplicate_of_an_id_below_the_tail() {
    // Ids 0, 1, 2 and then 0 again: the repeat matches no tail row, only
    // one further down.
    let good = vec![sale_frame(0, 1), sale_frame(1, 1), sale_frame(2, 1)];
    let dup = sale_frame(0, 1);
    let valid_len = (journal::MAGIC.len() + good.iter().map(Vec::len).sum::<usize>()) as u64;

    // At EOF, a crash can explain it: salvaged.
    let path = write_journal("corpus-dup-below-tail", &dup, &good);
    let (_, rec) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
    assert!(matches!(
        rec.truncated,
        Some(JournalError::DuplicateTransaction { tx_id: 0, offset }) if offset == valid_len
    ));
    let ids: Vec<u64> = rec.transactions.iter().map(|t| t.sequence).collect();
    assert_eq!(ids, vec![0, 1, 2]);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), valid_len);
    std::fs::remove_file(&path).unwrap();

    // A durable sale after it: refused, and the file is left alone.
    let mut tail = dup;
    tail.extend(sale_frame(3, 1));
    let path = write_journal("corpus-dup-below-tail-refused", &tail, &good);
    let before = std::fs::read(&path).unwrap();
    assert!(matches!(
        Journal::open(&path, 0, FaultPlan::new()),
        Err(JournalError::DuplicateTransaction { tx_id: 0, offset }) if offset == valid_len
    ));
    assert_eq!(std::fs::read(&path).unwrap(), before);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corpus_sale_id_u64_max_is_a_bad_record() {
    // A CRC-valid sale with id u64::MAX leaves no id for the next sale.
    let good = vec![sale_frame(0, 1), sale_frame(1, 1)];
    let max = sale_frame(u64::MAX, 1);
    let valid_len = (journal::MAGIC.len() + good.iter().map(Vec::len).sum::<usize>()) as u64;

    // At EOF: salvaged, and the books hold only the prefix.
    let path = write_journal("corpus-max-id", &max, &good);
    let (_, rec) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
    assert!(matches!(
        rec.truncated,
        Some(JournalError::BadRecord { offset, .. }) if offset == valid_len
    ));
    let ids: Vec<u64> = rec.transactions.iter().map(|t| t.sequence).collect();
    assert_eq!(ids, vec![0, 1]);
    assert_eq!(rec.next_tx_id, 2);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), valid_len);
    std::fs::remove_file(&path).unwrap();

    // A durable sale after it: refused, and the file is left alone.
    let mut tail = max;
    tail.extend(sale_frame(2, 1));
    let path = write_journal("corpus-max-id-refused", &tail, &good);
    let before = std::fs::read(&path).unwrap();
    assert!(matches!(
        Journal::open(&path, 0, FaultPlan::new()),
        Err(JournalError::BadRecord { offset, .. }) if offset == valid_len
    ));
    assert_eq!(std::fs::read(&path).unwrap(), before);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corpus_epoch_regression() {
    let good = vec![sale_frame(0, 2)];
    let regressing = sale_frame(1, 1);
    let path = write_journal("corpus-epoch", &regressing, &good);
    let (_, rec) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
    assert!(matches!(
        rec.truncated,
        Some(JournalError::EpochRegression {
            previous: 2,
            got: 1,
            ..
        })
    ));
    assert_eq!(rec.transactions.len(), 1);
    assert_eq!(rec.max_epoch, 2);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corpus_torn_buyer_sale_tail_salvages_accounts() {
    // A buyer-attributed sale torn mid-record: the salvage must keep the
    // complete prefix *and* the per-buyer spend it implies — the torn
    // record contributes neither a transaction nor a charge.
    let good = vec![sale_frame(0, 1), buyer_sale_frame(1, 1, 7)];
    let torn = buyer_sale_frame(2, 1, 7);
    let tail = &torn[..torn.len() / 2];
    let path = write_journal("corpus-torn-buyer", tail, &good);
    let valid_len = (journal::MAGIC.len() + good[0].len() + good[1].len()) as u64;
    let (_, rec) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
    assert!(matches!(
        rec.truncated,
        Some(JournalError::TruncatedRecord { offset }) if offset == valid_len
    ));
    assert_eq!(rec.transactions.len(), 2);
    assert_eq!(rec.accounts, vec![(7, 10.0)]);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), valid_len);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corpus_bit_flipped_buyer_tag_is_a_bad_record() {
    // Flip one bit in the SALE_BUYER tag (0x03 → 0x0B) and re-frame so
    // the checksum is *valid* — the decoder must still reject it as an
    // unknown tag, not replay garbage, and salvage the buyer accounts of
    // the intact prefix.
    let good = vec![buyer_sale_frame(0, 1, 7), buyer_sale_frame(1, 1, 8)];
    let mut payload = journal::encode_sale_payload(&SaleRecord {
        transaction: Transaction {
            sequence: 2,
            inverse_ncp: 10.0,
            price: 3.0,
            expected_error: 0.1,
        },
        snapshot_epoch: 1,
        nonce: None,
        buyer: Some(9),
    });
    assert_eq!(payload[0], 0x03, "SALE_BUYER tag moved; update the flip");
    payload[0] ^= 0x08;
    let tail = journal::frame_record(&payload);
    let path = write_journal("corpus-flipped-tag", &tail, &good);
    let (_, rec) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
    match rec.truncated {
        Some(JournalError::BadRecord { ref reason, .. }) => {
            assert!(reason.contains("unknown record tag"), "{reason}");
        }
        ref other => panic!("expected BadRecord, got {other:?}"),
    }
    assert_eq!(rec.transactions.len(), 2);
    assert_eq!(rec.accounts, vec![(7, 10.0), (8, 10.0)]);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corpus_checkpoint_with_short_accounts_section() {
    // A checkpoint whose accounts section claims two entries but carries
    // one: structurally well-framed (valid CRC), semantically short. The
    // scan must stop with a typed BadRecord and keep the prefix's books.
    let good = vec![buyer_sale_frame(0, 1, 9)];
    let mut payload = vec![0x02u8]; // TAG_CHECKPOINT
    payload.extend_from_slice(&1u64.to_be_bytes()); // next_tx
    payload.extend_from_slice(&1u64.to_be_bytes()); // max_epoch
    payload.extend_from_slice(&0u32.to_be_bytes()); // no transactions
    payload.extend_from_slice(&0u32.to_be_bytes()); // no dedup keys
    payload.extend_from_slice(&2u32.to_be_bytes()); // claims 2 accounts…
    payload.extend_from_slice(&9u64.to_be_bytes()); // …delivers half of one
    let tail = journal::frame_record(&payload);
    let path = write_journal("corpus-short-accounts", &tail, &good);
    let valid_len = (journal::MAGIC.len() + good[0].len()) as u64;
    let (_, rec) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
    assert!(matches!(
        rec.truncated,
        Some(JournalError::BadRecord { offset, .. }) if offset == valid_len
    ));
    assert_eq!(rec.transactions.len(), 1);
    assert_eq!(rec.accounts, vec![(9, 10.0)]);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), valid_len);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corpus_checkpoint_key_without_its_transaction() {
    // A checkpoint holding tx 0 whose idempotency key names tx 5: a retry
    // of that key has no sale to replay, so the record is refused rather
    // than letting the key vanish and the retry sell again.
    let good = vec![sale_frame(0, 1)];
    let mut payload = vec![0x02u8]; // TAG_CHECKPOINT
    payload.extend_from_slice(&6u64.to_be_bytes()); // next_tx
    payload.extend_from_slice(&1u64.to_be_bytes()); // max_epoch
    payload.extend_from_slice(&1u32.to_be_bytes()); // one transaction…
    payload.extend_from_slice(&0u64.to_be_bytes()); // …tx 0
    for v in [10.0f64, 3.0, 0.1] {
        payload.extend_from_slice(&v.to_bits().to_be_bytes());
    }
    payload.extend_from_slice(&1u32.to_be_bytes()); // one key…
    for v in [1u64, 0xBEEF, 5] {
        payload.extend_from_slice(&v.to_be_bytes()); // …(epoch, nonce, tx 5)
    }
    let tail = journal::frame_record(&payload);
    let path = write_journal("corpus-orphan-key", &tail, &good);
    let valid_len = (journal::MAGIC.len() + good[0].len()) as u64;
    let (_, rec) = Journal::open(&path, 0, FaultPlan::new()).unwrap();
    assert!(matches!(
        rec.truncated,
        Some(JournalError::BadRecord { offset, .. }) if offset == valid_len
    ));
    assert_eq!(rec.transactions.len(), 1);
    assert!(rec.dedup.is_empty());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corpus_salvaged_prefix_restores_a_broker() {
    // End-to-end over a corrupt log: the broker still builds, resuming
    // from the salvaged prefix and reporting the truncation.
    let good = vec![sale_frame(0, 1), sale_frame(1, 1), sale_frame(2, 1)];
    let mut corrupt = sale_frame(3, 1);
    corrupt[9] ^= 0x80;
    let path = write_journal("corpus-broker", &corrupt, &good);
    let broker = journaled_builder(&path).build().unwrap();
    let recovery = broker.recovery().unwrap();
    assert!(matches!(
        recovery.truncated,
        Some(JournalError::BadChecksum { .. })
    ));
    assert_eq!(broker.sales_count(), 3);
    assert!((broker.collected_revenue() - 9.0).abs() < 1e-12);
    broker.open_market().unwrap();
    // The salvaged books keep the sequence monotone: next sale is tx 3.
    let q = broker
        .quote_request(PurchaseRequest::AtInverseNcp(10.0))
        .unwrap();
    assert_eq!(broker.commit(q, q.price).unwrap().transaction.sequence, 3);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corpus_corrupt_record_before_durable_sales_refuses_the_broker() {
    let mut corrupt = sale_frame(1, 1);
    corrupt[9] ^= 0x80;
    let records = vec![sale_frame(0, 1), corrupt, sale_frame(2, 1)];
    let path = write_journal("corpus-broker-refused", &[], &records);
    let before = std::fs::read(&path).unwrap();
    assert!(matches!(
        journaled_builder(&path).build(),
        Err(MarketError::Journal(JournalError::BadChecksum { .. }))
    ));
    assert_eq!(std::fs::read(&path).unwrap(), before);
    std::fs::remove_file(&path).unwrap();
}
