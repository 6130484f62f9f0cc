// Test code: `unwrap`/`panic!` are assertions here, not serving-path
// hazards — opt out of the workspace panic-hygiene lints.
#![allow(clippy::unwrap_used, clippy::panic)]

//! A broker keeps `h*`, not the dataset it was trained on, and its books
//! once, not the journal replay they came from.
//!
//! `BrokerBuilder::build` trains the optimal model once and then drops the
//! seller's `D`: serving needs `h*`, the curves and the books. This binary
//! counts live heap bytes through its own global allocator and checks that
//! building a broker from a dataset of known size leaves far less than that
//! dataset behind, while `h*` stays bit for bit what the trainer gives on a
//! separate copy of the training split. A classification listing still
//! holds its metric's test split (the curve is re-estimated from it on
//! every `open_market`), and nothing more. A broker reopened on a journal
//! keeps each replayed sale on its ledger and, when keyed, in its
//! idempotency table, and nowhere else.

use nimbus_core::GaussianMechanism;
use nimbus_data::catalog::{DatasetSpec, PaperDataset};
use nimbus_data::{Dataset, TrainTest};
use nimbus_market::curves::{DemandCurve, MarketCurves, ValueCurve};
use nimbus_market::journal::{self, SaleRecord};
use nimbus_market::{Broker, BrokerBuilder, Seller, Transaction};
use nimbus_ml::{
    LinearModel, LinearRegressionTrainer, LogisticRegressionTrainer, LossMetric, Trainer,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Mutex;

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, keeping `LIVE` up to date.
struct Counting;

// SAFETY: both calls forward to `System` with the caller's own arguments,
// and the counter touches no allocated memory. The default `realloc` and
// `alloc_zeroed` go through these two, so they are counted too.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: callers uphold `GlobalAlloc::alloc`'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the same contract, passed to `System` unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    // SAFETY: callers uphold `GlobalAlloc::dealloc`'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the same contract, passed to `System` unchanged.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The counter is process-wide, so the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn bytes(d: &Dataset) -> isize {
    let x = d.features();
    ((x.rows() * x.cols() + d.targets().len()) * std::mem::size_of::<f64>()) as isize
}

fn curves() -> MarketCurves {
    MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform)
}

fn bits(m: &LinearModel) -> Vec<u64> {
    m.weights().as_slice().iter().map(|w| w.to_bits()).collect()
}

/// Builds a broker from a fresh clone of `data` and returns it with the
/// live heap growth over the whole hand-over: cloning the data for the
/// seller, whatever `configure` allocates, and `build`.
fn build_measured(
    data: &TrainTest,
    configure: impl FnOnce(BrokerBuilder) -> BrokerBuilder,
) -> (Broker, isize) {
    let before = LIVE.load(Ordering::SeqCst);
    let seller = Seller::new("guard", data.clone(), curves());
    let broker = configure(Broker::builder(seller)).build().unwrap();
    let growth = LIVE.load(Ordering::SeqCst) - before;
    (broker, growth)
}

#[test]
fn regression_listing_keeps_h_star_not_the_dataset() {
    let _turn = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let (copy, _) = DatasetSpec::scaled(PaperDataset::YearMsd, 8_000)
        .materialize(5)
        .unwrap();
    let dataset_bytes = bytes(&copy.train) + bytes(&copy.test);
    let (broker, growth) = build_measured(&copy, |b| {
        b.trainer(LinearRegressionTrainer::ridge(1e-6))
            .mechanism(GaussianMechanism)
            .seed(5)
    });
    assert!(
        growth < dataset_bytes / 20,
        "the broker kept {growth} B after build; the dataset was {dataset_bytes} B"
    );
    let trained = LinearRegressionTrainer::ridge(1e-6)
        .train(&copy.train)
        .unwrap();
    assert_eq!(bits(broker.optimal_model()), bits(&trained));
}

#[test]
fn logistic_listing_keeps_only_its_metric_test_split() {
    let _turn = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let (copy, _) = DatasetSpec::scaled(PaperDataset::CovType, 8_000)
        .materialize(9)
        .unwrap();
    let dataset_bytes = bytes(&copy.train) + bytes(&copy.test);
    let test_bytes = bytes(&copy.test);
    let (broker, growth) = build_measured(&copy, |b| {
        b.trainer(LogisticRegressionTrainer::new(1e-4))
            .mechanism(GaussianMechanism)
            .error_metric(LossMetric::logistic(copy.test.clone()))
            .seed(9)
    });
    assert!(
        growth < test_bytes + dataset_bytes / 20,
        "the broker kept {growth} B after build; its metric's test split is \
         {test_bytes} B of a {dataset_bytes} B dataset"
    );
    assert!(growth >= test_bytes, "the metric's test split is held");
    let trained = LogisticRegressionTrainer::new(1e-4)
        .train(&copy.train)
        .unwrap();
    assert_eq!(bits(broker.optimal_model()), bits(&trained));
}

#[test]
fn reopened_broker_keeps_each_keyed_sale_once() {
    let _turn = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    const SALES: u64 = 20_000;
    let (copy, _) = DatasetSpec::scaled(PaperDataset::Simulated1, 400)
        .materialize(3)
        .unwrap();
    // N keyed anonymous sales; the nonces are scattered as live buyers'
    // would be, so the idempotency table fills as it does when serving.
    let records: Vec<SaleRecord> = (0..SALES)
        .map(|i| SaleRecord {
            transaction: Transaction {
                sequence: i,
                inverse_ncp: 10.0 + (i % 7) as f64,
                price: 3.0,
                expected_error: 0.1,
            },
            snapshot_epoch: 1,
            nonce: Some(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            buyer: None,
        })
        .collect();
    let mut bytes = journal::MAGIC.to_vec();
    for r in &records {
        bytes.extend(journal::frame_record(&journal::encode_sale_payload(r)));
    }
    let path = std::env::temp_dir().join(format!(
        "nimbus-per-sale-bytes-{}.journal",
        std::process::id()
    ));
    std::fs::write(&path, bytes).unwrap();

    // The books' own cost: a ledger row per sale, in stripes grown by
    // push (so at most twice their length), plus the idempotency table
    // built by the same inserts.
    let ledger_bytes = 2 * SALES as isize * std::mem::size_of::<Transaction>() as isize;
    let before = LIVE.load(Ordering::SeqCst);
    let mut table: BTreeMap<(u64, u64), Transaction> = BTreeMap::new();
    for r in &records {
        table.insert((r.snapshot_epoch, r.nonce.unwrap()), r.transaction);
    }
    let dedup_bytes = LIVE.load(Ordering::SeqCst) - before;
    drop(table);
    drop(records);

    let (broker, growth) = build_measured(&copy, |b| {
        b.trainer(LinearRegressionTrainer::ridge(1e-6))
            .mechanism(GaussianMechanism)
            .seed(3)
            .journal(&path)
    });
    assert_eq!(broker.sales_count() as u64, SALES);
    assert_eq!(broker.recovery().unwrap().sales as u64, SALES);
    // A fixed allowance covers h*, the curves and the journal handle.
    let bound = ledger_bytes + dedup_bytes + 64 * 1024;
    assert!(
        growth <= bound,
        "the reopened broker kept {growth} B ({} B per sale); the ledger \
         and idempotency table account for {} B per sale",
        growth / SALES as isize,
        (ledger_bytes + dedup_bytes) / SALES as isize
    );
    drop(broker);
    std::fs::remove_file(&path).unwrap();
}
