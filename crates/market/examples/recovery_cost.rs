//! What a journalled broker's history costs to reopen.
//!
//! Commits keyed anonymous sales on a d = 20 listing in batches of 1 000,
//! then drops the broker and rebuilds it from its journal. Prints the
//! journal's size, the write and reopen seconds, this process's `VmRSS`
//! and `VmHWM` before and after the reopen, and the microseconds a keyed
//! retry (a dedup replay) takes at 100 k sales and at the full count,
//! live and reopened. RSS figures are Linux-only; elsewhere they print 0.
//!
//! Run with: `cargo run --release -p nimbus-market --example recovery_cost
//! [-- SALES]` (default 1 000 000; about 60 MB of journal in the system
//! temp directory, removed at the end).

use nimbus_core::GaussianMechanism;
use nimbus_data::catalog::{DatasetSpec, PaperDataset};
use nimbus_market::curves::{DemandCurve, MarketCurves, ValueCurve};
use nimbus_market::{BatchCommitItem, Broker, BrokerBuilder, PurchaseRequest, Seller};
use nimbus_ml::LinearRegressionTrainer;
use std::error::Error;
use std::path::Path;
use std::time::Instant;

const BATCH: u64 = 1_000;
const RETRIES: u64 = 1_000;

fn builder(journal: &Path) -> Result<BrokerBuilder, Box<dyn Error>> {
    let (data, _) = DatasetSpec::scaled(PaperDataset::Simulated1, 400).materialize(7)?;
    let curves = MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform);
    Ok(Broker::builder(Seller::new("recovery-cost", data, curves))
        .trainer(LinearRegressionTrainer::ridge(1e-6))
        .mechanism(GaussianMechanism)
        .n_price_points(24)
        .error_curve_samples(12)
        .seed(42)
        .journal(journal))
}

/// The `i`-th sale's nonce, scattered as live buyers' nonces are.
fn nonce(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// `(VmRSS, VmHWM)` of this process in MiB.
fn memory_mib() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
            .map_or(0.0, |kib| kib / 1024.0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Mean microseconds of a keyed retry, over `RETRIES` keys spread across
/// the first `sold` sales (all committed against epoch 1).
fn retry_us(broker: &Broker, item: BatchCommitItem, sold: u64) -> Result<f64, Box<dyn Error>> {
    let step = (sold / RETRIES).max(1);
    let started = Instant::now();
    let mut n = 0u32;
    for i in (0..sold).step_by(step as usize) {
        let sale = broker.commit_at_idempotent_for(item.x, 1, item.payment, nonce(i), None)?;
        if sale.transaction.sequence != i {
            return Err(format!("retry of sale {i} replayed {}", sale.transaction.sequence).into());
        }
        n += 1;
    }
    Ok(started.elapsed().as_secs_f64() * 1e6 / f64::from(n))
}

fn main() -> Result<(), Box<dyn Error>> {
    let sales: u64 = match std::env::args().nth(1) {
        Some(arg) => arg.parse()?,
        None => 1_000_000,
    };
    let path = std::env::temp_dir().join(format!(
        "nimbus-recovery-cost-{}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    let broker = builder(&path)?.build()?;
    broker.open_market()?;
    let q = broker.quote_request(PurchaseRequest::AtInverseNcp(30.0))?;
    let item = BatchCommitItem {
        x: q.x,
        snapshot_epoch: q.snapshot_epoch,
        payment: q.price,
        nonce: None,
        buyer: None,
    };
    let mut retry_100k = None;
    let mut sold = 0u64;
    let mut write_s = 0.0;
    while sold < sales {
        let batch: Vec<BatchCommitItem> = (sold..(sold + BATCH).min(sales))
            .map(|i| BatchCommitItem {
                nonce: Some(nonce(i)),
                ..item
            })
            .collect();
        let started = Instant::now();
        for result in broker.commit_batch_at(&batch) {
            result?;
        }
        write_s += started.elapsed().as_secs_f64();
        sold += batch.len() as u64;
        if sold == 100_000.min(sales) {
            retry_100k = Some(retry_us(&broker, item, sold)?);
        }
    }
    let retry_live = retry_us(&broker, item, sold)?;
    let (rss_live, hwm_live) = memory_mib();
    drop(broker);

    let started = Instant::now();
    let broker = builder(&path)?.build()?;
    let reopen_s = started.elapsed().as_secs_f64();
    let (rss_reopened, hwm_reopened) = memory_mib();
    broker.open_market()?;
    let retry_reopened = retry_us(&broker, item, sold)?;

    println!("sales                 {sold}");
    println!("journal bytes         {}", std::fs::metadata(&path)?.len());
    println!("write s               {write_s:.3}");
    println!("reopen s              {reopen_s:.3}");
    println!("live      VmRSS MiB   {rss_live:.1}  (VmHWM {hwm_live:.1})");
    println!("reopened  VmRSS MiB   {rss_reopened:.1}  (VmHWM {hwm_reopened:.1})");
    if let Some(us) = retry_100k {
        println!("retry us at 100k      {us:.2}");
    }
    println!("retry us at {sold:<9} {retry_live:.2} live, {retry_reopened:.2} reopened");
    drop(broker);
    std::fs::remove_file(&path)?;
    Ok(())
}
