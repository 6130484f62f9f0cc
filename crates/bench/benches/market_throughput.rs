//! Concurrent serving-path throughput: quote + commit of a request batch
//! spread over 1, 4 and 8 threads against the immutable market snapshot,
//! across menu sizes.
//!
//! This quantifies the snapshot redesign: quoting is a lock-free read, each
//! sale draws noise from its own `(seed, transaction id)` RNG stream, and
//! ledger writes stripe across shards — so batch throughput should scale
//! with threads instead of serializing on a market/ledger/RNG lock triple.
//!
//! Note: thread scaling only shows on a multi-core host. On a single-core
//! machine (`std::thread::available_parallelism() == 1`) the 4t/8t rows
//! measure pure scheduling overhead and will not beat 1t.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nimbus_core::{parallel_map, GaussianMechanism};
use nimbus_data::catalog::{DatasetSpec, PaperDataset};
use nimbus_market::curves::{DemandCurve, MarketCurves, ValueCurve};
use nimbus_market::{Broker, PurchaseRequest, Seller};
use nimbus_ml::LinearRegressionTrainer;

// Large enough that the batch's work amortizes the scoped-thread spawn
// cost; at a few µs per purchase this is tens of ms of serial work.
const BATCH: usize = 8_192;

fn make_open_broker(points: usize) -> Broker {
    let (dataset, _) = DatasetSpec::scaled(PaperDataset::Simulated1, 2_000)
        .materialize(5)
        .expect("dataset");
    let curves = MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform);
    let broker = Broker::builder(Seller::new("bench", dataset, curves))
        .trainer(LinearRegressionTrainer::ridge(1e-6))
        .mechanism(GaussianMechanism)
        .n_price_points(points)
        .error_curve_samples(50)
        .seed(5)
        .build()
        .expect("valid config");
    broker.open_market().expect("market opens");
    broker
}

fn mixed_requests(broker: &Broker) -> Vec<PurchaseRequest> {
    // Anchor budgets to the posted menu so every request is feasible.
    let menu = broker.posted_menu().expect("menu");
    let min_price = menu.iter().map(|(_, p)| *p).fold(f64::INFINITY, f64::min);
    (0..BATCH)
        .map(|i| match i % 3 {
            0 => PurchaseRequest::AtInverseNcp(1.0 + (i % 99) as f64),
            1 => PurchaseRequest::ErrorBudget(1.0 / (1.0 + (i % 80) as f64)),
            _ => PurchaseRequest::PriceBudget(min_price + (i % 50) as f64),
        })
        .collect()
}

fn bench_concurrent_buys(c: &mut Criterion) {
    let mut group = c.benchmark_group("concurrent_buys_8192");
    group.sample_size(10);
    for points in [50usize, 200] {
        let broker = make_open_broker(points);
        let requests = mixed_requests(&broker);
        for threads in [1usize, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("menu_{points}"), format!("{threads}t")),
                &threads,
                |b, &t| {
                    b.iter(|| {
                        let sales = parallel_map(requests.clone(), Some(t), |request| {
                            let quote = broker.quote_request(request)?;
                            broker.commit(quote, quote.price)
                        });
                        assert!(sales.iter().all(|s| s.is_ok()));
                        sales.len()
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_lock_free_quoting(c: &mut Criterion) {
    // The pure read side: quote_request with no commit, 8 threads hammering
    // one snapshot. With the AtomicPtr snapshot this has no shared writes.
    let broker = make_open_broker(100);
    c.bench_function("quote_request_8_threads_x_512", |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                for t in 0..8 {
                    let broker = &broker;
                    s.spawn(move || {
                        for i in 0..512u64 {
                            let x = 1.0 + ((t * 512 + i) % 99) as f64;
                            broker
                                .quote_request(PurchaseRequest::AtInverseNcp(x))
                                .unwrap();
                        }
                    });
                }
            })
        })
    });
}

criterion_group!(benches, bench_concurrent_buys, bench_lock_free_quoting);
criterion_main!(benches);
