//! End-to-end market benches: opening a market (train + optimize + post)
//! and purchase throughput — the "low runtime cost" claim of the abstract.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nimbus_data::catalog::{DatasetSpec, PaperDataset};
use nimbus_market::curves::{DemandCurve, MarketCurves, ValueCurve};
use nimbus_market::{Broker, PurchaseRequest, Seller};
use std::hint::black_box;

fn make_broker(rows: usize, points: usize) -> Broker {
    let (dataset, _) = DatasetSpec::scaled(PaperDataset::Simulated1, rows)
        .materialize(5)
        .expect("dataset");
    let curves = MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform);
    Broker::builder(Seller::new("bench", dataset, curves))
        .n_price_points(points)
        .error_curve_samples(50)
        .seed(5)
        .build()
        .expect("broker")
}

fn bench_market_open(c: &mut Criterion) {
    let mut group = c.benchmark_group("market_open");
    group.sample_size(10);
    for rows in [1_000usize, 10_000] {
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, &r| {
            b.iter(|| {
                let broker = make_broker(r, 100);
                broker.optimal_model().unwrap();
                broker.open_market().unwrap()
            })
        });
    }
    group.finish();
}

fn bench_purchase_throughput(c: &mut Criterion) {
    let broker = make_broker(2_000, 100);
    broker.optimal_model().unwrap();
    broker.open_market().unwrap();
    c.bench_function("purchase_at_point", |b| {
        b.iter(|| {
            let quote = broker
                .quote_request(black_box(PurchaseRequest::AtInverseNcp(42.0)))
                .unwrap();
            broker.commit(quote, quote.price).unwrap()
        })
    });
    c.bench_function("purchase_price_budget_binary_search", |b| {
        b.iter(|| {
            let quote = broker
                .quote_request(black_box(PurchaseRequest::PriceBudget(30.0)))
                .unwrap();
            broker.commit(quote, 30.0).unwrap()
        })
    });
}

criterion_group!(benches, bench_market_open, bench_purchase_throughput);
criterion_main!(benches);
