//! Noisy-model-generation benches: the per-sale cost that makes real-time
//! broker interaction possible (§4: "avoids training a model instance from
//! scratch").
//!
//! Expected shape: perturbing a d-dimensional model is O(d) and measured in
//! nanoseconds-to-microseconds — negligible against the one-time training
//! cost in the `training` bench.
//!
//! Two privacy-hardening comparisons ride along:
//!
//! * **naive vs snapped** — the Box–Muller Gaussian against the discrete
//!   (Canonne–Kaplan–Steinke) sampler on a clamped dyadic grid. The snapped
//!   sampler pays exact-integer rejection sampling per coordinate; this
//!   bench bounds that premium so "floating-point-attack-safe" has a
//!   price tag.
//! * **budget-check overhead** — the per-commit [`BuyerAccounts`] charge in
//!   its three regimes (unmetered, metered-admit, metered-reject). This is
//!   the serving hot path's new pre-durability step; it must stay in the
//!   tens of nanoseconds.
//!
//! A warm-up pass prints one summary line per comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nimbus_core::{
    GaussianMechanism, LaplaceMechanism, Ncp, RandomizedMechanism, SnappedGaussianMechanism,
    UniformMechanism,
};
use nimbus_linalg::Vector;
use nimbus_market::BuyerAccounts;
use nimbus_ml::LinearModel;
use nimbus_randkit::seeded_rng;
use std::hint::black_box;
use std::time::Instant;

fn model_of_dim(d: usize) -> LinearModel {
    LinearModel::new(Vector::from_vec(
        (0..d).map(|i| (i as f64 * 0.37).sin()).collect(),
    ))
}

/// Times `iters` runs of `f` and returns the mean ns/op (warm-up metric;
/// criterion still produces the statistically careful numbers).
fn time_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e9 / iters as f64
}

fn bench_perturb_dims(c: &mut Criterion) {
    let ncp = Ncp::new(1.0).unwrap();
    let mut group = c.benchmark_group("gaussian_perturb_by_dim");
    for d in [9usize, 20, 54, 90, 512] {
        let model = model_of_dim(d);
        group.bench_with_input(BenchmarkId::from_parameter(d), &model, |b, m| {
            let mut rng = seeded_rng(1);
            b.iter(|| {
                GaussianMechanism
                    .perturb(black_box(m), ncp, &mut rng)
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_mechanism_comparison(c: &mut Criterion) {
    let ncp = Ncp::new(1.0).unwrap();
    let model = model_of_dim(90); // YearMSD dimensionality
    let mechanisms: Vec<(&str, Box<dyn RandomizedMechanism>)> = vec![
        ("gaussian", Box::new(GaussianMechanism)),
        ("laplace", Box::new(LaplaceMechanism)),
        ("uniform", Box::new(UniformMechanism)),
    ];
    let mut group = c.benchmark_group("mechanisms_d90");
    for (name, mech) in mechanisms {
        group.bench_function(name, |b| {
            let mut rng = seeded_rng(2);
            b.iter(|| mech.perturb(black_box(&model), ncp, &mut rng).unwrap())
        });
    }
    group.finish();
}

/// Naive Box–Muller vs snapped discrete Gaussian, across dimensionalities.
/// The ratio is the price of floating-point-attack safety per sale.
fn bench_naive_vs_snapped(c: &mut Criterion) {
    let ncp = Ncp::new(1.0).unwrap();
    let mut group = c.benchmark_group("naive_vs_snapped_perturb");
    for d in [9usize, 90, 512] {
        let model = model_of_dim(d);
        // Warm-up comparison for the printed summary line.
        let mut rng = seeded_rng(3);
        let naive_ns = time_ns(2_000, || {
            black_box(GaussianMechanism.perturb(&model, ncp, &mut rng).unwrap());
        });
        let snapped_ns = time_ns(2_000, || {
            black_box(
                SnappedGaussianMechanism
                    .perturb(&model, ncp, &mut rng)
                    .unwrap(),
            );
        });
        println!(
            "perturb d={d}: naive {naive_ns:.0} ns/op, snapped {snapped_ns:.0} ns/op \
             ({:.1}x premium)",
            snapped_ns / naive_ns.max(1e-9),
        );
        for (name, mech) in [
            ("naive", &GaussianMechanism as &dyn RandomizedMechanism),
            ("snapped", &SnappedGaussianMechanism),
        ] {
            group.bench_with_input(BenchmarkId::new(name, d), &model, |b, m| {
                let mut rng = seeded_rng(4);
                b.iter(|| mech.perturb(black_box(m), ncp, &mut rng).unwrap())
            });
        }
    }
    group.finish();
}

/// The pre-durability budget check in its three hot-path regimes. Charges
/// are paired with refunds so the account never exhausts mid-measurement
/// (the reject regime seeds an already-exhausted buyer instead).
fn bench_budget_check_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("budget_check");

    let unmetered = BuyerAccounts::new(None);
    let metered = BuyerAccounts::new(Some(1e12));
    let exhausted = BuyerAccounts::new(Some(100.0));
    exhausted.seed(&[(7, 100.0)]);

    let unmetered_ns = time_ns(100_000, || {
        unmetered.charge(7, 10.0).unwrap();
        unmetered.refund(7, 10.0);
    });
    let admit_ns = time_ns(100_000, || {
        metered.charge(7, 10.0).unwrap();
        metered.refund(7, 10.0);
    });
    let reject_ns = time_ns(100_000, || {
        black_box(exhausted.charge(7, 10.0).is_err());
    });
    println!(
        "budget check: unmetered {unmetered_ns:.0} ns, metered-admit {admit_ns:.0} ns, \
         metered-reject {reject_ns:.0} ns (charge+refund pairs)"
    );

    group.bench_function("unmetered_charge_refund", |b| {
        b.iter(|| {
            unmetered.charge(7, 10.0).unwrap();
            unmetered.refund(7, 10.0);
        })
    });
    group.bench_function("metered_admit_charge_refund", |b| {
        b.iter(|| {
            metered.charge(7, 10.0).unwrap();
            metered.refund(7, 10.0);
        })
    });
    group.bench_function("metered_reject", |b| {
        b.iter(|| black_box(exhausted.charge(7, 10.0).is_err()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_perturb_dims,
    bench_mechanism_comparison,
    bench_naive_vs_snapped,
    bench_budget_check_overhead
);
criterion_main!(benches);
