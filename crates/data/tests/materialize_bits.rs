//! `DatasetSpec::materialize` writes each generated row straight into its
//! train or test slot. Sold models are the trained optimum plus noise, and a
//! journalled sale replays against the optimum trained on these bits, so the
//! output must stay bit-for-bit what generate-then-split produces.

use nimbus_data::synthetic::{
    generate_classification, generate_regression, ClassificationSpec, RegressionSpec,
};
use nimbus_data::{train_test_split, Dataset, DatasetSpec, PaperDataset, Task, TrainTest};
use nimbus_linalg::Vector;
use nimbus_randkit::seeded_rng;

/// Generate-then-split with the catalog's per-dataset generator settings,
/// restated here so the reference does not go through `materialize`.
fn reference(spec: &DatasetSpec, seed: u64) -> (TrainTest, Vector) {
    let n = spec.total();
    let d = spec.d;
    let (data, hyperplane): (Dataset, Vector) = match spec.dataset {
        PaperDataset::Simulated1 => {
            generate_regression(&RegressionSpec::simulated1(n, d), seed).unwrap()
        }
        PaperDataset::YearMsd => generate_regression(
            &RegressionSpec {
                n,
                d,
                target_noise: 10.0,
                target_scale: 3.0,
                feature_scale: 6.3,
            },
            seed,
        )
        .unwrap(),
        PaperDataset::Casp => generate_regression(
            &RegressionSpec {
                n,
                d,
                target_noise: 10.0,
                target_scale: 2.0,
                feature_scale: 7.0,
            },
            seed,
        )
        .unwrap(),
        PaperDataset::Simulated2 => {
            generate_classification(&ClassificationSpec::simulated2(n, d), seed).unwrap()
        }
        PaperDataset::CovType => generate_classification(
            &ClassificationSpec {
                n,
                d,
                positive_fidelity: 0.92,
            },
            seed,
        )
        .unwrap(),
        PaperDataset::Susy => generate_classification(
            &ClassificationSpec {
                n,
                d,
                positive_fidelity: 0.78,
            },
            seed,
        )
        .unwrap(),
    };
    let frac = spec.n_train as f64 / n as f64;
    let split = train_test_split(&data, frac, &mut seeded_rng(seed ^ 0x0005_7117)).unwrap();
    (split, hyperplane)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn assert_same_side(got: &Dataset, want: &Dataset, what: &str) {
    assert_eq!(got.task(), want.task(), "{what}: task");
    assert_eq!(got.len(), want.len(), "{what}: rows");
    assert_eq!(got.num_features(), want.num_features(), "{what}: d");
    assert_eq!(
        bits(got.features().as_slice()),
        bits(want.features().as_slice()),
        "{what}: features"
    );
    assert_eq!(
        bits(got.targets().as_slice()),
        bits(want.targets().as_slice()),
        "{what}: targets"
    );
}

/// A spec with exactly `n_train + n_test` rows (`scaled` never goes below 40).
fn exact(dataset: PaperDataset, n_train: usize, n_test: usize) -> DatasetSpec {
    DatasetSpec {
        n_train,
        n_test,
        ..dataset.spec()
    }
}

#[test]
fn materialize_equals_generate_then_split() {
    for dataset in PaperDataset::ALL {
        let mut specs = vec![
            exact(dataset, 1, 1),
            exact(dataset, 2, 1),
            exact(dataset, 1, 2),
        ];
        specs.extend([40, 1000, 4001].map(|rows| DatasetSpec::scaled(dataset, rows)));
        for spec in specs {
            for seed in [1, 7, 99] {
                let what = format!("{} n={} seed={seed}", dataset.name(), spec.total());
                let (got, got_w) = spec.materialize(seed).unwrap();
                let (want, want_w) = reference(&spec, seed);
                assert_same_side(&got.train, &want.train, &format!("{what} train"));
                assert_same_side(&got.test, &want.test, &format!("{what} test"));
                assert_eq!(got.train.task(), dataset.task(), "{what}");
                assert_eq!(bits(got_w.as_slice()), bits(want_w.as_slice()), "{what}: w");
            }
        }
    }
}

#[test]
fn materialize_rejects_what_the_split_rejects() {
    assert!(exact(PaperDataset::Casp, 1, 0).materialize(3).is_err());
    assert!(exact(PaperDataset::Casp, 0, 2).materialize(3).is_err());
    assert!(exact(PaperDataset::Susy, 0, 0).materialize(3).is_err());
}

/// FNV-1a over the raw bits of every value `materialize` returns.
fn checksum(tt: &TrainTest, w: &Vector) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let sides = [
        tt.train.features().as_slice(),
        tt.train.targets().as_slice(),
        tt.test.features().as_slice(),
        tt.test.targets().as_slice(),
        w.as_slice(),
    ];
    for v in sides.iter().flat_map(|s| s.iter()) {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Checksums recorded from the generators as they stood when the direct
/// scatter landed. A change here means already-journalled sales would
/// replay against a different optimum.
#[test]
fn materialized_bits_match_golden_checksums() {
    let year = DatasetSpec::scaled(PaperDataset::YearMsd, 1000);
    let (tt, w) = year.materialize(7).unwrap();
    assert_eq!(tt.train.task(), Task::Regression);
    assert_eq!(checksum(&tt, &w), 0x443a_efcb_6741_b793);
    let cov = DatasetSpec::scaled(PaperDataset::CovType, 1000);
    let (tt, w) = cov.materialize(7).unwrap();
    assert_eq!(tt.train.task(), Task::BinaryClassification);
    assert_eq!(checksum(&tt, &w), 0xd71c_8a2d_fa7e_c611);
}
