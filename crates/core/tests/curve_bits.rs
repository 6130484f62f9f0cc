//! A published menu is priced off the Monte-Carlo error curve, so the curve
//! must not move when the way its noisy models are scored changes. These
//! checksums pin the raw mean, standard error and smoothed error of every
//! point of curves built by `CurveProvider::curve_for`, for each loss the
//! batched scorer specializes, under the float and the snapped Gaussian
//! mechanisms.

use nimbus_core::{
    CurveProvider, ErrorCurve, GaussianMechanism, InverseNcp, Ncp, RandomizedMechanism,
    SnappedGaussianMechanism,
};
use nimbus_data::{DatasetSpec, PaperDataset, Task, TrainTest};
use nimbus_ml::{
    LinearModel, LinearRegressionTrainer, LogisticRegressionTrainer, LossMetric, SquaredLoss,
    Trainer,
};

/// FNV-1a over the raw bits of every point's mean, standard error and
/// smoothed error.
fn checksum(curve: &ErrorCurve) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in curve.points() {
        for v in [p.mean_error, p.std_error, p.smoothed_error] {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Twelve menu points over `1/δ ∈ [1, 100]`.
fn grid() -> Vec<Ncp> {
    (0..12)
        .map(|k| InverseNcp::new(1.0 + 99.0 * k as f64 / 11.0).unwrap().ncp())
        .collect()
}

fn listing(dataset: PaperDataset) -> (TrainTest, LinearModel) {
    let (tt, _) = DatasetSpec::scaled(dataset, 2000).materialize(7).unwrap();
    let optimal = match dataset.task() {
        Task::Regression => LinearRegressionTrainer::ridge(1e-6).train(&tt.train),
        Task::BinaryClassification => LogisticRegressionTrainer::new(1e-4).train(&tt.train),
    }
    .unwrap();
    (tt, optimal)
}

fn curve(dataset: PaperDataset, loss: &str, snapped: bool) -> ErrorCurve {
    let (tt, optimal) = listing(dataset);
    let metric = match loss {
        "logistic" => LossMetric::logistic(tt.test),
        "zero_one" => LossMetric::zero_one(tt.test),
        "hinge" => LossMetric::hinge(tt.test, 1e-3).unwrap(),
        _ => LossMetric::new(Box::new(SquaredLoss::plain()), tt.test),
    };
    let mechanism: &(dyn RandomizedMechanism + Sync) = if snapped {
        &SnappedGaussianMechanism
    } else {
        &GaussianMechanism
    };
    CurveProvider::new(40, 11)
        .curve_for(&metric, mechanism, &optimal, &grid())
        .unwrap()
}

/// Checksums recorded with the model-at-a-time scorer that the batched
/// kernel replaced. A change here means a re-opened listing would post a
/// different menu.
#[test]
fn monte_carlo_curves_match_golden_checksums() {
    use PaperDataset::{Casp, CovType, Simulated2, Susy, YearMsd};
    let golden: [(PaperDataset, &str, bool, u64); 12] = [
        (Simulated2, "logistic", false, 0x1447_5670_bb0f_305f),
        (Simulated2, "logistic", true, 0xe1d3_6cfe_e533_75a1),
        (CovType, "logistic", false, 0x5c6f_504c_6954_de9e),
        (CovType, "logistic", true, 0x85a6_f8ae_86d5_4d34),
        (Susy, "logistic", false, 0x90a5_fe2a_3966_cdb6),
        (Susy, "logistic", true, 0x3964_99df_9638_6199),
        (CovType, "zero_one", false, 0x0bb1_d4ff_2b5e_0b1f),
        (CovType, "zero_one", true, 0x6104_5f20_3307_d804),
        (Susy, "hinge", false, 0x54a0_2807_af85_fa2d),
        (Simulated2, "hinge", true, 0x1467_6d30_7f84_ebc0),
        (YearMsd, "square", false, 0x9361_320f_8539_a340),
        (Casp, "square", true, 0x34c6_1d6a_76a5_18c1),
    ];
    let got: Vec<u64> = golden
        .iter()
        .map(|&(dataset, loss, snapped, _)| checksum(&curve(dataset, loss, snapped)))
        .collect();
    for (&(dataset, loss, snapped, want), &have) in golden.iter().zip(&got) {
        assert_eq!(
            have,
            want,
            "{} {loss} (snapped: {snapped}): curve bits changed ({got:#x?})",
            dataset.name()
        );
    }
}
