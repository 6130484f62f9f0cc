//! The broker sells noisy copies of the trained optimum `h*`, and a
//! journalled sale replays by re-perturbing it, so a trainer must return
//! the same bits for the same data. These checksums pin `h*` for the two
//! trainers the broker uses, on every catalog dataset of its task, at a
//! size that spans several of the Gram kernel's row blocks.

use nimbus_data::{DatasetSpec, PaperDataset, Task};
use nimbus_ml::{LinearModel, LinearRegressionTrainer, LogisticRegressionTrainer, Trainer};

/// FNV-1a over the raw bits of the weights.
fn checksum(model: &LinearModel) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in model.weights().as_slice() {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn optimum(dataset: PaperDataset) -> LinearModel {
    let (tt, _) = DatasetSpec::scaled(dataset, 2000).materialize(7).unwrap();
    match dataset.task() {
        Task::Regression => LinearRegressionTrainer::ridge(1e-6).train(&tt.train),
        Task::BinaryClassification => LogisticRegressionTrainer::new(1e-4).train(&tt.train),
    }
    .unwrap()
}

/// Checksums recorded with the row-at-a-time Gram and Hessian loops that
/// the tiled kernel replaced. A change here means already-journalled sales
/// would replay against a different optimum.
#[test]
fn trained_optima_match_golden_checksums() {
    let golden = [
        (PaperDataset::Simulated1, 0x2eec_ed60_4b28_0c39),
        (PaperDataset::YearMsd, 0x69fa_67ca_2336_062e),
        (PaperDataset::Casp, 0xda06_df65_7b8a_c3cc),
        (PaperDataset::Simulated2, 0xac65_d7cf_27c4_39b2),
        (PaperDataset::CovType, 0x6f7b_a62f_2405_b49c),
        (PaperDataset::Susy, 0xc1e8_1a1e_b7b0_a7c6),
    ];
    let got: Vec<(PaperDataset, u64)> = golden
        .iter()
        .map(|&(dataset, _)| (dataset, checksum(&optimum(dataset))))
        .collect();
    for (&(dataset, want), &(_, have)) in golden.iter().zip(&got) {
        assert_eq!(
            have,
            want,
            "{}: h* bits changed ({got:#x?})",
            dataset.name()
        );
    }
}
