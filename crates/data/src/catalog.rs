//! The six evaluation datasets of the paper (Table 3).
//!
//! | Task           | Dataset    | n₁ (train) | n₂ (test) | d  |
//! |----------------|------------|-----------:|----------:|---:|
//! | Regression     | Simulated1 |  7,500,000 | 2,500,000 | 20 |
//! | Regression     | YearMSD    |    386,509 |   128,836 | 90 |
//! | Regression     | CASP       |     34,298 |    11,433 |  9 |
//! | Classification | Simulated2 |  7,500,000 | 2,500,000 | 20 |
//! | Classification | CovType    |    435,759 |   145,253 | 54 |
//! | Classification | SUSY       |  3,750,000 | 1,250,000 | 18 |
//!
//! The two simulated datasets are generated exactly as §6.1 describes. The
//! four UCI datasets are replaced by *shape-matched stand-ins* (see
//! DESIGN.md): planted-hyperplane generators with the same task, `n` and
//! `d`, plus target noise / label noise chosen so that the optimal model's
//! test error lands in the same numeric regime as the corresponding Figure 6
//! panel. Figure 6 demonstrates monotonicity of the expected error in the
//! inverse noise control parameter — a property of the mechanism and loss,
//! not of the original UCI bytes — so the stand-ins exercise the identical
//! code path.
//!
//! Full Table 3 sizes are expensive to materialize on a laptop; the
//! [`DatasetSpec::scaled`] constructor shrinks `n` while preserving `d`, the
//! train/test ratio and the noise structure, which is how the experiment
//! binaries run by default (`--full` restores paper sizes).

use crate::split::split_from_stream;
use crate::synthetic::{ClassificationSpec, RegressionSpec};
use crate::{
    ExampleStream, Result, SyntheticClassificationStream, SyntheticRegressionStream, Task,
    TrainTest,
};
use nimbus_linalg::Vector;
use nimbus_randkit::seeded_rng;

/// Identifier for each dataset used in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperDataset {
    /// §6.1 simulated regression data (noiseless planted hyperplane).
    Simulated1,
    /// Year prediction from audio features (UCI YearMSD) — stand-in.
    YearMsd,
    /// Protein structure RMSD prediction (UCI CASP) — stand-in.
    Casp,
    /// §6.1 simulated classification data (5% label flips).
    Simulated2,
    /// Forest cover type (UCI CovType, binarized) — stand-in.
    CovType,
    /// SUSY particle detection (UCI SUSY) — stand-in.
    Susy,
}

impl PaperDataset {
    /// All six datasets in Table 3 order.
    pub const ALL: [PaperDataset; 6] = [
        PaperDataset::Simulated1,
        PaperDataset::YearMsd,
        PaperDataset::Casp,
        PaperDataset::Simulated2,
        PaperDataset::CovType,
        PaperDataset::Susy,
    ];

    /// Human-readable dataset name as printed in Table 3.
    pub fn name(&self) -> &'static str {
        match self {
            PaperDataset::Simulated1 => "Simulated1",
            PaperDataset::YearMsd => "YearMSD",
            PaperDataset::Casp => "CASP",
            PaperDataset::Simulated2 => "Simulated2",
            PaperDataset::CovType => "CovType",
            PaperDataset::Susy => "SUSY",
        }
    }

    /// Task type of the dataset.
    pub fn task(&self) -> Task {
        match self {
            PaperDataset::Simulated1 | PaperDataset::YearMsd | PaperDataset::Casp => {
                Task::Regression
            }
            _ => Task::BinaryClassification,
        }
    }

    /// `(n_train, n_test, d)` exactly as reported in Table 3.
    pub fn paper_shape(&self) -> (usize, usize, usize) {
        match self {
            PaperDataset::Simulated1 => (7_500_000, 2_500_000, 20),
            PaperDataset::YearMsd => (386_509, 128_836, 90),
            PaperDataset::Casp => (34_298, 11_433, 9),
            PaperDataset::Simulated2 => (7_500_000, 2_500_000, 20),
            PaperDataset::CovType => (435_759, 145_253, 54),
            PaperDataset::Susy => (3_750_000, 1_250_000, 18),
        }
    }

    /// The full-size specification matching Table 3.
    pub fn spec(&self) -> DatasetSpec {
        let (n_train, n_test, d) = self.paper_shape();
        DatasetSpec {
            dataset: *self,
            n_train,
            n_test,
            d,
        }
    }
}

/// A concrete (possibly scaled-down) instantiation plan for a paper dataset.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// Which dataset this spec instantiates.
    pub dataset: PaperDataset,
    /// Number of training examples to generate.
    pub n_train: usize,
    /// Number of test examples to generate.
    pub n_test: usize,
    /// Number of features (always the paper's d).
    pub d: usize,
}

impl DatasetSpec {
    /// Scales the example counts down to at most `max_total` rows while
    /// preserving `d` and the 75/25 train/test ratio. Row counts never drop
    /// below 40 so that splits remain meaningful.
    pub fn scaled(dataset: PaperDataset, max_total: usize) -> DatasetSpec {
        let (n_train, n_test, d) = dataset.paper_shape();
        let total = n_train + n_test;
        let target = max_total.max(40).min(total);
        let ratio = n_train as f64 / total as f64;
        let st = ((target as f64 * ratio).round() as usize).max(20);
        let se = (target - st.min(target)).max(20);
        DatasetSpec {
            dataset,
            n_train: st,
            n_test: se,
            d,
        }
    }

    /// Total rows this spec will generate.
    pub fn total(&self) -> usize {
        self.n_train + self.n_test
    }

    /// Materializes the dataset as a train/test pair. Returns the split plus
    /// the planted ground-truth hyperplane (useful for diagnostics).
    ///
    /// The split is drawn first and each generated row is written straight
    /// into its train or test slot, so peak memory is one copy of the data.
    /// The output is bit-for-bit what generating the whole dataset with
    /// [`generate_regression`](crate::synthetic::generate_regression) /
    /// [`generate_classification`](crate::synthetic::generate_classification)
    /// and splitting it with [`train_test_split`](crate::train_test_split)
    /// under `seeded_rng(seed ^ 0x0005_7117)` gives.
    ///
    /// Per-dataset noise parameters are fixed constants chosen so the
    /// optimal model's test error sits in the same regime as the matching
    /// Figure 6 panel (e.g. YearMSD square loss around 10²; CovType 0/1
    /// error near 0.1).
    pub fn materialize(&self, seed: u64) -> Result<(TrainTest, Vector)> {
        let n = self.total();
        let regression = |spec: RegressionSpec| {
            let stream = SyntheticRegressionStream::new(spec, seed);
            let w = stream.planted_hyperplane();
            (Box::new(stream) as Box<dyn ExampleStream>, w)
        };
        let classification = |spec: ClassificationSpec| {
            let stream = SyntheticClassificationStream::new(spec, seed);
            let w = stream.planted_hyperplane();
            (Box::new(stream) as Box<dyn ExampleStream>, w)
        };
        let (mut rows, hyperplane) = match self.dataset {
            PaperDataset::Simulated1 => regression(RegressionSpec::simulated1(n, self.d)),
            // Audio-feature year regression: heavy irreducible noise (base
            // MSE ≈ 100) and wide-scale audio features so model noise of
            // variance δ inflates the test MSE by ≈ 40·δ — reproducing the
            // visible 160 → 100 drop of the paper's YearMSD panel.
            PaperDataset::YearMsd => regression(RegressionSpec {
                n,
                d: self.d,
                target_noise: 10.0,
                target_scale: 3.0,
                feature_scale: 6.3,
            }),
            // Protein RMSD regression: irreducible MSE ≈ 100 with
            // physical-unit features large enough that δ = 1 noise roughly
            // half-again the base error (paper panel: square loss near 10²,
            // visibly decaying).
            PaperDataset::Casp => regression(RegressionSpec {
                n,
                d: self.d,
                target_noise: 10.0,
                target_scale: 2.0,
                feature_scale: 7.0,
            }),
            PaperDataset::Simulated2 => classification(ClassificationSpec::simulated2(n, self.d)),
            // Binarized forest cover: ~8% Bayes error in the paper's 0/1
            // panel.
            PaperDataset::CovType => classification(ClassificationSpec {
                n,
                d: self.d,
                positive_fidelity: 0.92,
            }),
            // SUSY detection is the hardest task in Fig. 6 (0/1 error ~0.22
            // at best).
            PaperDataset::Susy => classification(ClassificationSpec {
                n,
                d: self.d,
                positive_fidelity: 0.78,
            }),
        };
        let frac = self.n_train as f64 / n as f64;
        let mut rng = seeded_rng(seed ^ 0x0005_7117_u64);
        let split = split_from_stream(&mut *rows, self.dataset.task(), frac, &mut rng)?;
        Ok((split, Vector::from_vec(hyperplane)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_shapes_match_paper() {
        assert_eq!(
            PaperDataset::Simulated1.paper_shape(),
            (7_500_000, 2_500_000, 20)
        );
        assert_eq!(PaperDataset::YearMsd.paper_shape(), (386_509, 128_836, 90));
        assert_eq!(PaperDataset::Casp.paper_shape(), (34_298, 11_433, 9));
        assert_eq!(PaperDataset::CovType.paper_shape(), (435_759, 145_253, 54));
        assert_eq!(PaperDataset::Susy.paper_shape(), (3_750_000, 1_250_000, 18));
    }

    #[test]
    fn tasks_match_table3() {
        assert_eq!(PaperDataset::Simulated1.task(), Task::Regression);
        assert_eq!(PaperDataset::YearMsd.task(), Task::Regression);
        assert_eq!(PaperDataset::Casp.task(), Task::Regression);
        assert_eq!(PaperDataset::Simulated2.task(), Task::BinaryClassification);
        assert_eq!(PaperDataset::CovType.task(), Task::BinaryClassification);
        assert_eq!(PaperDataset::Susy.task(), Task::BinaryClassification);
    }

    #[test]
    fn scaled_preserves_d_and_ratio() {
        let spec = DatasetSpec::scaled(PaperDataset::Simulated1, 10_000);
        assert_eq!(spec.d, 20);
        assert!(spec.total() <= 10_000);
        let ratio = spec.n_train as f64 / spec.total() as f64;
        assert!((ratio - 0.75).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn scaled_never_exceeds_paper_size() {
        let spec = DatasetSpec::scaled(PaperDataset::Casp, usize::MAX / 2);
        assert!(spec.total() <= 34_298 + 11_433);
    }

    #[test]
    fn materialize_each_dataset_small() {
        for ds in PaperDataset::ALL {
            let spec = DatasetSpec::scaled(ds, 400);
            let (tt, w) = spec.materialize(11).unwrap();
            assert_eq!(tt.train.num_features(), spec.d, "{}", ds.name());
            assert_eq!(tt.train.task(), ds.task());
            assert_eq!(w.len(), spec.d);
            assert_eq!(tt.total_len(), spec.total());
        }
    }

    #[test]
    fn materialize_is_deterministic() {
        let spec = DatasetSpec::scaled(PaperDataset::CovType, 300);
        let (a, _) = spec.materialize(5).unwrap();
        let (b, _) = spec.materialize(5).unwrap();
        assert_eq!(a.train.features().as_slice(), b.train.features().as_slice());
    }

    #[test]
    fn names_are_stable() {
        let names: Vec<&str> = PaperDataset::ALL.iter().map(|d| d.name()).collect();
        assert_eq!(
            names,
            vec![
                "Simulated1",
                "YearMSD",
                "CASP",
                "Simulated2",
                "CovType",
                "SUSY"
            ]
        );
    }
}
