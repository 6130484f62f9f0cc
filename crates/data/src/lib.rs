//! Datasets for Nimbus: containers, splits, scaling, CSV I/O and the
//! synthetic generators behind the paper's evaluation.
//!
//! The paper's market sells models trained on a seller dataset `D = (D_train,
//! D_test)` of labeled examples `z = (x, y)` (Section 3.1). This crate
//! provides:
//!
//! * [`Dataset`] — a dense labeled dataset with a task tag (regression /
//!   binary classification) and the train/test split machinery of standard
//!   ML practice ([`split::train_test_split`]).
//! * [`scale::Standardizer`] — feature standardization fit on the train set
//!   only, applied to both splits (no test-set leakage).
//! * [`csv`] — minimal, dependency-free CSV read/write for numeric tables so
//!   experiments can persist results and users can load their own data.
//! * [`synthetic`] — the paper's `Simulated1` (regression: targets are inner
//!   products with a planted hyperplane) and `Simulated2` (classification:
//!   labels flip with probability 0.05 around a planted hyperplane),
//!   exactly as described in Section 6.1.
//! * [`catalog`] — shape-matched stand-ins for the four UCI datasets of
//!   Table 3 (YearMSD, CASP, CovType, SUSY). See DESIGN.md for the
//!   substitution rationale: Figure 6 only needs datasets with these task
//!   types and dimensions, not the original bytes.
//! * [`stream`] — constant-memory example streams, so paper-scale (10M-row)
//!   regression training runs without materializing the dataset.

pub mod catalog;
pub mod csv;
pub mod dataset;
pub mod error;
pub mod scale;
pub mod split;
pub mod stream;
pub mod synthetic;

pub use catalog::{DatasetSpec, PaperDataset};
pub use dataset::{Dataset, Task};
pub use error::DataError;
pub use scale::Standardizer;
pub use split::{train_test_split, TrainTest};
pub use stream::{
    DatasetStream, ExampleStream, SyntheticClassificationStream, SyntheticRegressionStream,
};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, DataError>;
