//! Train/test splitting.
//!
//! The seller's dataset is delivered as a pair `(D_train, D_test)`
//! (Section 3.1): the broker trains `h*` on `D_train` while the buyer-facing
//! error function `ε` is typically evaluated on `D_test`.

use crate::{DataError, Dataset, ExampleStream, Result, Task};
use nimbus_linalg::{Matrix, Vector};
use nimbus_randkit::uniform::shuffle_indices;
use nimbus_randkit::NimbusRng;

/// A train/test split of a dataset.
#[derive(Debug, Clone)]
pub struct TrainTest {
    /// The training portion `D_train` (n₁ examples).
    pub train: Dataset,
    /// The held-out portion `D_test` (n₂ examples).
    pub test: Dataset,
}

impl TrainTest {
    /// Total number of examples across both splits (`n₀` in Table 1).
    pub fn total_len(&self) -> usize {
        self.train.len() + self.test.len()
    }
}

/// Splits `data` into train/test with the given train fraction, shuffling
/// with the provided RNG.
///
/// The paper's evaluation (Table 3) uses a 75/25 split for every dataset;
/// that is the conventional choice here too, but any fraction strictly
/// inside `(0, 1)` is accepted. Both sides are guaranteed non-empty for
/// datasets with at least 2 examples; degenerate rounding is nudged so that
/// neither side is empty.
pub fn train_test_split(
    data: &Dataset,
    train_fraction: f64,
    rng: &mut NimbusRng,
) -> Result<TrainTest> {
    let (order, n_train) = shuffled_order(data.len(), train_fraction, rng)?;
    let train = data.select(&order[..n_train]);
    let test = data.select(&order[n_train..]);
    Ok(TrainTest { train, test })
}

/// Splits the examples `stream` yields exactly as [`train_test_split`]
/// splits them once collected into a [`Dataset`], but writes each example
/// straight into its slot in the train or test buffers: peak memory is one
/// copy of the data instead of two.
pub(crate) fn split_from_stream(
    stream: &mut dyn ExampleStream,
    task: Task,
    train_fraction: f64,
    rng: &mut NimbusRng,
) -> Result<TrainTest> {
    let (n, d) = (stream.len(), stream.num_features());
    let (order, n_train) = shuffled_order(n, train_fraction, rng)?;
    // `slot[i]` is the position of the stream's i-th example in the
    // concatenation train ++ test.
    let mut slot = vec![0usize; n];
    for (pos, &row) in order.iter().enumerate() {
        slot[row] = pos;
    }
    drop(order);
    let mut train = (vec![0.0; n_train * d], vec![0.0; n_train]);
    let mut test = (vec![0.0; (n - n_train) * d], vec![0.0; n - n_train]);
    for pos in slot {
        let ((x, y), at) = if pos < n_train {
            (&mut train, pos)
        } else {
            (&mut test, pos - n_train)
        };
        y[at] = stream
            .next_example(&mut x[at * d..(at + 1) * d])
            .expect("stream yields len() examples");
    }
    let side = |(x, y): (Vec<f64>, Vec<f64>)| {
        Dataset::new(
            Matrix::from_row_major(y.len(), d, x)?,
            Vector::from_vec(y),
            task,
        )
    };
    Ok(TrainTest {
        train: side(train)?,
        test: side(test)?,
    })
}

/// Draws the split of `n` examples: a shuffled order of `0..n` whose first
/// `n_train` entries go to the training side.
fn shuffled_order(
    n: usize,
    train_fraction: f64,
    rng: &mut NimbusRng,
) -> Result<(Vec<usize>, usize)> {
    if !(train_fraction > 0.0 && train_fraction < 1.0) {
        return Err(DataError::InvalidSplitFraction {
            fraction: train_fraction,
        });
    }
    if n < 2 {
        return Err(DataError::EmptyDataset);
    }
    let mut order: Vec<usize> = (0..n).collect();
    shuffle_indices(rng, &mut order);
    let n_train = ((n as f64 * train_fraction).round() as usize).clamp(1, n - 1);
    Ok((order, n_train))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus_randkit::seeded_rng;

    fn dataset(n: usize) -> Dataset {
        let x = Matrix::from_row_major(n, 1, (0..n).map(|i| i as f64).collect()).unwrap();
        let y = Vector::from_vec((0..n).map(|i| (i * 2) as f64).collect());
        Dataset::new(x, y, Task::Regression).unwrap()
    }

    #[test]
    fn split_sizes_match_fraction() {
        let d = dataset(100);
        let mut rng = seeded_rng(1);
        let tt = train_test_split(&d, 0.75, &mut rng).unwrap();
        assert_eq!(tt.train.len(), 75);
        assert_eq!(tt.test.len(), 25);
        assert_eq!(tt.total_len(), 100);
    }

    #[test]
    fn split_partitions_rows_exactly() {
        let d = dataset(50);
        let mut rng = seeded_rng(3);
        let tt = train_test_split(&d, 0.6, &mut rng).unwrap();
        // Reconstruct the multiset of targets across both sides.
        let mut all: Vec<f64> = tt
            .train
            .targets()
            .as_slice()
            .iter()
            .chain(tt.test.targets().as_slice())
            .copied()
            .collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expected: Vec<f64> = (0..50).map(|i| (i * 2) as f64).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn rows_stay_aligned_with_targets() {
        let d = dataset(20);
        let mut rng = seeded_rng(5);
        let tt = train_test_split(&d, 0.5, &mut rng).unwrap();
        for side in [&tt.train, &tt.test] {
            for i in 0..side.len() {
                let (x, y) = side.example(i);
                assert_eq!(y, x[0] * 2.0, "row/target pairing broke in the shuffle");
            }
        }
    }

    #[test]
    fn extreme_fractions_keep_both_sides_non_empty() {
        let d = dataset(10);
        let mut rng = seeded_rng(7);
        let tt = train_test_split(&d, 0.999, &mut rng).unwrap();
        assert!(!tt.test.is_empty());
        let tt = train_test_split(&d, 0.001, &mut rng).unwrap();
        assert!(!tt.train.is_empty());
    }

    #[test]
    fn rejects_invalid_fraction_and_tiny_data() {
        let d = dataset(10);
        let mut rng = seeded_rng(0);
        assert!(train_test_split(&d, 0.0, &mut rng).is_err());
        assert!(train_test_split(&d, 1.0, &mut rng).is_err());
        assert!(train_test_split(&d, f64::NAN, &mut rng).is_err());
        let one = dataset(1);
        assert!(matches!(
            train_test_split(&one, 0.5, &mut rng),
            Err(DataError::EmptyDataset)
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let d = dataset(30);
        let a = train_test_split(&d, 0.7, &mut seeded_rng(99)).unwrap();
        let b = train_test_split(&d, 0.7, &mut seeded_rng(99)).unwrap();
        assert_eq!(a.train.targets().as_slice(), b.train.targets().as_slice());
        assert_eq!(a.test.targets().as_slice(), b.test.targets().as_slice());
    }
}
