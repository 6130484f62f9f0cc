//! Streaming access to labeled examples.
//!
//! Table 3's largest datasets (Simulated1/2 at 10M rows, SUSY at 5M) are
//! uncomfortable to materialize: 10M × 20 features × 8 bytes ≈ 1.6 GB, even
//! now that [`crate::DatasetSpec::materialize`] writes each row straight
//! into its train/test slot instead of copying a full matrix. The broker's
//! one-time training for the square loss, however, only needs the Gram sums
//! `XᵀX` and `Xᵀy`, which accumulate in `O(d²)` memory from a single pass.
//! [`ExampleStream`] abstracts that pass; [`SyntheticRegressionStream`]
//! regenerates the §6.1 data on the fly so full paper-scale training runs
//! in constant memory. It and [`SyntheticClassificationStream`] are the
//! only row generators: the [`crate::synthetic`] functions collect them and
//! `materialize` scatters them into a split.

use crate::synthetic::{ClassificationSpec, RegressionSpec};
use crate::{Dataset, Result, Task};
use nimbus_linalg::{Matrix, Vector};
use nimbus_randkit::{seeded_rng, split_stream, NimbusRng, StandardNormal};
use rand::Rng;

/// A restartable stream of labeled examples `(x, y)`.
pub trait ExampleStream {
    /// Number of features per example.
    fn num_features(&self) -> usize;

    /// Total number of examples the stream will yield.
    fn len(&self) -> usize;

    /// Whether the stream yields no examples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resets the stream to its first example.
    fn reset(&mut self);

    /// Writes the next example's features into `x` and returns its target,
    /// or `None` when exhausted. `x.len()` must equal `num_features()`.
    fn next_example(&mut self, x: &mut [f64]) -> Option<f64>;
}

/// Streams a materialized [`Dataset`] (adapter for the in-memory path).
#[derive(Debug, Clone)]
pub struct DatasetStream<'a> {
    data: &'a Dataset,
    pos: usize,
}

impl<'a> DatasetStream<'a> {
    /// Wraps a dataset as a stream.
    pub fn new(data: &'a Dataset) -> Self {
        DatasetStream { data, pos: 0 }
    }
}

impl ExampleStream for DatasetStream<'_> {
    fn num_features(&self) -> usize {
        self.data.num_features()
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn reset(&mut self) {
        self.pos = 0;
    }

    fn next_example(&mut self, x: &mut [f64]) -> Option<f64> {
        if self.pos >= self.data.len() {
            return None;
        }
        let (features, y) = self.data.example(self.pos);
        x.copy_from_slice(features);
        self.pos += 1;
        Some(y)
    }
}

/// Regenerates a planted-hyperplane regression dataset on the fly. This is
/// the row generator behind [`crate::synthetic::generate_regression`]
/// (same seed ⇒ same planted hyperplane and bit-identical rows).
#[derive(Debug, Clone)]
pub struct SyntheticRegressionStream {
    spec: RegressionSpec,
    seed: u64,
    hyperplane: Vec<f64>,
    rng: NimbusRng,
    normal: StandardNormal,
    emitted: usize,
}

impl SyntheticRegressionStream {
    /// Creates the stream, drawing the planted hyperplane from the head of
    /// the seed's generator stream.
    pub fn new(spec: RegressionSpec, seed: u64) -> Self {
        assert!(
            spec.feature_scale > 0.0 && spec.feature_scale.is_finite(),
            "feature_scale must be positive"
        );
        let (rng, normal, hyperplane) = planted(seed, 0xda7a, spec.d);
        SyntheticRegressionStream {
            spec,
            seed,
            hyperplane,
            rng,
            normal,
            emitted: 0,
        }
    }

    /// The planted hyperplane, scaled by `target_scale` so that it predicts
    /// the noiseless targets.
    pub fn planted_hyperplane(&self) -> Vec<f64> {
        self.hyperplane
            .iter()
            .map(|w| w * self.spec.target_scale)
            .collect()
    }
}

impl ExampleStream for SyntheticRegressionStream {
    fn num_features(&self) -> usize {
        self.spec.d
    }

    fn len(&self) -> usize {
        self.spec.n
    }

    fn reset(&mut self) {
        *self = SyntheticRegressionStream::new(self.spec.clone(), self.seed);
    }

    fn next_example(&mut self, x: &mut [f64]) -> Option<f64> {
        if self.emitted >= self.spec.n {
            return None;
        }
        debug_assert_eq!(x.len(), self.spec.d);
        self.normal
            .fill_isotropic(&mut self.rng, self.spec.feature_scale, x);
        let mut y = 0.0;
        for (xi, wi) in x.iter().zip(&self.hyperplane) {
            y += xi * wi;
        }
        y *= self.spec.target_scale;
        if self.spec.target_noise > 0.0 {
            y += self
                .normal
                .sample_scaled(&mut self.rng, 0.0, self.spec.target_noise);
        }
        self.emitted += 1;
        Some(y)
    }
}

/// Regenerates a planted-hyperplane classification dataset on the fly. This
/// is the row generator behind
/// [`crate::synthetic::generate_classification`] (same seed ⇒ same planted
/// hyperplane and bit-identical rows).
#[derive(Debug, Clone)]
pub struct SyntheticClassificationStream {
    spec: ClassificationSpec,
    seed: u64,
    hyperplane: Vec<f64>,
    rng: NimbusRng,
    normal: StandardNormal,
    emitted: usize,
}

impl SyntheticClassificationStream {
    /// Creates the stream, drawing the planted hyperplane from the head of
    /// the seed's generator stream.
    pub fn new(spec: ClassificationSpec, seed: u64) -> Self {
        assert!(
            (0.5..=1.0).contains(&spec.positive_fidelity),
            "fidelity must be in [0.5, 1]"
        );
        let (rng, normal, hyperplane) = planted(seed, 0xc1a5, spec.d);
        SyntheticClassificationStream {
            spec,
            seed,
            hyperplane,
            rng,
            normal,
            emitted: 0,
        }
    }

    /// The planted hyperplane whose sign the labels follow.
    pub fn planted_hyperplane(&self) -> Vec<f64> {
        self.hyperplane.clone()
    }
}

impl ExampleStream for SyntheticClassificationStream {
    fn num_features(&self) -> usize {
        self.spec.d
    }

    fn len(&self) -> usize {
        self.spec.n
    }

    fn reset(&mut self) {
        *self = SyntheticClassificationStream::new(self.spec.clone(), self.seed);
    }

    fn next_example(&mut self, x: &mut [f64]) -> Option<f64> {
        if self.emitted >= self.spec.n {
            return None;
        }
        debug_assert_eq!(x.len(), self.spec.d);
        self.normal.fill_isotropic(&mut self.rng, 1.0, x);
        let mut score = 0.0;
        for (xi, wi) in x.iter().zip(&self.hyperplane) {
            score += xi * wi;
        }
        let above = score > 0.0;
        let faithful = self.rng.random::<f64>() < self.spec.positive_fidelity;
        self.emitted += 1;
        Some(if above == faithful { 1.0 } else { 0.0 })
    }
}

/// The generator state a planted-hyperplane stream starts from: its RNG
/// (sub-stream `salt` of `seed`) just past the `d` hyperplane draws, and
/// the hyperplane itself.
fn planted(seed: u64, salt: u64, d: usize) -> (NimbusRng, StandardNormal, Vec<f64>) {
    let mut rng = seeded_rng(split_stream(seed, salt));
    let mut normal = StandardNormal::new();
    let hyperplane = (0..d).map(|_| normal.sample(&mut rng)).collect();
    (rng, normal, hyperplane)
}

/// Reads every example of `stream`, in order, into a dataset.
pub(crate) fn collect(stream: &mut dyn ExampleStream, task: Task) -> Result<Dataset> {
    let (n, d) = (stream.len(), stream.num_features());
    let mut features = vec![0.0; n * d];
    let mut targets = Vec::with_capacity(n);
    for i in 0..n {
        let row = &mut features[i * d..(i + 1) * d];
        targets.push(
            stream
                .next_example(row)
                .expect("stream yields len() examples"),
        );
    }
    Dataset::new(
        Matrix::from_row_major(n, d, features)?,
        Vector::from_vec(targets),
        task,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::generate_regression;

    #[test]
    fn dataset_stream_replays_rows() {
        let (ds, _) = generate_regression(&RegressionSpec::simulated1(30, 3), 1).unwrap();
        let mut stream = DatasetStream::new(&ds);
        assert_eq!(stream.len(), 30);
        assert_eq!(stream.num_features(), 3);
        let mut x = vec![0.0; 3];
        let mut count = 0;
        while let Some(y) = stream.next_example(&mut x) {
            let (expected_x, expected_y) = ds.example(count);
            assert_eq!(x.as_slice(), expected_x);
            assert_eq!(y, expected_y);
            count += 1;
        }
        assert_eq!(count, 30);
        // Reset replays from the top.
        stream.reset();
        assert!(stream.next_example(&mut x).is_some());
    }

    #[test]
    fn synthetic_stream_matches_materialized_generator() {
        let spec = RegressionSpec::simulated1(50, 4);
        let (ds, planted) = generate_regression(&spec, 9).unwrap();
        let mut stream = SyntheticRegressionStream::new(spec, 9);
        assert_eq!(stream.planted_hyperplane(), planted.as_slice());
        let mut x = vec![0.0; 4];
        for i in 0..50 {
            let y = stream.next_example(&mut x).unwrap();
            let (ex, ey) = ds.example(i);
            assert_eq!(x.as_slice(), ex, "row {i}");
            assert_eq!(y, ey, "target {i}");
        }
        assert!(stream.next_example(&mut x).is_none());
    }

    #[test]
    fn synthetic_stream_reset_is_exact() {
        fn pass(stream: &mut dyn ExampleStream) -> Vec<f64> {
            let mut x = vec![0.0; stream.num_features()];
            let mut out = Vec::new();
            while let Some(y) = stream.next_example(&mut x) {
                out.extend_from_slice(&x);
                out.push(y);
            }
            out
        }
        let spec = RegressionSpec {
            n: 20,
            d: 3,
            target_noise: 1.0,
            target_scale: 2.0,
            feature_scale: 1.5,
        };
        let classes = ClassificationSpec::simulated2(20, 3);
        let streams: [Box<dyn ExampleStream>; 2] = [
            Box::new(SyntheticRegressionStream::new(spec, 3)),
            Box::new(SyntheticClassificationStream::new(classes, 3)),
        ];
        for mut stream in streams {
            let first_pass = pass(&mut *stream);
            stream.reset();
            assert_eq!(first_pass, pass(&mut *stream));
            assert_eq!(first_pass.len(), 20 * 4);
        }
    }

    #[test]
    fn stream_is_constant_memory_at_scale() {
        // 200k rows × 20 features would be 32 MB materialized; the stream
        // touches only one row buffer. Just verify it runs and counts.
        let spec = RegressionSpec::simulated1(200_000, 20);
        let mut stream = SyntheticRegressionStream::new(spec, 7);
        let mut x = vec![0.0; 20];
        let mut count = 0usize;
        while stream.next_example(&mut x).is_some() {
            count += 1;
        }
        assert_eq!(count, 200_000);
    }
}
