//! Reproduces **Figure 6**: the error transformation curves.
//!
//! For each of the six datasets (Table 3), train the optimal model, then
//! for each inverse NCP `x ∈ [1, 100]` draw random noisy models from the
//! Gaussian mechanism and average their *test-set* error:
//!
//! * row 1 — square loss on the three regression datasets;
//! * row 2 — logistic loss on the three classification datasets;
//! * row 3 — 0/1 classification error on the same.
//!
//! The paper's claim verified here: every curve decreases monotonically in
//! `1/NCP` (equivalently, expected error increases with δ — Theorem 4),
//! including the non-convex 0/1 error, with a steep initial drop that
//! flattens near the optimal model.

use nimbus_core::{CurveProvider, GaussianMechanism, Ncp};
use nimbus_data::catalog::{DatasetSpec, PaperDataset};
use nimbus_data::{Dataset, Task};
use nimbus_experiments::args::ExperimentArgs;
use nimbus_experiments::report::{save_csv, TextTable};
use nimbus_ml::loss::Convexity;
use nimbus_ml::{
    metrics, ErrorMetric, LinearModel, LinearRegressionTrainer, LogisticRegressionTrainer,
    LossMetric, Trainer,
};
use nimbus_randkit::split_stream;

/// Test-set mean squared error, the figure's regression metric (twice the
/// Table 2 square loss, so it has no [`LossMetric`] of its own).
struct TestMse(Dataset);

impl ErrorMetric for TestMse {
    fn name(&self) -> &'static str {
        "square"
    }

    fn evaluate(&self, model: &LinearModel) -> nimbus_ml::Result<f64> {
        metrics::mse(model, &self.0)
    }

    fn convexity(&self) -> Convexity {
        Convexity::Convex
    }
}

fn main() {
    let args = ExperimentArgs::from_env();
    let samples = args.effective_samples();
    let grid_points = args.points.unwrap_or(if args.quick { 8 } else { 25 });

    // x = 1/NCP grid over [1, 100] as in the figure's axes.
    let xs: Vec<f64> = (0..grid_points)
        .map(|i| 1.0 + 99.0 * i as f64 / (grid_points - 1).max(1) as f64)
        .collect();
    let deltas: Vec<Ncp> = xs
        .iter()
        .map(|&x| Ncp::new(1.0 / x).expect("positive"))
        .collect();

    println!(
        "Figure 6: error transformation curves ({samples} noisy models per NCP, {grid_points} grid points)"
    );

    for ds in PaperDataset::ALL {
        let spec = DatasetSpec::scaled(ds, args.dataset_rows());
        let (tt, _) = spec
            .materialize(split_stream(args.seed, ds as u64))
            .expect("materialize");
        let curve_seed = split_stream(args.seed, 100 + ds as u64);

        let (model, losses): (LinearModel, Vec<Box<dyn ErrorMetric>>) = match ds.task() {
            Task::Regression => {
                let model = LinearRegressionTrainer::ridge(1e-6)
                    .train(&tt.train)
                    .expect("train");
                (model, vec![Box::new(TestMse(tt.test))])
            }
            Task::BinaryClassification => {
                let model = LogisticRegressionTrainer::new(1e-4)
                    .train(&tt.train)
                    .expect("train");
                (
                    model,
                    vec![
                        Box::new(LossMetric::logistic(tt.test.clone())),
                        Box::new(LossMetric::zero_one(tt.test)),
                    ],
                )
            }
        };
        run_dataset(ds, &model, losses, &deltas, samples, curve_seed, &args.out);
    }
    println!("\nSaved results/fig6_<dataset>_<loss>.csv");
}

fn run_dataset(
    ds: PaperDataset,
    model: &LinearModel,
    losses: Vec<Box<dyn ErrorMetric>>,
    deltas: &[Ncp],
    samples: usize,
    seed: u64,
    out_dir: &str,
) {
    for (loss_index, metric) in losses.iter().enumerate() {
        let loss_name = metric.name();
        // One seed stream per (dataset, loss); the parallel estimator is
        // bitwise-identical to the sequential one, so CSVs stay stable.
        let curve = CurveProvider::new(samples, split_stream(seed, loss_index as u64))
            .curve_for(metric.as_ref(), &GaussianMechanism, model, deltas)
            .expect("estimate");

        let mut t = TextTable::new(["1/NCP", "expected error", "std err", "smoothed"]);
        // Points come back sorted by δ ascending = 1/NCP descending; show
        // in increasing 1/NCP like the figure's x axis.
        let mut pts: Vec<_> = curve.points().to_vec();
        pts.reverse();
        for p in &pts {
            t.row([
                format!("{:.1}", p.inverse),
                format!("{:.4}", p.mean_error),
                format!("{:.4}", p.std_error),
                format!("{:.4}", p.smoothed_error),
            ]);
        }
        t.print(&format!("Figure 6: {} / {} loss", ds.name(), loss_name));

        // The monotonicity claim: the raw curve must be non-increasing in
        // 1/NCP up to Monte-Carlo jitter.
        let worst = pts
            .windows(2)
            .map(|w| w[1].mean_error - w[0].mean_error)
            .fold(0.0f64, f64::max);
        let range = pts[0].mean_error - pts[pts.len() - 1].mean_error;
        println!(
            "monotone in 1/NCP: worst upward jitter {:.4} over a total drop of {:.4} ({})",
            worst,
            range,
            if worst <= 0.05 * range.abs().max(1e-9) {
                "PASS"
            } else {
                "NOISY — increase --samples"
            }
        );

        let rows: Vec<Vec<f64>> = pts
            .iter()
            .map(|p| vec![p.inverse, p.mean_error, p.std_error, p.smoothed_error])
            .collect();
        save_csv(
            out_dir,
            &format!("fig6_{}_{}", ds.name().to_lowercase(), loss_name),
            &["inverse_ncp", "mean_error", "std_error", "smoothed_error"],
            &rows,
        )
        .expect("csv");
    }
}
