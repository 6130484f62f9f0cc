//! Workload definitions and seeded input generation.
//!
//! Everything the served program receives — datasets, the request
//! schedule, purchase options, buyer ids and nonces — is drawn here from
//! the `--seed` argument, so one seed always yields the same inputs.

use nimbus_data::{DatasetSpec, PaperDataset};
use nimbus_market::{Marketplace, PurchaseRequest};
use std::time::Duration;

/// Offered rate of `quote_read`: about a fifth of the two-connection
/// closed-loop quote capacity. The shipped 64-job shard queue sheds when
/// a host stall of about `128 / rate` seconds (16 ms here) piles up that
/// many arrivals; a third of capacity (12 000/s) sheds after 11 ms.
pub const QUOTE_RATE: f64 = 8_000.0;
/// Offered rate of `durable_buy`: about a fifth of the closed-loop buy
/// capacity. It also keeps the sales of a run of up to 10 s on its one
/// listing below [`RECOVERABLE_SALES`]; a longer run fails its checks.
pub const BUY_RATE: f64 = 1_500.0;
/// Sales one listing's journal can hold and still reopen: the shutdown
/// checkpoint stores 56 bytes per nonce'd sale in one record, and a
/// record over the journal's 1 MiB `MAX_RECORD_LEN` reads back as a torn
/// tail. No workload puts more sales than this on one listing.
pub const RECOVERABLE_SALES: usize = 18_000;
/// Copies of the d = 90 listing `batch_buy` rotates through, one at a
/// time, so each journal stays below [`RECOVERABLE_SALES`].
pub const COPIES: usize = 10;
/// Quotes redeemed per `BATCH_COMMIT` in `batch_buy`.
pub const BATCH: usize = 16;
/// Buyer ids are drawn uniformly from this pool.
pub const BUYERS: u64 = 256;
/// Per-buyer noise budget: far above any buyer's demand in one run.
pub const BUYER_BUDGET: f64 = 1e12;
/// The shipped group-commit gathering window.
pub const GROUP_COMMIT_WINDOW: Duration = Duration::from_micros(500);
/// Client connections (and generator threads) used by every workload.
pub const CONNECTIONS: usize = 2;
/// Untimed warm-up before the measured window.
pub const WARMUP: Duration = Duration::from_millis(500);
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;
/// Rows of `durable_buy`'s listing. Its training then outweighs the
/// journal's fsyncs in set-up (with 8 000 rows, slow fsyncs on a busy
/// host doubled `setup_s`); the full 515 345 rows would hold ~400 MB.
pub const DURABLE_ROWS: usize = 48_000;
/// Rows of each of `batch_buy`'s [`COPIES`] listings.
pub const BATCH_ROWS: usize = 8_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    QuoteRead,
    DurableBuy,
    BatchBuy,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "quote_read" => Some(Workload::QuoteRead),
            "durable_buy" => Some(Workload::DurableBuy),
            "batch_buy" => Some(Workload::BatchBuy),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::QuoteRead => "quote_read",
            Workload::DurableBuy => "durable_buy",
            Workload::BatchBuy => "batch_buy",
        }
    }

    /// Whether the workload's listing journals its sales.
    pub fn journalled(self) -> bool {
        self != Workload::QuoteRead
    }

    /// The workload's listings.
    pub fn listings(self) -> Vec<ListingSpec> {
        match self {
            Workload::QuoteRead => vec![
                ListingSpec::regression("reg-casp-d9", PaperDataset::Casp, 4_000),
                ListingSpec::regression("reg-sim1-d20", PaperDataset::Simulated1, 4_000),
                ListingSpec::regression("reg-year-d90", PaperDataset::YearMsd, 8_000),
                ListingSpec::regression("reg-year-d90-small", PaperDataset::YearMsd, 2_000),
                ListingSpec::classification("cls-sim2-d20", PaperDataset::Simulated2, 2_000),
                ListingSpec::classification("cls-covtype-d54", PaperDataset::CovType, 2_000),
                ListingSpec::classification("cls-susy-d18", PaperDataset::Susy, 2_000),
                ListingSpec::classification("cls-sim2-d20-small", PaperDataset::Simulated2, 1_000),
            ],
            Workload::DurableBuy => vec![ListingSpec::durable_year(COPY_NAMES[0], DURABLE_ROWS)],
            Workload::BatchBuy => COPY_NAMES
                .iter()
                .map(|&name| ListingSpec::durable_year(name, BATCH_ROWS))
                .collect(),
        }
    }
}

/// Which of `copies` equal time slices of `[0, end)` the time `t` is in.
pub fn slice_of(t: u64, end: u64, copies: usize) -> usize {
    let k = (t as u128 * copies as u128 / end.max(1) as u128) as usize;
    k.min(copies.saturating_sub(1))
}

const COPY_NAMES: [&str; COPIES] = [
    "year-d90-0",
    "year-d90-1",
    "year-d90-2",
    "year-d90-3",
    "year-d90-4",
    "year-d90-5",
    "year-d90-6",
    "year-d90-7",
    "year-d90-8",
    "year-d90-9",
];

/// One published listing of a workload.
#[derive(Debug, Clone, Copy)]
pub struct ListingSpec {
    pub name: &'static str,
    pub dataset: PaperDataset,
    /// Rows generated (train + test, split 75/25 as in Table 3).
    pub rows: usize,
    /// Classification listing priced in logistic loss (Monte-Carlo error
    /// curve); otherwise square loss (analytic curve).
    pub logistic: bool,
    /// Snapped (discrete) Gaussian noise instead of the float Gaussian.
    pub snapped: bool,
}

impl ListingSpec {
    fn regression(name: &'static str, dataset: PaperDataset, rows: usize) -> ListingSpec {
        ListingSpec {
            name,
            dataset,
            rows,
            logistic: false,
            snapped: false,
        }
    }

    fn classification(name: &'static str, dataset: PaperDataset, rows: usize) -> ListingSpec {
        ListingSpec {
            logistic: true,
            ..ListingSpec::regression(name, dataset, rows)
        }
    }

    /// The journalled d = 90 YearMSD listing with snapped noise that the
    /// buy workloads (and every workload's in-process commit ladder) use.
    pub fn durable_year(name: &'static str, rows: usize) -> ListingSpec {
        ListingSpec {
            snapped: true,
            ..ListingSpec::regression(name, PaperDataset::YearMsd, rows)
        }
    }

    pub fn spec(&self) -> DatasetSpec {
        DatasetSpec::scaled(self.dataset, self.rows)
    }
}

/// splitmix64: a small, fast, seedable generator for the inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate`/s,
    /// in nanoseconds.
    pub fn exp_gap_ns(&mut self, rate: f64) -> u64 {
        let u = 1.0 - self.unit();
        (-u.ln() / rate * 1e9) as u64
    }

    /// A derived seed for an independent stream.
    pub fn fork(&mut self) -> u64 {
        self.next_u64()
    }
}

/// One generated purchase request: the unit of every workload.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Index into the workload's listing list.
    pub listing: usize,
    pub request: PurchaseRequest,
    pub nonce: u64,
    pub buyer: u64,
}

/// Per-listing bounds the generator draws feasible requests from, read
/// off the published snapshot.
struct Bounds {
    x: (f64, f64),
    price: (f64, f64),
    error: (f64, f64),
}

fn bounds(market: &Marketplace, name: &str) -> Result<Bounds, String> {
    let broker = market.route(name).map_err(|e| e.to_string())?;
    let snap = broker.snapshot().ok_or("listing has no snapshot")?;
    let (x_lo, x_hi) = snap.support();
    let lo = snap
        .quote(PurchaseRequest::AtInverseNcp(x_lo))
        .map_err(|e| e.to_string())?;
    let hi = snap
        .quote(PurchaseRequest::AtInverseNcp(x_hi))
        .map_err(|e| e.to_string())?;
    Ok(Bounds {
        x: (x_lo, x_hi),
        price: (lo.price, hi.price),
        // Accuracy rises with x, so the highest x has the lowest error.
        error: (hi.expected_error, lo.expected_error),
    })
}

/// Zipf(1.1) weights over a seed-shuffled listing order.
fn zipf_cdf(n: usize, rng: &mut Rng) -> Vec<(f64, usize)> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(1.1)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    order
        .into_iter()
        .zip(weights)
        .map(|(listing, w)| {
            acc += w / total;
            (acc, listing)
        })
        .collect()
}

/// Generates `n` feasible requests against the published listings:
/// Zipf-skewed over listings, a 40/30/30 mix of the three purchase
/// options, nonces unique per run, buyers uniform over [`BUYERS`]. Each
/// request is screened against the snapshot so that no operation of the
/// workload fails by construction.
pub fn generate_ops(
    market: &Marketplace,
    names: &[&str],
    n: usize,
    rng: &mut Rng,
) -> Result<Vec<Op>, String> {
    let bounds: Vec<Bounds> = names
        .iter()
        .map(|n| bounds(market, n))
        .collect::<Result<_, _>>()?;
    let brokers = names
        .iter()
        .map(|n| market.route(n).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let cdf = zipf_cdf(names.len(), rng);
    let mut ops = Vec::with_capacity(n);
    let mut nonce = rng.next_u64();
    while ops.len() < n {
        let u = rng.unit();
        let listing = cdf
            .iter()
            .find(|(c, _)| u < *c)
            .map_or(cdf[cdf.len() - 1].1, |c| c.1);
        let b = &bounds[listing];
        let kind = rng.below(10);
        let request = if kind < 4 {
            PurchaseRequest::AtInverseNcp(rng.uniform(b.x.0, b.x.1))
        } else if kind < 7 {
            let span = b.error.1 - b.error.0;
            PurchaseRequest::ErrorBudget(b.error.0 + span * rng.uniform(0.02, 1.2))
        } else {
            let span = b.price.1 - b.price.0;
            PurchaseRequest::PriceBudget(b.price.0 + span * rng.uniform(0.01, 1.2))
        };
        let snapshot = brokers[listing]
            .snapshot()
            .ok_or("listing has no snapshot")?;
        if snapshot.quote(request).is_err() {
            continue;
        }
        // An odd step visits 2^64 distinct nonces before repeating.
        nonce = nonce.wrapping_add(0x9E37_79B9_7F4A_7C15);
        ops.push(Op {
            listing,
            request,
            nonce,
            buyer: rng.below(BUYERS),
        });
    }
    Ok(ops)
}

/// Poisson due times (ns from the start) at `rate`/s until `span`.
pub fn schedule(rate: f64, span: Duration, rng: &mut Rng) -> Vec<u64> {
    let end = span.as_nanos() as u64;
    let mut due = Vec::with_capacity((rate * span.as_secs_f64() * 1.1) as usize + 16);
    let mut t = rng.exp_gap_ns(rate);
    while t < end {
        due.push(t);
        t += rng.exp_gap_ns(rate);
    }
    due
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = schedule(1000.0, Duration::from_secs(1), &mut Rng::new(7));
        let b = schedule(1000.0, Duration::from_secs(1), &mut Rng::new(7));
        let c = schedule(1000.0, Duration::from_secs(1), &mut Rng::new(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // Poisson count at 1000/s over 1 s: well within ±20%.
        assert!((800..1200).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn slices_cover_the_run_evenly() {
        assert_eq!(slice_of(0, 100, 3), 0);
        assert_eq!(slice_of(34, 100, 3), 1);
        assert_eq!(slice_of(99, 100, 3), 2);
        assert_eq!(slice_of(150, 100, 3), 2);
        assert_eq!(slice_of(5, 100, 1), 0);
        assert_eq!(Workload::DurableBuy.listings().len(), 1);
        assert_eq!(Workload::BatchBuy.listings().len(), COPIES);
    }

    #[test]
    fn zipf_covers_every_listing_once() {
        let cdf = zipf_cdf(8, &mut Rng::new(3));
        let mut seen: Vec<usize> = cdf.iter().map(|c| c.1).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
        assert!((cdf[7].0 - 1.0).abs() < 1e-12);
        assert!(cdf.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
