//! Lock-free serving statistics: per-op counters and latency histograms.
//!
//! Every worker thread records into shared atomics — no mutex sits on the
//! hot path, so `STATS` observability never serializes serving. Latency
//! uses a log-linear histogram over whole microseconds (rounded up): each
//! power-of-two octave is split into 8 equal sub-buckets, and values below
//! 16 µs get one bucket each. Quantiles are read as the largest value of
//! the bucket holding the requested rank, so a reported p99 is never below
//! the true one and at most 12.5% above it — fine enough to tell a 260 µs
//! regime from a 500 µs one, at the cost of one `fetch_add` per request.
//!
//! Counter reads are `Relaxed` snapshots: totals observed concurrently
//! with traffic may be mid-update relative to each other, which is the
//! usual (and here acceptable) contract for monitoring counters.

use crate::wire::{ListingStatsMsg, OpStatsMsg, StatsMsg};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Log2 of the sub-buckets per power-of-two octave.
const SUB_BITS: u32 = 3;

/// Sub-buckets per octave.
const SUB: u64 = 1 << SUB_BITS;

/// Number of histogram buckets: one per value below 8 µs, then 8 per
/// octave up to `u64::MAX` µs, so nothing overflows.
pub const N_LATENCY_BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

/// The wire operations, in registry order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `MENU`.
    Menu = 0,
    /// `QUOTE`.
    Quote = 1,
    /// `COMMIT`.
    Commit = 2,
    /// `INFO`.
    Info = 3,
    /// `STATS`.
    Stats = 4,
    /// `LISTINGS`.
    Listings = 5,
    /// `PUBLISH`.
    Publish = 6,
    /// `RETIRE`.
    Retire = 7,
    /// `BATCH_COMMIT`.
    BatchCommit = 8,
    /// `ACCOUNT`.
    Account = 9,
}

/// Number of wire operations in the registry.
pub const N_OPS: usize = 10;

impl Op {
    /// All operations, in registry order.
    pub const ALL: [Op; N_OPS] = [
        Op::Menu,
        Op::Quote,
        Op::Commit,
        Op::Info,
        Op::Stats,
        Op::Listings,
        Op::Publish,
        Op::Retire,
        Op::BatchCommit,
        Op::Account,
    ];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Op::Menu => "menu",
            Op::Quote => "quote",
            Op::Commit => "commit",
            Op::Info => "info",
            Op::Stats => "stats",
            Op::Listings => "listings",
            Op::Publish => "publish",
            Op::Retire => "retire",
            Op::BatchCommit => "batch_commit",
            Op::Account => "account",
        }
    }
}

/// Log-linear latency histogram: 8 sub-buckets per power-of-two octave of
/// microseconds, one lock-free counter per bucket.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; N_LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The bucket holding `micros`: the value itself below [`SUB`], else the
/// octave's [`SUB`] leading bits.
fn bucket_of(micros: u64) -> usize {
    if micros < SUB {
        return micros as usize;
    }
    let shift = 63 - micros.leading_zeros() - SUB_BITS;
    (SUB + u64::from(shift) * SUB + ((micros >> shift) - SUB)) as usize
}

/// The largest value [`bucket_of`] maps to `bucket`.
fn bucket_upper(bucket: usize) -> u64 {
    let b = bucket as u64;
    if b < SUB {
        return b;
    }
    let shift = (b - SUB) / SUB;
    let lower = (SUB + (b - SUB) % SUB) << shift;
    lower + ((1u64 << shift) - 1)
}

impl LatencyHistogram {
    /// Records one observation, rounded up to whole microseconds (at
    /// least 1).
    pub fn record(&self, latency: Duration) {
        let micros = u64::try_from(latency.as_nanos().div_ceil(1000)).unwrap_or(u64::MAX);
        #[expect(
            clippy::indexing_slicing,
            reason = "bucket_of maps every u64 below N_LATENCY_BUCKETS"
        )]
        self.buckets[bucket_of(micros.max(1))].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Upper bucket bound (µs) of the `q`-quantile, `0` when empty: never
    /// below the true quantile and at most 12.5% above it. `q` is clamped
    /// to `[0, 1]`.
    pub fn quantile_upper_micros(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        u64::MAX
    }
}

/// One operation's counters.
#[derive(Debug, Default)]
pub struct OpCounters {
    requests: AtomicU64,
    errors: AtomicU64,
    latency: LatencyHistogram,
}

/// The server's shared statistics registry.
#[derive(Debug, Default)]
pub struct StatsRegistry {
    connections: AtomicU64,
    busy_rejections: AtomicU64,
    protocol_errors: AtomicU64,
    timeout_sheds: AtomicU64,
    ops: [OpCounters; N_OPS],
}

impl StatsRegistry {
    /// Creates an all-zero registry.
    pub fn new() -> Self {
        StatsRegistry::default()
    }

    /// Records one handled request for `op`. `ok = false` means the
    /// request was answered with a typed error frame.
    pub fn record(&self, op: Op, ok: bool, latency: Duration) {
        #[expect(clippy::indexing_slicing, reason = "ops array is sized to the Op enum")]
        let counters = &self.ops[op as usize];
        counters.requests.fetch_add(1, Ordering::Relaxed);
        if !ok {
            counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        counters.latency.record(latency);
    }

    /// Records an accepted connection.
    pub fn connection_accepted(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection shed with `BUSY` at admission.
    pub fn busy_rejection(&self) {
        self.busy_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a frame that failed to decode.
    pub fn protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection shed by a deadline (idle or header-read
    /// timeout) rather than by admission control. Kept separate from
    /// [`busy_rejections`](Self::busy_rejection) so admission accounting
    /// stays exact under load tests.
    pub fn timeout_shed(&self) {
        self.timeout_sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections shed so far (test/bench hook).
    pub fn busy_rejections(&self) -> u64 {
        self.busy_rejections.load(Ordering::Relaxed)
    }

    /// Connections shed by idle/header deadlines so far (test/bench hook).
    pub fn timeout_sheds(&self) -> u64 {
        self.timeout_sheds.load(Ordering::Relaxed)
    }

    /// Requests handled for one op so far (test/bench hook).
    pub fn requests(&self, op: Op) -> u64 {
        #[expect(clippy::indexing_slicing, reason = "ops array is sized to the Op enum")]
        self.ops[op as usize].requests.load(Ordering::Relaxed)
    }

    /// Renders the registry as the `STATS` wire message.
    pub fn snapshot(&self) -> StatsMsg {
        StatsMsg {
            connections: self.connections.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            // Queue depth and the per-listing rows are server-side
            // instantaneous state; the serving layer fills them in when
            // answering `STATS`.
            queue_depth: 0,
            listings: Vec::new(),
            ops: Op::ALL
                .iter()
                .map(|&op| {
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "ops array is sized to the Op enum"
                    )]
                    let c = &self.ops[op as usize];
                    OpStatsMsg {
                        op: op.name().to_string(),
                        requests: c.requests.load(Ordering::Relaxed),
                        errors: c.errors.load(Ordering::Relaxed),
                        p50_micros: c.latency.quantile_upper_micros(0.50),
                        p99_micros: c.latency.quantile_upper_micros(0.99),
                    }
                })
                .collect(),
        }
    }
}

/// Renders a `STATS` reply in the Prometheus text exposition format
/// (`# HELP` / `# TYPE` comments plus one sample per line), suitable for
/// piping into a scrape file or node-exporter textfile collector.
///
/// All series are prefixed `nimbus_`. Monotone counters keep the
/// `_total` suffix convention; `nimbus_queue_depth` and
/// `nimbus_shed_rate` are gauges (the latter is shed connections as a
/// fraction of all accepted-or-shed connections, 0 when idle).
pub fn render_prometheus(stats: &StatsMsg) -> String {
    use std::fmt::Write as _;
    fn metric(out: &mut String, name: &str, kind: &str, help: &str) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "# HELP nimbus_{name} {help}");
        let _ = writeln!(out, "# TYPE nimbus_{name} {kind}");
    }
    fn listing_series(
        out: &mut String,
        stats: &StatsMsg,
        name: &str,
        kind: &str,
        help: &str,
        value: fn(&ListingStatsMsg) -> u64,
    ) {
        use std::fmt::Write as _;
        metric(out, name, kind, help);
        for row in &stats.listings {
            let _ = writeln!(
                out,
                "nimbus_{name}{{listing=\"{}\"}} {}",
                row.listing,
                value(row)
            );
        }
    }
    let mut out = String::new();
    metric(
        &mut out,
        "connections_total",
        "counter",
        "Connections accepted for service.",
    );
    let _ = writeln!(out, "nimbus_connections_total {}", stats.connections);
    metric(
        &mut out,
        "busy_rejections_total",
        "counter",
        "Connections shed with BUSY at admission.",
    );
    let _ = writeln!(
        out,
        "nimbus_busy_rejections_total {}",
        stats.busy_rejections
    );
    metric(
        &mut out,
        "protocol_errors_total",
        "counter",
        "Frames that failed to decode.",
    );
    let _ = writeln!(
        out,
        "nimbus_protocol_errors_total {}",
        stats.protocol_errors
    );
    metric(
        &mut out,
        "queue_depth",
        "gauge",
        "Connections admitted but not yet picked up by a worker.",
    );
    let _ = writeln!(out, "nimbus_queue_depth {}", stats.queue_depth);
    metric(
        &mut out,
        "shed_rate",
        "gauge",
        "Shed connections as a fraction of accepted plus shed.",
    );
    let offered = stats.connections + stats.busy_rejections;
    let shed_rate = if offered == 0 {
        0.0
    } else {
        stats.busy_rejections as f64 / offered as f64
    };
    let _ = writeln!(out, "nimbus_shed_rate {shed_rate}");
    metric(
        &mut out,
        "requests_total",
        "counter",
        "Requests handled, labelled by wire op.",
    );
    for op in &stats.ops {
        let _ = writeln!(
            out,
            "nimbus_requests_total{{op=\"{}\"}} {}",
            op.op, op.requests
        );
    }
    metric(
        &mut out,
        "request_errors_total",
        "counter",
        "Requests answered with a typed error frame, labelled by wire op.",
    );
    for op in &stats.ops {
        let _ = writeln!(
            out,
            "nimbus_request_errors_total{{op=\"{}\"}} {}",
            op.op, op.errors
        );
    }
    metric(
        &mut out,
        "request_latency_upper_micros",
        "gauge",
        "Upper-bound latency estimate in microseconds, labelled by op and quantile.",
    );
    for op in &stats.ops {
        let _ = writeln!(
            out,
            "nimbus_request_latency_upper_micros{{op=\"{}\",quantile=\"0.5\"}} {}",
            op.op, op.p50_micros
        );
        let _ = writeln!(
            out,
            "nimbus_request_latency_upper_micros{{op=\"{}\",quantile=\"0.99\"}} {}",
            op.op, op.p99_micros
        );
    }
    if !stats.listings.is_empty() {
        listing_series(
            &mut out,
            stats,
            "listing_sales_total",
            "counter",
            "Completed sales, labelled by listing.",
            |row| row.sales,
        );
        metric(
            &mut out,
            "listing_revenue",
            "counter",
            "Revenue collected, labelled by listing.",
        );
        for row in &stats.listings {
            let _ = writeln!(
                out,
                "nimbus_listing_revenue{{listing=\"{}\"}} {}",
                row.listing, row.revenue
            );
        }
        metric(
            &mut out,
            "listing_epoch",
            "gauge",
            "Published snapshot epoch (0 before first publish), labelled by listing.",
        );
        for row in &stats.listings {
            let _ = writeln!(
                out,
                "nimbus_listing_epoch{{listing=\"{}\",state=\"{}\"}} {}",
                row.listing, row.state, row.epoch
            );
        }
        listing_series(
            &mut out,
            stats,
            "listing_budget_rejects_total",
            "counter",
            "Commits rejected for buyer noise-budget exhaustion, labelled by listing.",
            |row| row.budget_rejects,
        );
        listing_series(
            &mut out,
            stats,
            "listing_exhausted_buyers",
            "gauge",
            "Buyers whose remaining noise budget is zero, labelled by listing.",
            |row| row.exhausted_buyers,
        );
        listing_series(
            &mut out,
            stats,
            "listing_journal_flushes_total",
            "counter",
            "Group-commit write+fsync flushes of the listing's journal, labelled by listing.",
            |row| row.journal_flushes,
        );
        listing_series(
            &mut out,
            stats,
            "listing_journal_records_total",
            "counter",
            "Sale records carried by those flushes, labelled by listing.",
            |row| row.journal_records,
        );
        listing_series(
            &mut out,
            stats,
            "listing_journal_window_waits_total",
            "counter",
            "Flush leaders that waited in the gathering window for an announced sibling, labelled by listing.",
            |row| row.journal_window_waits,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log_linear() {
        let h = LatencyHistogram::default();
        // 100 obs at 3µs (an exact bucket below 16µs) and one at 1ms.
        for _ in 0..100 {
            h.record(Duration::from_micros(3));
        }
        h.record(Duration::from_micros(1000));
        assert_eq!(h.count(), 101);
        assert_eq!(h.quantile_upper_micros(0.50), 3);
        // p99 rank = ceil(0.99 * 101) = 100 → still in the 3µs bucket.
        assert_eq!(h.quantile_upper_micros(0.99), 3);
        // p100 reaches the 1ms observation: octave [512, 1024) splits into
        // 64µs sub-buckets, and 1000 falls in [960, 1024).
        assert_eq!(h.quantile_upper_micros(1.0), 1023);
        // The two regimes a power-of-two histogram reported as one 512µs
        // bucket now read apart.
        let lone = LatencyHistogram::default();
        lone.record(Duration::from_micros(267));
        let windowed = LatencyHistogram::default();
        windowed.record(Duration::from_micros(506));
        assert_eq!(lone.quantile_upper_micros(0.5), 287);
        assert_eq!(windowed.quantile_upper_micros(0.5), 511);
    }

    #[test]
    fn histogram_handles_extremes() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_upper_micros(0.5), 0);
        h.record(Duration::ZERO); // clamps to 1µs
        h.record(Duration::from_nanos(1_001)); // rounds up to 2µs
        h.record(Duration::from_secs(3600));
        h.record(Duration::MAX); // saturates to u64::MAX µs
        assert_eq!(h.count(), 4);
        assert_eq!(h.quantile_upper_micros(0.0), 1);
        assert_eq!(h.quantile_upper_micros(0.5), 2);
        let hour = h.quantile_upper_micros(0.75);
        assert!((3_600_000_000..=4_050_000_000).contains(&hour), "{hour}");
        assert_eq!(h.quantile_upper_micros(1.0), u64::MAX);
    }

    #[test]
    fn every_bucket_bound_is_the_largest_value_it_holds() {
        for b in 0..N_LATENCY_BUCKETS {
            let upper = bucket_upper(b);
            assert_eq!(bucket_of(upper), b);
            if let Some(next) = upper.checked_add(1) {
                assert_eq!(bucket_of(next), b + 1);
            }
        }
        assert_eq!(bucket_upper(N_LATENCY_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantiles_are_within_an_eighth_above_the_truth() {
        // Log-spaced inputs over 1µs–2s plus a deterministic mixture of
        // them: every reported quantile bounds the exact one from above by
        // at most 12.5%.
        let mut values: Vec<u64> = Vec::new();
        let mut v = 1.0f64;
        while v <= 2_000_000.0 {
            values.push(v.round() as u64);
            v *= 1.037;
        }
        for &v in &values {
            let h = LatencyHistogram::default();
            h.record(Duration::from_micros(v));
            let got = h.quantile_upper_micros(0.5);
            assert!(got >= v && got as f64 <= v as f64 * 1.125, "{v} -> {got}");
        }
        let h = LatencyHistogram::default();
        let mut mixture: Vec<u64> = Vec::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..5_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let v = values[(state >> 33) as usize % values.len()];
            mixture.push(v);
            h.record(Duration::from_micros(v));
        }
        mixture.sort_unstable();
        for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * mixture.len() as f64).ceil() as usize).max(1);
            let truth = mixture[rank - 1];
            let got = h.quantile_upper_micros(q);
            assert!(
                got >= truth && got as f64 <= truth as f64 * 1.125,
                "q={q}: true {truth}, reported {got}"
            );
        }
    }

    #[test]
    fn registry_counts_per_op_and_renders_snapshot() {
        let reg = StatsRegistry::new();
        reg.connection_accepted();
        reg.connection_accepted();
        reg.busy_rejection();
        reg.protocol_error();
        for _ in 0..5 {
            reg.record(Op::Quote, true, Duration::from_micros(10));
        }
        reg.record(Op::Quote, false, Duration::from_micros(10));
        reg.record(Op::Commit, true, Duration::from_micros(100));
        let snap = reg.snapshot();
        assert_eq!(snap.connections, 2);
        assert_eq!(snap.busy_rejections, 1);
        assert_eq!(snap.protocol_errors, 1);
        assert_eq!(snap.ops.len(), N_OPS);
        assert!(snap.listings.is_empty());
        let quote = snap.ops.iter().find(|o| o.op == "quote").unwrap();
        assert_eq!(quote.requests, 6);
        assert_eq!(quote.errors, 1);
        assert_eq!(quote.p50_micros, 10);
        let menu = snap.ops.iter().find(|o| o.op == "menu").unwrap();
        assert_eq!(menu.requests, 0);
        assert_eq!(menu.p50_micros, 0);
    }

    #[test]
    fn prometheus_render_labels_listings() {
        let mut snap = StatsRegistry::new().snapshot();
        snap.listings.push(crate::wire::ListingStatsMsg {
            listing: "acme-data".into(),
            state: "published".into(),
            epoch: 3,
            sales: 7,
            revenue: 123.5,
            budget_rejects: 4,
            exhausted_buyers: 2,
            journal_flushes: 5,
            journal_records: 7,
            journal_window_waits: 1,
        });
        snap.listings.push(crate::wire::ListingStatsMsg {
            listing: "old-data".into(),
            state: "retired".into(),
            epoch: 1,
            sales: 2,
            revenue: 9.0,
            budget_rejects: 0,
            exhausted_buyers: 0,
            journal_flushes: 0,
            journal_records: 0,
            journal_window_waits: 0,
        });
        let text = render_prometheus(&snap);
        assert!(text.contains("nimbus_listing_sales_total{listing=\"acme-data\"} 7"));
        assert!(text.contains("nimbus_listing_revenue{listing=\"old-data\"} 9"));
        assert!(text.contains("nimbus_listing_epoch{listing=\"acme-data\",state=\"published\"} 3"));
        assert!(text.contains("nimbus_listing_budget_rejects_total{listing=\"acme-data\"} 4"));
        assert!(text.contains("nimbus_listing_exhausted_buyers{listing=\"acme-data\"} 2"));
        assert!(text.contains("# TYPE nimbus_listing_journal_flushes_total counter"));
        assert!(text.contains("nimbus_listing_journal_flushes_total{listing=\"acme-data\"} 5"));
        assert!(text.contains("nimbus_listing_journal_records_total{listing=\"acme-data\"} 7"));
        assert!(text.contains("nimbus_listing_journal_window_waits_total{listing=\"acme-data\"} 1"));
        assert!(text.contains("nimbus_listing_journal_window_waits_total{listing=\"old-data\"} 0"));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let reg = std::sync::Arc::new(StatsRegistry::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let reg = reg.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        reg.record(Op::Quote, true, Duration::from_micros(5));
                    }
                });
            }
        });
        assert_eq!(reg.requests(Op::Quote), 8000);
        assert_eq!(reg.snapshot().ops[Op::Quote as usize].requests, 8000);
    }
}
