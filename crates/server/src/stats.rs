//! Lock-free serving statistics: per-op counters and latency histograms.
//!
//! Every worker thread records into shared atomics — no mutex sits on the
//! hot path, so `STATS` observability never serializes serving. Latency
//! uses a fixed power-of-two bucket histogram over microseconds: bucket
//! `i` covers `[2^i, 2^(i+1))` µs, the last bucket absorbing everything
//! slower. Quantiles are read as the *upper bound* of the bucket holding
//! the requested rank, so a reported p99 is a guaranteed upper estimate at
//! 2× resolution — plenty for load shedding and regression tracking, at
//! the cost of one `fetch_add` per request.
//!
//! Counter reads are `Relaxed` snapshots: totals observed concurrently
//! with traffic may be mid-update relative to each other, which is the
//! usual (and here acceptable) contract for monitoring counters.

use crate::wire::{OpStatsMsg, StatsMsg};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of histogram buckets: `[1µs, 2µs, 4µs, …, ~2.1s, +∞)`.
pub const N_LATENCY_BUCKETS: usize = 22;

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

/// Fixed-bucket latency histogram (power-of-two µs buckets).
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; N_LATENCY_BUCKETS],
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn record(&self, latency: Duration) {
        let micros = latency.as_micros().max(1) as u64;
        let idx = (63 - micros.leading_zeros()) as usize;
        // nimbus-audit: allow(no-panic) — index clamped to the last bucket by min()
        self.buckets[idx.min(N_LATENCY_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Upper bucket bound (µs) of the `q`-quantile, `0` when empty.
    /// `q` is clamped to `[0, 1]`.
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
                return 1u64 << (i + 1);
            }
        }
        1u64 << N_LATENCY_BUCKETS
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
        // nimbus-audit: allow(no-panic) — ops array is sized to the Op enum
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
        // nimbus-audit: allow(no-panic) — ops array is sized to the Op enum
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
                    // nimbus-audit: allow(no-panic) — ops array is sized to the Op enum
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
        metric(
            &mut out,
            "listing_sales_total",
            "counter",
            "Completed sales, labelled by listing.",
        );
        for row in &stats.listings {
            let _ = writeln!(
                out,
                "nimbus_listing_sales_total{{listing=\"{}\"}} {}",
                row.listing, row.sales
            );
        }
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
        metric(
            &mut out,
            "listing_budget_rejects_total",
            "counter",
            "Commits rejected for buyer noise-budget exhaustion, labelled by listing.",
        );
        for row in &stats.listings {
            let _ = writeln!(
                out,
                "nimbus_listing_budget_rejects_total{{listing=\"{}\"}} {}",
                row.listing, row.budget_rejects
            );
        }
        metric(
            &mut out,
            "listing_exhausted_buyers",
            "gauge",
            "Buyers whose remaining noise budget is zero, labelled by listing.",
        );
        for row in &stats.listings {
            let _ = writeln!(
                out,
                "nimbus_listing_exhausted_buyers{{listing=\"{}\"}} {}",
                row.listing, row.exhausted_buyers
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let h = LatencyHistogram::default();
        // 100 obs at ~3µs (bucket [2,4) → upper bound 4) and one at ~1ms.
        for _ in 0..100 {
            h.record(Duration::from_micros(3));
        }
        h.record(Duration::from_micros(1000));
        assert_eq!(h.count(), 101);
        assert_eq!(h.quantile_upper_micros(0.50), 4);
        // p99 rank = ceil(0.99 * 101) = 100 → still in the 3µs bucket.
        assert_eq!(h.quantile_upper_micros(0.99), 4);
        // p100 reaches the 1ms observation: bucket [512, 1024) → 1024.
        assert_eq!(h.quantile_upper_micros(1.0), 1024);
    }

    #[test]
    fn histogram_handles_extremes() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_upper_micros(0.5), 0);
        h.record(Duration::ZERO); // clamps to 1µs
        h.record(Duration::from_secs(3600)); // clamps to the overflow bucket
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile_upper_micros(0.0), 2);
        assert_eq!(h.quantile_upper_micros(1.0), 1u64 << N_LATENCY_BUCKETS);
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
        assert!(quote.p50_micros >= 16);
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
        });
        snap.listings.push(crate::wire::ListingStatsMsg {
            listing: "old-data".into(),
            state: "retired".into(),
            epoch: 1,
            sales: 2,
            revenue: 9.0,
            budget_rejects: 0,
            exhausted_buyers: 0,
        });
        let text = render_prometheus(&snap);
        assert!(text.contains("nimbus_listing_sales_total{listing=\"acme-data\"} 7"));
        assert!(text.contains("nimbus_listing_revenue{listing=\"old-data\"} 9"));
        assert!(text.contains("nimbus_listing_epoch{listing=\"acme-data\",state=\"published\"} 3"));
        assert!(text.contains("nimbus_listing_budget_rejects_total{listing=\"acme-data\"} 4"));
        assert!(text.contains("nimbus_listing_exhausted_buyers{listing=\"acme-data\"} 2"));
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
