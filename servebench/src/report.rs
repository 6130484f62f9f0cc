//! The untraced run: end-to-end metrics, and the report both runs print.

use crate::check::{self, Checks};
use crate::drive::{self, ClosedRun, OpenLoop, UnitResult};
use crate::setup::{self, Listings};
use crate::stats::{self, Outcomes, Samples, P50, P90, P99};
use crate::workload::{
    generate_ops, schedule, Op, Rng, Workload, BATCH, BUY_RATE, QUOTE_RATE, RECOVERABLE_SALES,
    SETUP_REPS,
};
use crate::{peak_rss_mib, window, Args};
use nimbus_market::Marketplace;
use nimbus_server::{ClientConfig, NimbusClient};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Duration;

/// Units generated per second of a closed batch loop: comfortably above
/// the loop's capacity, so a run never runs out.
const BATCH_OPS_PER_S: f64 = 20_000.0;

/// Everything a run prints.
pub struct Report {
    pub lines: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub outcomes: Outcomes,
    pub checks: Checks,
}

impl Report {
    pub fn new() -> Report {
        Report {
            lines: Vec::new(),
            metrics: Vec::new(),
            outcomes: Outcomes::default(),
            checks: Checks::default(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn line(&mut self, text: String) {
        self.lines.push(text);
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.checks.ok() && finite && self.outcomes.attempted > 0,
            self.outcomes.attempted.max(1),
            self.outcomes.failed()
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        out.push_str("}}");
        out
    }
}

/// Consecutive units per latency slice: the fewest that support a p99
/// with [`stats::MIN_BEYOND`] samples beyond it.
pub const SLICE_UNITS: usize = 1_000;

/// One slice of [`SLICE_UNITS`] consecutive units: their p50, p90 and
/// p99 latency in µs.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
}

/// Orders `(start, latency)` samples by start time and summarizes each
/// run of [`SLICE_UNITS`] of them; a short tail is left out.
pub fn slices(samples: &mut [(u64, u64)]) -> Vec<Slice> {
    samples.sort_unstable();
    samples
        .chunks_exact(SLICE_UNITS)
        .map(|chunk| {
            let mut s = Samples::with_capacity(chunk.len());
            for &(_, latency) in chunk {
                s.push(latency);
            }
            Slice {
                p50_us: s.percentile_us(P50).unwrap_or(f64::NAN),
                p90_us: s.percentile_us(P90).unwrap_or(f64::NAN),
                p99_us: s.percentile_us(P99).unwrap_or(f64::NAN),
            }
        })
        .collect()
}

/// Median over slices of one slice statistic.
pub fn median_of(slices: &[Slice], f: impl Fn(&Slice) -> f64) -> f64 {
    let v: Vec<f64> = slices.iter().map(f).filter(|v| v.is_finite()).collect();
    stats::median(&v)
}

/// Completions in each whole second of `[warm, end)`.
fn per_second(completions: &[u64], warm: u64, end: u64) -> Vec<u64> {
    let mut counts = vec![0u64; ((end - warm) / 1_000_000_000).max(1) as usize];
    for &c in completions {
        if c >= warm && c < end {
            if let Some(n) = counts.get_mut(((c - warm) / 1_000_000_000) as usize) {
                *n += 1;
            }
        }
    }
    counts
}

/// Latency, lag and completion figures over a run's measured window.
pub struct Measured {
    /// One sample per unit in the window; a failed unit counts as
    /// infinitely slow, so it misses every latency limit.
    pub latency: Samples,
    /// The same samples in slices of [`SLICE_UNITS`] consecutive units.
    pub slices: Vec<Slice>,
    pub lag: Samples,
    /// Acknowledged units (sales, for the batch loop) per second over the
    /// window. On an open loop below capacity this is the offered rate
    /// less failures, not a capacity.
    pub rate: f64,
    /// Acknowledged units completed in each second of the window.
    pub per_second: Vec<u64>,
    pub max_gap_ns: u64,
}

/// Open loop: units whose due time falls in `[warm, end)`.
pub fn measure_open(units: &[UnitResult], warm: u64, end: u64) -> Measured {
    let mut latency = Samples::with_capacity(units.len());
    let mut lag = Samples::with_capacity(units.len());
    let mut completions = Vec::with_capacity(units.len());
    let mut timed = Vec::with_capacity(units.len());
    for u in units {
        let Some(t) = u.timeline else { continue };
        if t.due < warm || t.due >= end {
            continue;
        }
        lag.push(t.lag());
        let l = if u.fail.is_none() {
            completions.push(t.done);
            t.latency()
        } else {
            u64::MAX
        };
        latency.push(l);
        timed.push((t.due, l));
    }
    Measured {
        latency,
        slices: slices(&mut timed),
        lag,
        rate: completions.len() as f64 / ((end - warm) as f64 / 1e9),
        per_second: per_second(&completions, warm, end),
        max_gap_ns: stats::max_gap(&completions, warm, end),
    }
}

/// Closed batch loop: batches started in `[warm, end)`; sales completed
/// in the window count toward the rate.
pub fn measure_closed(run: &ClosedRun, warm: u64, end: u64) -> Measured {
    let mut latency = Samples::with_capacity(run.latencies.len());
    let mut timed = Vec::with_capacity(run.latencies.len());
    for &(start, rt) in &run.latencies {
        if start >= warm && start < end {
            latency.push(rt);
            timed.push((start, rt));
        }
    }
    let mut lag = Samples::with_capacity(run.turnaround.len());
    for &t in &run.turnaround {
        lag.push(t);
    }
    let done = run
        .completions
        .iter()
        .filter(|&&c| c >= warm && c < end)
        .count();
    Measured {
        latency,
        slices: slices(&mut timed),
        lag,
        rate: done as f64 / ((end - warm) as f64 / 1e9),
        per_second: per_second(&run.completions, warm, end),
        max_gap_ns: stats::max_gap(&run.completions, warm, end),
    }
}

/// A driven workload: its units, index-aligned with the ops they ran.
pub struct Driven {
    pub ops: Vec<Op>,
    pub units: Vec<UnitResult>,
    pub measured: Measured,
    pub tracer: crate::trace::Tracer,
    /// Requests the open loop sent again after a `BUSY` answer.
    pub busy_retries: u64,
}

/// Drives the workload itself — open loop for `quote_read` and
/// `durable_buy`, the pipelined batch loop for `batch_buy` — for
/// `warm + span`, measuring the span after the warm-up.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    w: Workload,
    addr: SocketAddr,
    market: &Marketplace,
    names: &[&str],
    warm: Duration,
    span: Duration,
    rng: &mut Rng,
    trace: bool,
) -> Result<Driven, String> {
    let (w0, w1) = (warm.as_nanos() as u64, (warm + span).as_nanos() as u64);
    match w {
        Workload::QuoteRead | Workload::DurableBuy => {
            let buy = w == Workload::DurableBuy;
            let rate = if buy { BUY_RATE } else { QUOTE_RATE };
            let due = schedule(rate, warm + span, rng);
            let ops = generate_ops(market, names, due.len(), rng)?;
            let run = OpenLoop {
                addr,
                names,
                ops: &ops,
                due: &due,
                buy,
                trace,
            }
            .run()?;
            let measured = measure_open(&run.units, w0, w1);
            Ok(Driven {
                ops,
                units: run.units,
                measured,
                tracer: run.tracer,
                busy_retries: run.busy_retries,
            })
        }
        Workload::BatchBuy => {
            // Every copy of the listing posts the same menu, so requests
            // screened on the first are valid on all; the loop assigns
            // each batch the copy its time slice is on.
            let n = (BATCH_OPS_PER_S * (warm + span).as_secs_f64()) as usize;
            let ops = generate_ops(market, &names[..1], n, rng)?;
            let run = drive::batch_loop(addr, names, &ops, BATCH, warm + span, trace)?;
            if run.exhausted {
                return Err("the batch loop ran out of generated units".into());
            }
            let measured = measure_closed(&run, w0, w1);
            Ok(Driven {
                ops: run.ops,
                units: run.units,
                measured,
                tracer: run.tracer,
                busy_retries: 0,
            })
        }
    }
}

/// The metric name a workload's latency unit has in the human report.
pub fn unit_names(w: Workload) -> (&'static str, &'static str) {
    match w {
        Workload::QuoteRead => ("quote", "quotes/s"),
        Workload::DurableBuy => ("buy", "buys/s"),
        Workload::BatchBuy => ("batch", "sales/s"),
    }
}

/// Bytes in the listings' journal files under `root`; every acknowledged
/// sale has been written and fsynced, so after a drive this is the
/// journals' durable length.
fn journal_bytes(root: Option<&Path>, names: &[&str]) -> u64 {
    let Some(root) = root else { return 0 };
    names
        .iter()
        .map(|n| std::fs::metadata(Marketplace::journal_path_for(root, n)).map_or(0, |m| m.len()))
        .sum()
}

/// `STATS` over the wire: `(busy_rejections, protocol_errors)`.
pub fn server_errors(addr: SocketAddr) -> Result<(u64, u64), String> {
    let mut client =
        NimbusClient::connect(addr, &ClientConfig::default()).map_err(|e| e.to_string())?;
    let stats = client.stats().map_err(|e| e.to_string())?;
    Ok((stats.busy_rejections, stats.protocol_errors))
}

pub fn run(args: &Args, workdir: &Path) -> Result<Report, String> {
    let w = args.workload;
    let mut rng = Rng::new(args.seed);
    let listings = Listings::generate(w.listings(), &mut rng);
    let names = listings.names();
    let (served, setup_times) =
        setup::start_repeated(&listings, workdir, w.journalled(), SETUP_REPS)?;
    let addr = served.server.local_addr();
    let root = served.journal_root.clone();
    let journal_before = journal_bytes(root.as_deref(), &names);
    let (warm, end) = window(args.seconds);
    let driven = drive(
        w,
        addr,
        &served.market,
        &names,
        warm,
        end - warm,
        &mut rng,
        false,
    )?;
    let (busy, protocol) = server_errors(addr)?;
    let journal_growth = journal_bytes(root.as_deref(), &names) - journal_before;

    let mut report = Report::new();
    report.outcomes = drive::outcomes(&driven.units);
    let acked = check::check_units(
        &served.market,
        &names,
        &driven.ops,
        &driven.units,
        &mut report.checks,
    );
    check::check_ledgers(&served.market, &acked, &mut report.checks);
    for (name, a) in &acked {
        if a.sales as usize > RECOVERABLE_SALES {
            report.checks.fail(format!(
                "{name} acknowledged {} sales, beyond the {RECOVERABLE_SALES} its journal can reopen with",
                a.sales
            ));
        }
    }
    served.server.shutdown();
    if let Some(root) = &root {
        check::check_journals(root, &names, &acked, &mut report.checks);
        let _ = std::fs::remove_dir_all(root);
    }

    let setup_s = stats::median(&setup_times);
    let mut m = driven.measured;
    let n = m.latency.len();
    let p50 = m.latency.percentile_us(P50).ok_or("no latency samples")?;
    let p99 = m
        .latency
        .percentile_us(P99)
        .ok_or(format!("{n} samples cannot support p99"))?;
    let (unit, per_s) = unit_names(w);
    let o = report.outcomes;
    let lag_p99 = m.lag.percentile_us(P99).unwrap_or(0.0);
    report.line(format!(
        "setup_s = {setup_s:.4} s (median of {}: {})",
        setup_times.len(),
        setup_times
            .iter()
            .map(|t| format!("{t:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let slice_p50 = median_of(&m.slices, |s| s.p50_us);
    let slice_p90 = median_of(&m.slices, |s| s.p90_us);
    let slice_p99 = median_of(&m.slices, |s| s.p99_us);
    report.line(format!(
        "{unit}_p50_us = {slice_p50:.2} us, {unit}_p90_us = {slice_p90:.2} us, \
         {unit}_p99_us = {slice_p99:.2} us (medians over {} slices of {SLICE_UNITS} units)",
        m.slices.len()
    ));
    report.line(format!(
        "  whole window: p50 {p50:.2} us, p99 {p99:.2} us ({n} samples)"
    ));
    if let Some(bp) = stats::highest_supported(n) {
        if let Some(v) = m.latency.percentile_us(bp) {
            report.line(format!(
                "  highest percentile with >= {} samples beyond: {} = {v:.2} us",
                stats::MIN_BEYOND,
                stats::label(bp)
            ));
        }
    }
    match w {
        Workload::BatchBuy => report.line(format!("commit_rps = {:.1} {per_s}", m.rate)),
        _ => report.line(format!(
            "acknowledged {:.1} {per_s} of {:.0} offered (the offered rate less failures, not a capacity)",
            m.rate,
            if w == Workload::DurableBuy { BUY_RATE } else { QUOTE_RATE }
        )),
    }
    report.line(format!(
        "fail_ratio = {:.6} ({} failed / {} attempted: {} errors, {} busy, {} timeouts, {} budget rejects)",
        o.fail_ratio(),
        o.failed(),
        o.attempted,
        o.errors,
        o.busy,
        o.timeouts,
        o.budget_rejects
    ));
    report.line(format!(
        "server: busy_rejections = {busy}, protocol_errors = {protocol}; \
         busy_retries = {} (shed requests sent again after the server's hint)",
        driven.busy_retries
    ));
    report.line(format!(
        "loadgen: lag_p99_us = {lag_p99:.2} us, max_gap_ms = {:.3} ms",
        m.max_gap_ns as f64 / 1e6
    ));
    let lag_p50 = m.lag.percentile_us(P50).unwrap_or(0.0);
    if w != Workload::BatchBuy && (lag_p50 > 0.5 * p50 || lag_p99 > 0.5 * p99) {
        report.line(format!(
            "WARNING: generator lag (p50 {lag_p50:.1} us, p99 {lag_p99:.1} us) exceeds half \
             the latency it is part of; this run measures the generator as much as the server"
        ));
    }
    if root.is_some() {
        let sales: u64 = acked.values().map(|a| a.sales).sum();
        report.line(format!(
            "journal_bytes_per_sale = {:.1} B ({journal_growth} journal bytes over {sales} sales)",
            journal_growth as f64 / sales.max(1) as f64
        ));
    }
    let rss = peak_rss_mib();
    report.line(format!("peak_rss_mb = {rss:.1} MiB"));
    report.line(format!("completions per second: {:?}", m.per_second));
    report.metric("setup_s", setup_s, "s");
    report.metric("latency_p50_us", slice_p50, "us");
    report.metric("peak_rss_mb", rss, "MiB");
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_follow_start_order_and_drop_the_short_tail() {
        // Two full slices, given out of order, and 10 spare samples: the
        // later slice is ten times slower.
        let mut samples: Vec<(u64, u64)> = (0..2 * SLICE_UNITS as u64 + 10)
            .rev()
            .map(|i| {
                (
                    i,
                    if i < SLICE_UNITS as u64 {
                        1_000 + i
                    } else {
                        10_000 + i
                    },
                )
            })
            .collect();
        let s = slices(&mut samples);
        assert_eq!(s.len(), 2);
        // Slice 0 holds 1_000..2_000 ns: median rank 500, p99 rank 990.
        assert_eq!(s[0].p50_us, 1.499);
        assert_eq!(s[0].p90_us, 1.899);
        assert_eq!(s[0].p99_us, 1.989);
        assert!(s[1].p50_us > 10.0);
        assert_eq!(
            median_of(&s, |x| x.p50_us),
            0.5 * (s[0].p50_us + s[1].p50_us)
        );
    }

    #[test]
    fn completions_count_in_their_second() {
        let s = 1_000_000_000u64;
        let counts = per_second(&[s / 2, s + 1, s + 2, 3 * s, 5 * s], 0, 3 * s);
        assert_eq!(counts, vec![1, 2, 0]);
    }
}
