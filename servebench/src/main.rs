//! `servebench`: the Nimbus serving benchmark.
//!
//! ```text
//! servebench --workload <quote_read|durable_buy|batch_buy> --seed <n>
//!            --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the workload's marketplace up several times
//! (reporting the median set-up time), drives the last server over
//! loopback for `--seconds` after a short warm-up, checks every answer,
//! ledger, account and journal, and prints the end-to-end metrics. With
//! `--trace 1` it replays the workload down the layer ladder instead and
//! prints the per-layer metrics. Human-readable lines come first; the
//! last line of standard output is one JSON object. The exit code is
//! non-zero when a check fails or the run cannot complete.

mod affinity;
mod check;
mod drive;
mod ladder;
mod report;
mod setup;
mod stats;
mod trace;
mod workload;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workload::Workload;

/// Scratch directory (journals, span dumps) under the working directory.
const WORKDIR: &str = ".servebench";

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required (quote_read, durable_buy, batch_buy)")?;
    if seconds == 0 || seconds > 60 {
        return Err("--seconds must be in 1..=60".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let workdir = PathBuf::from(WORKDIR).join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&workdir) {
        eprintln!("servebench: cannot create {}: {e}", workdir.display());
        return ExitCode::from(2);
    }
    let result = if args.trace {
        ladder::run(&args, &workdir)
    } else {
        report::run(&args, &workdir)
    };
    let _ = std::fs::remove_dir_all(&workdir);
    match result {
        Ok(report) => finish(&args, report),
        Err(e) => {
            eprintln!("servebench: {} failed: {e}", args.workload.name());
            ExitCode::from(2)
        }
    }
}

fn finish(args: &Args, report: Report) -> ExitCode {
    println!(
        "workload {} seed {} trace {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    for line in &report.lines {
        println!("  {line}");
    }
    for failure in report.checks.failures() {
        eprintln!("servebench: check failed: {failure}");
    }
    println!(
        "  checks: {} comparisons, {}",
        report.checks.compared,
        if report.checks.ok() {
            "all passed"
        } else {
            "FAILED"
        }
    );
    println!("{}", report.json());
    if report.checks.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The measured window of a run: warm-up excluded.
pub fn window(seconds: u64) -> (Duration, Duration) {
    (
        workload::WARMUP,
        workload::WARMUP + Duration::from_secs(seconds),
    )
}
