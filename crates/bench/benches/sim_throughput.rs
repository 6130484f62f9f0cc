//! Closed-loop simulator throughput: the full agent-ecology path (adaptive
//! agents, pipelined quote/commit traffic over real sockets, empirical
//! demand aggregation, DP re-pricing with epoch-kill) measured end to end.
//!
//! Two regimes over built-in scenarios:
//! * `smoke` — 40 agents × 40 ticks, one listing, three re-price cycles;
//!   the bounded configuration.
//! * `baseline` — 120 agents × 120 ticks, the default catalog scenario.
//!
//! Reported per scenario: ticks/second, committed sales/second, and the
//! re-price latency (mean and max of the in-process re-optimization +
//! hot re-publish). A warm-up run prints the summary line before
//! criterion measures.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nimbus_agents::engine::run_scenario;
use nimbus_agents::harness::SimHarness;
use nimbus_agents::scenario::Scenario;
use nimbus_agents::SimOutcome;
use nimbus_market::clock::wall_clock;

/// One full closed-loop run on a fresh harness (fresh marketplace, fresh
/// server, fresh port): what a `nimbus sim run` costs end to end.
fn run_once(scenario: &Scenario, seed: u64) -> SimOutcome {
    let harness = SimHarness::start(scenario, seed).expect("harness starts");
    let outcome = run_scenario(
        scenario,
        seed,
        harness.server.local_addr(),
        &harness.marketplace,
        &wall_clock(),
    )
    .expect("run completes");
    harness.server.shutdown();
    outcome
}

fn summarize(outcome: &SimOutcome) {
    let elapsed = outcome.elapsed.as_secs_f64().max(1e-9);
    println!(
        "sim/{}: {} ticks, {} commits in {:?} -> {:.0} ticks/s, {:.0} commits/s, \
         {} re-prices (mean {:?}, max {:?})",
        outcome.scenario,
        outcome.records.len(),
        outcome.acked_commits(),
        outcome.elapsed,
        outcome.records.len() as f64 / elapsed,
        outcome.acked_commits() as f64 / elapsed,
        outcome.reprice_count,
        outcome
            .reprice_total
            .checked_div(outcome.reprice_count.max(1) as u32)
            .unwrap_or_default(),
        outcome.reprice_max,
    );
}

fn bench_sim_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_throughput");
    group.sample_size(10);
    for name in ["smoke", "baseline"] {
        let scenario = Scenario::builtin(name).expect("catalog name resolves");
        let warmup = run_once(&scenario, 7);
        assert_eq!(warmup.records.len() as u64, scenario.ticks);
        assert!(warmup.acked_commits() > 0, "closed loop must transact");
        assert!(warmup.reprice_count > 0, "re-pricer must fire");
        summarize(&warmup);
        group.bench_with_input(
            BenchmarkId::new("closed_loop", name),
            &scenario,
            |b, scenario| {
                b.iter(|| {
                    let outcome = run_once(scenario, 7);
                    assert!(outcome.acked_commits() > 0);
                    outcome.records.len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sim_throughput);
criterion_main!(benches);
