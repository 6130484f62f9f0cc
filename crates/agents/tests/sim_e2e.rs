//! End-to-end closed-loop simulation: 2 listings, 200 adaptive agents,
//! 300 ticks of live wire traffic with demand-fed re-pricing.
//!
//! Three independent properties of one scenario family:
//!
//! 1. **Determinism** — the same `(scenario, seed)` produces a
//!    bitwise-identical tick journal on a completely fresh harness
//!    (fresh marketplace, fresh server, fresh port, fresh connections).
//! 2. **Reconciliation** — the server-side ledger and the buyer-side
//!    ACK stream agree exactly: same transaction-id sets, bitwise-equal
//!    price multisets, across every re-price cycle.
//! 3. **Demand response** — a mid-run demand shock moves the optimized
//!    top-of-menu price in the expected direction (up, for a boom).

use nimbus_agents::engine::run_scenario;
use nimbus_agents::harness::SimHarness;
use nimbus_agents::scenario::{ListingSpec, Scenario, SimEvent};
use nimbus_agents::SimOutcome;
use nimbus_market::clock::null_clock;

/// 2 listings × 200 agents × 300 ticks, re-pricing every 40 ticks with a
/// demand boom landing mid-run — ≥3 full re-price cycles on either side.
fn war_scenario() -> Scenario {
    let mut s = Scenario::builtin("price-war").expect("catalog");
    s.listings = vec![
        ListingSpec {
            name: "alpha".to_string(),
            seed_label: 1,
        },
        ListingSpec {
            name: "beta".to_string(),
            seed_label: 2,
        },
    ];
    s.agents = 200;
    s.ticks = 300;
    s.reprice_every = 40;
    s.min_observations = 50;
    s.events = vec![SimEvent::DemandShock {
        tick: 150,
        factor: 1.6,
    }];
    s
}

fn run(scenario: &Scenario, seed: u64) -> (SimOutcome, SimHarness) {
    let h = SimHarness::start(scenario, seed).expect("harness starts");
    let outcome = run_scenario(
        scenario,
        seed,
        h.server.local_addr(),
        &h.marketplace,
        &null_clock(),
    )
    .expect("run completes");
    (outcome, h)
}

#[test]
fn same_seed_reruns_are_bitwise_identical() {
    let scenario = war_scenario();
    let (first, h1) = run(&scenario, 7);
    h1.server.shutdown();
    let (second, h2) = run(&scenario, 7);
    h2.server.shutdown();
    assert!(!first.log.is_empty());
    assert_eq!(
        first.log, second.log,
        "same (scenario, seed) must journal identically"
    );
    // And a different seed actually changes the run (the log is not a
    // constant).
    let (other, h3) = run(&scenario, 8);
    h3.server.shutdown();
    assert_ne!(first.log, other.log);
}

#[test]
fn ledger_reconciles_exactly_with_agent_acks() {
    let scenario = war_scenario();
    let (outcome, h) = run(&scenario, 11);

    // The run exercised the full loop: sales happened, the re-pricer
    // fired at least 3 times, and re-pricing killed in-flight quotes.
    assert!(outcome.acked_commits() > 0, "no sales at all");
    assert!(
        outcome.reprice_count >= 3,
        "need ≥3 re-price cycles, got {}",
        outcome.reprice_count
    );
    let expired: u64 = outcome.records.iter().map(|r| r.expired).sum();
    assert!(expired > 0, "epoch-kill path never exercised");

    for (li, name) in outcome.listings.iter().enumerate() {
        let broker = h.marketplace.route(name).expect("listing routes");
        let ledger = broker.ledger();
        let transactions = ledger.transactions();
        assert_eq!(
            transactions.len(),
            outcome.acked[li].len(),
            "listing `{name}`: ledger row count != buyer ACK count"
        );
        // Same transaction ids, bitwise-same prices. Sort both sides by
        // sequence: ledger assignment order races across server workers,
        // but the (sequence, price) pairing is exact.
        let mut ledger_side: Vec<(u64, u64)> = transactions
            .iter()
            .map(|t| (t.sequence, t.price.to_bits()))
            .collect();
        let mut acked_side: Vec<(u64, u64)> = outcome.acked[li]
            .iter()
            .map(|a| (a.transaction, a.price.to_bits()))
            .collect();
        ledger_side.sort_unstable();
        acked_side.sort_unstable();
        assert_eq!(
            ledger_side, acked_side,
            "listing `{name}`: ledger and ACK stream disagree"
        );
    }
    h.server.shutdown();
}

/// Shared assertions for the metered-buyer scenarios: the run must hit
/// budget exhaustion, keep serving afterwards, and the server-side
/// ledger, the buyer-side ACK stream, and the per-buyer accounts must
/// agree exactly — zero mismatches.
fn assert_budgets_reconcile(scenario: &Scenario, outcome: &SimOutcome, h: &SimHarness) {
    let budget = scenario.buyer_budget.expect("metered scenario");
    assert!(outcome.acked_commits() > 0, "no sales before exhaustion");
    assert!(
        outcome.budget_rejects() > 0,
        "budgets never exhausted — the reject path was not exercised"
    );
    // Exhaustion is graceful: the engine kept quoting (reads served) on
    // every tick after the first reject.
    let first_reject = outcome
        .records
        .iter()
        .find(|r| r.budget_rejects > 0)
        .map(|r| r.tick)
        .unwrap();
    for r in outcome.records.iter().filter(|r| r.tick > first_reject) {
        assert!(
            r.quotes > 0,
            "tick {}: reads stopped after exhaustion",
            r.tick
        );
    }

    for (li, name) in outcome.listings.iter().enumerate() {
        let broker = h.marketplace.route(name).expect("listing routes");
        // Ledger ↔ ACK: same transaction ids, bitwise-same prices.
        let ledger = broker.ledger();
        let transactions = ledger.transactions();
        assert_eq!(
            transactions.len(),
            outcome.acked[li].len(),
            "listing `{name}`: ledger row count != buyer ACK count"
        );
        let mut ledger_side: Vec<(u64, u64)> = transactions
            .iter()
            .map(|t| (t.sequence, t.price.to_bits()))
            .collect();
        let mut acked_side: Vec<(u64, u64)> = outcome.acked[li]
            .iter()
            .map(|a| (a.transaction, a.price.to_bits()))
            .collect();
        ledger_side.sort_unstable();
        acked_side.sort_unstable();
        assert_eq!(
            ledger_side, acked_side,
            "listing `{name}`: ledger and ACK stream disagree"
        );

        // Accounts ↔ ledger: every charge came from an ACKed sale, every
        // buyer stayed within budget, and total spend equals the
        // ledger's total precision sold.
        let accounts = broker.accounts();
        assert_eq!(accounts.budget(), Some(budget));
        let snapshot = accounts.snapshot();
        assert!(
            snapshot.len() <= scenario.buyers,
            "listing `{name}`: more charged buyers than identities"
        );
        let mut charged = 0.0f64;
        for &(buyer, spent) in &snapshot {
            assert!(buyer >= 1 && buyer <= scenario.buyers as u64);
            assert!(
                spent <= budget + 1e-9,
                "listing `{name}`: buyer {buyer} over budget: {spent} > {budget}"
            );
            charged += spent;
        }
        let sold: f64 = transactions.iter().map(|t| t.inverse_ncp).sum();
        assert!(
            (charged - sold).abs() <= 1e-9 * sold.max(1.0),
            "listing `{name}`: accounts charged {charged} != ledger sold {sold}"
        );
        assert_eq!(accounts.budget_rejects(), outcome.budget_rejects());
    }
}

#[test]
fn budget_exhaustion_is_graceful_and_reconciles() {
    let scenario = Scenario::builtin("budget-exhaustion").expect("catalog");
    let (outcome, h) = run(&scenario, 21);
    assert_budgets_reconcile(&scenario, &outcome, &h);
    // Every agent is its own buyer, so exhaustion is fleet-wide: the
    // final ticks commit (almost) nothing while still quoting.
    let last = outcome.records.last().unwrap();
    assert!(last.quotes > 0);
    h.server.shutdown();
}

#[test]
fn colluding_buyers_share_one_budget() {
    let scenario = Scenario::builtin("colluding-buyers").expect("catalog");
    let (outcome, h) = run(&scenario, 23);
    assert_budgets_reconcile(&scenario, &outcome, &h);
    // Ten agents share each identity; the ledger meters the identity,
    // so the number of distinct charged buyers is bounded by the ring
    // count, not the population.
    let broker = h.marketplace.route(&outcome.listings[0]).unwrap();
    let snapshot = broker.accounts().snapshot();
    assert!(!snapshot.is_empty());
    assert!(snapshot.len() <= 8, "identities leaked: {}", snapshot.len());
    h.server.shutdown();
}

#[test]
fn demand_shock_moves_prices_up() {
    let scenario = war_scenario();
    let (outcome, h) = run(&scenario, 13);
    h.server.shutdown();

    let shock_tick = 150;
    // Compare each listing's last re-priced top before the shock with
    // its last re-priced top after: a 1.6× valuation boom must raise the
    // revenue-optimal posted prices.
    for (li, name) in outcome.listings.iter().enumerate() {
        let mut before: Option<f64> = None;
        let mut after: Option<f64> = None;
        for r in &outcome.records {
            for d in &r.reprices {
                if d.listing == *name {
                    if r.tick < shock_tick {
                        before = Some(d.new_top);
                    } else {
                        after = Some(d.new_top);
                    }
                }
            }
        }
        let before = before.unwrap_or_else(|| panic!("listing `{name}` never re-priced pre-shock"));
        let after = after.unwrap_or_else(|| panic!("listing `{name}` never re-priced post-shock"));
        assert!(
            after > before,
            "listing `{name}` ({li}): post-shock top {after} should exceed pre-shock top {before}"
        );
    }
}
