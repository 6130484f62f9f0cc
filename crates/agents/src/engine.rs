//! The deterministic discrete-tick simulation engine.
//!
//! [`run_scenario`] drives a [`crate::agent::BuyerAgent`] population
//! against a live [`nimbus_server::NimbusServer`] over TCP using the
//! pipelined wire client, closing the loop with a
//! [`crate::demand::DemandObserver`] and a [`crate::reprice::Repricer`].
//!
//! # Tick structure
//!
//! Each tick runs five phases in a fixed order:
//!
//! 1. **income + decay** — agents earn, learned strengths decay;
//! 2. **quote** — every agent forms an [`crate::agent::Intent`] (possibly
//!    a retry of a re-price-killed one) and the engine pipelines one
//!    `QUOTE` per agent;
//! 3. **decide** — each priced quote goes to its agent's acceptance
//!    rules; outcomes feed the demand observer;
//! 4. **re-price** — on cadence ticks the re-pricer republishes from the
//!    observed window *between the quote and commit phases*, so the
//!    accepted quotes of this very tick carry a dead epoch and the
//!    epoch-kill path (`QuoteExpired` at commit, agent retry next tick)
//!    is exercised on every re-price, deterministically;
//! 5. **commit** — accepted quotes are pipelined as `COMMIT`s (with
//!    deterministic idempotency nonces and, when the scenario defines
//!    buyer identities, a wire-v5 buyer id); ACKs settle wallets and
//!    learning, expirations queue retries, and `BUDGET_EXHAUSTED`
//!    rejects are absorbed without retry — exhaustion is durable, so a
//!    dried-up buyer keeps quoting but never commits again.
//!
//! # Determinism
//!
//! Same `(scenario, seed)` ⇒ bitwise-identical tick log. The engine gets
//! there by construction:
//!
//! * every random draw comes from a per-agent RNG stream split off the
//!   run seed; the engine itself draws nothing;
//! * responses are pipelined but *processed in send order*: each phase
//!   matches responses back to requests by correlation id before any
//!   agent sees them, so server-side arrival order is invisible;
//! * re-pricing happens synchronously between phases, never concurrently
//!   with traffic, so epoch sequences are reproducible;
//! * the journal excludes everything machine-dependent: ledger
//!   transaction ids (assignment order races across server workers),
//!   noisy model weights (functions of the tx id), and wall-clock
//!   timings (reported separately via the injected clock, zero under
//!   [`nimbus_market::clock::null_clock`]).

use crate::agent::{BuyerAgent, BuyerType, Intent};
use crate::demand::DemandObserver;
use crate::metrics::{render_log, RepriceDelta, TickRecord};
use crate::reprice::Repricer;
use crate::scenario::{Scenario, SimEvent};
use crate::{AgentsError, Result};
use nimbus_market::clock::Clock;
use nimbus_market::{Marketplace, PurchaseRequest};
use nimbus_server::wire::{ErrorCode, Request, Response};
use nimbus_server::{ClientConfig, PipelinedClient};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Duration;

/// Pipelining window per connection: far below the server's shard queue
/// capacity so in-flight frames are never shed (a shed closes the
/// connection).
const MAX_IN_FLIGHT: usize = 64;
/// Reconnect budget per exchange: transport failures are retried by
/// reconnecting and re-sending the unanswered requests (quotes and menus
/// are reads; commits carry idempotency nonces), but only this many
/// times before the run reports the fault.
const MAX_RECONNECTS: usize = 5;

/// One ACKed sale, as the buyer side recorded it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerAck {
    /// Ledger transaction id from the `COMMIT` ACK.
    pub transaction: u64,
    /// Price charged.
    pub price: f64,
}

/// Everything a finished run reports.
#[derive(Debug)]
pub struct SimOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Run seed.
    pub seed: u64,
    /// Listing names, engine index order.
    pub listings: Vec<String>,
    /// Per-tick records (the journal's source of truth).
    pub records: Vec<TickRecord>,
    /// The rendered JSONL journal — byte-identical across same-seed runs.
    pub log: String,
    /// Buyer-side ACKed sales per listing (engine index order), in ACK
    /// processing order. Reconciles against the server-side ledger.
    pub acked: Vec<Vec<LedgerAck>>,
    /// Final posted menus per listing.
    pub final_menus: Vec<Vec<(f64, f64)>>,
    /// Number of successful re-prices.
    pub reprice_count: u64,
    /// Injected-clock time spent inside re-pricing, total and worst
    /// single re-price (zero under a null clock).
    pub reprice_total: Duration,
    /// Worst single re-price latency.
    pub reprice_max: Duration,
    /// Injected-clock duration of the whole run.
    pub elapsed: Duration,
}

impl SimOutcome {
    /// Total revenue ACKed to agents.
    pub fn acked_revenue(&self) -> f64 {
        self.acked
            .iter()
            .flat_map(|l| l.iter().map(|a| a.price))
            .sum()
    }

    /// Total commits ACKed to agents.
    pub fn acked_commits(&self) -> u64 {
        self.acked.iter().map(|l| l.len() as u64).sum()
    }

    /// Total commits rejected with `BUDGET_EXHAUSTED` across the run.
    pub fn budget_rejects(&self) -> u64 {
        self.records.iter().map(|r| r.budget_rejects).sum()
    }
}

/// The posted menu the engine caches between re-prices.
struct MenuState {
    points: Vec<(f64, f64)>,
    /// Top-of-menu price at scenario start; anchors agent WTP for the
    /// whole run so demand responds to price *changes*.
    anchor: f64,
}

/// An accepted quote awaiting its commit phase.
struct PendingCommit {
    agent: usize,
    intent: Intent,
    x: f64,
    price: f64,
    epoch: u64,
    surplus: f64,
}

/// Runs `scenario` with `seed` against the server at `addr`, re-pricing
/// through `marketplace` (which must be the instance the server routes
/// against). `clock` times the run and the re-pricer; pass
/// [`nimbus_market::clock::null_clock`] for bit-identical outcomes or
/// [`nimbus_market::clock::wall_clock`] for real latencies.
pub fn run_scenario(
    scenario: &Scenario,
    seed: u64,
    addr: SocketAddr,
    marketplace: &Marketplace,
    clock: Clock<'_>,
) -> Result<SimOutcome> {
    scenario.validate()?;
    let started = clock();
    let client_config = ClientConfig::default();
    let n_conns = scenario.connections.min(scenario.agents.max(1));
    let mut conns = Vec::with_capacity(n_conns);
    for _ in 0..n_conns {
        conns.push(PipelinedClient::connect(addr, &client_config).map_err(AgentsError::Server)?);
    }

    let listings: Vec<String> = scenario.listings.iter().map(|l| l.name.clone()).collect();
    let mut menus = fetch_menus(&mut conns, addr, &client_config, &listings)?;
    for menu in &menus {
        if menu.points.is_empty() {
            return Err(AgentsError::Config(
                "a scenario listing has an empty posted menu".to_string(),
            ));
        }
    }

    // Scenario wallets and incomes are scale-free: one unit is a tenth
    // of the mean anchor (top-of-menu) price, so the same scenario
    // behaves the same whatever absolute price level the listings'
    // revenue DP happens to publish at.
    let unit = menus.iter().map(|m| m.anchor).sum::<f64>() / menus.len() as f64 / 10.0;
    let wallet = scenario.starting_wallet * unit;
    let mut income = scenario.income_per_tick * unit;

    let mut agents = spawn_population(scenario, seed, 0, listings.len(), wallet);
    let mut generation: u64 = 0;
    let mut observer = DemandObserver::new(&menu_lens(&menus));
    let repricer = Repricer {
        min_observations: scenario.min_observations,
        ..Repricer::default()
    };
    let mut records = Vec::with_capacity(scenario.ticks as usize);
    let mut acked: Vec<Vec<LedgerAck>> = vec![Vec::new(); listings.len()];
    let mut nonce_counter: u64 = 0;
    let mut reprice_count = 0u64;
    let mut reprice_total = Duration::ZERO;
    let mut reprice_max = Duration::ZERO;
    let mut next_event = 0usize;

    for tick in 0..scenario.ticks {
        // Scripted events land at the start of their tick.
        while next_event < scenario.events.len() && scenario.events[next_event].tick() <= tick {
            match scenario.events[next_event] {
                SimEvent::DemandShock { factor, .. } => {
                    for a in &mut agents {
                        a.scale_valuation(factor);
                    }
                }
                SimEvent::Churn { fraction, .. } => {
                    generation += 1;
                    churn(
                        seed,
                        generation,
                        fraction,
                        &mut agents,
                        listings.len(),
                        wallet,
                    );
                }
                SimEvent::IncomeSqueeze { factor, .. } => {
                    income = (income * factor).max(0.0);
                }
            }
            next_event += 1;
        }

        let mut record = TickRecord {
            tick,
            ..TickRecord::default()
        };

        // Phase 1: income + decay.
        for a in &mut agents {
            a.earn(income);
            a.decay();
        }

        // Phase 2: quotes. One request per agent, agent-order batch.
        let lens = menu_lens(&menus);
        let intents: Vec<Intent> = agents.iter_mut().map(|a| a.intend(&lens)).collect();
        let quote_batch: Vec<(usize, Request)> = intents
            .iter()
            .enumerate()
            .map(|(i, intent)| {
                let menu = &menus[intent.listing];
                let x = menu.points[intent.menu_index.min(menu.points.len() - 1)].0;
                (
                    i % n_conns,
                    Request::Quote {
                        listing: Some(listings[intent.listing].clone()),
                        request: PurchaseRequest::AtInverseNcp(x),
                    },
                )
            })
            .collect();
        let quote_responses = exchange(&mut conns, addr, &client_config, &quote_batch)?;

        // Phase 3: decisions, in agent order.
        let mut pending: Vec<PendingCommit> = Vec::new();
        for (i, response) in quote_responses.into_iter().enumerate() {
            let intent = intents[i];
            let menu = &menus[intent.listing];
            let quote = match response {
                Response::Quote(q) => q,
                Response::Error { code, message } => {
                    return Err(AgentsError::Protocol(format!(
                        "quote for agent {i} failed: {code:?}: {message}"
                    )));
                }
                other => {
                    return Err(AgentsError::Protocol(format!(
                        "quote for agent {i} answered with {other:?}"
                    )));
                }
            };
            record.quotes += 1;
            let menu_index = intent.menu_index.min(menu.points.len() - 1);
            let t = if menu.points.len() == 1 {
                1.0
            } else {
                menu_index as f64 / (menu.points.len() - 1) as f64
            };
            let decision = agents[i].decide(quote.price, t, menu.anchor);
            observer.record(intent.listing, menu_index, decision.accept);
            if decision.accept {
                record.accepts += 1;
                pending.push(PendingCommit {
                    agent: i,
                    intent,
                    x: quote.x,
                    price: quote.price,
                    epoch: quote.snapshot_epoch,
                    surplus: decision.surplus,
                });
            } else {
                record.rejects += 1;
                if decision.wallet_forced {
                    record.wallet_forced += 1;
                } else {
                    agents[i].settle_rejection(decision.surplus, menu.anchor);
                }
            }
        }

        // Phase 4: on cadence ticks, re-price between quote and commit —
        // this tick's accepted quotes die with QuoteExpired below.
        let on_cadence =
            scenario.reprice_every > 0 && tick > 0 && tick % scenario.reprice_every == 0;
        if on_cadence {
            for (li, name) in listings.iter().enumerate() {
                let before = clock();
                let outcome =
                    repricer.reprice(marketplace, name, &menus[li].points, observer.window(li))?;
                let took = clock().saturating_sub(before);
                if let Some(outcome) = outcome {
                    reprice_count += 1;
                    reprice_total += took;
                    reprice_max = reprice_max.max(took);
                    record.reprices.push(RepriceDelta {
                        listing: outcome.listing,
                        old_top: outcome.old_top,
                        new_top: outcome.new_top,
                    });
                    // Refresh the cached menu; the WTP anchor survives.
                    let anchor = menus[li].anchor;
                    let fresh =
                        fetch_menus(&mut conns, addr, &client_config, std::slice::from_ref(name))?;
                    let mut fresh = fresh.into_iter().next().ok_or_else(|| {
                        AgentsError::Protocol("menu refetch returned nothing".to_string())
                    })?;
                    fresh.anchor = anchor;
                    observer.reset_listing(li, fresh.points.len());
                    menus[li] = fresh;
                }
            }
        }

        // Phase 5: commits for this tick's accepted quotes. Agent i
        // commits as buyer (i mod buyers) + 1 when the scenario defines
        // identities; `buyers < agents` deliberately shares (colludes
        // on) identities so a ring drains one budget together.
        let commit_batch: Vec<(usize, Request)> = pending
            .iter()
            .map(|p| {
                nonce_counter += 1;
                (
                    p.agent % n_conns,
                    Request::Commit {
                        listing: Some(listings[p.intent.listing].clone()),
                        x: p.x,
                        snapshot_epoch: p.epoch,
                        payment: p.price,
                        nonce: Some(nonce_counter),
                        buyer: buyer_identity(scenario, p.agent),
                    },
                )
            })
            .collect();
        let commit_responses = exchange(&mut conns, addr, &client_config, &commit_batch)?;
        for (p, response) in pending.iter().zip(commit_responses) {
            let menu_anchor = menus[p.intent.listing].anchor;
            match response {
                Response::Commit(sale) => {
                    record.commits += 1;
                    record.revenue += sale.price;
                    let agent = &mut agents[p.agent];
                    let realized = p.surplus;
                    record.surplus[agent.buyer_type().index()] += realized;
                    agent.settle_purchase(p.intent.listing, sale.price, realized, menu_anchor);
                    acked[p.intent.listing].push(LedgerAck {
                        transaction: sale.transaction,
                        price: sale.price,
                    });
                }
                Response::Error { code, message } => {
                    if code == ErrorCode::QuoteExpired {
                        record.expired += 1;
                        agents[p.agent].queue_retry(p.intent);
                    } else if code == ErrorCode::BudgetExhausted {
                        // Durable exhaustion: retrying the same buyer
                        // can only be rejected again, so count it and
                        // let the agent move on (no wallet settlement —
                        // nothing was charged).
                        record.budget_rejects += 1;
                    } else {
                        return Err(AgentsError::Protocol(format!(
                            "commit for agent {} failed: {code:?}: {message}",
                            p.agent
                        )));
                    }
                }
                other => {
                    return Err(AgentsError::Protocol(format!(
                        "commit for agent {} answered with {other:?}",
                        p.agent
                    )));
                }
            }
        }

        records.push(record);
    }

    let log = render_log(&records);
    Ok(SimOutcome {
        scenario: scenario.name.clone(),
        seed,
        listings,
        final_menus: menus.iter().map(|m| m.points.clone()).collect(),
        records,
        log,
        acked,
        reprice_count,
        reprice_total,
        reprice_max,
        elapsed: clock().saturating_sub(started),
    })
}

fn menu_lens(menus: &[MenuState]) -> Vec<usize> {
    menus.iter().map(|m| m.points.len()).collect()
}

/// The buyer identity agent `agent` commits under, or `None` (an
/// anonymous commit) when the scenario defines no identities.
fn buyer_identity(scenario: &Scenario, agent: usize) -> Option<u64> {
    if scenario.buyers == 0 {
        None
    } else {
        Some((agent % scenario.buyers) as u64 + 1)
    }
}

fn spawn_population(
    scenario: &Scenario,
    seed: u64,
    generation: u64,
    n_listings: usize,
    wallet: f64,
) -> Vec<BuyerAgent> {
    (0..scenario.agents)
        .map(|i| {
            BuyerAgent::new(
                seed,
                generation,
                i as u32,
                type_for(scenario, i),
                n_listings,
                wallet,
            )
        })
        .collect()
}

/// Deterministic type assignment: the population is laid out by
/// cumulative mix fractions, so the type histogram matches the mix for
/// any population size without consuming randomness.
fn type_for(scenario: &Scenario, index: usize) -> BuyerType {
    let mass = scenario.mix.budget + scenario.mix.mainstream + scenario.mix.premium;
    let t = (index as f64 + 0.5) / scenario.agents as f64 * mass;
    if t < scenario.mix.budget {
        BuyerType::Budget
    } else if t < scenario.mix.budget + scenario.mix.mainstream {
        BuyerType::Mainstream
    } else {
        BuyerType::Premium
    }
}

/// Replaces a deterministic stratified `fraction` of agents with fresh
/// generation-`generation` agents (same id and type, reset learning,
/// wallet and RNG stream).
fn churn(
    seed: u64,
    generation: u64,
    fraction: f64,
    agents: &mut [BuyerAgent],
    n_listings: usize,
    wallet: f64,
) {
    let n = agents.len();
    if n == 0 {
        return;
    }
    let replace = ((n as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
    if replace == 0 {
        return;
    }
    // Every (n/replace)-th agent churns: stratified across ids and types.
    let stride = (n as f64) / (replace as f64);
    for k in 0..replace {
        let idx = ((k as f64) * stride).floor() as usize;
        if let Some(slot) = agents.get_mut(idx) {
            *slot = BuyerAgent::new(
                seed,
                generation,
                slot.id(),
                slot.buyer_type(),
                n_listings,
                wallet,
            );
        }
    }
}

/// Fetches the posted menus for `listings` over conn 0.
fn fetch_menus(
    conns: &mut [PipelinedClient],
    addr: SocketAddr,
    config: &ClientConfig,
    listings: &[String],
) -> Result<Vec<MenuState>> {
    let batch: Vec<(usize, Request)> = listings
        .iter()
        .map(|name| {
            (
                0usize,
                Request::Menu {
                    listing: Some(name.clone()),
                },
            )
        })
        .collect();
    let responses = exchange(conns, addr, config, &batch)?;
    responses
        .into_iter()
        .enumerate()
        .map(|(i, response)| match response {
            Response::Menu(menu) => {
                let anchor = menu.points.iter().map(|&(_, p)| p).fold(0.0f64, f64::max);
                Ok(MenuState {
                    points: menu.points,
                    anchor,
                })
            }
            other => Err(AgentsError::Protocol(format!(
                "menu for listing `{}` answered with {other:?}",
                listings.get(i).map(String::as_str).unwrap_or("?")
            ))),
        })
        .collect()
}

/// Pipelined send-all/drain-all with a per-connection window.
///
/// Requests are assigned to connections by the batch's `(conn, request)`
/// pairs, sent up to [`MAX_IN_FLIGHT`] per connection, and the responses
/// are returned **in batch order** regardless of arrival order — the
/// caller never observes server-side scheduling. A transport fault or a
/// mid-stream `BUSY` shed reconnects the affected connection and
/// re-sends its unanswered requests (safe: reads are idempotent and
/// commits carry nonces), bounded by [`MAX_RECONNECTS`]. The server keeps
/// a connection open across a queue-full shed and closes it only after a
/// deadline shed; one reconnect path covers both.
fn exchange(
    conns: &mut [PipelinedClient],
    addr: SocketAddr,
    config: &ClientConfig,
    batch: &[(usize, Request)],
) -> Result<Vec<Response>> {
    let mut out: Vec<Option<Response>> = (0..batch.len()).map(|_| None).collect();
    let n_conns = conns.len().max(1);
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); n_conns];
    for (idx, &(conn, _)) in batch.iter().enumerate() {
        queues[conn % n_conns].push(idx);
    }
    // Per-conn cursor into its queue and corr→batch-index map.
    let mut sent: Vec<usize> = vec![0; n_conns];
    let mut maps: Vec<BTreeMap<u64, usize>> = vec![BTreeMap::new(); n_conns];
    let mut reconnects = 0usize;

    // Prime every connection's window so the server works all pipelines
    // while we drain them one by one.
    for c in 0..n_conns {
        fill(&mut conns[c], &queues[c], &mut sent[c], &mut maps[c], batch)?;
    }
    for c in 0..n_conns {
        while !maps[c].is_empty() || sent[c] < queues[c].len() {
            match conns[c].recv() {
                Ok((corr, Response::Busy { .. })) => {
                    // A queue-full shed leaves the connection open and a
                    // deadline shed closes it; either way, recover the
                    // unanswered requests on a fresh one.
                    let _ = corr;
                    reconnect(
                        conns,
                        c,
                        addr,
                        config,
                        &queues[c],
                        &mut sent[c],
                        &mut maps[c],
                        &mut reconnects,
                    )?;
                    fill(&mut conns[c], &queues[c], &mut sent[c], &mut maps[c], batch)?;
                }
                Ok((corr, response)) => {
                    if let Some(idx) = maps[c].remove(&corr) {
                        out[idx] = Some(response);
                    }
                    fill(&mut conns[c], &queues[c], &mut sent[c], &mut maps[c], batch)?;
                }
                Err(_) => {
                    reconnect(
                        conns,
                        c,
                        addr,
                        config,
                        &queues[c],
                        &mut sent[c],
                        &mut maps[c],
                        &mut reconnects,
                    )?;
                    fill(&mut conns[c], &queues[c], &mut sent[c], &mut maps[c], batch)?;
                }
            }
        }
    }
    out.into_iter()
        .map(|r| r.ok_or_else(|| AgentsError::Protocol("response lost in exchange".to_string())))
        .collect()
}

/// Tops a connection's pipeline up to the window.
fn fill(
    conn: &mut PipelinedClient,
    queue: &[usize],
    sent: &mut usize,
    map: &mut BTreeMap<u64, usize>,
    batch: &[(usize, Request)],
) -> Result<()> {
    while *sent < queue.len() && map.len() < MAX_IN_FLIGHT {
        let idx = queue[*sent];
        let corr = conn.send(&batch[idx].1).map_err(AgentsError::Server)?;
        map.insert(corr, idx);
        *sent += 1;
    }
    Ok(())
}

/// Replaces connection `c` and rewinds its cursor so every unanswered
/// request re-sends on the fresh connection.
#[expect(
    clippy::too_many_arguments,
    reason = "the pipelined exchange's cursor state is threaded through by reference"
)]
fn reconnect(
    conns: &mut [PipelinedClient],
    c: usize,
    addr: SocketAddr,
    config: &ClientConfig,
    queue: &[usize],
    sent: &mut usize,
    map: &mut BTreeMap<u64, usize>,
    reconnects: &mut usize,
) -> Result<()> {
    *reconnects += 1;
    if *reconnects > MAX_RECONNECTS {
        return Err(AgentsError::Protocol(
            "connection kept failing mid-exchange; reconnect budget exhausted".to_string(),
        ));
    }
    conns[c] = PipelinedClient::connect(addr, config).map_err(AgentsError::Server)?;
    // Rewind to the earliest unanswered request: everything at or after
    // it that was answered already stays answered (out[] keeps results;
    // re-received duplicates are ignored by the map lookup).
    let earliest = map.values().copied().min();
    map.clear();
    if let Some(earliest) = earliest {
        if let Some(pos) = queue.iter().position(|&idx| idx == earliest) {
            *sent = pos;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::SimHarness;
    use crate::scenario::Scenario;
    use nimbus_market::clock::null_clock;

    #[test]
    fn smoke_scenario_closes_the_loop() {
        // `baseline` is the default catalog scenario, at 3x the agents and
        // ticks of `smoke`.
        for name in ["smoke", "baseline"] {
            let scenario = Scenario::builtin(name).expect("catalog");
            let h = SimHarness::start(&scenario, 42).expect("harness");
            let outcome = run_scenario(
                &scenario,
                42,
                h.server.local_addr(),
                &h.marketplace,
                &null_clock(),
            )
            .expect("run completes");
            h.server.shutdown();
            assert_eq!(outcome.records.len() as u64, scenario.ticks, "{name}");
            let quotes: u64 = outcome.records.iter().map(|r| r.quotes).sum();
            assert_eq!(quotes, scenario.ticks * scenario.agents as u64, "{name}");
            // The population actually buys, and the loop actually re-prices.
            assert!(outcome.acked_commits() > 0, "{name}: no commits ACKed");
            assert!(
                outcome.reprice_count > 0,
                "{name}: the re-pricer never fired"
            );
            // Every re-price kills that tick's accepted in-flight quotes.
            let expired: u64 = outcome.records.iter().map(|r| r.expired).sum();
            assert!(expired > 0, "{name}: epoch-kill path never exercised");
            // Journal revenue matches the ACK stream (summation order
            // differs — per tick vs per listing — so compare to rounding).
            let journal_revenue: f64 = outcome.records.iter().map(|r| r.revenue).sum();
            let acked = outcome.acked_revenue();
            assert!(
                (journal_revenue - acked).abs() <= 1e-9 * acked.max(1.0),
                "{name}"
            );
        }
    }
}
