//! Reconciliation checks: every acknowledged answer against the published
//! snapshot, the ledgers and accounts against the acknowledgements, and
//! the journals, reopened after shutdown, against both.

use crate::drive::UnitResult;
use crate::workload::Op;
use nimbus_core::InverseNcp;
use nimbus_market::journal::{FaultPlan, Journal};
use nimbus_market::Marketplace;
use std::collections::BTreeMap;
use std::path::Path;

/// Collected check failures; the run is correct when there are none.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
    /// Individual comparisons made, for the report.
    pub compared: u64,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.compared += 1;
        if !ok && self.failures.len() < 20 {
            self.failures.push(what());
        }
    }

    pub fn fail(&mut self, why: String) {
        self.expect(false, || why);
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// What one listing acknowledged: sales, revenue and Σx per buyer.
#[derive(Debug, Default, Clone)]
pub struct Acked {
    pub sales: u64,
    pub revenue: f64,
    pub spent: BTreeMap<u64, f64>,
}

/// Checks every answered unit against the live marketplace and returns
/// what each listing acknowledged. `units[i]` answers `ops[i]`; a unit
/// routed to listing `names[ops[i].listing]`.
pub fn check_units(
    market: &Marketplace,
    names: &[&str],
    ops: &[Op],
    units: &[UnitResult],
    checks: &mut Checks,
) -> BTreeMap<String, Acked> {
    let mut acked: BTreeMap<String, Acked> = BTreeMap::new();
    for (op, unit) in ops.iter().zip(units) {
        let name = names[op.listing];
        let Ok(broker) = market.route(name) else {
            checks.expect(false, || format!("listing {name} does not route"));
            continue;
        };
        let Some(snapshot) = broker.snapshot() else {
            checks.expect(false, || format!("listing {name} has no snapshot"));
            continue;
        };
        if let Some(q) = &unit.quote {
            match snapshot.quote(op.request) {
                Ok(expected) => checks.expect(
                    q.x.to_bits() == expected.x.to_bits()
                        && q.price.to_bits() == expected.price.to_bits()
                        && q.snapshot_epoch == expected.snapshot_epoch
                        && q.listing == name,
                    || {
                        format!(
                            "quote for {:?} on {name}: got {q:?}, expected {expected:?}",
                            op.request
                        )
                    },
                ),
                Err(e) => checks.expect(false, || format!("in-process quote failed: {e}")),
            }
        }
        if let Some(s) = &unit.sale {
            let price = snapshot.price_at(s.inverse_ncp);
            checks.expect(
                matches!(price, Ok(p) if p.to_bits() == s.price.to_bits()),
                || {
                    format!(
                        "sale at x={} priced {} but price_at gives {price:?}",
                        s.inverse_ncp, s.price
                    )
                },
            );
            let d = snapshot.optimal().dim();
            checks.expect(unit.model.dim == d && unit.model.finite, || {
                format!(
                    "sale #{} has {} weights (d = {d}) or a non-finite one",
                    s.transaction, unit.model.dim
                )
            });
            checks.expect(
                unit.quote
                    .as_ref()
                    .is_none_or(|q| q.x.to_bits() == s.inverse_ncp.to_bits()),
                || format!("sale #{} sold another x than quoted", s.transaction),
            );
            checks.expect(InverseNcp::new(s.inverse_ncp).is_ok(), || {
                format!("sale #{} has an invalid x", s.transaction)
            });
            let entry = acked.entry(name.to_string()).or_default();
            entry.sales += 1;
            entry.revenue += s.price;
            *entry.spent.entry(op.buyer).or_insert(0.0) += s.inverse_ncp;
        }
    }
    acked
}

/// Adds `more` into `into`, listing by listing.
pub fn merge(into: &mut BTreeMap<String, Acked>, more: BTreeMap<String, Acked>) {
    for (name, a) in more {
        let e = into.entry(name).or_default();
        e.sales += a.sales;
        e.revenue += a.revenue;
        for (buyer, x) in a.spent {
            *e.spent.entry(buyer).or_insert(0.0) += x;
        }
    }
}

/// Ledger sales and revenue, and every buyer's spend, equal what was
/// acknowledged.
pub fn check_ledgers(market: &Marketplace, acked: &BTreeMap<String, Acked>, checks: &mut Checks) {
    for name in market.names() {
        let Ok(broker) = market.route(&name) else {
            continue;
        };
        let want = acked.get(&name).cloned().unwrap_or_default();
        let stats = broker.market_stats();
        checks.expect(stats.sales as u64 == want.sales, || {
            format!(
                "{name}: ledger has {} sales, {} were acknowledged",
                stats.sales, want.sales
            )
        });
        checks.expect(close(stats.revenue, want.revenue), || {
            format!(
                "{name}: ledger revenue {} != acknowledged {}",
                stats.revenue, want.revenue
            )
        });
        let accounts: BTreeMap<u64, f64> = broker.accounts().snapshot().into_iter().collect();
        for (buyer, spent) in &want.spent {
            let got = accounts.get(buyer).copied().unwrap_or(0.0);
            checks.expect(close(got, *spent), || {
                format!("{name}: buyer {buyer} spent {got}, acknowledged sales sum to {spent}")
            });
        }
        checks.expect(accounts.len() == want.spent.len(), || {
            format!(
                "{name}: {} accounts but {} buyers acknowledged",
                accounts.len(),
                want.spent.len()
            )
        });
    }
}

/// Reopens each listing's journal after shutdown: the recovered ledger
/// and accounts must equal what was acknowledged.
pub fn check_journals(
    root: &Path,
    names: &[&str],
    acked: &BTreeMap<String, Acked>,
    checks: &mut Checks,
) {
    for name in names {
        let path = Marketplace::journal_path_for(root, name);
        let want = acked.get(*name).cloned().unwrap_or_default();
        match Journal::open(&path, 0, FaultPlan::new()) {
            Ok((_, rec)) => {
                checks.expect(rec.truncated.is_none(), || {
                    format!("{name}: journal tail was torn")
                });
                checks.expect(rec.transactions.len() as u64 == want.sales, || {
                    format!(
                        "{name}: journal recovers {} sales, {} acknowledged",
                        rec.transactions.len(),
                        want.sales
                    )
                });
                checks.expect(close(rec.total_revenue(), want.revenue), || {
                    format!(
                        "{name}: journal revenue {} != acknowledged {}",
                        rec.total_revenue(),
                        want.revenue
                    )
                });
                let accounts: BTreeMap<u64, f64> = rec.accounts.iter().copied().collect();
                checks.expect(accounts.len() == want.spent.len(), || {
                    format!(
                        "{name}: journal has {} accounts, {} acknowledged",
                        accounts.len(),
                        want.spent.len()
                    )
                });
                for (buyer, spent) in &want.spent {
                    let got = accounts.get(buyer).copied().unwrap_or(0.0);
                    checks.expect(close(got, *spent), || {
                        format!("{name}: journal buyer {buyer} spent {got}, acknowledged {spent}")
                    });
                }
            }
            Err(e) => checks.expect(false, || format!("{name}: journal does not reopen: {e}")),
        }
    }
}
