//! Persistence for posted markets.
//!
//! A production broker must survive restarts without re-running market
//! research or re-optimizing prices: the posted menu *is* the public
//! contract with buyers. This module round-trips a posted market — the
//! `(a_j, b_j, v_j)` problem plus the optimized prices — through the
//! workspace CSV layer, and re-certifies the menu on load, with the same
//! exact certificate the broker publishes through, so a tampered or
//! corrupted file can never resurrect an exploitable menu.

use crate::{MarketError, Result};
use nimbus_core::arbitrage::{certify_menu, clamp_menu};
use nimbus_core::pricing::PiecewiseLinearPricing;
use nimbus_data::csv::{read_table_from_path, write_table_to_path, NumericTable};
use nimbus_optim::{PricePoint, RevenueProblem};
use std::path::Path;

/// Columns of a posted-market file: the problem's `(a_j, b_j, v_j)` and the
/// posted price `z_j`. A file saved before menus were certified names the
/// last column `price` and holds the DP's unclamped prices; loading one
/// through the DP's clamp may move a price by a relative [`UNCLAMPED_SLACK`]
/// (rounding moves a 4 096-point menu's by about 2·10⁻¹³), an edit further.
const COLUMNS: [&str; 4] = ["a", "b", "v", "z"];
const UNCLAMPED_COLUMNS: [&str; 4] = ["a", "b", "v", "price"];
const UNCLAMPED_SLACK: f64 = 1e-12;

/// A persisted posted market: problem points plus posted prices.
#[derive(Debug, Clone, PartialEq)]
pub struct PostedMarket {
    /// The revenue problem the prices were optimized for.
    pub problem: RevenueProblem,
    /// The posted prices, aligned with `problem.points()`.
    pub prices: Vec<f64>,
}

impl PostedMarket {
    /// Bundles a problem with its posted prices; lengths must match.
    pub fn new(problem: RevenueProblem, prices: Vec<f64>) -> Result<Self> {
        if prices.len() != problem.len() {
            return Err(MarketError::Optim(
                nimbus_optim::OptimError::LengthMismatch {
                    prices: prices.len(),
                    points: problem.len(),
                },
            ));
        }
        Ok(PostedMarket { problem, prices })
    }

    /// The piecewise-linear pricing function of the posted menu.
    pub fn pricing(&self) -> Result<PiecewiseLinearPricing> {
        PiecewiseLinearPricing::new(
            self.problem
                .parameters()
                .into_iter()
                .zip(self.prices.iter().copied())
                .collect(),
        )
        .map_err(Into::into)
    }

    /// Saves the market to a CSV file (columns `a, b, v, z`). A menu
    /// that fails [`certify_menu`] is refused with the error
    /// [`PostedMarket::load`] would return, so every saved file loads.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<()> {
        certify_menu(&self.problem.parameters(), &self.prices).map_err(|_| refused())?;
        write_table_to_path(path, &COLUMNS, &self.rows())?;
        Ok(())
    }

    /// The file's rows: `(a_j, b_j, v_j, z_j)` per price point.
    fn rows(&self) -> Vec<Vec<f64>> {
        self.problem
            .points()
            .iter()
            .zip(&self.prices)
            .map(|(p, &z)| vec![p.a, p.b, p.v, z])
            .collect()
    }

    /// Loads a market from CSV and **re-certifies** it: the problem must be
    /// well formed and the posted prices must pass [`certify_menu`]. A file
    /// with the older `a, b, v, price` columns loads through the DP's own
    /// [`clamp_menu`], giving the menu today's DP posts for its problem.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self> {
        let table = read_table_from_path(path, true)?;
        Self::from_table(&table)
    }

    fn from_table(table: &NumericTable) -> Result<Self> {
        let unclamped = table.columns == UNCLAMPED_COLUMNS;
        if !unclamped && table.columns != COLUMNS {
            return Err(MarketError::InvalidCurve {
                reason: "posted-market CSV must have columns a,b,v,z",
            });
        }
        let mut points = Vec::with_capacity(table.num_rows());
        let mut prices = Vec::with_capacity(table.num_rows());
        for row in &table.rows {
            points.push(PricePoint {
                a: row[0],
                b: row[1],
                v: row[2],
            });
            prices.push(row[3]);
        }
        let problem = RevenueProblem::new(points).map_err(MarketError::Optim)?;
        let mut market = PostedMarket::new(problem, prices)?;
        let knots = market.problem.parameters();
        if unclamped {
            let raw = market.prices.clone();
            clamp_menu(&knots, &mut market.prices);
            let moved = |(z, r): (&f64, &f64)| (z - r).abs() > UNCLAMPED_SLACK * r.abs();
            if market.prices.iter().zip(&raw).any(moved) {
                return Err(refused());
            }
        }
        certify_menu(&knots, &market.prices).map_err(|_| refused())?;
        Ok(market)
    }
}

/// The refusal of a menu that fails [`certify_menu`], on save or load.
fn refused() -> MarketError {
    MarketError::InvalidCurve {
        reason: "persisted menu is not arbitrage-free (corrupted or tampered)",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::{DemandCurve, MarketCurves, ValueCurve};
    use nimbus_optim::solve_revenue_dp;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("nimbus_persist_{name}.csv"))
    }

    fn posted_market() -> PostedMarket {
        let problem = MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform)
            .build_problem(25)
            .unwrap();
        let prices = solve_revenue_dp(&problem).unwrap().prices;
        PostedMarket::new(problem, prices).unwrap()
    }

    #[test]
    fn save_load_roundtrip() {
        let market = posted_market();
        let path = temp_path("roundtrip");
        market.save(&path).unwrap();
        let loaded = PostedMarket::load(&path).unwrap();
        assert_eq!(loaded.problem.len(), market.problem.len());
        for (a, b) in loaded.prices.iter().zip(&market.prices) {
            assert!((a - b).abs() < 1e-9);
        }
        assert_eq!(loaded.problem.parameters(), market.problem.parameters());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn loaded_pricing_matches_original() {
        let market = posted_market();
        let path = temp_path("pricing");
        market.save(&path).unwrap();
        let loaded = PostedMarket::load(&path).unwrap();
        let p0 = market.pricing().unwrap();
        let p1 = loaded.pricing().unwrap();
        for x in [1.0, 17.3, 50.0, 99.0] {
            let x = nimbus_core::InverseNcp::new(x).unwrap();
            use nimbus_core::PricingFunction;
            assert!((p0.price(x) - p1.price(x)).abs() < 1e-9);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tampered_menu_is_rejected() {
        let market = posted_market();
        let path = temp_path("tampered");
        market.save(&path).unwrap();
        // Tamper: bump one mid-menu price way above its neighbors, creating
        // a superadditive kink.
        let content = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = content.lines().map(String::from).collect();
        let mid = lines.len() / 2;
        let mut fields: Vec<String> = lines[mid].split(',').map(String::from).collect();
        let old: f64 = fields[3].parse().unwrap();
        fields[3] = format!("{}", old * 50.0);
        lines[mid] = fields.join(",");
        std::fs::write(&path, lines.join("\n")).unwrap();

        let err = PostedMarket::load(&path);
        assert!(
            matches!(err, Err(MarketError::InvalidCurve { .. })),
            "tampered menu must be rejected, got {err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn one_ulp_over_the_unit_price_bound_is_refused() {
        // Raise the last price to the largest value its predecessor's unit
        // price allows: it loads. One ulp more and it must not, although a
        // pairwise check with any slack passes it.
        let mut market = posted_market();
        let knots = market.problem.parameters();
        let last = market.prices.len() - 1;
        market.prices[last] = f64::MAX;
        clamp_menu(&knots, &mut market.prices);
        let path = temp_path("ulp");
        market.save(&path).unwrap();
        assert_eq!(PostedMarket::load(&path).unwrap(), market);
        // `save` refuses the tampered menu, so write it through the CSV
        // layer as a tampered file would be.
        market.prices[last] = market.prices[last].next_up();
        write_table_to_path(&path, &COLUMNS, &market.rows()).unwrap();
        let err = PostedMarket::load(&path);
        assert!(
            matches!(err, Err(MarketError::InvalidCurve { .. })),
            "{err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_refuses_a_menu_one_ulp_over_its_unit_price_bound() {
        let mut market = posted_market();
        let knots = market.problem.parameters();
        let last = market.prices.len() - 1;
        market.prices[last] = f64::MAX;
        clamp_menu(&knots, &mut market.prices);
        market.prices[last] = market.prices[last].next_up();
        let path = temp_path("save_ulp");
        std::fs::remove_file(&path).ok();
        let err = market.save(&path).unwrap_err();
        assert!(matches!(err, MarketError::InvalidCurve { .. }), "{err:?}");
        assert_eq!(err.to_string(), refused().to_string());
        assert!(!path.exists(), "a refused menu must not be written");
    }

    #[test]
    fn menu_saved_before_certification_loads_as_todays_dp_menu() {
        // Saved by the DP and `save` as they were before menus were
        // certified (columns a,b,v,price): 23 of its 50 prices miss the
        // exact certificate by rounding.
        let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures/posted_market_unclamped.csv");
        let table = read_table_from_path(&fixture, true).unwrap();
        let raw: Vec<f64> = table.rows.iter().map(|row| row[3]).collect();
        let knots: Vec<f64> = table.rows.iter().map(|row| row[0]).collect();
        assert!(certify_menu(&knots, &raw).is_err());

        let loaded = PostedMarket::load(&fixture).unwrap();
        let posted_today = solve_revenue_dp(&loaded.problem).unwrap().prices;
        assert_eq!(loaded.prices, posted_today);
        for (z, r) in loaded.prices.iter().zip(&raw) {
            assert!(z <= r && r - z <= UNCLAMPED_SLACK * r, "{z} vs {r}");
        }

        // An edit beyond rounding is refused, in either format.
        let mut edited = table.clone();
        edited.rows[30][3] *= 1.0 + 1e-9;
        assert!(PostedMarket::from_table(&edited).is_err());
        edited.columns = COLUMNS.iter().map(|c| c.to_string()).collect();
        assert!(PostedMarket::from_table(&edited).is_err());
    }

    #[test]
    fn wrong_columns_are_rejected() {
        let path = temp_path("wrong_cols");
        nimbus_data::csv::write_table_to_path(&path, &["x", "y"], &[vec![1.0, 2.0]]).unwrap();
        assert!(PostedMarket::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn length_mismatch_rejected() {
        let problem = MarketCurves::new(ValueCurve::standard_linear(), DemandCurve::Uniform)
            .build_problem(5)
            .unwrap();
        assert!(PostedMarket::new(problem, vec![1.0; 3]).is_err());
    }
}
