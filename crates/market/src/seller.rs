//! The seller agent.
//!
//! The seller owns a commercially valuable dataset `D = (D_train, D_test)`
//! and, via market research, the value/demand curves for models trained on
//! it (Figure 1(A)). Listing with a broker hands over both. The broker
//! trains `h*` on `D` once and then drops it: serving needs `h*`, the
//! curves and the books, never the data. What it keeps of the seller is
//! the [`SellerTerms`].

use crate::curves::MarketCurves;
use nimbus_data::TrainTest;

/// A seller listing a dataset for model-based sale.
#[derive(Debug, Clone)]
pub struct Seller {
    /// The dataset on offer, dropped by the broker once `h*` is trained.
    pub(crate) dataset: TrainTest,
    /// What the broker keeps for the listing's lifetime.
    pub(crate) terms: SellerTerms,
}

/// What a broker keeps of its [`Seller`]: the name and the market
/// research. It has no dataset field.
#[derive(Debug, Clone)]
pub struct SellerTerms {
    /// Display name of the seller.
    pub name: String,
    /// The market research curves.
    pub curves: MarketCurves,
}

impl Seller {
    /// Creates a seller from a dataset and market-research curves.
    pub fn new(name: impl Into<String>, dataset: TrainTest, curves: MarketCurves) -> Self {
        Seller {
            dataset,
            terms: SellerTerms {
                name: name.into(),
                curves,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::{DemandCurve, ValueCurve};
    use nimbus_data::catalog::{DatasetSpec, PaperDataset};

    #[test]
    fn seller_exposes_listing() {
        let (tt, _) = DatasetSpec::scaled(PaperDataset::Casp, 200)
            .materialize(3)
            .unwrap();
        let curves = MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform);
        let seller = Seller::new("uci-proteins", tt, curves);
        assert_eq!(seller.terms.name, "uci-proteins");
        assert!(!seller.dataset.train.is_empty());
        assert!(!seller.dataset.test.is_empty());
        assert_eq!(seller.terms.curves.value.name(), "concave");
    }
}
