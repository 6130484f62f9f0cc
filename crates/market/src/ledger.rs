//! The broker's transaction ledger: every sale, in transaction-id order.

/// One completed sale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transaction {
    /// Transaction id, handed out by the broker's monotone counter; also
    /// the label of the sale's private RNG stream.
    pub sequence: u64,
    /// Inverse NCP of the version sold.
    pub inverse_ncp: f64,
    /// Price paid.
    pub price: f64,
    /// Expected error quoted at sale time.
    pub expected_error: f64,
}

/// Record of every sale, kept in transaction-id order, with revenue
/// accounting.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    transactions: Vec<Transaction>,
}

impl Ledger {
    /// A ledger holding `transactions`, whose ids must be unique and
    /// ascending.
    pub(crate) fn from_sorted(transactions: Vec<Transaction>) -> Self {
        debug_assert!(transactions.is_sorted_by(|a, b| a.sequence < b.sequence));
        Ledger { transactions }
    }

    /// Records a sale under its broker-assigned id, at its place in id
    /// order. The broker's counter hands out each id once, so the slot is
    /// always vacant.
    pub(crate) fn record_assigned(&mut self, transaction: Transaction) {
        if let Some(at) = slot_for(&self.transactions, transaction.sequence) {
            self.transactions.insert(at, transaction);
        }
    }

    /// The sale with transaction id `sequence`. Ids are unique and
    /// ascending, so id `s` sits at index `s − g`, `g` the ids below `s`
    /// that no row holds (drawn by a commit that then failed); `g` is at
    /// most the ledger's gap count, so a binary search of that window finds
    /// the row, in one probe when no id was lost.
    pub(crate) fn get(&self, sequence: u64) -> Option<&Transaction> {
        let last = self.transactions.len().checked_sub(1)?;
        let gaps = self
            .transactions
            .get(last)?
            .sequence
            .saturating_sub(last as u64);
        let lo = usize::try_from(sequence.saturating_sub(gaps)).ok()?;
        let hi = usize::try_from(sequence).ok()?.min(last);
        let window = self.transactions.get(lo..=hi)?;
        let at = window
            .binary_search_by_key(&sequence, |t| t.sequence)
            .ok()?;
        window.get(at)
    }

    /// All transactions in id order.
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// Number of sales.
    pub fn count(&self) -> usize {
        self.transactions.len()
    }

    /// Total revenue, folded in id order from `+0.0` (std's `Sum` starts
    /// at `-0.0`), so it is a pure function of the set of sales and an
    /// empty ledger reports plain zero.
    pub fn total_revenue(&self) -> f64 {
        self.transactions.iter().fold(0.0, |acc, t| acc + t.price)
    }
}

/// Where a row with transaction id `id` goes in `rows`, whose ids are
/// unique and ascending, or `None` when a row already holds `id`.
pub(crate) fn slot_for(rows: &[Transaction], id: u64) -> Option<usize> {
    rows.binary_search_by_key(&id, |t| t.sequence).err()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(sequence: u64, price: f64) -> Transaction {
        Transaction {
            sequence,
            inverse_ncp: sequence as f64,
            price,
            expected_error: 0.1,
        }
    }

    #[test]
    fn records_in_sequence() {
        let mut l = Ledger::default();
        l.record_assigned(tx(0, 5.0));
        l.record_assigned(tx(1, 8.0));
        assert_eq!(l.count(), 2);
        assert_eq!(l.transactions()[1].price, 8.0);
        assert_eq!(l.get(0).map(|t| t.price), Some(5.0));
        assert!(l.get(2).is_none());
    }

    #[test]
    fn replay_order_equals_commit_order() {
        // Commits finish out of id order when two of them race, so rows
        // arrive shuffled; the ledger still holds them in id order.
        let mut l = Ledger::default();
        for id in [7, 0, 13, 2, 9, 4, 15, 6, 1, 8, 3, 10, 5, 12, 11, 14] {
            l.record_assigned(tx(id, 1.0));
        }
        let ids: Vec<u64> = l.transactions().iter().map(|t| t.sequence).collect();
        assert_eq!(ids, (0..16).collect::<Vec<u64>>());
        assert_eq!(l.count(), 16);
        for id in 0..16 {
            assert_eq!(l.get(id).map(|t| t.sequence), Some(id));
        }
        assert!(l.get(16).is_none());
    }

    #[test]
    fn finds_rows_around_lost_ids() {
        // Ids 3, 4 and 9 were drawn by commits that failed.
        let ids = [0, 1, 2, 5, 6, 7, 8, 10, 11];
        let mut l = Ledger::default();
        for id in ids {
            l.record_assigned(tx(id, 1.0));
        }
        for id in 0..14 {
            let found = l.get(id).map(|t| t.sequence);
            assert_eq!(found, ids.contains(&id).then_some(id), "id {id}");
        }
        assert!(Ledger::default().get(0).is_none());
    }

    #[test]
    fn revenue_accounting() {
        let mut l = Ledger::default();
        assert_eq!(l.total_revenue().to_bits(), 0);
        // (0.1 + 0.2) + 0.3 and 0.1 + (0.2 + 0.3) differ in the last bit:
        // arrival order must not pick the association.
        let mut shuffled = Ledger::default();
        for (id, price) in [(0, 0.1), (1, 0.2), (2, 0.3)] {
            l.record_assigned(tx(id, price));
        }
        for (id, price) in [(2, 0.3), (0, 0.1), (1, 0.2)] {
            shuffled.record_assigned(tx(id, price));
        }
        assert_eq!(
            l.total_revenue().to_bits(),
            ((0.1 + 0.2) + 0.3f64).to_bits()
        );
        assert_eq!(
            l.total_revenue().to_bits(),
            shuffled.total_revenue().to_bits()
        );
    }
}
