//! The broker's transaction ledger.
//!
//! Two representations back the broker's accounting:
//!
//! * [`Ledger`] — the classic append-only, sequence-ordered record, used
//!   standalone and as the merged read-side view;
//! * [`LedgerShard`] — one stripe of the broker's sharded write path.
//!   Concurrent sales hash their (globally unique, atomically assigned)
//!   transaction id onto a stripe, so writers contend only 1/N of the time.
//!   [`Ledger::from_shards`] merges stripes back into a sequence-ordered
//!   [`Ledger`] on demand.

/// One completed sale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transaction {
    /// Monotone sequence number assigned by the ledger.
    pub sequence: u64,
    /// Inverse NCP of the version sold.
    pub inverse_ncp: f64,
    /// Price paid.
    pub price: f64,
    /// Expected error quoted at sale time.
    pub expected_error: f64,
}

/// Append-only record of every sale, with revenue accounting.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    transactions: Vec<Transaction>,
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Records a sale, assigning the next sequence number.
    pub fn record(&mut self, inverse_ncp: f64, price: f64, expected_error: f64) -> Transaction {
        let tx = Transaction {
            sequence: self.transactions.len() as u64,
            inverse_ncp,
            price,
            expected_error,
        };
        self.transactions.push(tx);
        tx
    }

    /// All transactions in order.
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// Number of sales.
    pub fn count(&self) -> usize {
        self.transactions.len()
    }

    /// Total revenue across all sales.
    pub fn total_revenue(&self) -> f64 {
        self.transactions.iter().map(|t| t.price).sum()
    }

    /// Average sale price (`None` when no sales yet).
    pub fn average_price(&self) -> Option<f64> {
        if self.transactions.is_empty() {
            None
        } else {
            Some(self.total_revenue() / self.transactions.len() as f64)
        }
    }

    /// Merges striped shards into one ledger ordered by global transaction
    /// id — i.e. replay order equals commit order, regardless of how the
    /// broker's concurrent writers interleaved onto stripes (a stripe's
    /// local order is arrival order, which under contention is *not* id
    /// order even within the stripe). Sequence numbers come pre-assigned
    /// by the broker's atomic counter and are globally unique, so the
    /// merge is a sort on them, not a renumbering; `sort_unstable` is safe
    /// because no two transactions share an id.
    pub fn from_shards<'a>(shards: impl IntoIterator<Item = &'a LedgerShard>) -> Self {
        let mut transactions: Vec<Transaction> = shards
            .into_iter()
            .flat_map(|s| s.transactions().iter().copied())
            .collect();
        transactions.sort_unstable_by_key(|t| t.sequence);
        Ledger { transactions }
    }
}

/// One stripe of the broker's sharded ledger.
///
/// Unlike [`Ledger`], a shard does not assign sequence numbers: the broker
/// hands each sale a globally unique transaction id from an atomic counter
/// and records it on the stripe `id % N`. That keeps ids unique and totals
/// exact under any thread interleaving, while writers only contend with the
/// ~1/N of sales that hash to the same stripe.
#[derive(Debug, Clone, Default)]
pub struct LedgerShard {
    transactions: Vec<Transaction>,
}

impl LedgerShard {
    /// Creates an empty stripe.
    pub fn new() -> Self {
        LedgerShard::default()
    }

    /// Records a sale under its broker-assigned sequence number.
    pub fn record_assigned(&mut self, transaction: Transaction) {
        self.transactions.push(transaction);
    }

    /// Transactions on this stripe, in local arrival order.
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// Number of sales on this stripe.
    pub fn count(&self) -> usize {
        self.transactions.len()
    }

    /// Revenue collected on this stripe.
    pub fn total_revenue(&self) -> f64 {
        self.transactions.iter().map(|t| t.price).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(sequence: u64, inverse_ncp: f64, price: f64, expected_error: f64) -> Transaction {
        Transaction {
            sequence,
            inverse_ncp,
            price,
            expected_error,
        }
    }

    #[test]
    fn records_in_sequence() {
        let mut l = Ledger::new();
        let t0 = l.record(10.0, 5.0, 0.1);
        let t1 = l.record(20.0, 8.0, 0.05);
        assert_eq!(t0.sequence, 0);
        assert_eq!(t1.sequence, 1);
        assert_eq!(l.count(), 2);
        assert_eq!(l.transactions()[1].price, 8.0);
    }

    #[test]
    fn shards_merge_in_sequence_order() {
        let mut a = LedgerShard::new();
        let mut b = LedgerShard::new();
        // Interleaved ids landing on two stripes, recorded out of order.
        b.record_assigned(tx(1, 20.0, 8.0, 0.05));
        a.record_assigned(tx(2, 30.0, 9.0, 0.03));
        a.record_assigned(tx(0, 10.0, 5.0, 0.1));
        let merged = Ledger::from_shards([&a, &b]);
        let seqs: Vec<u64> = merged.transactions().iter().map(|t| t.sequence).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(merged.count(), 3);
        assert!((merged.total_revenue() - 22.0).abs() < 1e-12);
        assert!((a.total_revenue() + b.total_revenue() - 22.0).abs() < 1e-12);
        assert_eq!(a.count() + b.count(), 3);
    }

    #[test]
    fn replay_order_equals_commit_order() {
        // Commit order is transaction-id order. Scatter ids over stripes
        // with deliberately shuffled arrival order — within stripes too,
        // as happens when two commits on one stripe race — and assert the
        // merged ledger replays exactly in id order.
        let n_shards = 4;
        let mut shards: Vec<LedgerShard> = (0..n_shards).map(|_| LedgerShard::new()).collect();
        let ids: Vec<u64> = vec![7, 0, 13, 2, 9, 4, 15, 6, 1, 8, 3, 10, 5, 12, 11, 14];
        for &id in &ids {
            shards[(id % n_shards as u64) as usize].record_assigned(tx(id, id as f64, 1.0, 0.1));
        }
        // Stripe 1 received 13 before 9 before 1 — arrival order is not
        // id order inside the stripe.
        let stripe1: Vec<u64> = shards[1]
            .transactions()
            .iter()
            .map(|t| t.sequence)
            .collect();
        assert_eq!(stripe1, vec![13, 9, 1, 5]);
        let merged = Ledger::from_shards(shards.iter());
        let seqs: Vec<u64> = merged.transactions().iter().map(|t| t.sequence).collect();
        assert_eq!(seqs, (0..16).collect::<Vec<u64>>());
        for t in merged.transactions() {
            assert_eq!(t.inverse_ncp, t.sequence as f64);
        }
    }

    #[test]
    fn revenue_accounting() {
        let mut l = Ledger::new();
        assert_eq!(l.total_revenue(), 0.0);
        assert!(l.average_price().is_none());
        l.record(1.0, 3.0, 1.0);
        l.record(2.0, 7.0, 0.5);
        assert_eq!(l.total_revenue(), 10.0);
        assert_eq!(l.average_price(), Some(5.0));
    }
}
