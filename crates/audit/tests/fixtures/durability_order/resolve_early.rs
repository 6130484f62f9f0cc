//! A commit path whose success arm resolves the dedup claim with the sale
//! before recording it, while its failure arm resolves (unfulfilled)
//! after the record in source order.

impl Broker {
    fn commit_batch_at(&self, buyer: u64, x: f64, key: u64) -> Result<(), MarketError> {
        self.dedup.claim(key);
        self.accounts.charge(buyer, x)?;
        let journaled = self.journal.append_sales(x);
        match journaled {
            Ok(()) => {
                let sale = self.prepare(x);
                self.dedup.resolve(key, Some(sale));
                self.record_prepared(sale);
                Ok(())
            }
            Err(e) => {
                self.dedup.resolve(key, None);
                self.accounts.refund(buyer, x);
                Err(e.into())
            }
        }
    }
}
