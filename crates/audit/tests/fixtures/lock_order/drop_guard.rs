//! A bare `drop(guard)` is the prelude's `std::mem::drop`: it must not
//! resolve to the `fn drop` of a local `impl Drop` that takes the same
//! lock, which would report a self-deadlock at every release. A named
//! helper that re-locks while the guard is live is a real self-deadlock.

struct Queue {
    shared: Mutex<Vec<u64>>,
}

struct Ticket<'a> {
    queue: &'a Queue,
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        self.queue.shared.lock().unwrap().pop();
    }
}

impl Queue {
    fn lock_shared(&self) -> MutexGuard<'_, Vec<u64>> {
        self.shared.lock().unwrap()
    }

    fn queued(&self) -> usize {
        self.shared.lock().unwrap().len()
    }

    fn push_then_count(&self, x: u64) -> usize {
        let mut shared = self.lock_shared();
        shared.push(x);
        drop(shared);
        self.queued()
    }

    fn push_while_counting(&self, x: u64) -> usize {
        let mut shared = self.lock_shared();
        shared.push(x);
        let n = self.queued();
        drop(shared);
        n
    }
}
