//! Small crossbeam-scoped parallel map shared by curve estimation and the
//! market/experiment layers.
//!
//! Monte-Carlo error-curve estimation, batch purchasing, listing start-up
//! and the figure experiments all fan out independent CPU-bound work items
//! (δ points, purchase requests, listings, dataset × loss configurations)
//! whose costs can differ by an order of magnitude. Workers therefore claim
//! items one at a time from a shared counter, so no core idles while
//! another still holds a queue of expensive items. Each result lands in its
//! own input position, so callers that derive per-item RNG streams get
//! results bitwise-identical to a sequential loop whichever thread ran an
//! item.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every item, fanning out over up to `max_threads` scoped
/// threads (defaults to available parallelism when `None`). Preserves input
/// order in the output.
pub fn parallel_map<T, R, F>(items: Vec<T>, max_threads: Option<usize>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = max_threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
        .clamp(1, n);
    if threads == 1 {
        return items.into_iter().map(f).collect();
    }

    // Worker `t` starts on item `t`, then claims the next unclaimed index
    // from `next`. The counter only hands out indices; the items themselves
    // pass through their cells' mutexes.
    let cells: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(threads);
    let work = |first: usize| {
        let mut done = Vec::new();
        let mut i = first;
        while i < n {
            let item = cells[i]
                .lock()
                .expect("no worker panics while holding a cell")
                .take()
                .expect("each index is claimed once");
            done.push((i, f(item)));
            i = next.fetch_add(1, Ordering::Relaxed);
        }
        done
    };
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    crossbeam::scope(|s| {
        let workers: Vec<_> = (0..threads).map(|t| s.spawn(move |_| work(t))).collect();
        for worker in workers {
            for (i, r) in worker.join().expect("worker threads must not panic") {
                slots[i] = Some(r);
            }
        }
    })
    .expect("worker threads must not panic");
    slots
        .into_iter()
        .map(|s| s.expect("every slot written"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = parallel_map(items, Some(7), |x| x * 2);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn single_thread_path() {
        let out = parallel_map(vec![1, 2, 3], Some(1), |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), None, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let out = parallel_map(vec![5], Some(16), |x| x * x);
        assert_eq!(out, vec![25]);
    }

    #[test]
    fn skewed_costs_give_the_sequential_output() {
        // The first quarter of the items costs ~1000× the rest, as when one
        // half of a listing set trains by Newton steps; a per-item stream
        // derived from the index must come out as a sequential map's.
        let work = |i: u64| {
            let rounds = if i < 16 { 200_000 } else { 200 };
            let mut h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            for _ in 0..rounds {
                h ^= h << 13;
                h ^= h >> 7;
                h ^= h << 17;
            }
            (i, h)
        };
        let items: Vec<u64> = (0..64).collect();
        let sequential: Vec<(u64, u64)> = items.iter().map(|&i| work(i)).collect();
        for threads in [2, 3, 8] {
            assert_eq!(parallel_map(items.clone(), Some(threads), work), sequential);
        }
    }

    #[test]
    fn actually_uses_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let ids = Mutex::new(HashSet::new());
        let items: Vec<usize> = (0..64).collect();
        parallel_map(items, Some(4), |x| {
            ids.lock().unwrap().insert(std::thread::current().id());
            x
        });
        assert!(ids.lock().unwrap().len() > 1, "expected parallel execution");
    }
}
