//! The workspace's one bounded worker pool.
//!
//! Every crate that fans work out over threads — per-function decode,
//! per-block DFG builds, the seed tasks of the lattice search, batch
//! images — already depends on this crate, so the pool lives here and
//! nowhere else.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `work(i)` for every `i in 0..n` on up to `threads` scoped
/// workers and returns the results in index order.
///
/// Workers claim indices from one shared counter in ascending order, so
/// the pool balances itself when items differ in cost, and every result
/// lands in its own slot, so the output never depends on scheduling.
/// With one worker (or at most one item) the map runs in place on the
/// calling thread, in index order. A caller that wants to stop early
/// makes `work` return at once for the indices it no longer needs.
///
/// # Panics
///
/// Re-raises a panic from `work` on the calling thread.
pub fn map<T, F>(n: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return (0..n).map(work).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let worker = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            return;
        }
        let result = work(i);
        *slots[i].lock().expect("pool slot poisoned") = Some(result);
    };
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(worker);
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("pool slot poisoned")
                .expect("every index is claimed once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::map;

    #[test]
    fn results_land_in_index_order_at_any_width() {
        let expected: Vec<usize> = (0..100).map(|i| i * i).collect();
        for threads in [0, 1, 2, 8, 200] {
            assert_eq!(map(100, threads, |i| i * i), expected, "threads={threads}");
        }
        assert!(map(0, 4, |i| i).is_empty());
    }

    #[test]
    fn one_worker_runs_in_place_in_order() {
        let caller = std::thread::current().id();
        let seen = std::sync::Mutex::new(Vec::new());
        map(5, 1, |i| {
            assert_eq!(std::thread::current().id(), caller);
            seen.lock().unwrap().push(i);
        });
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }
}
