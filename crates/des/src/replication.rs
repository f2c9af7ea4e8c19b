//! Seeded parallel Monte-Carlo replication.
//!
//! Runs independent replications of a simulation across OS threads with
//! per-replication seeds derived deterministically from a master seed, so
//! results are reproducible regardless of thread scheduling.

/// Derives the seed of replication `index` from `master_seed` via
/// SplitMix64 (distinct, well-mixed streams).
pub fn replication_seed(master_seed: u64, index: u64) -> u64 {
    let mut z = master_seed.wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Runs `replications` copies of `body` (each given its replication index
/// and derived seed) over at most `threads` OS threads, and returns the
/// results in replication order.
///
/// `body` must be deterministic in its `(index, seed)` arguments for the
/// output to be reproducible — the same seeds are handed out regardless
/// of scheduling.
///
/// # Panics
///
/// Panics when `threads == 0` or a worker panics.
pub fn run_parallel<T, F>(replications: usize, master_seed: u64, threads: usize, body: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    assert!(threads > 0, "need at least one worker thread");
    let next = std::sync::atomic::AtomicUsize::new(0);
    let body_ref = &body;

    // Workers pull indices from a shared counter and keep (index, result)
    // pairs locally; results are re-ordered after the join.
    let partials: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(replications.max(1)))
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= replications {
                            break;
                        }
                        local.push((i, body_ref(i, replication_seed(master_seed, i as u64))));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replication worker panicked"))
            .collect()
    });

    let mut results: Vec<Option<T>> = (0..replications).map(|_| None).collect();
    for (i, value) in partials.into_iter().flatten() {
        results[i] = Some(value);
    }
    results
        .into_iter()
        .map(|r| r.expect("every replication index was visited"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_distinct_and_deterministic() {
        let a: Vec<u64> = (0..100).map(|i| replication_seed(42, i)).collect();
        let b: Vec<u64> = (0..100).map(|i| replication_seed(42, i)).collect();
        assert_eq!(a, b);
        let unique: std::collections::HashSet<u64> = a.iter().copied().collect();
        assert_eq!(unique.len(), 100);
        // Different master seed, different streams.
        let c: Vec<u64> = (0..100).map(|i| replication_seed(43, i)).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn parallel_results_in_replication_order() {
        let results = run_parallel(50, 7, 4, |i, seed| (i, seed));
        for (i, (idx, seed)) in results.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*seed, replication_seed(7, i as u64));
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let serial = run_parallel(32, 99, 1, |i, seed| i as u64 ^ seed);
        let parallel = run_parallel(32, 99, 8, |i, seed| i as u64 ^ seed);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn more_threads_than_work_is_fine() {
        let results = run_parallel(3, 1, 16, |i, _| i * 2);
        assert_eq!(results, vec![0, 2, 4]);
        let empty: Vec<u32> = run_parallel(0, 1, 4, |_, _| 0u32);
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        run_parallel(1, 0, 0, |_, _| ());
    }
}
