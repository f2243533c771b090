//! Deterministic parallel sweep runner.
//!
//! Every simulation in this repo is single-threaded and fully
//! deterministic, so a sweep over (workload, config, seed) cells is
//! embarrassingly parallel: cells share nothing, and the only ordering
//! requirement is that results come back in input order so merged
//! output (tables, litmus histograms, JSON) is byte-identical no matter
//! how many workers ran. The runner is a plain work queue on
//! `std::thread::scope` — no external dependencies.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Run `f` over `items` on exactly `threads` worker threads (clamped to
/// at least 1), returning results in input order. With `threads == 1`
/// the items run inline on the calling thread (the serial baseline the
/// determinism tests compare a multi-threaded run against).
pub fn run_on<T: Send, R: Send>(
    threads: usize,
    items: Vec<T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let work: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let job = work.lock().expect("work queue").pop_front();
                let Some((i, item)) = job else { break };
                let r = f(item);
                results.lock().expect("results").push((i, r));
            });
        }
    });
    let mut out = results.into_inner().expect("results");
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// [`run_on`] with one worker per available hardware thread.
pub fn run<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let n = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4);
    run_on(n, items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_across_thread_counts() {
        let items: Vec<u64> = (0..64).collect();
        let serial = run_on(1, items.clone(), |x| x * x);
        for threads in [2, 4, 7] {
            assert_eq!(run_on(threads, items.clone(), |x| x * x), serial);
        }
    }

    #[test]
    fn single_thread_runs_inline() {
        let tid = std::thread::current().id();
        let seen = run_on(1, vec![(), ()], |()| std::thread::current().id());
        assert!(seen.iter().all(|&t| t == tid));
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = run(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }
}
