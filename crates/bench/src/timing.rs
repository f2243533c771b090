//! A lightweight, dependency-free timing harness: the in-tree
//! replacement for criterion (the workspace builds with an empty cargo
//! registry; see DESIGN.md, "zero external dependencies").
//!
//! Each `[[bench]]` target declares `harness = false` and drives a
//! [`BenchGroup`] from `main`: one warmup iteration, then `sample_size`
//! timed iterations (10 by default), printing the median and mean to
//! stderr. Nothing is written to disk.
//!
//! This module holds the workspace's only host-clock read (the
//! `protocol` microbench uses it); the root `clippy.toml` disallows
//! `Instant::now` / `SystemTime::now` everywhere else, so simulated
//! results cannot come to depend on the host.

use std::hint::black_box;
use std::time::Instant;

/// One measured benchmark: its timed samples.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark id within the group (e.g. `"mesh_1k_messages"`).
    pub name: String,
    /// Wall-clock nanoseconds of each timed iteration.
    pub samples_ns: Vec<u128>,
}

impl BenchResult {
    /// Median of the timed samples, in nanoseconds.
    pub fn median_ns(&self) -> u128 {
        let mut s = self.samples_ns.clone();
        s.sort_unstable();
        s[s.len() / 2]
    }

    /// Arithmetic mean of the timed samples, in nanoseconds.
    pub fn mean_ns(&self) -> u128 {
        self.samples_ns.iter().sum::<u128>() / self.samples_ns.len() as u128
    }
}

/// A named group of benchmarks measured with the same sample count.
#[derive(Debug)]
pub struct BenchGroup {
    group: String,
    sample_size: usize,
}

impl BenchGroup {
    /// A group with the default sample size of 10 (criterion's floor).
    pub fn new(group: &str) -> Self {
        BenchGroup { group: group.to_owned(), sample_size: 10 }
    }

    /// Set the timed-iteration count for subsequent `bench` calls.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Measure `f`: one warmup iteration, then `sample_size` timed ones.
    /// Prints one summary line and returns the samples.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> BenchResult {
        black_box(f());
        let mut samples_ns = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            #[allow(
                clippy::disallowed_methods,
                reason = "the timing harness is the workspace's one host-clock reader"
            )]
            let t0 = Instant::now();
            black_box(f());
            samples_ns.push(t0.elapsed().as_nanos());
        }
        let r = BenchResult { name: name.to_owned(), samples_ns };
        eprintln!(
            "{:<40} median {:>12} ns   mean {:>12} ns   ({} samples)",
            format!("{}/{}", self.group, r.name),
            r.median_ns(),
            r.mean_ns(),
            r.samples_ns.len()
        );
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_means() {
        let r = BenchResult { name: "x".into(), samples_ns: vec![5, 1, 9] };
        assert_eq!(r.median_ns(), 5);
        assert_eq!(r.mean_ns(), 5);
    }

    #[test]
    fn bench_records_requested_samples() {
        let mut g = BenchGroup::new("unit");
        g.sample_size(3);
        let mut calls = 0u32;
        let r = g.bench("count", || calls += 1);
        // one warmup + three timed
        assert_eq!(calls, 4);
        assert_eq!(r.samples_ns.len(), 3);
    }
}
