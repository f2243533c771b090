//! A lightweight, dependency-free timing harness: the in-tree
//! replacement for criterion (the workspace builds with an empty cargo
//! registry; see DESIGN.md, "zero external dependencies").
//!
//! Each `[[bench]]` target declares `harness = false` and drives a
//! [`BenchGroup`] from `main`: one warmup iteration, then `sample_size`
//! timed iterations, reporting the median. `finish()` prints a
//! fixed-width table and writes `BENCH_<group>.json` next to the
//! working directory (override with `WB_BENCH_DIR`), with per-run
//! simulator counters embedded via [`Stats::to_json`].
//!
//! This module holds the workspace's only host-clock read (the
//! `protocol` microbench uses it); the root `clippy.toml` disallows
//! `Instant::now` / `SystemTime::now` everywhere else, so simulated
//! results cannot come to depend on the host.
//!
//! # Environment knobs
//!
//! | variable           | effect                                    |
//! |--------------------|-------------------------------------------|
//! | `WB_BENCH_SAMPLES` | override every group's sample size        |
//! | `WB_BENCH_DIR`     | directory for the `BENCH_*.json` files    |

use std::hint::black_box;
use std::time::Instant;
use wb_kernel::{json, Stats};

/// One measured benchmark: its samples and optional attached counters.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark id within the group (e.g. `"campaign/MP"`).
    pub name: String,
    /// Wall-clock nanoseconds of each timed iteration.
    pub samples_ns: Vec<u128>,
    /// Simulator counters from the last iteration, when the closure
    /// exposes them (see [`BenchGroup::bench_with_stats`]).
    pub stats: Option<Stats>,
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
    results: Vec<BenchResult>,
}

impl BenchGroup {
    /// A group with the default sample size of 10 (criterion's floor),
    /// unless `WB_BENCH_SAMPLES` overrides it.
    pub fn new(group: &str) -> Self {
        let sample_size = std::env::var("WB_BENCH_SAMPLES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(10);
        BenchGroup { group: group.to_owned(), sample_size, results: Vec::new() }
    }

    /// Set the timed-iteration count for subsequent `bench` calls
    /// (ignored when `WB_BENCH_SAMPLES` is set).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        if std::env::var("WB_BENCH_SAMPLES").is_err() {
            self.sample_size = n.max(1);
        }
        self
    }

    /// Measure `f`: one warmup iteration, then `sample_size` timed ones.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        self.run(name, &mut || {
            black_box(f());
            None
        });
    }

    /// Like [`bench`](Self::bench), for workloads that yield simulator
    /// counters: the last iteration's [`Stats`] are embedded in the JSON
    /// report, tying wall-clock throughput to what was simulated.
    pub fn bench_with_stats(&mut self, name: &str, mut f: impl FnMut() -> Stats) {
        self.run(name, &mut || Some(black_box(f())));
    }

    fn run(&mut self, name: &str, f: &mut dyn FnMut() -> Option<Stats>) {
        let _warmup = f();
        let mut samples_ns = Vec::with_capacity(self.sample_size);
        let mut stats = None;
        for _ in 0..self.sample_size {
            #[allow(
                clippy::disallowed_methods,
                reason = "the timing harness is the workspace's one host-clock reader"
            )]
            let t0 = Instant::now();
            stats = f();
            samples_ns.push(t0.elapsed().as_nanos());
        }
        let r = BenchResult { name: name.to_owned(), samples_ns, stats };
        eprintln!(
            "{:<40} median {:>12} ns   mean {:>12} ns   ({} samples)",
            format!("{}/{}", self.group, r.name),
            r.median_ns(),
            r.mean_ns(),
            r.samples_ns.len()
        );
        self.results.push(r);
    }

    /// Render the group's JSON report (the `BENCH_<group>.json` payload).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{{\"group\":\"{}\",\"benches\":[", json::escape(&self.group)));
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"median_ns\":{},\"mean_ns\":{},\"samples_ns\":[{}]",
                json::escape(&r.name),
                r.median_ns(),
                r.mean_ns(),
                r.samples_ns.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(",")
            ));
            if let Some(s) = &r.stats {
                out.push_str(",\"stats\":");
                out.push_str(&s.to_json());
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Print the summary table and write `BENCH_<group>.json`.
    ///
    /// # Panics
    ///
    /// Panics if the report cannot be written.
    pub fn finish(self) {
        let json = self.to_json();
        let dir = std::env::var("WB_BENCH_DIR").unwrap_or_else(|_| ".".to_owned());
        let path = format!("{dir}/BENCH_{}.json", self.group);
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_means() {
        let r = BenchResult { name: "x".into(), samples_ns: vec![5, 1, 9], stats: None };
        assert_eq!(r.median_ns(), 5);
        assert_eq!(r.mean_ns(), 5);
    }

    #[test]
    fn bench_records_requested_samples() {
        let mut g = BenchGroup::new("unit");
        g.sample_size(3);
        let mut calls = 0u32;
        g.bench("count", || calls += 1);
        // one warmup + three timed
        assert_eq!(calls, 4);
        assert_eq!(g.results[0].samples_ns.len(), 3);
    }

    #[test]
    fn quoted_names_round_trip_through_the_parser() {
        let mut g = BenchGroup::new("unit \"q\"");
        g.sample_size(1);
        g.bench("evil\"name\\", || ());
        let doc = json::parse(&g.to_json()).expect("report must be strict JSON");
        assert_eq!(doc.get("group").and_then(json::Json::as_str), Some("unit \"q\""));
        let bench = &doc.get("benches").and_then(json::Json::as_arr).expect("benches")[0];
        assert_eq!(bench.get("name").and_then(json::Json::as_str), Some("evil\"name\\"));
    }

    #[test]
    fn json_embeds_stats() {
        let mut g = BenchGroup::new("unit");
        g.sample_size(1);
        g.bench_with_stats("with_stats", || {
            let mut s = Stats::new();
            s.add("cycles", 42);
            s
        });
        let json = g.to_json();
        assert!(json.contains("\"group\":\"unit\""), "{json}");
        assert!(json.contains("\"name\":\"with_stats\""), "{json}");
        assert!(json.contains("\"stats\":{\"cycles\":42}"), "{json}");
        assert!(json.contains("\"median_ns\":"), "{json}");
    }
}
