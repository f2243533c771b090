//! Synthetic SPLASH-3 / PARSEC 3.0 surrogate workloads.
//!
//! The paper evaluates on SPLASH-3 and PARSEC (simsmall). Those binaries
//! cannot run on this simulator, so each benchmark is replaced by a
//! synthetic kernel that reproduces its *coherence-visible* structure —
//! sharing pattern, invalidation rate, lock/barrier behaviour, miss
//! regime — which is what drives the paper's per-benchmark variation
//! (see DESIGN.md for the substitution rationale).
//!
//! All kernels are parameterized by a [`Scale`] so tests run in
//! milliseconds while benches use larger iteration counts.
//!
//! The crate also owns the racing programs the correctness suites run:
//! [`torture`] (the random recipe, unique store values for the TSO
//! checker) and [`directed`] (the Figure 5 and §3.4 scenarios). A test,
//! example or bench that needs one calls these modules; it does not
//! define its own.
//!
//! # Example
//!
//! ```
//! use wb_workloads::{suite, Scale};
//! let all = suite(4, Scale::Test);
//! assert_eq!(all.len(), 12);
//! assert!(all.iter().any(|w| w.name == "fft"));
//! ```

// Output goes through `wb_kernel::trace` (a `TraceSink`) or a returned
// value, never straight to the terminal: checked by `cargo clippy` in
// `scripts/verify.sh`.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod codegen;
pub mod directed;
pub mod invariants;
pub mod parsec;
pub mod splash;
pub mod torture;

use wb_isa::Workload;

/// Iteration-count preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny runs for unit/integration tests.
    Test,
    /// The default evaluation size for benches (roughly "simsmall" in
    /// spirit: big enough for steady-state behaviour).
    Small,
}

impl Scale {
    /// Multiplier applied to each kernel's base iteration count.
    pub fn factor(self) -> u64 {
        match self {
            Scale::Test => 1,
            Scale::Small => 8,
        }
    }
}

/// A suite kernel: the workload for `cores` cores at a given scale.
type Kernel = fn(usize, Scale) -> Workload;

/// The 12-benchmark suite — six SPLASH-3 surrogates and six PARSEC
/// surrogates, in the order the paper plots them — as `(name, kernel)`.
/// Each kernel names its workload with its entry's name.
pub const SUITE: [(&str, Kernel); 12] = [
    ("fft", splash::fft),
    ("lu", splash::lu),
    ("ocean", splash::ocean),
    ("radix", splash::radix),
    ("barnes", splash::barnes),
    ("raytrace", splash::raytrace),
    ("blackscholes", parsec::blackscholes),
    ("bodytrack", parsec::bodytrack),
    ("canneal", parsec::canneal),
    ("fluidanimate", parsec::fluidanimate),
    ("freqmine", parsec::freqmine),
    ("streamcluster", parsec::streamcluster),
];

/// Every [`SUITE`] kernel generated for `cores` cores, in suite order.
pub fn suite(cores: usize, scale: Scale) -> Vec<Workload> {
    SUITE.iter().map(|(_, kernel)| kernel(cores, scale)).collect()
}

/// Benchmark names, in suite order.
pub fn suite_names() -> Vec<&'static str> {
    SUITE.iter().map(|&(name, _)| name).collect()
}

/// The one [`SUITE`] kernel called `name`, or `None` for an unknown name.
pub fn by_name(name: &str, cores: usize, scale: Scale) -> Option<Workload> {
    SUITE.iter().find(|(n, _)| *n == name).map(|(_, kernel)| kernel(cores, scale))
}

/// `rounds` central barriers and nothing else: the pure serialized
/// fetch-add storm. The longest *legal* per-core stall any kernel
/// produces — the last core through each barrier waits for every other
/// core's fetch-add to serialize through the counter's home bank — so
/// this is the scaling stress for watchdog windows and directory-bank
/// contention, at any core count.
pub fn barrier_storm(cores: usize, rounds: u64) -> Workload {
    let programs = (0..cores)
        .map(|c| {
            let mut g = codegen::Gen::new(c, cores, 1 + c as u64);
            for _ in 0..rounds {
                g.barrier();
            }
            g.p.halt();
            g.p.build()
        })
        .collect();
    Workload::new(format!("barrier-storm-{cores}x{rounds}"), programs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_twelve_named_workloads() {
        let s = suite(4, Scale::Test);
        assert_eq!(s.len(), 12);
        let names: Vec<&str> = s.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, suite_names());
        for (w, name) in s.iter().zip(names) {
            let one = by_name(name, 4, Scale::Test).expect("suite name resolves");
            assert_eq!((&one.name, &one.programs), (&w.name, &w.programs));
        }
        assert!(by_name("nope", 4, Scale::Test).is_none());
    }

    #[test]
    fn all_programs_nonempty() {
        for w in suite(2, Scale::Test) {
            assert_eq!(w.cores(), 2, "{}", w.name);
            for (i, p) in w.programs.iter().enumerate() {
                assert!(p.len() > 4, "{} core {i} program too small", w.name);
            }
        }
    }

    #[test]
    fn scale_grows_iterations() {
        assert!(Scale::Small.factor() > Scale::Test.factor());
    }
}
