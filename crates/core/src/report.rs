//! Run-level statistics report.

use wb_kernel::{Cycle, HotEntry, Stats};

/// Aggregated counters of one simulation run, with helpers for the
/// metrics the paper's figures plot.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Workload name.
    pub name: String,
    /// Total execution time in cycles.
    pub cycles: Cycle,
    /// Merged counters from cores, caches, directory banks and the mesh.
    pub stats: Stats,
    /// Cycles the sparse engine jumped over instead of ticking (0 in
    /// dense mode). Carried *outside* [`Report::stats`] deliberately: the
    /// merged stats must stay byte-identical across engine modes (the
    /// engine-equivalence contract), while these two are engine
    /// diagnostics that differ by construction. Bench emitters publish
    /// them as `engine_skipped_cycles`/`engine_skip_windows`.
    pub skipped_cycles: u64,
    /// Quiescent windows the engine jumped over (see
    /// [`Report::skipped_cycles`]).
    pub skip_windows: u64,
    /// Hot-lines leaderboard: top contended cache lines by attributed
    /// stall cycles (WritersBlock windows, Nack-retry requeues,
    /// blocked-write stalls, lockdown holds), merged across every
    /// directory bank and private cache. `key` is the line number;
    /// estimates carry the space-saving error bound (see
    /// [`wb_kernel::attr`]).
    pub hot_lines: Vec<HotEntry>,
    /// Top directory banks by the same attributed weight; `key` is the
    /// global bank index.
    pub hot_banks: Vec<HotEntry>,
}

impl Report {
    /// An empty report for `name` at `cycles`.
    pub fn new(name: &str, cycles: Cycle) -> Self {
        Report { name: name.to_owned(), cycles, stats: Stats::new(), ..Report::default() }
    }

    /// Committed instructions per cycle, across all cores.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.stats.get("core_dispatched") as f64 / self.cycles as f64
    }

    /// Figure 8 (top): write transactions blocked in WritersBlock per
    /// thousand committed stores.
    pub fn blocked_writes_per_kilostore(&self) -> f64 {
        let stores = self.stats.get("core_stores_committed") + self.stats.get("core_amos_committed");
        if stores == 0 {
            return 0.0;
        }
        self.stats.get("dir_writes_blocked") as f64 * 1000.0 / stores as f64
    }

    /// Figure 8 (bottom): uncacheable tear-off data responses per
    /// thousand committed loads.
    pub fn uncacheable_reads_per_kiloload(&self) -> f64 {
        let loads = self.stats.get("core_loads_committed");
        if loads == 0 {
            return 0.0;
        }
        self.stats.get("dir_tearoff_replies") as f64 * 1000.0 / loads as f64
    }

    /// Figure 9 (bottom): total network traffic in flits.
    pub fn network_flits(&self) -> u64 {
        self.stats.get("mesh_flits")
    }

    /// Figure 10 (top): stall-cycle fractions `(rob, lq, sq)` relative to
    /// total core cycles.
    pub fn stall_fractions(&self) -> (f64, f64, f64) {
        let cycles = self.stats.get("core_cycles").max(1) as f64;
        (
            self.stats.get("core_stall_rob") as f64 / cycles,
            self.stats.get("core_stall_lq") as f64 / cycles,
            self.stats.get("core_stall_sq") as f64 / cycles,
        )
    }

    /// Loads committed out of order while M-speculative (the relaxed
    /// commits only WritersBlock enables).
    pub fn ooo_load_commits(&self) -> u64 {
        self.stats.get("core_loads_ooo_committed")
    }

    /// Squashes triggered by invalidations (zero under WritersBlock by
    /// construction, except for loads past atomics).
    pub fn inval_squashes(&self) -> u64 {
        self.stats.get("core_squash_inval")
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "=== {} : {} cycles ===", self.name, self.cycles)?;
        writeln!(f, "ipc                     {:>10.3}", self.ipc())?;
        writeln!(f, "blocked writes /kstore  {:>10.3}", self.blocked_writes_per_kilostore())?;
        writeln!(f, "tear-off reads /kload   {:>10.3}", self.uncacheable_reads_per_kiloload())?;
        writeln!(f, "network flits           {:>10}", self.network_flits())?;
        let (rob, lq, sq) = self.stall_fractions();
        writeln!(f, "stall rob/lq/sq         {rob:>9.1}% {lq:>9.1}% {sq:>9.1}%", rob = rob * 100.0, lq = lq * 100.0, sq = sq * 100.0)?;
        if self.skip_windows > 0 {
            writeln!(
                f,
                "engine skipped          {:>10} cycles in {} windows",
                self.skipped_cycles, self.skip_windows
            )?;
        }
        if !self.hot_lines.is_empty() {
            writeln!(f, "hot lines (attributed stall cycles, ±err):")?;
            for e in self.hot_lines.iter().take(8) {
                writeln!(f, "  line {:#8x}  {:>10} (±{})", e.key, e.count, e.err)?;
            }
        }
        if self.hot_banks.len() > 1 {
            writeln!(f, "hot directory banks:")?;
            for e in self.hot_banks.iter().take(4) {
                writeln!(f, "  bank {:>4}  {:>10}", e.key, e.count)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_from_counters() {
        let mut r = Report::new("t", 100);
        r.stats.add("core_stores_committed", 2000);
        r.stats.add("dir_writes_blocked", 1);
        r.stats.add("core_loads_committed", 1000);
        r.stats.add("dir_tearoff_replies", 2);
        r.stats.add("mesh_flits", 55);
        r.stats.add("core_cycles", 200);
        r.stats.add("core_stall_rob", 50);
        assert!((r.blocked_writes_per_kilostore() - 0.5).abs() < 1e-9);
        assert!((r.uncacheable_reads_per_kiloload() - 2.0).abs() < 1e-9);
        assert_eq!(r.network_flits(), 55);
        let (rob, _, _) = r.stall_fractions();
        assert!((rob - 0.25).abs() < 1e-9);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let r = Report::new("empty", 0);
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.blocked_writes_per_kilostore(), 0.0);
        assert_eq!(r.uncacheable_reads_per_kiloload(), 0.0);
    }

    #[test]
    fn display_contains_name() {
        let r = Report::new("fft", 10);
        assert!(r.to_string().contains("fft"));
    }
}
