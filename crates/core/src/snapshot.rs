//! Snapshot / restore of the complete mutable simulation state.

use crate::spec;
use crate::system::System;
use wb_kernel::{ActivitySched, NodeId};

impl System {
    /// Layout version of the `System` payload inside the WBSNAP frame.
    /// Bump whenever any component's wire layout changes.
    const SNAP_LAYOUT: u16 = 10;

    /// The activity wheel a sparse engine *would* hold at this instant,
    /// recomputed from component state alone. Stored in every snapshot:
    /// being a pure function of component state it is byte-identical
    /// across engine modes (a sleeping unit's cached wake equals a
    /// fresh recompute — temporal stability), keeping whole snapshots
    /// engine-independent while letting a sparse restore resume without
    /// a wake-all thundering herd.
    fn canonical_sched(&self) -> ActivitySched {
        let now = self.now;
        let n = self.cores.len();
        let nb = self.dirs.len();
        let mut table = ActivitySched::new(n + nb + 1 + n);
        table.advance_to(now);
        for i in 0..n {
            table.set(i, self.pair_next_event(i, now));
        }
        for b in 0..nb {
            table.set(n + b, self.dirs[b].next_event(now));
        }
        table.set(n + nb, self.mesh.next_internal_event(now));
        for i in 0..n {
            // Pending arrivals (including blocked ones) get a drain at
            // `now`; a spurious drain visit releases nothing and is
            // harmless.
            let due = self.mesh.has_arrivals_at(NodeId(i as u16));
            table.set(self.unit_drain(i), due.then_some(now));
        }
        table
    }

    /// Configuration fingerprint stored in every snapshot and compared
    /// on restore: the reproducer without the run's engine and budget,
    /// so a snapshot only restores into a system built from the same
    /// workload and configuration. Reports are byte-identical across
    /// engines, so cross-engine restore is legal (and tested).
    fn snap_fingerprint(&self) -> String {
        spec::describe(&self.cfg, &self.workload_name, self.workload_cores, None)
    }

    /// Serialize the complete mutable simulation state into a framed
    /// binary snapshot. `restore(snapshot(S))` followed by `run` is
    /// byte-identical (reports, timelines, outcomes) to running `S`
    /// straight through, in every engine mode. Tracers, trace sinks and
    /// the line-trace filter are debug surface and are not captured.
    /// Written by hand, not declared: [`System::restore`] validates the
    /// header, fingerprint and component counts between the fields.
    pub fn snapshot(&self) -> Vec<u8> {
        use wb_kernel::Snap;
        wb_kernel::snap::snapshot(|w| {
            w.u16(Self::SNAP_LAYOUT);
            w.str(&self.snap_fingerprint());
            w.u64(self.now);
            self.mesh.snap(w);
            w.usize(self.cores.len());
            for c in &self.cores {
                c.snap(w);
            }
            w.usize(self.caches.len());
            for c in &self.caches {
                c.snap(w);
            }
            w.usize(self.dirs.len());
            for d in &self.dirs {
                d.snap(w);
            }
            self.timeline.snap(w);
            w.u64(self.skipped_cycles);
            w.u64(self.skip_windows);
            w.u64(self.audit_every);
            self.next_audit_at.snap(w);
            w.u64(self.audit_runs);
            w.u64(self.audit_violations);
            match &self.soft {
                Some(eng) => {
                    w.bool(true);
                    eng.snap(w);
                }
                None => w.bool(false),
            }
            // The canonical activity-wheel table. Recomputed
            // fresh from component state (never the live wheel), so the
            // bytes are engine-independent and `snapshot` stays `&self`.
            self.canonical_sched().snap(w);
        })
    }

    /// Restore state captured by [`System::snapshot`] into this system.
    /// The receiver must have been built from the same workload and
    /// configuration; structural mismatches are rejected, not patched.
    ///
    /// # Errors
    ///
    /// Fails on truncated or corrupt input, a layout-version mismatch,
    /// or a configuration fingerprint that differs from this system's.
    pub fn restore(&mut self, bytes: &[u8]) -> wb_kernel::SnapResult<()> {
        use wb_kernel::Snap;
        let mut r = wb_kernel::snap::open(bytes)?;
        let layout = r.u16()?;
        if layout != Self::SNAP_LAYOUT {
            return Err(wb_kernel::SnapError::new(format!(
                "snapshot layout {layout} unsupported (this build reads {})",
                Self::SNAP_LAYOUT
            )));
        }
        let fp = r.str()?;
        let ours = self.snap_fingerprint();
        if fp != ours {
            return Err(wb_kernel::SnapError::new(format!(
                "snapshot was taken under a different configuration:\n  theirs: {fp}\n  ours:   {ours}"
            )));
        }
        self.now = r.u64()?;
        self.mesh.restore(&mut r)?;
        let n = r.usize()?;
        if n != self.cores.len() {
            return Err(wb_kernel::SnapError::new(format!(
                "snapshot has {n} cores, system has {}",
                self.cores.len()
            )));
        }
        for c in &mut self.cores {
            c.restore(&mut r)?;
        }
        let n = r.usize()?;
        if n != self.caches.len() {
            return Err(wb_kernel::SnapError::new(format!(
                "snapshot has {n} caches, system has {}",
                self.caches.len()
            )));
        }
        for c in &mut self.caches {
            c.restore(&mut r)?;
        }
        let n = r.usize()?;
        if n != self.dirs.len() {
            return Err(wb_kernel::SnapError::new(format!(
                "snapshot has {n} directory banks, system has {}",
                self.dirs.len()
            )));
        }
        for d in &mut self.dirs {
            d.restore(&mut r)?;
        }
        self.timeline = Option::unsnap(&mut r)?;
        self.skipped_cycles = r.u64()?;
        self.skip_windows = r.u64()?;
        self.audit_every = r.u64()?;
        self.next_audit_at = Option::unsnap(&mut r)?;
        self.audit_runs = r.u64()?;
        self.audit_violations = r.u64()?;
        if r.bool()? {
            // Fingerprint equality guarantees both sides carry a plan.
            let eng = self.soft.as_mut().ok_or_else(|| {
                wb_kernel::SnapError::new("snapshot carries a soft engine, system has none")
            })?;
            eng.restore(&mut r)?;
        }
        let table = ActivitySched::unsnap(&mut r)?;
        let n = self.cores.len();
        let expected = n + self.dirs.len() + 1 + n;
        if table.units() != expected {
            return Err(wb_kernel::SnapError::new(format!(
                "snapshot wake table has {} units, system has {expected}",
                table.units()
            )));
        }
        // The canonical table is exactly what the sparse engines need:
        // fresh per-unit recomputes as of the snapshot cycle. Dense
        // keeps its zero-unit wheel.
        if self.cfg.engine.is_sparse() {
            self.sched = table;
        }
        r.finish()
    }
}
