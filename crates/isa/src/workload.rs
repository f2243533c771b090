//! A multi-core workload: one program per core plus initial memory.

use crate::program::Program;
use wb_mem::Addr;

/// Programs for every core plus initial memory contents and a name used in
/// reports.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    /// Human-readable name ("fft", "mp_table1", ...).
    pub name: String,
    /// One program per core. Cores beyond `programs.len()` idle.
    pub programs: Vec<Program>,
    /// Initial `(address, value)` pairs written to memory before cycle 0.
    pub init_mem: Vec<(Addr, u64)>,
}

impl Workload {
    /// A named workload with the given per-core programs.
    pub fn new(name: impl Into<String>, programs: Vec<Program>) -> Self {
        Workload { name: name.into(), programs, init_mem: Vec::new() }
    }

    /// Builder-style: add an initial memory word.
    pub fn with_init(mut self, addr: Addr, value: u64) -> Self {
        self.init_mem.push((addr, value));
        self
    }

    /// Number of participating cores.
    pub fn cores(&self) -> usize {
        self.programs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;

    #[test]
    fn construction() {
        let w = Workload::new("t", vec![Program::from_insts(vec![Inst::Halt]); 2])
            .with_init(Addr::new(0x40), 1);
        assert_eq!(w.cores(), 2);
        assert_eq!(w.init_mem.len(), 1);
        assert_eq!(w.name, "t");
    }
}
