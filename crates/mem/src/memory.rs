//! Backing main memory.
//!
//! A sparse map from line address to [`LineData`]. Untouched memory reads
//! as zero, like a freshly mapped page.

use crate::addr::{Addr, LineAddr};
use crate::line::LineData;
use std::collections::HashMap;

/// Sparse main memory, the home of every line not cached anywhere.
///
/// # Example
///
/// ```
/// use wb_mem::{Addr, MainMemory};
/// let mut m = MainMemory::new();
/// m.write_word(Addr::new(0x40), 9);
/// assert_eq!(m.read_word(Addr::new(0x40)), 9);
/// assert_eq!(m.read_word(Addr::new(0x48)), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MainMemory {
    lines: HashMap<LineAddr, LineData>,
}

impl MainMemory {
    /// Empty (all-zero) memory.
    pub fn new() -> Self {
        MainMemory::default()
    }

    /// Read a whole line (zero if never written).
    pub fn read_line(&self, line: LineAddr) -> LineData {
        self.lines.get(&line).copied().unwrap_or_default()
    }

    /// Overwrite a whole line (e.g. a dirty writeback).
    pub fn write_line(&mut self, line: LineAddr, data: LineData) {
        self.lines.insert(line, data);
    }

    /// Read one word.
    pub fn read_word(&self, addr: Addr) -> u64 {
        self.read_line(addr.line()).word(addr.word_index())
    }

    /// Write one word (read-modify-write of the containing line).
    pub fn write_word(&mut self, addr: Addr, value: u64) {
        let entry = self.lines.entry(addr.line()).or_default();
        entry.set_word(addr.word_index(), value);
    }
}

wb_kernel::snap_struct!(MainMemory { lines });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_default_to_zero() {
        let m = MainMemory::new();
        assert_eq!(m.read_word(Addr::new(0)), 0);
        assert_eq!(m.read_line(LineAddr(99)), LineData::new());
    }

    #[test]
    fn word_write_preserves_neighbours() {
        let mut m = MainMemory::new();
        m.write_word(Addr::new(0x100), 1);
        m.write_word(Addr::new(0x108), 2);
        assert_eq!(m.read_word(Addr::new(0x100)), 1);
        assert_eq!(m.read_word(Addr::new(0x108)), 2);
    }

    #[test]
    fn line_write_replaces_all() {
        let mut m = MainMemory::new();
        m.write_word(Addr::new(0x40), 5);
        m.write_line(LineAddr(1), LineData::splat(7));
        assert_eq!(m.read_word(Addr::new(0x40)), 7);
    }
}
