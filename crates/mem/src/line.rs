//! Cache-line data payloads.
//!
//! Data travels through the simulated protocol exactly like in hardware:
//! `Data` messages carry a [`LineData`], stores mutate the owning cache's
//! copy, and loads read whatever the coherence protocol delivered. This is
//! what lets the TSO checker validate real values rather than a timing
//! abstraction.

use crate::addr::WORDS_PER_LINE;

/// The 64 bytes of a cache line, stored as 8 words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LineData {
    words: [u64; WORDS_PER_LINE],
}

impl LineData {
    /// A zero-filled line.
    pub fn new() -> Self {
        LineData::default()
    }

    /// A line with all words set to `v` (handy in tests).
    pub fn splat(v: u64) -> Self {
        LineData { words: [v; WORDS_PER_LINE] }
    }

    /// Read word `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 8`.
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        self.words[i]
    }

    /// Write word `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 8`.
    #[inline]
    pub fn set_word(&mut self, i: usize, v: u64) {
        self.words[i] = v;
    }

    /// View of all 8 words.
    pub fn words(&self) -> &[u64; WORDS_PER_LINE] {
        &self.words
    }
}

wb_kernel::snap_struct!(LineData { words });

impl From<[u64; WORDS_PER_LINE]> for LineData {
    fn from(words: [u64; WORDS_PER_LINE]) -> Self {
        LineData { words }
    }
}

impl std::fmt::Display for LineData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, w) in self.words.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{w:#x}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_by_default() {
        let l = LineData::new();
        for i in 0..WORDS_PER_LINE {
            assert_eq!(l.word(i), 0);
        }
    }

    #[test]
    fn set_and_get() {
        let mut l = LineData::new();
        l.set_word(3, 0xdead);
        assert_eq!(l.word(3), 0xdead);
        assert_eq!(l.word(2), 0);
    }

    #[test]
    fn splat_and_from() {
        let l = LineData::splat(7);
        assert_eq!(l.words(), &[7; 8]);
        let l2 = LineData::from([1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(l2.word(7), 8);
    }

    #[test]
    fn display_nonempty() {
        assert!(!LineData::new().to_string().is_empty());
    }
}
