//! Word and line addresses.

/// Bytes per word: all loads/stores are 8-byte aligned accesses.
pub const WORD_BYTES: u64 = 8;
/// Words per 64-byte cache line.
pub const WORDS_PER_LINE: usize = 8;
/// Bytes per cache line (64, Table 6): the one definition every cache
/// array is sized by and every [`LineAddr`] is numbered in.
pub const LINE_BYTES: u64 = WORD_BYTES * WORDS_PER_LINE as u64;
const _: () = assert!(LINE_BYTES.is_power_of_two());

/// A byte address of a word-aligned memory location.
///
/// # Example
///
/// ```
/// use wb_mem::Addr;
/// let a = Addr::new(0x1008);
/// assert_eq!(a.line().base().0, 0x1000);
/// assert_eq!(a.word_index(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// Create a word address.
    ///
    /// # Panics
    ///
    /// Panics if the address is not 8-byte aligned.
    pub fn new(byte: u64) -> Self {
        assert!(byte.is_multiple_of(WORD_BYTES), "address {byte:#x} is not word aligned");
        Addr(byte)
    }

    /// The cache line containing this word.
    #[inline]
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 / LINE_BYTES)
    }

    /// Index of this word within its cache line (0..8).
    #[inline]
    pub fn word_index(self) -> usize {
        ((self.0 / WORD_BYTES) % WORDS_PER_LINE as u64) as usize
    }
}

wb_kernel::snap_struct!(Addr { 0 });

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A cache-line number (byte address divided by the 64-byte line size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// The byte address of the first word in the line.
    #[inline]
    pub fn base(self) -> Addr {
        Addr(self.0 * LINE_BYTES)
    }

    /// The word address of word `i` in this line.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 8`.
    pub fn word(self, i: usize) -> Addr {
        assert!(i < WORDS_PER_LINE);
        Addr(self.0 * LINE_BYTES + i as u64 * WORD_BYTES)
    }

    /// Which LLC/directory bank this line maps to, for `banks` banks.
    ///
    /// Power-of-two bank counts use plain line interleaving (low line
    /// bits), as in the paper's tiled system. Non-power-of-two counts
    /// would suffer modulo bias under the strided address patterns the
    /// workload generators emit (e.g. one-lock-per-line arrays stride
    /// the line number by 1, per-core private regions by 0x400), so
    /// those first diffuse the line number through a multiplicative
    /// mix and then range-reduce with a widening multiply instead of
    /// `%`.
    #[inline]
    pub fn bank(self, banks: usize) -> usize {
        debug_assert!(banks > 0, "bank count must be positive");
        if banks.is_power_of_two() {
            (self.0 & (banks as u64 - 1)) as usize
        } else {
            let mix = self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
            ((mix as u128 * banks as u128) >> 64) as usize
        }
    }
}

wb_kernel::snap_struct!(LineAddr { 0 });

impl std::fmt::Display for LineAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_kernel::check::prelude::*;

    #[test]
    fn line_and_word_index() {
        let a = Addr::new(64 * 3 + 8 * 5);
        assert_eq!(a.line(), LineAddr(3));
        assert_eq!(a.word_index(), 5);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn unaligned_rejected() {
        let _ = Addr::new(7);
    }

    #[test]
    fn line_base_and_word() {
        let l = LineAddr(2);
        assert_eq!(l.base(), Addr(128));
        assert_eq!(l.word(7), Addr(128 + 56));
    }

    #[test]
    #[should_panic]
    fn word_out_of_range() {
        let _ = LineAddr(0).word(8);
    }

    #[test]
    fn banking_is_modular_for_pow2_counts() {
        // Power-of-two counts keep plain line interleaving: these pins
        // freeze home placement for every 16/64/256-bank topology.
        assert_eq!(LineAddr(17).bank(16), 1);
        assert_eq!(LineAddr(16).bank(16), 0);
        assert_eq!(LineAddr(0x123).bank(64), 0x23);
        assert_eq!(LineAddr(0x1ff).bank(256), 0xff);
    }

    #[test]
    fn banking_spreads_strided_lines_over_non_pow2_counts() {
        // A plain `line % banks` map sends stride-`banks` sequences
        // (lock arrays, per-core private regions) all to one bank. The
        // mixed map must keep every bank's share of such a sequence
        // within 2x of fair for a handful of adversarial strides.
        for banks in [3usize, 6, 12, 24, 48] {
            for stride in [1u64, banks as u64, 2 * banks as u64, 0x400] {
                let mut load = vec![0u32; banks];
                let n = 4096u64;
                for i in 0..n {
                    load[LineAddr(i * stride).bank(banks)] += 1;
                }
                let fair = n as u32 / banks as u32;
                for (b, &c) in load.iter().enumerate() {
                    assert!(
                        c < 2 * fair,
                        "bank {b} of {banks} got {c}/{n} lines at stride {stride:#x} (fair {fair})"
                    );
                }
            }
        }
    }

    wb_proptest! {
        #[test]
        fn word_roundtrip(line in 0u64..1_000_000, idx in 0usize..8) {
            let l = LineAddr(line);
            let a = l.word(idx);
            prop_assert_eq!(a.line(), l);
            prop_assert_eq!(a.word_index(), idx);
        }

        #[test]
        fn same_line_same_bank(line in 0u64..100_000, i in 0usize..8, j in 0usize..8, banks in 1usize..40) {
            let l = LineAddr(line);
            prop_assert_eq!(l.word(i).line().bank(banks), l.word(j).line().bank(banks));
        }

        #[test]
        fn bank_always_in_range(line in 0u64..u64::MAX, banks in 1usize..400) {
            prop_assert!(LineAddr(line).bank(banks) < banks);
        }
    }
}
