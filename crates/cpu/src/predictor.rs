//! A bimodal branch predictor.
//!
//! Branch targets in the mini-ISA are static, so prediction only decides
//! direction. A table of 2-bit saturating counters is indexed by PC;
//! counters are initialized with a static backward-taken /
//! forward-not-taken bias.

/// Bimodal predictor with 2-bit saturating counters.
#[derive(Debug, Clone)]
pub struct Bimodal {
    counters: Vec<u8>,
}

impl Bimodal {
    /// A predictor with `entries` counters (rounded up to a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "predictor needs at least one entry");
        let n = entries.next_power_of_two();
        Bimodal { counters: vec![u8::MAX; n] } // MAX = "uninitialized"
    }

    fn index(&self, pc: u32) -> usize {
        (pc as usize) & (self.counters.len() - 1)
    }

    /// Predict the direction of the branch at `pc` targeting `target`.
    pub fn predict(&self, pc: u32, target: u32) -> bool {
        match self.counters[self.index(pc)] {
            u8::MAX => target <= pc, // static: backward taken
            c => c >= 2,
        }
    }

    /// Train with the actual outcome.
    pub fn update(&mut self, pc: u32, target: u32, taken: bool) {
        let i = self.index(pc);
        let c = match self.counters[i] {
            u8::MAX => {
                // First resolution: seed from the static bias, then train.
                if target <= pc {
                    2
                } else {
                    1
                }
            }
            c => c,
        };
        self.counters[i] = if taken { (c + 1).min(3) } else { c.saturating_sub(1) };
    }
}

// Not a declaration: the decoder checks the table length is a power of
// two (`index` masks with `len - 1`).
impl wb_kernel::Snap for Bimodal {
    fn snap(&self, w: &mut wb_kernel::SnapWriter) {
        self.counters.snap(w);
    }
    fn unsnap(r: &mut wb_kernel::SnapReader) -> wb_kernel::SnapResult<Self> {
        let counters: Vec<u8> = Vec::unsnap(r)?;
        if !counters.len().is_power_of_two() {
            return Err(wb_kernel::SnapError::new(format!(
                "predictor table length {} is not a power of two",
                counters.len()
            )));
        }
        Ok(Bimodal { counters })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_bias() {
        let p = Bimodal::new(16);
        assert!(p.predict(10, 5), "backward branches predicted taken");
        assert!(!p.predict(10, 20), "forward branches predicted not taken");
    }

    #[test]
    fn trains_toward_taken() {
        let mut p = Bimodal::new(16);
        for _ in 0..4 {
            p.update(10, 20, true);
        }
        assert!(p.predict(10, 20));
    }

    #[test]
    fn trains_toward_not_taken() {
        let mut p = Bimodal::new(16);
        for _ in 0..4 {
            p.update(10, 5, false);
        }
        assert!(!p.predict(10, 5));
    }

    #[test]
    fn hysteresis_requires_two_flips() {
        let mut p = Bimodal::new(16);
        for _ in 0..4 {
            p.update(10, 5, true); // saturate taken
        }
        p.update(10, 5, false); // one not-taken
        assert!(p.predict(10, 5), "2-bit counter keeps predicting taken after one miss");
        p.update(10, 5, false);
        assert!(!p.predict(10, 5));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_entries_panics() {
        let _ = Bimodal::new(0);
    }
}
