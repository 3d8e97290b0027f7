//! The selector (chooser) table arbitrating between component predictors.

use crate::counter::Outcome;
use crate::VirtAddr;

/// Which component predictor the selector chose for a branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Choice {
    /// The 1-level bimodal predictor.
    Bimodal,
    /// The 2-level gshare predictor.
    Gshare,
}

/// Selector table: one 3-bit confidence counter per entry, indexed by the
/// branch address, identifying "which predictor is likely to perform better
/// for a particular branch based on the previous behavior of the predictors"
/// (paper §2).
///
/// Levels 0–3 choose the bimodal predictor, levels 4–7 choose gshare. New
/// entries start at 0 (strongly bimodal), which models the paper's §5.1
/// observation that branches without accumulated history are predicted by
/// the 1-level predictor; the paper's Fig. 2 shows the hand-over to the
/// 2-level predictor takes several pattern repetitions, i.e. the selection
/// hysteresis is deeper than a 2-bit chooser.
///
/// ```
/// use bscope_bpu::{Outcome, SelectorTable};
///
/// let mut sel = SelectorTable::new(4096);
/// assert!(!sel.prefers_gshare(0x30_0000)); // new branches: 1-level mode
/// // gshare beats bimodal four times in a row: selector migrates.
/// for _ in 0..4 {
///     sel.train(0x30_0000, /*bimodal_correct=*/ false, /*gshare_correct=*/ true);
/// }
/// assert!(sel.prefers_gshare(0x30_0000));
/// ```
#[derive(Debug, Clone)]
pub struct SelectorTable {
    levels: Vec<u8>,
    mask: u64,
}

impl SelectorTable {
    /// Maximum confidence level.
    pub const MAX_LEVEL: u8 = 7;
    /// Levels at or above this choose the 2-level (gshare) predictor.
    pub const GSHARE_THRESHOLD: u8 = 4;

    /// Creates a selector table of `size` entries, all strongly bimodal.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or not a power of two.
    #[must_use]
    pub fn new(size: usize) -> Self {
        assert!(size.is_power_of_two(), "selector size must be a power of two, got {size}");
        SelectorTable { levels: vec![0; size], mask: (size - 1) as u64 }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Whether the table is empty (never true once constructed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Entry index for a branch address.
    #[inline]
    #[must_use]
    pub fn index_of(&self, addr: VirtAddr) -> usize {
        (addr & self.mask) as usize
    }

    /// Whether the selector currently routes `addr` to the gshare predictor.
    #[inline]
    #[must_use]
    pub fn prefers_gshare(&self, addr: VirtAddr) -> bool {
        self.levels[self.index_of(addr)] >= Self::GSHARE_THRESHOLD
    }

    /// The choice for `addr` as an enum.
    #[must_use]
    pub fn choice(&self, addr: VirtAddr) -> Choice {
        if self.prefers_gshare(addr) {
            Choice::Gshare
        } else {
            Choice::Bimodal
        }
    }

    /// Trains the selector with the per-component correctness of a resolved
    /// branch. Hardware chooser tables move only when the components
    /// disagree — when both are right or both wrong there is no signal.
    #[inline]
    pub fn train(&mut self, addr: VirtAddr, bimodal_correct: bool, gshare_correct: bool) {
        let idx = self.index_of(addr);
        let level = &mut self.levels[idx];
        match (bimodal_correct, gshare_correct) {
            (false, true) => *level = (*level + 1).min(Self::MAX_LEVEL),
            (true, false) => *level = level.saturating_sub(1),
            _ => {}
        }
    }

    /// Raw confidence level of the entry for `addr` (0–7).
    #[must_use]
    pub fn level(&self, addr: VirtAddr) -> u8 {
        self.levels[self.index_of(addr)]
    }

    /// Forces the entry for `addr` to a raw level.
    ///
    /// # Panics
    ///
    /// Panics if `level > 7`.
    #[inline]
    pub fn set_level(&mut self, addr: VirtAddr, level: u8) {
        assert!(level <= Self::MAX_LEVEL, "selector level must be 0..=7, got {level}");
        let idx = self.index_of(addr);
        self.levels[idx] = level;
    }

    /// Resets every entry to strongly bimodal — what the attacker's
    /// randomization block achieves by making the 2-level predictor
    /// inaccurate across the board (paper §5.2 goal 2).
    pub fn reset(&mut self) {
        self.levels.fill(0);
    }

    /// Helper wrapping [`SelectorTable::train`] with predicted/actual
    /// outcomes from both components.
    #[inline]
    pub fn train_outcomes(
        &mut self,
        addr: VirtAddr,
        bimodal_pred: Outcome,
        gshare_pred: Outcome,
        actual: Outcome,
    ) {
        self.train(addr, bimodal_pred == actual, gshare_pred == actual);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_entries_choose_bimodal() {
        let sel = SelectorTable::new(64);
        for addr in 0..64 {
            assert_eq!(sel.choice(addr), Choice::Bimodal);
        }
    }

    #[test]
    fn migration_requires_four_net_wins() {
        let mut sel = SelectorTable::new(64);
        for i in 0..3 {
            sel.train(0, false, true);
            assert!(!sel.prefers_gshare(0), "{} wins are not enough", i + 1);
        }
        sel.train(0, false, true);
        assert!(sel.prefers_gshare(0), "four wins migrate to gshare");
        for _ in 0..4 {
            sel.train(0, true, false);
        }
        assert!(!sel.prefers_gshare(0), "four losses migrate back");
    }

    #[test]
    fn agreement_gives_no_signal() {
        let mut sel = SelectorTable::new(64);
        sel.set_level(0, 5);
        sel.train(0, true, true);
        assert_eq!(sel.level(0), 5);
        sel.train(0, false, false);
        assert_eq!(sel.level(0), 5);
    }

    #[test]
    fn reset_restores_bimodal_everywhere() {
        let mut sel = SelectorTable::new(64);
        for addr in 0..64u64 {
            sel.set_level(addr, 7);
        }
        sel.reset();
        assert!((0..64u64).all(|a| !sel.prefers_gshare(a)));
    }

    #[test]
    fn train_outcomes_matches_train() {
        let mut a = SelectorTable::new(16);
        let mut b = SelectorTable::new(16);
        a.train(5, false, true);
        b.train_outcomes(5, Outcome::NotTaken, Outcome::Taken, Outcome::Taken);
        assert_eq!(a.level(5), b.level(5));
    }

    proptest! {
        /// Levels stay saturated in 0..=3 under arbitrary training.
        #[test]
        fn levels_stay_in_range(train in proptest::collection::vec((any::<bool>(), any::<bool>()), 0..200)) {
            let mut sel = SelectorTable::new(8);
            for (b, g) in train {
                sel.train(3, b, g);
                prop_assert!(sel.level(3) <= SelectorTable::MAX_LEVEL);
            }
        }
    }
}
