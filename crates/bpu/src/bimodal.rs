//! The 1-level (bimodal) component predictor.

use crate::counter::{CounterKind, Outcome, PhtState};
use crate::pht::PatternHistoryTable;
use crate::VirtAddr;

/// The 1-level bimodal predictor: a PHT indexed directly by the branch
/// address (Smith, 1981; the paper's "1-level predictor").
///
/// Because its index is a pure function of the branch address, collisions
/// between two processes are trivial to establish — the property BranchScope
/// exploits once it has forced the BPU into 1-level mode.
///
/// ```
/// use bscope_bpu::{BimodalPredictor, CounterKind, Outcome};
///
/// let mut p = BimodalPredictor::new(16_384, CounterKind::TwoBit);
/// p.update(0x30_0000, Outcome::Taken);
/// p.update(0x30_0000, Outcome::Taken);
/// assert_eq!(p.predict(0x30_0000), Outcome::Taken);
/// ```
#[derive(Debug, Clone)]
pub struct BimodalPredictor {
    pht: PatternHistoryTable,
}

impl BimodalPredictor {
    /// Creates a bimodal predictor with a PHT of `size` entries.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or not a power of two.
    #[must_use]
    pub fn new(size: usize, kind: CounterKind) -> Self {
        BimodalPredictor { pht: PatternHistoryTable::new(size, kind) }
    }

    /// PHT index used for a branch address — the address modulo the table
    /// size, at byte granularity (paper Fig. 5a).
    #[inline]
    #[must_use]
    pub fn index_of(&self, addr: VirtAddr) -> usize {
        self.pht.index_of(addr)
    }

    /// Predicted direction for the branch at `addr`.
    #[inline]
    #[must_use]
    pub fn predict(&self, addr: VirtAddr) -> Outcome {
        self.pht.predict(self.index_of(addr))
    }

    /// Trains the predictor with a resolved outcome.
    #[inline]
    pub fn update(&mut self, addr: VirtAddr, outcome: Outcome) {
        let idx = self.index_of(addr);
        self.pht.update(idx, outcome);
    }

    /// Architectural state of the entry the branch at `addr` maps to.
    #[must_use]
    pub fn state(&self, addr: VirtAddr) -> PhtState {
        self.pht.state(self.index_of(addr))
    }

    /// Forces the entry for `addr` into an architectural state.
    pub fn set_state(&mut self, addr: VirtAddr, state: PhtState) {
        let idx = self.index_of(addr);
        self.pht.set_state(idx, state);
    }

    /// Shared read access to the underlying PHT.
    #[must_use]
    pub fn pht(&self) -> &PatternHistoryTable {
        &self.pht
    }

    /// Exclusive access to the underlying PHT (used by mitigations and
    /// noise models that manipulate raw entries).
    #[must_use]
    pub fn pht_mut(&mut self) -> &mut PatternHistoryTable {
        &mut self.pht
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aliasing_addresses_share_an_entry() {
        let mut p = BimodalPredictor::new(1024, CounterKind::TwoBit);
        // Two addresses one PHT-size apart collide — the cross-process
        // collision BranchScope builds on.
        p.update(0x400, Outcome::Taken);
        p.update(0x400, Outcome::Taken);
        assert_eq!(p.predict(0x400 + 1024), Outcome::Taken);
        assert_eq!(p.state(0x400 + 1024), PhtState::StronglyTaken);
    }

    #[test]
    fn distinct_entries_are_independent() {
        let mut p = BimodalPredictor::new(1024, CounterKind::TwoBit);
        p.update(1, Outcome::Taken);
        p.update(1, Outcome::Taken);
        assert_eq!(p.predict(2), Outcome::NotTaken, "neighbouring entry untouched");
    }

    #[test]
    fn set_state_overrides_training() {
        let mut p = BimodalPredictor::new(64, CounterKind::SkylakeAsymmetric);
        p.update(5, Outcome::Taken);
        p.set_state(5, PhtState::StronglyNotTaken);
        assert_eq!(p.predict(5), Outcome::NotTaken);
    }
}
