//! The 2-level (gshare) component predictor.

use crate::counter::{CounterKind, Outcome};
use crate::ghr::GlobalHistoryRegister;
use crate::pht::PatternHistoryTable;
use crate::VirtAddr;

/// The 2-level gshare predictor: a PHT indexed by the branch address XORed
/// with the global history register (McFarling, 1993; the paper's "2-level
/// predictor").
///
/// Because its index depends on the GHR, the same static branch occupies a
/// different PHT entry for every distinct history context — which is exactly
/// why it converges slowly on new branches (paper §5.1) and why the attacker
/// cannot easily create cross-process collisions through it.
///
/// ```
/// use bscope_bpu::{GlobalHistoryRegister, GsharePredictor, CounterKind, Outcome};
///
/// let mut ghr = GlobalHistoryRegister::new(12);
/// let mut p = GsharePredictor::new(16_384, CounterKind::TwoBit);
/// p.update(0x30_0000, &ghr, Outcome::Taken);
/// p.update(0x30_0000, &ghr, Outcome::Taken);
/// assert_eq!(p.predict(0x30_0000, &ghr), Outcome::Taken);
/// ```
#[derive(Debug, Clone)]
pub struct GsharePredictor {
    pht: PatternHistoryTable,
}

impl GsharePredictor {
    /// Creates a gshare predictor with a PHT of `size` entries.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or not a power of two.
    #[must_use]
    pub fn new(size: usize, kind: CounterKind) -> Self {
        GsharePredictor { pht: PatternHistoryTable::new(size, kind) }
    }

    /// The gshare index for a branch address under a given history: the
    /// address XORed with the GHR value, folded into the table.
    #[inline]
    #[must_use]
    pub fn index_of(&self, addr: VirtAddr, ghr: &GlobalHistoryRegister) -> usize {
        self.pht.index_of(addr ^ ghr.value())
    }

    /// Predicted direction for `addr` under history `ghr`.
    #[inline]
    #[must_use]
    pub fn predict(&self, addr: VirtAddr, ghr: &GlobalHistoryRegister) -> Outcome {
        self.pht.predict(self.index_of(addr, ghr))
    }

    /// Trains the entry selected by `(addr, ghr)` with a resolved outcome.
    ///
    /// The caller must pass the *same* history value that produced the
    /// prediction (i.e. update before shifting the outcome into the GHR),
    /// as hardware does.
    #[inline]
    pub fn update(&mut self, addr: VirtAddr, ghr: &GlobalHistoryRegister, outcome: Outcome) {
        let idx = self.index_of(addr, ghr);
        self.pht.update(idx, outcome);
    }

    /// Shared read access to the underlying PHT.
    #[must_use]
    pub fn pht(&self) -> &PatternHistoryTable {
        &self.pht
    }

    /// Exclusive access to the underlying PHT.
    #[must_use]
    pub fn pht_mut(&mut self) -> &mut PatternHistoryTable {
        &mut self.pht
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::PhtState;

    #[test]
    fn different_history_selects_different_entry() {
        let p = GsharePredictor::new(1024, CounterKind::TwoBit);
        let mut a = GlobalHistoryRegister::new(10);
        let mut b = GlobalHistoryRegister::new(10);
        a.push(Outcome::Taken);
        b.push(Outcome::NotTaken);
        assert_ne!(p.index_of(0x30_0000, &a), p.index_of(0x30_0000, &b));
    }

    #[test]
    fn learns_an_alternating_pattern() {
        // A strict T,N,T,N... pattern is unlearnable by a bimodal counter
        // but trivially learnable by gshare once per-context counters warm
        // up — the premise of the paper's Fig. 2 experiment.
        let mut ghr = GlobalHistoryRegister::new(8);
        let mut p = GsharePredictor::new(4096, CounterKind::TwoBit);
        let addr = 0x1234;

        // Warm-up: two full alternations so each context sees its outcome
        // at least twice (counters start in a weak state).
        let mut outcome = Outcome::Taken;
        for _ in 0..32 {
            p.update(addr, &ghr, outcome);
            ghr.push(outcome);
            outcome = outcome.flipped();
        }
        // Now every prediction must be correct.
        for _ in 0..32 {
            assert_eq!(p.predict(addr, &ghr), outcome);
            p.update(addr, &ghr, outcome);
            ghr.push(outcome);
            outcome = outcome.flipped();
        }
    }

    #[test]
    fn update_trains_the_context_entry_only() {
        let mut ghr = GlobalHistoryRegister::new(6);
        let mut p = GsharePredictor::new(256, CounterKind::TwoBit);
        p.update(10, &ghr, Outcome::Taken);
        p.update(10, &ghr, Outcome::Taken);
        let trained_idx = p.index_of(10, &ghr);
        assert_eq!(p.pht().state(trained_idx), PhtState::StronglyTaken);
        ghr.push(Outcome::Taken);
        let other_idx = p.index_of(10, &ghr);
        assert_ne!(trained_idx, other_idx);
        assert_eq!(p.pht().state(other_idx), PhtState::WeaklyNotTaken);
    }
}
