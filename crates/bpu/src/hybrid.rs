//! The combined (hybrid) branch predictor — Figure 1 of the paper.

use crate::bimodal::BimodalPredictor;
use crate::counter::Outcome;
use crate::ghr::GlobalHistoryRegister;
use crate::gshare::GsharePredictor;
use crate::profile::MicroarchProfile;
use crate::selector::SelectorTable;
use crate::VirtAddr;

/// Which component produced the final direction prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// The 1-level bimodal predictor (new branches, or selector preference).
    Bimodal,
    /// The 2-level gshare predictor (selector preference on known branches).
    Gshare,
}

/// Everything the front end produced for one branch prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Final predicted direction.
    pub direction: Outcome,
    /// Component the selection logic used.
    pub used: PredictorKind,
    /// What the bimodal component predicted.
    pub bimodal: Outcome,
    /// What the gshare component predicted.
    pub gshare: Outcome,
    /// Whether the branch hit in the BTB (i.e. was recently seen taken).
    pub btb_hit: bool,
    /// Predicted target when the direction is taken and the BTB hit.
    pub target: Option<VirtAddr>,
}

/// The hybrid direction predictor of Figure 1: bimodal + gshare PHTs and a
/// selector table. The BTB and GHR it consults are the shared front end of
/// [`PredictorBackend`](crate::PredictorBackend).
///
/// # Selection logic
///
/// The paper's §5.1 experiments establish that *branches with no accumulated
/// history are predicted by the 1-level predictor*, with the 2-level
/// predictor taking over only after several repetitions of a learnable
/// pattern. We model this with the BTB as the presence signal: a branch that
/// misses in the BTB is predicted by the bimodal PHT alone; a branch that
/// hits is arbitrated by the selector table, which itself starts strongly
/// biased to the bimodal side and migrates per-branch as gshare proves more
/// accurate.
///
/// # Example
///
/// ```
/// use bscope_bpu::{BackendKind, MicroarchProfile, Outcome, PredictorKind};
///
/// let mut bpu = BackendKind::Hybrid.build(MicroarchProfile::haswell());
/// let p = bpu.predict(0x30_0000);
/// assert_eq!(p.used, PredictorKind::Bimodal, "new branches use the 1-level predictor");
/// bpu.update(0x30_0000, Outcome::Taken, None, &p);
/// assert_eq!(bpu.as_hybrid().unwrap().selector().level(0x30_0000), 0);
/// ```
#[derive(Debug, Clone)]
pub struct HybridPredictor {
    bimodal: BimodalPredictor,
    gshare: GsharePredictor,
    selector: SelectorTable,
}

impl HybridPredictor {
    /// Builds the direction predictor for an already validated profile.
    pub(crate) fn new(profile: &MicroarchProfile) -> Self {
        HybridPredictor {
            bimodal: BimodalPredictor::new(profile.pht_size, profile.counter_kind),
            gshare: GsharePredictor::new(profile.pht_size, profile.counter_kind),
            selector: SelectorTable::new(profile.selector_size),
        }
    }

    /// Direction prediction for the branch at `addr` under history `ghr`;
    /// `btb_hit` is the front end's presence signal. The returned `target`
    /// is left for the front end to fill in.
    #[inline]
    pub(crate) fn predict(
        &self,
        addr: VirtAddr,
        ghr: &GlobalHistoryRegister,
        btb_hit: bool,
    ) -> Prediction {
        let bimodal = self.bimodal.predict(addr);
        let gshare = self.gshare.predict(addr, ghr);
        let used = if btb_hit && self.selector.prefers_gshare(addr) {
            PredictorKind::Gshare
        } else {
            PredictorKind::Bimodal
        };
        let direction = match used {
            PredictorKind::Bimodal => bimodal,
            PredictorKind::Gshare => gshare,
        };
        Prediction { direction, used, bimodal, gshare, btb_hit, target: None }
    }

    /// Trains both component PHTs and the selector on a resolved branch,
    /// against the history `ghr` that produced `prediction`.
    #[inline(always)]
    pub(crate) fn train(
        &mut self,
        addr: VirtAddr,
        ghr: &GlobalHistoryRegister,
        outcome: Outcome,
        prediction: &Prediction,
    ) {
        self.bimodal.update(addr, outcome);
        self.gshare.update(addr, ghr, outcome);
        // The selector observes component accuracy only for branches it
        // actually arbitrates (BTB-resident ones); this keeps single-shot
        // spy branches from perturbing chooser state, matching the paper's
        // "new branch ⇒ 1-level" behaviour.
        if prediction.btb_hit {
            self.selector.train_outcomes(addr, prediction.bimodal, prediction.gshare, outcome);
        }
    }

    /// Read access to the bimodal component.
    #[must_use]
    pub fn bimodal(&self) -> &BimodalPredictor {
        &self.bimodal
    }

    /// Exclusive access to the bimodal component.
    #[must_use]
    pub fn bimodal_mut(&mut self) -> &mut BimodalPredictor {
        &mut self.bimodal
    }

    /// Read access to the gshare component.
    #[must_use]
    pub fn gshare(&self) -> &GsharePredictor {
        &self.gshare
    }

    /// Exclusive access to the gshare component.
    #[must_use]
    pub fn gshare_mut(&mut self) -> &mut GsharePredictor {
        &mut self.gshare
    }

    /// Read access to the selector table.
    #[must_use]
    pub fn selector(&self) -> &SelectorTable {
        &self.selector
    }

    /// Exclusive access to the selector table.
    #[must_use]
    pub fn selector_mut(&mut self) -> &mut SelectorTable {
        &mut self.selector
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::{CounterKind, PhtState};
    use crate::{BackendKind, Microarch, PredictorBackend};

    fn small_profile() -> MicroarchProfile {
        MicroarchProfile {
            arch: Microarch::Custom,
            pht_size: 1_024,
            counter_kind: CounterKind::TwoBit,
            ghr_bits: 10,
            selector_size: 256,
            btb_size: 256,
            timing: Default::default(),
        }
    }

    fn build() -> PredictorBackend {
        BackendKind::Hybrid.build(small_profile())
    }

    #[test]
    fn new_branch_uses_bimodal() {
        let bpu = build();
        let p = bpu.predict(0x5000);
        assert_eq!(p.used, PredictorKind::Bimodal);
        assert!(!p.btb_hit);
    }

    #[test]
    fn taken_branch_installs_btb_entry() {
        let mut bpu = build();
        let (_, _) = bpu.execute(0x5000, Outcome::Taken, Some(0x6000));
        assert_eq!(bpu.btb().lookup(0x5000), Some(0x6000));
        let p = bpu.predict(0x5000);
        assert!(p.btb_hit);
    }

    #[test]
    fn not_taken_branch_does_not_install_btb_entry() {
        let mut bpu = build();
        bpu.execute(0x5000, Outcome::NotTaken, None);
        assert!(!bpu.btb().contains(0x5000));
    }

    #[test]
    fn default_target_is_fall_through_plus_two() {
        let mut bpu = build();
        bpu.execute(0x5000, Outcome::Taken, None);
        assert_eq!(bpu.btb().lookup(0x5000), Some(0x5002));
    }

    #[test]
    fn always_taken_branch_converges_quickly() {
        // §5.1: "the 1-level predictor will converge to the strongly taken
        // state after 2-3 executions".
        let mut bpu = build();
        for _ in 0..3 {
            bpu.execute(0x100, Outcome::Taken, None);
        }
        assert_eq!(bpu.pht_state(0x100), PhtState::StronglyTaken);
        let (p, correct) = bpu.execute(0x100, Outcome::Taken, None);
        assert!(correct);
        assert_eq!(p.direction, Outcome::Taken);
    }

    #[test]
    fn irregular_pattern_eventually_uses_gshare() {
        // The Fig. 2 mechanism: an irregular repeating pattern is
        // unpredictable for the bimodal component but learnable by gshare;
        // the selector must eventually migrate.
        let mut bpu = build();
        let pattern = [true, false, false, true, true, true, false, true, false, false];
        let addr = 0x700;
        for _ in 0..12 {
            for &bit in &pattern {
                bpu.execute(addr, Outcome::from_bool(bit), None);
            }
        }
        // After many repetitions the pattern must be predicted perfectly.
        let before = bpu.stats();
        for &bit in pattern.iter().cycle().take(30) {
            bpu.execute(addr, Outcome::from_bool(bit), None);
        }
        let delta = bpu.stats().since(&before);
        assert_eq!(delta.mispredictions, 0, "pattern fully learned: {delta}");
        assert!(delta.gshare_used > 0, "gshare must be in use");
    }

    #[test]
    fn selector_not_trained_on_btb_miss() {
        let mut bpu = build();
        // Single not-taken execution: BTB miss, selector untouched.
        bpu.execute(0x300, Outcome::NotTaken, None);
        assert_eq!(bpu.as_hybrid().unwrap().selector().level(0x300), 0);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut bpu = build();
        bpu.execute(0x1, Outcome::Taken, None);
        bpu.execute(0x1, Outcome::Taken, None);
        assert_eq!(bpu.stats().branches, 2);
        bpu.reset_stats();
        assert_eq!(bpu.stats().branches, 0);
    }

    #[test]
    fn reset_clears_all_structures() {
        let mut bpu = build();
        for i in 0..50 {
            bpu.execute(i * 3, Outcome::Taken, None);
        }
        bpu.reset();
        assert_eq!(bpu.btb().occupancy(), 0);
        assert_eq!(bpu.ghr().value(), 0);
        assert_eq!(bpu.stats().branches, 0);
        assert_eq!(bpu.pht_state(0), PhtState::WeaklyNotTaken);
    }

    #[test]
    fn btb_reallocation_resets_selection_state() {
        let mut bpu = build();
        // Establish a branch and migrate its chooser toward gshare.
        bpu.execute(0x100, Outcome::Taken, None);
        bpu.as_hybrid_mut().unwrap().selector_mut().set_level(0x100, 7);
        // An aliasing branch (same BTB set, different tag) takes the slot…
        let alias = 0x100 + 256; // btb_size = 256 in small_profile
        bpu.execute(alias, Outcome::Taken, None);
        // …so when the original branch is seen taken again it is a *new*
        // branch to the BPU and its chooser restarts bimodal.
        bpu.execute(0x100, Outcome::Taken, None);
        assert_eq!(bpu.as_hybrid().unwrap().selector().level(0x100), 0);
    }

    #[test]
    fn resident_branch_keeps_selection_state() {
        let mut bpu = build();
        bpu.execute(0x100, Outcome::Taken, None);
        bpu.as_hybrid_mut().unwrap().selector_mut().set_level(0x100, 7);
        bpu.execute(0x100, Outcome::Taken, None);
        assert!(
            bpu.as_hybrid().unwrap().selector().level(0x100) >= 2,
            "no reallocation, no reset (training may move it by one)"
        );
    }

    #[test]
    fn cross_address_collision_in_bimodal_pht() {
        // Same-index addresses collide in the bimodal PHT — the attack's
        // core collision primitive (paper §4).
        let mut bpu = build();
        let victim = 0x30_0000u64;
        let spy = victim + 1_024; // same index, PHT is 1 024 entries
        for _ in 0..3 {
            bpu.execute(victim, Outcome::Taken, None);
        }
        assert_eq!(bpu.pht_state(spy), PhtState::StronglyTaken);
    }
}
