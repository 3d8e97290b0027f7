//! The predictor front end and its three interchangeable direction
//! predictors (hybrid, TAGE, perceptron).
//!
//! The paper attacks a bimodal+gshare hybrid but notes modern CPUs use
//! "complex hybrid predictors with unknown organization" (§1), and
//! follow-on work shows directional-predictor leakage generalises beyond
//! that organisation. In Figure 1 the direction predictor sits behind one
//! front end: a BTB whose presence bit marks a branch as known (§5.1) and a
//! global history register. [`PredictorBackend`] owns that front end once —
//! the effective profile, GHR, BTB and prediction statistics — and swaps
//! only the direction predictor behind it, so every layer above
//! `bscope-bpu` (core, OS, attack, mitigations, experiments) runs unchanged
//! on any substrate.
//!
//! Dispatch is a `match` on a private enum: the hot `execute` path stays
//! monomorphic and the core/system types stay free of generic parameters.

use crate::btb::BranchTargetBuffer;
use crate::counter::{CounterKind, Outcome, PhtState};
use crate::ghr::GlobalHistoryRegister;
use crate::hybrid::{HybridPredictor, Prediction, PredictorKind};
use crate::perceptron::PerceptronPredictor;
use crate::profile::MicroarchProfile;
use crate::stats::PredictionStats;
use crate::tage::TagePredictor;
use crate::VirtAddr;
use std::fmt;
use std::str::FromStr;

/// Deterministic seed for the TAGE allocation LFSR. Allocation randomness
/// is microarchitectural state, not experiment randomness: it is fixed so
/// two cores built from the same profile start bit-identical, exactly like
/// the hybrid's power-on state.
const TAGE_ALLOC_SEED: u64 = 0x7A6E_5EED;

/// Tagged components of the TAGE backend (history lengths 4, 8, 16, 32).
const TAGE_COMPONENTS: usize = 4;

/// Which predictor substrate to build — the user-facing backend selector
/// (`--bpu hybrid|tage|perceptron` in the experiments CLI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The paper's bimodal+gshare hybrid (Figure 1) — the default.
    #[default]
    Hybrid,
    /// TAGE: base bimodal table + tagged geometric-history tables.
    Tage,
    /// Perceptron: per-entry weight vectors over global history.
    Perceptron,
}

impl BackendKind {
    /// Every backend, in CLI/reporting order.
    pub const ALL: [BackendKind; 3] =
        [BackendKind::Hybrid, BackendKind::Tage, BackendKind::Perceptron];

    /// The canonical lower-case name (also the `--bpu` spelling).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Hybrid => "hybrid",
            BackendKind::Tage => "tage",
            BackendKind::Perceptron => "perceptron",
        }
    }

    /// Builds the front end and direction predictor for a machine profile.
    ///
    /// The hybrid uses the profile verbatim. TAGE and the perceptron store
    /// a *normalised* effective profile — `counter_kind = TwoBit`, since the
    /// TAGE base table is a 2-bit counter table and the perceptron's
    /// synthesised state view follows the same four-state FSM, plus a 64-bit
    /// GHR for TAGE's longest tagged history — so attacker code that sizes
    /// itself from [`PredictorBackend::profile`] (priming, decode
    /// dictionaries) keeps working.
    ///
    /// # Panics
    ///
    /// Panics if the effective profile fails [`MicroarchProfile::validate`].
    #[must_use]
    pub fn build(self, mut profile: MicroarchProfile) -> PredictorBackend {
        if self != BackendKind::Hybrid {
            profile.counter_kind = CounterKind::TwoBit;
        }
        if self == BackendKind::Tage {
            profile.ghr_bits = 64;
        }
        profile.validate().expect("invalid microarchitecture profile");
        let direction = match self {
            BackendKind::Hybrid => Direction::Hybrid(HybridPredictor::new(&profile)),
            BackendKind::Tage => Direction::Tage(TagePredictor::new(
                profile.pht_size,
                TAGE_COMPONENTS,
                TAGE_ALLOC_SEED,
            )),
            BackendKind::Perceptron => {
                Direction::Perceptron(PerceptronPredictor::new(profile.pht_size, profile.ghr_bits))
            }
        };
        PredictorBackend {
            ghr: GlobalHistoryRegister::new(profile.ghr_bits),
            btb: BranchTargetBuffer::new(profile.btb_size),
            stats: PredictionStats::new(),
            direction,
            profile,
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "hybrid" => Ok(BackendKind::Hybrid),
            "tage" => Ok(BackendKind::Tage),
            "perceptron" => Ok(BackendKind::Perceptron),
            other => Err(format!(
                "unknown backend '{other}' (expected hybrid, tage, or perceptron)"
            )),
        }
    }
}

/// The predictor a simulated core runs on: the shared front end (effective
/// profile, GHR, BTB, statistics) plus one direction predictor.
///
/// The BTB plays the same role for every substrate: presence is the
/// "recently seen taken" signal, taken branches install entries with the
/// `addr + 2` fall-through convention, and BTB-alias eviction (the
/// attacker's stage-1 trick) works identically.
///
/// Each direction predictor reports through the same [`Prediction`]:
///
/// * **hybrid** — the bimodal and gshare components, with `used` chosen by
///   the selector for BTB-resident branches (new branches use bimodal);
/// * **TAGE** — the base-table direction as `bimodal`, the final TAGE
///   direction as `gshare`, and `used = Gshare` exactly when a tagged
///   (history-indexed) component provided the prediction;
/// * **perceptron** — history-driven, so its direction reports as both
///   components with `used = Gshare`.
///
/// Build one with [`BackendKind::build`].
#[derive(Debug, Clone)]
pub struct PredictorBackend {
    profile: MicroarchProfile,
    ghr: GlobalHistoryRegister,
    btb: BranchTargetBuffer,
    stats: PredictionStats,
    direction: Direction,
}

/// The direction predictor behind the front end.
#[derive(Debug, Clone)]
enum Direction {
    Hybrid(HybridPredictor),
    Tage(TagePredictor),
    Perceptron(PerceptronPredictor),
}

impl PredictorBackend {
    /// Which substrate this is.
    #[must_use]
    pub fn kind(&self) -> BackendKind {
        match self.direction {
            Direction::Hybrid(_) => BackendKind::Hybrid,
            Direction::Tage(_) => BackendKind::Tage,
            Direction::Perceptron(_) => BackendKind::Perceptron,
        }
    }

    /// The hybrid direction predictor, if that is the active backend.
    /// Hybrid-only structures (the selector table, the separate gshare PHT)
    /// are reached through here; everything else is on the backend itself.
    #[must_use]
    pub fn as_hybrid(&self) -> Option<&HybridPredictor> {
        match &self.direction {
            Direction::Hybrid(h) => Some(h),
            _ => None,
        }
    }

    /// Exclusive access to the hybrid direction predictor, if active.
    #[must_use]
    pub fn as_hybrid_mut(&mut self) -> Option<&mut HybridPredictor> {
        match &mut self.direction {
            Direction::Hybrid(h) => Some(h),
            _ => None,
        }
    }

    /// The effective microarchitecture profile (see [`BackendKind::build`]).
    #[must_use]
    pub fn profile(&self) -> &MicroarchProfile {
        &self.profile
    }

    /// Produces the front-end prediction for the branch at `addr`.
    #[inline(always)]
    #[must_use]
    pub fn predict(&self, addr: VirtAddr) -> Prediction {
        let target = self.btb.lookup(addr);
        let btb_hit = target.is_some();
        let mut prediction = match &self.direction {
            Direction::Hybrid(h) => h.predict(addr, &self.ghr, btb_hit),
            Direction::Tage(t) => {
                let tage = t.predict(addr, &self.ghr);
                Prediction {
                    direction: tage.direction,
                    used: if tage.provider.is_some() {
                        PredictorKind::Gshare
                    } else {
                        PredictorKind::Bimodal
                    },
                    bimodal: Outcome::from_bool(t.base_counter(addr) >= 2),
                    gshare: tage.direction,
                    btb_hit,
                    target: None,
                }
            }
            Direction::Perceptron(p) => {
                let direction = p.predict(addr, &self.ghr);
                Prediction {
                    direction,
                    used: PredictorKind::Gshare,
                    bimodal: direction,
                    gshare: direction,
                    btb_hit,
                    target: None,
                }
            }
        };
        if prediction.direction.is_taken() {
            prediction.target = target;
        }
        prediction
    }

    /// Commits a resolved branch: trains the direction predictor against
    /// the history that produced the prediction, shifts the outcome into
    /// the GHR, installs the BTB entry for taken branches, and records
    /// statistics.
    ///
    /// `prediction` must be the value returned by [`PredictorBackend::predict`]
    /// for this same dynamic branch. `target` is the branch target to
    /// install when taken; `None` uses the fall-through convention
    /// `addr + 2` (a two-byte conditional jump, as in the paper's Listing 2
    /// disassembly).
    #[inline(always)]
    pub fn update(
        &mut self,
        addr: VirtAddr,
        outcome: Outcome,
        target: Option<VirtAddr>,
        prediction: &Prediction,
    ) {
        match &mut self.direction {
            Direction::Hybrid(h) => h.train(addr, &self.ghr, outcome, prediction),
            Direction::Tage(t) => t.train(addr, &self.ghr, outcome),
            Direction::Perceptron(p) => p.train(addr, &self.ghr, outcome),
        }
        self.ghr.push(outcome);
        if outcome.is_taken() {
            // Selection state is allocated per branch together with its BTB
            // entry: when the entry is (re)allocated for a new branch, the
            // chooser for that slot restarts strongly bimodal. This is what
            // makes "branches with no accumulated history use the 1-level
            // predictor" (§5.1) hold *stably* — a branch whose BTB entry was
            // evicted re-enters the BPU as a new branch, chooser included.
            let allocated = self.btb.install(addr, target.unwrap_or(addr + 2));
            if let (true, Direction::Hybrid(h)) = (allocated, &mut self.direction) {
                h.selector_mut().set_level(addr, 0);
            }
        }
        self.stats
            .record(prediction.used == PredictorKind::Gshare, prediction.direction != outcome);
    }

    /// Predicts and immediately commits one dynamic branch, returning the
    /// prediction and whether it was correct (the simulation fast path).
    /// Inlined, with `predict`, `update` and the table accessors under
    /// them, into the core's per-branch body in other crates, so the hybrid
    /// path there runs without calls.
    #[inline]
    pub fn execute(
        &mut self,
        addr: VirtAddr,
        outcome: Outcome,
        target: Option<VirtAddr>,
    ) -> (Prediction, bool) {
        let prediction = self.predict(addr);
        self.update(addr, outcome, target, &prediction);
        (prediction, prediction.direction == outcome)
    }

    /// Architectural state of the address-indexed PHT entry for `addr` —
    /// the state BranchScope primes and probes.
    ///
    /// For the hybrid this is the bimodal PHT entry and for TAGE the
    /// base-table counter (0–3 map onto SN, WN, WT, ST in
    /// [`PhtState::ALL`] order). The perceptron has
    /// no saturating counter, so its state is synthesised from the entry's
    /// history-independent *bias* weight (`≤ −2` ⇒ SN, `−1` ⇒ WN, `0..=1` ⇒
    /// WT, `≥ 2` ⇒ ST — zero predicts taken, matching the perceptron's
    /// `y ≥ 0` rule). That is a best-effort view for ground-truth
    /// instrumentation, not a claim the attack can decode it: one victim
    /// execution nudges one weight by ±1, far below the decision threshold,
    /// which is why the attack falls to coin-flipping on this substrate
    /// (see the `backend_sweep` experiment).
    #[must_use]
    pub fn pht_state(&self, addr: VirtAddr) -> PhtState {
        match &self.direction {
            Direction::Hybrid(h) => h.bimodal().state(addr),
            Direction::Tage(t) => PhtState::ALL[usize::from(t.base_counter(addr).min(3))],
            Direction::Perceptron(p) => match p.bias(addr) {
                b if b <= -2 => PhtState::StronglyNotTaken,
                -1 => PhtState::WeaklyNotTaken,
                0 | 1 => PhtState::WeaklyTaken,
                _ => PhtState::StronglyTaken,
            },
        }
    }

    /// Forces the address-indexed PHT entry for `addr` into `state`
    /// (ground-truth hook for experiments and tests). The perceptron gets
    /// the representative bias of [`PredictorBackend::pht_state`] and
    /// zeroed history weights.
    pub fn set_pht_state(&mut self, addr: VirtAddr, state: PhtState) {
        match &mut self.direction {
            Direction::Hybrid(h) => h.bimodal_mut().set_state(addr, state),
            Direction::Tage(t) => t.set_base_counter(addr, state as u8),
            Direction::Perceptron(p) => p.set_entry(
                addr,
                match state {
                    PhtState::StronglyNotTaken => -2,
                    PhtState::WeaklyNotTaken => -1,
                    PhtState::WeaklyTaken => 0,
                    PhtState::StronglyTaken => 2,
                },
            ),
        }
    }

    /// Read access to the global history register.
    #[must_use]
    pub fn ghr(&self) -> &GlobalHistoryRegister {
        &self.ghr
    }

    /// Exclusive access to the global history register.
    #[must_use]
    pub fn ghr_mut(&mut self) -> &mut GlobalHistoryRegister {
        &mut self.ghr
    }

    /// Read access to the branch target buffer.
    #[must_use]
    pub fn btb(&self) -> &BranchTargetBuffer {
        &self.btb
    }

    /// Exclusive access to the branch target buffer.
    #[must_use]
    pub fn btb_mut(&mut self) -> &mut BranchTargetBuffer {
        &mut self.btb
    }

    /// Cumulative prediction statistics.
    #[must_use]
    pub fn stats(&self) -> PredictionStats {
        self.stats
    }

    /// Resets the statistics counters (predictor state is untouched).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Resets all predictor state to power-on defaults.
    pub fn reset(&mut self) {
        *self = self.kind().build(self.profile.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Microarch;

    fn small_profile() -> MicroarchProfile {
        MicroarchProfile {
            arch: Microarch::Custom,
            pht_size: 1_024,
            counter_kind: CounterKind::SkylakeAsymmetric,
            ghr_bits: 10,
            selector_size: 256,
            btb_size: 256,
            timing: Default::default(),
        }
    }

    #[test]
    fn kind_round_trips_through_build_and_parse() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.build(small_profile()).kind(), kind);
            assert_eq!(kind.name().parse::<BackendKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        let err = "btb".parse::<BackendKind>().unwrap_err();
        assert!(err.contains("unknown backend 'btb'"), "{err}");
        assert!(err.contains("hybrid, tage, or perceptron"), "{err}");
        assert_eq!(BackendKind::default(), BackendKind::Hybrid);
    }

    #[test]
    fn hybrid_backend_keeps_the_profile_verbatim() {
        let backend = BackendKind::Hybrid.build(small_profile());
        assert_eq!(*backend.profile(), small_profile());
        assert!(backend.as_hybrid().is_some());
    }

    #[test]
    fn non_hybrid_backends_normalise_the_counter_kind() {
        for kind in [BackendKind::Tage, BackendKind::Perceptron] {
            let backend = kind.build(small_profile());
            assert_eq!(backend.profile().counter_kind, CounterKind::TwoBit, "{kind}");
            assert_eq!(backend.profile().pht_size, 1_024, "{kind}: geometry preserved");
            assert_eq!(backend.profile().btb_size, 256, "{kind}: geometry preserved");
            assert!(backend.as_hybrid().is_none(), "{kind}");
        }
    }

    #[test]
    fn every_backend_honours_the_front_end_contract() {
        for kind in BackendKind::ALL {
            let mut backend = kind.build(small_profile());
            // New branches miss the BTB; taken branches install an entry
            // with the fall-through convention.
            assert!(!backend.predict(0x5000).btb_hit, "{kind}");
            backend.execute(0x5000, Outcome::Taken, None);
            assert_eq!(backend.btb().lookup(0x5000), Some(0x5002), "{kind}");
            assert!(backend.predict(0x5000).btb_hit, "{kind}");
            // Not-taken branches do not install BTB entries.
            backend.execute(0x6000, Outcome::NotTaken, None);
            assert!(!backend.btb().contains(0x6000), "{kind}");
            // The GHR shifts on every commit; stats accumulate and reset.
            assert!(backend.ghr().value() != 0 || backend.stats().branches == 2, "{kind}");
            assert_eq!(backend.stats().branches, 2, "{kind}");
            backend.reset_stats();
            assert_eq!(backend.stats().branches, 0, "{kind}");
            // Reset restores power-on state.
            backend.reset();
            assert_eq!(backend.btb().occupancy(), 0, "{kind}");
            assert_eq!(backend.ghr().value(), 0, "{kind}");
        }
    }

    #[test]
    fn pht_state_round_trips_on_every_backend() {
        for kind in BackendKind::ALL {
            let mut backend = kind.build(small_profile());
            for state in PhtState::ALL {
                backend.set_pht_state(0x6d, state);
                assert_eq!(backend.pht_state(0x6d), state, "{kind}");
            }
        }
    }

    #[test]
    fn saturation_primes_every_backend_to_a_strong_state() {
        // The attack's stage-1 saturation loop (max_level executions in one
        // direction) must leave every backend's address-indexed state
        // strongly biased — this is what TargetedPrime relies on.
        for kind in BackendKind::ALL {
            let mut backend = kind.build(small_profile());
            let steps = crate::Counter::new(backend.profile().counter_kind).max_level();
            for _ in 0..steps {
                backend.execute(0x6d, Outcome::NotTaken, None);
            }
            assert_eq!(backend.pht_state(0x6d), PhtState::StronglyNotTaken, "{kind}");
        }
    }

    #[test]
    fn tage_backend_probe_sequence_shows_the_mh_signature() {
        // End-to-end FSM reasoning on the backend surface (the module-level
        // argument from `tage.rs`, here through the front end): prime SN,
        // one taken victim execution, then two taken probes observe miss,
        // hit.
        let mut backend = BackendKind::Tage.build(small_profile());
        for _ in 0..3 {
            backend.execute(0x6d, Outcome::NotTaken, None);
        }
        assert_eq!(backend.pht_state(0x6d), PhtState::StronglyNotTaken);
        backend.execute(0x6d, Outcome::Taken, None); // victim
        let (_, first_correct) = backend.execute(0x6d, Outcome::Taken, None);
        let (_, second_correct) = backend.execute(0x6d, Outcome::Taken, None);
        assert!(!first_correct && second_correct, "MH probe signature");
    }

    #[test]
    fn perceptron_backend_barely_reacts_to_a_single_victim_execution() {
        // The ablation headline: after a strong not-taken prime, ONE taken
        // execution cannot flip the perceptron's output, so the probe
        // pattern is the same whether the victim ran taken or not-taken —
        // the attack reads nothing.
        let run = |victim: Outcome| {
            let mut backend = BackendKind::Perceptron.build(small_profile());
            for _ in 0..8 {
                backend.execute(0x6d, Outcome::NotTaken, None);
            }
            backend.execute(0x6d, victim, None);
            let (first, _) = backend.execute(0x6d, Outcome::Taken, None);
            let (second, _) = backend.execute(0x6d, Outcome::Taken, None);
            (first.direction, second.direction)
        };
        assert_eq!(run(Outcome::Taken), run(Outcome::NotTaken), "probes cannot distinguish");
    }
}
