//! Cross-crate property tests on whole-model invariants.

use branchscope::attack::{AttackConfig, BranchScope, DirectionDict, ProbeKind};
use branchscope::bpu::{
    BackendKind, BimodalPredictor, BranchTargetBuffer, CounterKind, GlobalHistoryRegister,
    GsharePredictor, MicroarchProfile, Outcome, PhtState, Prediction, PredictorKind,
    SelectorTable, VirtAddr,
};
use branchscope::os::{AslrPolicy, System};
use proptest::prelude::*;

/// Figure 1 composed by hand: bimodal and gshare PHTs, a selector, a BTB
/// whose presence routes new branches to the bimodal side, and a GHR.
struct ReferenceHybrid {
    bimodal: BimodalPredictor,
    gshare: GsharePredictor,
    selector: SelectorTable,
    btb: BranchTargetBuffer,
    ghr: GlobalHistoryRegister,
    branches: u64,
    mispredictions: u64,
}

impl ReferenceHybrid {
    fn new(profile: &MicroarchProfile) -> Self {
        ReferenceHybrid {
            bimodal: BimodalPredictor::new(profile.pht_size, profile.counter_kind),
            gshare: GsharePredictor::new(profile.pht_size, profile.counter_kind),
            selector: SelectorTable::new(profile.selector_size),
            btb: BranchTargetBuffer::new(profile.btb_size),
            ghr: GlobalHistoryRegister::new(profile.ghr_bits),
            branches: 0,
            mispredictions: 0,
        }
    }

    fn execute(&mut self, addr: VirtAddr, outcome: Outcome) -> (Prediction, bool) {
        let bimodal = self.bimodal.predict(addr);
        let gshare = self.gshare.predict(addr, &self.ghr);
        let target = self.btb.lookup(addr);
        let btb_hit = target.is_some();
        let used = if btb_hit && self.selector.prefers_gshare(addr) {
            PredictorKind::Gshare
        } else {
            PredictorKind::Bimodal
        };
        let direction = if used == PredictorKind::Gshare { gshare } else { bimodal };
        let target = target.filter(|_| direction.is_taken());
        // Train against the history that produced the prediction, then
        // shift; a taken branch that allocates a BTB entry restarts its
        // chooser on the bimodal side.
        self.bimodal.update(addr, outcome);
        self.gshare.update(addr, &self.ghr, outcome);
        if btb_hit {
            self.selector.train_outcomes(addr, bimodal, gshare, outcome);
        }
        self.ghr.push(outcome);
        if outcome.is_taken() {
            let allocated = !self.btb.contains(addr);
            self.btb.insert(addr, addr + 2);
            if allocated {
                self.selector.set_level(addr, 0);
            }
        }
        let correct = direction == outcome;
        self.branches += 1;
        self.mispredictions += u64::from(!correct);
        (Prediction { direction, used, bimodal, gshare, btb_hit, target }, correct)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The whole machine is deterministic: identical seeds and identical
    /// branch traces produce identical predictions, counters and clocks.
    #[test]
    fn simulation_is_deterministic(
        seed in any::<u64>(),
        trace in proptest::collection::vec((0u64..4096, any::<bool>()), 1..200),
    ) {
        let run = || {
            let mut sys = System::new(MicroarchProfile::skylake(), seed);
            let pid = sys.spawn("p", AslrPolicy::Disabled);
            for &(off, taken) in &trace {
                sys.cpu(pid).branch_at(off, Outcome::from_bool(taken));
            }
            (sys.cpu(pid).counters(), sys.cpu(pid).rdtscp())
        };
        prop_assert_eq!(run(), run());
    }

    /// Two hybrid predictors fed the same dynamic stream stay in lockstep —
    /// prediction is a pure function of architectural history.
    #[test]
    fn hybrid_predictors_stay_in_lockstep(
        trace in proptest::collection::vec((0u64..2048, any::<bool>()), 1..300),
    ) {
        let mut a = BackendKind::Hybrid.build(MicroarchProfile::haswell());
        let mut b = BackendKind::Hybrid.build(MicroarchProfile::haswell());
        for &(addr, taken) in &trace {
            let (pa, _) = a.execute(addr, Outcome::from_bool(taken), None);
            let (pb, _) = b.execute(addr, Outcome::from_bool(taken), None);
            prop_assert_eq!(pa, pb);
        }
    }

    /// The backend's shared front end is Figure 1 and nothing else: a
    /// hybrid built through `BackendKind` stays in lockstep with the same
    /// predictor composed by hand from the public building blocks — every
    /// prediction field and correctness bit, the whole bimodal PHT, every
    /// selector level, the GHR and the branch/misprediction counts. The
    /// trace reuses a few branch slots and their BTB aliases, so history,
    /// chooser migration and BTB reallocation all come into play.
    #[test]
    fn hybrid_backend_matches_a_hand_composed_reference(
        trace in proptest::collection::vec((0u64..16, 0u64..4, any::<bool>()), 1..400),
    ) {
        let profile = MicroarchProfile::skylake();
        let mut backend = BackendKind::Hybrid.build(profile.clone());
        let mut reference = ReferenceHybrid::new(&profile);
        for &(slot, alias, taken) in &trace {
            let addr = 0x40_0000 + slot * 3 + alias * profile.btb_size as u64;
            let outcome = Outcome::from_bool(taken);
            let (pb, cb) = backend.execute(addr, outcome, None);
            let (pr, cr) = reference.execute(addr, outcome);
            prop_assert_eq!(pb, pr, "prediction diverged at {:#x}", addr);
            prop_assert_eq!(cb, cr, "correctness diverged at {:#x}", addr);
        }
        let hybrid = backend.as_hybrid().unwrap();
        for addr in 0..profile.pht_size as u64 {
            prop_assert_eq!(hybrid.bimodal().state(addr), reference.bimodal.state(addr));
        }
        for addr in 0..profile.selector_size as u64 {
            prop_assert_eq!(hybrid.selector().level(addr), reference.selector.level(addr));
        }
        prop_assert_eq!(backend.ghr().value(), reference.ghr.value());
        prop_assert_eq!(backend.stats().branches, reference.branches);
        prop_assert_eq!(backend.stats().mispredictions, reference.mispredictions);
    }

    /// Priming is idempotent at the architectural level: after a prime, the
    /// target entry is in the configured strong state regardless of any
    /// prior branch history.
    #[test]
    fn prime_always_lands_in_the_configured_state(
        history in proptest::collection::vec((0u64..65_536, any::<bool>()), 0..300),
        prime_taken in any::<bool>(),
    ) {
        let profile = MicroarchProfile::skylake();
        let mut sys = System::new(profile.clone(), 7);
        let victim = sys.spawn("victim", AslrPolicy::Disabled);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let target = sys.process(victim).vaddr_of(0x6d);
        // Arbitrary victim activity first.
        for &(off, taken) in &history {
            sys.cpu(victim).branch_at(off, Outcome::from_bool(taken));
        }
        let state = if prime_taken { PhtState::StronglyTaken } else { PhtState::StronglyNotTaken };
        let mut prime = branchscope::attack::TargetedPrime::new(target, state);
        prime.prime(&mut sys.cpu(spy));
        prop_assert_eq!(sys.core().bpu().pht_state(target), state);
        // The victim's own BTB entry is always evicted; a *taken* prime then
        // installs the spy's entry at the same address (same tag), so only
        // the not-taken prime leaves the slot empty.
        prop_assert_eq!(sys.core().bpu().btb().contains(target), prime_taken);
    }

    /// For every usable (counter, primed-state, probe) configuration, the
    /// dictionary decodes its own expected patterns back to the victim
    /// direction that produced them.
    #[test]
    fn dictionaries_are_self_consistent(kind_sky in any::<bool>(), primed_taken in any::<bool>()) {
        let kind = if kind_sky { CounterKind::SkylakeAsymmetric } else { CounterKind::TwoBit };
        let primed = if primed_taken { PhtState::StronglyTaken } else { PhtState::StronglyNotTaken };
        for probe in [ProbeKind::TakenTaken, ProbeKind::NotTakenNotTaken] {
            if let Ok(dict) = DirectionDict::build(kind, primed, probe) {
                for victim in [Outcome::Taken, Outcome::NotTaken] {
                    prop_assert_eq!(dict.decode(dict.expected(victim)), victim);
                }
            }
        }
    }

    /// A single noiseless attack round reads the victim's direction
    /// correctly from any prior machine state the victim may have created.
    #[test]
    fn one_round_is_correct_from_arbitrary_machine_state(
        warmup in proptest::collection::vec((0u64..32_768, any::<bool>()), 0..200),
        secret in any::<bool>(),
    ) {
        let profile = MicroarchProfile::haswell();
        let mut sys = System::new(profile.clone(), 11);
        let victim = sys.spawn("victim", AslrPolicy::Disabled);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let target = sys.process(victim).vaddr_of(0x6d);
        for &(off, taken) in &warmup {
            sys.cpu(victim).branch_at(off, Outcome::from_bool(taken));
        }
        let mut attack = BranchScope::new(AttackConfig::for_profile(&profile)).unwrap();
        let read = attack.read_bit(&mut sys, spy, target, |sys| {
            sys.cpu(victim).branch_at(0x6d, Outcome::from_bool(secret));
        });
        prop_assert_eq!(read, Outcome::from_bool(secret));
    }
}
