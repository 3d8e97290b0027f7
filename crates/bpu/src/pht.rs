//! The pattern history table: an array of saturating-counter FSMs.

use crate::counter::{saturating_step, Counter, CounterKind, Outcome, PhtState};
use rand::Rng;

/// A pattern history table (PHT) — `size` saturating counters.
///
/// Both component predictors of the hybrid BPU store their direction history
/// in a PHT; they differ only in how the PHT is indexed (paper §2). The
/// table size must be a power of two (real PHTs are; the paper
/// reverse-engineers 2^14 entries on its experimental machine, Fig. 5b).
/// Entries are packed as raw `u8` levels with the counter kind held once
/// per table; [`Counter`] is the per-entry value, built on read.
///
/// ```
/// use bscope_bpu::{CounterKind, Outcome, PatternHistoryTable, PhtState};
///
/// let mut pht = PatternHistoryTable::new(16_384, CounterKind::TwoBit);
/// let idx = pht.index_of(0x30_0000);
/// pht.update(idx, Outcome::Taken);
/// pht.update(idx, Outcome::Taken);
/// assert_eq!(pht.state(idx), PhtState::StronglyTaken);
/// ```
#[derive(Debug, Clone)]
pub struct PatternHistoryTable {
    /// Raw counter level of each entry; every entry shares `kind`.
    levels: Vec<u8>,
    kind: CounterKind,
    /// `kind`'s maximum level, held once so the update is a clamp.
    max_level: u8,
    mask: u64,
}

impl PatternHistoryTable {
    /// Creates a PHT of `size` counters of the given kind, all initialised
    /// weakly not-taken.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or not a power of two.
    #[must_use]
    pub fn new(size: usize, kind: CounterKind) -> Self {
        assert!(size.is_power_of_two(), "PHT size must be a power of two, got {size}");
        let fresh = Counter::new(kind);
        PatternHistoryTable {
            levels: vec![fresh.level(); size],
            kind,
            max_level: fresh.max_level(),
            mask: (size - 1) as u64,
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Maps an arbitrary table-index key to an entry index.
    ///
    /// The PHT index is the key modulo the table size — the byte-granular
    /// modulo indexing the paper establishes in §6.3 / Fig. 5.
    #[inline]
    #[must_use]
    pub fn index_of(&self, key: u64) -> usize {
        (key & self.mask) as usize
    }

    /// Predicted direction of the entry at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    #[must_use]
    pub fn predict(&self, index: usize) -> Outcome {
        self.counter(index).predict()
    }

    /// Advances the FSM at `index` with a resolved outcome.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn update(&mut self, index: usize, outcome: Outcome) {
        let level = &mut self.levels[index];
        *level = saturating_step(*level, self.max_level, outcome);
    }

    /// Architectural state of the entry at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[must_use]
    pub fn state(&self, index: usize) -> PhtState {
        self.counter(index).state()
    }

    /// The counter at `index` (tests and reverse-engineering tooling).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    #[must_use]
    pub fn counter(&self, index: usize) -> Counter {
        Counter::from_level(self.kind, self.levels[index])
    }

    /// Forces the entry at `index` into an architectural state.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn set_state(&mut self, index: usize, state: PhtState) {
        self.levels[index] = self.kind.counter_in(state).level();
    }

    /// Resets every entry to weakly not-taken (what a flush mitigation or a
    /// simulated machine reset does).
    pub fn reset(&mut self) {
        self.levels.fill(Counter::new(self.kind).level());
    }

    /// Scrambles every entry into a uniformly random architectural state.
    ///
    /// Models the aggregate effect of unrelated system activity on PHT
    /// contents; also used to set up "dirty" initial conditions in tests.
    pub fn scramble<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let levels = PhtState::ALL.map(|state| self.kind.counter_in(state).level());
        for level in &mut self.levels {
            *level = levels[rng.gen_range(0..4)];
        }
    }

    /// Iterator over the architectural states of all entries.
    pub fn states(&self) -> impl Iterator<Item = PhtState> + '_ {
        (0..self.len()).map(|i| self.state(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn index_wraps_modulo_size() {
        let pht = PatternHistoryTable::new(1024, CounterKind::TwoBit);
        assert_eq!(pht.index_of(0), 0);
        assert_eq!(pht.index_of(1024), 0);
        assert_eq!(pht.index_of(1025), 1);
        assert_eq!(pht.index_of(0x30_0000 + 7), pht.index_of(7));
    }

    #[test]
    fn byte_granularity_adjacent_addresses_differ() {
        // Fig. 5a: adjacent virtual addresses map to different PHT entries.
        let pht = PatternHistoryTable::new(16_384, CounterKind::TwoBit);
        assert_ne!(pht.index_of(0x30_0000), pht.index_of(0x30_0001));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = PatternHistoryTable::new(1000, CounterKind::TwoBit);
    }

    #[test]
    fn update_and_state_roundtrip() {
        let mut pht = PatternHistoryTable::new(64, CounterKind::TwoBit);
        pht.set_state(3, PhtState::StronglyTaken);
        assert_eq!(pht.state(3), PhtState::StronglyTaken);
        assert_eq!(pht.predict(3), Outcome::Taken);
        pht.update(3, Outcome::NotTaken);
        assert_eq!(pht.state(3), PhtState::WeaklyTaken);
        // Unrelated entries untouched.
        assert_eq!(pht.state(4), PhtState::WeaklyNotTaken);
    }

    #[test]
    fn reset_restores_default_state() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut pht = PatternHistoryTable::new(256, CounterKind::SkylakeAsymmetric);
        pht.scramble(&mut rng);
        pht.reset();
        assert!(pht.states().all(|s| s == PhtState::WeaklyNotTaken));
    }

    #[test]
    fn scramble_is_deterministic_per_seed() {
        let mut a = PatternHistoryTable::new(512, CounterKind::TwoBit);
        let mut b = PatternHistoryTable::new(512, CounterKind::TwoBit);
        a.scramble(&mut StdRng::seed_from_u64(42));
        b.scramble(&mut StdRng::seed_from_u64(42));
        assert!(a.states().eq(b.states()));
    }

    /// The textbook transition, written out as the reference the packed
    /// levels are checked against.
    fn reference_step(level: u8, max: u8, outcome: Outcome) -> u8 {
        match outcome {
            Outcome::Taken if level < max => level + 1,
            Outcome::Taken => level,
            Outcome::NotTaken => level.saturating_sub(1),
        }
    }

    /// Every counter kind × every level × both outcomes: a packed entry
    /// steps, predicts and reads back exactly like a standalone [`Counter`]
    /// and the reference transition, and leaves its neighbours alone.
    #[test]
    fn packed_levels_match_the_reference_counter() {
        for kind in [CounterKind::TwoBit, CounterKind::SkylakeAsymmetric] {
            let max = Counter::new(kind).max_level();
            for level in 0..=max {
                for outcome in [Outcome::NotTaken, Outcome::Taken] {
                    let mut pht = PatternHistoryTable::new(4, kind);
                    pht.levels[2] = level;
                    let mut reference = Counter::from_level(kind, level);
                    assert_eq!(pht.counter(2), reference);
                    assert_eq!(pht.state(2), reference.state(), "{kind:?} level {level}");
                    assert_eq!(pht.predict(2), reference.predict(), "{kind:?} level {level}");

                    pht.update(2, outcome);
                    reference.update(outcome);
                    let want = reference_step(level, max, outcome);
                    assert_eq!(reference.level(), want, "{kind:?} level {level} {outcome}");
                    assert_eq!(pht.counter(2), reference, "{kind:?} level {level} {outcome}");
                    assert_eq!(pht.state(2), reference.state());
                    assert_eq!(pht.predict(2), reference.predict());
                    for other in [0, 1, 3] {
                        assert_eq!(pht.counter(other), Counter::new(kind), "neighbour {other}");
                    }
                }
            }
        }
    }

    /// `set_state`, `reset` and `scramble` write the same levels a
    /// standalone counter holds in each architectural state.
    #[test]
    fn state_writes_round_trip_through_packed_levels() {
        for kind in [CounterKind::TwoBit, CounterKind::SkylakeAsymmetric] {
            let mut pht = PatternHistoryTable::new(256, kind);
            for (i, state) in PhtState::ALL.into_iter().enumerate() {
                pht.set_state(i, state);
                assert_eq!(pht.state(i), state);
                assert_eq!(pht.counter(i), kind.counter_in(state));
            }
            pht.scramble(&mut StdRng::seed_from_u64(3));
            let legal = PhtState::ALL.map(|s| kind.counter_in(s));
            assert!((0..pht.len()).all(|i| legal.contains(&pht.counter(i))));
            assert!(PhtState::ALL.iter().all(|s| pht.states().any(|t| t == *s)));
            pht.reset();
            assert!((0..pht.len()).all(|i| pht.counter(i) == Counter::new(kind)));
        }
    }

    #[test]
    fn scramble_touches_many_states() {
        let mut pht = PatternHistoryTable::new(4096, CounterKind::TwoBit);
        pht.scramble(&mut StdRng::seed_from_u64(1));
        let mut counts = [0usize; 4];
        for s in pht.states() {
            counts[PhtState::ALL.iter().position(|&x| x == s).unwrap()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 700, "state {i} appeared only {c} times");
        }
    }
}
