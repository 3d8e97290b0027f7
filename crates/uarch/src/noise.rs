//! Background (SMT sibling / system) activity configuration.

use crate::config::ConfigError;
use rand::RngCore;
use std::ops::Range;

/// Configuration of background branch activity sharing the core's BPU.
///
/// Models the two measurement environments of Tables 2 and 3. Background
/// activity is **time-based**: the sibling context executes unrelated
/// conditional branches at a mean rate per 1 000 cycles of wall-clock,
/// regardless of what the foreground thread is doing. The exposure that
/// matters to the attack is therefore proportional to *elapsed time* — the
/// randomization block, the spy's `usleep` while waiting for the victim
/// (Listing 3), and the probe itself — exactly as on real SMT hardware.
///
/// Background branches perturb the shared PHT/BTB/GHR but not the
/// foreground thread's performance counters, which are per-logical-CPU.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseConfig {
    /// Mean background branches per 1 000 cycles (Poisson-distributed), at
    /// most [`NoiseConfig::MAX_BRANCHES_PER_KCYCLE`].
    pub branches_per_kcycle: f64,
    /// Virtual address range the background branches are drawn from.
    pub addr_range: Range<u64>,
    /// Probability that a background branch is taken.
    pub taken_bias: f64,
}

impl NoiseConfig {
    /// Largest accepted rate: one background branch per cycle.
    pub const MAX_BRANCHES_PER_KCYCLE: f64 = 1_000.0;

    /// An ordinary multi-tasking system with the sibling hardware thread
    /// lightly loaded — the "with noise" rows of Table 2.
    #[must_use]
    pub fn system_activity() -> Self {
        NoiseConfig {
            branches_per_kcycle: 8.0,
            addr_range: 0x7f00_0000_0000..0x7f00_0010_0000,
            taken_bias: 0.55,
        }
    }

    /// An isolated physical core: no other user processes, only residual
    /// kernel activity (timer ticks, IPIs) — the "isolated" rows of
    /// Table 2, which still show a small non-zero error rate.
    #[must_use]
    pub fn isolated_core() -> Self {
        NoiseConfig { branches_per_kcycle: 3.0, ..NoiseConfig::system_activity() }
    }

    /// Heavy interference (stress test; beyond the paper's settings).
    #[must_use]
    pub fn heavy() -> Self {
        NoiseConfig { branches_per_kcycle: 40.0, ..NoiseConfig::system_activity() }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ConfigError`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(0.0..=Self::MAX_BRANCHES_PER_KCYCLE).contains(&self.branches_per_kcycle) {
            return Err(ConfigError::OutOfRange {
                config: "NoiseConfig",
                field: "branches_per_kcycle",
                value: self.branches_per_kcycle,
                constraint: "within [0, 1000] (at most one branch per cycle)",
            });
        }
        if self.addr_range.is_empty() {
            return Err(ConfigError::EmptyAddrRange { config: "NoiseConfig", field: "addr_range" });
        }
        if !(0.0..=1.0).contains(&self.taken_bias) {
            return Err(ConfigError::OutOfRange {
                config: "NoiseConfig",
                field: "taken_bias",
                value: self.taken_bias,
                constraint: "within [0, 1]",
            });
        }
        Ok(())
    }
}

/// Largest expected arrival count applied in one multiply of a long wait,
/// so the survival product cannot underflow to zero there.
const MAX_STEP_LAMBDA: f64 = 32.0;

/// The survival product is rescaled once it falls below this (2⁻²⁵⁶)…
const RESCALE_BELOW: f64 = f64::from_bits(0x2FF0_0000_0000_0000);

/// …by this exact power of two (2²⁵⁶), together with the threshold.
const RESCALE: f64 = f64::from_bits(0x4FF0_0000_0000_0000);

/// Background-branch arrivals: a Poisson process in simulated time, drawn
/// with Knuth's product method spread over the run.
///
/// The process carries a survival product `S = exp(-Λ)`, where `Λ` is the
/// expected arrival count since it started, and a threshold `T`, a running
/// product of uniforms. Each noise check multiplies `S` by `exp(-λ)` for
/// the cycles elapsed since the previous check; while `S < T`, one branch
/// arrives and `T` is multiplied by a fresh uniform. So `-ln T` walks the
/// partial sums of unit exponentials and `-ln S = Λ` crosses them: exactly
/// a Poisson process, whose count over any interval is Poisson.
/// A check without an arrival draws no random word; each arrival draws
/// one, however long the wait.
///
/// Three invariants keep `S` and `T` normal floats: uniforms are bounded
/// away from zero ([`open_unit`]); waits beyond the decay table are applied
/// in steps of at most [`MAX_STEP_LAMBDA`]; and once `S` falls below
/// [`RESCALE_BELOW`] both are multiplied by [`RESCALE`], which changes no
/// comparison.
#[derive(Debug, Clone)]
pub(crate) struct NoiseProcess {
    branches_per_kcycle: f64,
    /// `exp(-λ)` for every elapsed-cycle count up to the longest
    /// single-branch clock advance.
    decay: Box<[f64]>,
    survival: f64,
    threshold: f64,
    last_tsc: u64,
}

impl NoiseProcess {
    /// The process of `cfg`'s rate, starting at `tsc`: draws the first
    /// threshold and tabulates the decay of every gap up to `max_step`
    /// cycles (one branch's largest clock advance).
    pub(crate) fn new<R: RngCore + ?Sized>(
        cfg: &NoiseConfig,
        max_step: u64,
        tsc: u64,
        rng: &mut R,
    ) -> Self {
        let rate = cfg.branches_per_kcycle;
        NoiseProcess {
            branches_per_kcycle: rate,
            decay: (0..=max_step).map(|e| (-lambda(rate, e)).exp()).collect(),
            survival: 1.0,
            threshold: open_unit(rng.next_u64()),
            last_tsc: tsc,
        }
    }

    /// Branches that arrived between the previous check and `tsc`.
    #[inline]
    pub(crate) fn arrivals<R: RngCore + ?Sized>(&mut self, tsc: u64, rng: &mut R) -> usize {
        let elapsed = tsc - self.last_tsc;
        self.last_tsc = tsc;
        match self.decay.get(elapsed as usize) {
            Some(&decay) => self.decay_by(decay, rng),
            None => self.long_wait(elapsed, rng),
        }
    }

    #[inline]
    fn decay_by<R: RngCore + ?Sized>(&mut self, decay: f64, rng: &mut R) -> usize {
        self.survival *= decay;
        if self.survival < self.threshold {
            self.arrive(rng)
        } else {
            0
        }
    }

    /// A wait longer than the table, in steps of at most
    /// [`MAX_STEP_LAMBDA`] expected arrivals.
    #[cold]
    #[inline(never)]
    fn long_wait<R: RngCore + ?Sized>(&mut self, elapsed: u64, rng: &mut R) -> usize {
        let mut lambda = lambda(self.branches_per_kcycle, elapsed);
        let mut n = 0;
        while lambda > 0.0 {
            let step = lambda.min(MAX_STEP_LAMBDA);
            lambda -= step;
            n += self.decay_by((-step).exp(), rng);
        }
        n
    }

    #[cold]
    #[inline(never)]
    fn arrive<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> usize {
        let mut n = 0;
        while self.survival < self.threshold {
            n += 1;
            self.threshold *= open_unit(rng.next_u64());
        }
        if self.survival < RESCALE_BELOW {
            self.survival *= RESCALE;
            self.threshold *= RESCALE;
        }
        n
    }
}

/// The mean arrival count over `elapsed` cycles.
fn lambda(branches_per_kcycle: f64, elapsed: u64) -> f64 {
    branches_per_kcycle * elapsed as f64 / 1_000.0
}

/// A uniform in `(0, 1]` from the top 53 bits of `word`: never zero, so a
/// threshold never collapses to zero and silences the noise for good.
fn open_unit(word: u64) -> f64 {
    ((word >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TimingModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const PRESETS: [fn() -> NoiseConfig; 3] =
        [NoiseConfig::isolated_core, NoiseConfig::system_activity, NoiseConfig::heavy];

    /// One branch's largest clock advance under the default timing.
    fn max_step() -> u64 {
        TimingModel::default().advance_with_btb(true, true, true)
    }

    /// Asserts that `counts` are draws of a Poisson law of mean `mean`:
    /// the sample mean within five standard errors of `mean`, and the
    /// sample variance within five standard errors of `mean` too (a
    /// Poisson variance equals its mean; the variance estimate's standard
    /// error is `sqrt((μ + 2μ²) / N)`).
    fn assert_poisson(counts: &[usize], mean: f64, what: &str) {
        let n = counts.len() as f64;
        let m = counts.iter().sum::<usize>() as f64 / n;
        let v = counts.iter().map(|&c| (c as f64 - m).powi(2)).sum::<f64>() / (n - 1.0);
        let mean_bound = 5.0 * (mean / n).sqrt();
        let var_bound = 5.0 * ((mean + 2.0 * mean * mean) / n).sqrt();
        assert!((m - mean).abs() <= mean_bound, "{what}: mean {m} vs {mean} ± {mean_bound}");
        assert!((v - mean).abs() <= var_bound, "{what}: variance {v} vs {mean} ± {var_bound}");
    }

    /// The decay table holds `exp(-λ)` of every gap it covers.
    #[test]
    fn decay_table_matches_the_expression() {
        for preset in PRESETS {
            let cfg = preset();
            let p = NoiseProcess::new(&cfg, max_step(), 0, &mut StdRng::seed_from_u64(1));
            assert_eq!(p.decay.len() as u64, max_step() + 1);
            for (elapsed, &decay) in (0..).zip(p.decay.iter()) {
                let mean = cfg.branches_per_kcycle * elapsed as f64 / 1_000.0;
                assert_eq!(decay, (-mean).exp(), "elapsed {elapsed}");
            }
        }
    }

    /// For each preset, arrival counts are Poisson with the configured
    /// rate: summed over windows of per-branch gaps (every gap from 2 to
    /// 58 cycles once per window), and over single waits far beyond the
    /// table. Both run well past the rescale point.
    #[test]
    fn arrivals_are_poisson_for_every_preset() {
        for preset in PRESETS {
            let cfg = preset();
            let rate = cfg.branches_per_kcycle / 1_000.0;
            let mut rng = StdRng::seed_from_u64(cfg.branches_per_kcycle.to_bits());
            let mut p = NoiseProcess::new(&cfg, max_step(), 0, &mut rng);
            let mut tsc = 0;
            let gaps: Vec<u64> = (0..57).map(|i| 2 + (i * 7) % 57).collect();
            let windows: Vec<usize> = (0..4_000)
                .map(|_| {
                    gaps.iter()
                        .map(|g| {
                            tsc += g;
                            p.arrivals(tsc, &mut rng)
                        })
                        .sum()
                })
                .collect();
            let window_cycles: u64 = gaps.iter().sum();
            assert_poisson(&windows, rate * window_cycles as f64, "per-branch gaps");

            let wait = 100_000;
            assert!(wait > max_step() && rate * wait as f64 > MAX_STEP_LAMBDA);
            let waits: Vec<usize> = (0..400)
                .map(|_| {
                    tsc += wait;
                    p.arrivals(tsc, &mut rng)
                })
                .collect();
            assert_poisson(&waits, rate * wait as f64, "long waits");
            assert!(p.survival.is_normal() && p.threshold.is_normal());
        }
    }

    /// Rescaling by an exact power of two changes no comparison: a process
    /// started 2⁻²⁰⁰ lower crosses the rescale point at other times, yet
    /// yields the same arrivals from the same words.
    #[test]
    fn rescaling_is_exact() {
        let cfg = NoiseConfig::heavy();
        let run = |scale: f64| {
            let mut rng = StdRng::seed_from_u64(9);
            let mut p = NoiseProcess::new(&cfg, max_step(), 0, &mut rng);
            p.survival *= scale;
            p.threshold *= scale;
            let mut tsc = 0;
            let mut rescaled_at = Vec::new();
            let counts: Vec<usize> = (0..20_000)
                .map(|i| {
                    tsc += if i % 5 == 0 { 2_000 } else { 31 };
                    let before = p.survival;
                    let n = p.arrivals(tsc, &mut rng);
                    if p.survival > before {
                        rescaled_at.push(i);
                    }
                    n
                })
                .collect();
            (counts, rescaled_at)
        };
        let (plain, plain_rescales) = run(1.0);
        let (low, low_rescales) = run(f64::from_bits(0x3370_0000_0000_0000)); // 2^-200
        assert!(plain_rescales.len() > 10 && low_rescales.len() > 10);
        assert_ne!(plain_rescales[0], low_rescales[0], "the rescale points differ");
        assert_eq!(plain, low);
    }

    /// Uniforms never reach zero, and the threshold stays positive even
    /// for the all-zero word.
    #[test]
    fn uniforms_are_bounded_away_from_zero() {
        assert_eq!(open_unit(0), 1.0 / (1u64 << 53) as f64);
        assert_eq!(open_unit(u64::MAX), 1.0);
        let mut zeros = rand::rngs::mock::StepRng::new(0, 0);
        let mut p = NoiseProcess::new(&NoiseConfig::heavy(), max_step(), 0, &mut zeros);
        assert!(p.threshold > 0.0);
        // Every word zero: each arrival shrinks the threshold by 2^-53, the
        // least any arrival can; the process keeps firing.
        assert!(p.arrivals(10_000, &mut zeros) > 0);
        assert!(p.arrivals(20_000, &mut zeros) > 0 && p.threshold > 0.0);
    }

    #[test]
    fn presets_validate_and_order_sensibly() {
        for cfg in [NoiseConfig::system_activity(), NoiseConfig::isolated_core(), NoiseConfig::heavy()]
        {
            cfg.validate().unwrap();
        }
        assert!(
            NoiseConfig::isolated_core().branches_per_kcycle
                < NoiseConfig::system_activity().branches_per_kcycle
        );
        assert!(
            NoiseConfig::system_activity().branches_per_kcycle
                < NoiseConfig::heavy().branches_per_kcycle
        );
    }

    #[test]
    fn validate_rejects_bad_fields_with_typed_errors() {
        let mut c = NoiseConfig::system_activity();
        c.branches_per_kcycle = -1.0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::OutOfRange { field: "branches_per_kcycle", .. })
        ));

        for rate in [1_000.1, 1e300, f64::INFINITY, f64::NAN] {
            let c = NoiseConfig { branches_per_kcycle: rate, ..NoiseConfig::system_activity() };
            let err = c.validate().unwrap_err();
            assert!(matches!(err, ConfigError::OutOfRange { field: "branches_per_kcycle", .. }));
            assert!(err.to_string().contains("at most one branch per cycle"), "{err}");
        }
        let one_per_cycle = NoiseConfig {
            branches_per_kcycle: NoiseConfig::MAX_BRANCHES_PER_KCYCLE,
            ..NoiseConfig::system_activity()
        };
        one_per_cycle.validate().unwrap();

        let mut c = NoiseConfig::system_activity();
        c.addr_range = 5..5;
        assert!(matches!(c.validate(), Err(ConfigError::EmptyAddrRange { .. })));

        let mut c = NoiseConfig::system_activity();
        c.taken_bias = 1.5;
        let err = c.validate().unwrap_err();
        assert!(matches!(err, ConfigError::OutOfRange { field: "taken_bias", .. }));
        assert!(err.to_string().contains("taken_bias"), "message names the field: {err}");
    }
}
