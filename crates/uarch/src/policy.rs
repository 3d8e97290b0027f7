//! Hardware mitigation hooks (paper §10.2).
//!
//! The hardware defenses the paper proposes all intervene in the same two
//! places: how a branch address is mapped to predictor state (PHT index
//! randomization, BPU partitioning) and whether a branch engages the
//! predictor at all (no-prediction for flagged sensitive branches).
//! [`BpuPolicy`] exposes exactly those two decision points to the core;
//! concrete policies live in the `bscope-mitigations` crate.

use crate::config::ConfigError;
use crate::core_impl::ContextId;
use crate::timing::GaussianDraw;
use bscope_bpu::VirtAddr;
use rand::Rng;

/// A hardware-level branch prediction policy installed on a core.
///
/// Each default method behaves like the unmitigated machine: identity
/// index mapping and every branch predicted dynamically. A core without a
/// policy installed makes none of these calls.
pub trait BpuPolicy: std::fmt::Debug + Send {
    /// The address presented to the predictor structures for a branch of
    /// context `ctx` at architectural address `addr`. Index randomization
    /// and partitioning override this.
    fn index_addr(&self, ctx: ContextId, addr: VirtAddr) -> VirtAddr {
        let _ = ctx;
        addr
    }

    /// Whether this branch must bypass the predictor entirely: statically
    /// predicted not-taken and no BPU state updated ("the CPU must avoid
    /// predicting these branches, rely always on static prediction and
    /// avoid updating any BPU structures", §10.2).
    fn bypass_prediction(&self, ctx: ContextId, addr: VirtAddr) -> bool {
        let _ = (ctx, addr);
        false
    }

    /// Invoked once per executed branch with the current cycle count;
    /// periodic-rerandomization policies re-key here.
    fn on_branch(&mut self, tsc: u64) {
        let _ = tsc;
    }

    /// Whether this branch's *update* to the predictor state should be
    /// suppressed. Returning `true` stochastically implements the paper's
    /// "change the prediction FSM to make it more stochastic" defense
    /// (§10.2): the FSM still predicts, but its transitions no longer
    /// deterministically follow the observed outcomes, so the attacker can
    /// no longer map probe patterns back to the victim's direction.
    fn suppress_update(&mut self, ctx: ContextId, addr: VirtAddr) -> bool {
        let _ = (ctx, addr);
        false
    }
}

/// Measurement-channel fuzzing (§10.2 "Other solutions"): degrade the
/// attacker's ability to observe branch outcomes by adding noise to the
/// performance counters and the timing measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasurementFuzz {
    /// Probability that a branch's misprediction bit is recorded flipped
    /// in the performance counters.
    pub counter_flip_probability: f64,
    /// Additional Gaussian jitter (standard deviation, cycles) added to
    /// every measured latency.
    pub extra_timing_sigma: f64,
}

impl MeasurementFuzz {
    /// A configuration strong enough to defeat single-shot probing.
    #[must_use]
    pub fn strong() -> Self {
        MeasurementFuzz { counter_flip_probability: 0.35, extra_timing_sigma: 60.0 }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ConfigError`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(0.0..=1.0).contains(&self.counter_flip_probability) {
            return Err(ConfigError::OutOfRange {
                config: "MeasurementFuzz",
                field: "counter_flip_probability",
                value: self.counter_flip_probability,
                constraint: "within [0, 1]",
            });
        }
        if !self.extra_timing_sigma.is_finite() || self.extra_timing_sigma < 0.0 {
            return Err(ConfigError::OutOfRange {
                config: "MeasurementFuzz",
                field: "extra_timing_sigma",
                value: self.extra_timing_sigma,
                constraint: "finite and >= 0",
            });
        }
        Ok(())
    }

    /// Applies counter fuzz to a misprediction flag.
    pub(crate) fn fuzz_miss<R: Rng + ?Sized>(&self, rng: &mut R, mispredicted: bool) -> bool {
        if self.counter_flip_probability > 0.0 && rng.gen_bool(self.counter_flip_probability) {
            !mispredicted
        } else {
            mispredicted
        }
    }

    /// Applies timing fuzz to a measured latency; draws a Gaussian's two
    /// words unless `extra_timing_sigma` is zero.
    pub(crate) fn jitter_latency<R: Rng + ?Sized>(&self, rng: &mut R, latency: u64) -> u64 {
        if self.extra_timing_sigma == 0.0 {
            return latency;
        }
        let jitter = self.extra_timing_sigma * GaussianDraw::draw(rng).value();
        (latency as f64 + jitter).max(1.0).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fuzz_flips_at_configured_rate() {
        let fuzz = MeasurementFuzz { counter_flip_probability: 0.5, extra_timing_sigma: 0.0 };
        let mut rng = StdRng::seed_from_u64(1);
        let flips = (0..10_000).filter(|_| fuzz.fuzz_miss(&mut rng, false)).count();
        assert!((4_000..6_000).contains(&flips), "flips {flips}");
    }

    #[test]
    fn zero_fuzz_is_transparent() {
        let fuzz = MeasurementFuzz { counter_flip_probability: 0.0, extra_timing_sigma: 0.0 };
        let mut rng = StdRng::seed_from_u64(2);
        assert!(fuzz.fuzz_miss(&mut rng, true));
        assert!(!fuzz.fuzz_miss(&mut rng, false));
        let untouched = rng.clone();
        assert_eq!(fuzz.jitter_latency(&mut rng, 120), 120);
        assert_eq!(rng, untouched, "zero sigma draws no words");
    }

    #[test]
    fn validate_bounds() {
        MeasurementFuzz::strong().validate().unwrap();
        assert!(MeasurementFuzz { counter_flip_probability: 1.5, extra_timing_sigma: 0.0 }
            .validate()
            .is_err());
        assert!(MeasurementFuzz { counter_flip_probability: 0.0, extra_timing_sigma: -1.0 }
            .validate()
            .is_err());
    }
}
