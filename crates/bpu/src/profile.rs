//! Microarchitecture profiles for the three CPUs evaluated in the paper.

use crate::counter::CounterKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The microarchitecture families the paper evaluates (§5, Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Microarch {
    /// Intel Sandy Bridge (i7-2600).
    SandyBridge,
    /// Intel Haswell (i7-4800MQ).
    Haswell,
    /// Intel Skylake (i5-6200U).
    Skylake,
    /// A user-defined configuration.
    Custom,
}

impl fmt::Display for Microarch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Microarch::SandyBridge => "Sandy Bridge",
            Microarch::Haswell => "Haswell",
            Microarch::Skylake => "Skylake",
            Microarch::Custom => "custom",
        })
    }
}

/// Branch-latency parameters of the simulated core, in cycles.
///
/// Calibrated so the timing experiments land in the ranges of the paper's
/// Figures 7–9: correctly-predicted branches measured via `rdtscp` average
/// ≈85 cycles, mispredicted ones ≈135, with tails up to ≈200 and a
/// pronounced extra cost + variance on the first (cold-cache) execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingParams {
    /// Mean measured latency of a correctly predicted, i-cache-warm branch
    /// (includes `rdtscp` serialisation overhead, as the paper measures).
    pub base_hit_cycles: f64,
    /// Mean extra cycles charged for a misprediction (pipeline restart).
    pub mispredict_penalty: f64,
    /// Standard deviation of the per-measurement Gaussian jitter.
    pub jitter_sigma: f64,
    /// Mean extra latency on a cold i-cache (first) execution.
    pub cold_miss_extra: f64,
    /// Extra jitter standard deviation applied to cold executions.
    pub cold_jitter_sigma: f64,
    /// Probability that a measurement catches an unrelated stall (interrupt,
    /// TLB walk, SMT contention) — models the heavy upper tail in Fig. 7.
    pub spike_probability: f64,
    /// Mean magnitude of such a spike, in cycles.
    pub spike_cycles: f64,
    /// Wall-clock cost of one branch in straight-line (untimed) code.
    /// Distinct from the measured latency above: a `rdtscp`-bracketed
    /// branch serialises the pipeline, while ordinary branches retire at
    /// throughput. This is what advances the core clock.
    pub throughput_cycles: f64,
    /// Extra wall-clock cycles a misprediction stalls the pipeline for.
    pub mispredict_stall: f64,
    /// Extra wall-clock cycles for an instruction-cache miss.
    pub cold_stall: f64,
    /// Extra measured cycles when a *taken* branch misses the BTB (front-end
    /// fetch redirect). This is the signal BTB-presence attacks time.
    pub btb_miss_taken_extra: f64,
    /// Wall-clock counterpart of the BTB-miss redirect bubble.
    pub btb_miss_taken_stall: f64,
}

impl TimingParams {
    /// Parameters matching the paper's measured latency distributions.
    #[must_use]
    pub fn paper_calibrated() -> Self {
        TimingParams {
            base_hit_cycles: 85.0,
            mispredict_penalty: 50.0,
            jitter_sigma: 27.0,
            cold_miss_extra: 22.0,
            cold_jitter_sigma: 26.0,
            spike_probability: 0.02,
            spike_cycles: 45.0,
            throughput_cycles: 2.0,
            mispredict_stall: 18.0,
            cold_stall: 30.0,
            btb_miss_taken_extra: 14.0,
            btb_miss_taken_stall: 8.0,
        }
    }
}

impl TimingParams {
    /// Validates the parameters: the spike probability must lie in
    /// `[0, 1]` and every cycle field must be finite and non-negative.
    ///
    /// # Errors
    ///
    /// Returns a description naming the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.spike_probability) {
            return Err(format!(
                "timing.spike_probability {} is not within [0, 1]",
                self.spike_probability
            ));
        }
        let cycles = [
            ("base_hit_cycles", self.base_hit_cycles),
            ("mispredict_penalty", self.mispredict_penalty),
            ("jitter_sigma", self.jitter_sigma),
            ("cold_miss_extra", self.cold_miss_extra),
            ("cold_jitter_sigma", self.cold_jitter_sigma),
            ("spike_cycles", self.spike_cycles),
            ("throughput_cycles", self.throughput_cycles),
            ("mispredict_stall", self.mispredict_stall),
            ("cold_stall", self.cold_stall),
            ("btb_miss_taken_extra", self.btb_miss_taken_extra),
            ("btb_miss_taken_stall", self.btb_miss_taken_stall),
        ];
        match cycles.into_iter().find(|&(_, v)| !(v.is_finite() && v >= 0.0)) {
            Some((field, value)) => {
                Err(format!("timing.{field} {value} is not a finite, non-negative cycle count"))
            }
            None => Ok(()),
        }
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams::paper_calibrated()
    }
}

/// Full configuration of a simulated branch prediction unit.
///
/// The concrete geometries of Intel BPUs are undocumented; the paper only
/// reverse-engineers what the attack needs (a 2^14-entry PHT with byte-
/// granular modulo indexing on its Skylake machine, larger predictor tables
/// on Skylake/Haswell than Sandy Bridge explaining their lower error rates,
/// and the Skylake counter quirk). The profiles below encode exactly those
/// findings and otherwise use representative sizes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MicroarchProfile {
    /// Which family this profile models.
    pub arch: Microarch,
    /// Entries in each component PHT (power of two).
    pub pht_size: usize,
    /// Saturating-counter flavour used by the PHTs.
    pub counter_kind: CounterKind,
    /// Global history register length in bits.
    pub ghr_bits: u32,
    /// Selector (chooser) table entries (power of two).
    pub selector_size: usize,
    /// BTB sets (power of two).
    pub btb_size: usize,
    /// Branch latency model parameters.
    pub timing: TimingParams,
}

impl MicroarchProfile {
    /// Skylake (i5-6200U): 2^14-entry PHT (Fig. 5b), asymmetric counter
    /// (Table 1 footnote), slightly faster pattern learning than the older
    /// parts (Fig. 2) — modelled with a shorter effective history that
    /// warms up in fewer pattern repetitions.
    #[must_use]
    pub fn skylake() -> Self {
        MicroarchProfile {
            arch: Microarch::Skylake,
            pht_size: 16_384,
            counter_kind: CounterKind::SkylakeAsymmetric,
            ghr_bits: 12,
            selector_size: 4_096,
            btb_size: 4_096,
            timing: TimingParams::paper_calibrated(),
        }
    }

    /// Haswell (i7-4800MQ): textbook counter, large tables — error rates on
    /// par with Skylake in Table 2.
    #[must_use]
    pub fn haswell() -> Self {
        MicroarchProfile {
            arch: Microarch::Haswell,
            pht_size: 16_384,
            counter_kind: CounterKind::TwoBit,
            ghr_bits: 14,
            selector_size: 4_096,
            btb_size: 4_096,
            timing: TimingParams::paper_calibrated(),
        }
    }

    /// Sandy Bridge (i7-2600): textbook counter with smaller predictor
    /// tables — the paper attributes its markedly higher Table 2 error rates
    /// to the smaller tables of the older design (§7).
    #[must_use]
    pub fn sandy_bridge() -> Self {
        MicroarchProfile {
            arch: Microarch::SandyBridge,
            pht_size: 4_096,
            counter_kind: CounterKind::TwoBit,
            ghr_bits: 14,
            selector_size: 1_024,
            btb_size: 2_048,
            timing: TimingParams::paper_calibrated(),
        }
    }

    /// Profile for an arch enum value.
    ///
    /// # Panics
    ///
    /// Panics if `arch` is [`Microarch::Custom`]; build those by hand.
    #[must_use]
    pub fn for_arch(arch: Microarch) -> Self {
        match arch {
            Microarch::SandyBridge => Self::sandy_bridge(),
            Microarch::Haswell => Self::haswell(),
            Microarch::Skylake => Self::skylake(),
            Microarch::Custom => panic!("custom profiles must be constructed explicitly"),
        }
    }

    /// The three paper-evaluated profiles, in paper order (Table 2 lists
    /// Skylake, Haswell, Sandy Bridge).
    #[must_use]
    pub fn paper_machines() -> [MicroarchProfile; 3] {
        [Self::skylake(), Self::haswell(), Self::sandy_bridge()]
    }

    /// Validates internal consistency (power-of-two tables, sane GHR) and
    /// the timing parameters ([`TimingParams::validate`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.pht_size.is_power_of_two() {
            return Err(format!("pht_size {} is not a power of two", self.pht_size));
        }
        if !self.selector_size.is_power_of_two() {
            return Err(format!("selector_size {} is not a power of two", self.selector_size));
        }
        if !self.btb_size.is_power_of_two() {
            return Err(format!("btb_size {} is not a power of two", self.btb_size));
        }
        if !(1..=64).contains(&self.ghr_bits) {
            return Err(format!("ghr_bits {} out of range 1..=64", self.ghr_bits));
        }
        self.timing.validate()
    }
}

impl Default for MicroarchProfile {
    fn default() -> Self {
        MicroarchProfile::skylake()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profiles_validate() {
        for p in MicroarchProfile::paper_machines() {
            p.validate().unwrap();
        }
    }

    #[test]
    fn skylake_uses_asymmetric_counter() {
        assert_eq!(MicroarchProfile::skylake().counter_kind, CounterKind::SkylakeAsymmetric);
        assert_eq!(MicroarchProfile::haswell().counter_kind, CounterKind::TwoBit);
        assert_eq!(MicroarchProfile::sandy_bridge().counter_kind, CounterKind::TwoBit);
    }

    #[test]
    fn skylake_pht_matches_reverse_engineered_size() {
        // Fig. 5b: Hamming minimum at window 2^14 ⇒ 16 384 entries.
        assert_eq!(MicroarchProfile::skylake().pht_size, 16_384);
    }

    #[test]
    fn sandy_bridge_tables_are_smaller() {
        let sb = MicroarchProfile::sandy_bridge();
        let sl = MicroarchProfile::skylake();
        assert!(sb.pht_size < sl.pht_size);
        assert!(sb.btb_size < sl.btb_size);
    }

    #[test]
    fn validate_catches_bad_geometry() {
        let mut p = MicroarchProfile::skylake();
        p.pht_size = 1000;
        assert!(p.validate().is_err());
        let mut p = MicroarchProfile::skylake();
        p.ghr_bits = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_a_spike_probability_outside_the_unit_interval() {
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let mut p = MicroarchProfile::haswell();
            p.timing.spike_probability = bad;
            let err = p.validate().unwrap_err();
            assert!(err.contains("timing.spike_probability"), "{bad}: {err}");
        }
        for ok in [0.0, 1.0] {
            let mut p = MicroarchProfile::haswell();
            p.timing.spike_probability = ok;
            p.validate().unwrap();
        }
    }

    #[test]
    fn validate_rejects_negative_or_non_finite_cycle_fields() {
        type Setter = fn(&mut TimingParams, f64);
        let fields: [(&str, Setter); 11] = [
            ("base_hit_cycles", |t, v| t.base_hit_cycles = v),
            ("mispredict_penalty", |t, v| t.mispredict_penalty = v),
            ("jitter_sigma", |t, v| t.jitter_sigma = v),
            ("cold_miss_extra", |t, v| t.cold_miss_extra = v),
            ("cold_jitter_sigma", |t, v| t.cold_jitter_sigma = v),
            ("spike_cycles", |t, v| t.spike_cycles = v),
            ("throughput_cycles", |t, v| t.throughput_cycles = v),
            ("mispredict_stall", |t, v| t.mispredict_stall = v),
            ("cold_stall", |t, v| t.cold_stall = v),
            ("btb_miss_taken_extra", |t, v| t.btb_miss_taken_extra = v),
            ("btb_miss_taken_stall", |t, v| t.btb_miss_taken_stall = v),
        ];
        for (field, set) in fields {
            for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut p = MicroarchProfile::skylake();
                set(&mut p.timing, bad);
                let err = p.validate().unwrap_err();
                assert!(err.contains(&format!("timing.{field} ")), "{field} = {bad}: {err}");
            }
            let mut p = MicroarchProfile::skylake();
            set(&mut p.timing, 0.0);
            p.validate().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "timing.spike_probability")]
    fn backend_build_rejects_invalid_timing() {
        let mut p = MicroarchProfile::sandy_bridge();
        p.timing.spike_probability = f64::NAN;
        let _ = crate::BackendKind::Hybrid.build(p);
    }

    #[test]
    fn for_arch_round_trips() {
        for arch in [Microarch::SandyBridge, Microarch::Haswell, Microarch::Skylake] {
            assert_eq!(MicroarchProfile::for_arch(arch).arch, arch);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Microarch::SandyBridge.to_string(), "Sandy Bridge");
        assert_eq!(Microarch::Skylake.to_string(), "Skylake");
    }
}
