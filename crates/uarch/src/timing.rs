//! Per-branch latency model.

use bscope_bpu::TimingParams;
use rand::Rng;

/// Samples measured branch latencies.
///
/// The paper measures single branch instructions with back-to-back `rdtscp`
/// (§8, Fig. 7): correctly predicted branches average ≈85 cycles (including
/// measurement overhead), mispredicted ones sit ≈50 cycles higher, both with
/// substantial jitter and a heavy upper tail from unrelated stalls, and the
/// *first* (i-cache-cold) execution is slower and noisier — which is why the
/// paper's attacker discards the first measurement (Fig. 8).
///
/// Latencies are sampled from a Gaussian with parameters from
/// [`TimingParams`], plus an occasional exponential-ish spike.
#[derive(Debug, Clone)]
pub struct TimingModel {
    params: TimingParams,
    /// [`TimingModel::advance_with_btb`] for every flag combination,
    /// indexed by [`advance_index`].
    advance: [u64; 8],
}

impl TimingModel {
    /// Model with the given parameters.
    #[must_use]
    pub fn new(params: TimingParams) -> Self {
        let advance = std::array::from_fn(|i| {
            advance_cycles(&params, i & 1 != 0, i & 2 != 0, i & 4 != 0)
        });
        TimingModel { params, advance }
    }

    /// The parameters in use.
    #[must_use]
    pub fn params(&self) -> &TimingParams {
        &self.params
    }

    /// Samples a measured latency for one branch execution.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, mispredicted: bool, cold: bool) -> u64 {
        self.sample_with_btb(rng, mispredicted, cold, false)
    }

    /// Samples a measured latency, additionally charging the front-end
    /// fetch-redirect bubble of a taken branch that missed the BTB — the
    /// signal prior BTB-presence attacks time (§11). Draws the two Gaussian
    /// uniforms, the spike decision and, when the spike fires, its
    /// magnitude.
    pub fn sample_with_btb<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        mispredicted: bool,
        cold: bool,
        taken_btb_miss: bool,
    ) -> u64 {
        let gauss = GaussianDraw::draw(rng);
        let spike = rng.gen_bool(self.params.spike_probability).then(|| rng.gen_range(1e-9f64..1.0));
        let p = &self.params;
        let mut mean = p.base_hit_cycles;
        let mut sigma = p.jitter_sigma;
        if mispredicted {
            mean += p.mispredict_penalty;
        }
        if taken_btb_miss {
            mean += p.btb_miss_taken_extra;
        }
        if cold {
            mean += p.cold_miss_extra;
            sigma = (sigma * sigma + p.cold_jitter_sigma * p.cold_jitter_sigma).sqrt();
        }
        let mut cycles = mean + sigma * gauss.value();
        if let Some(u) = spike {
            // Exponential spike: rare interrupts / SMT contention / TLB walks.
            cycles += p.spike_cycles * (-u.ln());
        }
        // A branch plus two rdtscp reads can never be arbitrarily fast; the
        // floor approximates the measurement overhead itself.
        let floor = (p.base_hit_cycles * 0.65).max(1.0);
        cycles.max(floor).round() as u64
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel::new(TimingParams::paper_calibrated())
    }
}

impl TimingModel {
    /// Wall-clock cycles one branch costs in straight-line code — the
    /// amount the core clock advances. Unlike [`TimingModel::sample`],
    /// which models a serialised `rdtscp`-bracketed measurement, ordinary
    /// branches retire near throughput, stalling only on mispredictions
    /// and i-cache misses.
    #[must_use]
    pub fn advance(&self, mispredicted: bool, cold: bool) -> u64 {
        self.advance_with_btb(mispredicted, cold, false)
    }

    /// Wall-clock advance including the BTB-miss redirect bubble for taken
    /// branches.
    #[must_use]
    #[inline]
    pub fn advance_with_btb(&self, mispredicted: bool, cold: bool, taken_btb_miss: bool) -> u64 {
        self.advance[advance_index(mispredicted, cold, taken_btb_miss)]
    }
}

/// Slot of a flag combination in the clock-advance table.
#[inline]
fn advance_index(mispredicted: bool, cold: bool, taken_btb_miss: bool) -> usize {
    usize::from(mispredicted) | usize::from(cold) << 1 | usize::from(taken_btb_miss) << 2
}

/// The clock advance of one branch with the given stalls, computed from
/// the parameters; [`TimingModel::new`] tabulates it.
fn advance_cycles(p: &TimingParams, mispredicted: bool, cold: bool, taken_btb_miss: bool) -> u64 {
    let mut cycles = p.throughput_cycles;
    if mispredicted {
        cycles += p.mispredict_stall;
    }
    if cold {
        cycles += p.cold_stall;
    }
    if taken_btb_miss {
        cycles += p.btb_miss_taken_stall;
    }
    cycles.max(1.0).round() as u64
}

/// The two uniforms of one Box–Muller standard-normal sample (the `rand`
/// crate alone does not ship distributions); [`GaussianDraw::value`] is
/// the sample.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GaussianDraw {
    u1: f64,
    u2: f64,
}

impl GaussianDraw {
    #[inline]
    pub(crate) fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let u1 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2 = rng.gen_range(0.0..1.0);
        GaussianDraw { u1, u2 }
    }

    pub(crate) fn value(self) -> f64 {
        (-2.0 * self.u1.ln()).sqrt() * (std::f64::consts::TAU * self.u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean_of(samples: &[u64]) -> f64 {
        samples.iter().sum::<u64>() as f64 / samples.len() as f64
    }

    #[test]
    fn misprediction_costs_more_on_average() {
        let model = TimingModel::default();
        let mut rng = StdRng::seed_from_u64(1);
        let hits: Vec<u64> = (0..20_000).map(|_| model.sample(&mut rng, false, false)).collect();
        let misses: Vec<u64> = (0..20_000).map(|_| model.sample(&mut rng, true, false)).collect();
        let (mh, mm) = (mean_of(&hits), mean_of(&misses));
        assert!(
            mm - mh > 35.0,
            "miss mean {mm:.1} should exceed hit mean {mh:.1} by the penalty"
        );
        // Fig. 7 calibration: hit mean in the ~80s, miss mean in the ~130s.
        assert!((80.0..95.0).contains(&mh), "hit mean {mh:.1}");
        assert!((128.0..145.0).contains(&mm), "miss mean {mm:.1}");
    }

    #[test]
    fn cold_executions_are_slower_and_noisier() {
        let model = TimingModel::default();
        let mut rng = StdRng::seed_from_u64(2);
        let warm: Vec<u64> = (0..20_000).map(|_| model.sample(&mut rng, false, false)).collect();
        let cold: Vec<u64> = (0..20_000).map(|_| model.sample(&mut rng, false, true)).collect();
        assert!(mean_of(&cold) > mean_of(&warm) + 10.0);
        let var = |s: &[u64]| {
            let m = mean_of(s);
            s.iter().map(|&x| (x as f64 - m).powi(2)).sum::<f64>() / s.len() as f64
        };
        assert!(var(&cold) > var(&warm), "cold variance must exceed warm variance");
    }

    #[test]
    fn single_measurement_overlap_matches_figure_8() {
        // With one warm measurement each, P(hit sample > miss sample) should
        // sit near 10% — the paper's single-measurement error rate for the
        // second (warm) execution.
        let model = TimingModel::default();
        let mut rng = StdRng::seed_from_u64(3);
        let n = 40_000;
        let mut wrong = 0;
        for _ in 0..n {
            let h = model.sample(&mut rng, false, false);
            let m = model.sample(&mut rng, true, false);
            if h >= m {
                wrong += 1;
            }
        }
        let rate = f64::from(wrong) / f64::from(n);
        assert!((0.05..0.18).contains(&rate), "overlap error rate {rate:.3}");
    }

    #[test]
    fn latency_respects_floor() {
        let model = TimingModel::default();
        let mut rng = StdRng::seed_from_u64(4);
        let floor = (model.params().base_hit_cycles * 0.65) as u64;
        for _ in 0..10_000 {
            assert!(model.sample(&mut rng, false, false) >= floor);
        }
    }

    /// The table holds exactly what the float expression gives for every
    /// flag combination, including parameters that round and clamp.
    #[test]
    fn advance_table_matches_the_expression() {
        let mut odd = TimingParams::paper_calibrated();
        odd.throughput_cycles = 0.4;
        odd.mispredict_stall = 17.5;
        odd.cold_stall = 0.25;
        for params in [TimingParams::paper_calibrated(), odd] {
            let model = TimingModel::new(params);
            for i in 0..8 {
                let (m, c, t) = (i & 1 != 0, i & 2 != 0, i & 4 != 0);
                assert_eq!(model.advance_with_btb(m, c, t), advance_cycles(&params, m, c, t));
            }
            assert_eq!(model.advance(true, false), advance_cycles(&params, true, false, false));
        }
        assert_eq!(TimingModel::default().advance_with_btb(false, false, false), 2);
        assert_eq!(TimingModel::default().advance_with_btb(true, true, true), 58);
    }

    #[test]
    fn gaussian_has_unit_moments() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| GaussianDraw::draw(&mut rng).value()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "variance {var}");
    }
}
