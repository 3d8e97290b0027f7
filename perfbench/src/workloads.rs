//! The three workloads: one op of each is one call sequence into the
//! library's public API, made from outside the library.

use crate::spans::Spans;
use bscope_bpu::{BackendKind, CounterKind, MicroarchProfile, Outcome, VirtAddr};
use bscope_core::covert::SENDER_BRANCH_OFFSET;
use bscope_core::stability::{BlockStability, StabilityConfig, StateDistribution};
use bscope_core::timing_probe::collect_latency_samples;
use bscope_core::{
    decode_state, probe_with_counters, AttackConfig, BranchScope, DecodedState, ProbeKind,
    ProbePattern, RandomizationBlock,
};
use bscope_harness::splitmix64;
use bscope_os::{AslrPolicy, Pid, System};
use bscope_uarch::NoiseConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["covert_noisy", "block_stability", "timing_probe"];

/// The simulated machine a workload runs on (the layer probes rebuild it).
#[derive(Debug, Clone)]
pub struct Machine {
    pub profile: MicroarchProfile,
    pub noise: Option<NoiseConfig>,
}

impl Machine {
    /// A fresh system for this machine.
    pub fn system(&self, seed: u64) -> System {
        let sys = System::with_backend(self.profile.clone(), BackendKind::Hybrid, seed);
        match &self.noise {
            Some(noise) => sys
                .with_noise(noise.clone())
                .expect("preset noise is valid"),
            None => sys,
        }
    }
}

/// What one op leaves behind: `score` feeds the simulated-result check,
/// `digest` the bit-identity comparison of traced and untraced runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpOut {
    pub score: u8,
    pub digest: u64,
}

/// The scored simulated result of a run.
#[derive(Debug, Clone)]
pub struct Score {
    /// The simulated result as an error, in percent.
    pub error_pct: f64,
    /// `Err` names the paper shape the result misses.
    pub check: Result<(), String>,
    /// One line on what was scored.
    pub summary: String,
}

pub trait Workload: Send {
    fn machine(&self) -> Machine;
    /// Ops per harness batch.
    fn batch(&self) -> usize;
    /// Ops whose simulated results are scored; every run completes them.
    fn scored_ops(&self) -> usize;
    /// Foreground branches op `i` retires, where the op fixes it; `None`
    /// means "the same count as op 0".
    fn expected_fg(&self, i: usize) -> Option<u64>;
    /// Untimed preparation of op `i` (input generation).
    fn prepare(&mut self, _i: usize) {}
    /// Runs op `i`; with `spans`, each library call gets a span.
    fn op(&mut self, i: usize, spans: Option<&mut Spans>) -> OpOut;
    fn sys(&mut self) -> &mut System;
    /// Conditional branches retired by the workload's own processes.
    fn fg_retired(&mut self) -> u64;
    /// Scores the first `scored_ops` op scores.
    fn score(&self, scores: &[u8]) -> Score;
    /// Latency samples collected so far (`timing_probe` only).
    fn latency_samples(&self) -> u64 {
        0
    }
}

/// Builds workload `name` from `seed`; everything random derives from it.
pub fn setup(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "covert_noisy" => Box::new(Covert::new(seed)),
        "block_stability" => Box::new(Block::new(seed)),
        "timing_probe" => Box::new(Timing::new(seed)),
        _ => return None,
    })
}

fn fnv(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

// ---------------------------------------------------------------- covert

/// Bits scored per run: Table 2's noisiest cell at this length has a
/// seed-to-seed spread of a few percent of its error rate.
const COVERT_SCORED_BITS: usize = 100_000;
/// Table 2, Sandy Bridge with noise, random payload.
const PAPER_SB_NOISY_PCT: f64 = 3.38;

/// Table 2 "Sandy Bridge, with noise": a trojan sends a random payload to
/// a spy, one `read_bit` round per bit.
pub struct Covert {
    sys: System,
    sender: Pid,
    receiver: Pid,
    target: VirtAddr,
    attack: BranchScope,
    payload: Vec<bool>,
}

impl Covert {
    fn machine() -> Machine {
        Machine {
            profile: MicroarchProfile::sandy_bridge(),
            noise: Some(NoiseConfig::system_activity()),
        }
    }

    pub fn new(seed: u64) -> Self {
        let machine = Self::machine();
        let mut sys = machine.system(splitmix64(seed ^ 0xC0_7E27));
        let sender = sys.spawn("trojan", AslrPolicy::Disabled);
        let receiver = sys.spawn("spy", AslrPolicy::Disabled);
        let target = sys.process(sender).vaddr_of(SENDER_BRANCH_OFFSET);
        let attack = BranchScope::new(AttackConfig::for_backend(
            &machine.profile,
            BackendKind::Hybrid,
        ))
        .expect("the canonical configuration decodes");
        let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ 0x7AB1E2));
        let payload = (0..COVERT_SCORED_BITS).map(|_| rng.gen()).collect();
        Covert {
            sys,
            sender,
            receiver,
            target,
            attack,
            payload,
        }
    }
}

/// One prime → victim window → probe round through the public stage calls,
/// each in its own span. On the hybrid backend this is the same call
/// sequence as `BranchScope::read_bit`.
pub fn traced_round(
    sys: &mut System,
    attack: &mut BranchScope,
    sender: Pid,
    receiver: Pid,
    target: VirtAddr,
    bit: bool,
    sp: &mut Spans,
) -> Outcome {
    let config = attack.config();
    let half = config.victim_wait_cycles / 2;
    sp.begin("core.read_bit");
    sp.time("core.prime", || attack.prime(sys, receiver, target));
    sp.begin("core.victim_window");
    sp.time("os.work", || sys.cpu(receiver).work(half));
    sys.cpu(sender)
        .branch_at(SENDER_BRANCH_OFFSET, Outcome::from_bool(bit));
    sp.time("os.work", || sys.cpu(receiver).work(half));
    sp.end();
    sp.begin("core.probe");
    let pattern = probe_with_counters(&mut sys.cpu(receiver), target, config.probe);
    let outcome = attack.dict().decode(pattern);
    sp.end();
    sp.end();
    outcome
}

impl Workload for Covert {
    fn machine(&self) -> Machine {
        Self::machine()
    }

    fn batch(&self) -> usize {
        128
    }

    fn scored_ops(&self) -> usize {
        COVERT_SCORED_BITS
    }

    fn expected_fg(&self, _i: usize) -> Option<u64> {
        None
    }

    fn op(&mut self, i: usize, spans: Option<&mut Spans>) -> OpOut {
        let bit = self.payload[i % self.payload.len()];
        let (sender, receiver, target) = (self.sender, self.receiver, self.target);
        let received = match spans {
            None => self
                .attack
                .read_bit(&mut self.sys, receiver, target, |sys| {
                    sys.cpu(sender)
                        .branch_at(SENDER_BRANCH_OFFSET, Outcome::from_bool(bit));
                }),
            Some(sp) => traced_round(
                &mut self.sys,
                &mut self.attack,
                sender,
                receiver,
                target,
                bit,
                sp,
            ),
        };
        let received = u8::from(received.is_taken());
        OpOut {
            score: received,
            digest: u64::from(received),
        }
    }

    fn sys(&mut self) -> &mut System {
        &mut self.sys
    }

    fn fg_retired(&mut self) -> u64 {
        self.sys.cpu(self.sender).counters().branches_retired
            + self.sys.cpu(self.receiver).counters().branches_retired
    }

    fn score(&self, scores: &[u8]) -> Score {
        let errors = scores
            .iter()
            .zip(&self.payload)
            .filter(|(&got, &sent)| (got == 1) != sent)
            .count();
        let error_pct = 100.0 * errors as f64 / scores.len().max(1) as f64;
        let (lo, hi) = (0.5, 2.0 * PAPER_SB_NOISY_PCT);
        let check = if (lo..=hi).contains(&error_pct) {
            Ok(())
        } else {
            Err(format!(
                "bit error {error_pct:.3}% outside [{lo}, {hi}]% around Table 2's {PAPER_SB_NOISY_PCT}%"
            ))
        };
        Score {
            error_pct,
            check,
            summary: format!("{errors} of {} bits wrong ({error_pct:.3}%)", scores.len()),
        }
    }
}

// ----------------------------------------------------------------- block

/// Fig. 4's characterisation settings (the repository's `fig4` uses the
/// same seeds, threshold and probe address, and 10 updates per entry).
/// Seven executions per block and probing variant: 6 of 7 is the smallest
/// count that meets the 85 % threshold (`fig4 --quick` uses 12).
fn block_config() -> StabilityConfig {
    StabilityConfig {
        blocks: 120,
        reps: 7,
        updates_per_entry: 10,
        ..StabilityConfig::default()
    }
}
/// Where the spy maps its block (the library's default block region).
const BLOCK_REGION: VirtAddr = 0x70_0000;

/// Fig. 4 on Haswell with isolated-core noise: execute a randomization
/// block, probe a fixed entry; `reps` times with TT probes, then `reps`
/// times with NN probes, per block.
pub struct Block {
    sys: System,
    spy: Pid,
    config: StabilityConfig,
    block: RandomizationBlock,
    block_idx: usize,
    block_len: usize,
    counter_kind: CounterKind,
}

impl Block {
    fn machine() -> Machine {
        Machine {
            profile: MicroarchProfile::haswell(),
            noise: Some(NoiseConfig::isolated_core()),
        }
    }

    pub fn new(seed: u64) -> Self {
        let machine = Self::machine();
        let mut sys = machine.system(splitmix64(seed ^ 0xF164));
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let config = block_config();
        let block_len = machine.profile.pht_size * config.updates_per_entry;
        let block = RandomizationBlock::generate(config.seed, block_len, BLOCK_REGION);
        Block {
            sys,
            spy,
            config,
            block,
            block_idx: 0,
            block_len,
            counter_kind: machine.profile.counter_kind,
        }
    }

    /// Fig. 4's characterisation of block `b` from its op scores.
    fn characterise(&self, b: usize, scores: &[u8]) -> BlockStability {
        let dominant = |s: &[u8]| {
            let mut counts = [0usize; 4];
            for &p in s {
                counts[usize::from(p)] += 1;
            }
            let (best, &n) = counts
                .iter()
                .enumerate()
                .max_by_key(|&(_, &n)| n)
                .expect("four counts");
            (ProbePattern::ALL[best], n as f64 / s.len() as f64)
        };
        let (tt_dominant, tt_frequency) = dominant(&scores[..self.config.reps]);
        let (nn_dominant, nn_frequency) = dominant(&scores[self.config.reps..]);
        let threshold = self.config.threshold;
        let state = if tt_frequency >= threshold && nn_frequency >= threshold {
            decode_state(self.counter_kind, tt_dominant, nn_dominant)
        } else {
            DecodedState::Unknown
        };
        BlockStability {
            block_seed: self.config.seed + b as u64,
            tt_dominant,
            tt_frequency,
            nn_dominant,
            nn_frequency,
            state,
        }
    }
}

impl Workload for Block {
    fn machine(&self) -> Machine {
        Self::machine()
    }

    fn batch(&self) -> usize {
        1
    }

    fn scored_ops(&self) -> usize {
        self.config.blocks * 2 * self.config.reps
    }

    fn expected_fg(&self, _i: usize) -> Option<u64> {
        Some(self.block_len as u64 + 2)
    }

    fn prepare(&mut self, i: usize) {
        let idx = i / (2 * self.config.reps);
        if idx != self.block_idx {
            let seed = self.config.seed + idx as u64;
            self.block = RandomizationBlock::generate(seed, self.block_len, BLOCK_REGION);
            self.block_idx = idx;
        }
    }

    fn op(&mut self, i: usize, spans: Option<&mut Spans>) -> OpOut {
        let kind = if (i / self.config.reps).is_multiple_of(2) {
            ProbeKind::TakenTaken
        } else {
            ProbeKind::NotTakenNotTaken
        };
        let addr = self.config.probe_addr;
        let pattern = match spans {
            None => {
                self.block.execute(&mut self.sys.cpu(self.spy));
                probe_with_counters(&mut self.sys.cpu(self.spy), addr, kind)
            }
            Some(sp) => {
                sp.time("core.block_execute", || {
                    self.block.execute(&mut self.sys.cpu(self.spy))
                });
                sp.time("core.block_probe", || {
                    probe_with_counters(&mut self.sys.cpu(self.spy), addr, kind)
                })
            }
        };
        let idx = ProbePattern::ALL
            .iter()
            .position(|&p| p == pattern)
            .expect("in ALL");
        let idx = u8::try_from(idx).expect("four patterns");
        OpOut {
            score: idx,
            digest: u64::from(idx),
        }
    }

    fn sys(&mut self) -> &mut System {
        &mut self.sys
    }

    fn fg_retired(&mut self) -> u64 {
        self.sys.cpu(self.spy).counters().branches_retired
    }

    fn score(&self, scores: &[u8]) -> Score {
        let blocks: Vec<BlockStability> = scores
            .chunks_exact(2 * self.config.reps)
            .enumerate()
            .map(|(b, s)| self.characterise(b, s))
            .collect();
        let dist = StateDistribution::from_blocks(&blocks);
        let stable = dist.stable_fraction();
        // The error is Fig. 4a's per-observation view: the share of probe
        // observations that disagree with their block's dominant pattern.
        // It follows the stable fraction but, counted per op rather than per
        // block, varies far less from seed to seed.
        let agree: f64 = blocks.iter().map(|b| b.tt_frequency + b.nn_frequency).sum();
        let error_pct = 100.0 * (1.0 - agree / (2 * blocks.len()).max(1) as f64);
        let (lo, hi) = (0.65, 0.95);
        let check = if (lo..=hi).contains(&stable) {
            Ok(())
        } else {
            Err(format!(
                "stable fraction {stable:.3} outside [{lo}, {hi}] around Fig. 4's 0.83"
            ))
        };
        Score {
            error_pct,
            check,
            summary: format!(
                "{} of {} blocks stable ({:.1}%): ST {} WT {} WN {} SN {} dirty {} unknown {}; {error_pct:.3}% of probes off the dominant pattern",
                dist.total() - dist.unknown,
                dist.total(),
                100.0 * stable,
                dist.st,
                dist.wt,
                dist.wn,
                dist.sn,
                dist.dirty,
                dist.unknown
            ),
        }
    }
}

// ---------------------------------------------------------------- timing

/// Fig. 8's measurement counts k = 1, 3, …, 19, each cold and warm.
const TIMING_POINTS: usize = 20;
/// Detection trials scored per (k, cold/warm) point (full-scale Fig. 8).
const TIMING_TRIALS: usize = 2_000;

/// Fig. 8 on Skylake without noise: detection trials over
/// `collect_latency_samples`; op `i` is one trial at point `i % 20`.
pub struct Timing {
    sys: System,
    spy: Pid,
    samples: u64,
}

impl Timing {
    fn machine() -> Machine {
        Machine {
            profile: MicroarchProfile::skylake(),
            noise: None,
        }
    }

    pub fn new(seed: u64) -> Self {
        let mut sys = Self::machine().system(splitmix64(seed ^ 0xF168));
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        Timing {
            sys,
            spy,
            samples: 0,
        }
    }

    /// (k, cold) of point `p`.
    fn point(p: usize) -> (usize, bool) {
        (1 + 2 * (p / 2), p.is_multiple_of(2))
    }
}

impl Workload for Timing {
    fn machine(&self) -> Machine {
        Self::machine()
    }

    fn batch(&self) -> usize {
        TIMING_POINTS
    }

    fn scored_ops(&self) -> usize {
        TIMING_POINTS * TIMING_TRIALS
    }

    fn expected_fg(&self, i: usize) -> Option<u64> {
        // Each sample trains its branch three times, then times it once.
        let (k, _) = Self::point(i % TIMING_POINTS);
        Some(2 * 4 * k as u64)
    }

    fn op(&mut self, i: usize, spans: Option<&mut Spans>) -> OpOut {
        let (k, cold) = Self::point(i % TIMING_POINTS);
        let (sys, spy) = (&mut self.sys, self.spy);
        let (hits, misses) = match spans {
            None => (
                collect_latency_samples(sys, spy, k, false, cold),
                collect_latency_samples(sys, spy, k, true, cold),
            ),
            Some(sp) => (
                sp.time("core.latency_samples", || {
                    collect_latency_samples(sys, spy, k, false, cold)
                }),
                sp.time("core.latency_samples", || {
                    collect_latency_samples(sys, spy, k, true, cold)
                }),
            ),
        };
        self.samples += 2 * k as u64;
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
        let wrong = mean(&hits) >= mean(&misses);
        let digest = hits
            .iter()
            .chain(&misses)
            .fold(0xcbf2_9ce4_8422_2325, |h, &l| fnv(h, l));
        OpOut {
            score: u8::from(wrong),
            digest,
        }
    }

    fn sys(&mut self) -> &mut System {
        &mut self.sys
    }

    fn fg_retired(&mut self) -> u64 {
        self.sys.cpu(self.spy).counters().branches_retired
    }

    fn latency_samples(&self) -> u64 {
        self.samples
    }

    fn score(&self, scores: &[u8]) -> Score {
        let mut wrong = [0usize; TIMING_POINTS];
        let mut trials = [0usize; TIMING_POINTS];
        for (i, &s) in scores.iter().enumerate() {
            wrong[i % TIMING_POINTS] += usize::from(s);
            trials[i % TIMING_POINTS] += 1;
        }
        let err: Vec<f64> = wrong
            .iter()
            .zip(&trials)
            .map(|(&w, &t)| w as f64 / t.max(1) as f64)
            .collect();
        let error_pct = 100.0 * err.iter().sum::<f64>() / TIMING_POINTS as f64;
        // Point p is k = 1 + 2·(p/2), cold when p is even: cold k sits at
        // index k − 1 and warm k at index k.
        let cold = |k: usize| err[k - 1];
        let warm = |k: usize| err[k];
        let mut problems = Vec::new();
        if warm(1) <= warm(5) {
            problems.push(format!(
                "warm error does not fall: k=1 {:.4}, k=5 {:.4}",
                warm(1),
                warm(5)
            ));
        }
        if cold(1) <= warm(1) {
            problems.push(format!(
                "cold k=1 {:.4} not above warm k=1 {:.4}",
                cold(1),
                warm(1)
            ));
        }
        for k in (9..=19).step_by(2) {
            if warm(k) > 0.01 {
                problems.push(format!("warm error at k={k} is {:.4}, not ~0", warm(k)));
            }
        }
        let check = if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        };
        Score {
            error_pct,
            check,
            summary: format!(
                "mean detection error {error_pct:.3}% over 20 points; cold k=1 {:.1}%, warm k=1 {:.1}%, warm k=9 {:.2}%",
                100.0 * cold(1),
                100.0 * warm(1),
                100.0 * warm(9)
            ),
        }
    }
}
