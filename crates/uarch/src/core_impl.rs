//! The simulated core.

use crate::counters::PerfCounters;
use crate::event::BranchEvent;
use crate::icache::InstructionCache;
use crate::noise::{NoiseConfig, NoiseProcess};
use crate::policy::{BpuPolicy, MeasurementFuzz};
use crate::timing::TimingModel;
use bscope_bpu::{
    BackendKind, MicroarchProfile, Outcome, Prediction, PredictorBackend, PredictorKind, VirtAddr,
};
use bscope_trace::{Span, TraceEvent, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Identifier of a hardware context (logical CPU / process) on the core.
///
/// Performance counters are kept per context, as on real hardware; the
/// predictor structures are shared by all contexts, which is the entire
/// premise of the attack.
pub type ContextId = u32;

/// Context id of the background-noise (SMT sibling) activity. Only the
/// mitigation policy ever sees it; no entry point retires a branch in it.
pub const NOISE_CTX: ContextId = ContextId::MAX;

/// Largest context id the core's entry points accept. Counters are kept in
/// a table indexed by context id, so the bound caps that table at 65 536
/// slots.
pub const MAX_CTX: ContextId = 0xFFFF;

/// A simulated physical core: one shared branch prediction unit, a cycle
/// clock, an instruction cache, per-context performance counters and an
/// optional background-noise context (the SMT sibling).
///
/// All stochastic behaviour (latency jitter, noise) flows from the seed
/// passed to [`SimCore::new`], so every experiment is reproducible.
///
/// Every entry point retires its branches through one per-branch body that
/// runs the predictor, clock and counters. Only the measured entry
/// ([`SimCore::timed_branch_in`]) samples a latency, and only it draws the
/// random words for one: a latency exists only where an attacker brackets
/// the branch with `rdtscp`. The throughput entries
/// ([`SimCore::execute_branch`] and friends, and [`SimCore::execute_run`]
/// for a straight-line run of branches) draw a word only for counter fuzz
/// and for background-noise arrivals.
///
/// # Example
///
/// ```
/// use bscope_bpu::{MicroarchProfile, Outcome};
/// use bscope_uarch::SimCore;
///
/// let mut core = SimCore::new(MicroarchProfile::haswell(), 1);
/// let before = core.counters(0);
/// core.execute_branch(0x40_0000, Outcome::Taken);
/// let delta = core.counters(0).since(&before);
/// assert_eq!(delta.branches_retired, 1);
/// ```
#[derive(Debug)]
pub struct SimCore {
    bpu: PredictorBackend,
    timing: TimingModel,
    icache: InstructionCache,
    counters: Vec<PerfCounters>,
    tsc: u64,
    rng: StdRng,
    /// Installed background noise; `None` is a quiet machine.
    noise: Option<Noise>,
    /// Installed mitigation; `None` is the unmitigated machine and costs no
    /// dynamic calls.
    policy: Option<Box<dyn BpuPolicy>>,
    fuzz: Option<MeasurementFuzz>,
    /// Structured-event tracer; disabled (and free) by default.
    tracer: Tracer,
}

/// A validated [`NoiseConfig`] as installed on a core: the shape of its
/// branches and when they arrive.
#[derive(Debug)]
struct Noise {
    addr_lo: u64,
    addr_hi: u64,
    taken_bias: f64,
    arrivals: NoiseProcess,
}

impl SimCore {
    /// Creates a core for the given microarchitecture with the paper's
    /// hybrid predictor, all randomness derived from `seed`.
    #[must_use]
    pub fn new(profile: MicroarchProfile, seed: u64) -> Self {
        SimCore::with_backend(BackendKind::Hybrid.build(profile), seed)
    }

    /// Creates a core running on an explicit predictor backend (see
    /// [`bscope_bpu::BackendKind`]); [`SimCore::new`] is the hybrid special
    /// case. Timing parameters come from the backend's effective profile.
    #[must_use]
    pub fn with_backend(backend: PredictorBackend, seed: u64) -> Self {
        SimCore {
            timing: TimingModel::new(backend.profile().timing),
            bpu: backend,
            icache: InstructionCache::l1i_default(),
            counters: vec![PerfCounters::new(); 2],
            tsc: 0,
            rng: StdRng::seed_from_u64(seed),
            noise: None,
            policy: None,
            fuzz: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a hardware mitigation policy (see [`BpuPolicy`]); the
    /// default is the unmitigated machine.
    pub fn set_policy(&mut self, policy: Box<dyn BpuPolicy>) {
        self.policy = Some(policy);
    }

    /// Installs measurement-channel fuzzing (noisy counters/timers, §10.2),
    /// or removes it with `None`.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`](crate::ConfigError) from [`MeasurementFuzz::validate`],
    /// leaving the previous fuzz configuration in place.
    pub fn set_measurement_fuzz(
        &mut self,
        fuzz: Option<MeasurementFuzz>,
    ) -> Result<(), crate::ConfigError> {
        if let Some(f) = &fuzz {
            f.validate()?;
        }
        self.fuzz = fuzz;
        Ok(())
    }

    /// Enables background (SMT sibling) noise; pass `None` to disable.
    /// Arrivals restart from now; enabling noise draws the first arrival
    /// threshold.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`](crate::ConfigError) from [`NoiseConfig::validate`], leaving
    /// the previous noise configuration in place.
    pub fn set_noise(&mut self, noise: Option<NoiseConfig>) -> Result<(), crate::ConfigError> {
        if let Some(cfg) = &noise {
            cfg.validate()?;
        }
        self.noise = noise.map(|cfg| Noise {
            addr_lo: cfg.addr_range.start,
            addr_hi: cfg.addr_range.end,
            taken_bias: cfg.taken_bias,
            arrivals: NoiseProcess::new(&cfg, max_noise_step(&self.timing), self.tsc, &mut self.rng),
        });
        Ok(())
    }

    /// Builder-style variant of [`SimCore::set_noise`].
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`](crate::ConfigError) from [`NoiseConfig::validate`].
    pub fn with_noise(mut self, noise: NoiseConfig) -> Result<Self, crate::ConfigError> {
        self.set_noise(Some(noise))?;
        Ok(self)
    }

    /// Installs a structured-event tracer (see [`bscope_trace`]). The
    /// default tracer is disabled and costs one branch per emit site;
    /// installing a sink-backed tracer records every retired branch, BTB
    /// install, noise burst and attack-stage span.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Removes and returns the tracer (leaving a disabled one), so a
    /// caller that lent the core a live tracer can drain its capture.
    #[must_use]
    pub fn take_tracer(&mut self) -> Tracer {
        std::mem::take(&mut self.tracer)
    }

    /// Exclusive access to the tracer (emit sites outside the core, e.g.
    /// attack-stage spans, go through this).
    #[must_use]
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Emits a [`Span`] begin marker stamped with the current simulated
    /// time. Free when the tracer is disabled.
    pub fn trace_span_begin(&mut self, span: Span) {
        let tsc = self.tsc;
        self.tracer.emit_with(|| TraceEvent::SpanBegin { span, tsc });
    }

    /// Emits a [`Span`] end marker stamped with the current simulated
    /// time. Free when the tracer is disabled.
    pub fn trace_span_end(&mut self, span: Span) {
        let tsc = self.tsc;
        self.tracer.emit_with(|| TraceEvent::SpanEnd { span, tsc });
    }

    /// The microarchitecture profile of this core.
    #[must_use]
    pub fn profile(&self) -> &MicroarchProfile {
        self.bpu.profile()
    }

    /// Read access to the shared branch prediction unit.
    #[must_use]
    pub fn bpu(&self) -> &PredictorBackend {
        &self.bpu
    }

    /// Exclusive access to the shared branch prediction unit (mitigations,
    /// reverse-engineering tooling and tests use this).
    #[must_use]
    pub fn bpu_mut(&mut self) -> &mut PredictorBackend {
        &mut self.bpu
    }

    /// Exclusive access to the instruction cache.
    #[must_use]
    pub fn icache_mut(&mut self) -> &mut InstructionCache {
        &mut self.icache
    }

    /// Current value of the timestamp counter (`rdtscp`, §8): the simulated
    /// clock, which branches advance by their throughput cost
    /// ([`TimingModel::advance_with_btb`]) and [`SimCore::advance_cycles`]
    /// by its argument. Reading it is free in the model; the overhead of an
    /// `rdtscp`-bracketed measurement is folded into the latency the
    /// measured entry ([`SimCore::timed_branch_in`]) returns.
    #[must_use]
    pub fn rdtscp(&self) -> u64 {
        self.tsc
    }

    /// Performance counters of context `ctx` (zero-extended for contexts
    /// that have not executed yet).
    #[must_use]
    pub fn counters(&self, ctx: ContextId) -> PerfCounters {
        self.counters.get(ctx as usize).copied().unwrap_or_default()
    }

    /// Advances the cycle clock without executing branches (models `nop`
    /// padding, `usleep`, or victim non-branch work). Background activity
    /// keeps running during the elapsed time — the spy's wait for the
    /// victim is exactly when the shared BPU is most exposed to noise.
    pub fn advance_cycles(&mut self, cycles: u64) {
        self.tsc += cycles;
        self.inject_pending_noise();
    }

    /// Executes one conditional branch in context 0 with the fall-through
    /// target convention. The common single-context entry point.
    pub fn execute_branch(&mut self, addr: VirtAddr, outcome: Outcome) -> BranchEvent {
        self.execute_branch_in(0, addr, outcome, None)
    }

    /// Executes one conditional branch in an explicit context.
    ///
    /// Injects pending background noise first (if configured), then runs
    /// the branch through the shared BPU, advances the cycle clock by its
    /// throughput cost and records it in `ctx`'s performance counters.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is above [`MAX_CTX`] (including [`NOISE_CTX`]).
    pub fn execute_branch_in(
        &mut self,
        ctx: ContextId,
        addr: VirtAddr,
        outcome: Outcome,
        target: Option<VirtAddr>,
    ) -> BranchEvent {
        let slot = self.context_slot(ctx);
        self.inject_pending_noise();
        self.retire::<false>(ctx, slot, addr, outcome, target).0
    }

    /// Executes a straight-line run of conditional branches in context
    /// `ctx` with the fall-through target convention: the same as calling
    /// [`SimCore::execute_branch_in`]`(ctx, addr, outcome, None)` for each
    /// pair in order, with the context resolved once for the whole run.
    /// The randomization block and the prime's pollution loop retire
    /// through here.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is above [`MAX_CTX`] (including [`NOISE_CTX`]).
    pub fn execute_run<I>(&mut self, ctx: ContextId, branches: I)
    where
        I: IntoIterator<Item = (VirtAddr, Outcome)>,
    {
        let slot = self.context_slot(ctx);
        for (addr, outcome) in branches {
            self.inject_pending_noise();
            self.retire::<false>(ctx, slot, addr, outcome, None);
        }
    }

    /// Executes a branch *without* triggering noise injection. Used for the
    /// noise branches themselves and by schedulers that manage interleaving
    /// explicitly.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is above [`MAX_CTX`] (including [`NOISE_CTX`]).
    pub fn execute_branch_quiet(
        &mut self,
        ctx: ContextId,
        addr: VirtAddr,
        outcome: Outcome,
        target: Option<VirtAddr>,
    ) -> BranchEvent {
        let slot = self.context_slot(ctx);
        self.retire::<false>(ctx, slot, addr, outcome, target).0
    }

    /// The measured counterpart of [`SimCore::execute_branch_in`]: the same
    /// branch, bracketed by `rdtscp`. Returns the event and the latency in
    /// cycles the `rdtscp` pair reports (§8, Fig. 7), including any timing
    /// fuzz; the clock itself still advances by the throughput cost.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is above [`MAX_CTX`] (including [`NOISE_CTX`]).
    pub fn timed_branch_in(
        &mut self,
        ctx: ContextId,
        addr: VirtAddr,
        outcome: Outcome,
        target: Option<VirtAddr>,
    ) -> (BranchEvent, u64) {
        let slot = self.context_slot(ctx);
        self.inject_pending_noise();
        self.retire::<true>(ctx, slot, addr, outcome, target)
    }

    /// The counter slot of a foreground context, grown on first use.
    #[inline]
    fn context_slot(&mut self, ctx: ContextId) -> usize {
        assert!(
            ctx <= MAX_CTX,
            "context id {ctx} is above MAX_CTX ({MAX_CTX}); NOISE_CTX is reserved for background noise"
        );
        let slot = ctx as usize;
        if slot >= self.counters.len() {
            self.grow_counters(slot);
        }
        slot
    }

    #[cold]
    #[inline(never)]
    fn grow_counters(&mut self, slot: usize) {
        self.counters.resize(slot + 1, PerfCounters::new());
    }

    /// Runs one branch through the policy, the BPU, the clock and the
    /// counters: the one per-branch body behind every entry point, with
    /// `slot` from [`SimCore::context_slot`]. A `MEASURED` branch samples
    /// its latency (timing fuzz included) and returns it; any other returns
    /// zero and draws no latency words. The mitigation policy and the trace
    /// emission are out-of-line cold paths.
    #[inline(always)]
    fn retire<const MEASURED: bool>(
        &mut self,
        ctx: ContextId,
        slot: usize,
        addr: VirtAddr,
        outcome: Outcome,
        target: Option<VirtAddr>,
    ) -> (BranchEvent, u64) {
        let cold = !self.icache.touch(addr);
        let (prediction, mispredicted, committed) = if self.policy.is_some() {
            self.predict_with_policy(ctx, addr, outcome, target)
        } else {
            let (prediction, correct) = self.bpu.execute(addr, outcome, target);
            (prediction, !correct, Some(addr))
        };
        // The latency is what an rdtscp pair around this branch would
        // report (Fig. 7); the core clock advances by the much smaller
        // throughput cost of straight-line execution.
        let taken_btb_miss = outcome.is_taken() && !prediction.btb_hit;
        self.tsc += self.timing.advance_with_btb(mispredicted, cold, taken_btb_miss);
        let latency = MEASURED.then(|| self.measure(mispredicted, cold, taken_btb_miss));
        let recorded_miss = match self.fuzz {
            Some(fuzz) => fuzz.fuzz_miss(&mut self.rng, mispredicted),
            None => mispredicted,
        };
        self.counters[slot].record_branch(recorded_miss);
        let event = BranchEvent { addr, outcome, prediction, mispredicted: recorded_miss, cold };
        if self.tracer.is_enabled() {
            self.trace_retired(ctx, &event, committed, target, latency);
        }
        (event, latency.unwrap_or(0))
    }

    /// The prediction under an installed mitigation policy, and the
    /// predictor address the BPU committed the branch at (`None` when the
    /// policy bypassed the predictor or suppressed the update).
    #[cold]
    #[inline(never)]
    fn predict_with_policy(
        &mut self,
        ctx: ContextId,
        addr: VirtAddr,
        outcome: Outcome,
        target: Option<VirtAddr>,
    ) -> (Prediction, bool, Option<VirtAddr>) {
        let policy = self.policy.as_mut().expect("only called with a policy installed");
        let retired = if policy.bypass_prediction(ctx, addr) {
            // §10.2 "removing prediction for sensitive branches": static
            // not-taken prediction, no BPU state touched.
            let prediction = Prediction {
                direction: Outcome::NotTaken,
                used: PredictorKind::Bimodal,
                bimodal: Outcome::NotTaken,
                gshare: Outcome::NotTaken,
                btb_hit: false,
                target: None,
            };
            (prediction, outcome.is_taken(), None)
        } else {
            let indexed = policy.index_addr(ctx, addr);
            if policy.suppress_update(ctx, addr) {
                // Stochastic-FSM defense: predict normally, skip the
                // state transition for this dynamic branch.
                let prediction = self.bpu.predict(indexed);
                (prediction, prediction.direction != outcome, None)
            } else {
                let (prediction, correct) = self.bpu.execute(indexed, outcome, target);
                (prediction, !correct, Some(indexed))
            }
        };
        policy.on_branch(self.tsc);
        retired
    }

    /// Samples the latency an `rdtscp` pair around a retired branch
    /// reports, timing fuzz included.
    fn measure(&mut self, mispredicted: bool, cold: bool, taken_btb_miss: bool) -> u64 {
        let latency =
            self.timing.sample_with_btb(&mut self.rng, mispredicted, cold, taken_btb_miss);
        match self.fuzz {
            Some(fuzz) => fuzz.jitter_latency(&mut self.rng, latency),
            None => latency,
        }
    }

    /// Emits the trace events of a retired branch: the branch with its
    /// latency (`None` unless it was measured), then the BTB install of a
    /// taken branch the BPU committed (at `committed`, the predictor
    /// address).
    #[cold]
    #[inline(never)]
    fn trace_retired(
        &mut self,
        ctx: ContextId,
        event: &BranchEvent,
        committed: Option<VirtAddr>,
        target: Option<VirtAddr>,
        latency: Option<u64>,
    ) {
        self.tracer.emit_with(|| TraceEvent::Branch {
            ctx,
            addr: event.addr,
            taken: event.outcome.is_taken(),
            predicted_taken: event.prediction.direction.is_taken(),
            mispredicted: event.mispredicted,
            two_level: event.prediction.used == PredictorKind::Gshare,
            btb_hit: event.prediction.btb_hit,
            latency,
        });
        if let Some(addr) = committed.filter(|_| event.outcome.is_taken()) {
            let target = target.unwrap_or(addr + 2);
            self.tracer.emit_with(|| TraceEvent::BtbInstall { addr, target });
        }
    }

    /// Injects `n` background branches immediately (regardless of the
    /// configured rate). Returns how many were injected.
    ///
    /// Background branches share the BPU but are executed by the sibling
    /// hardware thread: they appear in no foreground context's counters and
    /// their latency does not advance the foreground clock.
    pub fn inject_noise_burst(&mut self, n: usize) -> usize {
        let Some(noise) = &self.noise else { return 0 };
        for _ in 0..n {
            let addr = self.rng.gen_range(noise.addr_lo..noise.addr_hi);
            let outcome = Outcome::from_bool(self.rng.gen_bool(noise.taken_bias));
            let indexed = self.policy.as_ref().map_or(addr, |p| p.index_addr(NOISE_CTX, addr));
            self.bpu.execute(indexed, outcome, None);
        }
        if n > 0 {
            let injected = u32::try_from(n).unwrap_or(u32::MAX);
            self.tracer.emit_with(|| TraceEvent::NoiseBurst { injected });
        }
        n
    }

    /// Injects the background branches that arrived since the previous
    /// check (see [`NoiseProcess`]).
    #[inline]
    fn inject_pending_noise(&mut self) {
        let Some(noise) = &mut self.noise else { return };
        let n = noise.arrivals.arrivals(self.tsc, &mut self.rng);
        if n > 0 {
            self.inject_noise_burst(n);
        }
    }

    /// Fresh deterministic RNG stream derived from the core's seed stream,
    /// for experiment code that needs auxiliary randomness.
    pub fn fork_rng(&mut self) -> StdRng {
        StdRng::seed_from_u64(self.rng.gen())
    }
}

/// The longest gap between two noise checks of back-to-back branches: one
/// fully stalled branch's clock advance. Longer gaps are waits.
fn max_noise_step(timing: &TimingModel) -> u64 {
    timing.advance_with_btb(true, true, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bscope_bpu::PhtState;
    use bscope_trace::TracedEvent;

    fn core() -> SimCore {
        SimCore::new(MicroarchProfile::haswell(), 99)
    }

    #[test]
    fn counters_are_per_context() {
        let mut c = core();
        c.execute_branch_in(0, 0x1000, Outcome::Taken, None);
        c.execute_branch_in(1, 0x2000, Outcome::Taken, None);
        c.execute_branch_in(1, 0x2000, Outcome::Taken, None);
        assert_eq!(c.counters(0).branches_retired, 1);
        assert_eq!(c.counters(1).branches_retired, 2);
        assert_eq!(c.counters(7).branches_retired, 0);
    }

    #[test]
    fn tsc_advances_with_execution() {
        let mut c = core();
        let t0 = c.rdtscp();
        c.execute_branch(0x1000, Outcome::Taken);
        assert!(c.rdtscp() > t0);
        let t1 = c.rdtscp();
        c.advance_cycles(500);
        assert_eq!(c.rdtscp(), t1 + 500);
    }

    #[test]
    fn shared_bpu_couples_contexts() {
        // Context 1 trains a branch; context 0 observes the trained state at
        // an aliasing address — the attack's collision premise.
        let mut c = core();
        for _ in 0..3 {
            c.execute_branch_in(1, 0x30_0000, Outcome::Taken, None);
        }
        let pht_size = c.profile().pht_size as u64;
        assert_eq!(c.bpu().pht_state(0x30_0000 + pht_size), PhtState::StronglyTaken);
    }

    #[test]
    fn noise_perturbs_bpu_but_not_counters() {
        let mut c = core().with_noise(NoiseConfig::heavy()).unwrap();
        let before_btb = c.bpu().btb().occupancy();
        for i in 0..200 {
            c.execute_branch(0x5000 + i * 7, Outcome::NotTaken);
        }
        assert!(
            c.bpu().btb().occupancy() > before_btb,
            "noise must install BTB entries"
        );
        // Foreground executed 200 branches; noise must not inflate that.
        assert_eq!(c.counters(0).branches_retired, 200);
    }

    #[test]
    fn noise_burst_requires_configuration() {
        let mut c = core();
        assert_eq!(c.inject_noise_burst(10), 0, "no noise configured");
        c.set_noise(Some(NoiseConfig::system_activity())).unwrap();
        assert_eq!(c.inject_noise_burst(10), 10);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut c = SimCore::new(MicroarchProfile::skylake(), seed)
                .with_noise(NoiseConfig::system_activity())
                .unwrap();
            (0..100)
                .map(|i| {
                    let outcome = Outcome::from_bool(i % 3 == 0);
                    c.timed_branch_in(0, 0x9000 + i * 3, outcome, None).1
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds should differ somewhere");
    }

    #[test]
    fn first_execution_is_cold() {
        let mut c = core();
        assert!(c.execute_branch(0x8000, Outcome::Taken).cold);
        assert!(!c.execute_branch(0x8000, Outcome::Taken).cold);
    }

    #[test]
    fn misprediction_reported_and_counted() {
        let mut c = core();
        // Train strongly taken, then surprise with not-taken.
        for _ in 0..3 {
            c.execute_branch(0x700, Outcome::Taken);
        }
        let before = c.counters(0);
        let ev = c.execute_branch(0x700, Outcome::NotTaken);
        assert!(ev.mispredicted);
        assert_eq!(c.counters(0).since(&before).branch_misses, 1);
    }

    /// Emitting trace events must not perturb simulation state: a traced
    /// core and an untraced one produce bit-identical branch streams, and
    /// the capture records what actually happened.
    #[test]
    fn tracing_is_an_observer_not_a_participant() {
        let run = |traced: bool| {
            let mut c = SimCore::new(MicroarchProfile::skylake(), 7)
                .with_noise(NoiseConfig::system_activity())
                .unwrap();
            if traced {
                c.set_tracer(Tracer::ring(4096));
            }
            c.trace_span_begin(Span::Prime);
            let events: Vec<u64> = (0..300)
                .map(|i| {
                    let outcome = Outcome::from_bool(i % 3 == 0);
                    c.timed_branch_in(0, 0x9000 + i * 3, outcome, None).1
                })
                .collect();
            c.trace_span_end(Span::Prime);
            (events, c.rdtscp(), c.take_tracer().drain())
        };
        let (lat_on, tsc_on, capture) = run(true);
        let (lat_off, tsc_off, empty) = run(false);
        assert_eq!(lat_on, lat_off, "tracing changed branch latencies");
        assert_eq!(tsc_on, tsc_off, "tracing changed the clock");
        assert!(empty.events.is_empty() && empty.metrics.is_empty());

        assert_eq!(capture.metrics.counter("branches"), 300);
        assert_eq!(capture.metrics.counter("spans/prime"), 1);
        assert_eq!(capture.metrics.counter("btb_installs"), 100, "every third branch is taken");
        assert!(capture.metrics.counter("noise_branches") > 0, "noise bursts are traced");
        assert_eq!(capture.metrics.histogram("branch_latency").unwrap().count(), 300);
        // Span markers carry the simulated clock, never wall-clock.
        match (capture.events.first(), capture.events.last()) {
            (
                Some(TracedEvent { event: TraceEvent::SpanBegin { span: Span::Prime, tsc: t0 }, .. }),
                Some(TracedEvent { event: TraceEvent::SpanEnd { span: Span::Prime, tsc: t1 }, .. }),
            ) => assert!(t1 > t0 && *t1 == tsc_on, "span stamps follow the sim clock"),
            other => panic!("span markers must bracket the capture, got {other:?}"),
        }
    }

    #[test]
    fn traced_branch_events_describe_the_prediction() {
        let mut c = core();
        c.set_tracer(Tracer::ring(64));
        for _ in 0..3 {
            c.execute_branch(0x700, Outcome::Taken);
        }
        let (ev, measured) = c.timed_branch_in(0, 0x700, Outcome::NotTaken, None);
        assert!(ev.mispredicted);
        let capture = c.take_tracer().drain();
        let branches: Vec<&TracedEvent> = capture
            .events
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::Branch { .. }))
            .collect();
        assert_eq!(branches.len(), 4);
        for unmeasured in &branches[..3] {
            assert!(matches!(unmeasured.event, TraceEvent::Branch { latency: None, .. }));
        }
        match branches[3].event {
            TraceEvent::Branch { taken, predicted_taken, mispredicted, latency, .. } => {
                assert!(!taken && predicted_taken && mispredicted);
                assert_eq!(latency, Some(measured));
            }
            _ => unreachable!(),
        }
        // The three taken branches each installed their BTB entry.
        assert_eq!(capture.metrics.counter("btb_installs"), 3);
    }

    /// With noise off and no counter flips, nothing but a measurement
    /// reads the random stream, so measuring some of the branches (timing
    /// fuzz included) changes nothing the simulation does: mixed
    /// throughput and measured entries leave the same events, clock,
    /// counters, statistics, PHT and BTB as throughput entries alone.
    #[test]
    fn measuring_a_branch_changes_no_simulated_state() {
        let run = |measured: fn(u64) -> bool| {
            let mut c = SimCore::new(MicroarchProfile::skylake(), 21);
            let fuzz = MeasurementFuzz { counter_flip_probability: 0.0, extra_timing_sigma: 60.0 };
            c.set_measurement_fuzz(Some(fuzz)).unwrap();
            let mut events = Vec::new();
            // Cold first touches, then warm taken and not-taken branches at
            // the same addresses, with a wait in between.
            for round in 0..3u64 {
                for i in 0..200u64 {
                    let addr = 0x9000 + i * 6;
                    let outcome = Outcome::from_bool((i + round) % 3 == 0);
                    let ctx = (i % 2) as ContextId;
                    events.push(if measured(i) {
                        c.timed_branch_in(ctx, addr, outcome, None).0
                    } else {
                        c.execute_branch_in(ctx, addr, outcome, None)
                    });
                }
                c.advance_cycles(2_000);
            }
            let pht: Vec<_> = (0..200u64).map(|i| c.bpu().pht_state(0x9000 + i * 6)).collect();
            let btb: Vec<_> = (0..200u64).map(|i| c.bpu().btb().lookup(0x9000 + i * 6)).collect();
            let counters = [c.counters(0), c.counters(1)];
            (events, c.rdtscp(), counters, c.bpu().stats(), pht, btb)
        };
        let throughput = run(|_| false);
        assert!(throughput.0.iter().any(|e| e.cold) && throughput.0.iter().any(|e| !e.cold));
        for mixed in [run(|_| true), run(|i| i % 3 == 0)] {
            assert_eq!(throughput.0, mixed.0, "branch events");
            assert_eq!(throughput.1, mixed.1, "rdtscp");
            assert_eq!(throughput.2, mixed.2, "performance counters");
            assert_eq!(throughput.3, mixed.3, "predictor stats");
            assert_eq!(throughput.4, mixed.4, "PHT state");
            assert_eq!(throughput.5, mixed.5, "BTB state");
        }
    }

    /// A measured branch draws exactly one latency sample, plus the timing
    /// jitter when the fuzz has a timing sigma, and a throughput branch
    /// draws nothing: checked word for word against a reference stream.
    #[test]
    fn a_measured_branch_draws_one_latency_sample() {
        for sigma in [0.0, 60.0] {
            let seed = 77;
            let profile = MicroarchProfile::haswell();
            let timing = TimingModel::new(profile.timing);
            let fuzz = MeasurementFuzz { counter_flip_probability: 0.0, extra_timing_sigma: sigma };
            let mut c = SimCore::new(profile, seed);
            c.set_measurement_fuzz(Some(fuzz)).unwrap();
            let mut reference = StdRng::seed_from_u64(seed);
            for i in 0..40u64 {
                let (addr, outcome) = (0x4000 + (i % 7) * 64, Outcome::from_bool(i % 3 != 0));
                if i % 4 != 0 {
                    c.execute_branch(addr, outcome);
                    continue;
                }
                let (ev, latency) = c.timed_branch_in(0, addr, outcome, None);
                let taken_btb_miss = outcome.is_taken() && !ev.prediction.btb_hit;
                let expected =
                    timing.sample_with_btb(&mut reference, ev.mispredicted, ev.cold, taken_btb_miss);
                assert_eq!(latency, fuzz.jitter_latency(&mut reference, expected), "branch {i}");
            }
            let next = StdRng::seed_from_u64(reference.gen()).gen::<u64>();
            assert_eq!(c.fork_rng().gen::<u64>(), next, "sigma {sigma}: the stream moved on");
        }
    }

    /// The measured entry injects the background branches that arrived
    /// before it, exactly as the throughput entry does: after a stretch of
    /// quiet branches leaves arrivals pending, both entries retire the same
    /// event on the same predictor, and the trace shows the burst first.
    /// (Noise is injected before any latency word is drawn.)
    #[test]
    fn a_measured_branch_injects_pending_noise_first() {
        let run = |measured: bool| {
            let mut c = SimCore::new(MicroarchProfile::skylake(), 31)
                .with_noise(NoiseConfig::heavy())
                .unwrap();
            // The quiet entry skips the noise check, so arrivals pile up
            // over a gap far longer than the decay table.
            for i in 0..200u64 {
                c.execute_branch_quiet(0, 0x9000 + i * 6, Outcome::from_bool(i % 3 == 0), None);
            }
            c.set_tracer(Tracer::ring(16));
            let (addr, outcome) = (0x9000 + 6 * 5, Outcome::NotTaken);
            let event = if measured {
                c.timed_branch_in(0, addr, outcome, None).0
            } else {
                c.execute_branch_in(0, addr, outcome, None)
            };
            let pht: Vec<_> = (0..200u64).map(|i| c.bpu().pht_state(0x9000 + i * 6)).collect();
            let trace: Vec<_> = c.take_tracer().drain().events.into_iter().map(|e| e.event).collect();
            (event, c.bpu().stats(), pht, trace)
        };
        let (throughput, measured) = (run(false), run(true));
        assert!(throughput.1.branches > 201, "noise arrived during the quiet stretch");
        assert_eq!(throughput.0, measured.0, "branch event");
        assert_eq!(throughput.1, measured.1, "predictor stats");
        assert_eq!(throughput.2, measured.2, "PHT state");
        match measured.3.as_slice() {
            [TraceEvent::NoiseBurst { .. }, TraceEvent::Branch { latency: Some(_), .. }] => {}
            other => panic!("expected a noise burst, then the measured branch: {other:?}"),
        }
    }

    /// A rate above one branch per cycle is a typed error that keeps the
    /// previous configuration, and the largest accepted rate serves a long
    /// wait with the expected number of arrivals instead of hanging.
    #[test]
    fn noise_rates_are_bounded_and_long_waits_terminate() {
        let mut c = core().with_noise(NoiseConfig::isolated_core()).unwrap();
        let huge = NoiseConfig { branches_per_kcycle: 1e300, ..NoiseConfig::system_activity() };
        assert!(matches!(
            c.set_noise(Some(huge)),
            Err(crate::ConfigError::OutOfRange { field: "branches_per_kcycle", .. })
        ));
        assert_eq!(c.inject_noise_burst(1), 1, "the previous noise stays installed");

        let fastest = NoiseConfig {
            branches_per_kcycle: NoiseConfig::MAX_BRANCHES_PER_KCYCLE,
            ..NoiseConfig::system_activity()
        };
        c.set_noise(Some(fastest)).unwrap();
        let before = c.bpu().stats().branches;
        c.advance_cycles(100_000);
        let arrived = (c.bpu().stats().branches - before) as f64;
        assert!((arrived - 100_000.0).abs() < 5.0 * 100_000f64.sqrt(), "{arrived} arrivals");
        assert_eq!(c.counters(0).branches_retired, 0, "noise retires in no foreground context");
    }

    /// A policy using every hook: a per-context index key re-drawn every 50
    /// branches, an update suppressed on every fifth branch of context 1,
    /// and one bypassed address.
    #[derive(Debug)]
    struct RekeyingPolicy {
        keys: [u64; 3],
        state: u64,
        branches: u64,
    }

    impl RekeyingPolicy {
        const BYPASSED: VirtAddr = 0x9000 + 6 * 17;

        fn key(&self, ctx: ContextId) -> u64 {
            self.keys[(ctx as usize).min(2)]
        }
    }

    impl BpuPolicy for RekeyingPolicy {
        fn index_addr(&self, ctx: ContextId, addr: VirtAddr) -> VirtAddr {
            addr ^ self.key(ctx)
        }

        fn bypass_prediction(&self, _ctx: ContextId, addr: VirtAddr) -> bool {
            addr == Self::BYPASSED
        }

        fn on_branch(&mut self, tsc: u64) {
            self.branches += 1;
            if self.branches.is_multiple_of(50) {
                for key in &mut self.keys {
                    self.state = self.state.wrapping_mul(6_364_136_223_846_793_005) ^ tsc;
                    *key = (self.state >> 20) & 0x3fff;
                }
            }
        }

        fn suppress_update(&mut self, ctx: ContextId, _addr: VirtAddr) -> bool {
            ctx == 1 && self.branches.is_multiple_of(5)
        }
    }

    /// The run entry is the branch-by-branch entry with the context
    /// resolved once: a run and the same branches fed one by one through
    /// `execute_branch_in` end in the same state, with noise, timing and
    /// counter fuzz, a policy on every hook and a tracer all active.
    #[test]
    fn execute_run_matches_branch_by_branch_retirement() {
        let run = |as_run: bool| {
            let mut c = SimCore::new(MicroarchProfile::skylake(), 33)
                .with_noise(NoiseConfig::system_activity())
                .unwrap();
            c.set_measurement_fuzz(Some(MeasurementFuzz::strong())).unwrap();
            c.set_policy(Box::new(RekeyingPolicy { keys: [0; 3], state: 5, branches: 0 }));
            c.set_tracer(Tracer::ring(1 << 14));
            for round in 0..3u64 {
                for ctx in [0, 1] {
                    let branches = (0..200u64).map(|i| {
                        (0x9000 + i * 6, Outcome::from_bool((i * 7 + round + u64::from(ctx)) % 3 == 0))
                    });
                    if as_run {
                        c.execute_run(ctx, branches);
                    } else {
                        for (addr, outcome) in branches {
                            c.execute_branch_in(ctx, addr, outcome, None);
                        }
                    }
                }
                c.advance_cycles(2_000);
            }
            let addrs = (0..200u64).map(|i| 0x9000 + i * 6);
            let pht: Vec<_> = addrs.clone().map(|a| c.bpu().pht_state(a)).collect();
            let btb: Vec<_> = addrs.map(|a| c.bpu().btb().lookup(a)).collect();
            let counters = [c.counters(0), c.counters(1), c.counters(2)];
            let capture = c.take_tracer().drain();
            (c.rdtscp(), counters, c.bpu().stats(), pht, btb, capture, c.fork_rng().gen::<u64>())
        };
        let (by_run, one_by_one) = (run(true), run(false));
        let capture = &by_run.5;
        assert_eq!(capture.metrics.counter("branches"), 1_200);
        assert!(capture.metrics.counter("btb_installs") > 0);
        assert!(capture.metrics.counter("noise_branches") > 0);
        assert_eq!(by_run.0, one_by_one.0, "rdtscp");
        assert_eq!(by_run.1, one_by_one.1, "performance counters");
        assert_eq!(by_run.2, one_by_one.2, "predictor stats");
        assert_eq!(by_run.3, one_by_one.3, "PHT state");
        assert_eq!(by_run.4, one_by_one.4, "BTB state");
        assert_eq!(by_run.5, one_by_one.5, "trace capture");
        assert_eq!(by_run.6, one_by_one.6, "next fork_rng value");
    }

    /// Under a policy the trace records the BTB install at the predictor
    /// address the BPU committed, and none for a bypassed branch.
    #[test]
    fn traced_btb_installs_follow_the_policy() {
        let mut c = core();
        c.set_policy(Box::new(RekeyingPolicy { keys: [0x40; 3], state: 0, branches: 0 }));
        c.set_tracer(Tracer::ring(64));
        c.execute_branch(0x9000, Outcome::Taken);
        c.execute_branch(RekeyingPolicy::BYPASSED, Outcome::Taken);
        let installs: Vec<_> = c
            .take_tracer()
            .drain()
            .events
            .into_iter()
            .filter_map(|e| match e.event {
                TraceEvent::BtbInstall { addr, target } => Some((addr, target)),
                _ => None,
            })
            .collect();
        assert_eq!(installs, [(0x9040, 0x9042)]);
    }

    #[test]
    #[should_panic(expected = "context id 4294967295 is above MAX_CTX")]
    fn noise_context_is_rejected_by_the_entry_points() {
        core().execute_branch_in(NOISE_CTX, 0x1000, Outcome::Taken, None);
    }

    #[test]
    #[should_panic(expected = "context id 65536 is above MAX_CTX")]
    fn context_ids_past_the_bound_are_rejected_by_a_run() {
        core().execute_run(MAX_CTX + 1, [(0x1000, Outcome::Taken)]);
    }

    #[test]
    fn the_largest_context_id_retires() {
        let mut c = core();
        c.timed_branch_in(MAX_CTX, 0x1000, Outcome::Taken, None);
        assert_eq!(c.counters(MAX_CTX).branches_retired, 1);
        assert_eq!(c.counters(0).branches_retired, 0);
    }
}
