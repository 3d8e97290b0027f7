//! The closed loop: one worker runs ops back to back through
//! `bscope_harness::run_trials_with`, timing each from outside.

use crate::spans::Spans;
use crate::workloads::Workload;
use bscope_bpu::PredictionStats;
use bscope_harness::{run_trials_with, FaultPolicy, RunOptions};
use bscope_trace::{TraceEvent, TraceSink};
use bscope_uarch::Tracer;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A phase stops here even if its scored ops are not done, so that the
/// command ends within its time limit.
const HARD_STOP: Duration = Duration::from_secs(140);
/// Ops between two bit-identity checkpoints.
pub const CHECKPOINT_EVERY: usize = 256;
/// Op latencies kept per window (the window's first ones), so memory does
/// not follow host speed.
pub const WINDOW_SAMPLE: usize = 4_096;
/// Throughput and latency are taken per window of at least this many
/// seconds (whole batches); see [`Windows::sustained`].
pub const WINDOW_S: f64 = 0.5;
/// The share of windows the reported throughput and latencies describe.
pub const SUSTAINED_SHARE: f64 = 0.9;

/// One window of a phase.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub ops_per_s: f64,
    pub branches_per_s: f64,
    /// Where the window's kept op latencies sit in [`Windows::latency_ns`].
    pub latencies: (usize, usize),
}

/// What a phase sustained.
#[derive(Debug, Clone, Copy)]
pub struct Sustained {
    pub ops_per_s: f64,
    pub branches_per_s: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
}

/// The windows of a phase, in order. The latency buffer is allocated once,
/// before the first op, so that the loop allocates nothing that could
/// make peak memory depend on timing.
#[derive(Debug)]
pub struct Windows {
    pub windows: Vec<Window>,
    /// The first `WINDOW_SAMPLE` op latencies of every window, in ns.
    pub latency_ns: Vec<f64>,
}

impl Windows {
    fn new() -> Self {
        let most = (HARD_STOP.as_secs_f64() / WINDOW_S) as usize + 2;
        Windows {
            windows: Vec::with_capacity(most),
            latency_ns: Vec::with_capacity(most * WINDOW_SAMPLE),
        }
    }

    /// The kept op latencies of window `w`.
    pub fn latencies(&self, w: &Window) -> &[f64] {
        &self.latency_ns[w.latencies.0..w.latencies.1]
    }

    /// Median kept op latency of every window.
    pub fn medians(&self) -> Vec<f64> {
        self.windows
            .iter()
            .map(|w| median(&mut self.latencies(w).to_vec()))
            .collect()
    }

    /// The throughput and median latency `SUSTAINED_SHARE` of the windows
    /// meet (the 10th percentile of the window rates, the 90th of the
    /// window medians), and the 99th latency percentile over the ops of the
    /// `SUSTAINED_SHARE` of windows with the lowest median latency.
    ///
    /// The host this benchmark was written on switches between a fast and
    /// a slow speed, about 1.6× apart, as other tenants come and go; the
    /// share of time spent in each drifts over minutes, and now and then a
    /// second or so runs slower still. Whole-run rates and medians follow
    /// that share and spread by 20–30 % from run to run, and a whole-run
    /// p99 follows the slowest episodes. These figures spread far less.
    pub fn sustained(&self) -> Sustained {
        let low = 1.0 - SUSTAINED_SHARE;
        let mut rates: Vec<f64> = self.windows.iter().map(|w| w.ops_per_s).collect();
        let mut branches: Vec<f64> = self.windows.iter().map(|w| w.branches_per_s).collect();
        let mut by_median: Vec<(f64, &Window)> =
            self.medians().into_iter().zip(&self.windows).collect();
        by_median.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut medians: Vec<f64> = by_median.iter().map(|(m, _)| *m).collect();
        let keep = ((self.windows.len() as f64 * SUSTAINED_SHARE).ceil() as usize).max(1);
        let mut kept: Vec<f64> = by_median
            .iter()
            .take(keep)
            .flat_map(|(_, w)| self.latencies(w).iter().copied())
            .collect();
        Sustained {
            ops_per_s: quantile(&mut rates, low),
            branches_per_s: quantile(&mut branches, low),
            p50_ns: quantile(&mut medians, SUSTAINED_SHARE),
            p99_ns: quantile(&mut kept, 0.99),
        }
    }
}

/// The `q` quantile of `v` with linear interpolation (0 when empty);
/// reorders `v`.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `v` (0 when empty); reorders `v`.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Counts the background branches the core injects, from its own trace
/// events, independently of the predictor's statistics.
struct NoiseTally(Arc<AtomicU64>);

impl TraceSink for NoiseTally {
    fn record(&mut self, _seq: u64, event: &TraceEvent) {
        if let TraceEvent::NoiseBurst { injected } = event {
            self.0.fetch_add(u64::from(*injected), Ordering::Relaxed);
        }
    }
}

/// Everything one phase (untraced or traced) measured.
pub struct Phase {
    pub wl: Box<dyn Workload>,
    pub spans: Option<Spans>,
    pub ops: usize,
    /// Host seconds spent in this phase's batches.
    pub wall_s: f64,
    /// Host time inside `run_trials_with` and inside the trial bodies.
    pub harness_ns: u64,
    pub body_ns: u64,
    pub windows: Windows,
    /// Scores of the first `scored_ops` ops.
    pub scores: Vec<u8>,
    /// Chained digest of all op results, every `CHECKPOINT_EVERY` ops.
    pub checkpoints: Vec<u64>,
    /// Foreground branches (per-process `PerfCounters`) and all branches
    /// (the predictor's `PredictionStats`) over the timed ops.
    pub fg: u64,
    pub total: u64,
    /// Background branches counted from the core's trace (traced phase).
    pub noise_traced: Option<u64>,
    /// Simulated cycles (`rdtscp`) over the scored ops.
    pub scored_cycles: u64,
    pub stats: PredictionStats,
    pub icache_hits: u64,
    pub icache_misses: u64,
    /// Ops that panicked, and ops whose work accounting was wrong.
    pub panicked: usize,
    pub bad_ops: usize,
    pub problems: Vec<String>,
}

/// One phase's state while ops run; it sits in a `Mutex` because the
/// trial runner takes a `Sync` closure.
struct Loop {
    wl: Box<dyn Workload>,
    spans: Option<Spans>,
    /// Background branches the core reported through its trace.
    noise: Option<Arc<AtomicU64>>,
    stats0: PredictionStats,
    icache0: (u64, u64),
    next: usize,
    scored: usize,
    windows: Windows,
    /// Where the open window's latencies begin in `windows.latency_ns`,
    /// its host time so far, and the ops and branches before it.
    window_start: usize,
    window_ns: u64,
    window_marks: (usize, u64),
    scores: Vec<u8>,
    chain: u64,
    checkpoints: Vec<u64>,
    first_fg: Option<u64>,
    fg: u64,
    total: u64,
    scored_cycles: u64,
    harness_ns: u64,
    body_ns: u64,
    panicked: usize,
    bad_ops: usize,
    problems: Vec<String>,
}

impl Loop {
    fn new(mut wl: Box<dyn Workload>, traced: bool) -> Self {
        let noise = traced.then(|| {
            let noise = Arc::new(AtomicU64::new(0));
            let sink = NoiseTally(Arc::clone(&noise));
            wl.sys()
                .core_mut()
                .set_tracer(Tracer::with_sink(Box::new(sink)));
            noise
        });
        let stats0 = wl.sys().core().bpu().stats();
        let icache0 = wl.sys().core_mut().icache_mut().stats();
        let scored = wl.scored_ops();
        Loop {
            wl,
            spans: traced.then(Spans::new),
            noise,
            stats0,
            icache0,
            next: 0,
            scored,
            windows: Windows::new(),
            window_start: 0,
            window_ns: 0,
            window_marks: (0, 0),
            scores: Vec::with_capacity(scored),
            chain: 0xcbf2_9ce4_8422_2325,
            checkpoints: Vec::new(),
            first_fg: None,
            fg: 0,
            total: 0,
            scored_cycles: 0,
            harness_ns: 0,
            body_ns: 0,
            panicked: 0,
            bad_ops: 0,
            problems: Vec::new(),
        }
    }

    fn step(&mut self) {
        let body = Instant::now();
        let i = self.next;
        self.wl.prepare(i);
        let fg0 = self.wl.fg_retired();
        let (all0, tsc0) = {
            let core = self.wl.sys().core();
            (core.bpu().stats().branches, core.rdtscp())
        };
        if let Some(sp) = &mut self.spans {
            sp.set_op(i as u64);
            sp.begin("op");
        }
        let start = Instant::now();
        let out = self.wl.op(i, self.spans.as_mut());
        let latency = start.elapsed();
        if let Some(sp) = &mut self.spans {
            sp.end();
        }
        let fg = self.wl.fg_retired() - fg0;
        let (all, cycles) = {
            let core = self.wl.sys().core();
            (core.bpu().stats().branches - all0, core.rdtscp() - tsc0)
        };

        let expected = self.wl.expected_fg(i).or(self.first_fg);
        let mut problem = None;
        match expected {
            Some(want) if want != fg => {
                problem = Some(format!(
                    "op {i} retired {fg} foreground branches, expected {want}"
                ));
            }
            None => self.first_fg = Some(fg),
            Some(_) => {}
        }
        if all < fg {
            problem = Some(format!(
                "op {i}: predictor saw {all} branches, fewer than the {fg} retired"
            ));
        }
        if let Some(p) = problem {
            self.bad_ops += 1;
            if self.problems.len() < 5 {
                self.problems.push(p);
            }
        }

        self.fg += fg;
        self.total += all;
        if self.windows.latency_ns.len() - self.window_start < WINDOW_SAMPLE {
            self.windows.latency_ns.push(latency.as_nanos() as f64);
        }
        if i < self.scored {
            self.scores.push(out.score);
            self.scored_cycles += cycles;
        }
        self.chain = (self.chain ^ out.digest).wrapping_mul(0x0000_0100_0000_01b3);
        if (i + 1).is_multiple_of(CHECKPOINT_EVERY) {
            self.checkpoints.push(self.chain);
        }
        self.next += 1;
        self.body_ns += u64::try_from(body.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }

    /// Books a batch that took `ns` of host time; closes the window once it
    /// holds `WINDOW_S` of them.
    fn after_batch(&mut self, ns: u64) {
        self.harness_ns += ns;
        self.window_ns += ns;
        if self.window_ns as f64 / 1e9 >= WINDOW_S {
            self.close_window();
        }
    }

    fn close_window(&mut self) {
        let secs = self.window_ns as f64 / 1e9;
        let end = self.windows.latency_ns.len();
        self.windows.windows.push(Window {
            ops_per_s: (self.next - self.window_marks.0) as f64 / secs,
            branches_per_s: (self.total - self.window_marks.1) as f64 / secs,
            latencies: (self.window_start, end),
        });
        self.window_start = end;
        self.window_ns = 0;
        self.window_marks = (self.next, self.total);
    }

    fn finish(mut self, min_ops: usize) -> Phase {
        if self.windows.windows.is_empty() && self.window_ns > 0 {
            // A phase shorter than one window is its own window.
            self.close_window();
        }
        if self.next < min_ops {
            self.problems
                .push(format!("only {} of {min_ops} ops finished", self.next));
        }
        let stats = self.wl.sys().core().bpu().stats().since(&self.stats0);
        let (hits, misses) = self.wl.sys().core_mut().icache_mut().stats();
        let noise_traced = self.noise.map(|noise| {
            drop(self.wl.sys().core_mut().take_tracer());
            noise.load(Ordering::Relaxed)
        });
        Phase {
            ops: self.next,
            wall_s: self.harness_ns as f64 / 1e9,
            harness_ns: self.harness_ns,
            windows: self.windows,
            body_ns: self.body_ns,
            scores: self.scores,
            checkpoints: self.checkpoints,
            fg: self.fg,
            total: self.total,
            noise_traced,
            scored_cycles: self.scored_cycles,
            stats,
            icache_hits: hits - self.icache0.0,
            icache_misses: misses - self.icache0.1,
            panicked: self.panicked,
            bad_ops: self.bad_ops,
            problems: self.problems,
            spans: self.spans,
            wl: self.wl,
        }
    }
}

fn lock(state: &Mutex<Loop>) -> MutexGuard<'_, Loop> {
    // A poisoned lock means an op panicked; the loop stops after that batch
    // and only reads the counters, which every completed op left whole.
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs the given phases, one batch of each in turn, for at least `budget`
/// and until each has run `min_ops` ops. A phase marked traced wraps its
/// ops' library calls in spans, and its core counts background branches
/// through its trace. Taking turns batch by batch gives a traced phase the
/// same host conditions as its untraced twin.
pub fn run_phases(
    phases: Vec<(Box<dyn Workload>, bool)>,
    seed: u64,
    budget: Duration,
    min_ops: usize,
) -> Vec<Phase> {
    let states: Vec<Mutex<Loop>> = phases
        .into_iter()
        .map(|(wl, traced)| Mutex::new(Loop::new(wl, traced)))
        .collect();
    let opts = RunOptions {
        threads: 1,
        policy: FaultPolicy::RecordAndSkip,
        fault: None,
    };
    let start = Instant::now();
    'run: loop {
        let done = states.iter().map(|s| lock(s).next).min().unwrap_or(0);
        let elapsed = start.elapsed();
        if (elapsed >= budget && done >= min_ops.max(1)) || elapsed >= HARD_STOP {
            break;
        }
        for state in &states {
            let batch = lock(state).wl.batch();
            let t = Instant::now();
            let report = run_trials_with(batch, seed, &opts, |_, _| lock(state).step());
            let mut st = lock(state);
            st.after_batch(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
            if !report.failures.is_empty() {
                st.panicked += report.failures.len();
                st.problems
                    .extend(report.failures.iter().map(ToString::to_string));
                break 'run;
            }
        }
    }
    states
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .finish(min_ops)
        })
        .collect()
}
