//! Per-layer metrics of the traced run.
//!
//! The stage spans of the workload's own ops give the `core.*` and
//! `os.work` numbers where the workload makes those calls; a short probe on
//! a separate system built like the workload's gives them where it does
//! not. The `os`, `uarch` and `bpu` costs per branch come from replaying
//! the workload's own foreground branch stream (captured from the core's
//! trace) through each layer's public entry point on separate instances,
//! so the workload's simulated results stay untouched.

use crate::run::Phase;
use crate::spans::Spans;
use crate::workloads::{self, traced_round, Machine};
use bscope_bpu::{BackendKind, Outcome, VirtAddr};
use bscope_core::covert::SENDER_BRANCH_OFFSET;
use bscope_core::timing_probe::collect_latency_samples;
use bscope_core::{probe_with_counters, AttackConfig, BranchScope, ProbeKind, RandomizationBlock};
use bscope_harness::splitmix64;
use bscope_os::AslrPolicy;
use bscope_trace::{RingSink, TraceEvent};
use bscope_uarch::{InstructionCache, NoiseConfig, SimCore, TimingModel, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Host time each replay measurement runs for, at least.
const MIN_REPLAY: Duration = Duration::from_millis(150);
/// Foreground branches captured for the replays, at least (one op at least).
const STREAM_MIN: u64 = 16_384;
/// Trace events the capture ring keeps (more than one block op retires).
const STREAM_RING: usize = 200_000;
/// Background branches per `inject_noise_burst` call in the noise probe.
const NOISE_BURST: usize = 4_096;

/// One per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// One foreground branch as the core's trace reported it.
#[derive(Debug, Clone, Copy)]
struct Branch {
    addr: VirtAddr,
    outcome: Outcome,
    mispredicted: bool,
    taken_btb_miss: bool,
}

/// Runs ops of a fresh copy of workload `name` with a recording trace until
/// enough foreground branches retired, and returns them in order.
fn capture_stream(name: &str, seed: u64) -> Vec<Branch> {
    let mut wl = workloads::setup(name, seed).expect("known workload");
    wl.sys()
        .core_mut()
        .set_tracer(Tracer::with_sink(Box::new(RingSink::new(STREAM_RING))));
    let fg0 = wl.fg_retired();
    let mut i = 0;
    while i == 0 || wl.fg_retired() - fg0 < STREAM_MIN {
        wl.prepare(i);
        wl.op(i, None);
        i += 1;
    }
    let capture = wl.sys().core_mut().take_tracer().drain();
    capture
        .events
        .iter()
        .filter_map(|e| match e.event {
            TraceEvent::Branch {
                addr,
                taken,
                mispredicted,
                btb_hit,
                ..
            } => Some(Branch {
                addr,
                outcome: Outcome::from_bool(taken),
                mispredicted,
                taken_btb_miss: taken && !btb_hit,
            }),
            _ => None,
        })
        .collect()
}

/// Repeats `pass` (one untimed warm-up first) for at least `MIN_REPLAY`,
/// each pass in a span named `name`, and returns ns per item.
fn replay(sp: &mut Spans, name: &'static str, items: usize, mut pass: impl FnMut()) -> f64 {
    pass();
    let start = Instant::now();
    while sp.agg(name).count < 2 || start.elapsed() < MIN_REPLAY {
        sp.time(name, &mut pass);
    }
    let agg = sp.agg(name);
    agg.total_ns as f64 / (agg.count as f64 * items.max(1) as f64)
}

/// Background noise the layer probes use: the workload's own, or the
/// isolated-core preset where the workload runs without noise.
fn probe_noise(machine: &Machine) -> NoiseConfig {
    machine
        .noise
        .clone()
        .unwrap_or_else(NoiseConfig::isolated_core)
}

/// `read_bit` rounds on a system built like the workload's.
fn probe_read_bit(machine: &Machine, seed: u64, sp: &mut Spans) {
    let mut sys = machine.system(splitmix64(seed ^ 0xB17));
    let sender = sys.spawn("trojan", AslrPolicy::Disabled);
    let receiver = sys.spawn("spy", AslrPolicy::Disabled);
    let target = sys.process(sender).vaddr_of(SENDER_BRANCH_OFFSET);
    let mut attack = BranchScope::new(AttackConfig::for_backend(
        &machine.profile,
        BackendKind::Hybrid,
    ))
    .expect("the canonical configuration decodes");
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..2_000 {
        let bit = rng.gen();
        traced_round(&mut sys, &mut attack, sender, receiver, target, bit, sp);
    }
}

/// Fig. 4 block executions and probes on a system built like the workload's.
fn probe_block(machine: &Machine, seed: u64, sp: &mut Spans) {
    let mut sys = machine.system(splitmix64(seed ^ 0xB10C));
    let spy = sys.spawn("spy", AslrPolicy::Disabled);
    let block = RandomizationBlock::generate(seed, machine.profile.pht_size * 10, 0x70_0000);
    for _ in 0..4 {
        sp.time("core.block_execute", || block.execute(&mut sys.cpu(spy)));
        sp.time("core.block_probe", || {
            probe_with_counters(&mut sys.cpu(spy), 0x30_0000, ProbeKind::TakenTaken)
        });
    }
}

/// Latency sampling on a system built like the workload's; returns the
/// number of samples taken.
fn probe_latency(machine: &Machine, seed: u64, sp: &mut Spans) -> u64 {
    let mut sys = machine.system(splitmix64(seed ^ 0xF168));
    let spy = sys.spawn("spy", AslrPolicy::Disabled);
    let n = 500;
    for round in 0..40 {
        let (mispredicted, cold) = (round % 2 == 0, round % 4 < 2);
        sp.time("core.latency_samples", || {
            collect_latency_samples(&mut sys, spy, n, mispredicted, cold)
        });
    }
    40 * n as u64
}

/// The foreground stream with background branches from `noise` mixed in at
/// `ratio` noise branches per foreground branch.
fn mixed_stream(
    stream: &[Branch],
    noise: &NoiseConfig,
    ratio: f64,
    seed: u64,
) -> Vec<(VirtAddr, Outcome)> {
    let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ 0x0153));
    let mut out = Vec::with_capacity(stream.len() + (stream.len() as f64 * ratio) as usize + 1);
    let mut owed = 0.0;
    for b in stream {
        out.push((b.addr, b.outcome));
        owed += ratio;
        while owed >= 1.0 {
            let addr = rng.gen_range(noise.addr_range.clone());
            out.push((addr, Outcome::from_bool(rng.gen_bool(noise.taken_bias))));
            owed -= 1.0;
        }
    }
    out
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}

/// All per-layer metrics of workload `name`. `plain` is the untraced phase,
/// `traced` the traced one (its spans also receive the probe spans).
pub fn measure(name: &str, seed: u64, plain: &Phase, traced: &mut Phase) -> Vec<Metric> {
    let machine = plain.wl.machine();
    let sp = traced
        .spans
        .as_mut()
        .expect("the traced phase records spans");

    if sp.agg("core.read_bit").count == 0 {
        probe_read_bit(&machine, seed, sp);
    }
    if sp.agg("core.block_execute").count == 0 {
        probe_block(&machine, seed, sp);
    }
    let samples = match traced.wl.latency_samples() {
        0 => probe_latency(&machine, seed, sp),
        n => n,
    };
    let work_kcycles =
        AttackConfig::for_profile(&machine.profile).victim_wait_cycles as f64 / 2.0 / 1_000.0;

    let stream = capture_stream(name, seed);
    let noise = probe_noise(&machine);
    let n = stream.len();

    let branch_at_ns = {
        let mut sys = machine.system(splitmix64(seed ^ 0x05));
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        replay(sp, "probe.os.branch_at_abs", n, || {
            let mut cpu = sys.cpu(spy);
            for b in &stream {
                black_box(cpu.branch_at_abs(b.addr, b.outcome));
            }
        })
    };
    let execute_ns = |sp: &mut Spans, span: &'static str, mut core: SimCore| {
        replay(sp, span, n, || {
            for b in &stream {
                black_box(core.execute_branch(b.addr, b.outcome));
            }
        })
    };
    let execute_branch_ns = execute_ns(
        sp,
        "probe.uarch.execute_branch",
        SimCore::new(machine.profile.clone(), seed),
    );
    let execute_branch_noisy_ns = execute_ns(
        sp,
        "probe.uarch.execute_branch_noisy",
        SimCore::new(machine.profile.clone(), seed)
            .with_noise(noise.clone())
            .expect("valid preset"),
    );
    let noise_branch_ns = {
        let mut core = SimCore::new(machine.profile.clone(), seed)
            .with_noise(noise.clone())
            .expect("valid preset");
        replay(sp, "probe.uarch.inject_noise_burst", NOISE_BURST, || {
            black_box(core.inject_noise_burst(NOISE_BURST));
        })
    };
    let sample_ns = {
        let model = TimingModel::new(machine.profile.timing);
        let mut icache = InstructionCache::l1i_default();
        let flags: Vec<(bool, bool, bool)> = stream
            .iter()
            .map(|b| (b.mispredicted, !icache.touch(b.addr), b.taken_btb_miss))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        replay(sp, "probe.uarch.sample_with_btb", n, || {
            let mut sum = 0u64;
            for &(mispredicted, cold, btb_miss) in &flags {
                sum =
                    sum.wrapping_add(model.sample_with_btb(&mut rng, mispredicted, cold, btb_miss));
            }
            black_box(sum);
        })
    };
    let noise_ratio = if plain.fg == 0 {
        0.0
    } else {
        (plain.total - plain.fg) as f64 / plain.fg as f64
    };
    let mixed = mixed_stream(&stream, &noise, noise_ratio, seed);
    let mut bpu_ns = [0.0; 3];
    for (slot, (kind, span)) in [
        (BackendKind::Hybrid, "probe.bpu.execute.hybrid"),
        (BackendKind::Tage, "probe.bpu.execute.tage"),
        (BackendKind::Perceptron, "probe.bpu.execute.perceptron"),
    ]
    .into_iter()
    .enumerate()
    {
        let mut backend = kind.build(machine.profile.clone());
        bpu_ns[slot] = replay(sp, span, mixed.len(), || {
            for &(addr, outcome) in &mixed {
                black_box(backend.execute(addr, outcome, None));
            }
        });
    }

    let ops = plain.ops.max(1) as f64;
    let noise_branches = (plain.total - plain.fg) as f64;
    let stats = plain.stats;
    let untraced_rate = plain.windows.sustained().ops_per_s;
    let traced_rate = traced.windows.sustained().ops_per_s;
    let work = sp.agg("os.work");
    vec![
        (
            "core.read_bit_us",
            sp.agg("core.read_bit").mean_ns() / 1e3,
            "us",
        ),
        (
            "core.prime_us",
            sp.agg("core.prime").mean_self_ns() / 1e3,
            "us",
        ),
        (
            "core.victim_window_us",
            sp.agg("core.victim_window").mean_self_ns() / 1e3,
            "us",
        ),
        (
            "core.probe_us",
            sp.agg("core.probe").mean_self_ns() / 1e3,
            "us",
        ),
        (
            "core.block_execute_ms",
            sp.agg("core.block_execute").mean_ns() / 1e6,
            "ms",
        ),
        (
            "core.block_probe_us",
            sp.agg("core.block_probe").mean_ns() / 1e3,
            "us",
        ),
        (
            "core.latency_sample_us",
            sp.agg("core.latency_samples").total_ns as f64 / samples.max(1) as f64 / 1e3,
            "us",
        ),
        ("core.fg_branches_per_op", plain.fg as f64 / ops, "count"),
        ("os.branch_at_ns", branch_at_ns, "ns"),
        (
            "os.work_ns_per_kcycle",
            work.total_ns as f64 / (work.count.max(1) as f64 * work_kcycles),
            "ns/kcycle",
        ),
        ("uarch.execute_branch_ns", execute_branch_ns, "ns"),
        (
            "uarch.execute_branch_noisy_ns",
            execute_branch_noisy_ns,
            "ns",
        ),
        ("uarch.noise_branch_ns", noise_branch_ns, "ns"),
        ("uarch.sample_ns", sample_ns, "ns"),
        ("uarch.noise_branches_per_op", noise_branches / ops, "count"),
        (
            "uarch.noise_share_pct",
            pct(noise_branches, plain.total as f64),
            "%",
        ),
        (
            "uarch.icache_miss_pct",
            pct(
                plain.icache_misses as f64,
                (plain.icache_hits + plain.icache_misses) as f64,
            ),
            "%",
        ),
        ("bpu.execute_ns.hybrid", bpu_ns[0], "ns"),
        ("bpu.execute_ns.tage", bpu_ns[1], "ns"),
        ("bpu.execute_ns.perceptron", bpu_ns[2], "ns"),
        (
            "bpu.mispredict_pct",
            pct(stats.mispredictions as f64, stats.branches as f64),
            "%",
        ),
        (
            "bpu.gshare_used_pct",
            pct(stats.gshare_used as f64, stats.branches as f64),
            "%",
        ),
        (
            "harness.overhead_pct",
            pct(
                plain.harness_ns.saturating_sub(plain.body_ns) as f64,
                plain.harness_ns as f64,
            ),
            "%",
        ),
        (
            "trace.overhead_pct",
            pct(untraced_rate - traced_rate, untraced_rate),
            "%",
        ),
    ]
}
