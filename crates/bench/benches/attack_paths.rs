//! Micro-benchmarks of the hot attack primitives.

use bscope_bench::attack_fixture;
use bscope_bpu::{BackendKind, MicroarchProfile, Outcome, PhtState};
use bscope_core::reverse::hamming_ratio;
use bscope_core::{
    probe_with_counters, DecodedState, ProbeKind, RandomizationBlock, TargetedPrime,
};
use bscope_os::{AslrPolicy, System};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Raw hybrid predictor execute (predict + update + BTB/GHR commit).
fn bpu_execute(c: &mut Criterion) {
    let mut group = c.benchmark_group("bpu_execute");
    group.throughput(Throughput::Elements(1));
    group.bench_function("hybrid_predict_update", |b| {
        let mut bpu = BackendKind::Hybrid.build(MicroarchProfile::skylake());
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(bpu.execute(0x40_0000 + (i % 4096) * 3, Outcome::from_bool(i & 1 == 0), None))
        });
    });
    group.finish();
}

/// Simulated core branch execution (adds i-cache, timing, counters, TSC).
fn core_execute(c: &mut Criterion) {
    let mut group = c.benchmark_group("core_execute");
    group.throughput(Throughput::Elements(1));
    group.bench_function("sim_core_branch", |b| {
        let mut sys = System::new(MicroarchProfile::skylake(), 11);
        let pid = sys.spawn("bench", AslrPolicy::Disabled);
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(sys.cpu(pid).branch_at(0x100 + (i % 4096) * 3, Outcome::Taken))
        });
    });
    group.finish();
}

/// Stage 1: the fast targeted prime.
fn targeted_prime(c: &mut Criterion) {
    c.bench_function("stage1_targeted_prime", |b| {
        let mut sys = System::new(MicroarchProfile::skylake(), 12);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let mut prime = TargetedPrime::new(0x40_006d, PhtState::StronglyNotTaken);
        b.iter(|| prime.prime(&mut sys.cpu(spy)));
    });
}

/// Stage 1 (paper-faithful): executing a full randomization block.
fn block_execution(c: &mut Criterion) {
    let profile = MicroarchProfile::skylake();
    let block = RandomizationBlock::for_profile(&profile, 13);
    let mut group = c.benchmark_group("stage1_full_block");
    group.throughput(Throughput::Elements(block.len() as u64));
    group.sample_size(10);
    group.bench_function("execute_block", |b| {
        let mut sys = System::new(profile.clone(), 14);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        b.iter(|| block.execute(&mut sys.cpu(spy)));
    });
    group.finish();
}

/// Stage 3: the two-branch counter probe.
fn counter_probe(c: &mut Criterion) {
    c.bench_function("stage3_counter_probe", |b| {
        let mut sys = System::new(MicroarchProfile::skylake(), 15);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        b.iter(|| black_box(probe_with_counters(&mut sys.cpu(spy), 0x40_006d, ProbeKind::TakenTaken)));
    });
}

/// Full single-bit round on each paper machine.
fn read_bit_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_read_bit");
    for profile in MicroarchProfile::paper_machines() {
        group.bench_function(profile.arch.to_string(), |b| {
            let (mut sys, victim, spy, target) = attack_fixture(profile.clone(), 16);
            let mut attack =
                bscope_core::BranchScope::new(bscope_core::AttackConfig::for_profile(&profile))
                    .unwrap();
            b.iter(|| {
                black_box(attack.read_bit(&mut sys, spy, target, |sys| {
                    sys.cpu(victim).branch_at(0x6d, Outcome::Taken);
                }))
            });
        });
    }
    group.finish();
}

/// Offline analysis: Hamming ratio over a 64K state vector.
fn hamming(c: &mut Criterion) {
    c.bench_function("hamming_ratio_w16384", |b| {
        let states: Vec<DecodedState> = (0..65_536)
            .map(|i| DecodedState::Known(PhtState::ALL[(i * 7 + i / 16_384) % 4]))
            .collect();
        let mut rng = StdRng::seed_from_u64(17);
        b.iter(|| black_box(hamming_ratio(&states, 16_384, 100, &mut rng)));
    });
}

criterion_group!(
    attack_paths,
    bpu_execute,
    core_execute,
    targeted_prime,
    block_execution,
    counter_probe,
    read_bit_round,
    hamming,
);
criterion_main!(attack_paths);
