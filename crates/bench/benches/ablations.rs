//! Design-choice ablations called out in DESIGN.md.

use bscope_bench::attack_fixture;
use bscope_bpu::{
    CounterKind, GlobalHistoryRegister, Microarch, MicroarchProfile, Outcome,
    PerceptronPredictor, PhtState,
};
use bscope_core::TargetedPrime;
use bscope_os::System;
use bscope_uarch::NoiseConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn profile_with_counter(kind: CounterKind) -> MicroarchProfile {
    MicroarchProfile { arch: Microarch::Custom, counter_kind: kind, ..MicroarchProfile::skylake() }
}

/// Counter flavour ablation: does the Skylake 5-level counter change the
/// cost of a full attack round?
fn counter_kind_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_counter_kind");
    for (name, kind) in
        [("two_bit", CounterKind::TwoBit), ("skylake_asym", CounterKind::SkylakeAsymmetric)]
    {
        group.bench_function(name, |b| {
            let profile = profile_with_counter(kind);
            let (mut sys, victim, spy, target) = attack_fixture(profile.clone(), 20);
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

/// Prime pollution budget: the cost knob of the targeted prime.
fn pollution_budget_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_prime_pollution");
    for budget in [64usize, 256, 1024] {
        group.bench_with_input(BenchmarkId::from_parameter(budget), &budget, |b, &budget| {
            let mut sys = System::new(MicroarchProfile::skylake(), 21);
            let spy = sys.spawn("spy", bscope_os::AslrPolicy::Disabled);
            let mut prime = TargetedPrime::new(0x40_006d, PhtState::StronglyNotTaken);
            prime.set_pollution(budget);
            b.iter(|| prime.prime(&mut sys.cpu(spy)));
        });
    }
    group.finish();
}

/// Noise-level ablation: simulation cost of background activity.
fn noise_level_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_noise_level");
    for (name, noise) in [
        ("none", None),
        ("isolated", Some(NoiseConfig::isolated_core())),
        ("system", Some(NoiseConfig::system_activity())),
        ("heavy", Some(NoiseConfig::heavy())),
    ] {
        group.bench_function(name, |b| {
            let profile = MicroarchProfile::skylake();
            let (mut sys, victim, spy, target) = attack_fixture(profile.clone(), 22);
            sys.set_noise(noise.clone()).expect("preset noise is valid");
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

/// Substrate ablation: perceptron predictor throughput vs the hybrid.
fn perceptron_substrate(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_substrate_throughput");
    group.throughput(Throughput::Elements(1));
    group.bench_function("perceptron_execute", |b| {
        let mut ghr = GlobalHistoryRegister::new(16);
        let mut p = PerceptronPredictor::new(4_096, 16);
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(p.execute(0x100 + (i % 1024) * 3, &mut ghr, Outcome::from_bool(i & 3 == 0)))
        });
    });
    group.bench_function("hybrid_execute", |b| {
        let mut bpu = bscope_bpu::BackendKind::Hybrid.build(MicroarchProfile::skylake());
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(bpu.execute(0x100 + (i % 1024) * 3, Outcome::from_bool(i & 3 == 0), None))
        });
    });
    group.finish();
}

criterion_group!(
    ablations,
    counter_kind_ablation,
    pollution_budget_ablation,
    noise_level_ablation,
    perceptron_substrate,
);
criterion_main!(ablations);
