//! Table 2: covert-channel error rates on three CPUs, isolated vs noisy.

use crate::common::{metric, trials, with_tracer, Scale};
use bscope_bpu::{BackendKind, MicroarchProfile};
use bscope_core::covert::CovertChannel;
use bscope_core::{AttackConfig, BscopeError};
use bscope_harness::splitmix64;
use bscope_os::{AslrPolicy, System};
use bscope_uarch::NoiseConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Clone, Copy)]
enum Payload {
    AllZero,
    AllOne,
    Random,
}

impl Payload {
    fn bits(self, n: usize, rng: &mut StdRng) -> Vec<bool> {
        match self {
            Payload::AllZero => vec![false; n],
            Payload::AllOne => vec![true; n],
            Payload::Random => (0..n).map(|_| rng.gen()).collect(),
        }
    }
}

const PAYLOADS: [Payload; 3] = [Payload::AllZero, Payload::AllOne, Payload::Random];

/// One transmission run of one table cell; all randomness (machine, noise,
/// message) derives from the trial `seed` handed out by the runner.
fn one_run(
    profile: &MicroarchProfile,
    backend: BackendKind,
    noise: &NoiseConfig,
    payload: Payload,
    bits: usize,
    seed: u64,
    tracer: &mut bscope_uarch::Tracer,
) -> f64 {
    let mut sys = System::with_backend(profile.clone(), backend, seed)
        .with_noise(noise.clone())
        .expect("noise config validated before fan-out");
    let sender = sys.spawn("trojan", AslrPolicy::Disabled);
    let receiver = sys.spawn("spy", AslrPolicy::Disabled);
    let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ 0x7AB1E2));
    let message = payload.bits(bits, &mut rng);
    let mut channel =
        CovertChannel::new(AttackConfig::for_backend(profile, backend)).expect("valid config");
    with_tracer(&mut sys, tracer, |sys| {
        channel.transmit(sys, sender, receiver, &message).error_rate
    })
}

/// Computes the full table: six machine/noise rows of three payload error
/// rates (in percent). All `6 rows x 3 payloads x runs` transmissions are
/// independent trials fanned out over `scale.threads` workers; the result
/// is identical for every thread count.
///
/// Channel and noise configurations are validated up front, outside the
/// fan-out, so a misconfiguration is a typed error rather than a panic in
/// some worker thread.
pub fn compute(scale: &Scale, bits: usize, runs: usize) -> Result<Vec<(String, [f64; 3])>, BscopeError> {
    let machines = MicroarchProfile::paper_machines();
    let settings =
        [("isolated", NoiseConfig::isolated_core()), ("with noise", NoiseConfig::system_activity())];
    for machine in &machines {
        CovertChannel::new(AttackConfig::for_backend(machine, scale.backend))?;
    }
    for (_, noise) in &settings {
        noise.validate()?;
    }
    // Cell order fixes trial indices (and so per-trial seeds): changing it
    // intentionally changes results, like any other seed-schedule change.
    let cells: Vec<(usize, usize, usize)> = (0..machines.len())
        .flat_map(|m| (0..settings.len()).flat_map(move |s| (0..PAYLOADS.len()).map(move |p| (m, s, p))))
        .collect();

    let per_trial = trials(scale, cells.len() * runs, 0x7AB2E2, |idx, seed, tracer| {
        let (m, s, p) = cells[idx / runs];
        one_run(&machines[m], scale.backend, &settings[s].1, PAYLOADS[p], bits, seed, tracer)
    });

    Ok(cells
        .chunks_exact(PAYLOADS.len())
        .enumerate()
        .map(|(row, row_cells)| {
            let (m, s, _) = row_cells[0];
            let mut errors = [0.0f64; 3];
            for (p, cell_err) in errors.iter_mut().enumerate() {
                let cell = row * PAYLOADS.len() + p;
                let runs_of_cell = &per_trial[cell * runs..(cell + 1) * runs];
                *cell_err = 100.0 * runs_of_cell.iter().sum::<f64>() / runs as f64;
            }
            (format!("{} {}", machines[m].arch, settings[s].0), errors)
        })
        .collect())
}

pub fn run(scale: &Scale) -> Result<(), BscopeError> {
    let (bits, runs) = scale.covert_size();
    println!("average error rate transmitting {bits} bits per run, {runs} runs per cell");
    println!("predictor backend: {}\n", scale.backend);
    println!("{:<26} {:>8} {:>8} {:>8}", "", "All 0", "All 1", "Random");

    // Paper's Table 2 for side-by-side comparison.
    let paper: &[(&str, [f64; 3])] = &[
        ("SL isolated (paper)", [0.46, 0.51, 0.63]),
        ("SL with noise (paper)", [0.64, 0.63, 0.74]),
        ("Haswell isolated (paper)", [0.16, 0.27, 0.46]),
        ("Haswell noise (paper)", [0.37, 0.29, 0.67]),
        ("SB isolated (paper)", [0.68, 1.76, 2.44]),
        ("SB with noise (paper)", [1.76, 4.88, 3.38]),
    ];

    let ours = compute(scale, bits, runs)?;

    for (label, row) in &ours {
        println!("{:<26} {:>7.3}% {:>7.3}% {:>7.3}%", label, row[0], row[1], row[2]);
        for (payload, err) in ["all0", "all1", "random"].iter().zip(row) {
            metric(format!("table2/{label}/{payload}_error_pct"), *err);
        }
    }
    println!();
    for (label, row) in paper {
        println!("{:<26} {:>7.2}% {:>7.2}% {:>7.2}%", label, row[0], row[1], row[2]);
    }

    println!("\nshape checks:");
    let avg = |r: &[f64; 3]| (r[0] + r[1] + r[2]) / 3.0;
    let sl = (avg(&ours[0].1), avg(&ours[1].1));
    let hw = (avg(&ours[2].1), avg(&ours[3].1));
    let sb = (avg(&ours[4].1), avg(&ours[5].1));
    println!("  error rates below 1% on Skylake/Haswell: {}", sl.1 < 1.0 && hw.1 < 1.0);
    println!("  Sandy Bridge worse than Skylake & Haswell: {}", sb.1 > sl.1 && sb.1 > hw.1);
    println!(
        "  isolated <= noisy on every machine: {}",
        sl.0 <= sl.1 && hw.0 <= hw.1 && sb.0 <= sb.1
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tentpole property on the real experiment: the table is
    /// bit-identical no matter how many workers computed it.
    #[test]
    fn table_is_thread_count_invariant() {
        let mut scale = Scale::quick();
        scale.threads = 1;
        let sequential = compute(&scale, 200, 2).expect("valid preset configs");
        for threads in [2, 8] {
            scale.threads = threads;
            assert_eq!(compute(&scale, 200, 2).expect("valid preset configs"), sequential, "threads={threads}");
        }
    }

    /// Regression pin of one quick-scale cell (Skylake isolated / random
    /// payload): fails if the seed schedule, RNG, or simulator behaviour
    /// drifts. Update deliberately when any of those changes.
    #[test]
    fn quick_scale_cell_is_pinned() {
        let rows = compute(&Scale::quick(), 1_000, 2).expect("valid preset configs");
        let (label, row) = &rows[0];
        assert_eq!(label, "Skylake isolated");
        // Pinned value; update deliberately when the seed schedule, the
        // simulator, or the PRNG stream changes.
        let expected = 0.15;
        assert_eq!(row[2], expected, "Skylake isolated / random payload drifted");
    }

    /// Backend-refactor regression: selecting the hybrid *explicitly* is
    /// the identity. The whole table — every machine, noise setting, and
    /// payload — must come out equal to the default path's, and the
    /// Skylake cell must still hit the pinned pre-refactor value, proving
    /// the `PredictorBackend` indirection changed no hybrid behaviour.
    #[test]
    fn explicit_hybrid_backend_reproduces_the_pinned_table() {
        let mut explicit = Scale::quick();
        explicit.backend = BackendKind::Hybrid;
        let rows = compute(&explicit, 1_000, 2).expect("valid preset configs");
        assert_eq!(rows, compute(&Scale::quick(), 1_000, 2).expect("valid preset configs"));
        assert_eq!(rows[0].1[2], 0.15, "pinned pre-refactor value drifted");
    }
}
