//! Figure 8: branch-event detection error rate as a function of the number
//! of averaged rdtscp measurements, for the first (cold) and second (warm)
//! executions.

use crate::common::{bar, Scale};
use bscope_bpu::MicroarchProfile;
use bscope_core::timing_probe::detection_error_rate;
use bscope_core::BscopeError;
use bscope_os::{AslrPolicy, System};

/// Detection trials per point.
pub fn trials(scale: &Scale) -> usize {
    scale.n(2_000, 300)
}

/// One point per odd `k` in `1..=19`: `(k, cold error, warm error)`, each
/// over [`trials`] trials on a Skylake machine seeded `scale.seed ^ k`.
pub fn compute(scale: &Scale) -> Vec<(usize, f64, f64)> {
    let trials = trials(scale);
    (1..=19)
        .step_by(2)
        .map(|k| {
            let mut sys = System::new(MicroarchProfile::skylake(), scale.seed ^ k as u64);
            let spy = sys.spawn("spy", AslrPolicy::Disabled);
            let cold = detection_error_rate(&mut sys, spy, k, trials, true);
            let warm = detection_error_rate(&mut sys, spy, k, trials, false);
            (k, cold, warm)
        })
        .collect()
}

pub fn run(scale: &Scale) -> Result<(), BscopeError> {
    println!("error distinguishing predicted from mispredicted branches by timing,");
    println!(
        "as a function of the number of averaged measurements ({} trials/point)\n",
        trials(scale)
    );
    println!("{:>3}  {:<34} {:<34}", "k", "1st measurement (cold)", "2nd measurement (warm)");
    let points = compute(scale);
    for &(k, cold, warm) in &points {
        println!(
            "{k:>3}  {:>6.1}% {}  {:>6.1}% {}",
            100.0 * cold,
            bar(cold, 0.35, 22),
            100.0 * warm,
            bar(warm, 0.35, 22),
        );
    }
    let (_, first_k1, second_k1) = points[0];
    let (_, _, second_k9) = points[4];
    println!("\npaper: 1st measurement 20-30% error; 2nd ~10% at k=1, approaching 0 by k~10.");
    println!(
        "ours : 1st at k=1: {:.1}%; 2nd at k=1: {:.1}%; 2nd at k=9: {:.2}%.",
        100.0 * first_k1,
        100.0 * second_k1,
        100.0 * second_k9
    );
    Ok(())
}
