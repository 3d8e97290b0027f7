//! The benchmark's definition: workloads and metrics, from which
//! `BENCHMARK.json` is generated (`--write-spec`).

use std::fmt::Write as _;

pub const RUN_SECONDS: u64 = 20;
/// The seed to develop a change with (used when `--seed` is left out).
pub const DEFAULT_SEED: u64 = 20_180_324;
/// The seed to re-check a claim with; keep it out of development runs.
pub const HELD_OUT_SEED: u64 = 7_340_033;

pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "covert_noisy",
        "Table 2 Sandy Bridge with noise: one read_bit round per bit; about 60% of simulated branches are background noise, so the noise injector and attack round show",
    ),
    (
        "block_stability",
        "Fig. 4 on Haswell: one 163840-branch randomization block plus a probe pair per op; about 95% foreground branches, so the per-branch throughput path shows",
    ),
    (
        "timing_probe",
        "Fig. 8 on Skylake without noise: detection trials whose every sampled latency is read; exercises the measured path and Skylake's 5-state counter",
    ),
];

/// (name, unit, better, bound)
pub const END_TO_END: [(&str, &str, &str, f64); 8] = [
    ("ops_per_s", "ops/s", "higher", 0.25),
    ("sim_branches_per_s", "branches/s", "higher", 0.25),
    ("op_p50_us", "us", "lower", 0.25),
    ("op_p99_us", "us", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("sim_error_pct", "%", "lower", 0.25),
    ("sim_kcycles_per_op", "kcycles", "lower", 0.05),
];

/// (name, unit, better)
pub const PER_LAYER: [(&str, &str, &str); 24] = [
    ("core.read_bit_us", "us", "lower"),
    ("core.prime_us", "us", "lower"),
    ("core.victim_window_us", "us", "lower"),
    ("core.probe_us", "us", "lower"),
    ("core.block_execute_ms", "ms", "lower"),
    ("core.block_probe_us", "us", "lower"),
    ("core.latency_sample_us", "us", "lower"),
    ("core.fg_branches_per_op", "count", "lower"),
    ("os.branch_at_ns", "ns", "lower"),
    ("os.work_ns_per_kcycle", "ns/kcycle", "lower"),
    ("uarch.execute_branch_ns", "ns", "lower"),
    ("uarch.execute_branch_noisy_ns", "ns", "lower"),
    ("uarch.noise_branch_ns", "ns", "lower"),
    ("uarch.sample_ns", "ns", "lower"),
    ("uarch.noise_branches_per_op", "count", "lower"),
    ("uarch.noise_share_pct", "%", "lower"),
    ("uarch.icache_miss_pct", "%", "lower"),
    ("bpu.execute_ns.hybrid", "ns", "lower"),
    ("bpu.execute_ns.tage", "ns", "lower"),
    ("bpu.execute_ns.perceptron", "ns", "lower"),
    ("bpu.mispredict_pct", "%", "lower"),
    ("bpu.gshare_used_pct", "%", "lower"),
    ("harness.overhead_pct", "%", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

/// `BENCHMARK.json` as this benchmark defines it.
pub fn benchmark_json() -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n");
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}{comma}"
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}"
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_matches_the_definition() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with --write-spec BENCHMARK.json"
        );
    }

    #[test]
    fn whys_fit_one_line_of_200_characters() {
        for (name, why) in WORKLOADS {
            assert!(why.chars().count() <= 200 && !why.contains('\n'), "{name}");
        }
    }
}
