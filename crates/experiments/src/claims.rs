//! The paper-claims gate: the shapes this reproduction is judged by
//! (Tables 1–3, Fig. 4 and Fig. 8), checked at quick scale over several
//! independent seeds instead of pinned to one random stream.
//!
//! Exact claims (Table 1's rows, Table 3's isolated row) must hold on every
//! seed. A claim about a rate is checked twice:
//!
//! - on each seed, it fails only when the 99.9 % Wilson interval of the
//!   measured rate excludes it, so one unlucky seed cannot fail the gate
//!   while a real shift of the model does;
//! - pooled over all seeds, the point estimate must satisfy it.
//!
//! Every failure names the claim, the seed (or "pooled") and the bound, and
//! each test reports all of its failures at once.

use crate::common::Scale;
use crate::{fig4, fig8, table1, table2, table3};
use bscope_core::stability::StateDistribution;

/// The seeds every claim is checked on; the first is the experiments'
/// default.
const SEEDS: [u64; 5] = [
    0xB5C0_9E01,
    0x5EED_0001,
    0x5EED_0002,
    0x5EED_0003,
    0x5EED_0004,
];

/// Normal quantile of the two-sided 99.9 % Wilson interval.
const Z: f64 = 3.29;

fn quick(seed: u64) -> Scale {
    Scale {
        seed,
        ..Scale::quick()
    }
}

/// `hits` out of `n` Bernoulli trials.
#[derive(Debug, Clone, Copy, Default)]
struct Rate {
    hits: u64,
    n: u64,
}

impl Rate {
    /// The rate behind a measured fraction of `n` trials.
    fn from_fraction(fraction: f64, n: usize) -> Self {
        Rate {
            hits: (fraction * n as f64).round() as u64,
            n: n as u64,
        }
    }

    fn point(self) -> f64 {
        self.hits as f64 / self.n as f64
    }

    /// The Wilson score interval at [`Z`].
    fn wilson(self) -> (f64, f64) {
        let (n, p, z2) = (self.n as f64, self.point(), Z * Z);
        let centre = (p + z2 / (2.0 * n)) / (1.0 + z2 / n);
        let half = Z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / (1.0 + z2 / n);
        ((centre - half).max(0.0), (centre + half).min(1.0))
    }

    fn add(&mut self, other: Rate) {
        self.hits += other.hits;
        self.n += other.n;
    }
}

impl std::fmt::Display for Rate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (lo, hi) = self.wilson();
        write!(
            f,
            "{}/{} = {:.3} % (99.9 % Wilson [{:.3}, {:.3}] %)",
            self.hits,
            self.n,
            100.0 * self.point(),
            100.0 * lo,
            100.0 * hi
        )
    }
}

/// Failed claims, one line each.
#[derive(Default)]
struct Verdict(Vec<String>);

impl Verdict {
    fn check(
        &mut self,
        holds: bool,
        claim: &str,
        seed: Option<u64>,
        detail: impl FnOnce() -> String,
    ) {
        if !holds {
            let seed = seed.map_or_else(
                || "pooled over all seeds".to_owned(),
                |s| format!("seed {s:#x}"),
            );
            self.0
                .push(format!("claim `{claim}` failed, {seed}: {}", detail()));
        }
    }

    /// The rate is at most `bound`: per seed unless its interval lies
    /// wholly above, pooled by its point estimate.
    fn at_most(&mut self, rate: Rate, bound: f64, claim: &str, seed: Option<u64>) {
        let holds = match seed {
            Some(_) => rate.wilson().0 <= bound,
            None => rate.point() <= bound,
        };
        self.check(holds, claim, seed, || {
            format!("{rate}, bound {:.3} %", 100.0 * bound)
        });
    }

    /// The rate lies in `[lo, hi]`: per seed unless its interval misses the
    /// band, pooled by its point estimate.
    fn within(&mut self, rate: Rate, (lo, hi): (f64, f64), claim: &str, seed: Option<u64>) {
        let (wlo, whi) = match seed {
            Some(_) => rate.wilson(),
            None => (rate.point(), rate.point()),
        };
        let holds = whi >= lo && wlo <= hi;
        self.check(holds, claim, seed, || {
            format!("{rate}, band [{:.1}, {:.1}] %", 100.0 * lo, 100.0 * hi)
        });
    }

    /// `later` does not exceed `earlier`: per seed unless the intervals
    /// are disjoint, pooled by the point estimates.
    fn not_above(&mut self, earlier: Rate, later: Rate, claim: &str, seed: Option<u64>) {
        let (holds, bound) = match seed {
            Some(_) => (later.wilson().0 <= earlier.wilson().1, "the intervals overlap"),
            None => (later.point() <= earlier.point(), "no rise"),
        };
        self.check(holds, claim, seed, || {
            format!("rose from {earlier} to {later}, bound: {bound}")
        });
    }

    fn assert_holds(self) {
        assert!(
            self.0.is_empty(),
            "{} claim check(s) failed:\n{}",
            self.0.len(),
            self.0.join("\n")
        );
    }
}

/// Table 1: the probe channel measures every FSM row the model predicts,
/// for both counter kinds.
#[test]
fn table1_rows_are_exact() {
    let mut verdict = Verdict::default();
    for seed in SEEDS {
        for (machine, rows) in table1::compute(&quick(seed)) {
            for (row, measured) in rows {
                verdict.check(
                    measured == row.observation,
                    "Table 1 rows are exact",
                    Some(seed),
                    || format!("{machine}: {row:?} measured {measured}"),
                );
            }
        }
    }
    verdict.assert_holds();
}

/// Table 2: below 1 % error on Skylake and Haswell in both environments,
/// and noise makes Sandy Bridge worse.
#[test]
fn table2_error_bands_hold() {
    let (bits, runs) = Scale::quick().covert_size();
    let mut verdict = Verdict::default();
    let mut pooled: Vec<(String, Rate)> = Vec::new();
    for seed in SEEDS {
        let rows = table2::compute(&quick(seed), bits, runs).expect("valid preset configs");
        pooled.resize(rows.len(), Default::default());
        for ((label, cells), (pooled_label, total)) in rows.into_iter().zip(&mut pooled) {
            let mut rate = Rate::default();
            for pct in cells {
                rate.add(Rate::from_fraction(pct / 100.0, bits * runs));
            }
            if !label.starts_with("Sandy Bridge") {
                verdict.at_most(
                    rate,
                    0.01,
                    &format!("Table 2 {label} error < 1 %"),
                    Some(seed),
                );
            }
            total.add(rate);
            *pooled_label = label;
        }
    }
    for (label, rate) in &pooled {
        println!("Table 2 {label}: pooled {rate}");
        if !label.starts_with("Sandy Bridge") {
            verdict.at_most(*rate, 0.01, &format!("Table 2 {label} error < 1 %"), None);
        }
    }
    let sandy = |setting: &str| {
        let label = format!("Sandy Bridge {setting}");
        pooled
            .iter()
            .find(|(l, _)| *l == label)
            .expect("Sandy Bridge rows")
            .1
    };
    let (isolated, noisy) = (sandy("isolated"), sandy("with noise"));
    verdict.check(
        noisy.point() > isolated.point(),
        "Table 2 Sandy Bridge with noise > isolated",
        None,
        || format!("noisy {noisy} vs isolated {isolated}, bound: strictly greater"),
    );
    verdict.assert_holds();
}

/// Fig. 4: the share of blocks with a stable dominant pattern sits in a
/// band around the paper's 83 %.
#[test]
fn fig4_stable_fraction_is_in_band() {
    const BAND: (f64, f64) = (0.65, 0.95);
    const CLAIM: &str = "Fig. 4 stable fraction in [65, 95] %";
    let mut verdict = Verdict::default();
    let mut pooled = Rate::default();
    for seed in SEEDS {
        let scale = quick(seed);
        let config = bscope_core::stability::StabilityConfig {
            seed,
            ..fig4::config(&scale)
        };
        let dist = StateDistribution::from_blocks(&fig4::analyze_parallel(&config, &scale));
        let stable = Rate {
            hits: (dist.total() - dist.unknown) as u64,
            n: dist.total() as u64,
        };
        verdict.within(stable, BAND, CLAIM, Some(seed));
        pooled.add(stable);
    }
    println!("{CLAIM}: pooled {pooled}");
    verdict.within(pooled, BAND, CLAIM, None);
    verdict.assert_holds();
}

/// Fig. 8: averaging more warm measurements does not raise the timing
/// channel's error up to k = 9, and from k = 9 on it is at most 1 %.
#[test]
fn fig8_warm_error_falls_to_one_percent() {
    let trials = fig8::trials(&Scale::quick());
    let mut verdict = Verdict::default();
    let mut pooled: Vec<(usize, Rate)> = Vec::new();
    let check = |verdict: &mut Verdict, points: &[(usize, Rate)], seed: Option<u64>| {
        for pair in points.windows(2).filter(|p| p[1].0 <= 9) {
            let claim = format!(
                "Fig. 8 warm error k = {} -> {} does not rise",
                pair[0].0, pair[1].0
            );
            verdict.not_above(pair[0].1, pair[1].1, &claim, seed);
        }
        for &(k, rate) in points.iter().filter(|(k, _)| *k >= 9) {
            verdict.at_most(
                rate,
                0.01,
                &format!("Fig. 8 warm error at k = {k} <= 1 %"),
                seed,
            );
        }
    };
    for seed in SEEDS {
        let points: Vec<(usize, Rate)> = fig8::compute(&quick(seed))
            .into_iter()
            .map(|(k, _, warm)| (k, Rate::from_fraction(warm, trials)))
            .collect();
        check(&mut verdict, &points, Some(seed));
        pooled.resize(points.len(), Default::default());
        for ((k, rate), total) in points.into_iter().zip(&mut pooled) {
            total.0 = k;
            total.1.add(rate);
        }
    }
    for (k, rate) in &pooled {
        println!("Fig. 8 warm error at k = {k}: pooled {rate}");
    }
    check(&mut verdict, &pooled, None);
    verdict.assert_holds();
}

/// Table 3: with the malicious OS suppressing all other activity, the
/// enclave channel makes no error at all.
#[test]
fn table3_isolated_error_is_zero() {
    let (bits, runs) = Scale::quick().covert_size();
    let mut verdict = Verdict::default();
    for seed in SEEDS {
        let rows = table3::compute(&quick(seed), bits, runs).expect("valid preset configs");
        let isolated = rows[1];
        verdict.check(
            isolated == [0.0; 3],
            "Table 3 isolated error is 0",
            Some(seed),
            || format!("all-0/all-1/random error {isolated:?} %, bound exactly 0"),
        );
    }
    verdict.assert_holds();
}

#[test]
fn wilson_interval_brackets_the_point_estimate() {
    let none = Rate { hits: 0, n: 300 };
    assert_eq!(none.wilson().0, 0.0);
    assert!((0.03..0.04).contains(&none.wilson().1), "{none}");
    let half = Rate {
        hits: 500,
        n: 1_000,
    };
    let (lo, hi) = half.wilson();
    assert!(
        (lo + hi - 1.0).abs() < 1e-12 && (0.44..0.45).contains(&lo),
        "{half}"
    );
}
