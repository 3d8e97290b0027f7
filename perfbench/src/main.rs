//! End-to-end and per-layer benchmark of the BranchScope reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload covert_noisy --seed 20180324 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` runs the workload untraced and prints the end-to-end metrics;
//! `--trace 1` runs it untraced and traced side by side with the same seed,
//! checks the two agree bit for bit, and prints the per-layer metrics. The last
//! stdout line is the JSON result. `--workload all` runs every workload in
//! one process. `--write-spec PATH` writes `BENCHMARK.json`. See
//! `perfbench/METRICS.md`.

mod layers;
mod run;
mod spans;
mod spec;
mod workloads;

use run::{median, run_phases, Phase};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}|all> [--seed <n>] [--seconds <n>] [--trace <0|1>]\n       perfbench --write-spec <path>\n\ndefault seed {}, held-out seed {}, default seconds {}",
        workloads::NAMES.join("|"),
        spec::DEFAULT_SEED,
        spec::HELD_OUT_SEED,
        spec::RUN_SECONDS
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = spec::RUN_SECONDS;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|_| format!("invalid --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value()?;
                seconds = v.parse().map_err(|_| format!("invalid --seconds {v:?}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("invalid --trace {v:?}, want 0 or 1")),
                };
            }
            "--write-spec" => {
                let path = value()?;
                std::fs::write(&path, spec::benchmark_json())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!("wrote {path}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(spec::DEFAULT_SEED),
        seconds,
        trace,
    })
}

/// The benchmark's root directory (where its own outputs go).
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(bench_dir())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 || c as u32 == 0x7f => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// FNV-1a over every file under the repository's `crates/` directory,
/// in path order: identifies the simulator source where git cannot.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let root = bench_dir().join("..").join("crates");
    let mut files = Vec::new();
    walk(&root, &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let rel = file
            .strip_prefix(&root)
            .unwrap_or(file)
            .to_string_lossy()
            .into_owned();
        let bytes = std::fs::read(file).unwrap_or_default();
        for b in rel.as_bytes().iter().chain(&bytes) {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x} ({} files)", files.len())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn provenance(args: &Args) -> String {
    let commit = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".to_owned());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    format!(
        "{{\"git_commit\": {}, \"source_fnv64\": {}, \"rustc\": {}, \"cpu\": {}, \"nproc\": {nproc}, \"worker_threads\": 1, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        json_str(&commit),
        json_str(&source_fingerprint()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&cpu_model()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

/// One workload's outcome.
struct Outcome {
    attempted: usize,
    failed: usize,
    correct: bool,
    /// (name, value, unit) in print order.
    metrics: Vec<(String, f64, String)>,
    /// Human-readable lines.
    notes: Vec<String>,
    spans: Option<String>,
    /// The untraced phase's per-window ops/s and p50 (ns), for the result file.
    windows: String,
}

fn phase_failures(p: &Phase) -> usize {
    p.panicked + p.bad_ops
}

fn bench(name: &str, args: &Args) -> Outcome {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut wl = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let w = workloads::setup(name, args.seed).expect("workload name checked");
        setups.push(t.elapsed().as_secs_f64());
        wl = Some(w);
    }
    let wl = wl.expect("at least one set-up");
    let budget = Duration::from_secs(args.seconds);
    let scored_ops = wl.scored_ops();
    let mut phases = vec![(wl, false)];
    if args.trace {
        let twin = workloads::setup(name, args.seed).expect("workload name checked");
        phases.push((twin, true));
    }
    let mut phases = run_phases(phases, args.seed, budget, scored_ops).into_iter();
    let plain = phases.next().expect("the untraced phase");
    let score = plain.wl.score(&plain.scores);
    let scored = plain.scores.len();
    let mut notes = vec![format!("{name}: simulated result: {}", score.summary)];
    let mut problems: Vec<String> = plain.problems.clone();
    let mut failed = phase_failures(&plain);
    let mut attempted = plain.ops + plain.panicked;
    if let Err(e) = &score.check {
        problems.push(format!("output check: {e}"));
        failed += scored;
    }
    notes.push(format!(
        "{name}: work: {} ops, {} branches = {} foreground + {} noise, {:.1} ns per branch",
        plain.ops,
        plain.total,
        plain.fg,
        plain.total.saturating_sub(plain.fg),
        plain.wall_s * 1e9 / plain.total.max(1) as f64
    ));

    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    let mut spans = None;
    let windows = {
        let rates: Vec<f64> = plain.windows.windows.iter().map(|w| w.ops_per_s).collect();
        let medians = plain.windows.medians();
        format!(
            "{{\"seconds\": {}, \"ops_per_s\": {rates:?}, \"p50_ns\": {medians:?}}}",
            run::WINDOW_S
        )
    };
    if args.trace {
        let mut traced = phases.next().expect("the traced phase");
        attempted += traced.ops + traced.panicked;
        failed += phase_failures(&traced);
        problems.extend(traced.problems.iter().map(|p| format!("traced: {p}")));
        // Compare every op both phases ran.
        let common = plain.checkpoints.len().min(traced.checkpoints.len());
        let compared = plain.scores.len().min(traced.scores.len());
        if traced.scores[..compared] != plain.scores[..compared]
            || traced.checkpoints[..common] != plain.checkpoints[..common]
        {
            problems
                .push("traced run's simulated results differ from the untraced run's".to_owned());
            failed += scored;
        }
        let noise = traced.noise_traced.unwrap_or(0);
        if traced.total != traced.fg + noise {
            problems.push(format!(
                "traced: {} predictor branches != {} foreground + {noise} noise",
                traced.total, traced.fg
            ));
            failed += 1;
        }
        notes.push(format!(
            "{name}: traced: {} ops, results identical to the untraced run over {compared} scored ops and {common} checkpoints of {} ops; {} branches = {} foreground + {noise} noise (from the core's trace)",
            traced.ops, run::CHECKPOINT_EVERY, traced.total, traced.fg
        ));
        let layer = layers::measure(name, args.seed, &plain, &mut traced);
        let names: Vec<&str> = layer.iter().map(|m| m.0).collect();
        let want: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, want, "per-layer metrics must match the spec");
        metrics.extend(
            layer
                .into_iter()
                .map(|(n, v, u)| (n.to_owned(), v, u.to_owned())),
        );
        let sp = traced.spans.as_ref().expect("traced phase");
        notes.push(format!("{name}: traced: {} spans closed", sp.closed()));
        spans = Some(sp.to_jsonl());
    } else {
        let windows = &plain.windows.windows;
        let (lo, hi) = windows.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), w| {
            (lo.min(w.ops_per_s), hi.max(w.ops_per_s))
        });
        notes.push(format!(
            "{name}: ops/s per {}-s window: {lo:.3} to {hi:.3} over {} windows",
            run::WINDOW_S,
            windows.len()
        ));
        let sustained = plain.windows.sustained();
        metrics = vec![
            ("ops_per_s".into(), sustained.ops_per_s, "ops/s".into()),
            (
                "sim_branches_per_s".into(),
                sustained.branches_per_s,
                "branches/s".into(),
            ),
            ("op_p50_us".into(), sustained.p50_ns / 1e3, "us".into()),
            ("op_p99_us".into(), sustained.p99_ns / 1e3, "us".into()),
            ("setup_s".into(), median(&mut setups), "s".into()),
            ("peak_rss_mb".into(), peak_rss_mb(), "MiB".into()),
            ("sim_error_pct".into(), score.error_pct, "%".into()),
            (
                "sim_kcycles_per_op".into(),
                plain.scored_cycles as f64 / scored.max(1) as f64 / 1e3,
                "kcycles".into(),
            ),
        ];
        let names: Vec<&str> = metrics.iter().map(|m| m.0.as_str()).collect();
        let want: Vec<&str> = spec::END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, want, "end-to-end metrics must match the spec");
        notes.push(format!(
            "{name}: {} ops over {:.2} s ({:.1} ops/s overall); latencies of up to {} ops per window kept",
            plain.ops,
            plain.wall_s,
            plain.ops as f64 / plain.wall_s,
            run::WINDOW_SAMPLE,
        ));
    }
    let failed_op_pct = 100.0 * failed as f64 / attempted.max(1) as f64;
    notes.push(format!(
        "{name}: failed_op_pct = {failed_op_pct} % ({failed} of {attempted} ops)"
    ));
    for p in &problems {
        notes.push(format!("{name}: FAILED: {p}"));
    }
    Outcome {
        attempted,
        failed,
        correct: problems.is_empty() && failed == 0,
        metrics,
        notes,
        spans,
        windows,
    }
}

fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, f64, String)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(n),
                json_str(u)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn write_out(file: &str, contents: &str) {
    let dir = bench_dir().join("out");
    let path = dir.join(file);
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, contents)) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let prov = provenance(&args);
    println!("provenance {prov}");
    let names: Vec<&str> = if args.workload == "all" {
        workloads::NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };

    let mut all = Vec::new();
    for name in &names {
        let out = bench(name, &args);
        for note in &out.notes {
            println!("{note}");
        }
        for (metric, value, unit) in &out.metrics {
            println!("{name} {metric} = {value} {unit}");
        }
        let line = result_json(out.correct, out.attempted, out.failed, &out.metrics);
        let tag = format!("{name}-seed{}-trace{}", args.seed, u8::from(args.trace));
        write_out(
            &format!("{tag}.json"),
            &format!(
                "{{\"provenance\": {prov}, \"workload\": \"{name}\", \"windows\": {}, \"result\": {line}}}\n",
                out.windows
            ),
        );
        if let Some(spans) = &out.spans {
            write_out(&format!("{tag}.spans.jsonl"), spans);
        }
        all.push((name.to_string(), out, line));
    }

    let correct = all.iter().all(|(_, o, _)| o.correct);
    if let [(_, _, line)] = all.as_slice() {
        println!("{line}");
    } else {
        let attempted = all.iter().map(|(_, o, _)| o.attempted).sum();
        let failed = all.iter().map(|(_, o, _)| o.failed).sum();
        let metrics: Vec<(String, f64, String)> = all
            .iter()
            .flat_map(|(n, o, _)| {
                o.metrics
                    .iter()
                    .map(move |(m, v, u)| (format!("{n}/{m}"), *v, u.clone()))
            })
            .collect();
        println!("{}", result_json(correct, attempted, failed, &metrics));
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
