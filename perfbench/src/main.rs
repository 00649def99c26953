//! The repository benchmark: times one `boolsubst optimize` pipeline per
//! repetition on a workload generated from `--seed`, in a closed loop (one
//! optimize at a time), checks every output, and prints its metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` makes one more,
//! traced run (metrics registry attached, spans written to `perfbench/out/`)
//! and reports the per-layer metrics. The last line of standard output is
//! one JSON object; a readable table and the host fingerprint go to
//! standard error. `perfbench/README.md` documents every workload and
//! metric.

mod pipeline;
mod procfs;
mod spans;
mod workload;

use boolsubst_metrics::MetricsHandle;
use pipeline::{GuardCounts, Optimized};
use spans::Spans;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{Workload, WORKLOADS};

/// Set-up repetitions before each timed repetition; `setup_s` is the
/// median over all of them, so it samples the whole run, not its start.
const SETUP_REPS: usize = 5;
/// Timed repetitions per run at the least, however short `--seconds` is.
const MIN_REPS: usize = 3;

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} value {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let workloads = if workload == "all" {
        WORKLOADS.iter().collect()
    } else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        vec![Workload::find(&workload).ok_or_else(|| {
            format!(
                "unknown workload {workload:?} (use all|{})",
                names.join("|")
            )
        })?]
    };
    Ok(Args {
        workloads,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Where the benchmark was built and run; printed with every result.
struct Host {
    nproc: usize,
    commit: String,
    /// Digest of the workspace sources, for checkouts without git.
    source: String,
    profile: &'static str,
    rustc: String,
}

/// Appends every file under `dir` to `files`.
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

/// FNV-1a over the paths and contents of the workspace crates the
/// benchmark links, in path order.
fn source_digest() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates");
    let mut files = Vec::new();
    walk(&root, &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(
            f.strip_prefix(&root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", pipeline::fnv1a(&bytes))
}

impl Host {
    fn detect() -> Host {
        let run = |cmd: &str, args: &[&str]| {
            Command::new(cmd)
                .args(args)
                .current_dir(env!("CARGO_MANIFEST_DIR"))
                .stdin(Stdio::null())
                .stderr(Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .unwrap_or_else(|| "unknown".to_string())
        };
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            commit: run("git", &["rev-parse", "HEAD"]),
            source: source_digest(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            rustc: run("rustc", &["--version"]),
        }
    }

    fn json(&self) -> String {
        format!(
            r#"{{"nproc":{},"commit":"{}","source":"{}","profile":"{}","rustc":"{}"}}"#,
            self.nproc, self.commit, self.source, self.profile, self.rustc
        )
    }
}

/// Results that every repetition of one seed must reproduce exactly,
/// whatever the thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Committed {
    output_hash: u64,
    literals_out: usize,
    substitutions: usize,
    literal_gain: i64,
}

/// Work counts that repeat exactly on a one-thread sweep; a parallel
/// sweep's speculation makes them vary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Work {
    divisions_tried: usize,
    rar_checks: usize,
    guard: GuardCounts,
}

fn committed(o: &Optimized) -> Committed {
    Committed {
        output_hash: pipeline::fnv1a(&o.output),
        literals_out: o.literals_out,
        substitutions: o.stats.substitutions,
        literal_gain: o.stats.literal_gain,
    }
}

fn work(o: &Optimized) -> Work {
    Work {
        divisions_tried: o.stats.divisions_tried,
        rar_checks: o.stats.rar_checks,
        guard: o.guard,
    }
}

/// The reference run's results, against which every later repetition is
/// checked; its output is checked by the BDD oracle.
struct Reference {
    committed: Committed,
    work: Work,
    output: Vec<u8>,
}

/// Why a completed optimize counts as failed (empty when it passed).
/// Without a reference only the run's own stats are checked.
fn problems(w: &Workload, o: &Optimized, reference: Option<&Reference>) -> Vec<String> {
    let mut p = Vec::new();
    if o.stats.interrupted {
        p.push("sweep interrupted".to_string());
    }
    if o.stats.guard_pass_sampled > 0 {
        p.push(format!(
            "{} guard pass(es) rest on sampling alone",
            o.stats.guard_pass_sampled
        ));
    }
    if let Some(r) = reference {
        if committed(o) != r.committed {
            p.push(format!(
                "committed {:?} != reference {:?}",
                committed(o),
                r.committed
            ));
        }
        if w.threads == 1 && work(o) != r.work {
            p.push(format!("work {:?} != reference {:?}", work(o), r.work));
        }
    }
    p
}

/// One optimize with panics caught: a panic is a failed attempt.
fn attempt(
    w: &Workload,
    input: &[u8],
    spans: &mut Spans,
    metrics: Option<&MetricsHandle>,
) -> Result<Optimized, String> {
    catch_unwind(AssertUnwindSafe(|| {
        pipeline::optimize(w, input, spans, metrics)
    }))
    .unwrap_or_else(|_| Err(format!("{}: optimize panicked", w.name)))
}

fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `(max − min) / median` of a count over the timed repetitions.
fn spread(runs: &[Optimized], count: impl Fn(&Optimized) -> usize) -> f64 {
    let xs: Vec<f64> = runs.iter().map(|o| count(o) as f64).collect();
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    ratio(max - min, median(&xs))
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    let value = if value.is_finite() { value } else { 0.0 };
    Metric { name, value, unit }
}

struct Outcome {
    attempted: usize,
    failed: usize,
    /// Completed timed repetitions (the sample count behind each median).
    samples: usize,
    /// Size of the generated input: AIGER bytes and gates after ingest.
    input_bytes: usize,
    input_gates: usize,
    metrics: Vec<Metric>,
}

/// Generates and serializes the workload input, recording the seconds it took.
fn setup(w: &Workload, seed: u64, seconds: &mut Vec<f64>) -> Vec<u8> {
    let t0 = Instant::now();
    let bytes = w.generate(seed);
    seconds.push(t0.elapsed().as_secs_f64());
    bytes
}

fn bench(w: &Workload, args: &Args, host: &Host) -> Result<Outcome, String> {
    let mut attempted = 0;
    let mut failed = 0;
    let fail = |what: &str, why: &str| {
        eprintln!("perfbench: {}: {what} failed: {why}", w.name);
    };

    // Set-up: generate and serialize the input; repeated through the run.
    let mut setup_s = Vec::new();
    let input = setup(w, args.seed, &mut setup_s);
    let input_gates = pipeline::parse(&input, w)?.internal_ids().count();

    // Reference run: untimed; the BDD oracle checks its output after the
    // timed loop, so oracle memory never inflates a timed run's peak RSS.
    attempted += 1;
    let mut reference = match attempt(w, &input, &mut Spans::new(String::new()), None) {
        Ok(o) => {
            let p = problems(w, &o, None);
            if p.is_empty() {
                Some(Reference {
                    committed: committed(&o),
                    work: work(&o),
                    output: o.output,
                })
            } else {
                failed += 1;
                fail("reference run", &p.join("; "));
                None
            }
        }
        Err(e) => {
            failed += 1;
            fail("reference run", &e);
            None
        }
    };

    // Timed closed loop: untraced repetitions for `--seconds`.
    let mut runs: Vec<Optimized> = Vec::new();
    let window = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut timed = 0;
    while timed < MIN_REPS || start.elapsed() < window {
        for _ in 0..SETUP_REPS {
            if setup(w, args.seed, &mut setup_s) != input {
                return Err(format!("{}: generator is not deterministic", w.name));
            }
        }
        timed += 1;
        attempted += 1;
        match attempt(w, &input, &mut Spans::new(String::new()), None) {
            Ok(mut o) => {
                let p = match &reference {
                    Some(r) => problems(w, &o, Some(r)),
                    None => vec!["no verified reference output".to_string()],
                };
                if !p.is_empty() {
                    failed += 1;
                    fail("timed run", &p.join("; "));
                }
                o.output = Vec::new();
                runs.push(o);
            }
            Err(e) => {
                failed += 1;
                fail("timed run", &e);
            }
        }
    }
    if let Some(r) = &reference {
        if !pipeline::verify(w, &input, &r.output)? {
            fail("reference run", "output is not equivalent to the input");
            // Every run reproduced, or was checked against, a wrong output.
            failed = attempted;
            reference = None;
        }
    }
    let med = |f: fn(&Optimized) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let sweep_untraced = med(|o| o.sweep_s);
    let outcome = |attempted, failed, metrics| Outcome {
        attempted,
        failed,
        samples: runs.len(),
        input_bytes: input.len(),
        input_gates,
        metrics,
    };

    if !args.trace {
        let metrics = vec![
            metric("optimize_s", med(|o| o.wall_s), "s"),
            metric("cpu_s", med(|o| o.cpu_s), "s"),
            metric("peak_rss_mb", med(|o| o.peak_rss_mb), "MiB"),
            metric("literals_out", med(|o| o.literals_out as f64), "count"),
            metric("setup_s", median(&setup_s), "s"),
        ];
        return Ok(outcome(attempted, failed, metrics));
    }

    // Traced run: a registry attached, spans around every layer call.
    let run_id = format!("{}-seed{}-pid{}", w.name, args.seed, std::process::id());
    let mut spans = Spans::new(run_id);
    let handle = MetricsHandle::new();
    let generated = spans.time("generate", None, || w.generate(args.seed));
    attempted += 1;
    let traced = match attempt(w, &generated, &mut spans, Some(&handle)) {
        Ok(o) => o,
        Err(e) => {
            fail("traced run", &e);
            return Ok(outcome(attempted, failed + 1, Vec::new()));
        }
    };
    let mut p = match &reference {
        Some(r) => problems(w, &traced, Some(r)),
        None => vec!["no verified reference output".to_string()],
    };
    if !spans.time("verify", None, || {
        pipeline::verify(w, &generated, &traced.output)
    })? {
        p.push("output is not equivalent to the input".to_string());
    }
    if !p.is_empty() {
        failed += 1;
        fail("traced run", &p.join("; "));
    }
    write_spans(w, args.seed, host, &spans)?;

    let snap = handle.snapshot();
    let counter = |key: &str| {
        snap.counters
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    let histogram = |key: &str| {
        snap.histograms
            .iter()
            .find(|(k, _)| k == key)
            .map_or((0.0, 0.0), |(_, h)| (h.count as f64, h.sum as f64 / 1e9))
    };
    let s = &traced.stats;
    let secs = |nanos: u64| nanos as f64 / 1e9;
    let sweep_s = spans.self_seconds("sweep");
    let sweep_capacity_ns = sweep_s * 1e9 * w.threads as f64;
    let substitutions = s.substitutions as f64;
    let metrics = vec![
        metric("workloads.script_s", spans.self_seconds("script"), "s"),
        metric("network.ingest_s", spans.self_seconds("ingest"), "s"),
        metric("network.egress_s", spans.self_seconds("egress"), "s"),
        metric("core.open_s", spans.self_seconds("open"), "s"),
        metric("core.sweep_s", sweep_s, "s"),
        metric("core.stage.apply_s", secs(s.apply_nanos), "s"),
        metric("core.stage.divide_s", secs(s.divide_nanos), "s"),
        metric("core.stage.filter_s", secs(s.filter_nanos), "s"),
        metric("core.stage.enumerate_s", secs(s.enumerate_nanos), "s"),
        metric("core.stage.sim_s", secs(s.sim_nanos), "s"),
        metric("core.divisions_tried", s.divisions_tried as f64, "count"),
        metric("core.substitutions", substitutions, "count"),
        metric("core.literal_gain", s.literal_gain as f64, "count"),
        metric(
            "core.accept_ratio",
            ratio(substitutions, s.divisions_tried as f64),
            "ratio",
        ),
        metric("sim.pairs_screened", s.sim_pairs_screened as f64, "count"),
        metric(
            "sim.refuted_ratio",
            ratio(s.sim_pairs_refuted as f64, s.sim_pairs_screened as f64),
            "ratio",
        ),
        metric("sim.false_passes", s.sim_false_passes as f64, "count"),
        metric(
            "sim.discovery_proposed",
            s.discovery_proposed as f64,
            "count",
        ),
        metric("sim.bucket_hits", s.discovery_bucket_hits as f64, "count"),
        metric(
            "sim.proofs_per_accept",
            ratio(s.discovery_proofs_run as f64, s.discovery_accepted as f64),
            "ratio",
        ),
        metric("parallel.epochs", counter("sweep.epochs"), "count"),
        metric(
            "parallel.proof_frac",
            ratio(counter("sweep.proof_ns"), sweep_capacity_ns),
            "ratio",
        ),
        metric(
            "parallel.commit_frac",
            ratio(counter("sweep.commit_ns"), sweep_capacity_ns),
            "ratio",
        ),
        metric(
            "parallel.wait_frac",
            ratio(counter("sweep.wait_ns"), sweep_capacity_ns),
            "ratio",
        ),
        metric(
            "parallel.idle_frac",
            ratio(counter("sweep.idle_ns"), sweep_capacity_ns),
            "ratio",
        ),
        metric("guard.checks", traced.guard.checks as f64, "count"),
        metric(
            "guard.checks_per_accept",
            ratio(traced.guard.checks as f64, substitutions),
            "ratio",
        ),
        metric(
            "guard.sim_checks",
            histogram("guard.check_ns.sim").0,
            "count",
        ),
        metric(
            "guard.bdd_checks",
            histogram("guard.check_ns.bdd").0,
            "count",
        ),
        metric("guard.bdd_s", histogram("guard.check_ns.bdd").1, "s"),
        metric("guard.sat_runs", s.guard_sat_runs as f64, "count"),
        metric("guard.sat_s", histogram("guard.check_ns.sat").1, "s"),
        metric("guard.pass_sampled", s.guard_pass_sampled as f64, "count"),
        metric("guard.rejections", s.guard_rejections as f64, "count"),
        metric("atpg.rar_checks", s.rar_checks as f64, "count"),
        metric(
            "atpg.shadow_hit_ratio",
            ratio(
                s.shadow_cache_hits as f64,
                (s.shadow_cache_hits + s.shadow_cache_misses) as f64,
            ),
            "ratio",
        ),
        metric(
            "trace.overhead_ratio",
            ratio(sweep_s, sweep_untraced),
            "ratio",
        ),
        metric(
            "spread.divisions_tried",
            spread(&runs, |o| o.stats.divisions_tried),
            "ratio",
        ),
        metric(
            "spread.discovery_proposed",
            spread(&runs, |o| o.stats.discovery_proposed),
            "ratio",
        ),
        metric(
            "spread.proofs_run",
            spread(&runs, |o| o.stats.discovery_proofs_run),
            "ratio",
        ),
        metric(
            "spread.pairs_screened",
            spread(&runs, |o| o.stats.sim_pairs_screened),
            "ratio",
        ),
    ];
    Ok(outcome(attempted, failed, metrics))
}

/// Writes the traced run's spans as JSON lines under `perfbench/out/`,
/// after a header line with the host fingerprint.
fn write_spans(w: &Workload, seed: u64, host: &Host, spans: &Spans) -> Result<(), String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", w.name));
    let text = format!("{{\"host\":{}}}\n{}", host.json(), spans.to_jsonl());
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args)?;
    let host = Host::detect();
    eprintln!(
        "perfbench: seed {} | nproc {} | commit {} | source {} | {} build | {}",
        args.seed, host.nproc, host.commit, host.source, host.profile, host.rustc
    );
    let prefix = args.workloads.len() > 1;
    let (mut attempted, mut failed) = (0, 0);
    let mut json_metrics = Vec::new();
    for w in &args.workloads {
        let out = bench(w, &args, &host)?;
        attempted += out.attempted;
        failed += out.failed;
        eprintln!(
            "{}: {} gates, {} bytes in | {} attempted, {} failed (error_rate {}) | medians of {} timed runs",
            w.name,
            out.input_gates,
            out.input_bytes,
            out.attempted,
            out.failed,
            ratio(out.failed as f64, out.attempted as f64),
            out.samples
        );
        for m in &out.metrics {
            eprintln!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
            let name = if prefix {
                format!("{}.{}", w.name, m.name)
            } else {
                m.name.to_string()
            };
            json_metrics.push(format!(
                r#""{name}": {{"value": {}, "unit": "{}"}}"#,
                m.value, m.unit
            ));
        }
    }
    let correct = failed == 0;
    let mut line = String::new();
    let _ = write!(
        line,
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        json_metrics.join(", ")
    );
    println!("{line}");
    Ok(correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
