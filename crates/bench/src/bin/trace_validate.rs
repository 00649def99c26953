//! CI validator for the observability artifacts: checks that a JSONL
//! event log, a Chrome trace-event file, the committed BENCH tables,
//! and/or a Prometheus text exposition are well-formed without any
//! external tooling.
//!
//! ```bash
//! trace_validate --jsonl trace.jsonl --chrome trace.json \
//!                --bench-sweep BENCH_sweep.json --bench-guard BENCH_guard.json \
//!                --bench-serve BENCH_serve.json --prom metrics.prom
//! ```
//!
//! Exits non-zero with a diagnostic on the first violation. Checks:
//!
//! * JSONL: non-empty; every line parses as a JSON object with a known
//!   `type`; the first line of each mode block is a `meta` line; pair
//!   lines carry a known outcome name and all five stage-nanos fields.
//! * Chrome: the whole file parses as a JSON array; every event is a
//!   `ph: "M"` metadata or `ph: "X"` complete event with numeric
//!   `ts`/`dur`; `ts` is monotonically non-decreasing per `(pid, tid)`.
//! * BENCH tables: every row carries a known `kind` and that kind's
//!   required keys with the right JSON types.
//! * Prometheus: every sample line parses as `name[{labels}] value`,
//!   every series is preceded by its `# TYPE` declaration, and each
//!   histogram exposes cumulative `_bucket` series ending in `+Inf`
//!   whose final count equals `_count`.

use std::collections::HashMap;
use std::process::ExitCode;

use boolsubst_trace::json::Json;
use boolsubst_trace::Outcome;

const STAGE_FIELDS: [&str; 5] = [
    "enumerate_ns",
    "filter_ns",
    "sim_ns",
    "divide_ns",
    "apply_ns",
];

fn validate_jsonl(text: &str) -> Result<(), String> {
    let mut lines = 0usize;
    let mut pairs = 0usize;
    let mut first = true;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        lines += 1;
        let v = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let ty = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: missing \"type\"", i + 1))?;
        if first && ty != "meta" {
            return Err(format!("line {}: stream must open with a meta line", i + 1));
        }
        first = false;
        match ty {
            "meta" => {
                v.get("mode")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("line {}: meta without mode", i + 1))?;
                let disc = v
                    .get("discovery")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("line {}: meta without discovery", i + 1))?;
                if !matches!(disc, "overlap" | "signature" | "auto") {
                    return Err(format!("line {}: unknown discovery {disc:?}", i + 1));
                }
            }
            "pair" => {
                pairs += 1;
                let name = v
                    .get("outcome")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("line {}: pair without outcome", i + 1))?;
                if Outcome::from_name(name).is_none() {
                    return Err(format!("line {}: unknown outcome {name:?}", i + 1));
                }
                for field in STAGE_FIELDS {
                    if v.get(field).and_then(Json::as_u64).is_none() {
                        return Err(format!("line {}: pair missing {field}", i + 1));
                    }
                }
            }
            "pass" | "shadow_build" | "sim_refine" => {
                if v.get("dur_ns").and_then(Json::as_u64).is_none() {
                    return Err(format!("line {}: {ty} missing dur_ns", i + 1));
                }
            }
            "guard" => {
                let tier = v
                    .get("tier")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("line {}: guard without tier", i + 1))?;
                if !matches!(tier, "sim" | "bdd" | "sat" | "sampled") {
                    return Err(format!("line {}: unknown guard tier {tier:?}", i + 1));
                }
                for field in ["passed", "exact"] {
                    if v.get(field).and_then(Json::as_bool).is_none() {
                        return Err(format!("line {}: guard missing {field}", i + 1));
                    }
                }
                if v.get("dur_ns").and_then(Json::as_u64).is_none() {
                    return Err(format!("line {}: guard missing dur_ns", i + 1));
                }
            }
            other => return Err(format!("line {}: unknown type {other:?}", i + 1)),
        }
    }
    if lines == 0 {
        return Err("empty JSONL stream".into());
    }
    println!("jsonl ok: {lines} lines, {pairs} pair spans");
    Ok(())
}

fn validate_chrome(text: &str) -> Result<(), String> {
    let v = Json::parse(text).map_err(|e| format!("chrome trace: {e}"))?;
    let rows = v.as_array().ok_or("chrome trace is not a JSON array")?;
    if rows.is_empty() {
        return Err("chrome trace is empty".into());
    }
    let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();
    let mut complete = 0usize;
    for (i, row) in rows.iter().enumerate() {
        let ph = row
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let pid = row
            .get("pid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        let tid = row
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        match ph {
            "M" => {}
            "X" => {
                complete += 1;
                let ts = row
                    .get("ts")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {i}: X without numeric ts"))?;
                let dur = row
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {i}: X without numeric dur"))?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("event {i}: negative ts/dur"));
                }
                let key = (pid, tid);
                if let Some(&prev) = last_ts.get(&key) {
                    if ts < prev {
                        return Err(format!(
                            "event {i}: ts {ts} < {prev} regresses on pid {pid} tid {tid}"
                        ));
                    }
                }
                last_ts.insert(key, ts);
            }
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    if complete == 0 {
        return Err("chrome trace has no complete (ph=X) events".into());
    }
    println!("chrome ok: {} events, {complete} complete", rows.len());
    Ok(())
}

/// The JSON type a BENCH-row key must have.
#[derive(Clone, Copy)]
enum Ty {
    U64,
    I64,
    F64,
    Str,
    Bool,
}

fn check_key(row: &Json, key: &str, ty: Ty) -> Result<(), String> {
    let v = row.get(key).ok_or_else(|| format!("missing key {key:?}"))?;
    let ok = match ty {
        Ty::U64 => v.as_u64().is_some(),
        Ty::I64 => v.as_i64().is_some(),
        Ty::F64 => v.as_f64().is_some(),
        Ty::Str => v.as_str().is_some(),
        Ty::Bool => v.as_bool().is_some(),
    };
    if ok {
        Ok(())
    } else {
        Err(format!("key {key:?} has the wrong type"))
    }
}

fn check_keys(row: &Json, keys: &[(&str, Ty)]) -> Result<(), String> {
    for &(key, ty) in keys {
        check_key(row, key, ty)?;
    }
    Ok(())
}

fn validate_bench_sweep(text: &str) -> Result<(), String> {
    let v = Json::parse(text).map_err(|e| format!("BENCH_sweep: {e}"))?;
    let rows = v.as_array().ok_or("BENCH_sweep is not a JSON array")?;
    if rows.is_empty() {
        return Err("BENCH_sweep is empty".into());
    }
    let mut discovery_rows = 0usize;
    for (i, row) in rows.iter().enumerate() {
        let res = match row.get("kind").and_then(Json::as_str) {
            Some("node_sweep") => check_keys(
                row,
                &[
                    ("mode", Ty::Str),
                    ("family", Ty::Str),
                    ("target_nodes", Ty::U64),
                    ("nodes", Ty::U64),
                    ("discovery", Ty::Str),
                    ("gen_secs", Ty::F64),
                    ("sweep_secs", Ty::F64),
                    ("pairs", Ty::U64),
                    ("candidates_per_s", Ty::F64),
                    ("substitutions", Ty::U64),
                    ("literal_gain", Ty::I64),
                    ("peak_cover_cubes", Ty::U64),
                    ("interrupted", Ty::Bool),
                ],
            ),
            Some("discovery") => {
                discovery_rows += 1;
                check_keys(
                    row,
                    &[
                        ("mode", Ty::Str),
                        ("family", Ty::Str),
                        ("target_nodes", Ty::U64),
                        ("nodes", Ty::U64),
                        ("discovery", Ty::Str),
                        ("deadline_secs", Ty::F64),
                        ("gen_secs", Ty::F64),
                        ("sweep_secs", Ty::F64),
                        ("pairs", Ty::U64),
                        ("candidates_per_s", Ty::F64),
                        ("proposed", Ty::U64),
                        ("bucket_hits", Ty::U64),
                        ("proofs_run", Ty::U64),
                        ("accepted", Ty::U64),
                        ("substitutions", Ty::U64),
                        ("literal_gain", Ty::I64),
                        ("guard_rejections", Ty::U64),
                        ("guard_pass_sampled", Ty::U64),
                        ("interrupted", Ty::Bool),
                    ],
                )
                .and_then(|()| {
                    let disc = row.get("discovery").and_then(Json::as_str).unwrap_or("");
                    if matches!(disc, "overlap" | "signature") {
                        Ok(())
                    } else {
                        Err(format!("unknown resolved discovery {disc:?}"))
                    }
                })
            }
            Some(other) => Err(format!("unknown row kind {other:?}")),
            None => Err("row without a kind".into()),
        };
        res.map_err(|e| format!("row {i}: {e}"))?;
    }
    if discovery_rows == 0 {
        return Err("no discovery crossover rows".into());
    }
    println!(
        "bench-sweep ok: {} rows, {discovery_rows} discovery",
        rows.len()
    );
    Ok(())
}

fn validate_bench_guard(text: &str) -> Result<(), String> {
    let v = Json::parse(text).map_err(|e| format!("BENCH_guard: {e}"))?;
    let rows = v.as_array().ok_or("BENCH_guard is not a JSON array")?;
    if rows.is_empty() {
        return Err("BENCH_guard is empty".into());
    }
    for (i, row) in rows.iter().enumerate() {
        let kind = row.get("kind").and_then(Json::as_str).unwrap_or("");
        if kind != "guard_latency" {
            return Err(format!("row {i}: kind {kind:?} is not guard_latency"));
        }
        check_keys(
            row,
            &[
                ("tier_policy", Ty::Str),
                ("family", Ty::Str),
                ("nodes", Ty::U64),
                ("guard_checks", Ty::U64),
                ("guard_secs", Ty::F64),
                ("avg_check_ms", Ty::F64),
                ("guard_sim", Ty::U64),
                ("guard_bdd", Ty::U64),
                ("guard_sat", Ty::U64),
                ("guard_sampled", Ty::U64),
                ("substitutions", Ty::U64),
                ("interrupted", Ty::Bool),
            ],
        )
        .map_err(|e| format!("row {i}: {e}"))?;
    }
    println!("bench-guard ok: {} rows", rows.len());
    Ok(())
}

fn validate_bench_serve(text: &str) -> Result<(), String> {
    let v = Json::parse(text).map_err(|e| format!("BENCH_serve: {e}"))?;
    let rows = v.as_array().ok_or("BENCH_serve is not a JSON array")?;
    if rows.is_empty() {
        return Err("BENCH_serve is empty".into());
    }
    let mut worker_counts: Vec<u64> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let kind = row.get("kind").and_then(Json::as_str).unwrap_or("");
        if kind != "serve" {
            return Err(format!("row {i}: kind {kind:?} is not serve"));
        }
        check_keys(
            row,
            &[
                ("workers", Ty::U64),
                ("host_cpus", Ty::U64),
                ("jobs", Ty::U64),
                ("concurrency", Ty::U64),
                ("wall_secs", Ty::F64),
                ("throughput_jobs_per_s", Ty::F64),
                ("p50_ms", Ty::U64),
                ("p99_ms", Ty::U64),
                ("shed_429", Ty::U64),
                ("shed_rate", Ty::F64),
                ("done", Ty::U64),
                ("failed", Ty::U64),
                ("quarantined", Ty::U64),
                ("chaos", Ty::Bool),
            ],
        )
        .map_err(|e| format!("row {i}: {e}"))?;
        let workers = row.get("workers").and_then(Json::as_u64).unwrap_or(0);
        if workers == 0 {
            return Err(format!("row {i}: workers label must be >= 1"));
        }
        if !worker_counts.contains(&workers) {
            worker_counts.push(workers);
        }
        let p50 = row.get("p50_ms").and_then(Json::as_u64).unwrap_or(0);
        let p99 = row.get("p99_ms").and_then(Json::as_u64).unwrap_or(0);
        if p99 < p50 {
            return Err(format!("row {i}: p99 {p99} < p50 {p50}"));
        }
    }
    if worker_counts.len() < 2 {
        return Err(format!(
            "need rows at >= 2 distinct worker counts, got {worker_counts:?}"
        ));
    }
    println!(
        "bench-serve ok: {} rows over worker counts {worker_counts:?}",
        rows.len()
    );
    Ok(())
}

/// True iff `name` is a legal Prometheus metric/series name.
fn prom_name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    let first_ok = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
    first_ok
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Strips a histogram-series suffix, returning the base metric name.
fn prom_base(name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            return base;
        }
    }
    name
}

fn validate_prom(text: &str) -> Result<(), String> {
    let mut types: HashMap<String, String> = HashMap::new();
    // Per-histogram state: (last cumulative bucket count, saw +Inf,
    // _count value) so we can cross-check the series at the end.
    let mut hist_last: HashMap<String, f64> = HashMap::new();
    let mut hist_inf: HashMap<String, f64> = HashMap::new();
    let mut hist_count: HashMap<String, f64> = HashMap::new();
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (Some(name), Some(ty), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(format!("line {n}: malformed TYPE comment"));
            };
            if !prom_name_ok(name) {
                return Err(format!("line {n}: bad metric name {name:?}"));
            }
            if !matches!(ty, "counter" | "gauge" | "histogram") {
                return Err(format!("line {n}: unknown metric type {ty:?}"));
            }
            if types.insert(name.to_string(), ty.to_string()).is_some() {
                return Err(format!("line {n}: duplicate TYPE for {name:?}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments (HELP etc.) are legal
        }
        // Sample line: name[{labels}] value
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {n}: sample without value"))?;
        let value: f64 = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => v
                .parse()
                .map_err(|_| format!("line {n}: non-numeric value {v:?}"))?,
        };
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {n}: unterminated label set"))?;
                (name, Some(labels))
            }
            None => (series, None),
        };
        if !prom_name_ok(name) {
            return Err(format!("line {n}: bad series name {name:?}"));
        }
        let base = prom_base(name);
        let ty = types
            .get(base)
            .or_else(|| types.get(name))
            .ok_or_else(|| format!("line {n}: sample {name:?} without a TYPE declaration"))?;
        if ty == "histogram" {
            if name == format!("{base}_bucket") {
                let labels = labels.ok_or_else(|| format!("line {n}: _bucket without le label"))?;
                let le = labels
                    .strip_prefix("le=\"")
                    .and_then(|l| l.strip_suffix('"'))
                    .ok_or_else(|| format!("line {n}: _bucket labels {labels:?} are not le"))?;
                let last = hist_last.entry(base.to_string()).or_insert(0.0);
                if value < *last {
                    return Err(format!(
                        "line {n}: {base} bucket le={le} count {value} regresses below {last}"
                    ));
                }
                *last = value;
                if le == "+Inf" {
                    hist_inf.insert(base.to_string(), value);
                }
            } else if name == format!("{base}_count") {
                hist_count.insert(base.to_string(), value);
            }
        } else if labels.is_some() {
            return Err(format!("line {n}: unexpected labels on {ty} {name:?}"));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples".into());
    }
    for (name, ty) in &types {
        if ty == "histogram" {
            let inf = hist_inf
                .get(name)
                .ok_or_else(|| format!("histogram {name:?} has no +Inf bucket"))?;
            let count = hist_count
                .get(name)
                .ok_or_else(|| format!("histogram {name:?} has no _count"))?;
            if inf != count {
                return Err(format!(
                    "histogram {name:?}: +Inf bucket {inf} != _count {count}"
                ));
            }
        }
    }
    println!("prom ok: {} series types, {samples} samples", types.len());
    Ok(())
}

type Validator = fn(&str) -> Result<(), String>;

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut checked = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let (flag, validate): (&str, Validator) = match a.as_str() {
            "--jsonl" => ("--jsonl", validate_jsonl),
            "--chrome" => ("--chrome", validate_chrome),
            "--bench-sweep" => ("--bench-sweep", validate_bench_sweep),
            "--bench-guard" => ("--bench-guard", validate_bench_guard),
            "--bench-serve" => ("--bench-serve", validate_bench_serve),
            "--prom" => ("--prom", validate_prom),
            other => return Err(format!("unknown argument {other:?}")),
        };
        let path = it.next().ok_or_else(|| format!("{flag} needs a path"))?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        validate(&text).map_err(|e| format!("{path}: {e}"))?;
        checked = true;
    }
    if !checked {
        return Err(
            "usage: trace_validate [--jsonl <trace.jsonl>] [--chrome <trace.json>] \
             [--bench-sweep <BENCH_sweep.json>] [--bench-guard <BENCH_guard.json>] \
             [--bench-serve <BENCH_serve.json>] [--prom <metrics.prom>]"
                .into(),
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("trace_validate: {msg}");
            ExitCode::FAILURE
        }
    }
}
