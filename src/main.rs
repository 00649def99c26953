//! `boolsubst` — command-line front end: optimize netlists (BLIF or
//! AIGER) with the paper's Boolean substitution, inspect statistics,
//! check equivalence, and play with cover-level division.
//!
//! File formats are auto-detected from the extension (`.blif`, `.aag`,
//! `.aig`); paths without a recognised extension are treated as BLIF.

use boolsubst::algebraic::{algebraic_resub, network_factored_literals, ResubOptions};
use boolsubst::atpg::{fault_coverage, rar_optimize, RarOptions};
use boolsubst::core::dontcare::{full_simplify, DontCareOptions};
use boolsubst::core::netcircuit::{network_from_circuit, NetCircuit};
use boolsubst::core::verify::{networks_equivalent, networks_equivalent_modulo_dc};
use boolsubst::core::{
    basic_divide_covers, extended_divide_covers, pos_divide_covers, DivisionOptions,
};
use boolsubst::core::{Discovery, Session, SubstOptions};
use boolsubst::cube::parse_sop;
use boolsubst::guard::TierPolicy;
use boolsubst::metrics::{json_snapshot_string, mem, prometheus_string, Heartbeat, MetricsHandle};
use boolsubst::network::{egress, ingest, write_blif, Format, Network};
use boolsubst::sat::{check_equivalence, EquivResult, SatOptions};
use boolsubst::trace::export::{chrome_trace_string, jsonl_string};
use boolsubst::trace::Tracer;
use boolsubst::workloads::scripts;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// With the `mem-profile` feature, route every allocation through the
/// counting allocator so `mem.live_bytes`/`mem.peak_bytes` are real
/// process-wide figures; without it the unit struct stays unused and the
/// system allocator is untouched.
#[cfg(feature = "mem-profile")]
#[global_allocator]
static ALLOC: mem::CountingAllocator = mem::CountingAllocator;

const USAGE: &str = "\
boolsubst — Boolean division and substitution via redundancy addition/removal

USAGE:
  boolsubst optimize <in> [--mode resub|basic|ext|ext-gdc]
                     [--script none|a|b|c] [--dc] [-o <out>] [--no-verify]
                     [--trace <out.jsonl>] [--chrome-trace <out.json>]
                     [--checked] [--deadline <secs>]
                     [--discovery overlap|signature|auto]
                     [--guard-tier sim|bdd|sat|auto] [--sat-conflicts <n>]
                     [--metrics <out.prom|out.json>] [--heartbeat <secs>]
  boolsubst stats <in>
  boolsubst check <a> <b> [--backend bdd|sat]
  boolsubst faults <in> [--vectors <n>] [--budget <n>]
  boolsubst rar <in> [-o <out>]
  boolsubst divide <num_vars> <f-sop> <d-sop> [--pos | --extended]
  boolsubst serve [--addr <host:port>] [--workers <n>] [--max-queue <n>]
                  [--tenant-cap <n>] [--journal <path>]
                  [--drain-deadline <secs>] [--default-deadline-ms <ms>]
                  [--threads-per-job <n>]

Netlist paths may be BLIF (.blif), ASCII AIGER (.aag) or binary AIGER
(.aig); the format is chosen by extension on both input and output.

EXAMPLES:
  boolsubst optimize circuit.blif --mode ext -o optimized.blif
  boolsubst optimize big.aig --mode basic -o optimized.aig
  boolsubst divide 3 \"ab + ac + bc'\" \"ab + c\"
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("optimize") => cmd_optimize(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("faults") => cmd_faults(&args[1..]),
        Some("rar") => cmd_rar(&args[1..]),
        Some("divide") => cmd_divide(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("--help" | "-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The format a path implies; unrecognised extensions keep the historic
/// behaviour of treating the file as BLIF.
fn format_of(path: &str) -> Format {
    Format::from_path(path).unwrap_or(Format::Blif)
}

fn read_network(path: &str) -> Result<Network, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let format = format_of(path);
    let model = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("net");
    ingest(&bytes, format, model).map_err(|e| format!("parsing {path} as {format}: {e}"))
}

/// Writes the network to `output` in the format its extension implies,
/// or prints BLIF on stdout when no output path was given.
fn write_network(net: &Network, output: Option<&str>) -> Result<(), String> {
    match output {
        Some(path) => {
            let bytes = egress(net, format_of(path));
            std::fs::write(path, bytes).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => print!("{}", write_blif(net)),
    }
    Ok(())
}

fn cmd_optimize(args: &[String]) -> Result<(), String> {
    let mut input: Option<&str> = None;
    let mut output: Option<&str> = None;
    let mut mode = "ext";
    let mut script = "none";
    let mut verify = true;
    let mut dc = false;
    let mut trace_path: Option<&str> = None;
    let mut chrome_path: Option<&str> = None;
    let mut checked = false;
    let mut deadline_secs: Option<f64> = None;
    let mut discovery: Option<Discovery> = None;
    let mut guard_tier: Option<TierPolicy> = None;
    let mut sat_conflicts: Option<u64> = None;
    let mut metrics_path: Option<&str> = None;
    let mut heartbeat_secs: Option<f64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--mode" => mode = it.next().ok_or("--mode needs a value")?,
            "--script" => script = it.next().ok_or("--script needs a value")?,
            "-o" | "--output" => {
                output = Some(it.next().ok_or("-o needs a path")?);
            }
            "--no-verify" => verify = false,
            "--dc" => dc = true,
            "--trace" => trace_path = Some(it.next().ok_or("--trace needs a path")?),
            "--chrome-trace" => {
                chrome_path = Some(it.next().ok_or("--chrome-trace needs a path")?);
            }
            "--checked" => checked = true,
            "--deadline" => {
                let secs: f64 = it
                    .next()
                    .ok_or("--deadline needs a value in seconds")?
                    .parse()
                    .map_err(|_| "bad --deadline value")?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err("bad --deadline value".into());
                }
                deadline_secs = Some(secs);
            }
            "--discovery" => {
                let name = it.next().ok_or("--discovery needs a value")?;
                discovery = Some(Discovery::from_name(name).ok_or_else(|| {
                    format!("unknown discovery {name:?} (use overlap|signature|auto)")
                })?);
            }
            "--guard-tier" => {
                let name = it.next().ok_or("--guard-tier needs a value")?;
                guard_tier = Some(TierPolicy::from_name(name).ok_or_else(|| {
                    format!("unknown guard tier {name:?} (use sim|bdd|sat|auto)")
                })?);
            }
            "--sat-conflicts" => {
                sat_conflicts = Some(
                    it.next()
                        .ok_or("--sat-conflicts needs a value")?
                        .parse()
                        .map_err(|_| "bad --sat-conflicts value")?,
                );
            }
            "--metrics" => metrics_path = Some(it.next().ok_or("--metrics needs a path")?),
            "--heartbeat" => {
                let secs: f64 = it
                    .next()
                    .ok_or("--heartbeat needs a value in seconds")?
                    .parse()
                    .map_err(|_| "bad --heartbeat value")?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("bad --heartbeat value (must be > 0)".into());
                }
                heartbeat_secs = Some(secs);
            }
            other if input.is_none() => input = Some(other),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let input = input.ok_or("missing input file")?;
    let mut net = read_network(input)?;
    let golden = net.clone();
    let before = network_factored_literals(&net);

    match script {
        "none" => {}
        "a" => scripts::script_a(&mut net),
        "b" => scripts::script_b(&mut net),
        "c" => scripts::script_c(&mut net),
        other => return Err(format!("unknown script {other:?} (use none|a|b|c)")),
    }
    let after_script = network_factored_literals(&net);

    let tracing = trace_path.is_some() || chrome_path.is_some();
    let subst_opts = match mode {
        "resub" => {
            if tracing {
                return Err(
                    "--trace/--chrome-trace need a substitution mode (basic|ext|ext-gdc)".into(),
                );
            }
            if checked
                || deadline_secs.is_some()
                || discovery.is_some()
                || guard_tier.is_some()
                || sat_conflicts.is_some()
                || metrics_path.is_some()
                || heartbeat_secs.is_some()
            {
                return Err(
                    "--checked/--deadline/--discovery/--guard-tier/--sat-conflicts/--metrics/--heartbeat need a substitution mode (basic|ext|ext-gdc)"
                        .into(),
                );
            }
            algebraic_resub(&mut net, &ResubOptions::default());
            None
        }
        "basic" => Some(SubstOptions::basic()),
        "ext" => Some(SubstOptions::extended()),
        "ext-gdc" => Some(SubstOptions::extended_gdc()),
        other => {
            return Err(format!(
                "unknown mode {other:?} (use resub|basic|ext|ext-gdc)"
            ));
        }
    };
    if let Some(opts) = subst_opts {
        let mut opts = opts.with_checked(checked);
        if let Some(d) = discovery {
            opts = opts.with_discovery(d);
        }
        if let Some(tier) = guard_tier {
            opts = opts.with_guard_tier(tier);
        }
        if let Some(conflicts) = sat_conflicts {
            opts = opts.with_sat_conflicts(conflicts);
        }
        if let Some(secs) = deadline_secs {
            opts = opts.with_deadline(Instant::now() + Duration::from_secs_f64(secs));
        }
        let metrics_handle =
            (metrics_path.is_some() || heartbeat_secs.is_some()).then(MetricsHandle::new);
        let heartbeat = match (&metrics_handle, heartbeat_secs) {
            (Some(h), Some(secs)) => {
                Some(Heartbeat::start(h.clone(), Duration::from_secs_f64(secs)))
            }
            _ => None,
        };
        let mut tracer = tracing.then(|| Tracer::new(mode));
        let stats = {
            let mut session = Session::new(&mut net, opts);
            if let Some(h) = &metrics_handle {
                session = session.metrics(h);
            }
            if let Some(t) = tracer.as_mut() {
                session = session.tracer(t);
            }
            session.run()
        };
        drop(heartbeat);
        if let Some(tracer) = &tracer {
            eprintln!("{}", tracer.report());
            if let Some(path) = trace_path {
                std::fs::write(path, jsonl_string(tracer))
                    .map_err(|e| format!("writing {path}: {e}"))?;
                eprintln!("wrote {path}");
            }
            if let Some(path) = chrome_path {
                std::fs::write(path, chrome_trace_string(&[tracer]))
                    .map_err(|e| format!("writing {path}: {e}"))?;
                eprintln!("wrote {path}");
            }
        }
        if let Some(h) = &metrics_handle {
            // Fold the allocator's view in just before the snapshot so
            // the sinks carry final peak/live figures.
            mem::publish(h);
            if let Some(path) = metrics_path {
                let text = if path.ends_with(".json") {
                    json_snapshot_string(h)
                } else {
                    prometheus_string(h)
                };
                std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
                eprintln!("wrote {path}");
            }
        }
        if discovery.is_some() {
            eprintln!(
                "discovery {}: {} proposed, {} bucket hit(s), {} proof(s) run, {} accepted",
                stats.discovery.name(),
                stats.discovery_proposed,
                stats.discovery_bucket_hits,
                stats.discovery_proofs_run,
                stats.discovery_accepted
            );
        }
        if checked {
            eprintln!(
                "checked apply: {} guard-rejected, {} engine fault(s), {} pair(s) quarantined, {} SAT-tier run(s), {} sampled pass(es), {} window fallback(s)",
                stats.guard_rejections,
                stats.engine_faults,
                stats.quarantined,
                stats.guard_sat_runs,
                stats.guard_pass_sampled,
                stats.guard_fallbacks
            );
        }
        if stats.interrupted {
            eprintln!("deadline hit: sweep interrupted early (partial result is still verified)");
        }
    }
    if dc {
        let stats = full_simplify(&mut net, &DontCareOptions::default());
        eprintln!(
            "don't-care pass: {} ODC + {} SDC reductions, {} literals saved",
            stats.odc_reductions, stats.sdc_reductions, stats.literals_saved
        );
    }
    let after = network_factored_literals(&net);
    eprintln!("{input}: {before} -> {after_script} (script) -> {after} factored literals");
    if verify {
        if networks_equivalent_modulo_dc(&golden, &net) {
            eprintln!("verified: outputs unchanged (BDD)");
        } else {
            return Err("verification FAILED — refusing to write output".into());
        }
    }
    write_network(&net, output)
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing input file")?;
    let net = read_network(path)?;
    println!("model:            {}", net.name());
    println!("primary inputs:   {}", net.inputs().len());
    println!("primary outputs:  {}", net.outputs().len());
    println!("internal nodes:   {}", net.internal_ids().count());
    println!("SOP literals:     {}", net.sop_literals());
    println!("factored literals:{}", network_factored_literals(&net));
    let max_fanin = net
        .internal_ids()
        .map(|id| net.node(id).fanins().len())
        .max()
        .unwrap_or(0);
    println!("max fanin:        {max_fanin}");
    Ok(())
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    let mut backend = "bdd";
    let mut paths: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--backend" => backend = it.next().ok_or("--backend needs a value")?,
            other => paths.push(other),
        }
    }
    let [pa, pb] = paths.as_slice() else {
        return Err("check needs exactly two netlist files".into());
    };
    let (a, b) = (read_network(pa)?, read_network(pb)?);
    match backend {
        "bdd" => {
            if networks_equivalent(&a, &b) {
                println!("EQUIVALENT");
                Ok(())
            } else {
                Err("networks are NOT equivalent".into())
            }
        }
        "sat" => match check_equivalence(&a, &b, SatOptions::default()) {
            EquivResult::Equivalent => {
                println!("EQUIVALENT");
                Ok(())
            }
            EquivResult::Inequivalent { output, inputs } => {
                let witness: String = inputs.iter().map(|&v| if v { '1' } else { '0' }).collect();
                Err(format!(
                    "networks are NOT equivalent: output {output:?} differs on inputs {witness}"
                ))
            }
            EquivResult::InterfaceMismatch => {
                Err("networks have different input/output counts".into())
            }
            EquivResult::Unknown(_) => Err("SAT conflict budget exhausted: UNKNOWN".into()),
        },
        other => Err(format!("unknown backend {other:?} (use bdd|sat)")),
    }
}

fn cmd_faults(args: &[String]) -> Result<(), String> {
    let mut input: Option<&str> = None;
    let mut vectors = 256usize;
    let mut budget = 50_000usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--vectors" => {
                vectors = it
                    .next()
                    .ok_or("--vectors needs a value")?
                    .parse()
                    .map_err(|_| "bad --vectors value")?;
            }
            "--budget" => {
                budget = it
                    .next()
                    .ok_or("--budget needs a value")?
                    .parse()
                    .map_err(|_| "bad --budget value")?;
            }
            other if input.is_none() => input = Some(other),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let input = input.ok_or("missing input file")?;
    let net = read_network(input)?;
    let circuit = NetCircuit::build(&net).circuit;
    let report = fault_coverage(&circuit, vectors, 0xC07E, budget);
    let total = report.classes.len();
    println!("model:     {}", net.name());
    println!("faults:    {total}");
    println!("detected:  {}", report.detected);
    println!("redundant: {}", report.redundant);
    println!("aborted:   {}", report.aborted);
    println!(
        "coverage:  {:.2}% of testable faults",
        100.0 * report.coverage()
    );
    Ok(())
}

fn cmd_rar(args: &[String]) -> Result<(), String> {
    let mut input: Option<&str> = None;
    let mut output: Option<&str> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" | "--output" => output = Some(it.next().ok_or("-o needs a path")?),
            other if input.is_none() => input = Some(other),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let input = input.ok_or("missing input file")?;
    let net = read_network(input)?;
    let mut circuit = NetCircuit::build(&net).circuit;
    let gates_before = circuit.len();
    let stats = rar_optimize(&mut circuit, &RarOptions::default());
    eprintln!(
        "rar: {} addition(s), {} removal(s) over {} trial(s) ({} gates)",
        stats.additions, stats.removals, stats.trials, gates_before
    );
    let mut back = network_from_circuit(&circuit);
    back.sweep();
    // Safety net: the gate-level rewrites are proven, but re-verify the
    // round-tripped network against the input (input names differ, so
    // compare by simulation over all positions).
    let n = net.inputs().len();
    if n <= 16 {
        for m in 0u32..(1u32 << n) {
            let ins: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
            if net.eval_outputs(&ins) != back.eval_outputs(&ins) {
                return Err("verification FAILED — refusing to write output".into());
            }
        }
        eprintln!("verified: outputs unchanged (exhaustive)");
    }
    write_network(&back, output)
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut config = boolsubst::serve::ServeConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => config.addr = it.next().ok_or("--addr needs a value")?.clone(),
            "--workers" => {
                config.workers = it
                    .next()
                    .ok_or("--workers needs a value")?
                    .parse()
                    .map_err(|_| "bad --workers value")?;
            }
            "--max-queue" => {
                config.max_queue = it
                    .next()
                    .ok_or("--max-queue needs a value")?
                    .parse()
                    .map_err(|_| "bad --max-queue value")?;
            }
            "--tenant-cap" => {
                config.tenant_cap = it
                    .next()
                    .ok_or("--tenant-cap needs a value")?
                    .parse()
                    .map_err(|_| "bad --tenant-cap value")?;
            }
            "--journal" => {
                config.journal_path = it.next().ok_or("--journal needs a path")?.into();
            }
            "--drain-deadline" => {
                let secs: f64 = it
                    .next()
                    .ok_or("--drain-deadline needs a value in seconds")?
                    .parse()
                    .map_err(|_| "bad --drain-deadline value")?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err("bad --drain-deadline value".into());
                }
                config.drain_deadline = Duration::from_secs_f64(secs);
            }
            "--default-deadline-ms" => {
                let ms: u64 = it
                    .next()
                    .ok_or("--default-deadline-ms needs a value")?
                    .parse()
                    .map_err(|_| "bad --default-deadline-ms value")?;
                config.default_deadline_ms = (ms > 0).then_some(ms);
            }
            "--threads-per-job" => {
                config.threads_per_job = it
                    .next()
                    .ok_or("--threads-per-job needs a value")?
                    .parse()
                    .map_err(|_| "bad --threads-per-job value")?;
                if config.threads_per_job == 0 {
                    return Err("bad --threads-per-job value (must be >= 1)".into());
                }
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let server = boolsubst::serve::Server::start(config).map_err(|e| format!("serve: {e}"))?;
    eprintln!(
        "boolsubst-serve listening on {} (POST /jobs, GET /metrics, POST /shutdown)",
        server.local_addr()
    );
    if server.serve_forever() {
        eprintln!("drained cleanly; journal synced");
    } else {
        eprintln!("drain deadline hit; unfinished jobs re-queue on next boot");
    }
    Ok(())
}

fn cmd_divide(args: &[String]) -> Result<(), String> {
    let mut pos = false;
    let mut extended = false;
    let mut positional: Vec<&String> = Vec::new();
    for a in args {
        match a.as_str() {
            "--pos" => pos = true,
            "--extended" => extended = true,
            _ => positional.push(a),
        }
    }
    let [nv, fs, ds] = positional.as_slice() else {
        return Err("divide needs: <num_vars> <f-sop> <d-sop>".into());
    };
    let n: usize = nv
        .parse()
        .map_err(|_| format!("bad variable count {nv:?}"))?;
    let f = parse_sop(n, fs).map_err(|e| e.to_string())?;
    let d = parse_sop(n, ds).map_err(|e| e.to_string())?;
    let opts = DivisionOptions::paper_default();
    if pos {
        let r = pos_divide_covers(&f, &d, &opts);
        let q = r.quotient_compl.complement();
        let rem = r.remainder_compl.complement();
        println!("f = (d + {q}) · ({rem})   [exact: {}]", r.verify(&f, &d));
    } else if extended {
        match extended_divide_covers(&f, &d, &opts) {
            Some(ext) => {
                println!("core divisor: {}", ext.core);
                println!(
                    "f = core·({}) + {}   [exact: {}]",
                    ext.division.quotient,
                    ext.division.remainder,
                    ext.division.verify(&f, &ext.core)
                );
            }
            None => println!("no useful core divisor found"),
        }
    } else {
        let r = basic_divide_covers(&f, &d, &opts);
        println!(
            "f = d·({}) + {}   [exact: {}]",
            r.quotient,
            r.remainder,
            r.verify(&f, &d)
        );
    }
    Ok(())
}
