//! Crossover sweep: where does *extended* division start paying for its
//! vote/clique overhead? The knob is the number of junk cubes padded onto
//! each planted divisor node — at 0 the divisor is usable as-is (basic
//! suffices); every extra cube hides the core deeper, and only divisor
//! decomposition (Section IV) can recover it.
//!
//! The binary also runs node-count, discovery and guard sweeps and
//! writes the numbers to `BENCH_sweep.json` / `BENCH_guard.json`.
//! "Candidates/s" counts every
//! (target, divisor) pair the sweep disposed of per wall-clock second,
//! including pairs the support-overlap index rejected without ever
//! materialising them.

use std::time::{Duration, Instant};

use boolsubst_algebraic::{algebraic_resub, network_factored_literals, ResubOptions};
use boolsubst_core::verify::networks_equivalent;
use boolsubst_core::{Discovery, Session, SubstOptions, SubstStats};
use boolsubst_guard::TierPolicy;
use boolsubst_network::Network;
use boolsubst_trace::export::{chrome_trace_string, jsonl_string};
use boolsubst_trace::json::{json_array_pretty, JsonObj};
use boolsubst_trace::{GuardTier, Tracer};
use boolsubst_workloads::generator::{
    planted_network, random_network, GeneratorParams, PlantedParams,
};
use boolsubst_workloads::large::{large_network, Family};
use boolsubst_workloads::scripts::script_a;

/// Re-runs each mode once with a [`Tracer`] attached and writes the
/// requested exports: one JSONL stream (modes concatenated; each starts
/// with its own `meta` line) and/or one Chrome trace (one "process" per
/// mode). Also prints the per-mode [`boolsubst_trace::TraceReport`]s and
/// the three modes' stats merged via [`SubstStats::merge`].
fn traced_runs(net: &Network, trace_path: Option<&str>, chrome_path: Option<&str>) {
    let modes: [(&str, SubstOptions); 3] = [
        ("basic", SubstOptions::basic()),
        ("ext", SubstOptions::extended()),
        ("ext-gdc", SubstOptions::extended_gdc()),
    ];
    let mut tracers: Vec<Tracer> = Vec::new();
    let mut merged = SubstStats::default();
    for (name, opts) in modes {
        let mut trial = net.clone();
        let mut tracer = Tracer::new(name);
        let stats = Session::new(&mut trial, opts).tracer(&mut tracer).run();
        merged.merge(&stats);
        println!("\n{}", tracer.report());
        tracers.push(tracer);
    }
    println!("\nmerged stats across modes:\n{merged}");
    println!("merged json: {}", merged.to_json());
    if let Some(path) = trace_path {
        let text: String = tracers.iter().map(jsonl_string).collect();
        std::fs::write(path, text).expect("write JSONL trace");
        println!("wrote {path}");
    }
    if let Some(path) = chrome_path {
        let refs: Vec<&Tracer> = tracers.iter().collect();
        std::fs::write(path, chrome_trace_string(&refs)).expect("write Chrome trace");
        println!("wrote {path}");
    }
}

/// One engine run on a large generated instance. The rows carry a
/// deadline, so the sweep records throughput-at-scale without unbounded
/// wall time.
struct NodeRow {
    mode: &'static str,
    family: &'static str,
    target: usize,
    nodes: usize,
    /// The resolved discovery strategy the run actually used.
    discovery: &'static str,
    gen_secs: f64,
    sweep_secs: f64,
    pairs: usize,
    cand_per_s: f64,
    substitutions: usize,
    literal_gain: i64,
    peak_cover_cubes: usize,
    interrupted: bool,
}

fn json_node_row(r: &NodeRow) -> String {
    fn u(v: usize) -> u64 {
        u64::try_from(v).unwrap_or(u64::MAX)
    }
    JsonObj::new()
        .str("kind", "node_sweep")
        .str("mode", r.mode)
        .str("family", r.family)
        .u64("target_nodes", u(r.target))
        .u64("nodes", u(r.nodes))
        .str("discovery", r.discovery)
        .f64("gen_secs", r.gen_secs, 3)
        .f64("sweep_secs", r.sweep_secs, 3)
        .u64("pairs", u(r.pairs))
        .f64("candidates_per_s", r.cand_per_s, 1)
        .u64("substitutions", u(r.substitutions))
        .i64("literal_gain", r.literal_gain)
        .u64("peak_cover_cubes", u(r.peak_cover_cubes))
        .bool("interrupted", r.interrupted)
        .finish()
}

/// Node-count scaling sweep: the engine on adder-family instances from
/// 220 up to 100k gates, one deadline-bounded run
/// per (size, mode). Generation is streaming, so `gen_secs` doubles as
/// a check that the workload side stays O(n).
fn node_sweep(smoke: bool) -> Vec<NodeRow> {
    let targets: &[usize] = if smoke {
        &[2_000]
    } else {
        &[220, 2_000, 20_000, 100_000]
    };
    let modes: &[(&'static str, SubstOptions)] = &if smoke {
        vec![("basic", SubstOptions::basic())]
    } else {
        vec![
            ("basic", SubstOptions::basic()),
            ("extended", SubstOptions::extended()),
            ("extended_gdc", SubstOptions::extended_gdc()),
        ]
    };
    let deadline = Duration::from_secs_f64(if smoke { 5.0 } else { 30.0 });
    println!("\nNode-count sweep — adder family, {deadline:?} deadline per run\n");
    println!(
        "{:<14} {:>8} {:>9} {:>9} {:>10} {:>12} {:>6} {:>9}",
        "mode", "nodes", "gen s", "sweep s", "pairs", "cand/s", "subs", "cut off"
    );
    let mut rows = Vec::new();
    for &target in targets {
        let start = Instant::now();
        let net = large_network(Family::Adder, target, 1);
        let gen_secs = start.elapsed().as_secs_f64();
        let nodes = net.internal_ids().count();
        for (name, opts) in modes {
            let mut trial = net.clone();
            let opts = opts.clone().with_deadline(Instant::now() + deadline);
            let start = Instant::now();
            let stats = Session::new(&mut trial, opts).run();
            let sweep_secs = start.elapsed().as_secs_f64();
            let pairs = stats.candidates_enumerated + stats.filtered_by_index;
            let peak = trial
                .internal_ids()
                .map(|id| trial.node(id).cover().map_or(0, boolsubst_cube::Cover::len))
                .max()
                .unwrap_or(0);
            let row = NodeRow {
                mode: name,
                family: Family::Adder.name(),
                target,
                nodes,
                discovery: stats.discovery.name(),
                gen_secs,
                sweep_secs,
                pairs,
                cand_per_s: pairs as f64 / sweep_secs,
                substitutions: stats.substitutions,
                literal_gain: stats.literal_gain,
                peak_cover_cubes: peak,
                interrupted: stats.interrupted,
            };
            println!(
                "{:<14} {:>8} {:>9.3} {:>9.3} {:>10} {:>12.0} {:>6} {:>9}",
                row.mode,
                row.nodes,
                row.gen_secs,
                row.sweep_secs,
                row.pairs,
                row.cand_per_s,
                row.substitutions,
                if row.interrupted { "yes" } else { "no" }
            );
            rows.push(row);
        }
    }
    rows
}

/// One run of the discovery crossover: the same instance swept in
/// extended checked mode under each divisor-discovery strategy, with the
/// proposal funnel recorded so the BENCH table shows where signature
/// classes win (and that their accepted rewrites are guard-verified).
struct DiscRow {
    family: &'static str,
    target: usize,
    nodes: usize,
    discovery: &'static str,
    deadline_secs: f64,
    gen_secs: f64,
    sweep_secs: f64,
    pairs: usize,
    cand_per_s: f64,
    proposed: usize,
    bucket_hits: usize,
    proofs_run: usize,
    accepted: usize,
    substitutions: usize,
    literal_gain: i64,
    guard_rejections: usize,
    guard_pass_sampled: usize,
    interrupted: bool,
}

fn json_disc_row(r: &DiscRow) -> String {
    fn u(v: usize) -> u64 {
        u64::try_from(v).unwrap_or(u64::MAX)
    }
    JsonObj::new()
        .str("kind", "discovery")
        .str("mode", "extended")
        .str("family", r.family)
        .u64("target_nodes", u(r.target))
        .u64("nodes", u(r.nodes))
        .str("discovery", r.discovery)
        .f64("deadline_secs", r.deadline_secs, 1)
        .f64("gen_secs", r.gen_secs, 3)
        .f64("sweep_secs", r.sweep_secs, 3)
        .u64("pairs", u(r.pairs))
        .f64("candidates_per_s", r.cand_per_s, 1)
        .u64("proposed", u(r.proposed))
        .u64("bucket_hits", u(r.bucket_hits))
        .u64("proofs_run", u(r.proofs_run))
        .u64("accepted", u(r.accepted))
        .u64("substitutions", u(r.substitutions))
        .i64("literal_gain", r.literal_gain)
        .u64("guard_rejections", u(r.guard_rejections))
        .u64("guard_pass_sampled", u(r.guard_pass_sampled))
        .bool("interrupted", r.interrupted)
        .finish()
}

/// Discovery crossover sweep: overlap vs signature-class divisor
/// discovery on adder instances from 220 up to
/// 100k gates, extended mode, checked apply (so every accepted rewrite
/// is guard-verified), one deadline-bounded run per (size, strategy).
/// The interesting row pair is the largest size: overlap's quadratic
/// enumeration runs out of deadline while the signature pass finishes.
fn discovery_sweep(smoke: bool) -> Vec<DiscRow> {
    let targets: &[usize] = if smoke {
        &[2_000]
    } else {
        &[220, 10_000, 100_000]
    };
    // 200 s sits between the measured full-sweep times at 100k nodes on
    // the 1-CPU reference container (signature ~150 s, overlap ~282 s —
    // same 50 048 accepts, but overlap pays 247k division proofs where
    // the screen leaves signature 55k), so the largest row pair shows
    // the crossover: signature complete, overlap interrupted.
    let deadline = Duration::from_secs_f64(if smoke { 5.0 } else { 200.0 });
    println!(
        "\nDiscovery crossover — adder family, extended checked, {deadline:?} deadline per run\n"
    );
    println!(
        "{:<10} {:>8} {:>9} {:>10} {:>12} {:>10} {:>8} {:>6} {:>7} {:>7}",
        "discovery",
        "nodes",
        "sweep s",
        "proposed",
        "bucket hit",
        "proofs",
        "accept",
        "subs",
        "g.rej",
        "cut off"
    );
    let mut rows = Vec::new();
    for &target in targets {
        let start = Instant::now();
        let net = large_network(Family::Adder, target, 1);
        let gen_secs = start.elapsed().as_secs_f64();
        let nodes = net.internal_ids().count();
        for discovery in [Discovery::Overlap, Discovery::Signature] {
            let mut trial = net.clone();
            let opts = SubstOptions::extended()
                .with_checked(true)
                .with_discovery(discovery)
                .with_deadline(Instant::now() + deadline);
            let start = Instant::now();
            let stats = Session::new(&mut trial, opts).run();
            let sweep_secs = start.elapsed().as_secs_f64();
            let pairs = stats.candidates_enumerated + stats.filtered_by_index;
            let row = DiscRow {
                family: Family::Adder.name(),
                target,
                nodes,
                discovery: stats.discovery.name(),
                deadline_secs: deadline.as_secs_f64(),
                gen_secs,
                sweep_secs,
                pairs,
                cand_per_s: pairs as f64 / sweep_secs,
                proposed: stats.discovery_proposed,
                bucket_hits: stats.discovery_bucket_hits,
                proofs_run: stats.discovery_proofs_run,
                accepted: stats.discovery_accepted,
                substitutions: stats.substitutions,
                literal_gain: stats.literal_gain,
                guard_rejections: stats.guard_rejections,
                guard_pass_sampled: stats.guard_pass_sampled,
                interrupted: stats.interrupted,
            };
            println!(
                "{:<10} {:>8} {:>9.3} {:>10} {:>12} {:>10} {:>8} {:>6} {:>7} {:>7}",
                row.discovery,
                row.nodes,
                row.sweep_secs,
                row.proposed,
                row.bucket_hits,
                row.proofs_run,
                row.accepted,
                row.substitutions,
                row.guard_rejections,
                if row.interrupted { "yes" } else { "no" }
            );
            rows.push(row);
        }
    }
    rows
}

/// One checked-mode run under a fixed guard tier policy, with a tracer
/// attached so every guard decision's tier and latency is recorded.
struct GuardRow {
    policy: &'static str,
    family: &'static str,
    nodes: usize,
    checks: u64,
    guard_secs: f64,
    avg_check_ms: f64,
    tier_counts: [u64; GuardTier::ALL.len()],
    substitutions: usize,
    interrupted: bool,
}

fn json_guard_row(r: &GuardRow) -> String {
    let mut obj = JsonObj::new();
    obj.str("kind", "guard_latency")
        .str("tier_policy", r.policy)
        .str("family", r.family)
        .u64("nodes", u64::try_from(r.nodes).unwrap_or(u64::MAX))
        .u64("guard_checks", r.checks)
        .f64("guard_secs", r.guard_secs, 3)
        .f64("avg_check_ms", r.avg_check_ms, 3);
    for tier in GuardTier::ALL {
        obj.u64(&format!("guard_{}", tier.name()), r.tier_counts[tier.idx()]);
    }
    obj.u64(
        "substitutions",
        u64::try_from(r.substitutions).unwrap_or(u64::MAX),
    )
    .bool("interrupted", r.interrupted)
    .finish()
}

/// Guard-tier latency sweep: the same multiplier instance run in checked
/// mode under the BDD-only and SAT tier policies, so `BENCH_guard.json`
/// tracks what each exact backend costs per accepted rewrite. The
/// instance is sized so both tiers are actually exercised (it fits the
/// BDD node budget, and the SAT policy bypasses that budget anyway).
fn guard_sweep(smoke: bool) -> Vec<GuardRow> {
    let target = 600;
    let deadline = Duration::from_secs_f64(if smoke { 4.0 } else { 20.0 });
    let net = large_network(Family::Multiplier, target, 7);
    let nodes = net.internal_ids().count();
    println!(
        "\nGuard tier latency — {nodes}-node {}, checked basic, {deadline:?} deadline per run\n",
        Family::Multiplier.name()
    );
    println!(
        "{:<8} {:>8} {:>10} {:>12} {:>6} {:>6} {:>6} {:>8} {:>6}",
        "policy", "checks", "guard s", "ms/check", "bdd", "sat", "sampl", "subs", "cutoff"
    );
    let mut rows = Vec::new();
    for (name, tier) in [("bdd", TierPolicy::Bdd), ("sat", TierPolicy::Sat)] {
        let mut trial = net.clone();
        let mut tracer = Tracer::new(name);
        let opts = SubstOptions::basic()
            .with_checked(true)
            .with_guard_tier(tier)
            .with_deadline(Instant::now() + deadline);
        let stats = Session::new(&mut trial, opts).tracer(&mut tracer).run();
        let (checks, guard_ns) = tracer.guard_stats();
        let guard_secs = guard_ns as f64 / 1e9;
        let mut tier_counts = [0u64; GuardTier::ALL.len()];
        for t in GuardTier::ALL {
            tier_counts[t.idx()] = tracer.guard_tier_count(t);
        }
        let row = GuardRow {
            policy: name,
            family: Family::Multiplier.name(),
            nodes,
            checks,
            guard_secs,
            avg_check_ms: if checks == 0 {
                0.0
            } else {
                guard_secs * 1e3 / checks as f64
            },
            tier_counts,
            substitutions: stats.substitutions,
            interrupted: stats.interrupted,
        };
        println!(
            "{:<8} {:>8} {:>10.3} {:>12.3} {:>6} {:>6} {:>6} {:>8} {:>6}",
            row.policy,
            row.checks,
            row.guard_secs,
            row.avg_check_ms,
            row.tier_counts[GuardTier::Bdd.idx()],
            row.tier_counts[GuardTier::Sat.idx()],
            row.tier_counts[GuardTier::Sampled.idx()],
            row.substitutions,
            if row.interrupted { "yes" } else { "no" }
        );
        rows.push(row);
    }
    rows
}

/// The ≥ 200-node generated workload of the traced runs (60 nodes under
/// `--smoke`).
fn scaling_workload(smoke: bool) -> Network {
    let params = GeneratorParams {
        inputs: 16,
        nodes: if smoke { 60 } else { 220 },
        ..GeneratorParams::default()
    };
    random_network(9001, &params)
}

fn main() {
    // --smoke: a CI-sized run — one padding level, one seed, and small
    // sweeps — exercising the full measurement and BENCH_sweep.json
    // plumbing in seconds.
    // --trace <out.jsonl> / --chrome-trace <out.json>: after the timing
    // runs, re-run each mode with a tracer attached and export the
    // recorded spans (JSONL events / chrome://tracing format).
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag_value = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{flag} needs a path"))
                .as_str()
        })
    };
    let trace_path = flag_value("--trace");
    let chrome_path = flag_value("--chrome-trace");
    let (paddings, seeds): (Vec<usize>, Vec<u64>) = if smoke {
        (vec![1], vec![301])
    } else {
        ((0..=3).collect(), vec![301, 302, 303, 304, 305])
    };
    println!("Crossover sweep — divisor padding vs method (total factored literals)\n");
    println!(
        "{:<8} {:>8} | {:>7} | {:>7} | {:>7} | {:>9}",
        "padding", "initial", "resub", "basic", "ext.", "ext-basic"
    );
    for &extra in &paddings {
        let mut initial = 0usize;
        let mut cells = [0usize; 3];
        for &seed in &seeds {
            let mut net = planted_network(
                seed,
                &PlantedParams {
                    targets: 8,
                    divisor_extra_cubes: extra,
                    ..PlantedParams::default()
                },
            );
            script_a(&mut net);
            initial += network_factored_literals(&net);
            let runs: [&dyn Fn(&mut boolsubst_network::Network); 3] = [
                &|n| {
                    algebraic_resub(n, &ResubOptions::default());
                },
                &|n| {
                    Session::new(n, SubstOptions::basic()).run();
                },
                &|n| {
                    Session::new(n, SubstOptions::extended()).run();
                },
            ];
            for (i, run) in runs.iter().enumerate() {
                let mut trial = net.clone();
                run(&mut trial);
                assert!(
                    networks_equivalent(&net, &trial),
                    "method {i} broke seed {seed} at padding {extra}"
                );
                cells[i] += network_factored_literals(&trial);
            }
        }
        let gap = cells[1] as i64 - cells[2] as i64;
        println!(
            "{:<8} {:>8} | {:>7} | {:>7} | {:>7} | {:>9}",
            extra, initial, cells[0], cells[1], cells[2], gap
        );
    }
    println!(
        "\n(ext-basic = literals extended saves beyond basic; it should grow\n\
         with padding — at 0 the two coincide, past the crossover only the\n\
         decomposing divider can reach the buried cores)"
    );
    let node_rows = node_sweep(smoke);
    let disc_rows = discovery_sweep(smoke);
    let json = json_array_pretty(
        node_rows
            .iter()
            .map(json_node_row)
            .chain(disc_rows.iter().map(json_disc_row)),
    );
    std::fs::write("BENCH_sweep.json", json).expect("write BENCH_sweep.json");
    println!("\nwrote BENCH_sweep.json");
    let guard_rows = guard_sweep(smoke);
    let guard_json = json_array_pretty(guard_rows.iter().map(json_guard_row));
    std::fs::write("BENCH_guard.json", guard_json).expect("write BENCH_guard.json");
    println!("\nwrote BENCH_guard.json");
    if trace_path.is_some() || chrome_path.is_some() {
        traced_runs(&scaling_workload(smoke), trace_path, chrome_path);
    }
}
