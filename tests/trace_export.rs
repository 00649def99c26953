//! Exporter-level tests for the trace subsystem: the JSONL stream parses
//! back field-for-field, the Chrome trace is a valid event array with
//! monotonic timestamps per thread, and the tracer's reject-reason funnel
//! and per-stage time totals reconcile exactly with the engine's
//! `SubstStats` counters.

use boolsubst::core::{all_configs, Session, SubstStats};
use boolsubst::trace::export::{chrome_trace_string, jsonl_string};
use boolsubst::trace::json::Json;
use boolsubst::trace::{Outcome, Stage, TraceEvent, Tracer};
use boolsubst::workloads::generator::{random_network, GeneratorParams};
use std::collections::HashMap;

/// One traced run per mode on the same generated network.
fn traced_runs() -> Vec<(Tracer, SubstStats)> {
    let base = random_network(11, &GeneratorParams::default());
    ["basic", "ext", "ext-gdc"]
        .into_iter()
        .zip(all_configs())
        .map(|(name, opts)| {
            let mut net = base.clone();
            let mut tracer = Tracer::new(name);
            let stats = Session::new(&mut net, opts).tracer(&mut tracer).run();
            (tracer, stats)
        })
        .collect()
}

#[test]
fn jsonl_roundtrips_field_for_field() {
    for (tracer, _) in traced_runs() {
        let text = jsonl_string(&tracer);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines.len(),
            1 + tracer.events().count(),
            "meta line + one line per event"
        );

        let meta = Json::parse(lines[0]).expect("meta parses");
        assert_eq!(meta.get("type").and_then(Json::as_str), Some("meta"));
        assert_eq!(meta.get("mode").and_then(Json::as_str), Some(tracer.mode()));
        assert_eq!(
            meta.get("pairs").and_then(Json::as_u64),
            Some(tracer.pairs())
        );

        for (ev, line) in tracer.events().zip(&lines[1..]) {
            let v = Json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            match ev {
                TraceEvent::Pair(p) => {
                    assert_eq!(v.get("type").and_then(Json::as_str), Some("pair"));
                    assert_eq!(
                        v.get("pass").and_then(Json::as_u64),
                        Some(u64::from(p.pass))
                    );
                    assert_eq!(
                        v.get("target").and_then(Json::as_u64),
                        Some(u64::from(p.target))
                    );
                    assert_eq!(
                        v.get("divisor").and_then(Json::as_u64),
                        Some(u64::from(p.divisor))
                    );
                    assert_eq!(v.get("start_ns").and_then(Json::as_u64), Some(p.start_ns));
                    assert_eq!(v.get("dur_ns").and_then(Json::as_u64), Some(p.dur_ns));
                    assert_eq!(
                        v.get("enumerate_ns").and_then(Json::as_u64),
                        Some(p.stages.enumerate)
                    );
                    assert_eq!(
                        v.get("filter_ns").and_then(Json::as_u64),
                        Some(p.stages.filter)
                    );
                    assert_eq!(v.get("sim_ns").and_then(Json::as_u64), Some(p.stages.sim));
                    assert_eq!(
                        v.get("divide_ns").and_then(Json::as_u64),
                        Some(p.stages.divide)
                    );
                    assert_eq!(
                        v.get("apply_ns").and_then(Json::as_u64),
                        Some(p.stages.apply)
                    );
                    assert_eq!(
                        v.get("outcome")
                            .and_then(Json::as_str)
                            .and_then(Outcome::from_name),
                        Some(p.outcome)
                    );
                    assert_eq!(v.get("gain").and_then(Json::as_i64), Some(p.gain));
                    assert_eq!(
                        v.get("rar_checks").and_then(Json::as_u64),
                        Some(p.rar_checks)
                    );
                }
                TraceEvent::Pass(p) => {
                    assert_eq!(v.get("type").and_then(Json::as_str), Some("pass"));
                    assert_eq!(v.get("pairs").and_then(Json::as_u64), Some(p.pairs));
                    assert_eq!(
                        v.get("substitutions").and_then(Json::as_u64),
                        Some(p.substitutions)
                    );
                    assert_eq!(
                        v.get("literal_gain").and_then(Json::as_i64),
                        Some(p.literal_gain)
                    );
                }
                TraceEvent::ShadowBuild { dur_ns, .. } => {
                    assert_eq!(v.get("type").and_then(Json::as_str), Some("shadow_build"));
                    assert_eq!(v.get("dur_ns").and_then(Json::as_u64), Some(*dur_ns));
                }
                TraceEvent::SimRefine { grew, .. } => {
                    assert_eq!(v.get("type").and_then(Json::as_str), Some("sim_refine"));
                    assert_eq!(v.get("grew").and_then(Json::as_bool), Some(*grew));
                }
                TraceEvent::Guard { tier, dur_ns, .. } => {
                    assert_eq!(v.get("type").and_then(Json::as_str), Some("guard"));
                    assert_eq!(v.get("tier").and_then(Json::as_str), Some(tier.name()));
                    assert_eq!(v.get("dur_ns").and_then(Json::as_u64), Some(*dur_ns));
                }
            }
        }
    }
}

#[test]
fn chrome_trace_is_valid_with_monotonic_timestamps() {
    let runs = traced_runs();
    let refs: Vec<&Tracer> = runs.iter().map(|(t, _)| t).collect();
    let text = chrome_trace_string(&refs);
    let v = Json::parse(&text).expect("chrome trace parses as JSON");
    let rows = v.as_array().expect("chrome trace is an array");
    assert!(!rows.is_empty());

    let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();
    let mut complete = 0usize;
    let mut pids = std::collections::BTreeSet::new();
    for (i, row) in rows.iter().enumerate() {
        let ph = row.get("ph").and_then(Json::as_str).expect("ph");
        let pid = row.get("pid").and_then(Json::as_u64).expect("pid");
        let tid = row.get("tid").and_then(Json::as_u64).expect("tid");
        pids.insert(pid);
        match ph {
            "M" => {}
            "X" => {
                complete += 1;
                let ts = row.get("ts").and_then(Json::as_f64).expect("ts");
                let dur = row.get("dur").and_then(Json::as_f64).expect("dur");
                assert!(ts >= 0.0 && dur >= 0.0, "event {i}: negative ts/dur");
                if let Some(&prev) = last_ts.get(&(pid, tid)) {
                    assert!(
                        ts >= prev,
                        "event {i}: ts regressed on pid {pid} tid {tid}: {ts} < {prev}"
                    );
                }
                last_ts.insert((pid, tid), ts);
            }
            other => panic!("event {i}: unexpected ph {other:?}"),
        }
    }
    assert!(complete > 0, "no complete events");
    assert_eq!(
        pids.into_iter().collect::<Vec<_>>(),
        vec![0, 1, 2],
        "one Chrome process per traced mode"
    );
}

#[test]
fn funnel_reconciles_with_stats_counters() {
    for (tracer, stats) in traced_runs() {
        let mode = tracer.mode().to_string();
        let count = |o: Outcome| usize::try_from(tracer.outcome_count(o)).expect("count");

        // Every pair the engine examined got exactly one span + outcome.
        assert_eq!(
            tracer.pairs() as usize,
            stats.candidates_enumerated,
            "{mode}: span count"
        );
        let funnel_total: u64 = tracer.funnel().iter().map(|&(_, c)| c).sum();
        assert_eq!(funnel_total, tracer.pairs(), "{mode}: funnel total");

        // Filter rejects map one-to-one onto the stats counters.
        assert_eq!(
            count(Outcome::RejectedStructural),
            stats.filtered_structural,
            "{mode}: structural"
        );
        assert_eq!(
            count(Outcome::RejectedTfo),
            stats.filtered_tfo,
            "{mode}: tfo"
        );
        assert_eq!(
            count(Outcome::RejectedDivisorSize),
            stats.filtered_divisor_size,
            "{mode}: divisor size"
        );
        assert_eq!(
            count(Outcome::RejectedJointSpace),
            stats.filtered_joint_space,
            "{mode}: joint space"
        );
        assert_eq!(
            count(Outcome::RejectedSimRefuted),
            stats.sim_pairs_refuted,
            "{mode}: sim refuted"
        );

        // Acceptances split by kind.
        let accepted = count(Outcome::AcceptedSop)
            + count(Outcome::AcceptedPos)
            + count(Outcome::AcceptedExtended);
        assert_eq!(accepted, stats.substitutions, "{mode}: accepted");
        assert_eq!(
            count(Outcome::AcceptedPos),
            stats.pos_substitutions,
            "{mode}: pos"
        );
        assert_eq!(
            count(Outcome::AcceptedExtended),
            stats.extended_decompositions,
            "{mode}: extended"
        );

        // Whatever survived the filters and wasn't accepted or refuted
        // fell through every strategy without gain.
        assert_eq!(
            count(Outcome::RejectedNoGain),
            stats.divisions_tried - stats.substitutions - stats.sim_pairs_refuted,
            "{mode}: no gain"
        );

        // Histogram sample counts agree with the span count, and the
        // accepted rewrites carry the total literal gain.
        assert_eq!(tracer.pair_histogram().count(), tracer.pairs(), "{mode}");
        let span_gain: i64 = tracer
            .events()
            .filter_map(|e| match e {
                TraceEvent::Pair(p) => Some(p.gain),
                _ => None,
            })
            .sum();
        assert_eq!(span_gain, stats.literal_gain, "{mode}: gain over spans");

        // The pass summaries cover every pair and acceptance.
        let pass_pairs: u64 = tracer.pass_summaries().iter().map(|p| p.pairs).sum();
        let pass_subs: u64 = tracer
            .pass_summaries()
            .iter()
            .map(|p| p.substitutions)
            .sum();
        assert_eq!(pass_pairs, tracer.pairs(), "{mode}: pass pairs");
        assert_eq!(pass_subs as usize, stats.substitutions, "{mode}: pass subs");

        // GDC-only counters stay zero elsewhere.
        if mode != "ext-gdc" {
            let rar: u64 = tracer
                .events()
                .filter_map(|e| match e {
                    TraceEvent::Pair(p) => Some(p.rar_checks),
                    _ => None,
                })
                .sum();
            assert_eq!(rar, 0, "{mode}: rar checks outside GDC");
            assert_eq!(tracer.shadow_stats().0, 0, "{mode}: shadow builds");
        }
    }
}

/// Stats, trace and metrics share one stage clock: every nanosecond the
/// engine books to a `SubstStats` stage lands on the tracer's matching
/// stage histogram.
#[test]
fn stage_totals_match_stats() {
    for (tracer, stats) in traced_runs() {
        for (stage, booked) in [
            (Stage::Enumerate, stats.enumerate_nanos),
            (Stage::Filter, stats.filter_nanos),
            (Stage::Sim, stats.sim_nanos),
            (Stage::Divide, stats.divide_nanos),
            (Stage::Apply, stats.apply_nanos),
        ] {
            assert_eq!(
                tracer.stage_histogram(stage).sum_ns(),
                booked,
                "{}: {stage:?} stage total",
                tracer.mode()
            );
        }
    }
}

#[test]
fn report_renders_funnel_and_stages() {
    let (tracer, stats) = traced_runs().remove(2); // ext-gdc
    let text = tracer.report().to_string();
    assert!(text.contains("mode ext-gdc"));
    assert!(text.contains("-- outcome funnel --"));
    assert!(text.contains("-- stage latency --"));
    assert!(text.contains("=> accepted"));
    if stats.substitutions > 0 {
        assert!(text.contains("accept_"), "acceptances shown in funnel");
    }
    if stats.shadow_cache_misses > 0 {
        assert!(text.contains("shadow builds:"));
    }
}
