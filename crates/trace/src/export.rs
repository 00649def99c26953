//! Trace exporters: newline-delimited JSON events and the Chrome
//! trace-event format (loadable in `chrome://tracing` and Perfetto).

use std::io::{self, Write};

use crate::json::JsonObj;
use crate::span::TraceEvent;
use crate::tracer::Tracer;

/// Serializes one ring-buffer event as a single-line JSON object.
#[must_use]
pub fn event_to_json(ev: &TraceEvent) -> String {
    match ev {
        TraceEvent::Pass(p) => JsonObj::new()
            .str("type", "pass")
            .u64("pass", u64::from(p.pass))
            .u64("start_ns", p.start_ns)
            .u64("dur_ns", p.dur_ns)
            .u64("pairs", p.pairs)
            .u64("substitutions", p.substitutions)
            .i64("literal_gain", p.literal_gain)
            .finish(),
        TraceEvent::Pair(p) => JsonObj::new()
            .str("type", "pair")
            .u64("pass", u64::from(p.pass))
            .u64("target", u64::from(p.target))
            .u64("divisor", u64::from(p.divisor))
            .u64("start_ns", p.start_ns)
            .u64("dur_ns", p.dur_ns)
            .u64("enumerate_ns", p.stages.enumerate)
            .u64("filter_ns", p.stages.filter)
            .u64("sim_ns", p.stages.sim)
            .u64("divide_ns", p.stages.divide)
            .u64("apply_ns", p.stages.apply)
            .str("outcome", p.outcome.name())
            .i64("gain", p.gain)
            .u64("rar_checks", p.rar_checks)
            .finish(),
        TraceEvent::ShadowBuild {
            pass,
            target,
            start_ns,
            dur_ns,
        } => JsonObj::new()
            .str("type", "shadow_build")
            .u64("pass", u64::from(*pass))
            .u64("target", u64::from(*target))
            .u64("start_ns", *start_ns)
            .u64("dur_ns", *dur_ns)
            .finish(),
        TraceEvent::SimRefine {
            pass,
            target,
            divisor,
            start_ns,
            dur_ns,
            grew,
        } => JsonObj::new()
            .str("type", "sim_refine")
            .u64("pass", u64::from(*pass))
            .u64("target", u64::from(*target))
            .u64("divisor", u64::from(*divisor))
            .u64("start_ns", *start_ns)
            .u64("dur_ns", *dur_ns)
            .bool("grew", *grew)
            .finish(),
        TraceEvent::Guard {
            pass,
            target,
            divisor,
            tier,
            passed,
            exact,
            start_ns,
            dur_ns,
        } => JsonObj::new()
            .str("type", "guard")
            .u64("pass", u64::from(*pass))
            .u64("target", u64::from(*target))
            .u64("divisor", u64::from(*divisor))
            .str("tier", tier.name())
            .bool("passed", *passed)
            .bool("exact", *exact)
            .u64("start_ns", *start_ns)
            .u64("dur_ns", *dur_ns)
            .finish(),
    }
}

/// Writes the trace as newline-delimited JSON: one `meta` line with the
/// mode and run-level aggregates, then one line per retained event.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_jsonl<W: Write>(t: &Tracer, w: &mut W) -> io::Result<()> {
    let (shadow_builds, shadow_ns) = t.shadow_stats();
    let (refine_attempts, refine_grew, refine_ns) = t.refine_stats();
    let (guard_checks, guard_ns) = t.guard_stats();
    let mut meta = JsonObj::new();
    meta.str("type", "meta")
        .str("mode", t.mode())
        .str("discovery", t.discovery().unwrap_or("overlap"))
        .u64("pairs", t.pairs())
        .u64("passes", t.pass_summaries().len() as u64)
        .u64("events_dropped", t.dropped())
        .u64("shadow_builds", shadow_builds)
        .u64("shadow_ns", shadow_ns)
        .u64("refine_attempts", refine_attempts)
        .u64("refine_grew", refine_grew)
        .u64("refine_ns", refine_ns)
        .u64("guard_checks", guard_checks)
        .u64("guard_ns", guard_ns);
    for tier in crate::span::GuardTier::ALL {
        meta.u64(&format!("guard_{}", tier.name()), t.guard_tier_count(tier));
    }
    let meta = meta.finish();
    writeln!(w, "{meta}")?;
    for ev in t.events() {
        writeln!(w, "{}", event_to_json(ev))?;
    }
    Ok(())
}

/// [`write_jsonl`] into a `String`.
#[must_use]
pub fn jsonl_string(t: &Tracer) -> String {
    let mut buf = Vec::new();
    write_jsonl(t, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("exporter emits UTF-8")
}

fn micros(ns: u64) -> String {
    #[allow(clippy::cast_precision_loss)]
    let us = ns as f64 / 1000.0;
    format!("{us:.3}")
}

/// Thread ids used in the Chrome export: pair spans.
const TID_PAIRS: u64 = 0;
/// Thread ids used in the Chrome export: pass spans.
const TID_PASSES: u64 = 1;
/// Thread ids used in the Chrome export: shadow builds and refinements.
const TID_AUX: u64 = 2;
#[allow(clippy::too_many_arguments)]
fn chrome_complete(
    out: &mut Vec<String>,
    name: &str,
    cat: &str,
    pid: u64,
    tid: u64,
    start_ns: u64,
    dur_ns: u64,
    args: String,
) {
    out.push(
        JsonObj::new()
            .str("name", name)
            .str("cat", cat)
            .str("ph", "X")
            .raw("ts", &micros(start_ns))
            .raw("dur", &micros(dur_ns))
            .u64("pid", pid)
            .u64("tid", tid)
            .raw("args", &args)
            .finish(),
    );
}

fn chrome_metadata(out: &mut Vec<String>, name: &str, pid: u64, tid: u64, label: &str) {
    out.push(
        JsonObj::new()
            .str("name", name)
            .str("ph", "M")
            .u64("pid", pid)
            .u64("tid", tid)
            .raw("args", JsonObj::new().str("name", label).finish().as_str())
            .finish(),
    );
}

/// Renders one or more tracers (one Chrome "process" per tracer, so
/// modes sit side by side) as a Chrome trace-event JSON array.
#[must_use]
pub fn chrome_trace_string(tracers: &[&Tracer]) -> String {
    let mut rows: Vec<String> = Vec::new();
    for (pid, t) in (0u64..).zip(tracers.iter()) {
        chrome_metadata(
            &mut rows,
            "process_name",
            pid,
            TID_PAIRS,
            &format!("boolsubst {}", t.mode()),
        );
        chrome_metadata(&mut rows, "thread_name", pid, TID_PAIRS, "pairs");
        chrome_metadata(&mut rows, "thread_name", pid, TID_PASSES, "passes");
        chrome_metadata(&mut rows, "thread_name", pid, TID_AUX, "engine aux");

        for ev in t.events() {
            match ev {
                TraceEvent::Pass(p) => {
                    let args = JsonObj::new()
                        .u64("pairs", p.pairs)
                        .u64("substitutions", p.substitutions)
                        .i64("literal_gain", p.literal_gain)
                        .finish();
                    chrome_complete(
                        &mut rows,
                        &format!("pass {}", p.pass),
                        "pass",
                        pid,
                        TID_PASSES,
                        p.start_ns,
                        p.dur_ns,
                        args,
                    );
                }
                TraceEvent::Pair(p) => {
                    let args = JsonObj::new()
                        .str("target", &t.node_name(p.target))
                        .str("divisor", &t.node_name(p.divisor))
                        .u64("pass", u64::from(p.pass))
                        .i64("gain", p.gain)
                        .u64("rar_checks", p.rar_checks)
                        .u64("filter_ns", p.stages.filter)
                        .u64("sim_ns", p.stages.sim)
                        .u64("divide_ns", p.stages.divide)
                        .u64("apply_ns", p.stages.apply)
                        .finish();
                    chrome_complete(
                        &mut rows,
                        p.outcome.name(),
                        "pair",
                        pid,
                        TID_PAIRS,
                        p.start_ns,
                        p.dur_ns,
                        args,
                    );
                }
                TraceEvent::ShadowBuild {
                    pass,
                    target,
                    start_ns,
                    dur_ns,
                } => {
                    let args = JsonObj::new()
                        .str("target", &t.node_name(*target))
                        .u64("pass", u64::from(*pass))
                        .finish();
                    chrome_complete(
                        &mut rows,
                        "shadow_build",
                        "aux",
                        pid,
                        TID_AUX,
                        *start_ns,
                        *dur_ns,
                        args,
                    );
                }
                TraceEvent::SimRefine {
                    pass,
                    target,
                    divisor,
                    start_ns,
                    dur_ns,
                    grew,
                } => {
                    let args = JsonObj::new()
                        .str("target", &t.node_name(*target))
                        .str("divisor", &t.node_name(*divisor))
                        .u64("pass", u64::from(*pass))
                        .bool("grew", *grew)
                        .finish();
                    chrome_complete(
                        &mut rows,
                        "sim_refine",
                        "aux",
                        pid,
                        TID_AUX,
                        *start_ns,
                        *dur_ns,
                        args,
                    );
                }
                TraceEvent::Guard {
                    pass,
                    target,
                    divisor,
                    tier,
                    passed,
                    exact,
                    start_ns,
                    dur_ns,
                } => {
                    let args = JsonObj::new()
                        .str("target", &t.node_name(*target))
                        .str("divisor", &t.node_name(*divisor))
                        .u64("pass", u64::from(*pass))
                        .str("tier", tier.name())
                        .bool("passed", *passed)
                        .bool("exact", *exact)
                        .finish();
                    chrome_complete(
                        &mut rows,
                        &format!("guard_{}", tier.name()),
                        "guard",
                        pid,
                        TID_AUX,
                        *start_ns,
                        *dur_ns,
                        args,
                    );
                }
            }
        }
    }
    crate::json::json_array_pretty(rows)
}

/// [`chrome_trace_string`] straight to a writer.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_chrome_trace<W: Write>(tracers: &[&Tracer], w: &mut W) -> io::Result<()> {
    w.write_all(chrome_trace_string(tracers).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::span::{Outcome, Stage};

    fn sample_tracer() -> Tracer {
        let mut t = Tracer::new("ext-gdc");
        t.set_node_names(vec!["n0".into(), "n1".into(), "n2".into()]);
        t.begin_pass(1);
        t.begin_pair(1, 2);
        t.stage(Stage::Filter, 3);
        t.stage(Stage::Divide, 40);
        t.set_rar_checks(7);
        t.note_outcome(Outcome::AcceptedSop);
        t.end_pair(5);
        t.shadow_build(1, 11);
        t.sim_refine(1, 2, true, 9);
        t.guard_check(1, 2, crate::span::GuardTier::Sat, true, true, 21);
        t.end_pass(1, 5);
        t
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let t = sample_tracer();
        let text = jsonl_string(&t);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines.len(),
            6,
            "meta + pair + shadow + refine + guard + pass"
        );

        let meta = Json::parse(lines[0]).expect("meta parses");
        assert_eq!(meta.get("type").and_then(Json::as_str), Some("meta"));
        assert_eq!(meta.get("mode").and_then(Json::as_str), Some("ext-gdc"));
        assert_eq!(meta.get("pairs").and_then(Json::as_u64), Some(1));

        let pair = Json::parse(lines[1]).expect("pair parses");
        assert_eq!(pair.get("type").and_then(Json::as_str), Some("pair"));
        assert_eq!(pair.get("target").and_then(Json::as_u64), Some(1));
        assert_eq!(pair.get("divisor").and_then(Json::as_u64), Some(2));
        assert_eq!(pair.get("filter_ns").and_then(Json::as_u64), Some(3));
        assert_eq!(pair.get("divide_ns").and_then(Json::as_u64), Some(40));
        assert_eq!(pair.get("rar_checks").and_then(Json::as_u64), Some(7));
        assert_eq!(pair.get("gain").and_then(Json::as_i64), Some(5));
        assert_eq!(
            pair.get("outcome").and_then(Json::as_str),
            Some("accept_sop")
        );

        let shadow = Json::parse(lines[2]).expect("shadow parses");
        assert_eq!(
            shadow.get("type").and_then(Json::as_str),
            Some("shadow_build")
        );
        let refine = Json::parse(lines[3]).expect("refine parses");
        assert_eq!(refine.get("grew").and_then(Json::as_bool), Some(true));
        let guard = Json::parse(lines[4]).expect("guard parses");
        assert_eq!(guard.get("type").and_then(Json::as_str), Some("guard"));
        assert_eq!(guard.get("tier").and_then(Json::as_str), Some("sat"));
        assert_eq!(guard.get("passed").and_then(Json::as_bool), Some(true));
        assert_eq!(guard.get("exact").and_then(Json::as_bool), Some(true));
        assert_eq!(guard.get("dur_ns").and_then(Json::as_u64), Some(21));
        assert_eq!(meta.get("guard_checks").and_then(Json::as_u64), Some(1));
        assert_eq!(meta.get("guard_sat").and_then(Json::as_u64), Some(1));
        assert_eq!(meta.get("guard_bdd").and_then(Json::as_u64), Some(0));
        let pass = Json::parse(lines[5]).expect("pass parses");
        assert_eq!(pass.get("substitutions").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn chrome_trace_is_valid_and_labelled() {
        let t = sample_tracer();
        let text = chrome_trace_string(&[&t]);
        let v = Json::parse(&text).expect("chrome trace parses");
        let rows = v.as_array().expect("array");
        // 4 metadata rows + 5 events.
        assert_eq!(rows.len(), 9);
        let guard = rows
            .iter()
            .find(|r| r.get("cat").and_then(Json::as_str) == Some("guard"))
            .expect("guard event present");
        assert_eq!(guard.get("name").and_then(Json::as_str), Some("guard_sat"));
        assert_eq!(
            rows[0].get("ph").and_then(Json::as_str),
            Some("M"),
            "leads with metadata"
        );
        let pair = rows
            .iter()
            .find(|r| r.get("cat").and_then(Json::as_str) == Some("pair"))
            .expect("pair event present");
        assert_eq!(pair.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(pair.get("name").and_then(Json::as_str), Some("accept_sop"));
        let args = pair.get("args").expect("args");
        assert_eq!(args.get("target").and_then(Json::as_str), Some("n1"));
        assert_eq!(args.get("divisor").and_then(Json::as_str), Some("n2"));
    }

    #[test]
    fn chrome_trace_multi_process() {
        let a = sample_tracer();
        let b = sample_tracer();
        let text = chrome_trace_string(&[&a, &b]);
        let v = Json::parse(&text).expect("parses");
        let pids: std::collections::BTreeSet<u64> = v
            .as_array()
            .expect("array")
            .iter()
            .filter_map(|r| r.get("pid").and_then(Json::as_u64))
            .collect();
        assert_eq!(pids.into_iter().collect::<Vec<_>>(), vec![0, 1]);
    }
}
