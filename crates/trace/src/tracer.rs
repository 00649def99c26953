//! The recording handle the engine threads through as `Option<&mut Tracer>`.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::time::Instant;

use crate::hist::LatencyHistogram;
use crate::report::TraceReport;
use crate::span::{GuardTier, Outcome, PairSpan, PassSpan, Stage, TraceEvent};

/// Bounds on what a [`Tracer`] retains.
#[derive(Debug, Clone, Copy)]
pub struct TracerConfig {
    /// Maximum events kept in the ring buffer; older events are dropped
    /// (aggregates stay exact regardless).
    pub ring_capacity: usize,
    /// How many slowest pair spans to retain.
    pub top_k: usize,
    /// How many hottest targets [`Tracer::hot_targets`] returns.
    pub hot_targets: usize,
}

impl Default for TracerConfig {
    fn default() -> TracerConfig {
        TracerConfig {
            ring_capacity: 1 << 16,
            top_k: 16,
            hot_targets: 10,
        }
    }
}

/// Per-target aggregate across every pair attempt that targeted it.
#[derive(Debug, Clone, Copy, Default)]
pub struct TargetAgg {
    /// Pair attempts with this node as the target.
    pub pairs: u64,
    /// Accepted rewrites onto this target.
    pub accepts: u64,
    /// Total wall-clock nanos spent on this target's pairs.
    pub dur_ns: u64,
    /// Total factored-literal gain realised on this target.
    pub gain: i64,
}

/// Records one traced substitution run: a bounded event ring plus exact
/// aggregates (stage/outcome/pair histograms, outcome funnel, top-K
/// slowest pairs, per-target heat, shadow-build and sim-refinement
/// counters).
///
/// All timestamps are nanoseconds since the tracer's construction
/// instant (its *epoch*). The tracer never touches the network being
/// optimized; attaching one cannot change results.
#[derive(Debug)]
pub struct Tracer {
    config: TracerConfig,
    epoch: Instant,
    mode: String,
    discovery: Option<String>,
    names: Vec<String>,
    ring: VecDeque<TraceEvent>,
    dropped: u64,
    stage_hist: [LatencyHistogram; Stage::ALL.len()],
    outcome_hist: [LatencyHistogram; Outcome::COUNT],
    pair_hist: LatencyHistogram,
    outcome_counts: [u64; Outcome::COUNT],
    pairs: u64,
    slowest: Vec<PairSpan>,
    per_target: HashMap<u32, TargetAgg>,
    passes: Vec<PassSpan>,
    cur: Option<PairSpan>,
    noted: Option<Outcome>,
    cur_pass: u32,
    pass_start_ns: u64,
    pass_pairs: u64,
    shadow_builds: u64,
    shadow_ns: u64,
    refine_attempts: u64,
    refine_grew: u64,
    refine_ns: u64,
    guard_checks: u64,
    guard_tier_counts: [u64; GuardTier::ALL.len()],
    guard_ns: u64,
}

impl Tracer {
    /// A tracer with default bounds, labelled with the mode it records
    /// (e.g. `"basic"`, `"ext"`, `"ext-gdc"`).
    #[must_use]
    pub fn new(mode: &str) -> Tracer {
        Tracer::with_config(mode, TracerConfig::default())
    }

    /// A tracer with explicit bounds.
    #[must_use]
    pub fn with_config(mode: &str, config: TracerConfig) -> Tracer {
        Tracer {
            config,
            epoch: Instant::now(),
            mode: mode.to_string(),
            discovery: None,
            names: Vec::new(),
            ring: VecDeque::new(),
            dropped: 0,
            stage_hist: std::array::from_fn(|_| LatencyHistogram::new()),
            outcome_hist: std::array::from_fn(|_| LatencyHistogram::new()),
            pair_hist: LatencyHistogram::new(),
            outcome_counts: [0; Outcome::COUNT],
            pairs: 0,
            slowest: Vec::new(),
            per_target: HashMap::new(),
            passes: Vec::new(),
            cur: None,
            noted: None,
            cur_pass: 0,
            pass_start_ns: 0,
            pass_pairs: 0,
            shadow_builds: 0,
            shadow_ns: 0,
            refine_attempts: 0,
            refine_grew: 0,
            refine_ns: 0,
            guard_checks: 0,
            guard_tier_counts: [0; GuardTier::ALL.len()],
            guard_ns: 0,
        }
    }

    /// The mode label this tracer was built with.
    #[must_use]
    pub fn mode(&self) -> &str {
        &self.mode
    }

    /// Labels the run with the resolved divisor-discovery strategy
    /// (`"overlap"`, `"signature"`); exported in the JSONL meta line.
    pub fn set_discovery(&mut self, name: &str) {
        self.discovery = Some(name.to_string());
    }

    /// The discovery label, when the engine set one.
    #[must_use]
    pub fn discovery(&self) -> Option<&str> {
        self.discovery.as_deref()
    }

    /// Nanoseconds since the tracer epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Installs a node-id → name table (index = raw slot id). Used by the
    /// Chrome exporter and the report to label targets/divisors.
    pub fn set_node_names(&mut self, names: Vec<String>) {
        self.names = names;
    }

    /// The display name for a node id; falls back to `#id`.
    #[must_use]
    pub fn node_name(&self, id: u32) -> String {
        match self.names.get(id as usize) {
            Some(n) if !n.is_empty() => n.clone(),
            _ => format!("#{id}"),
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.ring.len() >= self.config.ring_capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }

    /// Marks the start of sweep pass `pass` (1-based).
    pub fn begin_pass(&mut self, pass: u32) {
        self.cur_pass = pass;
        self.pass_start_ns = self.now_ns();
        self.pass_pairs = 0;
    }

    /// Completes the current pass with its accepted-substitution count
    /// and literal gain.
    pub fn end_pass(&mut self, substitutions: u64, literal_gain: i64) {
        let start_ns = self.pass_start_ns;
        let span = PassSpan {
            pass: self.cur_pass,
            start_ns,
            dur_ns: self.now_ns().saturating_sub(start_ns),
            pairs: self.pass_pairs,
            substitutions,
            literal_gain,
        };
        self.passes.push(span.clone());
        self.push(TraceEvent::Pass(span));
    }

    /// Opens a pair span for (`target`, `divisor`).
    pub fn begin_pair(&mut self, target: u32, divisor: u32) {
        self.cur = Some(PairSpan {
            pass: self.cur_pass,
            target,
            divisor,
            start_ns: self.now_ns(),
            dur_ns: 0,
            stages: Default::default(),
            outcome: Outcome::RejectedNoGain,
            gain: 0,
            rar_checks: 0,
        });
        self.noted = None;
    }

    /// Attributes `ns` to `stage`: always sampled into the per-stage
    /// histogram, and also onto the open pair span if one exists.
    pub fn stage(&mut self, stage: Stage, ns: u64) {
        self.stage_hist[stage.idx()].record(ns);
        if let Some(cur) = self.cur.as_mut() {
            cur.stages.add(stage, ns);
        }
    }

    /// Records the outcome the division core decided on; consumed by the
    /// next [`Tracer::end_pair`].
    pub fn note_outcome(&mut self, outcome: Outcome) {
        self.noted = Some(outcome);
    }

    /// Sets the open pair's RAR/ATPG fault-check count.
    pub fn set_rar_checks(&mut self, checks: u64) {
        if let Some(cur) = self.cur.as_mut() {
            cur.rar_checks = checks;
        }
    }

    /// Closes the open pair span with the outcome noted since
    /// [`Tracer::begin_pair`] (default: no-gain reject) and the realised
    /// literal gain. No-op when no span is open.
    pub fn end_pair(&mut self, gain: i64) {
        let outcome = self.noted.take().unwrap_or(Outcome::RejectedNoGain);
        self.finish_pair(outcome, gain);
    }

    /// Closes the open pair span with an explicit outcome, overriding
    /// anything noted (used by the engine's early filter rejects).
    pub fn end_pair_with(&mut self, outcome: Outcome, gain: i64) {
        self.noted = None;
        self.finish_pair(outcome, gain);
    }

    fn finish_pair(&mut self, outcome: Outcome, gain: i64) {
        let Some(mut span) = self.cur.take() else {
            return;
        };
        span.dur_ns = self.now_ns().saturating_sub(span.start_ns);
        span.outcome = outcome;
        span.gain = gain;
        self.aggregate_pair(span);
    }

    fn aggregate_pair(&mut self, span: PairSpan) {
        let outcome = span.outcome;
        let gain = span.gain;
        self.pairs += 1;
        self.pass_pairs += 1;
        self.pair_hist.record(span.dur_ns);
        self.outcome_counts[outcome.idx()] += 1;
        self.outcome_hist[outcome.idx()].record(span.dur_ns);

        let agg = self.per_target.entry(span.target).or_default();
        agg.pairs += 1;
        agg.dur_ns = agg.dur_ns.saturating_add(span.dur_ns);
        if outcome.accepted() {
            agg.accepts += 1;
            agg.gain += gain;
        }

        // Keep the top-K slowest pairs, sorted by descending duration.
        let pos = self.slowest.partition_point(|s| s.dur_ns >= span.dur_ns);
        if pos < self.config.top_k {
            self.slowest.insert(pos, span.clone());
            self.slowest.truncate(self.config.top_k);
        }

        self.push(TraceEvent::Pair(span));
    }

    /// Records a from-scratch GDC shadow-circuit snapshot build.
    pub fn shadow_build(&mut self, target: u32, dur_ns: u64) {
        self.shadow_builds += 1;
        self.shadow_ns = self.shadow_ns.saturating_add(dur_ns);
        let start_ns = self.now_ns().saturating_sub(dur_ns);
        self.push(TraceEvent::ShadowBuild {
            pass: self.cur_pass,
            target,
            start_ns,
            dur_ns,
        });
    }

    /// Records a counterexample-refinement attempt after a simulation
    /// false pass; `grew` says whether the pattern pool actually grew.
    pub fn sim_refine(&mut self, target: u32, divisor: u32, grew: bool, dur_ns: u64) {
        self.refine_attempts += 1;
        if grew {
            self.refine_grew += 1;
        }
        self.refine_ns = self.refine_ns.saturating_add(dur_ns);
        let start_ns = self.now_ns().saturating_sub(dur_ns);
        self.push(TraceEvent::SimRefine {
            pass: self.cur_pass,
            target,
            divisor,
            start_ns,
            dur_ns,
            grew,
        });
    }

    /// Records one post-apply guard check of an accepted rewrite
    /// (checked mode): which tier decided, whether the rewrite stood,
    /// and whether the verdict was a proof.
    pub fn guard_check(
        &mut self,
        target: u32,
        divisor: u32,
        tier: GuardTier,
        passed: bool,
        exact: bool,
        dur_ns: u64,
    ) {
        self.guard_checks += 1;
        self.guard_tier_counts[tier.idx()] += 1;
        self.guard_ns = self.guard_ns.saturating_add(dur_ns);
        let start_ns = self.now_ns().saturating_sub(dur_ns);
        self.push(TraceEvent::Guard {
            pass: self.cur_pass,
            target,
            divisor,
            tier,
            passed,
            exact,
            start_ns,
            dur_ns,
        });
    }

    /// `(checks, total_ns)` of post-apply guard checks.
    #[must_use]
    pub fn guard_stats(&self) -> (u64, u64) {
        (self.guard_checks, self.guard_ns)
    }

    /// How many guard checks were decided by `tier`.
    #[must_use]
    pub fn guard_tier_count(&self, tier: GuardTier) -> u64 {
        self.guard_tier_counts[tier.idx()]
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Events evicted from the ring because it was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total pair spans recorded (not bounded by the ring).
    #[must_use]
    pub fn pairs(&self) -> u64 {
        self.pairs
    }

    /// Completed pass summaries, in order.
    #[must_use]
    pub fn pass_summaries(&self) -> &[PassSpan] {
        &self.passes
    }

    /// How many pairs ended with `outcome`.
    #[must_use]
    pub fn outcome_count(&self, outcome: Outcome) -> u64 {
        self.outcome_counts[outcome.idx()]
    }

    /// The full outcome funnel as `(outcome, count)`, acceptance first,
    /// zero-count outcomes included.
    #[must_use]
    pub fn funnel(&self) -> Vec<(Outcome, u64)> {
        Outcome::ALL
            .into_iter()
            .map(|o| (o, self.outcome_counts[o.idx()]))
            .collect()
    }

    /// Latency histogram of one pipeline stage.
    #[must_use]
    pub fn stage_histogram(&self, stage: Stage) -> &LatencyHistogram {
        &self.stage_hist[stage.idx()]
    }

    /// Latency histogram of pairs that ended with `outcome`.
    #[must_use]
    pub fn outcome_histogram(&self, outcome: Outcome) -> &LatencyHistogram {
        &self.outcome_hist[outcome.idx()]
    }

    /// Wall-clock latency histogram over all pair spans.
    #[must_use]
    pub fn pair_histogram(&self) -> &LatencyHistogram {
        &self.pair_hist
    }

    /// The top-K slowest pair spans, slowest first.
    #[must_use]
    pub fn slowest_pairs(&self) -> &[PairSpan] {
        &self.slowest
    }

    /// The hottest targets by total wall-clock time, hottest first,
    /// bounded by the configured count.
    #[must_use]
    pub fn hot_targets(&self) -> Vec<(u32, TargetAgg)> {
        let mut v: Vec<(u32, TargetAgg)> = self
            .per_target
            .iter()
            .map(|(&id, &agg)| (id, agg))
            .collect();
        v.sort_by(|a, b| b.1.dur_ns.cmp(&a.1.dur_ns).then(a.0.cmp(&b.0)));
        v.truncate(self.config.hot_targets);
        v
    }

    /// `(builds, total_ns)` of from-scratch GDC shadow snapshots.
    #[must_use]
    pub fn shadow_stats(&self) -> (u64, u64) {
        (self.shadow_builds, self.shadow_ns)
    }

    /// `(attempts, grew, total_ns)` of sim counterexample refinements.
    #[must_use]
    pub fn refine_stats(&self) -> (u64, u64, u64) {
        (self.refine_attempts, self.refine_grew, self.refine_ns)
    }

    /// A human-readable report borrowing this tracer.
    #[must_use]
    pub fn report(&self) -> TraceReport<'_> {
        TraceReport::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_pair(t: &mut Tracer, target: u32, divisor: u32, outcome: Outcome, gain: i64) {
        t.begin_pair(target, divisor);
        t.stage(Stage::Filter, 10);
        t.stage(Stage::Divide, 100);
        if outcome == Outcome::RejectedNoGain {
            t.end_pair(gain);
        } else {
            t.note_outcome(outcome);
            t.end_pair(gain);
        }
    }

    #[test]
    fn records_pairs_and_funnel() {
        let mut t = Tracer::new("basic");
        t.begin_pass(1);
        run_pair(&mut t, 3, 5, Outcome::AcceptedSop, 2);
        run_pair(&mut t, 3, 6, Outcome::RejectedNoGain, 0);
        run_pair(&mut t, 4, 5, Outcome::RejectedSimRefuted, 0);
        t.end_pass(1, 2);

        assert_eq!(t.pairs(), 3);
        assert_eq!(t.outcome_count(Outcome::AcceptedSop), 1);
        assert_eq!(t.outcome_count(Outcome::RejectedNoGain), 1);
        assert_eq!(t.outcome_count(Outcome::RejectedSimRefuted), 1);
        let total: u64 = t.funnel().iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 3);
        assert_eq!(t.stage_histogram(Stage::Filter).count(), 3);
        assert_eq!(t.pair_histogram().count(), 3);

        let passes = t.pass_summaries();
        assert_eq!(passes.len(), 1);
        assert_eq!(passes[0].pairs, 3);
        assert_eq!(passes[0].substitutions, 1);
        assert_eq!(passes[0].literal_gain, 2);

        let hot = t.hot_targets();
        assert_eq!(hot[0].0, 3, "target 3 saw two pairs");
        assert_eq!(hot[0].1.pairs, 2);
        assert_eq!(hot[0].1.accepts, 1);
        assert_eq!(hot[0].1.gain, 2);

        // Pair + pass events all fit in the default ring.
        assert_eq!(t.events().count(), 4);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_drops_oldest_but_aggregates_stay_exact() {
        let mut t = Tracer::with_config(
            "basic",
            TracerConfig {
                ring_capacity: 2,
                top_k: 4,
                hot_targets: 4,
            },
        );
        t.begin_pass(1);
        for d in 0..5u32 {
            run_pair(&mut t, 1, d, Outcome::RejectedNoGain, 0);
        }
        assert_eq!(t.events().count(), 2);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.pairs(), 5, "aggregate count survives ring eviction");
        assert_eq!(t.outcome_count(Outcome::RejectedNoGain), 5);
        assert_eq!(t.pair_histogram().count(), 5);
    }

    #[test]
    fn slowest_pairs_are_sorted_and_bounded() {
        let mut t = Tracer::with_config(
            "basic",
            TracerConfig {
                ring_capacity: 64,
                top_k: 2,
                hot_targets: 4,
            },
        );
        t.begin_pass(1);
        for d in 0..4u32 {
            // Durations vary with real elapsed time; just check invariants.
            run_pair(&mut t, 1, d, Outcome::RejectedNoGain, 0);
        }
        let slowest = t.slowest_pairs();
        assert_eq!(slowest.len(), 2);
        assert!(slowest[0].dur_ns >= slowest[1].dur_ns);
    }

    #[test]
    fn unmatched_end_pair_is_a_noop() {
        let mut t = Tracer::new("basic");
        t.end_pair(0);
        t.end_pair_with(Outcome::RejectedStructural, 0);
        assert_eq!(t.pairs(), 0);
        assert_eq!(t.events().count(), 0);
    }

    #[test]
    fn node_names_fall_back_to_ids() {
        let mut t = Tracer::new("ext");
        assert_eq!(t.node_name(7), "#7");
        t.set_node_names(vec!["a".into(), String::new(), "c".into()]);
        assert_eq!(t.node_name(0), "a");
        assert_eq!(t.node_name(1), "#1", "empty name falls back");
        assert_eq!(t.node_name(2), "c");
        assert_eq!(t.node_name(9), "#9");
    }
}
