//! Resolved metric instruments for the engine.
//!
//! [`EngineMetrics`] is the engine-side counterpart of the guard's and
//! sim filter's attachments: every instrument is resolved once when a
//! [`MetricsHandle`] is attached (see `SubstEngine::attach_metrics`),
//! so the sweep hot path only ever touches atomics.
//!
//! Two update disciplines coexist:
//!
//! - **hot**: pair counts, acceptances, gain and the pair-latency
//!   histogram are bumped inline (one relaxed atomic op each) so the
//!   heartbeat sees live progress;
//! - **synced**: per-stage nanosecond attribution and the sim funnel
//!   are folded in from [`SubstStats`] deltas once per pass via
//!   [`EngineMetrics::sync`] — zero added cost on the per-pair path.

use boolsubst_metrics::{Counter, Gauge, Histogram, MetricsHandle};

use crate::subst::SubstStats;

/// The engine's resolved instrument bundle; see the module docs.
#[derive(Debug)]
pub(crate) struct EngineMetrics {
    pub(crate) pairs: Counter,
    pub(crate) accepts: Counter,
    pub(crate) literal_gain: Gauge,
    pub(crate) passes: Counter,
    pub(crate) pair_ns: Histogram,
    pub(crate) targets_total: Gauge,
    pub(crate) targets_done: Gauge,
    pub(crate) nodes: Gauge,
    pub(crate) peak_nodes: Gauge,
    stage_enumerate_ns: Counter,
    stage_filter_ns: Counter,
    stage_sim_ns: Counter,
    stage_divide_ns: Counter,
    stage_apply_ns: Counter,
    rar_checks: Counter,
    discovery_proposed: Counter,
    discovery_bucket_hits: Counter,
    discovery_proofs_run: Counter,
    discovery_accepted: Counter,
    sim_screened: Counter,
    sim_refuted: Counter,
    sim_false_passes: Counter,
    quarantined: Gauge,
    engine_faults: Gauge,
    shadow_cache_hits: Counter,
    shadow_cache_misses: Counter,
    guard_fallbacks: Counter,
    last: SubstStats,
}

impl EngineMetrics {
    /// Resolves every engine instrument against `handle`.
    pub(crate) fn resolve(handle: &MetricsHandle) -> EngineMetrics {
        EngineMetrics {
            pairs: handle.counter("engine.pairs"),
            accepts: handle.counter("engine.accepts"),
            literal_gain: handle.gauge("engine.literal_gain"),
            passes: handle.counter("engine.passes"),
            pair_ns: handle.histogram("engine.pair_ns"),
            targets_total: handle.gauge("engine.targets_total"),
            targets_done: handle.gauge("engine.targets_done"),
            nodes: handle.gauge("engine.nodes"),
            peak_nodes: handle.gauge("engine.peak_nodes"),
            stage_enumerate_ns: handle.counter("engine.stage.enumerate_ns"),
            stage_filter_ns: handle.counter("engine.stage.filter_ns"),
            stage_sim_ns: handle.counter("engine.stage.sim_ns"),
            stage_divide_ns: handle.counter("engine.stage.divide_ns"),
            stage_apply_ns: handle.counter("engine.stage.apply_ns"),
            rar_checks: handle.counter("engine.rar_checks"),
            discovery_proposed: handle.counter("discovery.proposed"),
            discovery_bucket_hits: handle.counter("discovery.bucket_hits"),
            discovery_proofs_run: handle.counter("discovery.proofs_run"),
            discovery_accepted: handle.counter("discovery.accepted"),
            sim_screened: handle.counter("sim.pairs_screened"),
            sim_refuted: handle.counter("sim.pairs_refuted"),
            sim_false_passes: handle.counter("sim.false_passes"),
            quarantined: handle.gauge("engine.quarantined"),
            engine_faults: handle.gauge("engine.faults"),
            shadow_cache_hits: handle.counter("engine.shadow_cache_hits"),
            shadow_cache_misses: handle.counter("engine.shadow_cache_misses"),
            guard_fallbacks: handle.counter("guard.fallbacks"),
            last: SubstStats::default(),
        }
    }

    /// Folds the growth of `stats` since the previous sync into the
    /// delta-based instruments (per-pass cadence; see module docs).
    pub(crate) fn sync(&mut self, stats: &SubstStats) {
        let du = |new: usize, old: usize| u64::try_from(new.saturating_sub(old)).unwrap_or(0);
        self.stage_enumerate_ns.add(
            stats
                .enumerate_nanos
                .saturating_sub(self.last.enumerate_nanos),
        );
        self.stage_filter_ns
            .add(stats.filter_nanos.saturating_sub(self.last.filter_nanos));
        self.stage_sim_ns
            .add(stats.sim_nanos.saturating_sub(self.last.sim_nanos));
        self.stage_divide_ns
            .add(stats.divide_nanos.saturating_sub(self.last.divide_nanos));
        self.stage_apply_ns
            .add(stats.apply_nanos.saturating_sub(self.last.apply_nanos));
        self.rar_checks
            .add(du(stats.rar_checks, self.last.rar_checks));
        self.discovery_proposed
            .add(du(stats.discovery_proposed, self.last.discovery_proposed));
        self.discovery_bucket_hits.add(du(
            stats.discovery_bucket_hits,
            self.last.discovery_bucket_hits,
        ));
        self.discovery_proofs_run.add(du(
            stats.discovery_proofs_run,
            self.last.discovery_proofs_run,
        ));
        self.discovery_accepted
            .add(du(stats.discovery_accepted, self.last.discovery_accepted));
        self.sim_screened
            .add(du(stats.sim_pairs_screened, self.last.sim_pairs_screened));
        self.sim_refuted
            .add(du(stats.sim_pairs_refuted, self.last.sim_pairs_refuted));
        self.sim_false_passes
            .add(du(stats.sim_false_passes, self.last.sim_false_passes));
        self.shadow_cache_hits
            .add(du(stats.shadow_cache_hits, self.last.shadow_cache_hits));
        self.shadow_cache_misses
            .add(du(stats.shadow_cache_misses, self.last.shadow_cache_misses));
        self.guard_fallbacks
            .add(du(stats.guard_fallbacks, self.last.guard_fallbacks));
        self.quarantined
            .set(i64::try_from(stats.quarantined).unwrap_or(i64::MAX));
        self.engine_faults
            .set(i64::try_from(stats.engine_faults).unwrap_or(i64::MAX));
        self.last = *stats;
    }
}
