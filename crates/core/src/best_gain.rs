//! Best-gain acceptance: dry-run every candidate, then commit the best.
//!
//! Under [`Acceptance::BestGain`](crate::Acceptance::BestGain) a target
//! visit is one round:
//!
//! 1. discover the candidates and keep those sharing a fanin with the
//!    target;
//! 2. ready the read-only state the dry runs share: flush the sim filter
//!    (a [`SimView`] refuses pending patterns), prepare the target's TFO
//!    slot and, in GDC mode, the target's shadow snapshot;
//! 3. dry-run each candidate through [`filter_pair`] and
//!    [`plan_pair_core`] against the unchanged network — no mutation, no
//!    trace span, no stat bookkeeping except faults. A dry run that
//!    panics is caught, booked as an engine fault and quarantined;
//!    quarantined pairs never win;
//! 4. apply the lowest-index maximum gain through the live
//!    [`SubstEngine::attempt`], which re-runs the pair with the ordinary
//!    txn, guard and side-table patching.
//!
//! The deadline is checked before the dry runs and again before the
//! commit.

use crate::engine::{id32, SubstEngine};
use crate::subst::{filter_pair, plan_pair_core, SubstMode, SubstStats};
use boolsubst_network::{Network, NodeId};
use boolsubst_sim::SimView;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How one dry run ended.
enum DryRun {
    /// A division strategy produced a plan with this (positive) gain.
    Gain(i64),
    /// The pair is quarantined, a filter rejected it, or no strategy
    /// gained.
    Reject,
    /// The evaluation panicked; the pair must be quarantined.
    Fault,
}

impl SubstEngine<'_> {
    /// Evaluates one (target, divisor) pair read-only against the current
    /// network, with the filter chain of [`SubstEngine::attempt`]. The
    /// stat delta is discarded. Always panic-isolated.
    fn dry_run(&self, target: NodeId, divisor: NodeId) -> DryRun {
        if self.quarantine.contains(&(target, divisor)) {
            return DryRun::Reject;
        }
        let net: &Network = self.net;
        let mut scratch = SubstStats::default();
        let Ok(space) = filter_pair(net, target, divisor, &self.opts, &mut scratch, || {
            self.side.in_tfo(net, divisor, target)
        }) else {
            return DryRun::Reject;
        };
        let sim = self.sim.as_ref().map(SimView::freeze);
        let planned = catch_unwind(AssertUnwindSafe(|| {
            plan_pair_core(
                net,
                target,
                divisor,
                &space,
                &self.opts,
                &mut scratch,
                self.shadow.as_ref().map(|e| &e.base),
                sim.map(|v| v.filter()),
                None,
            )
        }));
        match planned {
            Ok(Some(plan)) => DryRun::Gain(plan.gain()),
            Ok(None) => DryRun::Reject,
            Err(_) => DryRun::Fault,
        }
    }

    /// The best-gain visit: dry-run every candidate (see the module
    /// docs), then apply the lowest-index maximum gain for real.
    pub(crate) fn best_gain(&mut self, target: NodeId) {
        let bound = self.net.id_bound();
        let mut cands = self.discover(target, bound, None);
        // Cheap relevance filter: only divisors sharing a fanin with the
        // target are worth a dry run.
        let net: &Network = self.net;
        let t_fanins = net.node(target).fanins();
        cands.retain(|&d| net.node(d).fanins().iter().any(|f| t_fanins.contains(f)));
        if cands.is_empty() || self.deadline_expired() {
            return;
        }
        self.flush_sim();
        self.side.tfo(self.net, target);
        // A shadow built here counts as a cache miss only if the winner's
        // live attempt below consumes it; an unconsumed build stays
        // uncounted.
        let pending_build = (self.opts.mode == SubstMode::ExtendedGdc
            && !self.shadow_fresh(target))
        .then(|| self.build_shadow(target));
        let mut best: Option<(NodeId, i64)> = None;
        for divisor in cands {
            match self.dry_run(target, divisor) {
                DryRun::Fault => {
                    self.stats.engine_faults += 1;
                    self.quarantine_pair(target, divisor);
                }
                DryRun::Gain(gain) if best.is_none_or(|(_, g)| gain > g) => {
                    best = Some((divisor, gain));
                }
                _ => {}
            }
        }
        let Some((divisor, _)) = best else {
            return;
        };
        if self.deadline_expired() {
            return;
        }
        if let Some(ns) = pending_build {
            if let Some(t) = self.tracer.as_deref_mut() {
                t.shadow_build(id32(target), ns);
            }
        }
        self.attempt(target, divisor);
        if pending_build.is_some() {
            // `attempt` found the shadow warm and booked a hit; book the
            // build as the miss it was.
            self.stats.shadow_cache_hits -= 1;
            self.stats.shadow_cache_misses += 1;
        }
    }
}
