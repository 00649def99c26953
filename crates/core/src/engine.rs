//! The incremental substitution engine: a persistent sweep session over
//! maintained state instead of per-pair recomputation.
//!
//! A naive sweep answers every structural question from scratch: each
//! (target, divisor) pair recomputes the target's transitive fanout (a
//! full-graph traversal), every target enumerates *all* internal nodes as
//! divisor candidates, and the GDC mode re-materializes the entire network
//! as a gate circuit per pair. All of that is loop-invariant or nearly
//! so, which makes the sweep quadratic in practice.
//!
//! [`SubstEngine`] keeps session state instead:
//!
//! * a [`SideTables`] instance — incrementally maintained fanout lists and
//!   levels, patched locally after each accepted rewrite rather than
//!   recomputed per query, plus the visited target's transitive fanout,
//!   prepared once per target and shared read-only by every pair's cycle
//!   filter;
//! * a pluggable [`CandidateSource`] — by default the support-overlap
//!   index, whose only divisors worth trying are fanouts of the target's
//!   fanins, so candidate enumeration is proportional to the local fanout
//!   neighbourhood, not the network;
//! * a per-target **shadow circuit** ([`ShadowBase`]) for the GDC mode —
//!   the network minus the target's cone is materialized once per target
//!   and each attempt patches only the dirty region;
//! * stage-level [`SubstStats`] observability.
//!
//! Targets are visited largest cover first; after an acceptance the
//! candidate set is re-enumerated from the target's *new* fanins,
//! resuming past the accepted divisor. The accepted rewrites of every
//! configuration are pinned absolutely — counters, final literals and
//! output hash — by the golden quality table (`tests/golden_quality.txt`).

use crate::candidates::{build_source, CandidateSource, SourceCtx};
use crate::metrics::EngineMetrics;
use crate::netcircuit::ShadowBase;
use crate::subst::{
    filter_pair, try_pair_core, Acceptance, Discovery, SubstMode, SubstOptions, SubstStats,
};
use crate::txn::TxnSnapshot;
use boolsubst_cube::Cover;
use boolsubst_guard::{Guard, GuardDecision};
use boolsubst_metrics::MetricsHandle;
use boolsubst_network::{Network, NodeId, SideTables};
use boolsubst_sim::SimFilter;
use boolsubst_trace::{GuardTier, Outcome, Stage, Tracer};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

pub(crate) fn nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Node ids as the tracer's compact u32 representation.
pub(crate) fn id32(id: NodeId) -> u32 {
    u32::try_from(id.index()).unwrap_or(u32::MAX)
}

/// Window guard compare for local-function-preserving rewrites: runs
/// [`Guard::check_window`] on the local window of every node the rewrite
/// changed (`target` always; `divisor` too when an extended rewrite
/// re-expressed it). Returns the combined decision when every window
/// passes — the least exact of the individual verdicts, so a sampled
/// pass is never reported as a proof — or `None` when any window did
/// not pass or could not be built; the caller then falls back to the
/// whole-network compare.
fn window_checked(
    guard: &mut Guard,
    snap: &TxnSnapshot,
    post: &Network,
    target: NodeId,
    divisor: NodeId,
) -> Option<GuardDecision> {
    let mut decision: Option<GuardDecision> = None;
    for root in [target, divisor] {
        let node = post.node_opt(root)?;
        let changed = match snap.image_of(root) {
            Some((fanins, cover)) => fanins != node.fanins() || Some(cover) != node.cover(),
            None => false, // never captured: the attempt could not touch it
        };
        if !changed {
            continue; // plain substitution: the divisor is untouched
        }
        let (pre_w, post_w) = local_window(snap, post, root, divisor)?;
        let d = guard.check_window(&pre_w, &post_w);
        if !d.passed() {
            return None;
        }
        decision = Some(match decision {
            Some(prev) if !prev.exact() => prev,
            _ => d,
        });
    }
    decision
}

/// The local window of `root` as a (pre, post) pair of single-output
/// networks over the same ordered leaves.
///
/// The window nodes are `root`, `divisor` and every node the attempt
/// minted (`id ≥` [`TxnSnapshot::id_bound`]). The pre side expands them
/// through their snapshot images (minted nodes do not exist there), the
/// post side through their live definitions. Every other node either
/// side reaches is a *leaf*: an unchanged node, shared by both sides as
/// a free input, in id order. `None` when a definition or leaf cannot be
/// resolved (the caller falls back to the whole-network compare).
fn local_window(
    snap: &TxnSnapshot,
    post: &Network,
    root: NodeId,
    divisor: NodeId,
) -> Option<(Network, Network)> {
    let inside = |n: NodeId| n == root || n == divisor || n.index() >= snap.id_bound();
    let pre_def = |n: NodeId| if inside(n) { snap.image_of(n) } else { None };
    let post_def = |n: NodeId| {
        let node = post.node_opt(n).filter(|_| inside(n))?;
        Some((node.fanins(), node.cover()?))
    };
    let mut leaves = Vec::new();
    let pre_order = expand(root, &pre_def, &mut leaves);
    let post_order = expand(root, &post_def, &mut leaves);
    leaves.sort_unstable();
    leaves.dedup();
    let pre = side_network(post, "pre-window", &leaves, &pre_order, &pre_def)?;
    let post_w = side_network(post, "post-window", &leaves, &post_order, &post_def)?;
    Some((pre, post_w))
}

/// A node definition: fanins and cover.
type Def<'a> = Option<(&'a [NodeId], &'a Cover)>;

/// Walks `root`'s definitions under `def` (`None` marks a leaf): returns
/// the expanded nodes children first and appends the reached leaves to
/// `leaves`. Windows are a handful of nodes, so membership is a scan.
fn expand<'a>(
    root: NodeId,
    def: &impl Fn(NodeId) -> Def<'a>,
    leaves: &mut Vec<NodeId>,
) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = Vec::new();
    let mut stack = vec![(root, false)];
    while let Some((n, emit)) = stack.pop() {
        if emit {
            order.push(n);
            continue;
        }
        if order.contains(&n) || stack.contains(&(n, true)) {
            continue;
        }
        match def(n) {
            Some((fanins, _)) => {
                stack.push((n, true));
                stack.extend(fanins.iter().map(|&f| (f, false)));
            }
            None => leaves.push(n),
        }
    }
    order
}

/// Builds one side of a window: `leaves` become the primary inputs, the
/// expanded nodes are added in `order` under `def`, and the last of them
/// (the root) is the only output. Node names carry over from `net`.
fn side_network<'a>(
    net: &Network,
    label: &str,
    leaves: &[NodeId],
    order: &[NodeId],
    def: &impl Fn(NodeId) -> Def<'a>,
) -> Option<Network> {
    let mut side = Network::new(format!("{}:{label}", net.name()));
    let mut map: HashMap<NodeId, NodeId> = HashMap::with_capacity(leaves.len() + order.len());
    for &leaf in leaves {
        map.insert(leaf, side.add_input(net.node_opt(leaf)?.name()).ok()?);
    }
    for &n in order {
        let (fanins, cover) = def(n)?;
        let mapped = fanins
            .iter()
            .map(|f| map.get(f).copied())
            .collect::<Option<Vec<_>>>()?;
        let id = side
            .add_node(net.node(n).name(), mapped, cover.clone())
            .ok()?;
        map.insert(n, id);
    }
    let &root = order.last()?;
    side.add_output(net.node(root).name(), map[&root]).ok()?;
    Some(side)
}

/// Display names for every live node, indexed by raw slot id.
fn node_names(net: &Network) -> Vec<String> {
    let mut names = vec![String::new(); net.id_bound()];
    for id in net.node_ids() {
        names[id.index()] = net.node(id).name().to_string();
    }
    names
}

/// The cached per-target GDC snapshot, tagged with the network version it
/// is valid for.
pub(crate) struct ShadowEntry {
    target: NodeId,
    version: u64,
    pub(crate) base: ShadowBase,
}

/// A persistent Boolean-substitution session over one network.
///
/// Construct once, then [`run`](SubstEngine::run) the sweep; the side
/// tables, candidate index, and shadow circuits live for the whole session
/// and are patched across passes instead of rebuilt.
pub struct SubstEngine<'a> {
    pub(crate) net: &'a mut Network,
    pub(crate) opts: SubstOptions,
    pub(crate) side: SideTables,
    pub(crate) stats: SubstStats,
    pub(crate) shadow: Option<ShadowEntry>,
    /// Simulation-signature pre-filter (built when `opts.sim.enabled`);
    /// patched alongside the side tables after every acceptance.
    pub(crate) sim: Option<SimFilter>,
    /// Structured trace recorder; `None` unless attached via
    /// [`SubstEngine::with_tracer`]. The disabled path does no trace work
    /// beyond these `Option` checks, and attaching a tracer never changes
    /// the accepted rewrites.
    pub(crate) tracer: Option<&'a mut Tracer>,
    /// Post-apply equivalence guard (built when `opts.checked`). A
    /// rewrite the guard refutes is rolled back via [`TxnSnapshot`] and
    /// the pair quarantined; a healthy engine never trips it, so the
    /// checked sweep stays bit-identical to the unchecked one.
    pub(crate) guard: Option<Guard>,
    /// Pairs whose rewrites were refuted or whose attempts faulted; never
    /// retried for the rest of the session.
    pub(crate) quarantine: HashSet<(NodeId, NodeId)>,
    /// Resolved metric instruments; `None` unless attached via
    /// [`SubstEngine::attach_metrics`]. Like the tracer, the detached
    /// path does nothing beyond these `Option` checks and an attached
    /// handle never changes the accepted rewrites.
    pub(crate) metrics: Option<EngineMetrics>,
    /// The divisor-discovery strategy, resolved from
    /// [`SubstOptions::discovery`] at session start (the resolved choice
    /// is in `stats.discovery`). All candidate enumeration goes through
    /// this source; it is notified after every commit so incremental
    /// indexes stay synchronised.
    pub(crate) source: Box<dyn CandidateSource>,
}

/// [`Discovery::Auto`] switches to signature discovery at this many
/// internal nodes — below it the quadratic overlap index is cheap enough
/// and bit-identical to the paper's sweep.
const AUTO_SIGNATURE_NODES: usize = 10_000;

impl<'a> SubstEngine<'a> {
    /// Opens a session: builds the structural side tables for the
    /// network's current state.
    pub fn new(net: &'a mut Network, opts: SubstOptions) -> SubstEngine<'a> {
        let mut opts = opts;
        // Callers who set `deadline` directly (rather than through
        // `with_deadline`) still get the deadline-aware tier C budget.
        if opts.guard.deadline.is_none() {
            opts.guard.deadline = opts.deadline;
        }
        let side = SideTables::build(net);
        let mut stats = SubstStats::default();
        let t0 = Instant::now();
        let sim = opts.sim.enabled.then(|| SimFilter::new(net, &opts.sim));
        if sim.is_some() {
            stats.sim_nanos += nanos(t0);
        }
        let guard = opts.checked.then(|| Guard::new(opts.guard));
        // Resolve the discovery strategy once per session: signature-class
        // discovery keys off the sim filter's signatures, so without a
        // filter it degrades to the overlap index, and `Auto` only pays
        // for bucket maintenance where the quadratic enumeration hurts.
        let discovery = match opts.discovery {
            Discovery::Overlap => Discovery::Overlap,
            Discovery::Signature if sim.is_some() => Discovery::Signature,
            Discovery::Signature => Discovery::Overlap,
            Discovery::Auto => {
                if sim.is_some() && net.internal_ids().count() >= AUTO_SIGNATURE_NODES {
                    Discovery::Signature
                } else {
                    Discovery::Overlap
                }
            }
        };
        stats.discovery = discovery;
        SubstEngine {
            net,
            opts,
            side,
            stats,
            shadow: None,
            sim,
            tracer: None,
            guard,
            quarantine: HashSet::new(),
            metrics: None,
            source: build_source(discovery),
        }
    }

    /// Opens a session with a trace recorder attached: every pair
    /// attempt, pass, shadow build, and sim refinement is recorded on
    /// `tracer`, labelled with the network's node names.
    pub fn with_tracer(
        net: &'a mut Network,
        opts: SubstOptions,
        tracer: &'a mut Tracer,
    ) -> SubstEngine<'a> {
        let mut engine = SubstEngine::new(net, opts);
        tracer.set_node_names(node_names(engine.net));
        tracer.set_discovery(engine.stats.discovery.name());
        if engine.stats.sim_nanos > 0 {
            // The sim filter was built before the tracer attached; book
            // it so the trace's stage totals match the stats.
            tracer.stage(Stage::Sim, engine.stats.sim_nanos);
        }
        engine.tracer = Some(tracer);
        engine
    }

    /// Attaches a metrics registry: resolves every engine instrument and
    /// forwards the handle to the guard and sim filter so their tier and
    /// funnel counters land in the same registry. Attachment never
    /// changes the accepted rewrites (pinned by
    /// `metrics_attachment_is_invisible`).
    pub fn attach_metrics(&mut self, handle: &MetricsHandle) {
        let metrics = EngineMetrics::resolve(handle);
        let nodes = i64::try_from(self.net.node_ids().count()).unwrap_or(i64::MAX);
        metrics.nodes.set(nodes);
        metrics.peak_nodes.max(nodes);
        if let Some(guard) = self.guard.as_mut() {
            guard.attach_metrics(handle);
        }
        if let Some(sim) = self.sim.as_mut() {
            sim.attach_metrics(handle);
        }
        self.metrics = Some(metrics);
    }

    /// Replaces the checked-mode guard with one carried over from an
    /// earlier run, preserving its lazily-built pattern pools and learned
    /// SAT cost model across jobs. The guard adopts this engine's
    /// [`SubstOptions::guard`] config first (dropping stale-shaped pools
    /// if the pool tunables differ). No-op when the engine is unchecked —
    /// an unchecked run has no guard to reuse.
    pub fn install_guard(&mut self, mut guard: Guard) {
        if self.opts.checked {
            guard.adopt_config(self.opts.guard);
            self.guard = Some(guard);
        }
    }

    /// Takes the guard out of a finished checked engine so a caller can
    /// carry its warmed pools into the next run (see
    /// [`SubstEngine::install_guard`]). `None` for unchecked engines.
    pub fn take_guard(&mut self) -> Option<Guard> {
        self.guard.take()
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &SubstStats {
        &self.stats
    }

    /// Runs up to `opts.max_passes` sweeps, stopping early when a pass
    /// accepts nothing. Returns the accumulated statistics.
    pub fn run(&mut self) -> SubstStats {
        for _ in 0..self.opts.max_passes.get() {
            if self.deadline_expired() {
                break;
            }
            self.stats.passes += 1;
            let before = self.stats.substitutions;
            let gain_before = self.stats.literal_gain;
            if let Some(t) = self.tracer.as_deref_mut() {
                t.begin_pass(u32::try_from(self.stats.passes).unwrap_or(u32::MAX));
            }
            if let Some(m) = &self.metrics {
                m.passes.inc();
            }
            self.run_pass();
            if let Some(t) = self.tracer.as_deref_mut() {
                t.end_pass(
                    (self.stats.substitutions - before) as u64,
                    self.stats.literal_gain - gain_before,
                );
            }
            if let Some(m) = self.metrics.as_mut() {
                let stats = self.stats;
                m.sync(&stats);
            }
            if self.stats.substitutions == before {
                break;
            }
        }
        if let Some(sim) = &self.sim {
            self.stats.sim_patterns = sim.patterns();
            self.stats.sim_words = sim.words();
            self.stats.sim_refinements = sim.refinements();
        }
        if let Some(t) = self.tracer.as_deref_mut() {
            // Extended rewrites mint fresh core nodes mid-run; refresh the
            // name table so exported spans label them properly.
            t.set_node_names(node_names(self.net));
        }
        if let Some(m) = self.metrics.as_mut() {
            let stats = self.stats;
            m.sync(&stats);
        }
        self.stats
    }

    /// One sweep over all targets, largest cover first.
    fn run_pass(&mut self) {
        let t0 = Instant::now();
        let mut targets: Vec<NodeId> = self.net.internal_ids().collect();
        targets.sort_by_key(|&id| {
            std::cmp::Reverse(self.net.node(id).cover().map_or(0, Cover::literal_count))
        });
        let dt = nanos(t0);
        self.stats.enumerate_nanos += dt;
        if let Some(t) = self.tracer.as_deref_mut() {
            t.stage(Stage::Enumerate, dt);
        }
        if let Some(m) = &self.metrics {
            m.targets_total
                .set(i64::try_from(targets.len()).unwrap_or(i64::MAX));
            m.targets_done.set(0);
        }
        for target in targets {
            if self.deadline_expired() {
                return;
            }
            if self.net.node_opt(target).is_none() {
                if let Some(m) = &self.metrics {
                    m.targets_done.add(1);
                }
                continue;
            }
            self.visit_target(target);
            if let Some(m) = &self.metrics {
                m.targets_done.add(1);
            }
        }
    }

    /// True (and latches `stats.interrupted`) once the wall-clock
    /// deadline has passed. The sweep only consults this between pair
    /// attempts, so an expiring deadline always leaves a valid network —
    /// just one with fewer rewrites applied.
    pub(crate) fn deadline_expired(&mut self) -> bool {
        if self.stats.interrupted {
            return true;
        }
        if self.opts.deadline.is_some_and(|d| Instant::now() >= d) {
            self.stats.interrupted = true;
        }
        self.stats.interrupted
    }

    /// Adds a pair to the quarantine set (once), counting it in stats.
    pub(crate) fn quarantine_pair(&mut self, target: NodeId, divisor: NodeId) {
        if self.quarantine.insert((target, divisor)) {
            self.stats.quarantined += 1;
        }
    }

    /// Rolls the live network back to `snap` and restores the acceptance
    /// counters captured before the attempt (`stats0`); work counters
    /// (divisions tried, filter tallies, timings) are kept, since that
    /// work really happened.
    fn recover(&mut self, snap: &TxnSnapshot, stats0: &SubstStats) {
        // Rollback only replays covers captured from live nodes and
        // deletes nodes minted after the snapshot; the sweep never
        // deletes pre-existing nodes, so this cannot fail in practice.
        let rolled = snap.rollback(self.net);
        debug_assert!(rolled.is_ok(), "rollback failed: {rolled:?}");
        self.stats.substitutions = stats0.substitutions;
        self.stats.pos_substitutions = stats0.pos_substitutions;
        self.stats.extended_decompositions = stats0.extended_decompositions;
        self.stats.literal_gain = stats0.literal_gain;
    }

    /// Asks the guard whether the rewrite journaled by `snap` preserved
    /// every primary-output function. Records the verdict (and which tier
    /// produced it) in the stats block and on the tracer. `None` means
    /// no guard is installed (unchecked run): the rewrite stands on the
    /// division proof alone.
    ///
    /// Outside GDC mode every division strategy is pure cover algebra
    /// over the joint space of target and divisor, so the guard first
    /// checks each changed node's *local window* (see `local_window`):
    /// its snapshot image against its live definition, both expanded
    /// through the window nodes (target, divisor, minted nodes) down to
    /// the unchanged leaves, which stay free variables. Agreement there
    /// is sound: by induction over the post network's topological order,
    /// every leaf keeps its global function, so every changed node does
    /// too, and so does every node past them. It is also complete for a
    /// healthy engine, since the window *is* the joint space the division
    /// reasoned over. A window that does not pass falls back to the
    /// whole-network compare (pre-state rebuilt by rolling a clone of the
    /// post state back) and is counted in `stats.guard_fallbacks`:
    /// circuit-level observability may still save a rewrite the window
    /// refutes, so verdicts are exactly those of the whole-network
    /// compare. GDC rewrites exploit observability across the whole
    /// circuit by design, so they always take the full compare.
    fn guard_verdict(
        &mut self,
        snap: &TxnSnapshot,
        target: NodeId,
        divisor: NodeId,
    ) -> Option<GuardDecision> {
        let guard = self.guard.as_mut()?;
        let t0 = Instant::now();
        let sat_runs0 = guard.sat_runs();
        let gdc = self.opts.mode == SubstMode::ExtendedGdc;
        let window_pass = if gdc {
            None
        } else {
            window_checked(guard, snap, self.net, target, divisor)
        };
        let decision = match window_pass {
            Some(d) => d,
            None => {
                if !gdc {
                    self.stats.guard_fallbacks += 1;
                }
                // Whole-network compare: reconstruct the pre-state
                // (rollback applied to a clone of the post state).
                let mut pre = self.net.clone();
                if snap.rollback(&mut pre).is_err() {
                    // No pre-state to compare against: reject conservatively.
                    return Some(GuardDecision::RefutedSim {
                        output: "<pre-state reconstruction failed>".to_string(),
                    });
                }
                guard.check(&pre, self.net)
            }
        };
        self.stats.guard_sat_runs += usize::try_from(guard.sat_runs() - sat_runs0).unwrap_or(0);
        if decision == GuardDecision::PassSampled {
            self.stats.guard_pass_sampled += 1;
        }
        if let Some(t) = self.tracer.as_deref_mut() {
            let tier = GuardTier::from_name(decision.tier_name()).unwrap_or(GuardTier::Sampled);
            t.guard_check(
                id32(target),
                id32(divisor),
                tier,
                decision.passed(),
                decision.exact(),
                nanos(t0),
            );
        }
        Some(decision)
    }

    /// Folds pending refinement patterns into the sim signatures (a
    /// no-op when nothing is pending), booking the sim stage time.
    pub(crate) fn flush_sim(&mut self) {
        if let Some(sim) = self.sim.as_mut() {
            let ts = Instant::now();
            sim.flush(self.net);
            let dts = nanos(ts);
            self.stats.sim_nanos += dts;
            if let Some(t) = self.tracer.as_deref_mut() {
                t.stage(Stage::Sim, dts);
            }
        }
    }

    /// One candidate enumeration through the configured
    /// [`CandidateSource`]: flushes the sim filter first when signature
    /// discovery needs current bucket keys, books the per-source funnel
    /// counters (`discovery_proposed`, `discovery_bucket_hits`,
    /// `filtered_by_index`) and the enumerate stage time.
    pub(crate) fn discover(
        &mut self,
        target: NodeId,
        bound: usize,
        cursor: Option<NodeId>,
    ) -> Vec<NodeId> {
        if self.stats.discovery == Discovery::Signature {
            // Bucket keys must never bake in half-simulated tail words.
            self.flush_sim();
        }
        let t0 = Instant::now();
        let (cands, bucket_hits, skipped) = {
            let ctx = SourceCtx {
                net: &*self.net,
                side: &self.side,
                sim: self.sim.as_ref(),
            };
            let iter = self.source.candidates(&ctx, target, bound, cursor);
            let bucket_hits = iter.bucket_hits();
            let cands = iter.into_vec();
            let skipped = self.source.skipped(&ctx, cands.len(), bound, cursor);
            (cands, bucket_hits, skipped)
        };
        self.stats.discovery_proposed += cands.len();
        self.stats.discovery_bucket_hits += bucket_hits;
        self.stats.filtered_by_index += skipped;
        let dt = nanos(t0);
        self.stats.enumerate_nanos += dt;
        if let Some(t) = self.tracer.as_deref_mut() {
            t.stage(Stage::Enumerate, dt);
        }
        cands
    }

    fn visit_target(&mut self, target: NodeId) {
        match self.opts.acceptance {
            // Read-only dry runs, then one live commit; see
            // `crate::best_gain`.
            Acceptance::BestGain => self.best_gain(target),
            Acceptance::FirstGain => {
                let bound = self.net.id_bound();
                let mut cursor: Option<NodeId> = None;
                'resume: loop {
                    let cands = self.discover(target, bound, cursor);
                    for divisor in cands {
                        if self.deadline_expired() {
                            return;
                        }
                        let before = self.stats.substitutions;
                        self.attempt(target, divisor);
                        if self.stats.substitutions != before {
                            // The target's fanins changed: re-enumerate
                            // candidates and resume past this divisor.
                            cursor = Some(divisor);
                            continue 'resume;
                        }
                    }
                    break;
                }
            }
        }
    }

    /// True when the cached shadow snapshot is for `target` at the current
    /// network version.
    pub(crate) fn shadow_fresh(&self, target: NodeId) -> bool {
        self.shadow
            .as_ref()
            .is_some_and(|e| e.target == target && e.version == self.net.version())
    }

    /// Builds the per-target shadow snapshot from the target's prepared
    /// TFO slot; returns the build time.
    pub(crate) fn build_shadow(&mut self, target: NodeId) -> u64 {
        let t0 = Instant::now();
        let tfo = self.side.tfo(self.net, target);
        let base = ShadowBase::prepare(self.net, target, tfo);
        self.shadow = Some(ShadowEntry {
            target,
            version: self.net.version(),
            base,
        });
        nanos(t0)
    }

    /// Rebuilds the per-target shadow snapshot if the cached one is for a
    /// different target or a stale network version.
    fn ensure_shadow(&mut self, target: NodeId) {
        if self.shadow_fresh(target) {
            self.stats.shadow_cache_hits += 1;
            return;
        }
        let ns = self.build_shadow(target);
        self.stats.shadow_cache_misses += 1;
        if let Some(t) = self.tracer.as_deref_mut() {
            t.shadow_build(id32(target), ns);
        }
    }

    /// One engine-side pair attempt: cached filters, then the shared
    /// division core, then local side-table patching on acceptance.
    /// Books a filter reject: counts the stage time and, when tracing,
    /// closes the open pair span with the reject outcome.
    fn filter_reject(&mut self, t0: Instant, outcome: Outcome) {
        let dt = nanos(t0);
        self.stats.filter_nanos += dt;
        if let Some(t) = self.tracer.as_deref_mut() {
            t.stage(Stage::Filter, dt);
            t.end_pair_with(outcome, 0);
        }
        if let Some(m) = &self.metrics {
            m.pair_ns.observe(dt);
        }
    }

    pub(crate) fn attempt(&mut self, target: NodeId, divisor: NodeId) -> Option<i64> {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.begin_pair(id32(target), id32(divisor));
        }
        if let Some(m) = &self.metrics {
            m.pairs.inc();
        }
        let t0 = Instant::now();
        self.stats.candidates_enumerated += 1;
        if self.quarantine.contains(&(target, divisor)) {
            self.filter_reject(t0, Outcome::GuardRejected);
            return None;
        }
        // Every pair of the visit asks about the same target: prepare its
        // TFO once (a no-op while the slot still holds it).
        self.side.tfo(self.net, target);
        let (net, side) = (&*self.net, &self.side);
        let filtered = filter_pair(net, target, divisor, &self.opts, &mut self.stats, || {
            side.in_tfo(net, divisor, target)
        });
        let space = match filtered {
            Ok(space) => space,
            Err(outcome) => {
                self.filter_reject(t0, outcome);
                return None;
            }
        };
        let dt = nanos(t0);
        self.stats.filter_nanos += dt;
        if let Some(t) = self.tracer.as_deref_mut() {
            t.stage(Stage::Filter, dt);
        }

        if self.opts.mode == SubstMode::ExtendedGdc {
            self.ensure_shadow(target);
        }
        let mut sim_fault = false;
        if let Some(sim) = self.sim.as_mut() {
            // Fold any patterns harvested by earlier refinements into the
            // signatures before they are screened against.
            let ts = Instant::now();
            sim.flush(self.net);
            if self.opts.checked {
                #[cfg(feature = "chaos")]
                if let Some(r) = crate::chaos::should_poison_signature() {
                    sim.chaos_poison_signature(target, usize::try_from(r).unwrap_or(0));
                }
                // Integrity audit: recompute this pair's signature rows
                // from their fanins and compare against the cache. A
                // mismatch means the incremental patching went wrong
                // somewhere — repair by rebuilding from scratch.
                if !sim.audit(self.net, &[target, divisor]) {
                    sim.rebuild(self.net);
                    sim_fault = true;
                }
            }
            let dts = nanos(ts);
            self.stats.sim_nanos += dts;
            if let Some(t) = self.tracer.as_deref_mut() {
                t.stage(Stage::Sim, dts);
            }
        }
        if sim_fault {
            self.stats.engine_faults += 1;
            self.quarantine_pair(target, divisor);
            if let Some(t) = self.tracer.as_deref_mut() {
                t.end_pair_with(Outcome::EngineFault, 0);
            }
            return None;
        }
        // The pair survived every cheap filter: the division proof runs.
        self.stats.discovery_proofs_run += 1;
        let t1 = Instant::now();
        let v0 = self.net.version();
        let old_tgt = self.net.node(target).fanins().to_vec();
        let old_div = self.net.node(divisor).fanins().to_vec();
        let old_bound = self.net.id_bound();
        let false_passes0 = self.stats.sim_false_passes;
        let sim_nanos0 = self.stats.sim_nanos;
        let rar_checks0 = self.stats.rar_checks;
        // Checked mode snapshots the minimal pre-state (the two covers
        // this pair can rewrite plus the id bound for minted nodes) so a
        // faulting or guard-refuted attempt can be undone in O(changed).
        let snap = self
            .opts
            .checked
            .then(|| TxnSnapshot::capture(self.net, &[target, divisor]));
        let stats0 = self.stats;
        let mut verdict: Option<Outcome> = None;
        let mut result = {
            let mut core = || {
                try_pair_core(
                    &mut *self.net,
                    target,
                    divisor,
                    &space,
                    &self.opts,
                    &mut self.stats,
                    self.shadow.as_ref().map(|e| &e.base),
                    self.sim.as_ref(),
                    self.tracer.as_deref_mut(),
                )
            };
            if snap.is_some() {
                match catch_unwind(AssertUnwindSafe(core)) {
                    Ok(r) => r,
                    Err(_) => {
                        verdict = Some(Outcome::EngineFault);
                        None
                    }
                }
            } else {
                core()
            }
        };
        if let Some(snap) = &snap {
            if verdict == Some(Outcome::EngineFault) {
                // A panic escaped the division core, possibly mid-rewrite:
                // restore the pre-state and never retry the pair.
                self.recover(snap, &stats0);
                self.stats.engine_faults += 1;
                self.quarantine_pair(target, divisor);
            } else if result.is_some() {
                match self.guard_verdict(snap, target, divisor) {
                    Some(GuardDecision::OutOfTime) => {
                        // The remaining deadline window cannot afford an
                        // exact verdict: undo the unproven rewrite and
                        // latch the interrupt. The pair is innocent (no
                        // quarantine, no rejection count) — the clock ran
                        // out, and the sweep exits with a verified
                        // partial result as if the deadline had expired
                        // between attempts.
                        self.recover(snap, &stats0);
                        self.stats.interrupted = true;
                        verdict = Some(Outcome::GuardRejected);
                        result = None;
                    }
                    Some(decision) if !decision.passed() => {
                        // The rewrite changed a primary-output function:
                        // undo it and quarantine the pair, then keep
                        // sweeping.
                        self.recover(snap, &stats0);
                        self.stats.guard_rejections += 1;
                        self.quarantine_pair(target, divisor);
                        verdict = Some(Outcome::GuardRejected);
                        result = None;
                    }
                    _ => {}
                }
            }
        }
        // The core's screen time already landed in `sim_nanos`; only the
        // remainder is division proper, in the stats and the trace alike.
        let sim_delta = self.stats.sim_nanos - sim_nanos0;
        let divide_ns = nanos(t1).saturating_sub(sim_delta);
        self.stats.divide_nanos += divide_ns;
        if let Some(t) = self.tracer.as_deref_mut() {
            t.stage(Stage::Sim, sim_delta);
            t.stage(Stage::Divide, divide_ns);
            t.set_rar_checks((self.stats.rar_checks - rar_checks0) as u64);
        }

        if result.is_none() && self.stats.sim_false_passes > false_passes0 {
            // Counterexample-guided refinement: the screen passed a pair
            // the proofs rejected — try to harvest a distinguishing
            // pattern so similar pairs are refuted without proof work.
            if let Some(sim) = self.sim.as_mut() {
                let ts = Instant::now();
                let refinements0 = sim.refinements();
                sim.refine_from_false_pass(self.net, target, divisor);
                let dts = nanos(ts);
                self.stats.sim_nanos += dts;
                let grew = sim.refinements() > refinements0;
                if let Some(t) = self.tracer.as_deref_mut() {
                    t.stage(Stage::Sim, dts);
                    t.sim_refine(id32(target), id32(divisor), grew, dts);
                }
            }
        }

        if self.net.version() != v0 {
            let t2 = Instant::now();
            self.side.sync_new_nodes(self.net);
            let div_changed = self.net.node(divisor).fanins() != old_div.as_slice();
            if div_changed {
                self.side.apply_replace(self.net, divisor, &old_div);
            }
            self.side.apply_replace(self.net, target, &old_tgt);
            if div_changed || self.net.id_bound() != old_bound {
                // Extended rewrite: snapshot nodes changed, drop the base.
                self.shadow = None;
            } else if let Some(e) = &mut self.shadow {
                // Target-only rewrite: the snapshot excludes the target,
                // so it is still exact — just retag its version.
                e.version = self.net.version();
            }
            let dt2 = nanos(t2);
            self.stats.apply_nanos += dt2;
            if let Some(t) = self.tracer.as_deref_mut() {
                t.stage(Stage::Apply, dt2);
            }
            let mut changed: Vec<NodeId> = Vec::new();
            if let Some(sim) = self.sim.as_mut() {
                let ts = Instant::now();
                changed = sim.patch(self.net, &self.side, &[target, divisor]);
                let dts = nanos(ts);
                self.stats.sim_nanos += dts;
                if let Some(t) = self.tracer.as_deref_mut() {
                    t.stage(Stage::Sim, dts);
                }
            }
            // Carry the discovery source across the edit (commit or
            // recovered rollback alike — the changed-row list is exact
            // either way), then spot-audit the touched rows in checked
            // mode the same way the sim table is audited: a key mismatch
            // is a fault, and the source has self-repaired.
            let ctx = SourceCtx {
                net: &*self.net,
                side: &self.side,
                sim: self.sim.as_ref(),
            };
            self.source.note_commit(&ctx, v0, &changed);
            if self.opts.checked {
                let mut rows = changed.clone();
                rows.extend([target, divisor]);
                if !self.source.audit(&ctx, &rows) {
                    self.stats.engine_faults += 1;
                }
            }
        }
        if let Some(t) = self.tracer.as_deref_mut() {
            match verdict {
                // The core may have noted an acceptance before the guard
                // or panic handler overturned it; the explicit close wins.
                Some(outcome) => t.end_pair_with(outcome, 0),
                None => t.end_pair(result.unwrap_or(0)),
            }
        }
        if result.is_some() {
            self.stats.discovery_accepted += 1;
        }
        if let Some(m) = &self.metrics {
            m.pair_ns.observe(nanos(t0));
            if let Some(gain) = result {
                m.accepts.inc();
                m.literal_gain.add(gain);
                let nodes = i64::try_from(self.net.node_ids().count()).unwrap_or(i64::MAX);
                m.nodes.set(nodes);
                m.peak_nodes.max(nodes);
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolsubst_cube::parse_sop;

    fn small_net() -> Network {
        let mut net = Network::new("engine_t");
        let a = net.add_input("a").expect("a");
        let b = net.add_input("b").expect("b");
        let c = net.add_input("c").expect("c");
        let f = net
            .add_node(
                "f",
                vec![a, b, c],
                parse_sop(3, "ab + ac + bc'").expect("p"),
            )
            .expect("f");
        let d = net
            .add_node("d", vec![a, b, c], parse_sop(3, "ab + c").expect("p"))
            .expect("d");
        net.add_output("f", f).expect("o");
        net.add_output("d", d).expect("o");
        net
    }

    #[test]
    fn engine_reports_stage_stats() {
        let mut net = small_net();
        let stats = SubstEngine::new(&mut net, SubstOptions::basic()).run();
        assert!(stats.passes >= 1);
        assert!(stats.candidates_enumerated >= 1);
        assert!(stats.divisions_tried >= 1);
        // Display formats without panicking and mentions the key stages.
        let text = stats.to_string();
        assert!(text.contains("divisions tried"));
        assert!(text.contains("literal gain"));
    }

    /// Runs the checked engine's guard on a hand-made rewrite of
    /// (`target`, `divisor`): snapshot, `rewrite`, verdict. Returns the
    /// verdict, the number of guard checks it took and the stats block.
    fn guarded(
        net: &mut Network,
        target: NodeId,
        divisor: NodeId,
        rewrite: impl FnOnce(&mut Network),
    ) -> (GuardDecision, u64, SubstStats) {
        let mut engine = SubstEngine::new(net, SubstOptions::basic().with_checked(true));
        let snap = TxnSnapshot::capture(engine.net, &[target, divisor]);
        rewrite(engine.net);
        let decision = engine
            .guard_verdict(&snap, target, divisor)
            .expect("checked");
        let checks = engine.guard.as_ref().expect("guard").checks();
        (decision, checks, engine.stats)
    }

    /// The input names of a window side, i.e. its leaves in order.
    fn leaf_names(side: &Network) -> Vec<&str> {
        side.inputs().iter().map(|&i| side.node(i).name()).collect()
    }

    /// f = ab + ac, d = b + c: the paper's running example.
    fn paper_net() -> (Network, [NodeId; 3], NodeId, NodeId) {
        let mut net = Network::new("window_t");
        let [a, b, c] = ["a", "b", "c"].map(|n| net.add_input(n).expect("input"));
        let f = net
            .add_node("f", vec![a, b, c], parse_sop(3, "ab + ac").expect("p"))
            .expect("f");
        let d = net
            .add_node("d", vec![b, c], parse_sop(2, "a + b").expect("p"))
            .expect("d");
        net.add_output("f", f).expect("o");
        net.add_output("d", d).expect("o");
        (net, [a, b, c], f, d)
    }

    #[test]
    fn plain_substitution_window_is_the_joint_space() {
        let (mut net, [a, ..], f, d) = paper_net();
        let snap = TxnSnapshot::capture(&net, &[f, d]);
        // f := a·d.
        net.replace_function(f, vec![a, d], parse_sop(2, "ab").expect("q"))
            .expect("rewrite");
        let (pre, post) = local_window(&snap, &net, f, d).expect("window");
        assert_eq!(leaf_names(&pre), ["a", "b", "c"], "leaves = joint space");
        assert_eq!(leaf_names(&post), ["a", "b", "c"]);
        assert_eq!(post.internal_ids().count(), 2, "f and the expanded d");

        let (mut net, [a, ..], f, d) = paper_net();
        let (decision, checks, stats) = guarded(&mut net, f, d, |net| {
            net.replace_function(f, vec![a, d], parse_sop(2, "ab").expect("q"))
                .expect("rewrite");
        });
        assert_eq!(decision, GuardDecision::PassExact);
        assert_eq!(checks, 1, "the untouched divisor needs no window");
        assert_eq!(stats.guard_fallbacks, 0);
    }

    #[test]
    fn extended_rewrite_windows_expand_the_minted_core() {
        // f = ab + ac, d = b + c + e; the extended rewrite mints the core
        // k = b + c, re-expresses d = k + e and rewrites f = a·k.
        let mut net = Network::new("ext_window_t");
        let [a, b, c, e] = ["a", "b", "c", "e"].map(|n| net.add_input(n).expect("input"));
        let f = net
            .add_node("f", vec![a, b, c], parse_sop(3, "ab + ac").expect("p"))
            .expect("f");
        let d = net
            .add_node("d", vec![b, c, e], parse_sop(3, "a + b + c").expect("p"))
            .expect("d");
        net.add_output("f", f).expect("o");
        net.add_output("d", d).expect("o");
        let rewrite = |net: &mut Network| {
            let k = net
                .add_node(
                    net.fresh_name(),
                    vec![b, c],
                    parse_sop(2, "a + b").expect("k"),
                )
                .expect("core");
            net.replace_function(d, vec![k, e], parse_sop(2, "a + b").expect("d2"))
                .expect("divisor");
            net.replace_function(f, vec![a, k], parse_sop(2, "ab").expect("f2"))
                .expect("target");
        };

        let mut post = net.clone();
        let snap = TxnSnapshot::capture(&post, &[f, d]);
        rewrite(&mut post);
        let (pre_f, post_f) = local_window(&snap, &post, f, d).expect("f window");
        assert_eq!(leaf_names(&pre_f), ["a", "b", "c"]);
        assert_eq!(leaf_names(&post_f), ["a", "b", "c"]);
        assert_eq!(post_f.internal_ids().count(), 2, "f and the minted core");
        let (pre_d, post_d) = local_window(&snap, &post, d, d).expect("d window");
        assert_eq!(leaf_names(&pre_d), ["b", "c", "e"]);
        assert_eq!(post_d.internal_ids().count(), 2, "d and the minted core");

        let (decision, checks, stats) = guarded(&mut net, f, d, rewrite);
        assert_eq!(decision, GuardDecision::PassExact);
        assert_eq!(checks, 2, "one window per changed root");
        assert_eq!(stats.guard_fallbacks, 0);
    }

    #[test]
    fn corrupted_cover_is_refuted_by_window_and_fallback() {
        // f := a + d instead of a·d.
        let corrupt = |net: &mut Network, a: NodeId, f: NodeId, d: NodeId| {
            net.replace_function(f, vec![a, d], parse_sop(2, "a + b").expect("q"))
                .expect("rewrite");
        };
        let (mut net, [a, ..], f, d) = paper_net();
        let snap = TxnSnapshot::capture(&net, &[f, d]);
        corrupt(&mut net, a, f, d);
        let (pre, post) = local_window(&snap, &net, f, d).expect("window");
        let mut guard = Guard::new(SubstOptions::basic().guard);
        assert!(!guard.check_window(&pre, &post).passed(), "window refutes");

        let (mut net, [a, ..], f, d) = paper_net();
        let (decision, checks, stats) = guarded(&mut net, f, d, |net| corrupt(net, a, f, d));
        assert!(!decision.passed(), "fallback refutes too: {decision:?}");
        assert_eq!(checks, 2, "window, then the whole-network compare");
        assert_eq!(stats.guard_fallbacks, 1);
    }

    #[test]
    fn locally_different_globally_equal_rewrite_takes_the_fallback() {
        // x and y compute the same function, but as window leaves they
        // are free: t := y is refuted locally and proved globally.
        let mut net = Network::new("correlated_t");
        let [a, b] = ["a", "b"].map(|n| net.add_input(n).expect("input"));
        let x = net
            .add_node("x", vec![a, b], parse_sop(2, "ab").expect("p"))
            .expect("x");
        let y = net
            .add_node("y", vec![a, b], parse_sop(2, "ab").expect("p"))
            .expect("y");
        let t = net
            .add_node("t", vec![x], parse_sop(1, "a").expect("p"))
            .expect("t");
        let d = net
            .add_node("d", vec![a, b], parse_sop(2, "a + b").expect("p"))
            .expect("d");
        for (name, id) in [("x", x), ("y", y), ("t", t), ("d", d)] {
            net.add_output(name, id).expect("output");
        }
        let rewrite = |net: &mut Network| {
            net.replace_function(t, vec![y], parse_sop(1, "a").expect("q"))
                .expect("rewrite");
        };

        let mut post = net.clone();
        let snap = TxnSnapshot::capture(&post, &[t, d]);
        rewrite(&mut post);
        let (pre_w, post_w) = local_window(&snap, &post, t, d).expect("window");
        assert_eq!(leaf_names(&pre_w), ["x", "y"]);
        let mut guard = Guard::new(SubstOptions::basic().guard);
        assert!(
            !guard.check_window(&pre_w, &post_w).passed(),
            "window must not pass"
        );

        let (decision, checks, stats) = guarded(&mut net, t, d, rewrite);
        assert!(
            decision.passed(),
            "the whole-network compare accepts: {decision:?}"
        );
        assert_eq!(checks, 2);
        assert_eq!(stats.guard_fallbacks, 1);
        assert_eq!(stats.guard_rejections, 0);
    }

    /// A quarantined pair must not win the best-gain dry runs: `attempt`
    /// would reject it, and the target would get no rewrite at all.
    #[test]
    fn best_gain_skips_quarantined_pairs() {
        let mut net = Network::new("quarantine_t");
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|n| net.add_input(n).expect("input"));
        let f = net
            .add_node(
                "f",
                vec![a, b, c, d],
                parse_sop(4, "ab + ac + ad").expect("p"),
            )
            .expect("f");
        let g = net
            .add_node("g", vec![b, c], parse_sop(2, "a + b").expect("p"))
            .expect("g");
        let h = net
            .add_node("h", vec![b, c, d], parse_sop(3, "a + b + c").expect("p"))
            .expect("h");
        for (name, id) in [("f", f), ("g", g), ("h", h)] {
            net.add_output(name, id).expect("output");
        }
        let opts = SubstOptions::basic().with_acceptance(Acceptance::BestGain);
        let mut engine = SubstEngine::new(&mut net, opts);
        // f = a·h is the top dry-run gain, but the pair is quarantined.
        engine.quarantine.insert((f, h));
        engine.run();
        let mut fanins = net.node(f).fanins().to_vec();
        fanins.sort_unstable();
        assert_eq!(fanins, vec![a, d, g], "f must be rewritten over g");
    }
}
