//! The Boolean substitution driver: sweeps (target, divisor) node pairs,
//! divides with the RAR engine, and greedily accepts any rewrite with a
//! positive factored-literal gain — the paper's three experimental
//! configurations (`basic`, `ext`, `ext-GDC`) plus the POS-form attempts.

use crate::division::{basic_divide_covers, pos_divide_precomplemented, DivisionOptions};
use crate::extended::extended_divide_covers;
use crate::netcircuit::ShadowBase;
use boolsubst_algebraic::{factored_literals, JointSpace};
use boolsubst_atpg::{remove_redundant_wires_with, RemovalOptions};
use boolsubst_cube::{Cover, Lit, Phase};
use boolsubst_guard::{GuardConfig, TierPolicy};
use boolsubst_network::{Network, NodeId};
use boolsubst_sat::SatOptions;
use boolsubst_sim::{CoverScreen, SimConfig, SimFilter};
use boolsubst_trace::json::JsonObj;
use boolsubst_trace::{Outcome, Tracer};
use std::fmt;
use std::num::NonZeroUsize;
use std::time::Instant;

/// Which of the paper's configurations to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubstMode {
    /// Basic division only (divisor used as-is).
    Basic,
    /// Extended division (divisor may be decomposed), local implications.
    Extended,
    /// Extended division with *global* internal don't cares: the
    /// redundancy-removal implications range over the whole circuit.
    ExtendedGdc,
}

impl SubstMode {
    /// Stable lowercase label, matching the CLI's `--mode` values.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SubstMode::Basic => "basic",
            SubstMode::Extended => "ext",
            SubstMode::ExtendedGdc => "ext-gdc",
        }
    }
}

/// How the sweep discovers candidate divisors for each target — the
/// strategy behind the [`crate::candidates::CandidateSource`] seam.
///
/// [`Discovery::Overlap`] is the original support-overlap index.
/// [`Discovery::Signature`] is the
/// simulation-guided proposer of arXiv 2007.02579: divisors come from
/// equal / complement / containment signature classes over the sim
/// filter's pattern pool, so the division proof runs only on near-certain
/// survivors. Signature discovery visits a different (usually much
/// smaller) pair set, so its rewrites are *sound* — every acceptance
/// still passes the full division proof (and the guard, in checked mode)
/// — but not bit-identical to overlap discovery. Both strategies' results
/// are pinned per circuit and configuration by the golden quality table
/// (`tests/golden_quality.txt`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Discovery {
    /// Fanouts-of-fanins support-overlap enumeration (the default).
    #[default]
    Overlap,
    /// Signature-class proposal over the sim filter's pattern pool.
    /// Requires [`SubstOptions::sim`] enabled; resolved to `Overlap`
    /// otherwise.
    Signature,
    /// Pick per run: `Signature` on large networks (≥ 10 000 internal
    /// nodes) with the sim filter enabled, `Overlap` otherwise.
    Auto,
}

impl Discovery {
    /// Stable lowercase label, matching the CLI's `--discovery` values.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Discovery::Overlap => "overlap",
            Discovery::Signature => "signature",
            Discovery::Auto => "auto",
        }
    }

    /// Parses a `--discovery` CLI value.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Discovery> {
        match name {
            "overlap" => Some(Discovery::Overlap),
            "signature" => Some(Discovery::Signature),
            "auto" => Some(Discovery::Auto),
            _ => None,
        }
    }
}

/// When to accept a substitution during the sweep — the paper's
/// implementation is locally greedy ("takes the first division that has a
/// positive gain"), which it blames for the Table V `ext-GDC` anomaly;
/// [`Acceptance::BestGain`] is the ablation alternative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Acceptance {
    /// Accept the first divisor with positive gain (the paper's policy).
    #[default]
    FirstGain,
    /// Evaluate every divisor for the target, apply only the best.
    BestGain,
}

/// Options for a substitution run (see [`crate::session::Session`]).
///
/// Construct with one of the mode constructors ([`SubstOptions::basic`],
/// [`SubstOptions::extended`], [`SubstOptions::extended_gdc`],
/// [`SubstOptions::extended_exact`]) and refine with the `with_*` builder
/// methods:
///
/// ```
/// use boolsubst_core::SubstOptions;
/// let opts = SubstOptions::basic().with_checked(true);
/// ```
///
/// Deliberately *not* `Copy`: the options block keeps growing non-trivial
/// fields, so clones are explicit at every hand-off.
#[derive(Debug, Clone)]
pub struct SubstOptions {
    /// Configuration (paper: `basic` / `ext` / `ext GDC`).
    pub mode: SubstMode,
    /// Division options (learning depth, removal passes).
    pub division: DivisionOptions,
    /// Also attempt product-of-sum-form substitution when the SOP attempt
    /// yields no gain.
    pub try_pos: bool,
    /// Skip divisors with more cubes than this. Non-zero by type: a
    /// zero bound would reject every divisor and sweep nothing.
    pub max_divisor_cubes: NonZeroUsize,
    /// Skip pairs whose joint variable space exceeds this.
    pub max_joint_vars: usize,
    /// Sweeps over all pairs. Non-zero by type: a zero-pass run is
    /// unrepresentable (the old `usize` field was silently clamped to 1).
    pub max_passes: NonZeroUsize,
    /// Acceptance policy (paper: first positive gain).
    pub acceptance: Acceptance,
    /// Divisor-discovery strategy. The default, [`Discovery::Overlap`],
    /// enumerates the support-overlap neighbourhood;
    /// [`Discovery::Signature`] proposes divisors from signature classes
    /// and requires the sim filter.
    pub discovery: Discovery,
    /// Simulation-signature pre-filter. Refute-only:
    /// the screen never rejects a pair the proofs would accept, so the
    /// accepted rewrites are identical with the filter on or off.
    pub sim: SimConfig,
    /// Checked apply: every accepted rewrite is
    /// re-verified by the post-apply guard pipeline against the
    /// reconstructed pre-state, refuted moves are rolled back and the pair
    /// quarantined, and per-pair work runs under panic isolation. On a
    /// healthy engine the guards never fire, so the output is bit-identical
    /// to an unchecked run (`tests/engine_parity.rs`). Default off.
    pub checked: bool,
    /// Guard pipeline tunables for checked mode: which exact tiers may
    /// run (`sim → BDD → SAT`), the BDD node limit, and the SAT conflict
    /// budget. Ignored when [`SubstOptions::checked`] is off.
    pub guard: GuardConfig,
    /// Wall-clock deadline: once reached, the sweep
    /// stops between pair attempts and returns the valid partial result
    /// with [`SubstStats::interrupted`] set. Each attempt is atomic, so
    /// the network is never left mid-rewrite. Default none.
    pub deadline: Option<Instant>,
}

/// `NonZeroUsize` from a builder argument, clamping 0 up to 1 — the same
/// forgiving behaviour the old `usize` fields had via `.max(1)`.
fn at_least_one(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n.max(1)).expect("max(1) is non-zero")
}

impl SubstOptions {
    /// The paper's `basic` configuration.
    #[must_use]
    pub fn basic() -> SubstOptions {
        SubstOptions {
            mode: SubstMode::Basic,
            division: DivisionOptions::paper_default(),
            try_pos: true,
            max_divisor_cubes: at_least_one(24),
            max_joint_vars: 48,
            max_passes: at_least_one(1),
            acceptance: Acceptance::FirstGain,
            discovery: Discovery::Overlap,
            sim: SimConfig::default(),
            checked: false,
            guard: GuardConfig::default(),
            deadline: None,
        }
    }

    /// The paper's `ext.` configuration.
    #[must_use]
    pub fn extended() -> SubstOptions {
        SubstOptions {
            mode: SubstMode::Extended,
            ..SubstOptions::basic()
        }
    }

    /// The paper's `ext. GDC` configuration (global don't cares).
    #[must_use]
    pub fn extended_gdc() -> SubstOptions {
        SubstOptions {
            mode: SubstMode::ExtendedGdc,
            ..SubstOptions::basic()
        }
    }

    /// Extension beyond the paper: extended division with a bounded exact
    /// test search deciding the wires implications leave open.
    #[must_use]
    pub fn extended_exact(budget: usize) -> SubstOptions {
        SubstOptions {
            mode: SubstMode::Extended,
            division: DivisionOptions::exact(budget),
            ..SubstOptions::basic()
        }
    }

    /// Sets the acceptance policy ([`Acceptance::FirstGain`] is the
    /// paper's; [`Acceptance::BestGain`] is the ablation alternative).
    #[must_use]
    pub fn with_acceptance(mut self, acceptance: Acceptance) -> SubstOptions {
        self.acceptance = acceptance;
        self
    }

    /// Sets the divisor-discovery strategy. [`Discovery::Signature`] and
    /// [`Discovery::Auto`] require [`SubstOptions::sim`] enabled; without
    /// the filter the engine resolves them back to [`Discovery::Overlap`]
    /// (the resolved choice is reported in [`SubstStats::discovery`]).
    #[must_use]
    pub fn with_discovery(mut self, discovery: Discovery) -> SubstOptions {
        self.discovery = discovery;
        self
    }

    /// Enables or disables checked apply (guard re-verification, rollback,
    /// quarantine, panic isolation).
    #[must_use]
    pub fn with_checked(mut self, checked: bool) -> SubstOptions {
        self.checked = checked;
        self
    }

    /// Replaces the checked-mode guard configuration wholesale.
    #[must_use]
    pub fn with_guard(mut self, guard: GuardConfig) -> SubstOptions {
        self.guard = guard;
        self
    }

    /// Sets which exact guard tiers may run after the simulation screen
    /// (`sim` / `bdd` / `sat` / `auto`).
    #[must_use]
    pub fn with_guard_tier(mut self, tier: TierPolicy) -> SubstOptions {
        self.guard.tier = tier;
        self
    }

    /// Sets the tier C conflict budget; `0` disables the SAT tier.
    #[must_use]
    pub fn with_sat_conflicts(mut self, conflicts: u64) -> SubstOptions {
        self.guard.sat = SatOptions {
            conflict_budget: conflicts,
        };
        self
    }

    /// Sets a wall-clock deadline for the sweep. The same instant is
    /// threaded into the guard config so a tier C SAT check derives its
    /// conflict budget from the remaining time — one miter can never
    /// overrun the deadline the sweep is checking between attempts.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> SubstOptions {
        self.deadline = Some(deadline);
        self.guard.deadline = Some(deadline);
        self
    }

    /// Replaces the simulation pre-filter configuration.
    #[must_use]
    pub fn with_sim(mut self, sim: SimConfig) -> SubstOptions {
        self.sim = sim;
        self
    }

    /// Accepted for callers that still pass a thread count; returns
    /// `self` unchanged. The sweep is sequential: every pair runs on the
    /// calling thread.
    #[must_use]
    pub fn with_threads(self, _threads: usize) -> SubstOptions {
        self
    }

    /// Sets the number of sweeps over all pairs; `0` is clamped to `1`.
    #[must_use]
    pub fn with_max_passes(mut self, passes: usize) -> SubstOptions {
        self.max_passes = at_least_one(passes);
        self
    }

    /// Sets the divisor cube-count bound; `0` is clamped to `1`.
    #[must_use]
    pub fn with_max_divisor_cubes(mut self, cubes: usize) -> SubstOptions {
        self.max_divisor_cubes = at_least_one(cubes);
        self
    }

    /// Sets the joint-variable-space bound.
    #[must_use]
    pub fn with_max_joint_vars(mut self, vars: usize) -> SubstOptions {
        self.max_joint_vars = vars;
        self
    }

    /// Enables or disables the product-of-sums fallback attempt.
    #[must_use]
    pub fn with_try_pos(mut self, try_pos: bool) -> SubstOptions {
        self.try_pos = try_pos;
        self
    }

    /// Replaces the division options (learning depth, budgets).
    #[must_use]
    pub fn with_division(mut self, division: DivisionOptions) -> SubstOptions {
        self.division = division;
        self
    }
}

/// The paper's three experimental configurations — `basic`, `ext`, and
/// `ext-GDC` — as one canonical list. Tests and benches iterate over this
/// instead of hand-copying option triples, so a new default knob lands in
/// every parity matrix automatically.
#[must_use]
pub fn all_configs() -> [SubstOptions; 3] {
    [
        SubstOptions::basic(),
        SubstOptions::extended(),
        SubstOptions::extended_gdc(),
    ]
}

/// Statistics of a substitution run, with stage-level observability.
///
/// The acceptance-relevant fields (`substitutions`, `pos_substitutions`,
/// `extended_decompositions`, `literal_gain`, `divisions_tried`,
/// `passes`) are pinned per circuit and configuration by the golden
/// quality table (`tests/golden_quality.txt`). The stage counters describe
/// *how* the sweep got there; pairs the candidate source never surfaces
/// are counted in `filtered_by_index`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubstStats {
    /// Division attempts (pairs surviving every filter).
    pub divisions_tried: usize,
    /// Accepted substitutions (SOP form).
    pub substitutions: usize,
    /// Accepted substitutions in product-of-sum form.
    pub pos_substitutions: usize,
    /// Extended divisions that decomposed a divisor.
    pub extended_decompositions: usize,
    /// Total factored-literal gain.
    pub literal_gain: i64,
    /// Sweeps over the network actually run.
    pub passes: usize,
    /// The divisor-discovery strategy the engine actually ran with, after
    /// resolving [`Discovery::Auto`] and the sim-filter requirement. When
    /// stats from runs with different strategies are [`SubstStats::merge`]d
    /// the receiver's label wins.
    pub discovery: Discovery,
    /// Divisors the discovery source proposed across every enumeration
    /// (the top of the per-source funnel: proposed → bucket-hits →
    /// proofs-run → accepted).
    pub discovery_proposed: usize,
    /// Signature-bucket members scanned while proposing (equal/complement
    /// class members plus containment-test survivors' bucket peers). Zero
    /// under [`Discovery::Overlap`], which has no buckets.
    pub discovery_bucket_hits: usize,
    /// Proposed pairs that survived every cheap filter and reached the
    /// division proof.
    pub discovery_proofs_run: usize,
    /// Proposed pairs whose division proof succeeded and whose rewrite was
    /// committed (equals `substitutions` plus accepted extended moves).
    pub discovery_accepted: usize,
    /// Candidate pairs individually examined.
    pub candidates_enumerated: usize,
    /// Pairs the support-overlap index skipped without examining
    /// (approximate across mid-target re-enumerations).
    pub filtered_by_index: usize,
    /// Pairs rejected as self/input/existing-fanin pairs.
    pub filtered_structural: usize,
    /// Pairs rejected because the divisor lies in the target's transitive
    /// fanout (substituting would create a cycle).
    pub filtered_tfo: usize,
    /// Pairs rejected by the divisor cube-count bound.
    pub filtered_divisor_size: usize,
    /// Pairs rejected by the joint-variable-space bound.
    pub filtered_joint_space: usize,
    /// Fault checks run by whole-network (GDC) redundancy removal.
    pub rar_checks: usize,
    /// GDC attempts that reused the per-target shadow-circuit snapshot.
    pub shadow_cache_hits: usize,
    /// GDC shadow-circuit snapshots built from scratch.
    pub shadow_cache_misses: usize,
    /// Pairs screened by the simulation filter (with
    /// [`SubstOptions::sim`] enabled).
    pub sim_pairs_screened: usize,
    /// Pairs rejected purely by signature witnesses — every applicable
    /// strategy refuted, no proof work run.
    pub sim_pairs_refuted: usize,
    /// Pairs the screen let through to at least one proof stage that the
    /// full check then rejected anyway (refinement fuel).
    pub sim_false_passes: usize,
    /// Counterexample patterns harvested into the pattern pool.
    pub sim_refinements: usize,
    /// Dividend cubes whose extended-division fault checks were skipped:
    /// the vote table is seeded only from wires surviving the screen.
    pub sim_ext_wires_skipped: usize,
    /// Patterns in the pool at the end of the run.
    pub sim_patterns: usize,
    /// Signature width in 64-bit words.
    pub sim_words: usize,
    /// Wall time enumerating targets and candidates.
    pub enumerate_nanos: u64,
    /// Wall time in the cheap per-pair filters.
    pub filter_nanos: u64,
    /// Wall time dividing and evaluating gains, plus checked mode's
    /// snapshot, guard and rollback; the division core's sim screen is
    /// booked to `sim_nanos` only.
    pub divide_nanos: u64,
    /// Wall time patching side tables after acceptances.
    pub apply_nanos: u64,
    /// Wall time building the sim filter, screening pairs, refining the
    /// pool, and patching signatures.
    pub sim_nanos: u64,
    /// Accepted rewrites the checked-mode guard refuted and rolled back.
    pub guard_rejections: usize,
    /// Checked-mode guard verdicts that degraded to a sampled pass: every
    /// exact tier (BDD, SAT) was out of budget, so the rewrite stands on
    /// the random pool alone. Zero means every accepted rewrite was
    /// *proved* equivalence-preserving.
    pub guard_pass_sampled: usize,
    /// Checked-mode guard checks that escalated to the tier C SAT miter.
    pub guard_sat_runs: usize,
    /// Checked-mode rewrites whose local-window check did not pass and
    /// fell back to the whole-network compare. A healthy engine reads 0:
    /// outside GDC mode the window is the joint space the division
    /// reasoned over.
    pub guard_fallbacks: usize,
    /// Per-pair faults survived in checked mode: panics caught and rolled
    /// back, typed apply errors, and detected signature corruption.
    pub engine_faults: usize,
    /// (target, divisor) pairs quarantined after a guard rejection or
    /// engine fault (skipped for the rest of the run).
    pub quarantined: usize,
    /// Divisions whose redundancy removal stopped early on the per-pair
    /// check budget ([`DivisionOptions::max_checks`]).
    pub check_budget_exhausted: usize,
    /// The run stopped early on [`SubstOptions::deadline`]: the network is
    /// valid and equivalent, but the sweep did not finish.
    pub interrupted: bool,
}

impl fmt::Display for SubstStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn ms(nanos: u64) -> f64 {
            nanos as f64 / 1.0e6
        }
        writeln!(f, "substitution statistics")?;
        writeln!(f, "  passes                 {:>8}", self.passes)?;
        writeln!(
            f,
            "  discovery              {:>8}  (proposed {}, bucket-hits {}, proofs-run {}, accepted {})",
            self.discovery.name(),
            self.discovery_proposed,
            self.discovery_bucket_hits,
            self.discovery_proofs_run,
            self.discovery_accepted,
        )?;
        writeln!(
            f,
            "  candidates examined    {:>8}",
            self.candidates_enumerated
        )?;
        writeln!(f, "  skipped by index       {:>8}", self.filtered_by_index)?;
        writeln!(
            f,
            "  filtered               {:>8}  (structural {}, tfo {}, divisor-size {}, joint-space {})",
            self.filtered_structural
                + self.filtered_tfo
                + self.filtered_divisor_size
                + self.filtered_joint_space,
            self.filtered_structural,
            self.filtered_tfo,
            self.filtered_divisor_size,
            self.filtered_joint_space,
        )?;
        writeln!(f, "  divisions tried        {:>8}", self.divisions_tried)?;
        writeln!(
            f,
            "  accepted               {:>8}  (pos {}, extended {})",
            self.substitutions, self.pos_substitutions, self.extended_decompositions,
        )?;
        writeln!(f, "  literal gain           {:>8}", self.literal_gain)?;
        writeln!(f, "  RAR checks (GDC)       {:>8}", self.rar_checks)?;
        writeln!(
            f,
            "  shadow circuit         {:>8}  hits / {} misses",
            self.shadow_cache_hits, self.shadow_cache_misses,
        )?;
        writeln!(
            f,
            "  sim screen             {:>8}  (refuted {}, false-pass {}, refined {}, ext-wires skipped {})",
            self.sim_pairs_screened,
            self.sim_pairs_refuted,
            self.sim_false_passes,
            self.sim_refinements,
            self.sim_ext_wires_skipped,
        )?;
        writeln!(
            f,
            "  sim pool               {:>8}  patterns x {} words",
            self.sim_patterns, self.sim_words,
        )?;
        if self.guard_rejections
            + self.engine_faults
            + self.quarantined
            + self.check_budget_exhausted
            + self.guard_pass_sampled
            + self.guard_sat_runs
            + self.guard_fallbacks
            > 0
            || self.interrupted
        {
            writeln!(
                f,
                "  checked apply          {:>8}  guard-rejected (faults {}, quarantined {}, budget-stops {}{})",
                self.guard_rejections,
                self.engine_faults,
                self.quarantined,
                self.check_budget_exhausted,
                if self.interrupted { ", INTERRUPTED" } else { "" },
            )?;
            writeln!(
                f,
                "  guard escalation       {:>8}  sat-tier runs, {} sampled passes, {} window fallbacks",
                self.guard_sat_runs, self.guard_pass_sampled, self.guard_fallbacks,
            )?;
        }
        write!(
            f,
            "  time (ms)              enumerate {:.2}, filter {:.2}, divide {:.2}, apply {:.2}, sim {:.2}",
            ms(self.enumerate_nanos),
            ms(self.filter_nanos),
            ms(self.divide_nanos),
            ms(self.apply_nanos),
            ms(self.sim_nanos),
        )
    }
}

impl SubstStats {
    /// Accumulates `other` into `self` field by field, saturating on
    /// overflow. Lets callers combine runs (benchmark reps, the three
    /// paper modes) without hand-listing every counter at each call site.
    /// The pool-snapshot fields (`sim_patterns`, `sim_words`) sum like the
    /// rest — a merged value reads as "total pool capacity touched".
    pub fn merge(&mut self, other: &SubstStats) {
        self.divisions_tried = self.divisions_tried.saturating_add(other.divisions_tried);
        self.substitutions = self.substitutions.saturating_add(other.substitutions);
        self.pos_substitutions = self
            .pos_substitutions
            .saturating_add(other.pos_substitutions);
        self.extended_decompositions = self
            .extended_decompositions
            .saturating_add(other.extended_decompositions);
        self.literal_gain = self.literal_gain.saturating_add(other.literal_gain);
        self.passes = self.passes.saturating_add(other.passes);
        // `discovery` is a label, not a counter: the receiver's wins.
        self.discovery_proposed = self
            .discovery_proposed
            .saturating_add(other.discovery_proposed);
        self.discovery_bucket_hits = self
            .discovery_bucket_hits
            .saturating_add(other.discovery_bucket_hits);
        self.discovery_proofs_run = self
            .discovery_proofs_run
            .saturating_add(other.discovery_proofs_run);
        self.discovery_accepted = self
            .discovery_accepted
            .saturating_add(other.discovery_accepted);
        self.candidates_enumerated = self
            .candidates_enumerated
            .saturating_add(other.candidates_enumerated);
        self.filtered_by_index = self
            .filtered_by_index
            .saturating_add(other.filtered_by_index);
        self.filtered_structural = self
            .filtered_structural
            .saturating_add(other.filtered_structural);
        self.filtered_tfo = self.filtered_tfo.saturating_add(other.filtered_tfo);
        self.filtered_divisor_size = self
            .filtered_divisor_size
            .saturating_add(other.filtered_divisor_size);
        self.filtered_joint_space = self
            .filtered_joint_space
            .saturating_add(other.filtered_joint_space);
        self.rar_checks = self.rar_checks.saturating_add(other.rar_checks);
        self.shadow_cache_hits = self
            .shadow_cache_hits
            .saturating_add(other.shadow_cache_hits);
        self.shadow_cache_misses = self
            .shadow_cache_misses
            .saturating_add(other.shadow_cache_misses);
        self.sim_pairs_screened = self
            .sim_pairs_screened
            .saturating_add(other.sim_pairs_screened);
        self.sim_pairs_refuted = self
            .sim_pairs_refuted
            .saturating_add(other.sim_pairs_refuted);
        self.sim_false_passes = self.sim_false_passes.saturating_add(other.sim_false_passes);
        self.sim_refinements = self.sim_refinements.saturating_add(other.sim_refinements);
        self.sim_ext_wires_skipped = self
            .sim_ext_wires_skipped
            .saturating_add(other.sim_ext_wires_skipped);
        self.sim_patterns = self.sim_patterns.saturating_add(other.sim_patterns);
        self.sim_words = self.sim_words.saturating_add(other.sim_words);
        self.guard_rejections = self.guard_rejections.saturating_add(other.guard_rejections);
        self.guard_pass_sampled = self
            .guard_pass_sampled
            .saturating_add(other.guard_pass_sampled);
        self.guard_sat_runs = self.guard_sat_runs.saturating_add(other.guard_sat_runs);
        self.guard_fallbacks = self.guard_fallbacks.saturating_add(other.guard_fallbacks);
        self.engine_faults = self.engine_faults.saturating_add(other.engine_faults);
        self.quarantined = self.quarantined.saturating_add(other.quarantined);
        self.check_budget_exhausted = self
            .check_budget_exhausted
            .saturating_add(other.check_budget_exhausted);
        self.interrupted |= other.interrupted;
        self.enumerate_nanos = self.enumerate_nanos.saturating_add(other.enumerate_nanos);
        self.filter_nanos = self.filter_nanos.saturating_add(other.filter_nanos);
        self.divide_nanos = self.divide_nanos.saturating_add(other.divide_nanos);
        self.apply_nanos = self.apply_nanos.saturating_add(other.apply_nanos);
        self.sim_nanos = self.sim_nanos.saturating_add(other.sim_nanos);
    }

    /// Single-line JSON object with every counter, via the shared
    /// [`JsonObj`] writer. Field names match the struct fields.
    #[must_use]
    pub fn to_json(&self) -> String {
        fn u(v: usize) -> u64 {
            u64::try_from(v).unwrap_or(u64::MAX)
        }
        JsonObj::new()
            .u64("divisions_tried", u(self.divisions_tried))
            .u64("substitutions", u(self.substitutions))
            .u64("pos_substitutions", u(self.pos_substitutions))
            .u64("extended_decompositions", u(self.extended_decompositions))
            .i64("literal_gain", self.literal_gain)
            .u64("passes", u(self.passes))
            .str("discovery", self.discovery.name())
            .u64("discovery_proposed", u(self.discovery_proposed))
            .u64("discovery_bucket_hits", u(self.discovery_bucket_hits))
            .u64("discovery_proofs_run", u(self.discovery_proofs_run))
            .u64("discovery_accepted", u(self.discovery_accepted))
            .u64("candidates_enumerated", u(self.candidates_enumerated))
            .u64("filtered_by_index", u(self.filtered_by_index))
            .u64("filtered_structural", u(self.filtered_structural))
            .u64("filtered_tfo", u(self.filtered_tfo))
            .u64("filtered_divisor_size", u(self.filtered_divisor_size))
            .u64("filtered_joint_space", u(self.filtered_joint_space))
            .u64("rar_checks", u(self.rar_checks))
            .u64("shadow_cache_hits", u(self.shadow_cache_hits))
            .u64("shadow_cache_misses", u(self.shadow_cache_misses))
            .u64("sim_pairs_screened", u(self.sim_pairs_screened))
            .u64("sim_pairs_refuted", u(self.sim_pairs_refuted))
            .u64("sim_false_passes", u(self.sim_false_passes))
            .u64("sim_refinements", u(self.sim_refinements))
            .u64("sim_ext_wires_skipped", u(self.sim_ext_wires_skipped))
            .u64("sim_patterns", u(self.sim_patterns))
            .u64("sim_words", u(self.sim_words))
            .u64("guard_rejections", u(self.guard_rejections))
            .u64("guard_pass_sampled", u(self.guard_pass_sampled))
            .u64("guard_sat_runs", u(self.guard_sat_runs))
            .u64("guard_fallbacks", u(self.guard_fallbacks))
            .u64("engine_faults", u(self.engine_faults))
            .u64("quarantined", u(self.quarantined))
            .u64("check_budget_exhausted", u(self.check_budget_exhausted))
            .u64("interrupted", u64::from(self.interrupted))
            .u64("enumerate_nanos", self.enumerate_nanos)
            .u64("filter_nanos", self.filter_nanos)
            .u64("divide_nanos", self.divide_nanos)
            .u64("apply_nanos", self.apply_nanos)
            .u64("sim_nanos", self.sim_nanos)
            .finish()
    }
}

/// Projects a cover onto its support: drops unused variables and returns
/// the surviving fanins (`fanins[v]` for each support variable `v`) plus
/// the remapped cover.
fn project(cover: &Cover, fanins: &[NodeId]) -> (Vec<NodeId>, Cover) {
    let support = cover.support();
    let kept: Vec<NodeId> = support.iter().map(|&v| fanins[v]).collect();
    let mut map = vec![0usize; cover.num_vars()];
    for (new_idx, &v) in support.iter().enumerate() {
        map[v] = new_idx;
    }
    let remapped = cover.remapped(kept.len(), &map);
    (kept, remapped)
}

/// Builds the new cover for `target` after substitution: `q·x + r` over
/// `space ∪ {divisor}`, pruning unused variables. Returns (fanins, cover).
fn assemble(
    space: &JointSpace,
    divisor: NodeId,
    quotient: &Cover,
    remainder: &Cover,
    divisor_phase: Phase,
) -> (Vec<NodeId>, Cover) {
    let n = space.len();
    let mut new_cover = Cover::new(n + 1);
    for c in quotient.cubes() {
        let mut c = c.extended(n + 1);
        c.restrict(Lit {
            var: n,
            phase: divisor_phase,
        });
        new_cover.push(c);
    }
    new_cover.extend_cover(&remainder.extended(n + 1));
    new_cover.remove_contained_cubes();
    let mut fanins = space.vars.clone();
    fanins.push(divisor);
    project(&new_cover, &fanins)
}

fn factored_gain(net: &Network, target: NodeId, new_cover: &Cover) -> i64 {
    // A target without a cover is a primary input, which the filters
    // reject; zero gain turns the impossible case into a safe reject.
    let Some(old) = net.node(target).cover() else {
        return 0;
    };
    factored_literals(old) as i64 - factored_literals(new_cover) as i64
}

/// The cheap per-pair filters every attempt path runs before any proof,
/// in a fixed order: self-pair or existing fanin, cycle (`in_tfo` is the
/// caller's transitive-fanout query, answered from the target's prepared
/// slot),
/// divisor cube count, joint variable space. Returns the joint space of
/// a surviving pair, or the reject outcome after counting it in `stats`.
pub(crate) fn filter_pair(
    net: &Network,
    target: NodeId,
    divisor: NodeId,
    opts: &SubstOptions,
    stats: &mut SubstStats,
    in_tfo: impl FnOnce() -> bool,
) -> Result<JointSpace, Outcome> {
    if target == divisor || net.node(target).fanins().contains(&divisor) {
        stats.filtered_structural += 1;
        return Err(Outcome::RejectedStructural);
    }
    if in_tfo() {
        stats.filtered_tfo += 1;
        return Err(Outcome::RejectedTfo);
    }
    // A divisor without a cover is a primary input.
    let Some(cubes) = net.node(divisor).cover().map(Cover::len) else {
        stats.filtered_structural += 1;
        return Err(Outcome::RejectedStructural);
    };
    if cubes == 0 || cubes > opts.max_divisor_cubes.get() {
        stats.filtered_divisor_size += 1;
        return Err(Outcome::RejectedDivisorSize);
    }
    let space = JointSpace::union_of_fanins(net, &[target, divisor]);
    if space.len() > opts.max_joint_vars {
        stats.filtered_joint_space += 1;
        return Err(Outcome::RejectedJointSpace);
    }
    Ok(space)
}

/// Notes the decided outcome on the attached tracer, if any.
fn note(tracer: &mut Option<&mut Tracer>, outcome: Outcome) {
    if let Some(t) = tracer.as_deref_mut() {
        t.note_outcome(outcome);
    }
}

/// Books a typed apply failure (a `replace_function`/plan error that
/// previously aborted the process) as an engine fault and rejects the
/// pair. Every such site is validate-then-mutate or internally rolled
/// back, so the network is unchanged when this runs.
fn fault_reject(stats: &mut SubstStats, tracer: &mut Option<&mut Tracer>) -> Option<i64> {
    stats.engine_faults += 1;
    note(tracer, Outcome::EngineFault);
    None
}

/// What kind of single-node rewrite a [`SubstPlan::Replace`] is — decides
/// the stat counters, the tracer outcome, and (for the chaos harness)
/// which fault-injection sites fire on apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlanKind {
    /// SOP division by the divisor as-is (basic or GDC scope).
    Sop,
    /// SOP division by the divisor's complement.
    SopCompl,
    /// Product-of-sums-form substitution.
    Pos,
}

/// A fully evaluated substitution decision, produced read-only by
/// [`plan_pair_core`] and applied by [`apply_plan`]. Splitting planning
/// from application is what lets best-gain acceptance dry-run every
/// candidate on the unchanged network and apply only the winner.
pub(crate) enum SubstPlan {
    /// Replace `target`'s function with `cover` over `fanins`.
    Replace {
        /// Node being rewritten.
        target: NodeId,
        /// New fanin list (projected to the cover's support).
        fanins: Vec<NodeId>,
        /// New cover for `target`.
        cover: Cover,
        /// Factored-literal gain (strictly positive).
        gain: i64,
        /// Which strategy produced the rewrite.
        kind: PlanKind,
    },
    /// Extended division: create a core node and rewrite both the target
    /// and the divisor.
    Extended(ExtendedPlan),
}

impl SubstPlan {
    /// The plan's factored-literal gain (strictly positive by
    /// construction).
    pub(crate) fn gain(&self) -> i64 {
        match self {
            SubstPlan::Replace { gain, .. } => *gain,
            SubstPlan::Extended(plan) => plan.gain,
        }
    }
}

/// The filter-free heart of a substitution attempt: divides `target` by
/// `divisor` over the precomputed joint `space` and applies the first
/// strategy with positive gain. Callers guarantee the pair already passed
/// [`filter_pair`].
///
/// Composition of [`plan_pair_core`] (read-only evaluation) and
/// [`apply_plan`] (the mutation); the live `attempt` goes through here,
/// while the best-gain dry runs call only the read-only half.
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_pair_core(
    net: &mut Network,
    target: NodeId,
    divisor: NodeId,
    space: &JointSpace,
    opts: &SubstOptions,
    stats: &mut SubstStats,
    shadow: Option<&ShadowBase>,
    sim: Option<&SimFilter>,
    mut tracer: Option<&mut Tracer>,
) -> Option<i64> {
    let plan = plan_pair_core(
        net,
        target,
        divisor,
        space,
        opts,
        stats,
        shadow,
        sim,
        tracer.as_deref_mut(),
    )?;
    apply_plan(net, plan, stats, tracer)
}

/// The read-only half of a substitution attempt: evaluates every division
/// strategy in the fixed order (SOP, complement-SOP, extended, POS) and
/// returns the first plan with positive factored-literal gain — without
/// mutating the network. Because planning never mutates, "first strategy
/// that would be applied" and "first strategy with positive gain" are the
/// same thing, so [`try_pair_core`] behaves exactly as the pre-split code.
///
/// The GDC mode proves on `shadow`, the target's prepared shadow
/// snapshot, which every caller supplies in that mode; other modes
/// ignore it.
///
/// When `sim` is given, the dividend is screened against the divisor's
/// simulation signature first and refuted strategies skip their proof
/// work. The screen is refute-only (a witness pattern is a concrete
/// counterexample), so every skipped strategy would have returned no gain
/// anyway: the accepted rewrites — and the pinned acceptance stats — are
/// identical with and without a filter.
#[allow(clippy::too_many_arguments)]
pub(crate) fn plan_pair_core(
    net: &Network,
    target: NodeId,
    divisor: NodeId,
    space: &JointSpace,
    opts: &SubstOptions,
    stats: &mut SubstStats,
    shadow: Option<&ShadowBase>,
    sim: Option<&SimFilter>,
    tracer: Option<&mut Tracer>,
) -> Option<SubstPlan> {
    #[cfg(feature = "chaos")]
    crate::chaos::maybe_panic(crate::chaos::PanicSite::PairEntry);
    let f = space.cover_of(net, target);
    let d = space.cover_of(net, divisor);
    stats.divisions_tried += 1;

    // Refute-only screen of the SOP dividend: per cube, a witness pattern
    // with cube = 1 ∧ d = 0 disproves containment in any divisor cube
    // (kills the kept split of basic/GDC division and the cube's vote-table
    // row); cube = 1 ∧ d = 1 disproves containment in the complement.
    let screen = sim.map(|s| {
        let t0 = Instant::now();
        let sc = s.screen_cover(net, &f, &space.vars, divisor);
        stats.sim_nanos += crate::engine::nanos(t0);
        stats.sim_pairs_screened += 1;
        sc
    });
    let skip_sop = screen
        .as_ref()
        .is_some_and(CoverScreen::refutes_containment_in_divisor);
    let skip_compl = screen
        .as_ref()
        .is_some_and(CoverScreen::refutes_containment_in_complement);
    let mut ran_proof = false;

    // --- SOP basic division (local or GDC scope) ---
    let division = if skip_sop {
        None
    } else if opts.mode == SubstMode::ExtendedGdc {
        ran_proof = true;
        let shadow = shadow.expect("GDC proofs run on the target's prepared shadow");
        divide_in_network(net, divisor, space, &f, &d, &opts.division, shadow, stats)
    } else {
        ran_proof = true;
        let r = basic_divide_covers(&f, &d, &opts.division);
        r.succeeded().then_some((r.quotient, r.remainder))
    };
    if let Some((quotient, remainder)) = division {
        #[cfg(feature = "chaos")]
        let quotient = crate::chaos::corrupt_quotient(quotient);
        let (fanins, cover) = assemble(space, divisor, &quotient, &remainder, Phase::Pos);
        let gain = factored_gain(net, target, &cover);
        if gain > 0 {
            #[cfg(feature = "chaos")]
            let cover = crate::chaos::corrupt_cover(cover);
            return Some(SubstPlan::Replace {
                target,
                fanins,
                cover,
                gain,
                kind: PlanKind::Sop,
            });
        }
    }

    // --- SOP division by the divisor's complement (the `-d` flavour) ---
    // The complement is shared with the POS attempt below; divisors are
    // capped at `max_divisor_cubes`, so it is the cheap one of the pair.
    let mut d_compl_cache: Option<Cover> = None;
    if !skip_compl {
        let d_compl = &*d_compl_cache.insert(d.complement());
        if !d_compl.is_empty() && d_compl.len() <= opts.max_divisor_cubes.get() {
            ran_proof = true;
            let r = basic_divide_covers(&f, d_compl, &opts.division);
            if r.succeeded() {
                let (fanins, cover) =
                    assemble(space, divisor, &r.quotient, &r.remainder, Phase::Neg);
                let gain = factored_gain(net, target, &cover);
                if gain > 0 {
                    return Some(SubstPlan::Replace {
                        target,
                        fanins,
                        cover,
                        gain,
                        kind: PlanKind::SopCompl,
                    });
                }
            }
        }
    }

    // --- Extended division: decompose the divisor ---
    // A fully refuted dividend (skip_sop) cannot have any sos-valid
    // vote-table row, so extended division is skipped outright; otherwise
    // refuted cubes are masked out of the fault-check work.
    if opts.mode != SubstMode::Basic && !skip_sop {
        ran_proof = true;
        let ext = match &screen {
            Some(sc) => {
                stats.sim_ext_wires_skipped += sc.wit_div0.iter().filter(|&&w| w).count();
                crate::extended::extended_divide_covers_masked(&f, &d, &opts.division, &sc.wit_div0)
            }
            None => extended_divide_covers(&f, &d, &opts.division),
        };
        if let Some(ext) = ext {
            // Core == whole divisor means basic already covered it.
            if ext.core_cube_indices.len() < d.len() && ext.division.succeeded() {
                if let Some(plan) = plan_extended(net, target, divisor, space, &ext) {
                    return Some(SubstPlan::Extended(plan));
                }
            }
        }
    }

    // --- POS-form attempt ---
    if opts.try_pos {
        let fc = f.complement();
        let dc = d_compl_cache.unwrap_or_else(|| d.complement());
        if !dc.is_empty()
            && dc.len() <= opts.max_divisor_cubes.get()
            && fc.len() <= 4 * f.len().max(4)
        {
            // POS divides f' by d'. A kept cube of f' must lie inside a
            // cube of d', so a witness with f'-cube = 1 ∧ d = 1 refutes it
            // (a d'-cube at 1 forces d = 0): screening f' against d with
            // the div1 witnesses screens the POS kept split exactly.
            let pos_refuted = sim.is_some_and(|s| {
                let t0 = Instant::now();
                let sc = s.screen_cover(net, &fc, &space.vars, divisor);
                stats.sim_nanos += crate::engine::nanos(t0);
                sc.refutes_containment_in_complement()
            });
            if pos_refuted {
                return finish_unhelped(stats, sim.is_some(), ran_proof, tracer);
            }
            ran_proof = true;
            let r = pos_divide_precomplemented(&fc, &dc, &opts.division);
            if r.succeeded() {
                // f = (d + q)·r ⇔ f' = d'·q̃ + r̃; rebuild f as the
                // complement of the divided complement, with x_d'.
                let n = space.len();
                let mut compl_form = Cover::new(n + 1);
                for c in r.quotient_compl.cubes() {
                    let mut c = c.extended(n + 1);
                    c.restrict(Lit {
                        var: n,
                        phase: Phase::Neg,
                    });
                    compl_form.push(c);
                }
                compl_form.extend_cover(&r.remainder_compl.extended(n + 1));
                let new_cover = compl_form.complement();
                if new_cover.len() <= 4 * f.len().max(4) {
                    let mut fanins = space.vars.clone();
                    fanins.push(divisor);
                    let support = new_cover.support();
                    let kept: Vec<NodeId> = support.iter().map(|&v| fanins[v]).collect();
                    let mut map = vec![0usize; n + 1];
                    for (new_idx, &v) in support.iter().enumerate() {
                        map[v] = new_idx;
                    }
                    let new_cover = new_cover.remapped(kept.len(), &map);
                    let gain = factored_gain(net, target, &new_cover);
                    if gain > 0 {
                        return Some(SubstPlan::Replace {
                            target,
                            fanins: kept,
                            cover: new_cover,
                            gain,
                            kind: PlanKind::Pos,
                        });
                    }
                }
            }
        }
    }
    finish_unhelped(stats, sim.is_some(), ran_proof, tracer)
}

/// The mutating half of a substitution attempt: applies a plan produced
/// by [`plan_pair_core`], books the acceptance counters and the tracer
/// outcome, and returns the gain. A typed apply error (which a healthy
/// engine never produces) is booked as an engine fault; every apply site
/// is validate-then-mutate or internally rolled back, so the network is
/// unchanged on that path.
pub(crate) fn apply_plan(
    net: &mut Network,
    plan: SubstPlan,
    stats: &mut SubstStats,
    mut tracer: Option<&mut Tracer>,
) -> Option<i64> {
    match plan {
        SubstPlan::Replace {
            target,
            fanins,
            cover,
            gain,
            kind,
        } => {
            if net.replace_function(target, fanins, cover).is_err() {
                return fault_reject(stats, &mut tracer);
            }
            stats.substitutions += 1;
            stats.literal_gain += gain;
            match kind {
                PlanKind::Sop => {
                    note(&mut tracer, Outcome::AcceptedSop);
                    #[cfg(feature = "chaos")]
                    crate::chaos::maybe_panic(crate::chaos::PanicSite::PostApply);
                }
                PlanKind::SopCompl => note(&mut tracer, Outcome::AcceptedSop),
                PlanKind::Pos => {
                    stats.pos_substitutions += 1;
                    note(&mut tracer, Outcome::AcceptedPos);
                }
            }
            Some(gain)
        }
        SubstPlan::Extended(plan) => {
            let gain = plan.gain;
            if plan.apply(net).is_err() {
                return fault_reject(stats, &mut tracer);
            }
            stats.substitutions += 1;
            stats.extended_decompositions += 1;
            stats.literal_gain += gain;
            note(&mut tracer, Outcome::AcceptedExtended);
            Some(gain)
        }
    }
}

/// Books a pair that produced no gain: with a filter present it either
/// counts as a pure signature refutation (no proof stage ran) or as a
/// false pass (at least one proof ran and rejected — refinement fuel for
/// the engine). A pure refutation is noted on the tracer; a false pass
/// keeps the default no-gain outcome.
fn finish_unhelped(
    stats: &mut SubstStats,
    screened: bool,
    ran_proof: bool,
    mut tracer: Option<&mut Tracer>,
) -> Option<SubstPlan> {
    if screened {
        if ran_proof {
            stats.sim_false_passes += 1;
        } else {
            stats.sim_pairs_refuted += 1;
            note(&mut tracer, Outcome::RejectedSimRefuted);
        }
    }
    None
}

/// A planned extended-division rewrite: create the core node, re-express
/// the divisor as `core + rest`, substitute the core into the target.
/// Produced by [`plan_extended`]; applied with [`ExtendedPlan::apply`].
/// Splitting planning from application lets the sweep evaluate the gain
/// without mutating the network.
pub(crate) struct ExtendedPlan {
    /// Total factored-literal gain across target, divisor, and core
    /// (always positive — zero-gain plans are not produced).
    pub gain: i64,
    target: NodeId,
    divisor: NodeId,
    space_vars: Vec<NodeId>,
    core: Cover,
    rest: Cover,
    quotient: Cover,
    remainder: Cover,
}

impl ExtendedPlan {
    /// Applies the rewrite; returns the id of the fresh core node.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`boolsubst_network::NetworkError`] if any of
    /// the three edits is inapplicable (which a healthy engine never
    /// produces). The plan is applied transactionally: on error the partial
    /// edits are undone first, so the network is left exactly as it was —
    /// a fail-stop path must not become a silent partial mutation.
    pub fn apply(self, net: &mut Network) -> Result<NodeId, boolsubst_network::NetworkError> {
        let n = self.space_vars.len();
        let divisor_pre = {
            let node = net.node(self.divisor);
            node.cover().map(|c| (node.fanins().to_vec(), c.clone()))
        };
        let id_bound = net.id_bound();

        // 1. Core node over its support. Nothing mutated yet on error.
        let (core_fanins, core_local) = project(&self.core, &self.space_vars);
        let name = net.fresh_name();
        let m = net.add_node(name, core_fanins, core_local)?;

        // 2. Divisor = rest + x_core.
        let mut div_fanins = self.space_vars.clone();
        div_fanins.push(m);
        let mut div_cover = Cover::new(n + 1);
        for c in self.rest.cubes() {
            div_cover.push(c.extended(n + 1));
        }
        let mut xc = boolsubst_cube::Cube::universe(n + 1);
        xc.restrict(Lit::pos(n));
        div_cover.push(xc);
        let (kept, div_cover) = project(&div_cover, &div_fanins);
        if let Err(e) = net.replace_function(self.divisor, kept, div_cover) {
            // Only the fresh node exists; it has no fanouts yet.
            let _ = net.remove_node(m);
            net.truncate_dead_tail(id_bound);
            return Err(e);
        }

        // 3. Target = q·x_core + r.
        let mut tgt_fanins = self.space_vars;
        tgt_fanins.push(m);
        let mut tgt_cover = Cover::new(n + 1);
        for c in self.quotient.cubes() {
            let mut c = c.extended(n + 1);
            c.restrict(Lit::pos(n));
            tgt_cover.push(c);
        }
        tgt_cover.extend_cover(&self.remainder.extended(n + 1));
        let (kept, tgt_cover) = project(&tgt_cover, &tgt_fanins);
        if let Err(e) = net.replace_function(self.target, kept, tgt_cover) {
            // Undo the divisor rewrite, then drop the now-orphaned core.
            if let Some((fanins, cover)) = divisor_pre {
                let _ = net.replace_function(self.divisor, fanins, cover);
            }
            let _ = net.remove_node(m);
            net.truncate_dead_tail(id_bound);
            return Err(e);
        }
        Ok(m)
    }
}

/// Plans an extended-division rewrite; returns `None` when the total
/// factored-literal gain would not be positive.
fn plan_extended(
    net: &Network,
    target: NodeId,
    divisor: NodeId,
    space: &JointSpace,
    ext: &crate::extended::ExtendedDivision,
) -> Option<ExtendedPlan> {
    let d_cover = space.cover_of(net, divisor);
    let rest: Cover = Cover::from_cubes(
        space.len(),
        d_cover
            .cubes()
            .iter()
            .enumerate()
            .filter(|&(i, _c)| !ext.core_cube_indices.contains(&i))
            .map(|(_i, c)| c.clone())
            .collect(),
    );
    // New target function: q·x_core + r.
    let core = ext.core.clone();
    let quotient = ext.division.quotient.clone();
    let remainder = ext.division.remainder.clone();

    // Gain accounting (factored literals):
    //   target: old − new (new counts one literal per quotient cube for
    //           x_core);
    //   divisor: old − (rest + 1 literal for x_core);
    //   core node: −lits(core)  ... but those literals previously lived
    //   inside the divisor, so the divisor side nets to −1.
    let target_old = factored_literals(net.node(target).cover()?) as i64;
    let n = space.len();
    let mut new_target = Cover::new(n + 1);
    for c in quotient.cubes() {
        let mut c = c.extended(n + 1);
        c.restrict(Lit::pos(n));
        new_target.push(c);
    }
    new_target.extend_cover(&remainder.extended(n + 1));
    let target_new = factored_literals(&new_target) as i64;

    let divisor_old = factored_literals(net.node(divisor).cover()?) as i64;
    let mut new_divisor = Cover::new(n + 1);
    for c in rest.cubes() {
        new_divisor.push(c.extended(n + 1));
    }
    {
        let mut xc = boolsubst_cube::Cube::universe(n + 1);
        xc.restrict(Lit::pos(n));
        new_divisor.push(xc);
    }
    let divisor_new = factored_literals(&new_divisor) as i64;
    let core_cost = factored_literals(&core) as i64;

    let gain = (target_old - target_new) + (divisor_old - divisor_new) - core_cost;
    if gain <= 0 {
        return None;
    }

    Some(ExtendedPlan {
        gain,
        target,
        divisor,
        space_vars: space.vars.clone(),
        core,
        rest,
        quotient,
        remainder,
    })
}

/// Basic division with whole-network implication scope (the GDC mode):
/// materializes the full circuit with the target in the division
/// configuration, observes the primary outputs, and removes every provably
/// redundant region wire. The circuit is the target's `shadow` snapshot
/// patched with this pair's division structure; it is isomorphic to the
/// from-scratch [`NetworkRegion::build`](crate::netcircuit::NetworkRegion::build),
/// so the removal verdicts agree (pinned by the netcircuit tests).
#[allow(clippy::too_many_arguments)]
fn divide_in_network(
    net: &Network,
    divisor: NodeId,
    space: &JointSpace,
    f: &Cover,
    d: &Cover,
    opts: &DivisionOptions,
    shadow: &ShadowBase,
    stats: &mut SubstStats,
) -> Option<(Cover, Cover)> {
    let (kept, remainder) = crate::division::split_remainder(f, d);
    if kept.is_empty() {
        return None;
    }
    let mut region = shadow.region(net, divisor, space.vars.clone(), &kept, &remainder);
    let candidates = region.candidate_wires(&kept);
    let outcome = remove_redundant_wires_with(
        &mut region.netc.circuit,
        &candidates,
        &RemovalOptions {
            imply: opts.imply,
            exact_budget: opts.exact_budget,
            max_checks: opts.max_checks,
        },
        opts.max_passes.max(1) + 1,
    );
    stats.rar_checks += outcome.checks;
    if outcome.budget_exhausted {
        stats.check_budget_exhausted += 1;
    }
    let quotient = region.read_quotient();
    (!quotient.is_empty()).then_some((quotient, remainder))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use crate::verify::networks_equivalent;
    use boolsubst_cube::parse_sop;

    /// The paper's running example as a network: f = ab + ac + bc' with an
    /// existing node d = ab + c.
    fn paper_net() -> (Network, NodeId, NodeId) {
        let mut net = Network::new("paper");
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
        (net, f, d)
    }

    #[test]
    fn basic_substitution_beats_algebraic_on_paper_example() {
        let (mut net, f, _d) = paper_net();
        let before = net.clone();
        let stats = Session::new(&mut net, SubstOptions::basic()).run();
        assert!(stats.substitutions >= 1, "no substitution accepted");
        net.check_invariants();
        assert!(networks_equivalent(&before, &net), "function changed");
        // Paper: Boolean substitution reaches 4 literals for f
        // (f = (a + b)d), algebraic only 5.
        let f_lits = factored_literals(net.node(f).cover().expect("cover"));
        assert!(f_lits <= 4, "f has {f_lits} literals");
    }

    #[test]
    fn extended_decomposes_divisor() {
        // Paper Section I scenario: the ideal divisor ab + c does not
        // exist; instead a node d = ab + c + e does. Basic division cannot
        // exploit it (the extra cube e gets in the way), but extended
        // division extracts the core ab + c, decomposes d = core + e, and
        // rewrites f = core + z.
        let mut net = Network::new("ext");
        let a = net.add_input("a").expect("a");
        let b = net.add_input("b").expect("b");
        let c = net.add_input("c").expect("c");
        let e = net.add_input("e").expect("e");
        let z = net.add_input("z").expect("z");
        let f = net
            .add_node(
                "f",
                vec![a, b, c, z],
                parse_sop(4, "ab + c + d").expect("p"),
            )
            .expect("f");
        let d = net
            .add_node(
                "d",
                vec![a, b, c, e],
                parse_sop(4, "ab + c + d").expect("p"),
            )
            .expect("d");
        net.add_output("f", f).expect("o");
        net.add_output("d", d).expect("o");
        let before = net.clone();
        let stats = Session::new(&mut net, SubstOptions::extended()).run();
        net.check_invariants();
        assert!(networks_equivalent(&before, &net), "function changed");
        assert!(
            stats.extended_decompositions >= 1,
            "extended decomposition not used: {stats:?}"
        );
        assert!(stats.literal_gain >= 1);
        // A fresh core node must exist now.
        assert!(net.internal_ids().count() >= 3);
    }

    #[test]
    fn pos_substitution_found() {
        // f = (a + b)(c + d) as SOP; divisor g = (a + b) i.e. a + b.
        // SOP basic division works here too, so force the POS path by a
        // divisor only useful in POS form: f = (a+b)(c+d), d = a + b.
        // Note basic SOP division of f by d: kept cubes contained by a or
        // b... every cube (ac, ad, bc, bd) is contained by a or b, so SOP
        // division succeeds as well; accept either, but the result must
        // stay equivalent and smaller.
        let mut net = Network::new("pos");
        let a = net.add_input("a").expect("a");
        let b = net.add_input("b").expect("b");
        let c = net.add_input("c").expect("c");
        let d = net.add_input("d").expect("d");
        let f = net
            .add_node(
                "f",
                vec![a, b, c, d],
                parse_sop(4, "ac + ad + bc + bd").expect("p"),
            )
            .expect("f");
        let g = net
            .add_node("g", vec![a, b], parse_sop(2, "a + b").expect("p"))
            .expect("g");
        net.add_output("f", f).expect("o");
        net.add_output("g", g).expect("o");
        let before = net.clone();
        let stats = Session::new(&mut net, SubstOptions::basic()).run();
        assert!(stats.substitutions >= 1);
        net.check_invariants();
        assert!(networks_equivalent(&before, &net));
        let f_lits = factored_literals(net.node(f).cover().expect("cover"));
        assert!(f_lits <= 3, "f has {f_lits} literals");
    }

    #[test]
    fn gdc_mode_preserves_outputs() {
        let (mut net, ..) = paper_net();
        let before = net.clone();
        let stats = Session::new(&mut net, SubstOptions::extended_gdc()).run();
        net.check_invariants();
        assert!(
            networks_equivalent(&before, &net),
            "GDC mode changed an output function"
        );
        assert!(stats.substitutions >= 1);
    }

    #[test]
    fn no_substitution_into_unrelated_nodes() {
        let mut net = Network::new("unrelated");
        let a = net.add_input("a").expect("a");
        let b = net.add_input("b").expect("b");
        let c = net.add_input("c").expect("c");
        let d = net.add_input("d").expect("d");
        let f = net
            .add_node("f", vec![a, b], parse_sop(2, "ab").expect("p"))
            .expect("f");
        let g = net
            .add_node("g", vec![c, d], parse_sop(2, "a + b").expect("p"))
            .expect("g");
        net.add_output("f", f).expect("o");
        net.add_output("g", g).expect("o");
        let stats = Session::new(&mut net, SubstOptions::extended()).run();
        assert_eq!(stats.substitutions, 0);
    }
}
