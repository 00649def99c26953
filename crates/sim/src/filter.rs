//! The engine-facing filter: screening and counterexample refinement.

use crate::pool::{xorshift, PatternPool};
use crate::table::SimTable;
use crate::SimConfig;
use boolsubst_cube::{Cover, Phase};
use boolsubst_metrics::{Counter, MetricsHandle};
use boolsubst_network::{EvalScratch, Network, NodeId, SideTables};
use std::collections::HashMap;

/// Instruments resolved once at [`SimFilter::attach_metrics`] time.
/// Counters are atomic, so the read-only screening surface can book
/// screens through `&self`. Observation only — screen verdicts are
/// unaffected.
#[derive(Debug, Clone)]
struct SimMetrics {
    screens: Counter,
    refine_attempts: Counter,
    refinements: Counter,
}

/// Per-cube witness flags for one `(cover, divisor)` screen.
///
/// For cube `c` of the screened cover, `wit_div0[i]` records that some
/// pool pattern sets `c = 1` while the divisor evaluates to 0 — a
/// counterexample to "`c` is contained in a cube of the divisor", since a
/// containing cube would force the divisor on wherever `c` holds.
/// `wit_div1[i]` is the symmetric witness against containment in a cube
/// of the divisor's *complement*.
#[derive(Debug, Clone)]
pub struct CoverScreen {
    /// Witness `cube = 1 ∧ divisor = 0` found, per cube.
    pub wit_div0: Vec<bool>,
    /// Witness `cube = 1 ∧ divisor = 1` found, per cube.
    pub wit_div1: Vec<bool>,
}

impl CoverScreen {
    /// Every cube carries a `divisor = 0` witness: the whole cover is
    /// provably not contained cube-wise in the divisor, so the kept split
    /// of a basic (or extended) division against this divisor is empty.
    #[must_use]
    pub fn refutes_containment_in_divisor(&self) -> bool {
        self.wit_div0.iter().all(|&w| w)
    }

    /// Every cube carries a `divisor = 1` witness: symmetric refutation
    /// against the divisor's complement.
    #[must_use]
    pub fn refutes_containment_in_complement(&self) -> bool {
        self.wit_div1.iter().all(|&w| w)
    }
}

/// The engine's simulation filter: pattern pool, signature table, and the
/// counterexample-refinement machinery, behind one façade.
#[derive(Debug, Clone)]
pub struct SimFilter {
    config: SimConfig,
    pool: PatternPool,
    table: SimTable,
    scratch: EvalScratch,
    rng: u64,
    refinements: usize,
    /// Refinement *attempts*, successful or not. Bounded separately from
    /// `refinements` so that pairs whose witness genuinely does not exist
    /// (e.g. true containments that merely yielded no gain) cannot burn
    /// justification and simulation work on every false pass.
    attempts: usize,
    /// Lowest signature word invalidated by pool growth since the last
    /// [`SimFilter::flush`].
    pending_from: Option<usize>,
    metrics: Option<SimMetrics>,
}

impl SimFilter {
    /// Builds the pool and simulates the network.
    ///
    /// # Panics
    ///
    /// Panics if `config.exhaustive` is set and the network has more than
    /// 16 primary inputs.
    #[must_use]
    pub fn new(net: &Network, config: &SimConfig) -> SimFilter {
        let n = net.inputs().len();
        let pool = if config.exhaustive {
            PatternPool::exhaustive(n)
        } else {
            let reserve = config.reserve_words.min(config.words.saturating_sub(1));
            let base = config.words.max(1) - reserve;
            PatternPool::random(n, base, reserve, config.seed)
        };
        let table = SimTable::build(net, &pool);
        SimFilter {
            config: *config,
            pool,
            table,
            scratch: EvalScratch::default(),
            rng: config.seed ^ 0x9E37_79B9_7F4A_7C15,
            refinements: 0,
            attempts: 0,
            pending_from: None,
            metrics: None,
        }
    }

    /// Attaches a metrics registry: every subsequent screen books
    /// `sim.screens`, and refinement work books
    /// `sim.refine_attempts` / `sim.refinements` (pool growth).
    pub fn attach_metrics(&mut self, handle: &MetricsHandle) {
        self.metrics = Some(SimMetrics {
            screens: handle.counter("sim.screens"),
            refine_attempts: handle.counter("sim.refine_attempts"),
            refinements: handle.counter("sim.refinements"),
        });
    }

    /// Number of patterns currently in the pool.
    #[must_use]
    pub fn patterns(&self) -> usize {
        self.pool.patterns()
    }

    /// Signature width in words.
    #[must_use]
    pub fn words(&self) -> usize {
        self.pool.words()
    }

    /// Number of counterexample patterns harvested so far.
    #[must_use]
    pub fn refinements(&self) -> usize {
        self.refinements
    }

    /// The pattern pool behind the filter (validity masks for the
    /// signature-class index).
    pub(crate) fn pool(&self) -> &PatternPool {
        &self.pool
    }

    /// Direct access to a node's signature (primarily for tests).
    ///
    /// # Panics
    ///
    /// Panics if the table is stale.
    #[must_use]
    pub fn node_sig(&self, net: &Network, id: NodeId) -> &[u64] {
        self.table.sig(net, id)
    }

    /// Re-simulates the tail words invalidated by harvested patterns.
    /// Must be called before screening once patterns were added; a no-op
    /// otherwise.
    pub fn flush(&mut self, net: &Network) {
        if let Some(from) = self.pending_from.take() {
            self.table.resim_tail(net, &self.pool, from);
        }
    }

    /// Patches the signature table after an engine edit; `side` must
    /// already be synchronised. `seeds` are the rewired node ids. Returns
    /// the ids whose signature row actually changed (see
    /// [`SimTable::patch`]) so derived indexes can re-key exactly those.
    pub fn patch(&mut self, net: &Network, side: &SideTables, seeds: &[NodeId]) -> Vec<NodeId> {
        self.table.patch(net, side, &self.pool, seeds)
    }

    /// True when no harvested patterns are pending a [`SimFilter::flush`]
    /// — i.e. every cached signature word is current. Signature-class
    /// indexes must only be (re)built in this state, or bucket keys would
    /// bake in rotten tail words.
    #[must_use]
    pub fn is_flushed(&self) -> bool {
        self.pending_from.is_none()
    }

    /// Integrity audit (checked mode): re-derives each given node's cached
    /// signature row from its fanins' rows and compares. Returns false if
    /// any row has rotted — corruption the version-stamp protocol cannot
    /// see, because no edit happened.
    ///
    /// # Panics
    ///
    /// Panics if the table is stale or patterns are pending a
    /// [`SimFilter::flush`].
    #[must_use]
    pub fn audit(&self, net: &Network, ids: &[NodeId]) -> bool {
        assert!(self.pending_from.is_none(), "flush() patterns first");
        ids.iter().all(|&id| self.table.audit(net, &self.pool, id))
    }

    /// Rebuilds the signature table from scratch (deterministic repair
    /// after a failed audit; the pool, including harvested counterexample
    /// patterns, is kept).
    pub fn rebuild(&mut self, net: &Network) {
        self.pending_from = None;
        self.table = SimTable::build(net, &self.pool);
    }

    /// Flips one in-pool signature bit of `id` (fault injection for the
    /// chaos suite; see [`SimTable::chaos_poison`]).
    #[cfg(feature = "chaos")]
    pub fn chaos_poison_signature(&mut self, id: NodeId, pattern: usize) {
        let p = pattern % self.pool.patterns().max(1);
        self.table.chaos_poison(id, p);
    }

    /// Screens `cover` (over variables `vars`, e.g. a joint-space dividend
    /// or a node's local cover over its fanins) against `divisor`'s
    /// signature. Refute-only: a set flag is a proof, a clear flag means
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if the table is stale or patterns are pending a
    /// [`SimFilter::flush`].
    #[must_use]
    pub fn screen_cover(
        &self,
        net: &Network,
        cover: &Cover,
        vars: &[NodeId],
        divisor: NodeId,
    ) -> CoverScreen {
        assert!(self.pending_from.is_none(), "flush() patterns first");
        if let Some(m) = &self.metrics {
            m.screens.inc();
        }
        let words = self.pool.words();
        let d = self.table.sig(net, divisor);
        let mut wit_div0 = vec![false; cover.len()];
        let mut wit_div1 = vec![false; cover.len()];
        for (ci, cube) in cover.cubes().iter().enumerate() {
            let mut w0 = false;
            let mut w1 = false;
            'words: for (w, &dw) in d.iter().enumerate().take(words) {
                // Start from the validity mask so complemented literals
                // cannot leak set bits beyond the pool.
                let mut acc = self.pool.mask(w);
                if acc == 0 {
                    continue;
                }
                for lit in cube.lits() {
                    let s = self.table.sig(net, vars[lit.var])[w];
                    acc &= match lit.phase {
                        Phase::Pos => s,
                        Phase::Neg => !s,
                    };
                    if acc == 0 {
                        continue 'words;
                    }
                }
                w0 |= acc & !dw != 0;
                w1 |= acc & dw != 0;
                if w0 && w1 {
                    break;
                }
            }
            wit_div0[ci] = w0;
            wit_div1[ci] = w1;
        }
        CoverScreen { wit_div0, wit_div1 }
    }

    /// Counterexample-guided refinement after a *false pass*: the screen
    /// let the pair `(target, divisor)` through, but the full check
    /// rejected it. Tries to harvest one input pattern that sets an
    /// unwitnessed cube of `target` to 1 with `divisor` at 0, so the next
    /// screen of a similar pair refutes without proof work.
    ///
    /// Justification is greedy and bounded; every candidate pattern is
    /// verified by simulation before entering the pool, so a wrong guess
    /// costs a miss, never soundness. Returns true if the pool grew.
    pub fn refine_from_false_pass(
        &mut self,
        net: &Network,
        target: NodeId,
        divisor: NodeId,
    ) -> bool {
        if self.refinements >= self.config.max_refinements
            || self.attempts >= self.config.max_refinements
            || self.pool.patterns() >= self.pool.capacity()
        {
            return false;
        }
        self.attempts += 1;
        if let Some(m) = &self.metrics {
            m.refine_attempts.inc();
        }
        self.flush(net);
        let node = net.node(target);
        let Some(cover) = node.cover() else {
            return false;
        };
        let fanins = node.fanins().to_vec();
        let screen = self.screen_cover(net, cover, &fanins, divisor);
        let Some(ci) = screen.wit_div0.iter().position(|&w| !w) else {
            return false;
        };
        let cube = cover.cubes()[ci].clone();

        // Justify "cube = 1" backwards to the primary inputs.
        let mut desired: HashMap<NodeId, bool> = HashMap::new();
        let mut budget = 256usize;
        for lit in cube.lits() {
            let want = matches!(lit.phase, Phase::Pos);
            if !justify(net, fanins[lit.var], want, &mut desired, &mut budget) {
                return false;
            }
        }

        // Fill the unconstrained inputs randomly and verify by simulation:
        // accept only a pattern that really exhibits cube = 1 ∧ d = 0.
        let n = net.inputs().len();
        for _ in 0..2 {
            let inputs: Vec<bool> = net
                .inputs()
                .iter()
                .map(|pi| {
                    desired
                        .get(pi)
                        .copied()
                        .unwrap_or_else(|| xorshift(&mut self.rng) & 1 == 1)
                })
                .collect();
            debug_assert_eq!(inputs.len(), n);
            let values = net.eval_into(&inputs, &mut self.scratch);
            let cube_on = cube
                .lits()
                .all(|l| values[fanins[l.var].index()] == matches!(l.phase, Phase::Pos));
            if cube_on && !values[divisor.index()] {
                if let Some(w) = self.pool.add_pattern(&inputs) {
                    self.pending_from = Some(self.pending_from.map_or(w, |p| p.min(w)));
                    self.refinements += 1;
                    if let Some(m) = &self.metrics {
                        m.refinements.inc();
                    }
                    return true;
                }
                return false;
            }
        }
        false
    }
}

/// A frozen, read-only screening view over a [`SimFilter`], used by the
/// best-gain dry runs.
///
/// The view exposes exactly the filter surface whose answers are pure
/// functions of the shared state — the signature table over the shared
/// [`PatternPool`] — and none of the mutating machinery (flush, patch,
/// refinement). Construction asserts that no harvested patterns are
/// pending, so every screen taken through the view is identical to one
/// taken through the filter itself at freeze time.
#[derive(Debug, Clone, Copy)]
pub struct SimView<'a> {
    filter: &'a SimFilter,
}

impl<'a> SimView<'a> {
    /// Freezes `filter` for shared read-only screening.
    ///
    /// # Panics
    ///
    /// Panics if patterns are pending a [`SimFilter::flush`] — a frozen
    /// view of an unflushed filter would screen against rotten tails.
    #[must_use]
    pub fn freeze(filter: &'a SimFilter) -> SimView<'a> {
        assert!(filter.pending_from.is_none(), "flush() patterns first");
        SimView { filter }
    }

    /// Read-only [`SimFilter::screen_cover`] against the frozen state.
    #[must_use]
    pub fn screen_cover(
        &self,
        net: &Network,
        cover: &Cover,
        vars: &[NodeId],
        divisor: NodeId,
    ) -> CoverScreen {
        self.filter.screen_cover(net, cover, vars, divisor)
    }

    /// The underlying filter, for call sites that only hold the view.
    #[must_use]
    pub fn filter(&self) -> &'a SimFilter {
        self.filter
    }
}

/// Greedy bounded backward justification of `node = value`. Records the
/// chosen assignments in `desired`; conflicts or an exhausted budget fail
/// the whole attempt (the caller's simulation check is the safety net).
fn justify(
    net: &Network,
    node: NodeId,
    value: bool,
    desired: &mut HashMap<NodeId, bool>,
    budget: &mut usize,
) -> bool {
    if *budget == 0 {
        return false;
    }
    *budget -= 1;
    if let Some(&v) = desired.get(&node) {
        return v == value;
    }
    desired.insert(node, value);
    let n = net.node(node);
    let Some(cover) = n.cover() else {
        return true; // primary input: freely assignable
    };
    let fanins = n.fanins();
    if value {
        // Satisfy the first cube (greedy: no backtracking across cubes).
        let Some(cube) = cover.cubes().first() else {
            return false; // constant-0 node cannot be driven to 1
        };
        cube.lits().all(|l| {
            justify(
                net,
                fanins[l.var],
                matches!(l.phase, Phase::Pos),
                desired,
                budget,
            )
        })
    } else {
        // Falsify every cube: find or create one opposing literal each.
        'cubes: for cube in cover.cubes() {
            for l in cube.lits() {
                let want = matches!(l.phase, Phase::Pos);
                if desired.get(&fanins[l.var]) == Some(&!want) {
                    continue 'cubes;
                }
            }
            for l in cube.lits() {
                let want = matches!(l.phase, Phase::Pos);
                if !desired.contains_key(&fanins[l.var])
                    && justify(net, fanins[l.var], !want, desired, budget)
                {
                    continue 'cubes;
                }
            }
            return false; // cube forced on by prior choices
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolsubst_cube::parse_sop;

    /// f is a single wide cube over eight inputs and g = a', so `f = 1`
    /// forces `g = 0`: the div0 witness exists only where all eight
    /// inputs are 1 — rare enough (1 in 256) that a small random pool
    /// plausibly misses it.
    fn craft() -> (Network, NodeId, NodeId) {
        let mut net = Network::new("craft");
        let pis: Vec<NodeId> = ('a'..='h')
            .map(|c| net.add_input(c.to_string()).expect("pi"))
            .collect();
        let f = net
            .add_node("t", pis.clone(), parse_sop(8, "abcdefgh").expect("p"))
            .expect("t");
        let g = net
            .add_node("dvr", vec![pis[0]], parse_sop(1, "a'").expect("p"))
            .expect("dvr");
        net.add_output("t", f).expect("of");
        net.add_output("dvr", g).expect("og");
        (net, f, g)
    }

    #[test]
    fn exhaustive_screen_is_exact_on_craft() {
        let (net, f, g) = craft();
        let filter = SimFilter::new(&net, &SimConfig::exhaustive());
        let cover = net.node(f).cover().expect("cover").clone();
        let fanins = net.node(f).fanins().to_vec();
        let screen = filter.screen_cover(&net, &cover, &fanins, g);
        // abc = 1 forces g = a' = 0: the div0 witness exists, div1 cannot.
        assert!(screen.refutes_containment_in_divisor());
        assert!(!screen.refutes_containment_in_complement());
    }

    #[test]
    fn refinement_grows_pool_when_witness_missing() {
        let (net, f, g) = craft();
        // One seeded word, one reserve word. Seed chosen so the 64 random
        // patterns miss a = b = c = 1 (verified by the assert below).
        let config = SimConfig {
            words: 2,
            reserve_words: 1,
            seed: 0x00C0_FFEE,
            ..SimConfig::default()
        };
        let mut filter = SimFilter::new(&net, &config);
        let cover = net.node(f).cover().expect("cover").clone();
        let fanins = net.node(f).fanins().to_vec();
        let before = filter.screen_cover(&net, &cover, &fanins, g);
        assert!(
            !before.refutes_containment_in_divisor(),
            "seed must miss the witness for this regression test"
        );
        let patterns_before = filter.patterns();
        assert!(filter.refine_from_false_pass(&net, f, g));
        assert_eq!(filter.patterns(), patterns_before + 1);
        filter.flush(&net);
        let after = filter.screen_cover(&net, &cover, &fanins, g);
        assert!(
            after.refutes_containment_in_divisor(),
            "harvested pattern must sharpen the screen"
        );
    }
}
