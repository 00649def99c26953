//! Incrementally maintained structural side tables for sweep sessions.
//!
//! [`Network`] answers structural queries (`fanouts`, `tfo`, `topo_order`)
//! by recomputing them from scratch — fine for one-shot calls, quadratic
//! when a substitution sweep asks them once per candidate pair. A
//! [`SideTables`] instance is built once per session and then *patched*
//! after each accepted edit instead of rebuilt:
//!
//! - **fanout lists** are updated edge-by-edge from the fanin diff;
//! - **levels** (longest path from the inputs) are repaired with a
//!   worklist that only visits the region whose level actually changed;
//! - **one prepared transitive fanout** — the sweep only ever asks "is
//!   `d` in TFO(target)?" for the target it is visiting, so a single slot
//!   holds that target's TFO set. [`SideTables::tfo`] fills it,
//!   [`SideTables::in_tfo`] reads it through `&self` (shareable with
//!   worker threads), and an edit drops it only when a changed edge could
//!   have been reachable from the prepared node.
//!
//! Staleness is a real hazard for this kind of cache, so every query
//! asserts that the tables were synchronised with the network's current
//! [`Network::version`], and [`SideTables::in_tfo`] asserts that the slot
//! was prepared for the node it is asked about. Forgetting to call
//! [`SideTables::sync_new_nodes`] / [`SideTables::apply_replace`] after an
//! edit, or [`SideTables::tfo`] before a query, is a panic, not a wrong
//! answer.

use crate::net::{Network, NodeId};
use std::collections::HashSet;

/// The version-checked synchronisation stamp shared by every incremental
/// side structure ([`SideTables`], the simulation signature table in
/// `boolsubst-sim`, ...).
///
/// A stamp records the [`Network::version`] its owner was last
/// synchronised with. Queries call [`VersionStamp::check`] so that a
/// forgotten patch is a panic instead of a silently wrong answer; patch
/// routines call [`VersionStamp::mark`] once the owner is up to date.
#[derive(Debug, Clone, Copy)]
pub struct VersionStamp {
    synced: u64,
}

impl VersionStamp {
    /// A stamp synchronised with the network's current state.
    #[must_use]
    pub fn new(net: &Network) -> VersionStamp {
        VersionStamp {
            synced: net.version(),
        }
    }

    /// True if no edit has happened since the last [`VersionStamp::mark`].
    #[must_use]
    pub fn is_synced(&self, net: &Network) -> bool {
        self.synced == net.version()
    }

    /// Asserts freshness; `what` names the owning structure in the panic.
    ///
    /// # Panics
    ///
    /// Panics if the network was edited since the last synchronisation.
    pub fn check(&self, net: &Network, what: &str) {
        assert_eq!(
            self.synced,
            net.version(),
            "{what} out of sync: network was edited without patching"
        );
    }

    /// Records that the owner is synchronised with the current version.
    pub fn mark(&mut self, net: &Network) {
        self.synced = net.version();
    }
}

/// Session-lifetime caches of fanouts, levels, and the prepared transitive
/// fanout.
///
/// See the module docs for the maintenance contract. All dense tables are
/// indexed by [`NodeId::index`].
#[derive(Debug, Clone)]
pub struct SideTables {
    /// Stamp recording the `Network::version` these tables reflect.
    stamp: VersionStamp,
    fanouts: Vec<Vec<NodeId>>,
    levels: Vec<u32>,
    /// The prepared slot: a node and its transitive fanout (excluding the
    /// node itself), filled by [`SideTables::tfo`].
    tfo: Option<(NodeId, HashSet<NodeId>)>,
}

// The parallel sweep shares `&SideTables` (and `&Network`) across worker
// threads; neither type may grow interior mutability without revisiting
// that design. Compile-time pin:
const _: fn() = || {
    fn sync_only<T: Sync>() {}
    sync_only::<SideTables>();
    sync_only::<Network>();
};

impl SideTables {
    /// Builds the tables from scratch for the network's current state.
    #[must_use]
    pub fn build(net: &Network) -> SideTables {
        let fanouts = net.fanouts();
        let levels = compute_levels(net, &fanouts);
        SideTables {
            stamp: VersionStamp::new(net),
            fanouts,
            levels,
            tfo: None,
        }
    }

    fn assert_synced(&self, net: &Network) {
        self.stamp.check(net, "SideTables");
    }

    /// True if no edit has happened since the last synchronisation.
    #[must_use]
    pub fn is_synced(&self, net: &Network) -> bool {
        self.stamp.is_synced(net)
    }

    /// Fanout list of `id` (nodes that list `id` as a fanin).
    ///
    /// # Panics
    ///
    /// Panics if the tables are stale.
    #[must_use]
    pub fn fanouts(&self, net: &Network, id: NodeId) -> &[NodeId] {
        self.assert_synced(net);
        &self.fanouts[id.index()]
    }

    /// Longest-path depth of `id` from the primary inputs (inputs and
    /// constant nodes are level 0). Along every edge `u -> v`,
    /// `level(u) < level(v)`, so `level(d) <= level(t)` proves `d` is not
    /// in the transitive fanout of `t`.
    ///
    /// # Panics
    ///
    /// Panics if the tables are stale.
    #[must_use]
    pub fn level(&self, net: &Network, id: NodeId) -> u32 {
        self.assert_synced(net);
        self.levels[id.index()]
    }

    /// Transitive fanout of `of` (excluding `of` itself), prepared in the
    /// slot [`SideTables::in_tfo`] reads. Recomputed only when the slot
    /// holds another node or an edit dropped it.
    ///
    /// # Panics
    ///
    /// Panics if the tables are stale.
    pub fn tfo(&mut self, net: &Network, of: NodeId) -> &HashSet<NodeId> {
        self.assert_synced(net);
        if self.prepared() != Some(of) {
            let mut seen = HashSet::new();
            let mut stack: Vec<NodeId> = self.fanouts[of.index()].clone();
            while let Some(n) = stack.pop() {
                if seen.insert(n) {
                    stack.extend(self.fanouts[n.index()].iter().copied());
                }
            }
            self.tfo = Some((of, seen));
        }
        &self.tfo.as_ref().expect("slot filled above").1
    }

    /// True if `node` lies in the transitive fanout of `of`. The level
    /// table short-circuits; otherwise the answer comes from the slot
    /// [`SideTables::tfo`] prepared for `of`.
    ///
    /// # Panics
    ///
    /// Panics if the tables are stale, or if the slot is empty or was
    /// prepared for a node other than `of`.
    #[must_use]
    pub fn in_tfo(&self, net: &Network, node: NodeId, of: NodeId) -> bool {
        self.assert_synced(net);
        let Some((_, set)) = self.tfo.as_ref().filter(|(prepared, _)| *prepared == of) else {
            panic!("SideTables::in_tfo: transitive fanout of {of} was not prepared");
        };
        self.levels[node.index()] > self.levels[of.index()] && set.contains(&node)
    }

    /// Extends the tables over nodes created since the last
    /// synchronisation (ids at or past the previous bound). Must be called
    /// before [`SideTables::apply_replace`] when an edit both adds nodes
    /// and rewires an existing one.
    pub fn sync_new_nodes(&mut self, net: &Network) {
        let old_bound = self.fanouts.len();
        if net.id_bound() == old_bound {
            self.stamp.mark(net);
            return;
        }
        self.fanouts.resize(net.id_bound(), Vec::new());
        self.levels.resize(net.id_bound(), 0);
        let mut touched: HashSet<NodeId> = HashSet::new();
        for idx in old_bound..net.id_bound() {
            let id = NodeId(idx);
            let Some(node) = net.node_opt(id) else {
                continue;
            };
            for &f in node.fanins() {
                self.fanouts[f.index()].push(id);
                touched.insert(f);
            }
            // Fanins of a fresh node already exist, so its level is final.
            self.levels[idx] = node
                .fanins()
                .iter()
                .map(|f| self.levels[f.index()] + 1)
                .max()
                .unwrap_or(0);
        }
        // A prepared TFO that reaches a new node's fanin now also reaches
        // the new node: drop it.
        self.drop_tfo_touching(&touched);
        self.stamp.mark(net);
    }

    /// Patches the tables after `net.replace_function(id, ...)` succeeded.
    /// `old_fanins` is the fanin list captured *before* the edit.
    ///
    /// Repairs fanout lists from the fanin diff, relevels the affected
    /// downstream region, and drops the prepared TFO only if it could see a
    /// changed edge.
    pub fn apply_replace(&mut self, net: &Network, id: NodeId, old_fanins: &[NodeId]) {
        let new_fanins = net.node(id).fanins();
        for &f in old_fanins {
            if !new_fanins.contains(&f) {
                self.fanouts[f.index()].retain(|&o| o != id);
            }
        }
        for &f in new_fanins {
            if !old_fanins.contains(&f) {
                self.fanouts[f.index()].push(id);
            }
        }
        // Relevel: only nodes whose level actually changes propagate.
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            let node = net.node(n);
            let lvl = node
                .fanins()
                .iter()
                .map(|f| self.levels[f.index()] + 1)
                .max()
                .unwrap_or(0);
            if self.levels[n.index()] != lvl {
                self.levels[n.index()] = lvl;
                stack.extend(self.fanouts[n.index()].iter().copied());
            }
        }
        // The prepared TFO changes only if a changed edge `f -> id` was (or
        // now is) reachable from the prepared node, i.e. `f` is the node
        // itself or in its set.
        let mut touched: HashSet<NodeId> = old_fanins
            .iter()
            .chain(new_fanins.iter())
            .copied()
            .collect();
        touched.insert(id);
        self.drop_tfo_touching(&touched);
        self.stamp.mark(net);
    }

    /// Patches the tables after `net.remove_node(id)` succeeded. The node
    /// had no fanouts, so only its fanins' fanout lists shrink; levels and
    /// other nodes' TFO sets are unaffected (a prepared set may retain the
    /// dead id, which is harmless — nothing can name it as a divisor or
    /// target).
    pub fn apply_remove(&mut self, net: &Network, id: NodeId, old_fanins: &[NodeId]) {
        for &f in old_fanins {
            self.fanouts[f.index()].retain(|&o| o != id);
        }
        if self.prepared() == Some(id) {
            self.tfo = None;
        }
        self.stamp.mark(net);
    }

    /// The node the TFO slot is prepared for, if any.
    fn prepared(&self) -> Option<NodeId> {
        self.tfo.as_ref().map(|(of, _)| *of)
    }

    /// Drops the prepared TFO if its node or set meets a changed-edge
    /// endpoint in `touched`.
    fn drop_tfo_touching(&mut self, touched: &HashSet<NodeId>) {
        if self.tfo.as_ref().is_some_and(|(of, set)| {
            touched.contains(of) || touched.iter().any(|t| set.contains(t))
        }) {
            self.tfo = None;
        }
    }
}

/// Longest-path levels via one pass over a topological order.
fn compute_levels(net: &Network, fanouts: &[Vec<NodeId>]) -> Vec<u32> {
    let mut levels = vec![0u32; net.id_bound()];
    let mut indegree = vec![0usize; net.id_bound()];
    let mut queue: Vec<NodeId> = Vec::new();
    for id in net.node_ids() {
        indegree[id.index()] = net.node(id).fanins().len();
        if indegree[id.index()] == 0 {
            queue.push(id);
        }
    }
    while let Some(id) = queue.pop() {
        for &o in &fanouts[id.index()] {
            let lvl = levels[id.index()] + 1;
            if lvl > levels[o.index()] {
                levels[o.index()] = lvl;
            }
            indegree[o.index()] -= 1;
            if indegree[o.index()] == 0 {
                queue.push(o);
            }
        }
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolsubst_cube::parse_sop;

    /// a, b, c inputs; g = ab; h = g + c; k = h·a.
    fn chain() -> (Network, Vec<NodeId>) {
        let mut net = Network::new("chain");
        let a = net.add_input("a").expect("a");
        let b = net.add_input("b").expect("b");
        let c = net.add_input("c").expect("c");
        let g = net
            .add_node("g", vec![a, b], parse_sop(2, "ab").expect("p"))
            .expect("g");
        let h = net
            .add_node("h", vec![g, c], parse_sop(2, "a + b").expect("p"))
            .expect("h");
        let k = net
            .add_node("k", vec![h, a], parse_sop(2, "ab").expect("p"))
            .expect("k");
        net.add_output("k", k).expect("out");
        (net, vec![a, b, c, g, h, k])
    }

    fn assert_matches_fresh(side: &mut SideTables, net: &Network) {
        let fresh = net.fanouts();
        for id in net.node_ids() {
            let mut got = side.fanouts(net, id).to_vec();
            let mut want = fresh[id.index()].clone();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "fanouts of {id}");
            let got_tfo: HashSet<NodeId> = side.tfo(net, id).clone();
            let want_tfo: HashSet<NodeId> = net.tfo(id).into_iter().collect();
            assert_eq!(got_tfo, want_tfo, "tfo of {id}");
        }
        // Level invariant: strictly increasing along every edge.
        for id in net.node_ids() {
            for &f in net.node(id).fanins() {
                assert!(
                    side.level(net, f) < side.level(net, id),
                    "level edge {f}->{id}"
                );
            }
        }
    }

    #[test]
    fn build_matches_recompute() {
        let (net, ids) = chain();
        let mut side = SideTables::build(&net);
        assert_matches_fresh(&mut side, &net);
        assert_eq!(side.level(&net, ids[0]), 0); // a
        assert_eq!(side.level(&net, ids[3]), 1); // g
        assert_eq!(side.level(&net, ids[4]), 2); // h
        assert_eq!(side.level(&net, ids[5]), 3); // k
    }

    #[test]
    fn stale_queries_panic() {
        let (mut net, ids) = chain();
        let side = SideTables::build(&net);
        net.replace_function(ids[3], vec![ids[0]], parse_sop(1, "a").expect("p"))
            .expect("replace");
        assert!(!side.is_synced(&net));
        let result = std::panic::catch_unwind(|| side.fanouts(&net, ids[0]).len());
        assert!(result.is_err(), "stale query must panic");
    }

    #[test]
    fn apply_replace_matches_fresh_build() {
        let (mut net, ids) = chain();
        let (a, _b, c, g, h, _k) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]);
        let mut side = SideTables::build(&net);
        // Prepare g's slot so the drop is exercised: g -> h is rewired
        // away, and a stale slot would still list h and k below.
        side.tfo(&net, g);
        // Rewire h from {g, c} to {a, c}: drops edge g->h, adds a->h.
        let old = net.node(h).fanins().to_vec();
        net.replace_function(h, vec![a, c], parse_sop(2, "ab").expect("p"))
            .expect("replace");
        side.apply_replace(&net, h, &old);
        // g no longer reaches anything.
        assert!(side.tfo(&net, g).is_empty());
        assert_matches_fresh(&mut side, &net);
    }

    #[test]
    fn sync_new_nodes_extends_and_drops_a_touched_slot() {
        let (mut net, ids) = chain();
        let (a, b, c, h) = (ids[0], ids[1], ids[2], ids[4]);
        let mut side = SideTables::build(&net);
        // h does not reach a or b: a node hanging off them leaves the slot.
        side.tfo(&net, h);
        let m = net
            .add_node("m", vec![a, b], parse_sop(2, "a + b").expect("p"))
            .expect("m");
        side.sync_new_nodes(&net);
        assert_eq!(side.prepared(), Some(h), "untouched slot survives");
        assert!(!side.in_tfo(&net, m, h));
        // a reaches the new node's fanin: preparing it sees m.
        assert!(side.tfo(&net, a).contains(&m));
        // A node hanging off h itself drops h's slot.
        side.tfo(&net, h);
        let n = net
            .add_node("n", vec![h, c], parse_sop(2, "ab").expect("p"))
            .expect("n");
        side.sync_new_nodes(&net);
        assert_eq!(side.prepared(), None, "touched slot is dropped");
        assert!(side.tfo(&net, h).contains(&n));
        assert_matches_fresh(&mut side, &net);
    }

    #[test]
    fn apply_replace_keeps_an_untouched_slot_and_drops_a_touched_one() {
        let (mut net, ids) = chain();
        let (a, b, c, g, h, k) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]);
        let mut side = SideTables::build(&net);
        // k has an empty TFO and is no changed-edge endpoint of g's rewire.
        side.tfo(&net, k);
        let old = net.node(g).fanins().to_vec();
        net.replace_function(g, vec![a, b], parse_sop(2, "a + b").expect("p"))
            .expect("replace");
        side.apply_replace(&net, g, &old);
        assert_eq!(side.prepared(), Some(k), "untouched slot survives");
        assert!(!side.in_tfo(&net, h, k));
        // h's TFO {k} contains the rewired node: the slot is dropped.
        side.tfo(&net, h);
        let old = net.node(k).fanins().to_vec();
        net.replace_function(k, vec![h, c], parse_sop(2, "ab").expect("p"))
            .expect("replace");
        side.apply_replace(&net, k, &old);
        assert_eq!(side.prepared(), None, "touched slot is dropped");
        assert_matches_fresh(&mut side, &net);
    }

    #[test]
    fn apply_remove_matches_fresh_build() {
        let (mut net, ids) = chain();
        let (a, h, k) = (ids[0], ids[4], ids[5]);
        let mut side = SideTables::build(&net);
        // Detach k from the outputs is not possible; instead remove a
        // freshly added leaf node.
        let m = net
            .add_node("m", vec![a, h], parse_sop(2, "ab").expect("p"))
            .expect("m");
        side.sync_new_nodes(&net);
        let old = net.node(m).fanins().to_vec();
        net.remove_node(m).expect("remove");
        side.apply_remove(&net, m, &old);
        assert!(!side.fanouts(&net, a).contains(&m));
        assert!(!side.fanouts(&net, h).contains(&m));
        assert!(side.fanouts(&net, h).contains(&k));
    }

    /// Every (node, of) answer of the prepared-slot query, against a fresh
    /// `net.tfo()` recomputation.
    fn assert_in_tfo_matches_recompute(side: &mut SideTables, net: &Network, ids: &[NodeId]) {
        for &y in ids {
            side.tfo(net, y);
            let want_tfo = net.tfo(y);
            for &x in ids {
                let want = want_tfo.contains(&x);
                assert_eq!(side.in_tfo(net, x, y), want, "in_tfo({x}, {y})");
            }
        }
    }

    #[test]
    fn prepared_in_tfo_matches_recompute_before_and_after_rewire() {
        let (mut net, ids) = chain();
        let mut side = SideTables::build(&net);
        assert_in_tfo_matches_recompute(&mut side, &net, &ids);
        // Rewire h from {g, c} to {a, c}, patch — answers must still agree.
        let h = ids[4];
        let old = net.node(h).fanins().to_vec();
        net.replace_function(h, vec![ids[0], ids[2]], parse_sop(2, "ab").expect("p"))
            .expect("replace");
        side.apply_replace(&net, h, &old);
        assert_in_tfo_matches_recompute(&mut side, &net, &ids);
    }

    #[test]
    fn in_tfo_without_a_prepared_slot_panics() {
        let (net, ids) = chain();
        let (a, g, k) = (ids[0], ids[3], ids[5]);
        let mut side = SideTables::build(&net);
        // k is above a, but no slot is prepared at all.
        let cold = std::panic::catch_unwind(|| side.in_tfo(&net, k, a));
        assert!(cold.is_err(), "query with no prepared slot must panic");
        // The slot is for g, the query is about a: also a panic, even
        // though g's set happens to contain k.
        side.tfo(&net, g);
        let other = std::panic::catch_unwind(|| side.in_tfo(&net, k, a));
        assert!(
            other.is_err(),
            "query against another node's slot must panic"
        );
        assert!(side.in_tfo(&net, k, g));
    }
}
