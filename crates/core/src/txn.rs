//! Transactional snapshots for checked substitution.
//!
//! A [`TxnSnapshot`] captures, before a pair attempt is allowed to mutate
//! the network, exactly the state that attempt may touch: the target's and
//! divisor's fanins + covers plus the slot-table bound (so freshly minted
//! helper nodes from an extended decomposition can be deleted again). That
//! keeps both capture and [`TxnSnapshot::rollback`] O(changed nodes) — the
//! rest of the network is never copied.
//!
//! The checked engine's guard reads the snapshot in place: the captured
//! images ([`TxnSnapshot::image_of`]) are the pre side of each changed
//! node's local window, and [`TxnSnapshot::id_bound`] tells minted nodes
//! apart. Rollback is non-consuming: when a window does not pass, the
//! engine rolls the snapshot back *into a clone* to reconstruct the whole
//! pre-state for the fallback compare, and — only if the guard refutes
//! the move — rolls the same snapshot back on the real network.

use boolsubst_cube::Cover;
use boolsubst_network::{Network, NetworkError, NodeId};

/// Pre-image of one internal node: enough to restore it bit-exactly.
#[derive(Debug, Clone)]
struct NodeImage {
    id: NodeId,
    fanins: Vec<NodeId>,
    cover: Cover,
}

/// Minimal journal of the state one substitution attempt may mutate.
#[derive(Debug, Clone)]
pub struct TxnSnapshot {
    /// Network version at capture time (attempt-did-nothing detection).
    version: u64,
    /// Slot-table bound at capture time: any live node at index ≥ this was
    /// minted by the attempt and must be deleted on rollback.
    id_bound: usize,
    /// Pre-images of the nodes the attempt may rewrite.
    images: Vec<NodeImage>,
}

impl TxnSnapshot {
    /// Captures pre-images of `ids` (primary inputs and duplicates are
    /// skipped) plus the slot-table bound.
    #[must_use]
    pub fn capture(net: &Network, ids: &[NodeId]) -> TxnSnapshot {
        let mut images: Vec<NodeImage> = Vec::with_capacity(ids.len());
        for &id in ids {
            if images.iter().any(|img| img.id == id) {
                continue;
            }
            let node = net.node(id);
            let Some(cover) = node.cover() else {
                continue; // primary input: substitution never rewrites it
            };
            images.push(NodeImage {
                id,
                fanins: node.fanins().to_vec(),
                cover: cover.clone(),
            });
        }
        TxnSnapshot {
            version: net.version(),
            id_bound: net.id_bound(),
            images,
        }
    }

    /// Network version at capture time.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Slot-table bound at capture time: every live node at an index ≥
    /// this was minted by the attempt.
    #[must_use]
    pub fn id_bound(&self) -> usize {
        self.id_bound
    }

    /// Captured pre-image of `id`: its fanins and cover at capture time.
    /// `None` when `id` was not captured — the attempt was not allowed to
    /// touch it, so its live definition *is* its pre-image. The guard's
    /// local window reads the changed nodes' pre-rewrite definitions from
    /// here, without cloning the network.
    #[must_use]
    pub fn image_of(&self, id: NodeId) -> Option<(&[NodeId], &Cover)> {
        self.images
            .iter()
            .find(|img| img.id == id)
            .map(|img| (img.fanins.as_slice(), &img.cover))
    }

    /// Whether `net` has been mutated since this snapshot was captured.
    #[must_use]
    pub fn dirty(&self, net: &Network) -> bool {
        net.version() != self.version
    }

    /// Restores every snapshotted node and deletes nodes minted after the
    /// capture, leaving `net` function-identical to the captured state.
    /// Non-consuming, so the same snapshot can be replayed onto a clone
    /// (pre-state reconstruction) and onto the real network (undo).
    ///
    /// # Errors
    ///
    /// Returns the first unrecoverable [`NetworkError`] if the network has
    /// diverged beyond what this snapshot journals (e.g. a snapshotted node
    /// was deleted, or a minted node was exported as a primary output) —
    /// which no engine code path does.
    pub fn rollback(&self, net: &mut Network) -> Result<(), NetworkError> {
        // Restore functions first: minted helper nodes may still be
        // referenced by the mutated divisor, so they only become removable
        // once the original fanins are back. Restores can depend on each
        // other through the cycle check, so iterate to a fixpoint.
        let mut pending: Vec<&NodeImage> = self.images.iter().collect();
        while !pending.is_empty() {
            let before = pending.len();
            let mut failed: Option<NetworkError> = None;
            pending.retain(|img| {
                match net.replace_function(img.id, img.fanins.clone(), img.cover.clone()) {
                    Ok(()) => false,
                    Err(e) => {
                        failed = Some(e);
                        true
                    }
                }
            });
            if pending.len() == before {
                return Err(failed.expect("non-empty pending implies an error"));
            }
        }

        // Delete minted nodes, newest first so consumers go before
        // producers (helper chains are appended in dependency order).
        let mut minted: Vec<NodeId> = net
            .internal_ids()
            .filter(|id| id.index() >= self.id_bound)
            .collect();
        minted.sort_by_key(|id| std::cmp::Reverse(id.index()));
        for id in minted {
            net.remove_node(id)?;
        }
        net.truncate_dead_tail(self.id_bound);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolsubst_cube::parse_sop;
    use boolsubst_network::write_blif;

    /// f = ab + ac, d = b + c: the paper's running example, small enough
    /// to mutate by hand in every shape the engine produces.
    fn sample() -> (Network, NodeId, NodeId) {
        let mut net = Network::new("txn");
        let a = net.add_input("a").expect("a");
        let b = net.add_input("b").expect("b");
        let c = net.add_input("c").expect("c");
        let f = net
            .add_node("f", vec![a, b, c], parse_sop(3, "ab + ac").expect("f"))
            .expect("f");
        let d = net
            .add_node("d", vec![b, c], parse_sop(2, "a + b").expect("d"))
            .expect("d");
        net.add_output("f", f).expect("of");
        net.add_output("d", d).expect("od");
        (net, f, d)
    }

    #[test]
    fn rollback_restores_a_sop_rewrite() {
        let (mut net, f, d) = sample();
        let golden = write_blif(&net);
        let snap = TxnSnapshot::capture(&net, &[f, d]);
        assert!(!snap.dirty(&net));

        // SOP-substitution shape: f := a·d.
        let a = net.inputs()[0];
        net.replace_function(f, vec![a, d], parse_sop(2, "ab").expect("q"))
            .expect("rewrite");
        assert!(snap.dirty(&net));

        snap.rollback(&mut net).expect("rollback");
        assert_eq!(write_blif(&net), golden);
        net.check_invariants();
    }

    #[test]
    fn rollback_deletes_minted_nodes_and_restores_id_bound() {
        let (mut net, f, d) = sample();
        let golden = write_blif(&net);
        let bound = net.id_bound();
        let snap = TxnSnapshot::capture(&net, &[f, d]);

        // Extended-decomposition shape: mint a helper, rewire the divisor
        // through it, then rewrite the target over the divisor.
        let a = net.inputs()[0];
        let b = net.inputs()[1];
        let fresh = net
            .add_node(net.fresh_name(), vec![a, b], parse_sop(2, "ab").expect("h"))
            .expect("fresh");
        net.replace_function(d, vec![fresh, a], parse_sop(2, "a + b").expect("d2"))
            .expect("rewire divisor");
        net.replace_function(f, vec![d, a], parse_sop(2, "ab").expect("f2"))
            .expect("rewire target");
        assert!(net.id_bound() > bound);

        snap.rollback(&mut net).expect("rollback");
        assert_eq!(write_blif(&net), golden);
        assert_eq!(net.id_bound(), bound, "fresh-name determinism restored");
        net.check_invariants();

        // The snapshot survives replay: rolling back an already-restored
        // network is a function-preserving no-op.
        snap.rollback(&mut net).expect("replay");
        assert_eq!(write_blif(&net), golden);
    }

    #[test]
    fn rollback_into_clone_reconstructs_pre_state() {
        let (mut net, f, d) = sample();
        let golden = write_blif(&net);
        let snap = TxnSnapshot::capture(&net, &[f, d]);
        let a = net.inputs()[0];
        net.replace_function(f, vec![a, d], parse_sop(2, "ab").expect("q"))
            .expect("rewrite");

        // The guarded engine's pre-state reconstruction: clone the mutated
        // network, roll the clone back, leave the original untouched.
        let mutated = write_blif(&net);
        let mut pre = net.clone();
        snap.rollback(&mut pre).expect("rollback clone");
        assert_eq!(write_blif(&pre), golden);
        assert_eq!(write_blif(&net), mutated, "original left mutated");
    }

    #[test]
    fn capture_skips_inputs_and_duplicates() {
        let (net, f, _) = sample();
        let a = net.inputs()[0];
        let snap = TxnSnapshot::capture(&net, &[a, f, f]);
        assert_eq!(snap.images.len(), 1, "input and duplicate skipped");
    }
}
