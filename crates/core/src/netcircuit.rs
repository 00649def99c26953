//! Materializing a [`Network`] as a gate-level [`Circuit`], optionally
//! with one node rebuilt in the paper's division configuration — the
//! machinery behind the *global internal don't cares* (GDC) mode, where
//! redundancy-removal implications range over the whole circuit and the
//! observation points are the primary outputs.

use boolsubst_atpg::{Circuit, GateId};
use boolsubst_cube::{Cover, Cube, Lit, Phase};
use boolsubst_network::{Network, NodeId};
use std::collections::{HashMap, HashSet};

/// A network materialized as gates.
#[derive(Debug)]
pub struct NetCircuit {
    /// The gate-level circuit (observation points = primary outputs).
    pub circuit: Circuit,
    /// Output gate of each node, indexed by [`NodeId::index`].
    pub node_gate: Vec<Option<GateId>>,
}

/// Handles into the division structure embedded in a [`NetCircuit`].
#[derive(Debug)]
pub struct NetworkRegion {
    /// The materialized circuit.
    pub netc: NetCircuit,
    /// Joint-space variables (sorted node ids); cover variable `i` of the
    /// kept/remainder covers corresponds to `var_nodes[i]`.
    pub var_nodes: Vec<NodeId>,
    /// Literal gates for the joint space: `lit_gates[i]` = (pos, neg).
    pub lit_gates: Vec<(GateId, Option<GateId>)>,
    /// AND gate per kept cube.
    pub kept_gates: Vec<GateId>,
    /// OR over the kept cubes.
    pub fprime_or: GateId,
    /// The bold AND joining `f'` with the divisor node's output.
    pub bold: GateId,
}

/// The mutable state of circuit materialization: the circuit under
/// construction, the node → output-gate map, and the shared NOT cache.
/// Clone-able so a per-target prefix can be snapshotted once and patched
/// per division attempt (see [`ShadowBase`]).
#[derive(Debug, Clone)]
pub(crate) struct BuilderState {
    circuit: Circuit,
    node_gate: Vec<Option<GateId>>,
    not_cache: HashMap<GateId, GateId>,
}

impl BuilderState {
    fn new(net: &Network) -> BuilderState {
        let mut b = BuilderState {
            circuit: Circuit::new(),
            node_gate: vec![None; net.id_bound()],
            not_cache: HashMap::new(),
        };
        // Create input gates in primary-input declaration order so that
        // `Circuit::eval` assignments align with `Network::eval_outputs`.
        for &pi in net.inputs() {
            let g = b.circuit.add_input();
            b.node_gate[pi.index()] = Some(g);
        }
        b
    }

    fn lit_gate(&mut self, node: NodeId, phase: Phase) -> GateId {
        let g = self.node_gate[node.index()].expect("fanin built before use");
        match phase {
            Phase::Pos => g,
            Phase::Neg => {
                if let Some(&n) = self.not_cache.get(&g) {
                    n
                } else {
                    let n = self.circuit.add_not(g);
                    self.not_cache.insert(g, n);
                    n
                }
            }
        }
    }

    /// Builds the standard AND–OR structure for a node's cover; returns
    /// the output gate.
    fn build_node(&mut self, net: &Network, id: NodeId) -> GateId {
        let node = net.node(id);
        if node.is_input() {
            return self.node_gate[id.index()].expect("inputs pre-created");
        }
        let cover = node.cover().expect("internal").clone();
        let fanins = node.fanins().to_vec();
        let cube_gates: Vec<GateId> = cover
            .cubes()
            .iter()
            .map(|c| {
                let ins: Vec<GateId> = c
                    .lits()
                    .map(|l| self.lit_gate(fanins[l.var], l.phase))
                    .collect();
                self.circuit.add_and(ins)
            })
            .collect();
        self.circuit.add_or(cube_gates)
    }
}

/// Topological order of the network with the extra edge
/// `divisor → target` (callers guarantee this cannot cycle, since the
/// divisor is not in the target's transitive fanout).
fn order_with_edge(net: &Network, divisor: NodeId, target: NodeId) -> Vec<NodeId> {
    let bound = net.id_bound();
    let mut indegree = vec![0usize; bound];
    let mut live = 0usize;
    for id in net.node_ids() {
        live += 1;
        indegree[id.index()] = net.node(id).fanins().len();
    }
    indegree[target.index()] += 1; // the extra edge
    let fanouts = net.fanouts();
    let mut queue: Vec<NodeId> = net
        .node_ids()
        .filter(|id| indegree[id.index()] == 0)
        .collect();
    let mut order = Vec::with_capacity(live);
    while let Some(id) = queue.pop() {
        order.push(id);
        let relax = |o: NodeId, indegree: &mut Vec<usize>, queue: &mut Vec<NodeId>| {
            indegree[o.index()] -= 1;
            if indegree[o.index()] == 0 {
                queue.push(o);
            }
        };
        for &o in &fanouts[id.index()] {
            relax(o, &mut indegree, &mut queue);
        }
        if id == divisor {
            relax(target, &mut indegree, &mut queue);
        }
    }
    assert_eq!(order.len(), live, "extra edge created a cycle");
    order
}

/// Gate handles produced by [`build_division`].
struct DivisionGates {
    lit_gates: Vec<(GateId, Option<GateId>)>,
    kept_gates: Vec<GateId>,
    fprime_or: GateId,
    bold: GateId,
    target_out: GateId,
}

/// Appends the paper's division configuration for the target:
/// `target = (OR(kept) AND divisor) OR remainder`, with per-region NOT
/// gates for negative joint-space literals (deliberately *not* shared
/// through the global NOT cache — region NOTs are removal candidates).
fn build_division(
    state: &mut BuilderState,
    var_nodes: &[NodeId],
    divisor: NodeId,
    kept: &Cover,
    remainder: &Cover,
) -> DivisionGates {
    let mut lit_gates: Vec<(GateId, Option<GateId>)> = var_nodes
        .iter()
        .map(|&v| {
            let pos = state.node_gate[v.index()].expect("joint var built first");
            (pos, None)
        })
        .collect();
    let lit = |state: &mut BuilderState, lg: &mut Vec<(GateId, Option<GateId>)>, l: Lit| {
        let (pos, neg) = lg[l.var];
        match l.phase {
            Phase::Pos => pos,
            Phase::Neg => {
                if let Some(n) = neg {
                    n
                } else {
                    let n = state.circuit.add_not(pos);
                    lg[l.var].1 = Some(n);
                    n
                }
            }
        }
    };
    let kept_gates: Vec<GateId> = kept
        .cubes()
        .iter()
        .map(|c| {
            let ins: Vec<GateId> = c.lits().map(|l| lit(state, &mut lit_gates, l)).collect();
            state.circuit.add_and(ins)
        })
        .collect();
    let fprime_or = state.circuit.add_or(kept_gates.clone());
    let d_gate = state.node_gate[divisor.index()].expect("divisor built before target");
    let bold = state.circuit.add_and(vec![fprime_or, d_gate]);
    let mut f_ins = vec![bold];
    for c in remainder.cubes() {
        let ins: Vec<GateId> = c.lits().map(|l| lit(state, &mut lit_gates, l)).collect();
        f_ins.push(state.circuit.add_and(ins));
    }
    let target_out = state.circuit.add_or(f_ins);
    DivisionGates {
        lit_gates,
        kept_gates,
        fprime_or,
        bold,
        target_out,
    }
}

/// A per-target snapshot of the materialized circuit for the GDC mode:
/// every node *except* the target and its transitive fanout, built once.
/// Each division attempt clones the snapshot and appends only the dirty
/// region — the division structure plus the target's fanout cone — instead
/// of rebuilding the whole network per (target, divisor) pair.
///
/// The snapshot stays valid as long as no node outside the target is
/// edited: accepting a plain (target-only) substitution does not
/// invalidate it, because the target is not part of the snapshot.
#[derive(Debug, Clone)]
pub struct ShadowBase {
    state: BuilderState,
    target: NodeId,
    /// The target's transitive fanout in topological order, rebuilt on
    /// every attempt (the division rewires the target, so its cone gets
    /// fresh gates).
    tfo_order: Vec<NodeId>,
}

impl ShadowBase {
    /// Builds the snapshot: all nodes outside `{target} ∪ tfo` in
    /// topological order. `tfo` must be the target's transitive fanout —
    /// its complement is fanin-closed, so every snapshot node's fanins are
    /// in the snapshot.
    #[must_use]
    pub fn prepare(net: &Network, target: NodeId, tfo: &HashSet<NodeId>) -> ShadowBase {
        let mut state = BuilderState::new(net);
        let mut tfo_order = Vec::new();
        for id in net.topo_order() {
            if id == target {
                continue;
            }
            if tfo.contains(&id) {
                tfo_order.push(id);
                continue;
            }
            let g = state.build_node(net, id);
            state.node_gate[id.index()] = Some(g);
        }
        ShadowBase {
            state,
            target,
            tfo_order,
        }
    }

    /// Materializes one division attempt on top of the snapshot: clone,
    /// append the division structure for the target, rebuild the target's
    /// fanout cone, attach the primary outputs. The result is isomorphic
    /// to [`NetworkRegion::build`] for the same pair (gate numbering
    /// differs; structure and therefore RAR verdicts do not).
    #[must_use]
    pub fn region(
        &self,
        net: &Network,
        divisor: NodeId,
        var_nodes: Vec<NodeId>,
        kept: &Cover,
        remainder: &Cover,
    ) -> NetworkRegion {
        let mut state = self.state.clone();
        let gates = build_division(&mut state, &var_nodes, divisor, kept, remainder);
        state.node_gate[self.target.index()] = Some(gates.target_out);
        for &id in &self.tfo_order {
            let g = state.build_node(net, id);
            state.node_gate[id.index()] = Some(g);
        }
        for (_, o) in net.outputs() {
            let g = state.node_gate[o.index()].expect("output driver built");
            state.circuit.add_output(g);
        }
        NetworkRegion {
            netc: NetCircuit {
                circuit: state.circuit,
                node_gate: state.node_gate,
            },
            var_nodes,
            lit_gates: gates.lit_gates,
            kept_gates: gates.kept_gates,
            fprime_or: gates.fprime_or,
            bold: gates.bold,
        }
    }
}

impl NetCircuit {
    /// Materializes the whole network; observation points are the primary
    /// outputs.
    #[must_use]
    pub fn build(net: &Network) -> NetCircuit {
        let mut b = BuilderState::new(net);
        for id in net.topo_order() {
            let g = b.build_node(net, id);
            b.node_gate[id.index()] = Some(g);
        }
        for (_, o) in net.outputs() {
            let g = b.node_gate[o.index()].expect("output driver built");
            b.circuit.add_output(g);
        }
        NetCircuit {
            circuit: b.circuit,
            node_gate: b.node_gate,
        }
    }
}

impl NetworkRegion {
    /// Materializes the network with `target` rebuilt in the division
    /// configuration: `target = (OR(kept) AND divisor_node) OR remainder`,
    /// where `kept`/`remainder` are covers over the joint space
    /// `var_nodes`. Observation points are the primary outputs, so
    /// redundancy checks see the paper's *global* internal don't cares.
    ///
    /// The engine proves on [`ShadowBase::region`] instead; this
    /// from-scratch build is the reference that path is tested against.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is in the transitive fanout of `target`, if a
    /// joint-space variable is not buildable before `target`, or if ids
    /// are invalid.
    #[must_use]
    pub fn build(
        net: &Network,
        target: NodeId,
        divisor: NodeId,
        var_nodes: Vec<NodeId>,
        kept: &Cover,
        remainder: &Cover,
    ) -> NetworkRegion {
        assert!(
            !net.tfo(target).contains(&divisor),
            "divisor must not depend on target"
        );
        let mut b = BuilderState::new(net);
        let order = order_with_edge(net, divisor, target);
        let mut gates: Option<DivisionGates> = None;
        for id in order {
            if id != target {
                let g = b.build_node(net, id);
                b.node_gate[id.index()] = Some(g);
                continue;
            }
            let dg = build_division(&mut b, &var_nodes, divisor, kept, remainder);
            b.node_gate[target.index()] = Some(dg.target_out);
            gates = Some(dg);
        }
        for (_, o) in net.outputs() {
            let g = b.node_gate[o.index()].expect("output driver built");
            b.circuit.add_output(g);
        }
        let gates = gates.expect("target processed");
        NetworkRegion {
            netc: NetCircuit {
                circuit: b.circuit,
                node_gate: b.node_gate,
            },
            var_nodes,
            lit_gates: gates.lit_gates,
            kept_gates: gates.kept_gates,
            fprime_or: gates.fprime_or,
            bold: gates.bold,
        }
    }

    /// Candidate wires of the embedded `f'` region (same set as the local
    /// division region).
    #[must_use]
    pub fn candidate_wires(&self, kept: &Cover) -> Vec<boolsubst_atpg::CandidateWire> {
        use boolsubst_atpg::CandidateWire;
        let mut out = Vec::new();
        for (cube, &gate) in kept.cubes().iter().zip(&self.kept_gates) {
            for l in cube.lits() {
                let driver = match l.phase {
                    Phase::Pos => self.lit_gates[l.var].0,
                    Phase::Neg => self.lit_gates[l.var].1.expect("negative literal gate"),
                };
                out.push(CandidateWire { sink: gate, driver });
            }
            out.push(CandidateWire {
                sink: self.fprime_or,
                driver: gate,
            });
        }
        out.push(CandidateWire {
            sink: self.bold,
            driver: self.fprime_or,
        });
        out
    }

    /// Reads the surviving quotient back as a cover over the joint space.
    #[must_use]
    pub fn read_quotient(&self) -> Cover {
        let n = self.var_nodes.len();
        if !self
            .netc
            .circuit
            .fanins(self.bold)
            .contains(&self.fprime_or)
        {
            return Cover::one(n);
        }
        let mut q = Cover::new(n);
        for &cube_gate in self.netc.circuit.fanins(self.fprime_or) {
            let mut cube = Cube::universe(n);
            for &lit_in in self.netc.circuit.fanins(cube_gate) {
                if let Some(v) = self.lit_gates.iter().position(|&(p, _)| p == lit_in) {
                    cube.restrict(Lit::pos(v));
                } else if let Some(v) = self
                    .lit_gates
                    .iter()
                    .position(|&(_, ng)| ng == Some(lit_in))
                {
                    cube.restrict(Lit::neg(v));
                }
            }
            q.push(cube);
        }
        q.remove_contained_cubes();
        q
    }
}

/// Converts a gate-level circuit back into a [`Network`]: every gate
/// becomes a node (`AND` = one cube, `OR` = one cube per fanin, `NOT` =
/// the complemented literal), inputs become primary inputs named
/// `x0, x1, …` and observation points become outputs `z0, z1, …`.
/// Sweeping afterwards collapses the single-literal nodes this introduces.
///
/// # Panics
///
/// Panics if the circuit is malformed.
#[must_use]
pub fn network_from_circuit(circuit: &Circuit) -> Network {
    use boolsubst_atpg::GateKind;
    let mut net = Network::new("from_circuit");
    let mut node_of: Vec<Option<NodeId>> = vec![None; circuit.len()];
    let mut input_count = 0usize;
    for g in circuit.gate_ids() {
        let id = match circuit.kind(g) {
            GateKind::Input => {
                let id = net
                    .add_input(format!("x{input_count}"))
                    .expect("fresh input name");
                input_count += 1;
                id
            }
            GateKind::Const0 => net
                .add_node(format!("g{}", g.index()), Vec::new(), Cover::new(0))
                .expect("fresh node"),
            GateKind::Const1 => net
                .add_node(format!("g{}", g.index()), Vec::new(), Cover::one(0))
                .expect("fresh node"),
            kind => {
                // Distinct fanins (a gate may list one driver twice after
                // rewiring; the cover view needs unique variables).
                let mut fanins: Vec<NodeId> = Vec::new();
                let mut vars: Vec<usize> = Vec::new();
                for &f in circuit.fanins(g) {
                    let fid = node_of[f.index()].expect("topological order");
                    let v = match fanins.iter().position(|&x| x == fid) {
                        Some(v) => v,
                        None => {
                            fanins.push(fid);
                            fanins.len() - 1
                        }
                    };
                    vars.push(v);
                }
                let n = fanins.len();
                let cover = match kind {
                    GateKind::And => {
                        let mut cube = Cube::universe(n);
                        for &v in &vars {
                            cube.restrict(Lit::pos(v));
                        }
                        Cover::from_cubes(n, vec![cube])
                    }
                    GateKind::Or => {
                        let mut cover = Cover::new(n);
                        for &v in &vars {
                            let mut cube = Cube::universe(n);
                            cube.restrict(Lit::pos(v));
                            cover.push(cube);
                        }
                        cover.remove_contained_cubes();
                        cover
                    }
                    GateKind::Not => {
                        let mut cube = Cube::universe(n);
                        cube.restrict(Lit::neg(vars[0]));
                        Cover::from_cubes(n, vec![cube])
                    }
                    GateKind::Buf => {
                        let mut cube = Cube::universe(n);
                        cube.restrict(Lit::pos(vars[0]));
                        Cover::from_cubes(n, vec![cube])
                    }
                    _ => unreachable!("inputs and constants handled above"),
                };
                net.add_node(format!("g{}", g.index()), fanins, cover)
                    .expect("fresh node")
            }
        };
        node_of[g.index()] = Some(id);
    }
    for (k, &o) in circuit.outputs().iter().enumerate() {
        net.add_output(format!("z{k}"), node_of[o.index()].expect("built"))
            .expect("fresh output");
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolsubst_cube::parse_sop;

    fn sample_net() -> (Network, NodeId, NodeId) {
        let mut net = Network::new("s");
        let a = net.add_input("a").expect("a");
        let b = net.add_input("b").expect("b");
        let c = net.add_input("c").expect("c");
        let d = net
            .add_node("d", vec![a, b, c], parse_sop(3, "ab + c").expect("p"))
            .expect("d");
        let f = net
            .add_node(
                "f",
                vec![a, b, c],
                parse_sop(3, "ab + ac + bc'").expect("p"),
            )
            .expect("f");
        net.add_output("f", f).expect("o");
        net.add_output("d", d).expect("o");
        (net, f, d)
    }

    #[test]
    fn circuit_network_roundtrip() {
        let (net, ..) = sample_net();
        let nc = NetCircuit::build(&net);
        let back = network_from_circuit(&nc.circuit);
        back.check_invariants();
        for m in 0u32..8 {
            let ins: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(
                back.eval_outputs(&ins),
                net.eval_outputs(&ins),
                "mismatch at {m:03b}"
            );
        }
    }

    #[test]
    fn whole_network_circuit_matches_eval() {
        let (net, ..) = sample_net();
        let nc = NetCircuit::build(&net);
        for m in 0u32..8 {
            let ins: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            let want = net.eval_outputs(&ins);
            let vals = nc.circuit.eval(&ins);
            let got: Vec<bool> = nc
                .circuit
                .outputs()
                .iter()
                .map(|o| vals[o.index()])
                .collect();
            assert_eq!(got, want, "mismatch at {m:03b}");
        }
    }

    #[test]
    fn region_build_preserves_function() {
        let (net, f, d) = sample_net();
        // Joint space = {a, b, c}; kept = ab + ac, remainder = bc'.
        let vars: Vec<NodeId> = net.inputs().to_vec();
        let kept = parse_sop(3, "ab + ac").expect("p");
        let rem = parse_sop(3, "bc'").expect("p");
        let region = NetworkRegion::build(&net, f, d, vars, &kept, &rem);
        // Before any removal, the circuit must behave like the network
        // (the bold AND is redundant by Lemma 1).
        for m in 0u32..8 {
            let ins: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            let want = net.eval_outputs(&ins);
            let vals = region.netc.circuit.eval(&ins);
            let got: Vec<bool> = region
                .netc
                .circuit
                .outputs()
                .iter()
                .map(|o| vals[o.index()])
                .collect();
            assert_eq!(got, want, "mismatch at {m:03b}");
        }
        // Read-back without removals reproduces the kept cubes.
        let q = region.read_quotient();
        assert!(q.equivalent(&kept));
    }

    fn output_values(circuit: &Circuit, ins: &[bool]) -> Vec<bool> {
        let vals = circuit.eval(ins);
        circuit.outputs().iter().map(|o| vals[o.index()]).collect()
    }

    /// GDC proofs run only on shadow-patched regions; the from-scratch
    /// rebuild is the reference. For every filter-surviving pair of a few
    /// small networks both circuits must compute the same outputs on all
    /// input patterns, and redundancy removal must read back the same
    /// quotient from both.
    #[test]
    fn shadow_region_matches_rebuild_on_every_surviving_pair() {
        use crate::division::split_remainder;
        use crate::subst::{filter_pair, SubstOptions, SubstStats};
        use boolsubst_atpg::{remove_redundant_wires_with, RemovalOptions};
        use boolsubst_workloads::generator::{
            planted_network, random_network, GeneratorParams, PlantedParams,
        };

        let opts = SubstOptions::extended_gdc();
        let div = &opts.division;
        let removal = RemovalOptions {
            imply: div.imply,
            exact_budget: div.exact_budget,
            max_checks: div.max_checks,
        };
        let planted = PlantedParams {
            inputs: 8,
            hidden: 2,
            targets: 5,
            divisor_extra_cubes: 1,
        };
        let nets = [
            sample_net().0,
            random_network(11, &GeneratorParams::default()),
            random_network(23, &GeneratorParams::default()),
            random_network(47, &GeneratorParams::default()),
            planted_network(5, &planted),
            planted_network(9, &planted),
        ];
        let mut pairs = 0usize;
        for net in &nets {
            let n = net.inputs().len();
            let patterns: Vec<Vec<bool>> = (0u32..1 << n)
                .map(|m| (0..n).map(|i| (m >> i) & 1 == 1).collect())
                .collect();
            for target in net.internal_ids() {
                let tfo: HashSet<NodeId> = net.tfo(target).into_iter().collect();
                let base = ShadowBase::prepare(net, target, &tfo);
                for divisor in net.internal_ids() {
                    let mut stats = SubstStats::default();
                    let Ok(space) = filter_pair(net, target, divisor, &opts, &mut stats, || {
                        net.in_tfo(divisor, target)
                    }) else {
                        continue;
                    };
                    let f = space.cover_of(net, target);
                    let d = space.cover_of(net, divisor);
                    let (kept, rem) = split_remainder(&f, &d);
                    if kept.is_empty() {
                        continue;
                    }
                    let vars = space.vars.clone();
                    let mut shadow = base.region(net, divisor, vars.clone(), &kept, &rem);
                    let mut rebuilt = NetworkRegion::build(net, target, divisor, vars, &kept, &rem);
                    let pair = format!("{}: ({target:?}, {divisor:?})", net.name());
                    for ins in &patterns {
                        assert_eq!(
                            output_values(&shadow.netc.circuit, ins),
                            output_values(&rebuilt.netc.circuit, ins),
                            "{pair}: regions disagree on {ins:?}"
                        );
                    }
                    for region in [&mut shadow, &mut rebuilt] {
                        let wires = region.candidate_wires(&kept);
                        let passes = div.max_passes.max(1) + 1;
                        remove_redundant_wires_with(
                            &mut region.netc.circuit,
                            &wires,
                            &removal,
                            passes,
                        );
                    }
                    assert_eq!(
                        shadow.read_quotient(),
                        rebuilt.read_quotient(),
                        "{pair}: removal read back different quotients"
                    );
                    pairs += 1;
                }
            }
        }
        assert!(pairs >= 100, "only {pairs} surviving pairs exercised");
    }
}
