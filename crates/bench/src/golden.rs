//! Golden quality vectors: one table of (circuit, configuration) →
//! expected optimization result, shared by the `golden_quality` test,
//! which only reads the checked-in table, and the `golden_bless` binary,
//! which rewrites it.
//!
//! Each row pins the acceptance counters, the final factored-literal
//! count and an FNV-1a hash of the written BLIF, so any change to which
//! rewrites the sweep accepts — or in what order — shows up as a row
//! diff. The table lives at `tests/golden_quality.txt`; regenerate it
//! with `cargo run --release --offline -p boolsubst-bench --bin
//! golden_bless` and review the diff like code.

use boolsubst_algebraic::network_factored_literals;
use boolsubst_core::{all_configs, Acceptance, Discovery, Session, SubstOptions};
use boolsubst_cube::parse_sop;
use boolsubst_network::{write_blif, Network};
use boolsubst_workloads::full_suite;
use boolsubst_workloads::generator::{
    planted_network, random_network, GeneratorParams, PlantedParams,
};
use boolsubst_workloads::large::{large_network, Family};
use std::collections::BTreeMap;

/// The table's path relative to the workspace root.
pub const TABLE_PATH: &str = "tests/golden_quality.txt";

/// Random-network seeds whose overlap rows are also checked at
/// [`PARALLEL_THREADS`] workers against the same (1-thread) row.
const PARALLEL_SEEDS: [u64; 2] = [11, 47];

/// Worker count for the parallel re-check of the overlap rows of random
/// seeds 11 and 47 and of every [`Group::Policy`] row (see
/// [`Case::parallel_checked`]).
pub const PARALLEL_THREADS: usize = 4;

/// Row families, one per test function so the families run in parallel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// The 24 [`full_suite`] circuits.
    Suite,
    /// The paper's worked examples as tiny networks.
    Paper,
    /// Random networks (seeds 11/23/47, default generator parameters).
    Random,
    /// Planted networks (seeds 5/9).
    Planted,
    /// Random seed 29 and planted seed 9 under first- and best-gain
    /// acceptance with up to 3 passes; also checked at
    /// [`PARALLEL_THREADS`] workers.
    Policy,
    /// The 2k-node adder from the large-instance generator.
    Large,
}

impl Group {
    /// Every group, in table order.
    pub const ALL: [Group; 6] = [
        Group::Suite,
        Group::Paper,
        Group::Random,
        Group::Planted,
        Group::Policy,
        Group::Large,
    ];
}

/// Which circuit a case runs on; built fresh per run.
#[derive(Debug, Clone, Copy)]
enum Circuit {
    Suite(usize),
    Paper(usize),
    Random(u64),
    Planted(u64),
    Adder2k,
}

impl Circuit {
    fn build(self) -> Network {
        match self {
            Circuit::Suite(i) => full_suite().swap_remove(i),
            Circuit::Paper(i) => paper_example(i),
            Circuit::Random(seed) => random_network(seed, &GeneratorParams::default()),
            Circuit::Planted(seed) => planted_network(
                seed,
                &PlantedParams {
                    inputs: 8,
                    hidden: 2,
                    targets: 5,
                    divisor_extra_cubes: 1,
                },
            ),
            Circuit::Adder2k => large_network(Family::Adder, 2000, 1),
        }
    }
}

/// One (circuit, configuration) pair of the table.
#[derive(Debug, Clone)]
pub struct Case {
    /// Stable row key: `<circuit>/<config>/<discovery>`.
    pub id: String,
    circuit: Circuit,
    opts: SubstOptions,
    parallel: bool,
}

impl Case {
    fn new(circuit: Circuit, name: &str, config: &str, opts: SubstOptions) -> Case {
        let parallel = matches!(circuit, Circuit::Random(seed) if PARALLEL_SEEDS.contains(&seed))
            && opts.discovery == Discovery::Overlap;
        Case {
            id: format!("{name}/{config}/{}", opts.discovery.name()),
            circuit,
            opts,
            parallel,
        }
    }

    /// Whether this row is also checked at [`PARALLEL_THREADS`] workers.
    #[must_use]
    pub fn parallel_checked(&self) -> bool {
        self.parallel
    }
}

const DISCOVERIES: [Discovery; 2] = [Discovery::Overlap, Discovery::Signature];

/// `all_configs()` with their mode labels, crossed with both discovery
/// strategies.
fn config_matrix() -> Vec<(&'static str, SubstOptions)> {
    let mut out = Vec::new();
    for opts in all_configs() {
        for discovery in DISCOVERIES {
            out.push((opts.mode.name(), opts.clone().with_discovery(discovery)));
        }
    }
    out
}

/// The cases of one group, in table order.
#[must_use]
pub fn cases(group: Group) -> Vec<Case> {
    let matrix = |circuit: Circuit, name: &str| -> Vec<Case> {
        config_matrix()
            .into_iter()
            .map(|(config, opts)| Case::new(circuit, name, config, opts))
            .collect()
    };
    match group {
        Group::Suite => full_suite()
            .iter()
            .enumerate()
            .flat_map(|(i, net)| matrix(Circuit::Suite(i), &format!("suite{i:02}-{}", net.name())))
            .collect(),
        Group::Paper => PAPER_EXAMPLES
            .iter()
            .enumerate()
            .flat_map(|(i, name)| matrix(Circuit::Paper(i), &format!("paper-{name}")))
            .collect(),
        Group::Random => [11u64, 23, 47]
            .into_iter()
            .flat_map(|seed| matrix(Circuit::Random(seed), &format!("random{seed}")))
            .collect(),
        Group::Planted => [5u64, 9]
            .into_iter()
            .flat_map(|seed| matrix(Circuit::Planted(seed), &format!("planted{seed}")))
            .collect(),
        Group::Policy => {
            let mut out = Vec::new();
            for (label, acceptance) in [
                ("ext-first-p3", Acceptance::FirstGain),
                ("ext-best-p3", Acceptance::BestGain),
            ] {
                for (circuit, name) in [
                    (Circuit::Random(29), "random29"),
                    (Circuit::Planted(9), "planted9"),
                ] {
                    for discovery in DISCOVERIES {
                        let opts = SubstOptions::extended()
                            .with_acceptance(acceptance)
                            .with_max_passes(3)
                            .with_discovery(discovery);
                        out.push(Case {
                            parallel: true,
                            ..Case::new(circuit, name, label, opts)
                        });
                    }
                }
            }
            out
        }
        Group::Large => {
            let mut out = Vec::new();
            for opts in [SubstOptions::basic(), SubstOptions::extended()] {
                for discovery in DISCOVERIES {
                    let opts = opts.clone().with_discovery(discovery);
                    out.push(Case::new(
                        Circuit::Adder2k,
                        "adder2k",
                        opts.mode.name(),
                        opts,
                    ));
                }
            }
            out
        }
    }
}

/// Every case of every group, in table order.
#[must_use]
pub fn all_cases() -> Vec<Case> {
    Group::ALL.into_iter().flat_map(cases).collect()
}

/// Runs one case at `threads` workers and renders its pinned result:
/// the acceptance counters, division attempts, passes, final factored
/// literals and the FNV-1a hash of the written BLIF.
/// Rows compare as text, so a table row matches exactly when every field
/// does.
#[must_use]
pub fn run(case: &Case, threads: usize) -> String {
    let mut net = case.circuit.build();
    let s = Session::new(&mut net, case.opts.clone().with_threads(threads)).run();
    format!(
        "subs={} pos={} ext={} gain={} tried={} passes={} lits={} blif={:016x}",
        s.substitutions,
        s.pos_substitutions,
        s.extended_decompositions,
        s.literal_gain,
        s.divisions_tried,
        s.passes,
        network_factored_literals(&net),
        fnv1a(write_blif(&net).as_bytes()),
    )
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The table's comment header, written by the bless binary.
const HEADER: &str = "\
# Golden quality vectors: <circuit>/<config>/<discovery> followed by the
# pinned result. subs/pos/ext = accepted substitutions (all, POS form,
# extended decompositions), gain = factored-literal gain, tried = division
# attempts, passes = sweeps run, lits = final factored literals, blif =
# FNV-1a of write_blif. Never edit by hand; regenerate with
#   cargo run --release --offline -p boolsubst-bench --bin golden_bless
";

/// Renders a full table from `(id, row)` pairs.
#[must_use]
pub fn render(rows: &[(String, String)]) -> String {
    let mut out = String::from(HEADER);
    for (id, row) in rows {
        out.push_str(&format!("{id} {row}\n"));
    }
    out
}

/// Parses a table into `id → row` text; `#` lines and blank lines are
/// skipped.
///
/// # Errors
///
/// Returns the first malformed or duplicate line.
pub fn parse(text: &str) -> Result<BTreeMap<String, String>, String> {
    let mut rows = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (id, rest) = line
            .split_once(' ')
            .ok_or_else(|| format!("line {}: no fields", i + 1))?;
        if rows.insert(id.to_string(), rest.to_string()).is_some() {
            return Err(format!("line {}: duplicate row {id}", i + 1));
        }
    }
    Ok(rows)
}

/// Names of the paper's worked examples, indexed like [`paper_example`].
const PAPER_EXAMPLES: [&str; 3] = ["section1", "extended", "pos"];

/// The paper's worked examples as networks:
/// 0. Section I: `f = ab + ac + bc'` next to `d = ab + c` (Boolean
///    substitution reaches `f = (a + b)d`);
/// 1. Section IV: `f = ab + c + z` next to `d = ab + c + e`, where only
///    extended division (decomposing `d`) helps;
/// 2. Section III-B's POS symmetry: `f = (a + b)(c + d)` next to
///    `g = a + b`.
fn paper_example(i: usize) -> Network {
    /// (node name, fanins as input indices, SOP over those fanins).
    type NodeSpec = (&'static str, &'static [usize], &'static str);
    let (name, inputs, nodes): (&str, &[&str], &[NodeSpec]) = match i {
        0 => (
            "paper_section1",
            &["a", "b", "c"],
            &[
                ("f", &[0, 1, 2], "ab + ac + bc'"),
                ("d", &[0, 1, 2], "ab + c"),
            ],
        ),
        1 => (
            "paper_extended",
            &["a", "b", "c", "e", "z"],
            &[
                ("f", &[0, 1, 2, 4], "ab + c + d"),
                ("d", &[0, 1, 2, 3], "ab + c + d"),
            ],
        ),
        _ => (
            "paper_pos",
            &["a", "b", "c", "d"],
            &[
                ("f", &[0, 1, 2, 3], "ac + ad + bc + bd"),
                ("g", &[0, 1], "a + b"),
            ],
        ),
    };
    let mut net = Network::new(name);
    let pis: Vec<_> = inputs
        .iter()
        .map(|n| net.add_input(*n).expect("input"))
        .collect();
    for &(node, fanins, sop) in nodes {
        let fanins: Vec<_> = fanins.iter().map(|&k| pis[k]).collect();
        let cover = parse_sop(fanins.len(), sop).expect("paper cover");
        let id = net.add_node(node, fanins, cover).expect("node");
        net.add_output(node, id).expect("output");
    }
    net
}
