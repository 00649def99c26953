//! The benchmark's workloads: which circuit to generate from the seed and
//! how to configure the optimize pipeline that runs on it.

use boolsubst_core::{Discovery, SubstOptions};
use boolsubst_network::{egress, Format};
use boolsubst_workloads::large::{large_network, Family};

/// The program only ever sees the generated circuit as binary AIGER bytes.
pub const FORMAT: Format = Format::AigerBinary;

/// One benchmark workload: a generated circuit and an optimize
/// configuration (`boolsubst optimize` flags in the comments).
pub struct Workload {
    pub name: &'static str,
    pub family: Family,
    /// `--nodes` for the generator (internal gates before AIGER ingest).
    pub nodes: usize,
    /// `--script a` before substitution.
    pub script_a: bool,
    /// `--mode ext-gdc` instead of `--mode ext`.
    pub gdc: bool,
    pub discovery: Discovery,
    /// `--checked` (guard tier policy left at its default, `auto`).
    pub checked: bool,
    pub threads: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    // Side-table apply and the division core dominate; guard and RAR idle.
    Workload {
        name: "adder-ext",
        family: Family::Adder,
        nodes: 4_000,
        script_a: false,
        gdc: false,
        discovery: Discovery::Signature,
        checked: false,
        threads: 1,
    },
    // The same engine code as `adder-ext` plus tier-B BDD guard checks.
    Workload {
        name: "adder-checked",
        family: Family::Adder,
        nodes: 1_000,
        script_a: false,
        gdc: false,
        discovery: Discovery::Signature,
        checked: true,
        threads: 1,
    },
    // Discovery and sim dominate; the only parallel sweep. One 8x8
    // multiplier block, the family's smallest instance.
    Workload {
        name: "mult-ext-t2",
        family: Family::Multiplier,
        nodes: 1_000,
        script_a: false,
        gdc: false,
        discovery: Discovery::Signature,
        checked: false,
        threads: 2,
    },
    // Whole-network RAR on the shadow circuit dominates; the only script
    // and overlap-index run. One 64-bit adder block.
    Workload {
        name: "adder-gdc",
        family: Family::Adder,
        nodes: 300,
        script_a: true,
        gdc: true,
        discovery: Discovery::Overlap,
        checked: false,
        threads: 1,
    },
];

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The circuit for `seed`, serialized: the benchmark's set-up work.
    pub fn generate(&self, seed: u64) -> Vec<u8> {
        egress(&large_network(self.family, self.nodes, seed), FORMAT)
    }

    pub fn options(&self) -> SubstOptions {
        let base = if self.gdc {
            SubstOptions::extended_gdc()
        } else {
            SubstOptions::extended()
        };
        base.with_discovery(self.discovery)
            .with_checked(self.checked)
            .with_threads(self.threads)
    }
}
