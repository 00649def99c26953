#![warn(missing_docs)]
//! Shared machinery for the table binaries: runs the four competing
//! resubstitution methods on identically-prepared circuits and prints
//! rows in the paper's format.

pub mod golden;
pub mod timing;

use boolsubst_algebraic::{algebraic_resub, network_factored_literals, ResubOptions};
use boolsubst_core::verify::networks_equivalent;
use boolsubst_core::{Session, SubstOptions};
use boolsubst_network::Network;
use std::time::Instant;

/// One measured cell: factored literals and CPU seconds.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Factored-form literal count after the method.
    pub lits: usize,
    /// Wall-clock seconds the method took.
    pub cpu: f64,
}

/// One row of a comparison table (one circuit).
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Circuit name.
    pub name: String,
    /// Initial factored literal count (after the preparation script).
    pub initial: usize,
    /// SIS-style `resub -d` result.
    pub resub: Cell,
    /// Our basic division.
    pub basic: Cell,
    /// Our extended division (no global don't cares).
    pub ext: Cell,
    /// Our extended division with global don't cares.
    pub ext_gdc: Cell,
    /// Whether every method's output was BDD-verified equivalent.
    pub verified: bool,
}

/// Runs the four methods on a prepared circuit.
///
/// # Panics
///
/// Panics if a method corrupts the network structurally.
#[must_use]
pub fn run_methods(prepared: &Network) -> TableRow {
    let initial = network_factored_literals(prepared);
    let mut verified = true;

    let mut timed = |f: &dyn Fn(&mut Network)| -> Cell {
        let mut net = prepared.clone();
        let start = Instant::now();
        f(&mut net);
        let cpu = start.elapsed().as_secs_f64();
        net.check_invariants();
        verified &= networks_equivalent(prepared, &net);
        Cell {
            lits: network_factored_literals(&net),
            cpu,
        }
    };

    let resub = timed(&|net| {
        algebraic_resub(net, &ResubOptions::default());
    });
    let basic = timed(&|net| {
        Session::new(net, SubstOptions::basic()).run();
    });
    let ext = timed(&|net| {
        Session::new(net, SubstOptions::extended()).run();
    });
    let ext_gdc = timed(&|net| {
        Session::new(net, SubstOptions::extended_gdc()).run();
    });

    TableRow {
        name: prepared.name().to_string(),
        initial,
        resub,
        basic,
        ext,
        ext_gdc,
        verified,
    }
}

/// Runs a full table: prepare each workload circuit with `script`, then
/// measure all four methods.
#[must_use]
pub fn run_table(script: &dyn Fn(&mut Network)) -> Vec<TableRow> {
    let mut rows = Vec::new();
    for mut net in boolsubst_workloads::full_suite() {
        script(&mut net);
        rows.push(run_methods(&net));
    }
    rows
}

/// Prints a table in the paper's layout (Tables II–V).
pub fn print_table(title: &str, rows: &[TableRow]) {
    println!("{title}");
    println!(
        "{:<10} {:>7} | {:>6} {:>7} | {:>6} {:>7} | {:>6} {:>7} | {:>6} {:>7} | ok",
        "circuit", "initial", "sis", "cpu", "basic", "cpu", "ext.", "cpu", "extGDC", "cpu"
    );
    println!("{}", "-".repeat(104));
    let mut sums = [0usize; 5];
    let mut cpus = [0f64; 4];
    let mut all_ok = true;
    for r in rows {
        println!(
            "{:<10} {:>7} | {:>6} {:>7.3} | {:>6} {:>7.3} | {:>6} {:>7.3} | {:>6} {:>7.3} | {}",
            r.name,
            r.initial,
            r.resub.lits,
            r.resub.cpu,
            r.basic.lits,
            r.basic.cpu,
            r.ext.lits,
            r.ext.cpu,
            r.ext_gdc.lits,
            r.ext_gdc.cpu,
            if r.verified { "yes" } else { "NO" },
        );
        sums[0] += r.initial;
        sums[1] += r.resub.lits;
        sums[2] += r.basic.lits;
        sums[3] += r.ext.lits;
        sums[4] += r.ext_gdc.lits;
        cpus[0] += r.resub.cpu;
        cpus[1] += r.basic.cpu;
        cpus[2] += r.ext.cpu;
        cpus[3] += r.ext_gdc.cpu;
        all_ok &= r.verified;
    }
    println!("{}", "-".repeat(104));
    println!(
        "{:<10} {:>7} | {:>6} {:>7.3} | {:>6} {:>7.3} | {:>6} {:>7.3} | {:>6} {:>7.3} | {}",
        "total",
        sums[0],
        sums[1],
        cpus[0],
        sums[2],
        cpus[1],
        sums[3],
        cpus[2],
        sums[4],
        cpus[3],
        if all_ok { "yes" } else { "NO" },
    );
    let pct = |x: usize| 100.0 * (sums[0] as f64 - x as f64) / (sums[0] as f64).max(1.0);
    println!(
        "{:<10} {:>7} | {:>5.1}% {:>7} | {:>5.1}% {:>7} | {:>5.1}% {:>7} | {:>5.1}% {:>7} |",
        "improve",
        "",
        pct(sums[1]),
        "",
        pct(sums[2]),
        "",
        pct(sums[3]),
        "",
        pct(sums[4]),
        ""
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolsubst_workloads::benchmarks::ripple_adder;
    use boolsubst_workloads::scripts::script_a;

    #[test]
    fn run_methods_verifies_and_orders() {
        let mut net = ripple_adder(3);
        script_a(&mut net);
        let row = run_methods(&net);
        assert!(row.verified, "all methods must be BDD-equivalent");
        assert!(row.resub.lits <= row.initial);
        assert!(row.basic.lits <= row.initial);
        assert!(
            row.ext.lits <= row.basic.lits,
            "ext may only improve on basic"
        );
        assert!(row.ext_gdc.lits <= row.initial);
    }

    #[test]
    fn print_table_smoke() {
        let row = TableRow {
            name: "x".into(),
            initial: 10,
            resub: Cell { lits: 9, cpu: 0.0 },
            basic: Cell { lits: 8, cpu: 0.0 },
            ext: Cell { lits: 8, cpu: 0.0 },
            ext_gdc: Cell { lits: 7, cpu: 0.0 },
            verified: true,
        };
        print_table("smoke", &[row]);
    }
}
