#![warn(missing_docs)]
//! # boolsubst-network — multilevel Boolean networks
//!
//! SIS-style combinational networks: named nodes carrying sum-of-products
//! covers over their fanins ([`Network`], [`Node`]), BLIF input/output, and
//! the structural transformations the paper's scripts rely on
//! (`eliminate`, `sweep`, node collapsing).
//!
//! ```
//! use boolsubst_network::parse_blif;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = parse_blif("\
//! .model demo
//! .inputs a b c
//! .outputs f
//! .names a b g
//! 11 1
//! .names g c f
//! 1- 1
//! -1 1
//! .end
//! ")?;
//! assert_eq!(net.sop_literals(), 4);
//! assert_eq!(net.eval_outputs(&[false, false, true]), vec![true]);
//! # Ok(())
//! # }
//! ```

mod blif;
mod bridge;
mod dot;
mod io;
mod net;
mod side;
mod transform;

pub use blif::{parse_blif, write_blif, ParseBlifError};
pub use bridge::{aig_from_network, network_from_aig, BridgeOptions};
pub use dot::to_dot;
pub use io::{egress, ingest, ingest_with, Format, IngestError};
pub use net::{EvalScratch, Network, NetworkError, Node, NodeFunc, NodeId};
pub use side::{NodeBits, SideTables, VersionStamp};
pub use transform::COLLAPSE_CUBE_LIMIT;

/// Compares two networks on `rounds` random input vectors (plus the
/// all-zeros and all-ones vectors). A cheap smoke-level equivalence check;
/// use the BDD oracle for exactness.
///
/// # Panics
///
/// Panics if the networks have different input/output counts.
#[must_use]
pub fn random_sim_equivalent(a: &Network, b: &Network, rounds: usize, seed: u64) -> bool {
    assert_eq!(a.inputs().len(), b.inputs().len(), "input count mismatch");
    assert_eq!(
        a.outputs().len(),
        b.outputs().len(),
        "output count mismatch"
    );
    let n = a.inputs().len();
    // xorshift64* PRNG: deterministic and dependency-free.
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut vectors: Vec<Vec<bool>> = vec![vec![false; n], vec![true; n]];
    for _ in 0..rounds {
        let mut word = next();
        let mut v = Vec::with_capacity(n);
        for i in 0..n {
            if i % 64 == 0 {
                word = next();
            }
            v.push((word >> (i % 64)) & 1 == 1);
        }
        vectors.push(v);
    }
    let mut sa = EvalScratch::default();
    let mut sb = EvalScratch::default();
    vectors
        .iter()
        .all(|v| a.eval_outputs_into(v, &mut sa) == b.eval_outputs_into(v, &mut sb))
}
