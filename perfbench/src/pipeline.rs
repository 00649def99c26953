//! One `boolsubst optimize` pipeline, called layer by layer from outside:
//! ingest → script A (where used) → open the engine → sweep → egress.

use crate::procfs;
use crate::spans::Spans;
use crate::workload::{Workload, FORMAT};
use boolsubst_algebraic::network_factored_literals;
use boolsubst_core::{networks_equivalent, SubstEngine, SubstStats};
use boolsubst_metrics::MetricsHandle;
use boolsubst_network::{egress, ingest, Network};
use boolsubst_workloads::scripts::script_a;
use std::time::Instant;

/// Guard work counters, read from the engine's guard after the sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardCounts {
    pub checks: u64,
    pub exact_runs: u64,
    pub sat_runs: u64,
}

/// What one optimize produced and cost.
pub struct Optimized {
    /// The egress bytes: the optimized circuit as the user receives it.
    pub output: Vec<u8>,
    pub literals_out: usize,
    pub stats: SubstStats,
    pub guard: GuardCounts,
    /// Wall seconds from the start of ingest to the end of egress.
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub sweep_s: f64,
}

pub fn parse(bytes: &[u8], w: &Workload) -> Result<Network, String> {
    ingest(bytes, FORMAT, w.name).map_err(|e| format!("{}: ingest failed: {e}", w.name))
}

/// Runs the pipeline on `input`, recording a span per layer under a root
/// span named `optimize`. `metrics` is attached only on the traced run.
pub fn optimize(
    w: &Workload,
    input: &[u8],
    spans: &mut Spans,
    metrics: Option<&MetricsHandle>,
) -> Result<Optimized, String> {
    procfs::reset_peak_rss()?;
    let cpu0 = procfs::cpu_seconds()?;
    let root = spans.open("optimize", None);
    let t0 = Instant::now();
    let mut net = spans.time("ingest", Some(root), || parse(input, w))?;
    if w.script_a {
        spans.time("script", Some(root), || script_a(&mut net));
    }
    let open = spans.open("open", Some(root));
    let mut engine = SubstEngine::new(&mut net, w.options());
    if let Some(handle) = metrics {
        engine.attach_metrics(handle);
    }
    spans.close(open);
    let sweep = spans.open("sweep", Some(root));
    let stats = engine.run();
    spans.close(sweep);
    let guard = engine
        .take_guard()
        .map_or(GuardCounts::default(), |g| GuardCounts {
            checks: g.checks(),
            exact_runs: g.exact_runs(),
            sat_runs: g.sat_runs(),
        });
    drop(engine);
    let output = spans.time("egress", Some(root), || egress(&net, FORMAT));
    let wall_s = t0.elapsed().as_secs_f64();
    spans.close(root);
    let cpu_s = procfs::cpu_seconds()? - cpu0;
    let peak_rss_mb = procfs::peak_rss_mb()?;
    Ok(Optimized {
        literals_out: network_factored_literals(&net),
        output,
        stats,
        guard,
        wall_s,
        cpu_s,
        peak_rss_mb,
        sweep_s: spans.seconds(sweep),
    })
}

/// The independent oracle: BDD equivalence of the optimized bytes,
/// re-ingested, against the ingested input.
pub fn verify(w: &Workload, input: &[u8], output: &[u8]) -> Result<bool, String> {
    Ok(networks_equivalent(&parse(input, w)?, &parse(output, w)?))
}

/// FNV-1a, 64-bit: a stable fingerprint of output bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
