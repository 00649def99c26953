//! Invisibility pins for the incremental `SubstEngine`: checked mode,
//! deadlines, explicit overlap discovery at any thread count and an
//! attached tracer must all leave the accepted rewrites bit-identical to
//! the plain run, and every run must preserve each primary-output
//! function exactly. Absolute results per circuit and configuration are
//! pinned by `tests/golden_quality.rs`.

use boolsubst::core::{all_configs, Session, SubstOptions};
use boolsubst::network::{write_blif, Network};
use boolsubst::workloads::generator::{random_network, GeneratorParams};

fn modes() -> Vec<(&'static str, SubstOptions)> {
    ["basic", "extended", "extended_gdc"]
        .into_iter()
        .zip(all_configs())
        .collect()
}

/// Exhaustive primary-output equivalence for networks with few inputs.
fn outputs_preserved(before: &Network, after: &Network) {
    let n = before.inputs().len();
    assert!(n <= 16, "exhaustive sweep needs few inputs");
    for m in 0u32..(1 << n) {
        let ins: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
        assert_eq!(
            before.eval_outputs(&ins),
            after.eval_outputs(&ins),
            "output mismatch at input {m:b}"
        );
    }
}

#[test]
fn engine_preserves_output_functions_exhaustively() {
    // GeneratorParams::default() is 8 inputs / 24 nodes: 256 vectors.
    for seed in [3u64, 71] {
        let base = random_network(seed, &GeneratorParams::default());
        for (name, opts) in modes() {
            let mut net = base.clone();
            let stats = Session::new(&mut net, opts.clone()).run();
            net.check_invariants();
            outputs_preserved(&base, &net);
            // The run must at least have examined candidates.
            assert!(
                stats.candidates_enumerated > 0,
                "seed {seed} {name}: no candidates"
            );
        }
    }
}

/// Satellite check for the hoisted TFO filter: the cached reachability
/// answer (levels short-circuit + the target's prepared TFO slot) must
/// agree with a fresh `net.tfo()` recomputation for every (target,
/// divisor) pair — before any edit, and again after an accepted
/// substitution patched the tables.
#[test]
fn cached_tfo_filter_matches_recomputed_decisions() {
    use boolsubst::network::SideTables;
    let mut net = random_network(13, &GeneratorParams::default());
    let mut side = SideTables::build(&net);
    let check_all = |net: &Network, side: &mut SideTables| {
        let ids: Vec<_> = net.internal_ids().collect();
        for &t in &ids {
            side.tfo(net, t);
            let tfo = net.tfo(t);
            for &d in &ids {
                assert_eq!(
                    side.in_tfo(net, d, t),
                    tfo.contains(&d),
                    "cached reject/accept diverged for target {t}, divisor {d}"
                );
            }
        }
    };
    check_all(&net, &mut side);

    // Rewire one node the way an accepted substitution would (a fanin
    // swap), patch the tables, and require identical decisions again.
    let target = net
        .internal_ids()
        .find(|&id| {
            net.node(id).fanins().len() >= 2
                && net
                    .node(id)
                    .fanins()
                    .iter()
                    .any(|f| net.node(*f).is_input())
        })
        .expect("rewirable node");
    let old_fanins = net.node(target).fanins().to_vec();
    let kept: Vec<_> = old_fanins
        .iter()
        .copied()
        .filter(|f| net.node(*f).is_input())
        .collect();
    let cover = {
        // OR of the kept inputs — arity matches, function is irrelevant.
        let mut c = boolsubst::cube::Cover::new(kept.len());
        for v in 0..kept.len() {
            let mut cube = boolsubst::cube::Cube::universe(kept.len());
            cube.restrict(boolsubst::cube::Lit::pos(v));
            c.push(cube);
        }
        c
    };
    net.replace_function(target, kept, cover).expect("rewire");
    side.apply_replace(&net, target, &old_fanins);
    check_all(&net, &mut side);
}

/// On a healthy engine the checked sweep accepts exactly what the
/// unchecked sweep accepts: the guards only *veto* rewrites, and a
/// correct rewrite is never vetoed, so `checked: true` must be
/// bit-identical in both the network and the acceptance counters — with
/// every failure counter at zero.
#[test]
fn checked_mode_is_bit_identical_on_healthy_engine() {
    for seed in [11u64, 23, 47] {
        let base = random_network(seed, &GeneratorParams::default());
        for (name, opts) in modes() {
            let mut plain_net = base.clone();
            let plain = Session::new(&mut plain_net, opts.clone()).run();
            let mut checked_net = base.clone();
            let checked_opts = opts.clone().with_checked(true);
            let checked = Session::new(&mut checked_net, checked_opts.clone()).run();
            assert_eq!(
                write_blif(&checked_net),
                write_blif(&plain_net),
                "seed {seed} {name}: checked mode changed the rewrites"
            );
            assert_eq!(
                checked.substitutions, plain.substitutions,
                "seed {seed} {name}: substitutions"
            );
            assert_eq!(
                checked.literal_gain, plain.literal_gain,
                "seed {seed} {name}: literal gain"
            );
            assert_eq!(
                checked.candidates_enumerated, plain.candidates_enumerated,
                "seed {seed} {name}: candidates"
            );
            assert_eq!(checked.guard_rejections, 0, "seed {seed} {name}");
            assert_eq!(checked.engine_faults, 0, "seed {seed} {name}");
            assert_eq!(checked.quarantined, 0, "seed {seed} {name}");
            assert!(!checked.interrupted, "seed {seed} {name}");
        }
    }
}

/// An already-expired deadline must stop the sweep before any attempt:
/// the network comes back untouched and the stats marked interrupted.
#[test]
fn expired_deadline_yields_untouched_network_marked_interrupted() {
    use std::time::Instant;
    let base = random_network(11, &GeneratorParams::default());
    let opts = SubstOptions::extended().with_deadline(Instant::now());
    let mut net = base.clone();
    let stats = Session::new(&mut net, opts.clone()).run();
    assert!(stats.interrupted, "expired deadline not reported");
    assert_eq!(stats.substitutions, 0);
    assert_eq!(
        write_blif(&net),
        write_blif(&base),
        "interrupted sweep must leave a valid (here: untouched) network"
    );
    net.check_invariants();
    outputs_preserved(&base, &net);
}

/// A deadline far in the future must be invisible: same rewrites, same
/// stats, no interruption.
#[test]
fn generous_deadline_changes_nothing() {
    use std::time::{Duration, Instant};
    let base = random_network(23, &GeneratorParams::default());
    for (name, opts) in modes() {
        let mut plain_net = base.clone();
        let plain = Session::new(&mut plain_net, opts.clone()).run();
        let mut timed_net = base.clone();
        let timed_opts = opts
            .clone()
            .with_deadline(Instant::now() + Duration::from_secs(3600));
        let timed = Session::new(&mut timed_net, timed_opts.clone()).run();
        assert!(!timed.interrupted, "{name}: generous deadline tripped");
        assert_eq!(
            write_blif(&timed_net),
            write_blif(&plain_net),
            "{name}: deadline changed the rewrites"
        );
        assert_eq!(timed.substitutions, plain.substitutions, "{name}");
        assert_eq!(timed.literal_gain, plain.literal_gain, "{name}");
    }
}

/// The discovery seam must leave the default path untouched: an explicit
/// `Discovery::Overlap` selection is bit-identical to the default run for
/// every configuration, with a non-empty proposal funnel whose accepts
/// equal the substitutions.
#[test]
fn overlap_discovery_is_pinned_bit_identical() {
    use boolsubst::core::Discovery;
    for seed in [11u64, 47] {
        let base = random_network(seed, &GeneratorParams::default());
        for (name, opts) in modes() {
            let mut default_net = base.clone();
            let default = Session::new(&mut default_net, opts.clone()).run();
            let mut net = base.clone();
            let stats =
                Session::new(&mut net, opts.clone().with_discovery(Discovery::Overlap)).run();
            assert_eq!(
                stats.discovery,
                Discovery::Overlap,
                "seed {seed} {name}: resolved discovery"
            );
            assert_eq!(
                write_blif(&net),
                write_blif(&default_net),
                "seed {seed} {name}: rewrites diverged from the default run"
            );
            assert_eq!(
                stats.substitutions, default.substitutions,
                "seed {seed} {name}: substitutions"
            );
            assert_eq!(
                stats.literal_gain, default.literal_gain,
                "seed {seed} {name}: literal gain"
            );
            assert!(
                stats.discovery_proposed > 0,
                "seed {seed} {name}: empty funnel"
            );
            assert_eq!(
                stats.discovery_accepted, stats.substitutions,
                "seed {seed} {name}: accepted != substitutions"
            );
        }
    }
}

/// Attaching a tracer must be pure observation: the traced engine run
/// produces a bit-identical network and identical work counters compared
/// to the untraced run (only the `*_nanos` wall-clock fields may differ).
#[test]
fn tracer_attachment_is_invisible() {
    use boolsubst::trace::Tracer;

    for seed in [11u64, 47] {
        let base = random_network(seed, &GeneratorParams::default());
        for (name, opts) in modes() {
            let mut plain_net = base.clone();
            let plain = Session::new(&mut plain_net, opts.clone()).run();
            let mut traced_net = base.clone();
            let mut tracer = Tracer::new(name);
            let traced = Session::new(&mut traced_net, opts.clone())
                .tracer(&mut tracer)
                .run();
            assert_eq!(
                write_blif(&traced_net),
                write_blif(&plain_net),
                "seed {seed} {name}: tracer changed the rewrites"
            );
            // Compare every counter; timing fields are run-dependent.
            let mut scrubbed = traced;
            scrubbed.enumerate_nanos = plain.enumerate_nanos;
            scrubbed.filter_nanos = plain.filter_nanos;
            scrubbed.sim_nanos = plain.sim_nanos;
            scrubbed.divide_nanos = plain.divide_nanos;
            scrubbed.apply_nanos = plain.apply_nanos;
            assert_eq!(
                format!("{scrubbed:?}"),
                format!("{plain:?}"),
                "seed {seed} {name}: tracer changed the stats"
            );
            assert_eq!(
                tracer.pairs() as usize,
                traced.candidates_enumerated,
                "seed {seed} {name}: tracer missed pairs"
            );
        }
    }
}
