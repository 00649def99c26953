//! Pins the determinism contract of the parallel speculative sweep: for
//! any worker count the engine must accept bit-identical rewrites (same
//! BLIF output) and agree on every acceptance-relevant statistic with the
//! sequential sweep. Only refinement-derived counters may differ from a
//! 1-thread run (parallel epochs never refine the pattern pool), and even
//! those must be identical between any two parallel widths.

use boolsubst::core::{all_configs, Session, SubstOptions, SubstStats};
use boolsubst::network::{write_blif, Network};
use boolsubst::workloads::generator::{random_network, GeneratorParams};

fn modes() -> Vec<(&'static str, SubstOptions)> {
    ["basic", "extended", "extended_gdc"]
        .into_iter()
        .zip(all_configs())
        .collect()
}

fn run(base: &Network, opts: SubstOptions) -> (Network, SubstStats) {
    let mut net = base.clone();
    let stats = Session::new(&mut net, opts).run();
    net.check_invariants();
    (net, stats)
}

/// The counters decided purely by commits and filters — everything the
/// epoch protocol promises to reproduce exactly at any width.
fn acceptance_counters(s: &SubstStats) -> Vec<(&'static str, i64)> {
    vec![
        ("substitutions", s.substitutions as i64),
        ("pos_substitutions", s.pos_substitutions as i64),
        ("extended_decompositions", s.extended_decompositions as i64),
        ("literal_gain", s.literal_gain),
        ("passes", s.passes as i64),
        ("candidates_enumerated", s.candidates_enumerated as i64),
        ("divisions_tried", s.divisions_tried as i64),
        ("filtered_by_index", s.filtered_by_index as i64),
        ("filtered_structural", s.filtered_structural as i64),
        ("filtered_tfo", s.filtered_tfo as i64),
        ("filtered_divisor_size", s.filtered_divisor_size as i64),
        ("filtered_joint_space", s.filtered_joint_space as i64),
        ("shadow_cache_hits", s.shadow_cache_hits as i64),
        ("shadow_cache_misses", s.shadow_cache_misses as i64),
        ("guard_rejections", s.guard_rejections as i64),
        ("engine_faults", s.engine_faults as i64),
        ("quarantined", s.quarantined as i64),
    ]
}

#[test]
fn parallel_sweep_is_bit_identical_to_sequential() {
    for seed in [11u64, 23, 47] {
        let base = random_network(seed, &GeneratorParams::default());
        for (name, opts) in modes() {
            let (seq_net, seq) = run(&base, opts.clone());
            for threads in [2usize, 4, 8] {
                let (par_net, par) = run(&base, opts.clone().with_threads(threads));
                assert_eq!(
                    write_blif(&par_net),
                    write_blif(&seq_net),
                    "seed {seed} {name} threads {threads}: rewrites diverged"
                );
                for ((key, s), (_, p)) in acceptance_counters(&seq)
                    .into_iter()
                    .zip(acceptance_counters(&par))
                {
                    assert_eq!(p, s, "seed {seed} {name} threads {threads}: {key} diverged");
                }
            }
        }
    }
}

/// Between two *parallel* widths nothing at all may differ: both skip
/// mid-pass refinement, so even the sim- and RAR-derived counters must be
/// equal — only the wall-clock fields are run-dependent.
#[test]
fn parallel_widths_agree_on_every_counter() {
    for seed in [11u64, 47] {
        let base = random_network(seed, &GeneratorParams::default());
        for (name, opts) in modes() {
            let (two_net, two) = run(&base, opts.clone().with_threads(2));
            let (four_net, four) = run(&base, opts.clone().with_threads(4));
            assert_eq!(
                write_blif(&two_net),
                write_blif(&four_net),
                "seed {seed} {name}: 2-thread and 4-thread rewrites diverged"
            );
            let mut scrubbed = four;
            scrubbed.enumerate_nanos = two.enumerate_nanos;
            scrubbed.filter_nanos = two.filter_nanos;
            scrubbed.sim_nanos = two.sim_nanos;
            scrubbed.divide_nanos = two.divide_nanos;
            scrubbed.apply_nanos = two.apply_nanos;
            assert_eq!(
                format!("{scrubbed:?}"),
                format!("{two:?}"),
                "seed {seed} {name}: parallel widths disagree beyond timing"
            );
        }
    }
}

/// A deadline that is already expired stops a parallel sweep before any
/// epoch, exactly like the sequential engine.
#[test]
fn parallel_sweep_honors_expired_deadline() {
    use std::time::Instant;
    let base = random_network(11, &GeneratorParams::default());
    let opts = SubstOptions::extended()
        .with_threads(4)
        .with_deadline(Instant::now());
    let (net, stats) = run(&base, opts);
    assert!(stats.interrupted, "expired deadline not reported");
    assert_eq!(stats.substitutions, 0);
    assert_eq!(write_blif(&net), write_blif(&base));
}

/// Checked mode composes with the parallel sweep: on a healthy engine the
/// guards veto nothing, so the result stays bit-identical to the plain
/// sequential run with every failure counter at zero.
#[test]
fn checked_parallel_sweep_is_bit_identical_and_clean() {
    let base = random_network(23, &GeneratorParams::default());
    for (name, opts) in modes() {
        let (seq_net, _) = run(&base, opts.clone());
        let (par_net, par) = run(&base, opts.clone().with_checked(true).with_threads(4));
        assert_eq!(
            write_blif(&par_net),
            write_blif(&seq_net),
            "{name}: checked parallel sweep changed the rewrites"
        );
        assert_eq!(par.guard_rejections, 0, "{name}");
        assert_eq!(par.engine_faults, 0, "{name}");
        assert_eq!(par.quarantined, 0, "{name}");
    }
}

/// Fault isolation: a panic inside a *worker thread* must be caught at
/// the speculated pair, booked as an engine fault, quarantined — and must
/// never poison the committer. The sweep finishes, the network still
/// computes the same functions. Best-gain dry runs take the same epoch
/// path at every width, so they are held to the same contract at 1 and 4
/// threads.
#[cfg(feature = "chaos")]
#[test]
fn worker_panic_quarantines_the_pair_and_spares_the_committer() {
    use boolsubst::core::chaos::{configure, disarm, ChaosConfig};
    use boolsubst::core::verify::networks_equivalent;
    use boolsubst::core::Acceptance;

    for (acceptance, threads) in [
        (Acceptance::FirstGain, 4usize),
        (Acceptance::BestGain, 1),
        (Acceptance::BestGain, 4),
    ] {
        let mut any_faults = 0usize;
        for seed in [11u64, 23, 47] {
            let base = random_network(seed, &GeneratorParams::default());
            let mut net = base.clone();
            configure(ChaosConfig {
                panic_entry_rate: 2,
                seed,
                ..ChaosConfig::default()
            });
            // Returning at all proves no worker panic escaped the epoch.
            let opts = SubstOptions::extended()
                .with_checked(true)
                .with_acceptance(acceptance)
                .with_threads(threads);
            let stats = Session::new(&mut net, opts).run();
            let _ = disarm();
            net.check_invariants();
            let run = format!("seed {seed} {acceptance:?} threads {threads}");
            assert!(
                networks_equivalent(&base, &net),
                "{run}: worker faults corrupted the network"
            );
            assert_eq!(
                stats.engine_faults, stats.quarantined,
                "{run}: every fault must quarantine its pair"
            );
            any_faults += stats.engine_faults;
        }
        assert!(
            any_faults > 0,
            "{acceptance:?} threads {threads}: rate-2 entry panics never fired"
        );
    }
}
