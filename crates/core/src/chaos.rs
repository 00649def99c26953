//! Deterministic fault injection for the checked-apply guards (`chaos`
//! feature only — nothing in this module exists in a default build).
//!
//! The chaos harness corrupts the engine at the seams the guards are
//! supposed to cover:
//!
//! * **quotient corruption** — frees a bound variable of a quotient cube
//!   right after division succeeds, emulating a wrong implication verdict
//!   (an over-removed wire enlarges the quotient's function);
//! * **cover corruption** — drops a cube from the assembled replacement
//!   cover just before it is installed, emulating cube bookkeeping rot;
//! * **signature poisoning** — flips a cached simulation-signature bit
//!   (via [`boolsubst_sim::SimFilter::chaos_poison_signature`]), emulating
//!   silent cache corruption the version stamps cannot see;
//! * **injected panics** — at pair entry and just after a successful
//!   rewrite, exercising panic isolation and mid-mutation rollback.
//!
//! All randomness is a seeded xorshift: a given configuration injects the
//! same faults in the same places on every run. State is thread-local so
//! parallel test binaries do not interfere.

use boolsubst_cube::{Cover, Cube};
use std::cell::RefCell;

/// Per-class injection rates. A rate of `N` means roughly one injection
/// per `N` opportunities (0 disables the class).
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosConfig {
    /// Rate for quotient corruption (after a successful division).
    pub quotient_rate: u32,
    /// Rate for replacement-cover corruption (before `replace_function`).
    pub cover_rate: u32,
    /// Rate for signature poisoning (before the engine's integrity audit).
    pub signature_rate: u32,
    /// Rate for panics at pair entry (before any mutation).
    pub panic_entry_rate: u32,
    /// Rate for panics right after a successful rewrite (mid-mutation from
    /// the sweep's point of view — the rollback path must fire).
    pub panic_post_apply_rate: u32,
    /// RNG seed; equal seeds inject identically.
    pub seed: u64,
}

/// How many faults each class actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosCounts {
    /// Quotient cubes enlarged.
    pub quotients_corrupted: usize,
    /// Replacement covers with a cube dropped.
    pub covers_corrupted: usize,
    /// Signature bits flipped.
    pub signatures_poisoned: usize,
    /// Panics raised.
    pub panics_injected: usize,
}

struct ChaosState {
    config: ChaosConfig,
    rng: u64,
    counts: ChaosCounts,
}

thread_local! {
    static STATE: RefCell<Option<ChaosState>> = const { RefCell::new(None) };
}

/// Arms fault injection on this thread with the given configuration.
pub fn configure(config: ChaosConfig) {
    STATE.with(|s| {
        *s.borrow_mut() = Some(ChaosState {
            config,
            rng: config.seed | 1,
            counts: ChaosCounts::default(),
        });
    });
}

/// Disarms injection and returns what was injected while armed.
pub fn disarm() -> ChaosCounts {
    STATE.with(|s| {
        s.borrow_mut()
            .take()
            .map(|st| st.counts)
            .unwrap_or_default()
    })
}

/// Injection counters so far (zeroes when disarmed).
#[must_use]
pub fn counts() -> ChaosCounts {
    STATE.with(|s| s.borrow().as_ref().map(|st| st.counts).unwrap_or_default())
}

/// One xorshift step + rate roll: `Some(random)` when the class fires.
fn roll(pick_rate: impl Fn(&ChaosConfig) -> u32) -> Option<u64> {
    STATE.with(|s| {
        let mut guard = s.borrow_mut();
        let st = guard.as_mut()?;
        let rate = pick_rate(&st.config);
        if rate == 0 {
            return None;
        }
        st.rng ^= st.rng << 13;
        st.rng ^= st.rng >> 7;
        st.rng ^= st.rng << 17;
        (st.rng % u64::from(rate) == 0).then_some(st.rng)
    })
}

fn bump(f: impl Fn(&mut ChaosCounts) -> &mut usize) {
    STATE.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            *f(&mut st.counts) += 1;
        }
    });
}

/// Where an injected panic fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicSite {
    /// Top of `plan_pair_core`, before any mutation.
    PairEntry,
    /// Right after a successful rewrite was installed.
    PostApply,
}

/// Panics at `site` when the corresponding rate rolls an injection.
///
/// # Panics
///
/// That is the point.
pub fn maybe_panic(site: PanicSite) {
    let fired = match site {
        PanicSite::PairEntry => roll(|c| c.panic_entry_rate),
        PanicSite::PostApply => roll(|c| c.panic_post_apply_rate),
    };
    if fired.is_some() {
        bump(|c| &mut c.panics_injected);
        panic!("chaos: injected panic at {site:?}");
    }
}

/// Possibly enlarges one quotient cube by freeing a bound variable —
/// a wrong "this literal wire is redundant" verdict in miniature.
#[must_use]
pub fn corrupt_quotient(q: Cover) -> Cover {
    let Some(r) = roll(|c| c.quotient_rate) else {
        return q;
    };
    let mut cubes: Vec<Cube> = q.cubes().to_vec();
    for k in 0..cubes.len() {
        let ci = (r as usize + k) % cubes.len();
        let bound: Vec<usize> = cubes[ci].support().collect();
        if let Some(&v) = bound.get((r >> 7) as usize % bound.len().max(1)) {
            cubes[ci].free_var(v);
            bump(|c| &mut c.quotients_corrupted);
            return Cover::from_cubes(q.num_vars(), cubes);
        }
    }
    q
}

/// Possibly drops one cube from the assembled replacement cover —
/// emulating cube bookkeeping rot just before the rewrite is installed.
#[must_use]
pub fn corrupt_cover(cover: Cover) -> Cover {
    let Some(r) = roll(|c| c.cover_rate) else {
        return cover;
    };
    if cover.is_empty() {
        return cover;
    }
    let mut cubes: Vec<Cube> = cover.cubes().to_vec();
    cubes.remove(r as usize % cubes.len());
    bump(|c| &mut c.covers_corrupted);
    Cover::from_cubes(cover.num_vars(), cubes)
}

/// `Some(random)` when the signature-poison class fires for this pair
/// (the engine then flips a cached signature bit of the pair's target).
#[must_use]
pub fn should_poison_signature() -> Option<u64> {
    let r = roll(|c| c.signature_rate);
    if r.is_some() {
        bump(|c| &mut c.signatures_poisoned);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolsubst_cube::parse_sop;

    #[test]
    fn disarmed_hooks_are_inert() {
        let _ = disarm();
        let q = parse_sop(3, "ab + c").expect("q");
        assert_eq!(corrupt_quotient(q.clone()), q);
        assert_eq!(corrupt_cover(q.clone()), q);
        assert_eq!(should_poison_signature(), None);
        maybe_panic(PanicSite::PairEntry);
        maybe_panic(PanicSite::PostApply);
        assert_eq!(counts(), ChaosCounts::default());
    }

    #[test]
    fn armed_classes_fire_deterministically() {
        configure(ChaosConfig {
            quotient_rate: 1,
            cover_rate: 1,
            seed: 42,
            ..ChaosConfig::default()
        });
        let q = parse_sop(3, "ab + c").expect("q");
        let corrupted = corrupt_quotient(q.clone());
        assert_ne!(corrupted, q, "rate-1 quotient corruption must fire");
        assert!(
            corrupted.literal_count() < q.literal_count(),
            "freeing a bound variable drops a literal"
        );
        let dropped = corrupt_cover(q.clone());
        assert_eq!(dropped.len(), q.len() - 1, "one cube must be dropped");
        let counts = disarm();
        assert_eq!(counts.quotients_corrupted, 1);
        assert_eq!(counts.covers_corrupted, 1);

        // Same seed, same faults.
        configure(ChaosConfig {
            quotient_rate: 1,
            cover_rate: 1,
            seed: 42,
            ..ChaosConfig::default()
        });
        assert_eq!(corrupt_quotient(q.clone()), corrupted);
        assert_eq!(corrupt_cover(q), dropped);
        let _ = disarm();
    }

    #[test]
    fn injected_panic_is_counted_and_catchable() {
        configure(ChaosConfig {
            panic_entry_rate: 1,
            seed: 7,
            ..ChaosConfig::default()
        });
        let caught = std::panic::catch_unwind(|| maybe_panic(PanicSite::PairEntry));
        assert!(caught.is_err(), "rate-1 panic must fire");
        assert_eq!(disarm().panics_injected, 1);
    }
}
