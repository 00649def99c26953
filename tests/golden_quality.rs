//! Absolute quality pins: every (circuit, configuration) case of
//! `boolsubst_bench::golden` must reproduce its row of
//! `tests/golden_quality.txt` exactly — acceptance counters, division
//! attempts, passes, final factored literals and the BLIF hash. The
//! table is only read here; regenerate it with the `golden_bless`
//! binary and review the diff.

use boolsubst::core::SubstMode;
use boolsubst_bench::golden::{all_cases, cases, parse, run, run_with, Group};
use std::collections::BTreeMap;

const TABLE: &str = include_str!("golden_quality.txt");

fn table() -> BTreeMap<String, String> {
    parse(TABLE).unwrap_or_else(|e| panic!("golden table: {e}"))
}

/// Runs every case of `group` and reports all differing rows at once.
fn check(group: Group) {
    let table = table();
    let mut diffs = Vec::new();
    for case in cases(group) {
        let want = table
            .get(&case.id)
            .map_or("<missing: run golden_bless>", String::as_str);
        let got = run(&case);
        if got != want {
            diffs.push(format!("{}:\n  want {want}\n  got  {got}", case.id));
        }
    }
    assert!(
        diffs.is_empty(),
        "{} golden row(s) differ:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}

/// Checked runs of every non-GDC case of `groups` must reproduce the
/// case's row — the pinned unchecked result, BLIF hash included — with
/// every accept proved on its local window: no whole-network fallback
/// and no guard rejection. GDC rewrites always take the whole-network
/// compare, so they are left out.
fn check_checked(groups: &[Group]) {
    let table = table();
    let mut diffs = Vec::new();
    for case in groups.iter().flat_map(|&g| cases(g)) {
        if case.options().mode == SubstMode::ExtendedGdc {
            continue;
        }
        let want = table
            .get(&case.id)
            .map_or("<missing: run golden_bless>", String::as_str);
        let (got, stats) = run_with(&case, case.options().clone().with_checked(true));
        if got != want || stats.guard_fallbacks != 0 || stats.guard_rejections != 0 {
            diffs.push(format!(
                "{}:\n  want {want}\n  got  {got} (fallbacks {}, rejections {})",
                case.id, stats.guard_fallbacks, stats.guard_rejections
            ));
        }
    }
    assert!(
        diffs.is_empty(),
        "{} checked row(s) differ:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}

#[test]
fn checked_small_circuits_match_golden_without_fallbacks() {
    check_checked(&[
        Group::Suite,
        Group::Paper,
        Group::Random,
        Group::Planted,
        Group::Policy,
    ]);
}

#[test]
fn checked_large_adder_matches_golden_without_fallbacks() {
    check_checked(&[Group::Large]);
}

#[test]
fn table_rows_match_the_case_list() {
    let ids: Vec<String> = all_cases().into_iter().map(|c| c.id).collect();
    let table_ids: Vec<String> = table().into_keys().collect();
    let mut sorted = ids.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), ids.len(), "duplicate case ids");
    assert_eq!(
        sorted, table_ids,
        "table and case list disagree (run golden_bless)"
    );
}

#[test]
fn full_suite_matches_golden() {
    check(Group::Suite);
}

#[test]
fn paper_examples_match_golden() {
    check(Group::Paper);
}

#[test]
fn random_networks_match_golden() {
    check(Group::Random);
}

#[test]
fn planted_networks_match_golden() {
    check(Group::Planted);
}

#[test]
fn best_gain_and_multipass_match_golden() {
    check(Group::Policy);
}

#[test]
fn large_adder_matches_golden() {
    check(Group::Large);
}
