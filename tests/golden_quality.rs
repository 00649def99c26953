//! Absolute quality pins: every (circuit, configuration) case of
//! `boolsubst_bench::golden` must reproduce its row of
//! `tests/golden_quality.txt` exactly — acceptance counters, division
//! attempts, passes, final factored literals and the BLIF hash. The
//! table is only read here; regenerate it with the `golden_bless`
//! binary and review the diff.

use boolsubst_bench::golden::{all_cases, cases, parse, run, Group};
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
