//! Rewrites the golden quality table (`tests/golden_quality.txt`) from
//! the current engine: runs every case of [`boolsubst_bench::golden`] and
//! writes one row per case. The `golden_quality` test only ever reads
//! the table; blessing is always this explicit step, and the resulting
//! diff is reviewed like code.
//!
//! ```text
//! cargo run --release --offline -p boolsubst-bench --bin golden_bless
//! ```

use boolsubst_bench::golden::{all_cases, render, run, TABLE_PATH};
use std::path::Path;

fn main() {
    let rows: Vec<_> = all_cases()
        .iter()
        .map(|case| (case.id.clone(), run(case)))
        .collect();
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(TABLE_PATH);
    std::fs::write(&path, render(&rows)).expect("write the golden table");
    println!("blessed {} rows into {TABLE_PATH}", rows.len());
}
