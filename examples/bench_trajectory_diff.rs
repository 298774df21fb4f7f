//! Benchmark-trajectory regression gate: compare a freshly produced
//! sweep grid against the committed `BENCH_baseline.json`.
//!
//! ```sh
//! cargo run --release --example bench_trajectory_diff                # regenerate + diff
//! cargo run --release --example bench_trajectory_diff BENCH_ci.json  # diff an existing file
//! cargo run --release --example bench_trajectory_diff FRESH.json BASELINE.json
//! ```
//!
//! A cell is keyed by its text before `"summary":` (pipeline, n, t, f,
//! budget); for each key present in both files the summaries are
//! compared whole, as text, and added / removed cells are listed. Every
//! summary field — round, message and byte counts, agreement/validity,
//! `k_A`, the realized budget — is **deterministic** (seed-exact
//! simulation), so any drift is a real behaviour change and the diff
//! exits non-zero: this is a failing regression gate. Wall time is
//! deliberately not in the grid, so timing noise cannot trip the gate.
//! A missing baseline file only warns, so ad-hoc
//! checkouts without the committed baseline still run. Refresh the
//! baseline alongside intended changes with
//! `cargo run --release --example sweep_grid_json BENCH_baseline.json`.

use ba_predictions::prelude::*;
use std::collections::BTreeMap;

/// Splits a JSON array of objects into the objects' raw text (depth
/// scan; no string in the grid JSON contains braces).
fn split_objects(json: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = None;
    for (i, c) in json.char_indices() {
        match c {
            '{' => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth -= 1;
                if depth == 0 {
                    out.push(&json[start.expect("open brace")..=i]);
                }
            }
            _ => {}
        }
    }
    out
}

/// Splits a cell into its key, the text before `"summary":` (pipeline,
/// n, t, f, budget), and its summary, which is compared whole.
fn split_cell(obj: &str) -> (&str, &str) {
    let (key, summary) = obj.split_once("\"summary\":").unwrap_or((obj, ""));
    (key.trim_start_matches('{').trim_end_matches(','), summary)
}

fn grid_json() -> String {
    // The same canonical grid `examples/sweep_grid_json.rs` emits, so a
    // no-argument run always diffs like-for-like cells.
    grid_to_json(&sweep_grid(&SweepGrid::bench_default()))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let fresh = match args.next() {
        Some(path) => std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read fresh grid {path}: {e}")),
        None => grid_json(),
    };
    let baseline_path = args.next().unwrap_or_else(|| "BENCH_baseline.json".into());
    let Ok(baseline) = std::fs::read_to_string(&baseline_path) else {
        println!("WARN: no committed baseline at {baseline_path}; nothing to diff against");
        return;
    };

    let fresh_map: BTreeMap<&str, &str> =
        split_objects(&fresh).into_iter().map(split_cell).collect();
    let base_map: BTreeMap<&str, &str> = split_objects(&baseline)
        .into_iter()
        .map(split_cell)
        .collect();

    let mut drifted = 0usize;
    for (key, fresh_summary) in &fresh_map {
        match base_map.get(key) {
            None => {
                drifted += 1;
                println!("WARN: new cell (not in baseline): {key}");
            }
            Some(base_summary) if base_summary != fresh_summary => {
                drifted += 1;
                println!(
                    "WARN: drift at {key}:\n  baseline {base_summary}\n  fresh    {fresh_summary}"
                );
            }
            Some(_) => {}
        }
    }
    for key in base_map.keys() {
        if !fresh_map.contains_key(key) {
            drifted += 1;
            println!("WARN: cell disappeared from the grid: {key}");
        }
    }
    if drifted == 0 {
        println!(
            "trajectory clean: {} cells match {baseline_path}",
            fresh_map.len()
        );
    } else {
        println!(
            "FAIL: trajectory drift in {drifted}/{} cells vs {baseline_path} — the summaries \
             are deterministic, so this is a real behaviour change; refresh the baseline with \
             `cargo run --release --example sweep_grid_json BENCH_baseline.json` if it is intended",
            fresh_map.len()
        );
        std::process::exit(1);
    }
}
