//! Non-test code lines per workspace crate: the repository's LoC
//! convention, stated once. Blank lines, comment-only lines,
//! `#[cfg(test)]` items and every `tests/` and `benches/` directory are
//! left out.
//!
//! ```sh
//! cargo run --release --example loc_report                    # every crate
//! cargo run --release --example loc_report -- crates/resilient/src
//! ```
//!
//! Paths given as arguments (files or directories, relative to the
//! repository root) are counted instead of the workspace crates.

use std::fs;
use std::path::{Path, PathBuf};

/// Non-test code lines of one Rust source file.
fn count(source: &str) -> usize {
    let (mut lines, mut depth, mut skipping, mut opened) = (0, 0i64, false, false);
    for line in source.lines().map(str::trim) {
        if skipping {
            depth += line.matches('{').count() as i64 - line.matches('}').count() as i64;
            opened |= line.contains('{');
            skipping = if opened {
                depth > 0
            } else {
                !line.ends_with(';')
            };
        } else if line == "#[cfg(test)]" {
            (skipping, depth, opened) = (true, 0, false);
        } else if !line.is_empty() && !line.starts_with("//") {
            lines += 1;
        }
    }
    lines
}

/// Sums [`count`] over the `.rs` files under `path`.
fn walk(path: &Path) -> usize {
    if path.is_file() {
        let rust = path.extension().is_some_and(|e| e == "rs");
        return if rust {
            fs::read_to_string(path).map_or(0, |s| count(&s))
        } else {
            0
        };
    }
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if ["tests", "benches", "target"].contains(&name) {
        return 0;
    }
    let entries = fs::read_dir(path).into_iter().flatten().flatten();
    entries.map(|e| walk(&e.path())).sum()
}

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut targets: Vec<PathBuf> = std::env::args().skip(1).map(PathBuf::from).collect();
    if targets.is_empty() {
        // Workspace members, then the facade package's own sources.
        let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
        let members = manifest
            .split("members = [")
            .nth(1)
            .and_then(|s| s.split(']').next());
        let quoted = members.unwrap_or("").split('"').skip(1).step_by(2);
        targets = quoted
            .chain(["src", "examples"])
            .map(PathBuf::from)
            .collect();
    }
    let mut total = 0;
    for target in &targets {
        let lines = walk(&root.join(target));
        total += lines;
        println!("{lines:>7}  {}", target.display());
    }
    println!("{total:>7}  total");
}
