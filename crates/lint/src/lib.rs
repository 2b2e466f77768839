//! # leaftl-lint — workspace determinism & timeline-accounting linter
//!
//! The repo's benchmarking story (byte-deterministic Perfetto exports,
//! seed-reproducible 1k-tenant fleets, cycle-exact QD=1 equivalence,
//! crash-point sweeps) rests on invariants that tests can only check
//! after the fact. This crate makes the audit mechanical: a hand-rolled
//! [lexer](lexer) (no `syn` in the offline container) walks every
//! workspace source and enforces repo-specific [rules](rules), each
//! born from a gotcha a past PR actually hit:
//!
//! | Rule | Contract | Motivating gotcha |
//! |------|----------|-------------------|
//! | `D1` | no order-dependent `HashMap`/`HashSet` iteration in sim/core | PR 9's byte-identical trace exports hold only because no state path iterates a hash collection |
//! | `D2` | no wall clock / ambient randomness in sim/core; no `RandomState` hash collection in flash/core/sim/baselines | virtual time is `SimClock`'s; one `Instant::now` breaks replay determinism, and an entropy-seeded hasher leaves determinism to an audit of every use |
//! | `M1` | no `_ =>` arms in matches on `Command`/`IoKind`/`Source`/`CheckpointMode` | PR 6/8 added MapLog/QoS variants — a wildcard would have silently swallowed them in arbiters/trace/stats |
//! | `P1` | no `unwrap`/`expect` in sim/core hot paths | a panic mid-dispatch poisons the whole device timeline |
//! | `T2` | nanosecond subtraction is saturating/checked in clock/ssd/qos | u64 ns underflow wraps to ~584 years and corrupts histograms silently |
//! | `A1` | `#![forbid(unsafe_code)]` + `#![deny(missing_docs)]` in every crate root | crate-attribute drift |
//!
//! Escape hatch: `lint.toml` at the workspace root ([allowlist]) — every
//! entry needs a one-line justification, and stale entries fail the
//! gate. Findings land in `results/lint.json` ([report]) and CI runs
//! `cargo run -p leaftl-lint -- check` as a hard step.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod allowlist;
pub mod lexer;
pub mod report;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};

use allowlist::Allowlist;
use report::RunReport;
use rules::{check_crate_root, lint_file, Finding};

/// Directories (workspace-relative) whose `.rs` sources are linted.
/// `vendor/` is excluded: the stubs mimic external crates and are
/// replaced wholesale when the real ones become available.
const LINT_ROOTS: [&str; 2] = ["src", "crates"];

/// Runs the full lint over the workspace at `root` with the allowlist
/// in `root/lint.toml` (an absent file means an empty allowlist).
pub fn run(root: &Path) -> Result<RunReport, String> {
    let allow_path = root.join("lint.toml");
    let allow = if allow_path.exists() {
        let text = fs::read_to_string(&allow_path)
            .map_err(|e| format!("reading {}: {e}", allow_path.display()))?;
        Allowlist::parse(&text)?
    } else {
        Allowlist::empty()
    };

    let files = collect_sources(root)?;
    let mut all_findings: Vec<Finding> = Vec::new();
    for rel in &files {
        let source =
            fs::read_to_string(root.join(rel)).map_err(|e| format!("reading {rel}: {e}"))?;
        all_findings.extend(lint_file(rel, &source));
    }
    for (rel, is_lib) in crate_roots(root)? {
        let source =
            fs::read_to_string(root.join(&rel)).map_err(|e| format!("reading {rel}: {e}"))?;
        all_findings.extend(check_crate_root(&rel, &source, is_lib));
    }
    all_findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));

    let mut used = vec![false; allow.entries.len()];
    let mut report = RunReport {
        files_scanned: files.len(),
        ..RunReport::default()
    };
    for f in all_findings {
        match allow.matches(&f) {
            Some(idx) => {
                used[idx] = true;
                let reason = allow.entries[idx].reason.clone();
                report.allowed.push((f, reason));
            }
            None => report.violations.push(f),
        }
    }
    report.stale_allows = allow
        .entries
        .into_iter()
        .zip(used)
        .filter_map(|(e, u)| (!u).then_some(e))
        .collect();
    Ok(report)
}

/// All lintable `.rs` files under the workspace, sorted, relative to
/// `root` with forward slashes.
fn collect_sources(root: &Path) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for top in LINT_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            // Only `src/` trees are product code; benches, fixtures and
            // integration tests of individual crates are test code by
            // construction and carry their own conventions.
            if name == "target" || name == "benches" || name == "tests" || name == "fixtures" {
                continue;
            }
            walk(&path, root, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| e.to_string())?
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Every workspace crate root as (path, is_lib): `crates/*/src/lib.rs`
/// or `crates/*/src/main.rs`, plus the umbrella `src/lib.rs`.
fn crate_roots(root: &Path) -> Result<Vec<(String, bool)>, String> {
    let mut out = Vec::new();
    if root.join("src/lib.rs").exists() {
        out.push(("src/lib.rs".to_string(), true));
    }
    let crates = root.join("crates");
    let mut dirs: Vec<PathBuf> = fs::read_dir(&crates)
        .map_err(|e| format!("reading {}: {e}", crates.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        let lib = dir.join("src/lib.rs");
        let main = dir.join("src/main.rs");
        for (path, is_lib) in [(lib, true), (main, false)] {
            if path.exists() {
                let rel = path
                    .strip_prefix(root)
                    .map_err(|e| e.to_string())?
                    .to_string_lossy()
                    .replace('\\', "/");
                out.push((rel, is_lib));
            }
        }
    }
    Ok(out)
}
