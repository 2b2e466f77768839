//! Experiment harness for the LeaFTL reproduction.
//!
//! Reproduces every table and figure of the paper's evaluation:
//!
//! ```text
//! cargo run -p leaftl-bench --release -- list
//! cargo run -p leaftl-bench --release -- fig15 fig16b
//! cargo run -p leaftl-bench --release -- all
//! cargo run -p leaftl-bench --release -- --quick all   # smoke scales
//! ```
//!
//! An experiment is one measured sweep; each figure it feeds prints a
//! human-readable table and writes a JSON record to
//! `results/<name>.json` for re-plotting (overwriting a previous run).
//! Naming any figure of a sweep runs the sweep once and writes all of
//! its figures.
//!
//! Each record carries its scale (`quick` or `full`) and its figure's
//! shape, judged here: `pass`, `gap` (a miss a declared gap explains)
//! or `fail`. `results/fidelity.json` keeps one verdict per figure and
//! scale: a run replaces the entries of what it ran and keeps the
//! rest, so a `--quick all` followed by a full-scale run leaves both.
//! Any `fail` exits 1 once all is written.
//!
//! `--trace <path>` attaches the device-timeline tracer to every
//! engine-driven replay and writes the last replay's Chrome
//! trace-event JSON to `<path>` — open it at <https://ui.perfetto.dev>.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "a CLI: an experiment that cannot run should panic with its message"
)]

mod common;
mod experiments;

use experiments::registry;
use serde_json::{json, Value};
use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--trace <path>` is the only two-token flag; pull it out before
    // the generic dash filter below would eat the flag but keep the
    // path as an experiment name.
    if let Some(pos) = args.iter().position(|a| a == "--trace") {
        if pos + 1 >= args.len() {
            eprintln!("--trace needs a path argument");
            return ExitCode::FAILURE;
        }
        let path = args.remove(pos + 1);
        args.remove(pos);
        common::set_trace_path(path.into());
    }
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    let scale = if quick { "quick" } else { "full" };
    let selected: Vec<String> = args.into_iter().filter(|a| !a.starts_with('-')).collect();

    let all = registry();
    if selected.is_empty() || selected.iter().any(|s| s == "list") {
        println!("available experiments (run with names, or `all`):\n");
        for e in &all {
            for &(name, description) in e.figures {
                println!("  {name:<22} {description}");
            }
            if e.figures.len() > 1 {
                println!(
                    "  {:<22} ↳ one sweep: any of {} runs it and writes all",
                    "",
                    e.names().join(", ")
                );
            }
        }
        println!("\nflags: --quick  (smoke-test scales)");
        println!("       --trace <path>  (write a Perfetto trace of the last engine replay)");
        return ExitCode::SUCCESS;
    }

    if let Some(name) = selected
        .iter()
        .find(|s| *s != "all" && !all.iter().any(|e| e.feeds(s)))
    {
        eprintln!("unknown experiment `{name}` — try `list`");
        return ExitCode::FAILURE;
    }

    let results_dir = Path::new("results");
    if let Err(e) = fs::create_dir_all(results_dir) {
        eprintln!("cannot create results dir: {e}");
        return ExitCode::FAILURE;
    }

    // Each sweep runs once, in registry order, however many of its
    // figures are named; every record is written before a failed shape
    // or an unwritable file sets the exit code.
    let mut fidelity = Vec::new();
    let mut failed = Vec::new();
    let mut written = true;
    for experiment in all
        .iter()
        .filter(|e| selected.iter().any(|s| s == "all" || e.feeds(s)))
    {
        let started = Instant::now();
        for &(name, description) in experiment.figures {
            println!("\n##### {name} — {description}");
        }
        let figures = (experiment.run)(quick);
        let names = experiment.names();
        println!(
            "[{} finished in {:.1?}]",
            names.join(", "),
            started.elapsed()
        );
        assert_eq!(figures.len(), names.len(), "one record per figure");
        for (name, (mut record, shape)) in names.into_iter().zip(figures) {
            assert_eq!(record["experiment"].as_str(), Some(name), "figure order");
            println!("[{name}] {shape}");
            let Value::Object(members) = &mut record else {
                panic!("{name}'s record is not an object");
            };
            members.insert(0, ("schema".into(), json!(SCHEMA)));
            members.insert(1, ("scale".into(), json!(scale)));
            members.push(("shape".into(), shape.json()));
            written &= write_json(&results_dir.join(format!("{name}.json")), &record);
            if shape.verdict() == "fail" {
                failed.push(name);
            }
            let mut entry = shape.json();
            if let Value::Object(members) = &mut entry {
                members.insert(0, ("figure".into(), json!(name)));
                members.insert(1, ("scale".into(), json!(scale)));
            }
            fidelity.push(entry);
        }
    }
    let fidelity_path = results_dir.join("fidelity.json");
    let previous = fs::read_to_string(&fidelity_path)
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok());
    written &= write_json(&fidelity_path, &merge_fidelity(previous, fidelity));
    if !failed.is_empty() {
        eprintln!("failed, with no known gap: {}", failed.join(", "));
    }
    ExitCode::from(u8::from(!written || !failed.is_empty()))
}

/// Version of the `results/<name>.json` layout, stamped on every
/// record.
const SCHEMA: u32 = 1;

/// Version of `results/fidelity.json`'s layout: since 2, a list of
/// entries, each naming its figure and scale.
const FIDELITY_SCHEMA: u32 = 2;

/// The verdict file after a run: `previous`'s entries (when it is a
/// file of this layout) with each one this run's `entries` name by
/// figure and scale replaced in place, then this run's others in run
/// order.
fn merge_fidelity(previous: Option<Value>, entries: Vec<Value>) -> Value {
    let key = |entry: &Value| (entry["figure"].clone(), entry["scale"].clone());
    let mut merged = match previous {
        Some(file) if file["schema"].as_u64() == Some(u64::from(FIDELITY_SCHEMA)) => {
            file["figures"].as_array().cloned().unwrap_or_default()
        }
        _ => Vec::new(),
    };
    for entry in entries {
        match merged.iter_mut().find(|kept| key(kept) == key(&entry)) {
            Some(kept) => *kept = entry,
            None => merged.push(entry),
        }
    }
    json!({ "schema": FIDELITY_SCHEMA, "figures": Value::Array(merged) })
}

/// Writes `value` to `path` as pretty JSON; false, once the reason is
/// printed, when it cannot.
fn write_json(path: &Path, value: &Value) -> bool {
    let written = serde_json::to_string_pretty(value)
        .map_err(|e| e.to_string())
        .and_then(|text| fs::write(path, text).map_err(|e| e.to_string()));
    if let Err(e) = &written {
        eprintln!("cannot write {}: {e}", path.display());
    }
    written.is_ok()
}

#[cfg(test)]
mod tests {
    use super::{merge_fidelity, FIDELITY_SCHEMA};
    use serde_json::{json, Value};

    fn entry(figure: &str, scale: &str, verdict: &str) -> Value {
        json!({ "figure": figure, "scale": scale, "verdict": verdict })
    }

    #[test]
    fn a_run_replaces_its_own_verdicts_and_keeps_the_others() {
        let quick = merge_fidelity(
            None,
            vec![
                entry("fig5", "quick", "pass"),
                entry("fig15", "quick", "gap"),
            ],
        );
        let full = merge_fidelity(
            Some(quick),
            vec![
                entry("fig15", "full", "pass"),
                entry("fig5", "full", "fail"),
            ],
        );
        let again = merge_fidelity(Some(full), vec![entry("fig15", "quick", "pass")]);
        assert_eq!(
            again,
            json!({
                "schema": FIDELITY_SCHEMA,
                "figures": [
                    entry("fig5", "quick", "pass"),
                    entry("fig15", "quick", "pass"),
                    entry("fig15", "full", "pass"),
                    entry("fig5", "full", "fail"),
                ],
            })
        );
    }

    #[test]
    fn a_file_of_another_layout_is_replaced() {
        let old = json!({ "schema": 1, "figures": { "fig5": { "verdict": "pass" } } });
        let merged = merge_fidelity(Some(old), vec![entry("fig5", "quick", "fail")]);
        assert_eq!(
            merged,
            json!({ "schema": FIDELITY_SCHEMA, "figures": [entry("fig5", "quick", "fail")] })
        );
    }
}
