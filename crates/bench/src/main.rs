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
//! Each experiment prints a human-readable table (with the paper's
//! reference numbers in the title) and writes a JSON record to
//! `results/<name>.json` for re-plotting (overwriting a previous run).
//!
//! `--trace <path>` attaches the device-timeline tracer to every
//! engine-driven replay and writes the last replay's Chrome
//! trace-event JSON to `<path>` — open it at <https://ui.perfetto.dev>.
//! `trace-check <path>` validates such a file (CI smoke).

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "a CLI: an experiment that cannot run should panic with its message"
)]

mod common;
mod experiments;

use experiments::registry;
use std::fs;
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
    let selected: Vec<String> = args.into_iter().filter(|a| !a.starts_with('-')).collect();

    if selected.first().is_some_and(|s| s == "trace-check") {
        return trace_check(&selected[1..]);
    }

    let all = registry();
    if selected.is_empty() || selected.iter().any(|s| s == "list") {
        println!("available experiments (run with names, or `all`):\n");
        for e in &all {
            println!("  {:<22} {}", e.name, e.description);
        }
        println!("\nflags: --quick  (smoke-test scales)");
        println!("       --trace <path>  (write a Perfetto trace of the last engine replay)");
        println!("\nsubcommands: trace-check <path>  (validate a trace file)");
        return ExitCode::SUCCESS;
    }

    let run_all = selected.iter().any(|s| s == "all");
    let chosen: Vec<&experiments::Experiment> = if run_all {
        all.iter().collect()
    } else {
        let mut chosen = Vec::new();
        for name in &selected {
            match all.iter().find(|e| e.name == *name) {
                Some(e) => chosen.push(e),
                None => {
                    eprintln!("unknown experiment `{name}` — try `list`");
                    return ExitCode::FAILURE;
                }
            }
        }
        chosen
    };

    let results_dir = std::path::Path::new("results");
    if let Err(e) = fs::create_dir_all(results_dir) {
        eprintln!("cannot create results dir: {e}");
        return ExitCode::FAILURE;
    }

    for experiment in chosen {
        let started = Instant::now();
        println!("\n##### {} — {}", experiment.name, experiment.description);
        let value = (experiment.run)(quick);
        let elapsed = started.elapsed();
        println!("[{} finished in {:.1?}]", experiment.name, elapsed);
        let path = results_dir.join(format!("{}.json", experiment.name));
        match serde_json::to_string_pretty(&value) {
            Ok(serialized) => {
                if let Err(e) = fs::write(&path, serialized) {
                    eprintln!("cannot write {}: {e}", path.display());
                }
            }
            Err(e) => eprintln!("cannot serialise {}: {e}", experiment.name),
        }
    }
    ExitCode::SUCCESS
}

/// `trace-check <path>`: validates a Chrome trace-event file emitted by
/// `--trace` — well-formed JSON, the expected envelope, and at least
/// one span on every die track (the CI smoke criterion).
fn trace_check(paths: &[String]) -> ExitCode {
    if paths.is_empty() {
        eprintln!("usage: trace-check <trace.json>...");
        return ExitCode::FAILURE;
    }
    for path in paths {
        let text = match fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                return ExitCode::FAILURE;
            }
        };
        let check = match leaftl_sim::validate_chrome_trace(&text) {
            Ok(check) => check,
            Err(e) => {
                eprintln!("{path}: invalid trace: {e}");
                return ExitCode::FAILURE;
            }
        };
        if !check.all_die_tracks_active() {
            eprintln!(
                "{path}: {} of {} die tracks carry no events",
                check.die_events.iter().filter(|&&n| n == 0).count(),
                check.die_tracks,
            );
            return ExitCode::FAILURE;
        }
        println!(
            "{path}: ok — {} events, {} die tracks (all active), {} queue events, {} control events",
            check.events, check.die_tracks, check.queue_events, check.control_events,
        );
    }
    ExitCode::SUCCESS
}
