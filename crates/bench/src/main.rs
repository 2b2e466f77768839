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

    let all = registry();
    if selected.is_empty() || selected.iter().any(|s| s == "list") {
        println!("available experiments (run with names, or `all`):\n");
        for e in &all {
            println!("  {:<22} {}", e.name, e.description);
        }
        println!("\nflags: --quick  (smoke-test scales)");
        println!("       --trace <path>  (write a Perfetto trace of the last engine replay)");
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
