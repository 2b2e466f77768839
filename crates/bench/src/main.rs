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
//! human-readable table (with the paper's reference numbers in the
//! title) and writes a JSON record to `results/<name>.json` for
//! re-plotting (overwriting a previous run). Naming any figure of a
//! sweep runs the sweep once and writes all of its figures.
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

    // Each sweep runs once, however many of its figures are named.
    let mut chosen: Vec<&experiments::Experiment> = Vec::new();
    if selected.iter().any(|s| s == "all") {
        chosen.extend(&all);
    } else {
        for name in &selected {
            let Some(e) = all.iter().find(|e| e.feeds(name)) else {
                eprintln!("unknown experiment `{name}` — try `list`");
                return ExitCode::FAILURE;
            };
            if !chosen.iter().any(|c| std::ptr::eq(*c, e)) {
                chosen.push(e);
            }
        }
    }

    let results_dir = std::path::Path::new("results");
    if let Err(e) = fs::create_dir_all(results_dir) {
        eprintln!("cannot create results dir: {e}");
        return ExitCode::FAILURE;
    }

    for experiment in chosen {
        let started = Instant::now();
        for &(name, description) in experiment.figures {
            println!("\n##### {name} — {description}");
        }
        let values = (experiment.run)(quick);
        let names = experiment.names();
        println!(
            "[{} finished in {:.1?}]",
            names.join(", "),
            started.elapsed()
        );
        assert_eq!(values.len(), names.len(), "one record per figure");
        for (name, value) in names.into_iter().zip(values) {
            assert_eq!(
                value["experiment"].as_str(),
                Some(name),
                "records in figure order"
            );
            let path = results_dir.join(format!("{name}.json"));
            match serde_json::to_string_pretty(&value) {
                Ok(serialized) => {
                    if let Err(e) = fs::write(&path, serialized) {
                        eprintln!("cannot write {}: {e}", path.display());
                    }
                }
                Err(e) => eprintln!("cannot serialise {name}: {e}"),
            }
        }
    }
    ExitCode::SUCCESS
}
