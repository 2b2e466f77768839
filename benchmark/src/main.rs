//! `leaftl-perf` — the repository's two-clock benchmark.
//!
//! Simulated time (what the modelled SSD would take) and host time
//! (what the simulator takes to model it) are measured end to end and
//! layer by layer, from outside: the benchmark calls only `pub` items
//! of the umbrella crate. See `README.md` for the metric glossary and
//! the run protocol.
//!
//! ```text
//! leaftl-perf --workload W --seed N --seconds S --trace 0|1   one result line (BENCHMARK.json's command)
//! leaftl-perf run --seed N [--rounds R] [--out FILE] [--smoke]   every workload, every metric
//! leaftl-perf diff A.json B.json [--bounds BENCHMARK.json]       verdict per workload × metric
//! leaftl-perf selfcheck [--seed N] [--smoke]                      two runs, then diff
//! leaftl-perf one --workload W --seed N [--traced] [--smoke]      a single child (what the others spawn)
//! ```

mod alloc_count;
mod calibrate;
mod diff;
mod json;
mod oracle;
mod probe;
mod report;
mod spans;
mod summary;
#[cfg(test)]
mod tests;
mod workloads;

use calibrate::Pace;
use report::{Plan, Summary};
use serde_json::{json, Value};
use std::cell::RefCell;
use std::process::ExitCode;
use std::rc::Rc;
use workloads::{Inject, RunSpec, Workload};

#[global_allocator]
static ALLOCATOR: alloc_count::Counting = alloc_count::Counting;

/// Command-line options after the subcommand: `--name value` pairs,
/// bare `--flags`, and positional arguments.
struct Options {
    named: Vec<(String, String)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

const FLAGS: [&str; 2] = ["--traced", "--smoke"];

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut options = Options {
            named: Vec::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if FLAGS.contains(&arg.as_str()) {
                options.flags.push(arg.clone());
            } else if arg.starts_with("--") {
                let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
                options.named.push((arg.clone(), value.clone()));
            } else {
                options.positional.push(arg.clone());
            }
        }
        Ok(options)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.named
            .iter()
            .find(|(key, _)| key == name)
            .map(|(_, value)| value.as_str())
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|flag| flag == name)
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match (self.get(name), default) {
            (Some(text), _) => text
                .parse()
                .map_err(|_| format!("{name}: `{text}` is not a valid number")),
            (None, Some(default)) => Ok(default),
            (None, None) => Err(format!("{name} is required")),
        }
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.get("--workload").ok_or("--workload is required")?;
        Workload::from_name(name).ok_or_else(|| {
            let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload `{name}` (known: {})", known.join(", "))
        })
    }

    /// Seed, scale and fault injection of the children to spawn.
    fn plan(&self) -> Result<Plan, String> {
        Ok(Plan {
            seed: self.number("--seed", None)?,
            smoke: self.flag("--smoke"),
            inject: self.inject()?,
        })
    }

    fn inject(&self) -> Result<Option<Inject>, String> {
        match self.get("--inject") {
            None => Ok(None),
            Some("readback") => Ok(Some(Inject::Readback)),
            Some("digest") => Ok(Some(Inject::Digest)),
            Some(other) => Err(format!(
                "--inject: `{other}` is neither readback nor digest"
            )),
        }
    }
}

fn main() -> ExitCode {
    // First thing in the process: a child's set-up time counts from
    // here.
    let pace = Rc::new(RefCell::new(Pace::new()));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(command @ ("run" | "one" | "diff" | "selfcheck")) => (command, &args[1..]),
        _ => ("contract", &args[..]),
    };
    let outcome = Options::parse(rest).and_then(|options| match command {
        "one" => one(&options, pace),
        "run" => run(&options),
        "diff" => diff::command(&options.positional, options.get("--bounds")),
        "selfcheck" => selfcheck(&options),
        _ => contract(&options),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("leaftl-perf: {message}");
            ExitCode::from(2)
        }
    }
}

/// One child: a single repetition of one workload, as one JSON line.
fn one(options: &Options, pace: Rc<RefCell<Pace>>) -> Result<bool, String> {
    let workload = options.workload()?;
    let spec = RunSpec {
        seed: options.number("--seed", None)?,
        smoke: options.flag("--smoke"),
        spans: options.flag("--traced").then(spans::SpanTable::new),
        inject: options.inject()?,
        pace,
    };
    let mut record = workloads::run(workload, &spec);
    if spec.spans.is_some() && workload == Workload::BlockingMix {
        let (sftl, dftl) = workloads::run_baselines(&spec);
        let Value::Object(members) = &mut record else {
            unreachable!("a record is an object");
        };
        members.push(("baselines".into(), json!({ "sftl": sftl, "dftl": dftl })));
    }
    println!("{record}");
    Ok(true)
}

/// `BENCHMARK.json`'s command: one workload, one result line.
fn contract(options: &Options) -> Result<bool, String> {
    let workload = options.workload()?;
    let seconds: f64 = options.number("--seconds", None)?;
    let plan = options.plan()?;
    let summary = match options.get("--trace") {
        Some("0") => Summary::of(&plan.for_seconds(workload, seconds)?),
        // The layer numbers need one run of each kind; `--seconds`
        // has nothing to stretch.
        Some("1") => Summary::of(&plan.rounds(&[workload], 1, true)?.remove(0)),
        _ => return Err("--trace must be 0 or 1".into()),
    };
    for problem in &summary.problems {
        eprintln!("leaftl-perf: {problem}");
    }
    let metrics = if summary.per_layer.is_empty() {
        &summary.end_to_end
    } else {
        &summary.per_layer
    };
    println!("{}", summary.contract_line(metrics));
    Ok(summary.correct())
}

/// Every workload, `--rounds` untraced repetitions each plus a traced
/// one: the document later changes are compared with.
fn run_document(plan: &Plan, rounds: usize) -> Result<(Value, bool), String> {
    let runs = plan.rounds(&Workload::ALL, rounds, true)?;
    let summaries: Vec<Summary> = runs.iter().map(Summary::of).collect();
    let correct = summaries.iter().all(Summary::correct);
    for problem in summaries.iter().flat_map(|s| &s.problems) {
        eprintln!("leaftl-perf: {problem}");
    }
    let document = json!({
        "benchmark": "leaftl-perf",
        "seed": plan.seed,
        "rounds": rounds,
        "smoke": plan.smoke,
        "host_cpus": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "correct": correct,
        "workloads": json::object(
            summaries.iter().map(|s| (s.workload.name(), s.to_json())),
        ),
    });
    Ok((document, correct))
}

fn run(options: &Options) -> Result<bool, String> {
    let plan = options.plan()?;
    let (document, correct) = run_document(&plan, options.number("--rounds", Some(5))?)?;
    let text = serde_json::to_string_pretty(&document).expect("rendering cannot fail");
    if let Some(path) = options.get("--out") {
        std::fs::write(path, format!("{text}\n")).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{text}");
    Ok(correct)
}

/// Two full runs of the same code, then `diff`: they must agree within
/// the benchmark's own bounds, and exactly on everything simulated.
fn selfcheck(options: &Options) -> Result<bool, String> {
    let plan = Plan {
        seed: options.number("--seed", Some(1))?,
        smoke: options.flag("--smoke"),
        inject: None,
    };
    let rounds = options.number("--rounds", Some(if plan.smoke { 2 } else { 5 }))?;
    let (first, first_correct) = run_document(&plan, rounds)?;
    let (second, second_correct) = run_document(&plan, rounds)?;
    let bounds = diff::load_bounds(options.get("--bounds"))?;
    let agree = diff::report(&first, &second, &bounds, true)?;
    Ok(first_correct && second_correct && agree)
}
