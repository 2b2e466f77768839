//! `leaftl-perf diff A.json B.json`: a verdict per workload × end-to-end
//! metric against the bounds `BENCHMARK.json` fixes, every ratio with
//! its base.

use crate::json;
use serde_json::Value;

/// Two runs that `diff` accepts had identical inputs, and for one input
/// everything on the simulated clock repeats exactly. So a simulated
/// metric needs no allowance for seed-to-seed scatter — which is what
/// `BENCHMARK.json`'s bounds for them are sized for — and is held to
/// this bound instead when it is the tighter one.
const SAME_INPUT_SIM_BOUND: f64 = 0.01;

/// One end-to-end metric's direction and allowed worsening.
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// Reads the bounds from `BENCHMARK.json` (in the working directory
/// unless `path` says otherwise).
pub fn load_bounds(path: Option<&str>) -> Result<Vec<Bound>, String> {
    let path = path.unwrap_or("BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let document = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let metrics = document["end_to_end"]
        .as_array()
        .ok_or_else(|| format!("{path}: no `end_to_end` list"))?;
    metrics
        .iter()
        .map(|metric| {
            let field = |key: &str| {
                metric[key]
                    .as_str()
                    .ok_or_else(|| format!("{path}: an end-to-end metric lacks `{key}`"))
            };
            Ok(Bound {
                name: field("name")?.to_string(),
                lower_is_better: field("better")? == "lower",
                bound: metric["bound"]
                    .as_f64()
                    .ok_or_else(|| format!("{path}: an end-to-end metric lacks `bound`"))?,
            })
        })
        .collect()
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn command(files: &[String], bounds: Option<&str>) -> Result<bool, String> {
    let [a, b] = files else {
        return Err("diff takes exactly two `run` documents".into());
    };
    report(&load(a)?, &load(b)?, &load_bounds(bounds)?, false)
}

/// Prints the comparison of two `run` documents, `a` being the base.
/// Returns whether `b` is no worse than `a` by more than any bound.
/// With `same_code`, everything on the simulated clock must also be
/// bit-identical (the two documents came from one build).
///
/// # Errors
///
/// Refuses to compare runs whose inputs differ.
pub fn report(a: &Value, b: &Value, bounds: &[Bound], same_code: bool) -> Result<bool, String> {
    let workloads = a["workloads"]
        .as_object()
        .ok_or("the first document is not a `run` document")?;
    // Smoke-scale phases last a tenth of a second: their host times
    // are printed but mean nothing, so only simulated metrics count.
    let smoke = a["smoke"].as_bool() == Some(true) || b["smoke"].as_bool() == Some(true);
    let mut acceptable = true;
    for (workload, base) in workloads {
        let other = &b["workloads"][workload.as_str()];
        if other.as_object().is_none() {
            return Err(format!("{workload}: missing from the second document"));
        }
        if base["input_digest"] != other["input_digest"] {
            return Err(format!(
                "{workload}: input_digest {} vs {} — the two runs did not get the same \
                 inputs (another seed, or the workload generators changed), so their \
                 numbers do not compare",
                base["input_digest"], other["input_digest"]
            ));
        }
        println!("{workload}");
        if base["sim_digest"] == other["sim_digest"] {
            println!("  sim_digest         unchanged ({})", base["sim_digest"]);
        } else {
            println!(
                "  sim_digest         CHANGED {} -> {}: simulated behaviour differs",
                base["sim_digest"], other["sim_digest"]
            );
            acceptable &= !same_code;
        }
        for bound in bounds {
            let metric = &base["end_to_end"][bound.name.as_str()];
            let simulated = metric["clock"].as_str() == Some("sim");
            let allowed = if simulated {
                bound.bound.min(SAME_INPUT_SIM_BOUND)
            } else {
                bound.bound
            };
            let value = |doc: &Value| doc["end_to_end"][bound.name.as_str()]["value"].as_f64();
            let (Some(from), Some(to)) = (value(base), value(other)) else {
                return Err(format!(
                    "{workload}: `{}` missing from a document",
                    bound.name
                ));
            };
            let change = if from == 0.0 { 0.0 } else { (to - from) / from };
            let worse_by = if bound.lower_is_better {
                change
            } else {
                -change
            };
            let verdict = if smoke && !simulated {
                "not judged at smoke scale"
            } else if worse_by > allowed {
                acceptable = false;
                "WORSE"
            } else if -worse_by > allowed {
                "better"
            } else {
                "within bound"
            };
            println!(
                "  {:<18} {from:>16.4} -> {to:>16.4}  {:+8.3} % of base {from:.4}  (bound {:.1} %, {} is better)  {verdict}",
                bound.name,
                change * 100.0,
                allowed * 100.0,
                if bound.lower_is_better { "lower" } else { "higher" },
            );
        }
        if same_code {
            for section in ["end_to_end", "per_layer"] {
                for (name, metric) in base[section].as_object().into_iter().flatten() {
                    let twin = &other[section][name.as_str()];
                    if metric["clock"].as_str() == Some("sim") && metric["value"] != twin["value"] {
                        println!(
                            "  {name}: {} vs {} — a simulated quantity did not repeat",
                            metric["value"], twin["value"]
                        );
                        acceptable = false;
                    }
                }
            }
        }
    }
    println!(
        "{}",
        if acceptable {
            "diff: no metric worse than its bound"
        } else {
            "diff: NOT acceptable"
        }
    );
    Ok(acceptable)
}
