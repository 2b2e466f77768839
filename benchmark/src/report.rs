//! The parent side: runs children one at a time, checks that what must
//! repeat exactly does, takes medians of what does not, and names
//! every metric with its unit.

use crate::json::{self, object};
use crate::summary::{median, quartiles, ratio as per};
use crate::workloads::{Inject, Workload};
use serde_json::{json, Value};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// End-to-end metrics: `(name, unit, clock)`. `sim` repeats exactly for
/// one seed; `host` is wall clock, reported as a median over the
/// repetitions.
pub const END_TO_END: [(&str, &str, &str); 9] = [
    ("sim_iops", "1/s", "sim"),
    ("sim_mean_lat_us", "us", "sim"),
    ("sim_tail1pct_lat_us", "us", "sim"),
    ("sim_p999_lat_us", "us", "sim"),
    ("sim_waf", "ratio", "sim"),
    ("map_full_bytes", "bytes", "sim"),
    ("host_kops_per_s", "kops/s", "host"),
    ("host_peak_rss_mib", "MiB", "host"),
    ("setup_s", "s", "host"),
];

/// What every run of one workload and seed must print identically,
/// whichever process ran it and whether or not it was traced.
const MUST_REPEAT: [&str; 6] = [
    "input_digest",
    "sim_digest",
    "attempted",
    "failed",
    "sim",
    "counters",
];

/// Units of the per-layer metrics that are not plain counts.
fn per_layer_unit(name: &str) -> &'static str {
    if name.ends_with("_ns_per_op")
        || name.ends_with("_ns_per_call")
        || name.ends_with("_ns_per_lpa")
        || name.ends_with("_ns_per_pair")
    {
        "ns"
    } else if name.ends_with("_us") || name.ends_with("_us_per_call") {
        "us"
    } else if name.ends_with("_ms") {
        "ms"
    } else if name.contains("_share")
        || name.ends_with("_ratio")
        || name == "host.speed_factor"
        || name.starts_with("flash.die_util")
    {
        "ratio"
    } else if name.ends_with("_bytes") || name == "translog.bytes_written" {
        "bytes"
    } else if name == "alloc.bytes_per_op" {
        "bytes/op"
    } else if name == "alloc.calls_per_op" {
        "1/op"
    } else if name.ends_with("_kops_per_s") {
        "kops/s"
    } else {
        "count"
    }
}

/// Runs this executable as `one …` and parses the record it prints.
fn spawn_child(
    workload: Workload,
    seed: u64,
    traced: bool,
    smoke: bool,
    inject: Option<Inject>,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("one")
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()]);
    if traced {
        command.arg("--traced");
    }
    if smoke {
        command.arg("--smoke");
    }
    match inject {
        Some(Inject::Readback) => command.args(["--inject", "readback"]),
        Some(Inject::Digest) => command.args(["--inject", "digest"]),
        None => &mut command,
    };
    // `output` waits for the child to end before returning.
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} child exited with {}",
            workload.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{} child printed nothing", workload.name()))?;
    json::parse(line)
}

/// The untraced repetitions of one workload, then its traced run.
pub struct WorkloadRuns {
    pub workload: Workload,
    pub untraced: Vec<Value>,
    pub traced: Option<Value>,
}

pub struct Plan {
    pub seed: u64,
    pub smoke: bool,
    pub inject: Option<Inject>,
}

impl Plan {
    fn child(&self, workload: Workload, traced: bool, round: usize) -> Result<Value, String> {
        // A digest divergence is injected into the second round only:
        // the point is that the rounds then disagree.
        let inject = match self.inject {
            Some(Inject::Digest) if round != 1 => None,
            other => other,
        };
        let started = Instant::now();
        let record = spawn_child(workload, self.seed, traced, self.smoke, inject)?;
        eprintln!(
            "[leaftl-perf] {:<12} {} round {} in {:.1} s (set-up {:.2} s, measured {:.2} s, {:.1} kops/s)",
            workload.name(),
            if traced { "traced  " } else { "untraced" },
            round + 1,
            started.elapsed().as_secs_f64(),
            record["host"]["setup_s"].as_f64().unwrap_or(0.0),
            record["host"]["measured_wall_s"].as_f64().unwrap_or(0.0),
            record["host"]["host_kops_per_s"].as_f64().unwrap_or(0.0),
        );
        Ok(record)
    }

    /// `rounds` passes over `workloads` in fixed order, one untraced
    /// child per workload per pass, so every host metric's samples are
    /// spread over the whole run; then one traced child per workload.
    pub fn rounds(
        &self,
        workloads: &[Workload],
        rounds: usize,
        traced: bool,
    ) -> Result<Vec<WorkloadRuns>, String> {
        let mut runs: Vec<WorkloadRuns> = workloads
            .iter()
            .map(|&workload| WorkloadRuns {
                workload,
                untraced: Vec::new(),
                traced: None,
            })
            .collect();
        for round in 0..rounds {
            for run in &mut runs {
                run.untraced.push(self.child(run.workload, false, round)?);
            }
        }
        if traced {
            for run in &mut runs {
                run.traced = Some(self.child(run.workload, true, 0)?);
            }
        }
        Ok(runs)
    }

    /// Untraced children of one workload until their measured phases
    /// add up to `seconds` — at least three, so there is a median, and
    /// no more than five or past `4 × seconds` in total, so a faster
    /// simulator cannot stretch the run by multiplying set-ups.
    pub fn for_seconds(&self, workload: Workload, seconds: f64) -> Result<WorkloadRuns, String> {
        const MIN_REPS: usize = 3;
        const MAX_REPS: usize = 5;
        let started = Instant::now();
        let budget = Duration::from_secs_f64(seconds * 4.0);
        let mut untraced = Vec::new();
        let mut measured = 0.0;
        while untraced.len() < MIN_REPS
            || (measured < seconds && untraced.len() < MAX_REPS && started.elapsed() < budget)
        {
            let record = self.child(workload, false, untraced.len())?;
            measured += record["host"]["raw_measured_wall_s"]
                .as_f64()
                .unwrap_or(0.0);
            untraced.push(record);
        }
        Ok(WorkloadRuns {
            workload,
            untraced,
            traced: None,
        })
    }
}

/// One metric of the final report.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// `sim` (repeats exactly for one seed) or `host` (wall clock).
    pub clock: &'static str,
    pub value: f64,
    /// The per-repetition values behind a host-clock median.
    pub samples: Vec<f64>,
}

impl Metric {
    fn single(name: &str, unit: &'static str, clock: &'static str, value: f64) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            clock,
            value,
            samples: Vec::new(),
        }
    }

    pub fn to_json(&self) -> Value {
        let mut members = vec![
            ("value", json!(self.value)),
            ("unit", json!(self.unit)),
            ("clock", json!(self.clock)),
        ];
        if self.samples.len() >= 2 {
            let (q1, q3) = quartiles(&self.samples);
            members.push(("samples", json!(self.samples)));
            members.push(("q1", json!(q1)));
            members.push(("q3", json!(q3)));
        }
        object(members)
    }
}

/// What one workload's children add up to.
pub struct Summary {
    pub workload: Workload,
    pub attempted: u64,
    pub failed: u64,
    pub input_digest: String,
    pub sim_digest: String,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// The first untraced record and the traced one, kept whole.
    pub first: Value,
    pub traced: Option<Value>,
    pub alloc_repeats: bool,
    /// Failure descriptions and determinism breaks; empty means the
    /// run is correct.
    pub problems: Vec<String>,
}

fn number(record: &Value, section: &str, key: &str) -> f64 {
    record[section][key].as_f64().unwrap_or(0.0)
}

fn span_field(traced: &Value, span: &str, field: &str) -> f64 {
    traced["spans"][span][field].as_f64().unwrap_or(0.0)
}

impl Summary {
    /// Checks the repetitions against each other (and the traced run
    /// against them) and reduces them to one value per metric.
    pub fn of(runs: &WorkloadRuns) -> Summary {
        let first = runs.untraced.first().expect("at least one repetition");
        let mut problems = Vec::new();
        let name = runs.workload.name();

        // What the simulator computed must not depend on the process
        // that computed it — nor on whether it was being watched.
        let others = runs
            .untraced
            .iter()
            .enumerate()
            .skip(1)
            .map(|(index, record)| (format!("repetition {}", index + 1), record));
        let traced = runs.traced.iter().map(|record| {
            (
                "the traced run (a wrapper is not transparent)".to_string(),
                record,
            )
        });
        for (who, record) in others.chain(traced) {
            for key in MUST_REPEAT {
                if record[key] != first[key] {
                    problems.push(format!(
                        "{name}: `{key}` of {who} differs from repetition 1"
                    ));
                }
            }
        }
        let mut failed = 0;
        for record in runs.untraced.iter().chain(&runs.traced) {
            failed = failed.max(record["failed"].as_u64().unwrap_or(0));
            for message in record["failures"].as_array().into_iter().flatten() {
                let message = format!("{name}: {}", message.as_str().unwrap_or("?"));
                if !problems.contains(&message) {
                    problems.push(message);
                }
            }
        }
        let attempted = first["attempted"].as_u64().unwrap_or(0);

        let host = |key: &str| -> Vec<f64> {
            runs.untraced
                .iter()
                .map(|record| number(record, "host", key))
                .collect()
        };
        let end_to_end = END_TO_END
            .iter()
            .map(|&(metric, unit, clock)| match clock {
                "sim" => Metric::single(metric, unit, clock, number(first, "sim", metric)),
                _ => {
                    let samples = host(metric);
                    Metric {
                        name: metric.to_string(),
                        unit,
                        clock,
                        value: median(&samples),
                        samples,
                    }
                }
            })
            .collect();

        let alloc_calls = host("alloc_calls_per_op");
        let alloc_repeats = alloc_calls.iter().all(|&calls| calls == alloc_calls[0]);
        let per_layer = match &runs.traced {
            Some(traced) => per_layer(&runs.untraced, traced),
            None => Vec::new(),
        };
        Summary {
            workload: runs.workload,
            attempted,
            failed,
            input_digest: first["input_digest"].as_str().unwrap_or("").to_string(),
            sim_digest: first["sim_digest"].as_str().unwrap_or("").to_string(),
            end_to_end,
            per_layer,
            first: first.clone(),
            traced: runs.traced.clone(),
            alloc_repeats,
            problems,
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The one-line result the benchmark contract asks for.
    pub fn contract_line(&self, metrics: &[Metric]) -> String {
        let metrics = object(metrics.iter().map(|metric| {
            (
                metric.name.as_str(),
                json!({ "value": metric.value, "unit": metric.unit }),
            )
        }));
        serde_json::to_string(&json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }))
        .expect("rendering cannot fail")
    }

    /// This workload's section of the `run` document.
    pub fn to_json(&self) -> Value {
        let mut members = vec![
            ("scheme", self.first["scheme"].clone()),
            ("input_digest", json!(self.input_digest)),
            ("sim_digest", json!(self.sim_digest)),
            ("attempted", json!(self.attempted)),
            ("failed", json!(self.failed)),
            ("correct", json!(self.correct())),
            ("problems", json!(self.problems)),
            ("latency_samples", self.first["latency_samples"].clone()),
            ("alloc_counts_repeat_exactly", json!(self.alloc_repeats)),
            (
                "end_to_end",
                object(
                    self.end_to_end
                        .iter()
                        .map(|m| (m.name.as_str(), m.to_json())),
                ),
            ),
            (
                "per_layer",
                object(
                    self.per_layer
                        .iter()
                        .map(|m| (m.name.as_str(), m.to_json())),
                ),
            ),
        ];
        if self.workload == Workload::Fleet1012 {
            // Arrivals are virtual time: the generator cannot run late.
            members.push(("open_loop_generator_lateness_ns", json!(0)));
        }
        if let Some(traced) = &self.traced {
            members.push(("spans", traced["spans"].clone()));
            if let Some(derived) = derived_vs_sftl(&self.first, traced) {
                members.push(("unvalidated_model_vs_paper", derived));
            }
        }
        object(members)
    }
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
/// Counters come from the untraced repetitions (already checked to be
/// identical), times from the traced run's spans; a metric that means
/// nothing on a workload is 0 there.
fn per_layer(untraced: &[Value], traced: &Value) -> Vec<Metric> {
    let first = &untraced[0];
    let host_median = |key: &str| {
        let samples: Vec<f64> = untraced.iter().map(|r| number(r, "host", key)).collect();
        median(&samples)
    };
    let ops = number(first, "counters", "workloads.page_ops");
    // Spans are raw nanoseconds, so shares of wall are taken of the
    // traced run's raw wall time — calibration included, since that
    // runs in the driver's loop or, on the fleet, inside `drain`.
    let traced_wall_ns = (number(traced, "host", "raw_measured_wall_s")
        + number(traced, "host", "calibration_s"))
        * 1e9;
    let total = |span: &str| span_field(traced, span, "total_ns");
    let calls = |span: &str| span_field(traced, span, "calls");
    let items = |span: &str| span_field(traced, span, "items");

    let ssd_call = total("driver.ssd_call");
    let device_call =
        total("driver.device_submit") + total("driver.device_take") + total("driver.device_drain");
    let arbiter = total("arbiter.pick");
    let scheme_lookups = total("scheme.lookup") + total("scheme.lookup_batch");
    let scheme = scheme_lookups + total("scheme.update") + total("scheme.maintain");
    let shard_lookups = total("shard.lookup") + total("shard.lookup_batch");
    let routed = calls("scheme.lookup") + items("scheme.lookup_batch");
    let sharded = calls("shard.lookup") + calls("shard.lookup_batch") > 0.0;
    let blocking = ssd_call > 0.0;

    let mut out: Vec<Metric> = Vec::new();
    let mut push = |clock: &'static str, name: &str, value: f64| {
        out.push(Metric::single(name, per_layer_unit(name), clock, value));
    };
    push("host", "workloads.generate_ms", host_median("generate_ms"));
    push("sim", "workloads.page_ops", ops);
    push(
        "host",
        "driver.self_ns_per_op",
        per(traced_wall_ns - ssd_call - device_call, ops),
    );
    push("host", "ssd.call_ns_per_op", per(ssd_call, ops));
    push(
        "host",
        "ssd.self_ns_per_op",
        if blocking {
            per(ssd_call - scheme, ops)
        } else {
            0.0
        },
    );
    push("host", "device.call_ns_per_op", per(device_call, ops));
    push(
        "host",
        "device.self_ns_per_op",
        if blocking {
            0.0
        } else {
            per(device_call - arbiter - scheme, ops)
        },
    );
    push(
        "host",
        "device.drain_share",
        per(total("driver.device_drain"), device_call),
    );
    push("sim", "arbiter.pick_calls", calls("arbiter.pick"));
    push(
        "host",
        "arbiter.pick_ns_per_call",
        per(arbiter, calls("arbiter.pick")),
    );
    push("host", "arbiter.wall_share", per(arbiter, traced_wall_ns));
    push("sim", "scheme.lookup_calls", calls("scheme.lookup"));
    push(
        "host",
        "scheme.lookup_ns_per_call",
        per(total("scheme.lookup"), calls("scheme.lookup")),
    );
    push(
        "sim",
        "scheme.lookup_batch_lpas",
        items("scheme.lookup_batch"),
    );
    push(
        "host",
        "scheme.lookup_batch_ns_per_lpa",
        per(total("scheme.lookup_batch"), items("scheme.lookup_batch")),
    );
    push("sim", "scheme.learn_pairs", items("scheme.update"));
    push(
        "host",
        "scheme.learn_ns_per_pair",
        per(total("scheme.update"), items("scheme.update")),
    );
    push("sim", "scheme.maintain_calls", calls("scheme.maintain"));
    push(
        "host",
        "scheme.maintain_us_per_call",
        per(total("scheme.maintain") / 1e3, calls("scheme.maintain")),
    );
    push("host", "scheme.wall_share", per(scheme, traced_wall_ns));
    push(
        "host",
        "shards.route_ns_per_lpa",
        if sharded {
            per(scheme_lookups - shard_lookups, routed)
        } else {
            0.0
        },
    );
    let counters = first["counters"].as_object().expect("a child's counters");
    for (name, value) in counters {
        if name != "workloads.page_ops" {
            push("sim", name, value.as_f64().unwrap_or(0.0));
        }
    }
    push("host", "recovery.wall_ms", host_median("recovery_wall_ms"));
    push(
        "host",
        "stats.hist_record_ns_per_op",
        number(traced, "host", "hist_record_ns_per_op"),
    );
    push("host", "host.raw_kops_per_s", host_median("raw_kops_per_s"));
    push("host", "host.speed_factor", host_median("speed_factor"));
    push(
        "host",
        "alloc.calls_per_op",
        host_median("alloc_calls_per_op"),
    );
    push(
        "host",
        "alloc.bytes_per_op",
        host_median("alloc_bytes_per_op"),
    );
    for scheme in ["sftl", "dftl"] {
        let baseline = &traced["baselines"][scheme];
        for (metric, section) in [
            ("sim_mean_lat_us", "sim"),
            ("map_full_bytes", "sim"),
            ("host_kops_per_s", "host"),
        ] {
            push(
                section,
                &format!("baselines.{scheme}.{metric}"),
                number(baseline, section, metric),
            );
        }
    }
    let untraced_wall = host_median("measured_wall_s");
    push(
        "host",
        "trace.overhead_share",
        per(
            number(traced, "host", "measured_wall_s") - untraced_wall,
            untraced_wall,
        ),
    );
    out
}

/// LeaFTL against SFTL on `blocking_mix`, next to the paper's claims.
/// Printed, never gated: the repository holds no reference
/// measurements, so beyond these two ratios the model is unvalidated.
fn derived_vs_sftl(untraced: &Value, traced: &Value) -> Option<Value> {
    let sftl = traced["baselines"].get("sftl")?;
    let ratio_with_error = |ours: f64, paper: f64| {
        json!({
            "measured": ours,
            "paper": paper,
            "relative_error": (ours - paper) / paper,
        })
    };
    let latency = per(
        number(sftl, "sim", "sim_mean_lat_us"),
        number(untraced, "sim", "sim_mean_lat_us"),
    );
    let footprint = per(
        number(sftl, "sim", "map_full_bytes"),
        number(untraced, "sim", "map_full_bytes"),
    );
    Some(json!({
        "lat_speedup_vs_sftl": ratio_with_error(latency, 1.4),
        "map_reduction_vs_sftl": ratio_with_error(footprint, 2.9),
        "note": "base of each ratio is the SFTL run of the same set-up and op stream; \
                 paper figures are its Fig. 16 / Fig. 15 averages; the simulator is \
                 otherwise unvalidated against hardware",
    }))
}
