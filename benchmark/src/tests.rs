//! Tests that cross module boundaries: the smoke scale of all four
//! workloads, name agreement with `BENCHMARK.json`, wrapper
//! transparency, and `diff`'s verdicts.

use crate::calibrate::Pace;
use crate::diff::{self, Bound};
use crate::json;
use crate::report::{Summary, WorkloadRuns, END_TO_END};
use crate::spans::{Level, Span, SpanTable, Timed, TimedArbiter};
use crate::workloads::{self, Inject, RunSpec, Workload};
use leaftl_repro::core::{LeaFtlConfig, MappingScheme, ShardedMapping};
use leaftl_repro::flash::Lpa;
use leaftl_repro::sim::{
    CheckpointMode, Device, DeviceConfig, IoRequest, LeaFtlScheme, QosSpec, Slo, Ssd, SsdConfig,
    Weighted,
};
use serde_json::Value;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

fn spec(spans: Option<Arc<SpanTable>>, inject: Option<Inject>) -> RunSpec {
    RunSpec {
        seed: 7,
        smoke: true,
        spans,
        inject,
        pace: Rc::new(RefCell::new(Pace::new())),
    }
}

/// What `run` would collect for one workload, built in-process: one
/// untraced record, one traced (with the baselines where they belong).
fn smoke_runs(workload: Workload) -> WorkloadRuns {
    let untraced = workloads::run(workload, &spec(None, None));
    let traced_spec = spec(Some(SpanTable::new()), None);
    let mut traced = workloads::run(workload, &traced_spec);
    if workload == Workload::BlockingMix {
        let (sftl, dftl) = workloads::run_baselines(&traced_spec);
        let Value::Object(members) = &mut traced else {
            unreachable!("a record is an object");
        };
        members.push(("baselines".into(), json!({ "sftl": sftl, "dftl": dftl })));
    }
    WorkloadRuns {
        workload,
        untraced: vec![untraced],
        traced: Some(traced),
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn names_and_units(list: &Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("a metric list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_string(),
                m["unit"].as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

#[test]
fn smoke_scale_runs_all_four_workloads_quickly_and_correctly() {
    let started = Instant::now();
    for workload in Workload::ALL {
        let record = workloads::run(workload, &spec(None, None));
        assert_eq!(record["failed"].as_u64(), Some(0), "{record}");
        assert!(record["attempted"].as_u64().unwrap() > 10_000);
        // Same seed, same process: everything simulated repeats.
        let again = workloads::run(workload, &spec(None, None));
        for key in ["input_digest", "sim_digest", "sim", "counters"] {
            assert_eq!(record[key], again[key], "{} `{key}`", workload.name());
        }
        // Another seed is another input.
        let other = workloads::run(
            workload,
            &RunSpec {
                seed: 8,
                ..spec(None, None)
            },
        );
        assert_ne!(record["input_digest"], other["input_digest"]);
    }
    assert!(
        started.elapsed().as_secs() < 10,
        "smoke scale took {:?}",
        started.elapsed()
    );
}

#[test]
fn every_name_in_benchmark_json_is_emitted_and_vice_versa() {
    let declared = benchmark_json();
    let declared_workloads: Vec<&str> = declared["workloads"]
        .as_array()
        .unwrap()
        .iter()
        .map(|w| w["name"].as_str().unwrap())
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared_workloads, known);

    let declared_end_to_end = names_and_units(&declared["end_to_end"]);
    let emitted_end_to_end: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(name, unit, _)| (name.to_string(), unit.to_string()))
        .collect();
    assert_eq!(declared_end_to_end, emitted_end_to_end);

    let declared_per_layer = names_and_units(&declared["per_layer"]);
    for workload in Workload::ALL {
        let summary = Summary::of(&smoke_runs(workload));
        assert!(summary.correct(), "{:?}", summary.problems);
        let emitted: Vec<(String, String)> = summary
            .per_layer
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        assert_eq!(declared_per_layer, emitted, "{}", workload.name());
        // The contract line carries exactly the declared names.
        let line = json::parse(&summary.contract_line(&summary.end_to_end)).unwrap();
        let printed: Vec<&str> = line["metrics"]
            .as_object()
            .unwrap()
            .iter()
            .map(|(name, _)| name.as_str())
            .collect();
        let expected: Vec<&str> = declared_end_to_end
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(printed, expected);
        for (name, metric) in line["metrics"].as_object().unwrap() {
            assert!(
                metric["value"].as_f64().unwrap() > 0.0,
                "{name} must never be 0"
            );
        }
    }
}

#[test]
fn injected_faults_are_caught() {
    // A corrupted read-back is a failed op.
    let record = workloads::run(Workload::ReadQd32, &spec(None, Some(Inject::Readback)));
    assert_eq!(record["failed"].as_u64(), Some(1), "{}", record["failures"]);
    // A diverging digest is a determinism break between repetitions.
    let clean = workloads::run(Workload::ReadQd32, &spec(None, None));
    let skewed = workloads::run(Workload::ReadQd32, &spec(None, Some(Inject::Digest)));
    assert_ne!(clean["sim_digest"], skewed["sim_digest"]);
    let summary = Summary::of(&WorkloadRuns {
        workload: Workload::ReadQd32,
        untraced: vec![clean, skewed],
        traced: None,
    });
    assert!(!summary.correct());
    assert!(
        summary.problems[0].contains("sim_digest"),
        "{:?}",
        summary.problems
    );
}

/// Drives every path that calls into the scheme or the arbiter on the
/// small test device and returns everything observable afterwards.
fn observe<S: MappingScheme + Clone>(scheme: S, spans: Option<&Arc<SpanTable>>) -> String {
    let mut config = SsdConfig::small_test();
    config.gamma = 4;
    config.checkpoint_mode = CheckpointMode::FlashLog;
    let logical = config.logical_pages();
    let mut ssd = Ssd::new(config, scheme);
    let mut sequence = 0u64;
    let mut next = || {
        sequence += 1;
        // Skewed, strided overwrites: approximate segments, stacked
        // levels, GC.
        (sequence * 7919 % (logical / 2)) * 2 % logical
    };
    for _ in 0..3 * logical {
        let lpa = next();
        ssd.write(Lpa::new(lpa), lpa + 1).unwrap();
        ssd.read(Lpa::new(next())).unwrap();
    }
    let weighted: Box<dyn leaftl_repro::sim::Arbiter> = Box::new(Weighted::new(vec![1, 1], 1));
    let arbiter = match spans {
        Some(table) => Box::new(TimedArbiter::new(weighted, table)),
        None => weighted,
    };
    let device_config = DeviceConfig::new(2, 8)
        .background_gc()
        .background_compaction()
        .with_compaction_thresholds(2, usize::MAX)
        .with_arbiter(arbiter)
        .with_qos(QosSpec::new(vec![
            Slo::guaranteed(500.0),
            Slo::best_effort(),
        ]));
    let mut completions = String::new();
    {
        let mut device = Device::new(&mut ssd, device_config);
        for index in 0..2 * logical {
            let lpa = Lpa::new(next());
            // Per queue: three reads (dispatched as one burst, so the
            // batched lookup runs), then a write.
            let request = if (index / 2) % 4 == 3 {
                IoRequest::write(lpa, lpa.raw() + 2)
            } else {
                IoRequest::read(lpa)
            };
            device
                .submit_to((index % 2) as usize, request.at(index * 50_000))
                .unwrap();
        }
        for c in device.drain().unwrap() {
            completions.push_str(&format!("{}:{}:{} ", c.id, c.dispatch_ns, c.complete_ns));
        }
    }
    ssd.flush().unwrap();
    ssd.crash_and_recover().unwrap();
    let contents: Vec<Option<u64>> = (0..logical)
        .map(|lpa| ssd.read(Lpa::new(lpa)).unwrap())
        .collect();
    let erases: Vec<u32> = ssd.device().erase_counts().map(|(_, n)| n).collect();
    format!(
        "{:?} {} {erases:?} {contents:?} {completions}",
        ssd.stats(),
        ssd.now_ns()
    )
}

#[test]
fn timed_wrappers_change_nothing_the_simulator_computes() {
    let lea = || {
        LeaFtlScheme::new(
            LeaFtlConfig::default()
                .with_gamma(4)
                .with_compaction_interval(300),
        )
    };
    let logical = SsdConfig::small_test().logical_pages();

    let spans = SpanTable::new();
    assert_eq!(
        observe(lea(), None),
        observe(Timed::new(lea(), &spans, Level::Scheme), Some(&spans)),
        "monolithic"
    );
    let calls = |span: Span| spans.to_json()[span.name()]["calls"].as_u64().unwrap();
    for span in [
        Span::SchemeLookup,
        Span::SchemeLookupBatch,
        Span::SchemeUpdate,
        Span::SchemeMaintain,
        Span::ArbiterPick,
    ] {
        assert!(calls(span) > 0, "{} never recorded", span.name());
    }
    assert_eq!(calls(Span::ShardLookup), 0);

    let spans = SpanTable::new();
    assert_eq!(
        observe(ShardedMapping::new(4, logical, |_| lea()), None),
        observe(
            Timed::new(
                ShardedMapping::new(4, logical, |_| Timed::new(lea(), &spans, Level::Shard)),
                &spans,
                Level::Scheme,
            ),
            Some(&spans),
        ),
        "sharded"
    );
    let table = spans.to_json();
    let total = |span: Span| table[span.name()]["total_ns"].as_u64().unwrap();
    for (outer, inner) in [
        (Span::SchemeUpdate, Span::ShardUpdate),
        (Span::SchemeMaintain, Span::ShardMaintain),
    ] {
        assert!(total(inner) > 0, "{} never recorded", inner.name());
        // Static nesting: a shard span runs inside a scheme span.
        assert!(total(outer) >= total(inner), "{}", outer.name());
    }
    spans.reset();
    assert_eq!(
        spans.to_json()[Span::SchemeUpdate.name()]["calls"].as_u64(),
        Some(0)
    );
}

fn run_document(input_digest: &str, sim_digest: &str, sim_iops: f64, host_kops: f64) -> Value {
    json!({
        "workloads": {
            "w": {
                "input_digest": input_digest,
                "sim_digest": sim_digest,
                "end_to_end": {
                    "sim_iops": { "value": sim_iops, "clock": "sim" },
                    "host_kops_per_s": { "value": host_kops, "clock": "host" },
                },
                "per_layer": {},
            }
        }
    })
}

#[test]
fn diff_verdicts_follow_the_bounds() {
    let bounds = || {
        vec![
            Bound {
                name: "sim_iops".into(),
                lower_is_better: false,
                bound: 0.2,
            },
            Bound {
                name: "host_kops_per_s".into(),
                lower_is_better: false,
                bound: 0.25,
            },
        ]
    };
    let base = run_document("in", "sim", 1000.0, 100.0);
    // Host time inside its bound, simulation untouched: acceptable.
    let noisy = run_document("in", "sim", 1000.0, 80.0);
    assert_eq!(diff::report(&base, &noisy, &bounds(), false), Ok(true));
    assert_eq!(diff::report(&base, &noisy, &bounds(), true), Ok(true));
    // Host time beyond its bound.
    let slow = run_document("in", "sim", 1000.0, 70.0);
    assert_eq!(diff::report(&base, &slow, &bounds(), false), Ok(false));
    // Same inputs compare simulated metrics at the tight bound, in the
    // metric's own direction.
    let fewer = run_document("in", "sim2", 980.0, 100.0);
    assert_eq!(diff::report(&base, &fewer, &bounds(), false), Ok(false));
    let more = run_document("in", "sim2", 1500.0, 100.0);
    assert_eq!(diff::report(&base, &more, &bounds(), false), Ok(true));
    // …but one build run twice must not change simulated behaviour.
    assert_eq!(diff::report(&base, &more, &bounds(), true), Ok(false));
    // Smoke-scale host times are not judged; simulated ones still are.
    let mut smoke_base = base.clone();
    let Value::Object(members) = &mut smoke_base else {
        unreachable!()
    };
    members.push(("smoke".into(), Value::Bool(true)));
    assert_eq!(diff::report(&smoke_base, &slow, &bounds(), false), Ok(true));
    assert_eq!(
        diff::report(&smoke_base, &fewer, &bounds(), false),
        Ok(false)
    );
    // Different inputs do not compare at all.
    let other = run_document("other", "sim", 1000.0, 100.0);
    assert!(diff::report(&base, &other, &bounds(), false).is_err());
}
