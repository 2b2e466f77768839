//! QoS control-plane invariants.
//!
//! **Fleet traces are deterministic and honestly Poisson.** The 1000+
//! tenant open-loop fleets the `qos` experiment replays must be
//! byte-reproducible from their seed (two sessions comparing
//! controller policies must see the *same* offered load), and each
//! tenant's realized arrival rate must match its configured mean
//! inter-arrival gap (the offered load the SLO math assumes is the
//! load actually generated).

use leaftl_repro::workloads::{multi_tenant_trace, qos_fleet, QosFleetSpec};
use proptest::prelude::*;

fn fleet_spec() -> QosFleetSpec {
    QosFleetSpec {
        guaranteed_readers: 8,
        reader_budget_us: 15_000.0,
        reader_mean_interarrival_ns: 2_000_000,
        reader_ops: 500,
        best_effort_tenants: 1_000,
        best_effort_mean_interarrival_ns: 125_000_000,
        best_effort_ops: 8,
        gc_bullies: 4,
        bully_mean_interarrival_ns: 4_000_000,
        bully_ops: 300,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A 1000+-stream fleet trace is a pure function of its seed, and
    /// every heavy stream's realized mean inter-arrival gap matches
    /// its configured Poisson mean.
    #[test]
    fn thousand_stream_trace_is_reproducible_and_poisson(seed in 0u64..u64::MAX) {
        let fleet = qos_fleet(&fleet_spec());
        let logical = 1 << 20;
        let trace = multi_tenant_trace(&fleet, logical, seed);
        prop_assert_eq!(
            &trace,
            &multi_tenant_trace(&fleet, logical, seed),
            "same seed must reproduce the trace byte for byte"
        );

        // Arrival-rate honesty on the streams with enough samples for
        // a tight estimate (readers and bullies; 300-500 arrivals
        // puts the sample mean within a few percent of the target).
        for tenant in fleet.iter().filter(|t| t.ops >= 300) {
            let arrivals: Vec<u64> = trace
                .iter()
                .filter(|t| t.stream == tenant.stream)
                .map(|t| t.at_ns)
                .collect();
            prop_assert_eq!(arrivals.len(), tenant.ops);
            let span_ns = (arrivals[arrivals.len() - 1] - arrivals[0]) as f64;
            let measured = span_ns / (arrivals.len() - 1) as f64;
            let target = tenant.mean_interarrival_ns as f64;
            prop_assert!(
                (measured - target).abs() / target < 0.25,
                "stream {}: measured mean gap {:.0}ns vs configured {:.0}ns",
                tenant.stream, measured, target
            );
        }
    }
}

/// The fleet builder itself is deterministic: tenant streams are dense
/// 0..N in class order (guaranteed readers first), so queue assignment
/// — and therefore SLO attribution — never depends on iteration order.
#[test]
fn fleet_streams_are_dense_and_class_ordered() {
    let spec = fleet_spec();
    let fleet = qos_fleet(&spec);
    assert_eq!(
        fleet.len(),
        spec.guaranteed_readers + spec.gc_bullies + spec.best_effort_tenants
    );
    for (index, tenant) in fleet.iter().enumerate() {
        assert_eq!(tenant.stream as usize, index, "streams must be dense");
        let guaranteed = tenant.slo.class == leaftl_repro::sim::SloClass::Guaranteed;
        assert_eq!(
            guaranteed,
            index < spec.guaranteed_readers,
            "guaranteed readers occupy the leading streams"
        );
    }
}
