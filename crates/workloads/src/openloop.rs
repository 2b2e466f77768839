//! Open-loop, multi-tenant trace construction.
//!
//! Closed-loop profiles (see [`crate::ProfileParams`]) describe *what*
//! a workload accesses; an open-loop trace additionally fixes *when*
//! each request arrives. A [`TenantSpec`] binds a profile to a stream
//! id and a mean arrival rate; [`multi_tenant_trace`] generates every
//! tenant's deterministic op stream with exponential (Poisson-process)
//! inter-arrival gaps and merges them into one timestamp-sorted trace,
//! ready for `leaftl_sim::replay_open_loop`.
//!
//! This is the substrate for colocation experiments — e.g. a
//! Zipf-skewed point-lookup tenant sharing the device with a sequential
//! scanner — where the question is how one tenant's load shows up in
//! the other's tail latency.
//!
//! Stream ids double as *submission-queue names*: the multi-queue
//! device front-end (`leaftl_sim::Device`) gives every distinct stream
//! its own submission queue (the replay helpers remap stream ids
//! densely and refuse traces with more streams than queues), so a
//! trace built here exercises per-tenant queues under whatever
//! arbitration policy — and QoS control plane — the experiment
//! configures (its `DeviceConfig`, passed to `leaftl_sim::replay_open_loop`).
//!
//! For SLO studies each tenant carries a `leaftl_sim::Slo`:
//! [`qos_fleet`] builds the adversarial 1000+-tenant mix (a handful of
//! guaranteed-class readers colocated with a large best-effort
//! population and a few GC-bully overwriters) the `qos` experiment
//! runs against the closed-loop controller.

use crate::profile::{ProfileParams, TraceGenerator};
use leaftl_sim::{Slo, TimedOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One tenant of an open-loop trace: an access-pattern profile plus an
/// arrival process, an optional burst factor and a service-level
/// objective.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Access-pattern profile (what the tenant touches).
    pub profile: ProfileParams,
    /// Stream id stamped on every op (latency attribution).
    pub stream: u32,
    /// Mean inter-arrival gap in nanoseconds *per op* (exponentially
    /// distributed, i.e. Poisson arrivals). Bursty tenants
    /// ([`TenantSpec::bursty`]) keep the same long-run rate but arrive
    /// in batches.
    pub mean_interarrival_ns: u64,
    /// Number of host ops this tenant issues.
    pub ops: usize,
    /// Ops per arrival burst (1 = plain Poisson). A burst of `n` ops
    /// shares one arrival instant, and burst starts are spaced with
    /// mean `n × mean_interarrival_ns` — batch-Poisson arrivals at an
    /// unchanged long-run rate.
    pub burst_len: u32,
    /// The tenant's service-level objective (best-effort unless set
    /// via [`TenantSpec::with_slo`]).
    pub slo: Slo,
}

impl TenantSpec {
    /// A tenant issuing `ops` requests at a mean rate of one per
    /// `mean_interarrival_ns`, best-effort, non-bursty.
    pub fn new(profile: ProfileParams, stream: u32, mean_interarrival_ns: u64, ops: usize) -> Self {
        TenantSpec {
            profile,
            stream,
            mean_interarrival_ns: mean_interarrival_ns.max(1),
            ops,
            burst_len: 1,
            slo: Slo::best_effort(),
        }
    }

    /// Attaches a service-level objective.
    pub fn with_slo(mut self, slo: Slo) -> Self {
        self.slo = slo;
        self
    }

    /// Makes arrivals bursty: `burst_len` ops per arrival instant at
    /// the same long-run rate.
    pub fn bursty(mut self, burst_len: u32) -> Self {
        self.burst_len = burst_len.max(1);
        self
    }
}

/// A read-only sequential scanner profile (long runs over most of the
/// logical space) — the classic noisy neighbour for colocation studies.
pub fn sequential_scanner() -> ProfileParams {
    ProfileParams {
        name: "seq-scanner".to_string(),
        read_ratio: 1.0,
        seq_fraction: 1.0,
        stride_fraction: 0.0,
        mean_run_pages: 64,
        zipf_theta: 0.0,
        working_set: 0.8,
    }
}

/// A write-heavy overwrite tenant: small skewed writes over a modest
/// working set, the GC-pressure generator for arbitration studies —
/// sustained overwrites keep the device at its collection watermark so
/// host-vs-GC scheduling policy shows up in every tenant's tail.
pub fn gc_heavy_writer() -> ProfileParams {
    ProfileParams {
        name: "gc-heavy-writer".to_string(),
        read_ratio: 0.1,
        seq_fraction: 0.1,
        stride_fraction: 0.0,
        mean_run_pages: 8,
        zipf_theta: 0.9,
        working_set: 0.6,
    }
}

/// A Zipf-skewed point-lookup tenant (OLTP-ish: small requests, hot
/// set, mixed read/write).
pub fn zipf_tenant() -> ProfileParams {
    ProfileParams {
        name: "zipf-tenant".to_string(),
        read_ratio: 0.7,
        seq_fraction: 0.05,
        stride_fraction: 0.05,
        mean_run_pages: 4,
        zipf_theta: 1.1,
        working_set: 0.15,
    }
}

/// A pure-read Zipf point-lookup tenant — the guaranteed-class shape
/// for SLO studies: latency-sensitive lookups whose tail exposes every
/// bit of GC, compaction and map-log interference but adds none
/// itself.
pub fn slo_reader() -> ProfileParams {
    ProfileParams {
        name: "slo-reader".to_string(),
        read_ratio: 1.0,
        seq_fraction: 0.0,
        stride_fraction: 0.0,
        mean_run_pages: 1,
        zipf_theta: 1.1,
        working_set: 0.2,
    }
}

/// A bursty small-write tenant: short skewed write runs arriving in
/// batches (pair with [`TenantSpec::bursty`]) — the background-job
/// shape that is individually light but fleet-wide significant.
pub fn bursty_writer() -> ProfileParams {
    ProfileParams {
        name: "bursty-writer".to_string(),
        read_ratio: 0.05,
        seq_fraction: 0.3,
        stride_fraction: 0.0,
        mean_run_pages: 4,
        zipf_theta: 0.8,
        working_set: 0.3,
    }
}

/// A GC-bully overwriter: pure writes spread nearly uniformly over a
/// large working set — the worst case for greedy victim selection
/// (every block ends up half-stale) and the strongest generator of
/// sustained GC pressure a tenant mix can contain.
pub fn gc_bully() -> ProfileParams {
    ProfileParams {
        name: "gc-bully".to_string(),
        read_ratio: 0.0,
        seq_fraction: 0.05,
        stride_fraction: 0.0,
        mean_run_pages: 2,
        zipf_theta: 0.2,
        working_set: 0.9,
    }
}

/// Generates each tenant's deterministic op stream with exponential
/// inter-arrival gaps — batch-Poisson for bursty tenants: one gap per
/// burst (mean scaled by the burst length, keeping the long-run rate),
/// all ops of a burst sharing the arrival instant — and merges all
/// tenants by arrival time. The result is sorted by `at_ns` (ties keep
/// tenant order, and a burst's ops stay in issue order), as
/// `replay_open_loop` requires. Scales to thousands of tenants: each
/// distinct profile's generator is built once per trace (its Zipf
/// normaliser sums up to 10⁵ terms) and reseeded per tenant, so the
/// work is linear in total ops plus distinct profiles × 10⁵. Per-tenant
/// RNGs are derived from the stream id, so a fleet's trace is stable
/// under adding or removing other tenants.
pub fn multi_tenant_trace(tenants: &[TenantSpec], logical_pages: u64, seed: u64) -> Vec<TimedOp> {
    let mut trace: Vec<TimedOp> = Vec::new();
    let mut generators: Vec<(&ProfileParams, TraceGenerator)> = Vec::new();
    for tenant in tenants {
        let built = generators.iter().position(|(p, _)| **p == tenant.profile);
        let index = built.unwrap_or_else(|| {
            generators.push((
                &tenant.profile,
                tenant.profile.generator(logical_pages, seed),
            ));
            generators.len() - 1
        });
        let ops = generators[index]
            .1
            .reseeded(seed ^ (tenant.stream as u64) << 32)
            .take(tenant.ops);
        let mut arrivals =
            StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ tenant.stream as u64);
        let burst = tenant.burst_len.max(1) as usize;
        let mean = tenant.mean_interarrival_ns as f64 * burst as f64;
        let mut at_ns = 0u64;
        for (i, op) in ops.enumerate() {
            if i % burst == 0 {
                // Exponential gap: -mean * ln(U), U uniform in (0, 1).
                let u: f64 = arrivals.gen_range(f64::EPSILON..1.0);
                at_ns += (-mean * u.ln()).ceil() as u64;
            }
            trace.push(TimedOp {
                at_ns,
                stream: tenant.stream,
                op,
            });
        }
    }
    trace.sort_by_key(|t| t.at_ns);
    trace
}

/// Shape of the adversarial SLO colocation mix [`qos_fleet`] builds.
#[derive(Debug, Clone)]
pub struct QosFleetSpec {
    /// Guaranteed-class [`slo_reader`] tenants.
    pub guaranteed_readers: usize,
    /// Their p99 arrival→complete budget in microseconds.
    pub reader_budget_us: f64,
    /// Their mean inter-arrival gap (ns) and op count.
    pub reader_mean_interarrival_ns: u64,
    /// Ops per guaranteed reader.
    pub reader_ops: usize,
    /// Best-effort background tenants (cycled over
    /// [`sequential_scanner`], [`bursty_writer`] and [`zipf_tenant`]).
    pub best_effort_tenants: usize,
    /// Their mean inter-arrival gap (ns) and op count.
    pub best_effort_mean_interarrival_ns: u64,
    /// Ops per best-effort tenant.
    pub best_effort_ops: usize,
    /// Best-effort [`gc_bully`] overwriters.
    pub gc_bullies: usize,
    /// Their mean inter-arrival gap (ns) and op count.
    pub bully_mean_interarrival_ns: u64,
    /// Ops per bully.
    pub bully_ops: usize,
}

/// Builds the adversarial multi-tenant fleet for QoS experiments: a
/// few guaranteed-class readers (streams `0..guaranteed_readers`, each
/// carrying the p99 budget), then the GC bullies, then the best-effort
/// population — stream ids dense from 0, so stream `i` lands on
/// submission queue `i` under the replay helpers' dense remap and
/// `fleet.iter().map(|t| t.slo).collect()` is exactly the per-queue
/// SLO vector a `leaftl_sim::QosSpec` wants.
pub fn qos_fleet(spec: &QosFleetSpec) -> Vec<TenantSpec> {
    let mut fleet =
        Vec::with_capacity(spec.guaranteed_readers + spec.gc_bullies + spec.best_effort_tenants);
    let mut stream = 0u32;
    for _ in 0..spec.guaranteed_readers {
        fleet.push(
            TenantSpec::new(
                slo_reader(),
                stream,
                spec.reader_mean_interarrival_ns,
                spec.reader_ops,
            )
            .with_slo(Slo::guaranteed(spec.reader_budget_us)),
        );
        stream += 1;
    }
    for _ in 0..spec.gc_bullies {
        fleet.push(TenantSpec::new(
            gc_bully(),
            stream,
            spec.bully_mean_interarrival_ns,
            spec.bully_ops,
        ));
        stream += 1;
    }
    for i in 0..spec.best_effort_tenants {
        let tenant = match i % 3 {
            0 => TenantSpec::new(
                sequential_scanner(),
                stream,
                spec.best_effort_mean_interarrival_ns,
                spec.best_effort_ops,
            ),
            1 => TenantSpec::new(
                bursty_writer(),
                stream,
                spec.best_effort_mean_interarrival_ns,
                spec.best_effort_ops,
            )
            .bursty(4),
            _ => TenantSpec::new(
                zipf_tenant(),
                stream,
                spec.best_effort_mean_interarrival_ns,
                spec.best_effort_ops,
            ),
        };
        fleet.push(tenant);
        stream += 1;
    }
    fleet
}

#[cfg(test)]
#[expect(
    clippy::unwrap_used,
    reason = "a test: a step that fails should fail it with its message"
)]
mod tests {
    use super::*;

    fn tenants() -> Vec<TenantSpec> {
        vec![
            TenantSpec::new(zipf_tenant(), 0, 50_000, 200),
            TenantSpec::new(sequential_scanner(), 1, 200_000, 50),
        ]
    }

    #[test]
    fn trace_is_deterministic_and_sorted() {
        let a = multi_tenant_trace(&tenants(), 100_000, 7);
        let b = multi_tenant_trace(&tenants(), 100_000, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 250);
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        let c = multi_tenant_trace(&tenants(), 100_000, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn streams_are_attributed_and_interleaved() {
        let trace = multi_tenant_trace(&tenants(), 100_000, 42);
        let s0 = trace.iter().filter(|t| t.stream == 0).count();
        let s1 = trace.iter().filter(|t| t.stream == 1).count();
        assert_eq!(s0, 200);
        assert_eq!(s1, 50);
        // The faster tenant interleaves with the slower one rather than
        // fully preceding it.
        let first_s1 = trace.iter().position(|t| t.stream == 1).unwrap();
        assert!(first_s1 < trace.len() - 50, "streams must interleave");
    }

    #[test]
    fn burst_len_one_matches_the_unbatched_trace() {
        let plain = vec![TenantSpec::new(zipf_tenant(), 0, 50_000, 200)];
        let batched = vec![TenantSpec::new(zipf_tenant(), 0, 50_000, 200).bursty(1)];
        assert_eq!(
            multi_tenant_trace(&plain, 100_000, 7),
            multi_tenant_trace(&batched, 100_000, 7)
        );
    }

    #[test]
    fn bursts_share_arrival_instants_and_keep_the_long_run_rate() {
        let burst = 4u32;
        let spec = vec![TenantSpec::new(bursty_writer(), 0, 10_000, 2000).bursty(burst)];
        let trace = multi_tenant_trace(&spec, 100_000, 3);
        // Each burst of 4 ops shares one arrival instant.
        let distinct: std::collections::BTreeSet<u64> = trace.iter().map(|t| t.at_ns).collect();
        assert_eq!(distinct.len(), trace.len() / burst as usize);
        for group in trace.chunks(burst as usize) {
            assert!(group.iter().all(|t| t.at_ns == group[0].at_ns));
        }
        // The long-run arrival rate still matches the per-op mean.
        let span = trace.last().unwrap().at_ns as f64;
        let mean_gap = span / trace.len() as f64;
        assert!(
            (mean_gap - 10_000.0).abs() / 10_000.0 < 0.15,
            "batched mean gap {mean_gap} should stay near 10000"
        );
    }

    #[test]
    fn qos_fleet_is_dense_and_orders_classes() {
        let spec = QosFleetSpec {
            guaranteed_readers: 3,
            reader_budget_us: 500.0,
            reader_mean_interarrival_ns: 100_000,
            reader_ops: 10,
            best_effort_tenants: 7,
            best_effort_mean_interarrival_ns: 200_000,
            best_effort_ops: 5,
            gc_bullies: 2,
            bully_mean_interarrival_ns: 50_000,
            bully_ops: 20,
        };
        let fleet = qos_fleet(&spec);
        assert_eq!(fleet.len(), 12);
        // Dense, contiguous stream ids so stream i maps to queue i.
        for (i, tenant) in fleet.iter().enumerate() {
            assert_eq!(tenant.stream, i as u32);
        }
        // Guaranteed readers lead; everyone else is best-effort.
        for tenant in &fleet[..3] {
            assert_eq!(tenant.slo.class, leaftl_sim::SloClass::Guaranteed);
            assert_eq!(tenant.slo.p99_budget_us, 500.0);
        }
        for tenant in &fleet[3..] {
            assert_eq!(tenant.slo.class, leaftl_sim::SloClass::BestEffort);
        }
        // The bullies are write-dominant, and a bursty writer exists.
        assert!(fleet[3].profile.read_ratio < 0.1);
        assert!(fleet[5..].iter().any(|t| t.burst_len > 1));
        // Deterministic and scalable: a 1k-tenant fleet builds fine.
        let big = QosFleetSpec {
            guaranteed_readers: 8,
            best_effort_tenants: 988,
            gc_bullies: 4,
            ..spec
        };
        assert_eq!(qos_fleet(&big).len(), 1000);
    }

    #[test]
    fn arrival_rate_matches_mean() {
        let spec = vec![TenantSpec::new(zipf_tenant(), 0, 10_000, 2000)];
        let trace = multi_tenant_trace(&spec, 100_000, 3);
        let span = trace.last().unwrap().at_ns as f64;
        let mean_gap = span / trace.len() as f64;
        assert!(
            (mean_gap - 10_000.0).abs() < 2_000.0,
            "mean inter-arrival {mean_gap} should be near 10000"
        );
    }
}
