//! Shared experiment infrastructure: scheme dispatch, standard device
//! scales, ageing, the closed-loop grid, and table printing.

use leaftl_baselines::{sftl_full_table_bytes, Dftl, Sftl};
use leaftl_core::{LeaFtlConfig, LeaFtlTable, MappingScheme};
use leaftl_flash::Lpa;
use leaftl_sim::{
    replay, replay_open_loop, replay_queued, DeviceConfig, DramPolicy, HostOp, LeaFtlScheme,
    LookupPaths, MapLogTraffic, QueuedReplayReport, ReplayReport, SimError, SimStats, SpaceReport,
    Ssd, SsdConfig, TimedOp, TrafficClass, UtilizationReport,
};
use leaftl_workloads::{warmup_ops, ProfileParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::OnceLock;

/// Destination of `--trace <path>`, when given. Every engine-driven
/// replay attaches the device tracer while this is set; the last
/// replay's export wins (the file is overwritten per replay).
static TRACE_PATH: OnceLock<PathBuf> = OnceLock::new();

/// Registers the `--trace` destination (first call wins).
pub fn set_trace_path(path: PathBuf) {
    let _ = TRACE_PATH.set(path);
}

fn trace_path() -> Option<&'static PathBuf> {
    TRACE_PATH.get()
}

/// The paper's three schemes, in its column order.
pub const SCHEMES: [SchemeKind; 3] = [
    SchemeKind::Dftl,
    SchemeKind::Sftl,
    SchemeKind::LeaFtl { gamma: 0 },
];

/// Which FTL scheme an experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    /// Demand-based page-level baseline.
    Dftl,
    /// Run-length condensed baseline.
    Sftl,
    /// The learned FTL with error bound γ.
    LeaFtl { gamma: u32 },
}

impl SchemeKind {
    pub fn label(&self) -> String {
        match self {
            SchemeKind::Dftl => "DFTL".to_string(),
            SchemeKind::Sftl => "SFTL".to_string(),
            SchemeKind::LeaFtl { gamma: 0 } => "LeaFTL".to_string(),
            SchemeKind::LeaFtl { gamma } => format!("LeaFTL(γ={gamma})"),
        }
    }

    pub fn gamma(&self) -> u32 {
        match self {
            SchemeKind::LeaFtl { gamma } => *gamma,
            SchemeKind::Dftl | SchemeKind::Sftl => 0,
        }
    }
}

/// A simulated SSD with its scheme type erased for experiment loops.
#[derive(Clone)]
#[expect(
    clippy::large_enum_variant,
    reason = "one AnySsd per experiment, matched on every call: a Box would add a pointer hop to each"
)]
pub enum AnySsd {
    Dftl(Ssd<Dftl>),
    Sftl(Ssd<Sftl>),
    Lea(Ssd<LeaFtlScheme>),
}

/// `each_ssd!(any, ssd => expr)`: `expr` on the SSD of whichever scheme
/// `any` holds.
macro_rules! each_ssd {
    ($any:expr, $ssd:ident => $body:expr) => {
        match $any {
            AnySsd::Dftl($ssd) => $body,
            AnySsd::Sftl($ssd) => $body,
            AnySsd::Lea($ssd) => $body,
        }
    };
}
pub(crate) use each_ssd;

impl AnySsd {
    pub fn build(kind: SchemeKind, mut config: SsdConfig) -> AnySsd {
        config.gamma = kind.gamma();
        // γ=16 needs 33 reverse-mapping entries; use the larger OOB
        // variant the paper mentions (128–256 B, §3.5).
        if config.gamma > config.geometry.max_gamma() {
            config.geometry.oob_size = 256;
        }
        match kind {
            SchemeKind::Dftl => AnySsd::Dftl(Ssd::new(config, Dftl::new())),
            SchemeKind::Sftl => AnySsd::Sftl(Ssd::new(config, Sftl::new())),
            SchemeKind::LeaFtl { gamma } => {
                let scheme = LeaFtlScheme::new(
                    LeaFtlConfig::default()
                        .with_gamma(gamma)
                        .with_compaction_interval(config.compaction_interval_writes),
                );
                AnySsd::Lea(Ssd::new(config, scheme))
            }
        }
    }

    pub fn replay<I: IntoIterator<Item = HostOp>>(&mut self, ops: I) -> ReplayReport {
        each_ssd!(self, ssd => replay(ssd, ops).expect("replay"))
    }

    /// Closed-loop replay through a device built from `config`.
    pub fn replay_queued<I: IntoIterator<Item = HostOp>>(
        &mut self,
        ops: I,
        config: DeviceConfig,
    ) -> QueuedReplayReport {
        self.traced(|any| each_ssd!(any, ssd => replay_queued(ssd, ops, config)))
    }

    /// Open-loop replay of a timestamped multi-stream trace under a full
    /// device shape: queue count, arbitration policy and GC mode.
    pub fn replay_open_loop<I: IntoIterator<Item = TimedOp>>(
        &mut self,
        ops: I,
        config: DeviceConfig,
    ) -> QueuedReplayReport {
        self.traced(|any| each_ssd!(any, ssd => replay_open_loop(ssd, ops, config)))
    }

    /// Runs an engine-driven replay, with the event tracer attached when
    /// `--trace` was given (no-op — and zero-cost — otherwise), and
    /// exports the trace over the destination: the last replay wins.
    fn traced(
        &mut self,
        replay: impl FnOnce(&mut AnySsd) -> Result<QueuedReplayReport, SimError>,
    ) -> QueuedReplayReport {
        let Some(path) = trace_path() else {
            return replay(self).expect("replay");
        };
        each_ssd!(self, ssd => ssd.attach_trace());
        let report = replay(self).expect("replay");
        if let Some(sink) = each_ssd!(self, ssd => ssd.take_trace()) {
            let check = sink.check();
            match std::fs::write(path, sink.export_chrome_json()) {
                Ok(()) => eprintln!(
                    "[trace] {} events, {}/{} die tracks active -> {} (open at https://ui.perfetto.dev)",
                    check.events,
                    check.active_die_tracks(),
                    check.die_tracks,
                    path.display()
                ),
                Err(e) => eprintln!("[trace] cannot write {}: {e}", path.display()),
            }
        }
        report
    }

    /// Asserts the device-timeline conservation invariant: per-die
    /// attributed op counts and busy-ns must equal the `SimStats` flash
    /// breakdown exactly. Experiments call this after every
    /// engine-driven replay so a broken attribution fails loudly.
    pub fn assert_utilization_conserved(&self, context: &str) {
        let check = each_ssd!(self, ssd => ssd.check_utilization_conservation());
        if let Err(e) = check {
            panic!("utilization conservation violated ({context}): {e}");
        }
    }

    /// Bytes the scheme would need to hold its *entire* mapping state in
    /// DRAM — the Fig. 15/19 footprint metric, independent of caching.
    /// For LeaFTL the table is compacted first: DFTL/SFTL tables carry
    /// no stale entries by construction, so the comparable LeaFTL
    /// figure is the reclaimable (shadow-free) size.
    pub fn full_mapping_bytes(&self) -> usize {
        match self {
            AnySsd::Dftl(ssd) => ssd.scheme().full_table_bytes(),
            AnySsd::Sftl(ssd) => sftl_full_table_bytes(ssd.scheme()),
            AnySsd::Lea(ssd) => compacted(ssd).memory_bytes().total(),
        }
    }
}

/// A compacted copy of `ssd`'s learned table: the shadow-free table
/// whose bytes [`AnySsd::full_mapping_bytes`] counts.
pub fn compacted(ssd: &Ssd<LeaFtlScheme>) -> LeaFtlTable {
    let mut table = ssd.scheme().table().clone();
    table.compact();
    table
}

/// Standard experiment scales. `quick` shrinks everything for smoke
/// runs (CI); full scale is the default for reported numbers.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Device capacity in bytes.
    pub capacity: u64,
    /// Controller DRAM in bytes.
    pub dram: usize,
    /// Write buffer in pages.
    pub buffer_pages: usize,
    /// Flush stripe chunk in pages.
    pub stripe_pages: u32,
    /// Fraction of logical space sequentially pre-filled before
    /// measurement.
    pub prefill: f64,
    /// Profile ops replayed for warm-up (stats reset afterwards).
    pub warm_ops: usize,
    /// Profile ops measured.
    pub ops: usize,
    /// Learned-table compaction interval in writes (paper: 1 M at 2 TB;
    /// scaled with the device).
    pub compaction_interval: u64,
}

impl Scale {
    /// Scale for performance experiments: small device so GC and DRAM
    /// pressure are active, DRAM at 2× the paper's per-capacity ratio.
    pub fn perf(quick: bool) -> Scale {
        if quick {
            Scale {
                capacity: 512 << 20,
                dram: 96 << 10,
                buffer_pages: 128,
                stripe_pages: 32,
                prefill: 0.75,
                warm_ops: 2_000,
                ops: 10_000,
                compaction_interval: 2_000,
            }
        } else {
            Scale {
                capacity: 2 << 30,
                dram: 320 << 10,
                buffer_pages: 256,
                stripe_pages: 32,
                prefill: 0.8,
                warm_ops: 15_000,
                ops: 60_000,
                compaction_interval: 15_000,
            }
        }
    }

    /// Scale for memory/structure experiments: larger space, generous
    /// DRAM (no demand-paging noise), no prefill (footprint reflects
    /// the workload's own writes).
    pub fn memory(quick: bool) -> Scale {
        if quick {
            Scale {
                capacity: 1 << 30,
                dram: 64 << 20,
                buffer_pages: 512,
                stripe_pages: 256,
                prefill: 0.0,
                warm_ops: 0,
                ops: 30_000,
                compaction_interval: 2_000,
            }
        } else {
            Scale {
                capacity: 8 << 30,
                dram: 256 << 20,
                buffer_pages: 2048,
                stripe_pages: 256,
                prefill: 0.0,
                warm_ops: 0,
                ops: 120_000,
                compaction_interval: 10_000,
            }
        }
    }

    /// Builds the simulator config for this scale.
    pub fn config(&self, policy: DramPolicy) -> SsdConfig {
        let mut config = SsdConfig::scaled(self.capacity);
        config.dram_bytes = self.dram;
        config.write_buffer_pages = self.buffer_pages;
        config.stripe_pages = self.stripe_pages;
        config.dram_policy = policy;
        config.compaction_interval_writes = self.compaction_interval;
        config
    }
}

/// Deterministic experiment seed.
pub const SEED: u64 = 0x1ea_f71;

/// Ageing, first part: sequentially writes `scale.prefill` of the
/// logical space. It depends on the scheme and the device only, so a
/// sweep does it once per device and clones the image per workload.
pub fn prefill<S: MappingScheme + Clone>(ssd: &mut Ssd<S>, scale: &Scale) {
    if scale.prefill > 0.0 {
        let logical = ssd.config().logical_pages();
        replay(ssd, warmup_ops(logical, scale.prefill)).expect("prefill");
    }
}

/// Ageing, second part: replays `scale.warm_ops` of `profile`, flushes
/// and resets the stats, so the measured window starts here.
pub fn warm_up<S: MappingScheme + Clone>(ssd: &mut Ssd<S>, profile: &ProfileParams, scale: &Scale) {
    if scale.warm_ops > 0 {
        let logical = ssd.config().logical_pages();
        replay(
            ssd,
            profile.generate(logical, scale.warm_ops, SEED ^ 0xbeef),
        )
        .expect("warm-up");
    }
    ssd.flush().expect("flush");
    ssd.reset_stats();
}

/// A device driven past its GC watermark: one full sequential fill,
/// then one logical capacity of seeded, uniform single-page overwrites,
/// so steady state sits at the watermark with stale pages in every
/// block (a second sequential pass would stale whole blocks instead);
/// stats reset.
pub fn gc_pressured(kind: SchemeKind, config: SsdConfig) -> AnySsd {
    let logical = config.logical_pages();
    let mut any = AnySsd::build(kind, config);
    any.replay(warmup_ops(logical, 1.0));
    let mut rng = StdRng::seed_from_u64(SEED);
    any.replay((0..logical).map(|_| HostOp::Write {
        lpa: Lpa::new(rng.gen_range(0..logical)),
        pages: 1,
    }));
    each_ssd!(&mut any, ssd => {
        ssd.flush().expect("flush");
        ssd.reset_stats();
    });
    any
}

/// Outcome of one (workload, scheme) run: what the figures read.
pub struct RunOutcome {
    pub workload: String,
    pub scheme: String,
    pub mean_latency_us: f64,
    pub mapping_bytes: usize,
    /// The measured window's counters.
    pub stats: SimStats,
    /// Its lookups by path, and what the flush's resolutions cost.
    pub paths: LookupPaths,
    /// Where the physical pages stood when the replay ended.
    pub space: SpaceReport,
}

/// Runs `profile` on the prefilled `ssd`: warm-up, then the measured
/// closed-loop replay.
fn measure(
    mut any: AnySsd,
    kind: SchemeKind,
    profile: &ProfileParams,
    scale: &Scale,
) -> RunOutcome {
    each_ssd!(&mut any, ssd => {
        warm_up(ssd, profile, scale);
        let logical = ssd.config().logical_pages();
        let report = replay(ssd, profile.generate(logical, scale.ops, SEED)).expect("replay");
        RunOutcome {
            workload: profile.name.clone(),
            scheme: kind.label(),
            mean_latency_us: report.mean_latency_us(),
            mapping_bytes: ssd.mapping_bytes(),
            stats: ssd.stats().clone(),
            paths: *ssd.lookup_paths(),
            space: ssd.space_report(),
        }
    })
}

/// One closed-loop run per (workload, scheme) on one device config: a
/// row per workload in suite order, a column per scheme.
pub type Runs = Vec<Vec<RunOutcome>>;

/// Runs every scheme of `kinds` on every workload of `profiles` once.
/// Each scheme's column prefills one device, and each workload row
/// starts from a clone of it.
pub fn run_grid(
    profiles: &[ProfileParams],
    kinds: &[SchemeKind],
    scale: &Scale,
    config: &SsdConfig,
) -> Runs {
    let mut runs: Runs = profiles.iter().map(|_| Vec::new()).collect();
    for &kind in kinds {
        let mut prefilled = AnySsd::build(kind, config.clone());
        each_ssd!(&mut prefilled, ssd => prefill(ssd, scale));
        for (row, profile) in runs.iter_mut().zip(profiles) {
            row.push(measure(prefilled.clone(), kind, profile, scale));
        }
    }
    runs
}

/// Builds a mapping table by replaying only the workload's writes (the
/// offline structure studies: Figs. 5/10/12). Returns the SSD for
/// table-stats inspection.
pub fn build_mapping_state(kind: SchemeKind, profile: &ProfileParams, scale: &Scale) -> AnySsd {
    let config = scale.config(DramPolicy::MappingFirst);
    let logical = config.logical_pages();
    let mut ssd = AnySsd::build(kind, config);
    let writes = profile
        .generate(logical, scale.ops, SEED)
        .into_iter()
        .filter(|op| !op.is_read());
    ssd.replay(writes);
    each_ssd!(&mut ssd, ssd => ssd.flush().expect("flush"));
    ssd
}

/// A [`SpaceReport`] as a JSON record: where the over-provisioning
/// sits (free reserve, open-block tails, stale pages GC can and cannot
/// reach, the translation log) beside the valid pages.
pub fn space_json(space: &SpaceReport) -> serde_json::Value {
    serde_json::json!({
        "free": space.free,
        "open_tail": space.open_tail,
        "open_stale": space.open_stale,
        "closed_stale": space.closed_stale,
        "log_owned": space.log_owned,
        "valid": space.valid,
    })
}

/// [`MapLogTraffic`] as a JSON record: log pages split into checkpoint
/// generations and the delta journal between them.
pub fn maplog_json(traffic: MapLogTraffic) -> serde_json::Value {
    serde_json::json!({
        "generations": traffic.generations,
        "generation_pages": traffic.generation_pages,
        "delta_pages": traffic.delta_pages,
    })
}

/// Per-class busy-time attribution of a replay as a JSON record — the
/// per-die utilization breakdown experiments surface next to latency
/// numbers (the Fig. 18/23-style host-vs-background attribution).
pub fn utilization_json(util: &UtilizationReport) -> serde_json::Value {
    let classes: Vec<serde_json::Value> = TrafficClass::ALL
        .iter()
        .map(|&class| {
            serde_json::json!({
                "class": class.label(),
                "busy_ns": util.class_busy_ns(class),
                "share": util.class_share(class),
            })
        })
        .collect();
    serde_json::json!({
        "dies": util.dies.len(),
        "total_busy_ns": util.total_busy_ns(),
        "classes": classes,
    })
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Formats a byte count human-readably.
pub fn fmt_bytes(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{:.2} MiB", bytes as f64 / (1 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.1} KiB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::{measure, prefill, run_grid, AnySsd, Scale, SCHEMES};
    use leaftl_sim::DramPolicy;
    use leaftl_workloads::{msr_hm, oltp};

    /// `run_grid` starts every row from a clone of its column's
    /// prefilled device; each row must equal the same row built and
    /// prefilled from scratch. Two rows, so the second clone is taken
    /// after the first has run.
    #[test]
    fn a_row_cloned_from_the_prefilled_column_equals_one_built_from_scratch() {
        let scale = Scale {
            capacity: 32 << 20,
            dram: 32 << 10,
            buffer_pages: 64,
            stripe_pages: 32,
            prefill: 0.99,
            warm_ops: 1_000,
            ops: 4_000,
            compaction_interval: 1_000,
        };
        let config = scale.config(DramPolicy::DataFloor(0.2));
        let profiles = [msr_hm(), oltp()];
        let runs = run_grid(&profiles, &SCHEMES, &scale, &config);
        for (row, profile) in runs.iter().zip(&profiles) {
            for (cloned, &kind) in row.iter().zip(&SCHEMES) {
                let mut scratch = AnySsd::build(kind, config.clone());
                each_ssd!(&mut scratch, ssd => prefill(ssd, &scale));
                let scratch = measure(scratch, kind, profile, &scale);
                let run = format!("{} on {}", cloned.scheme, cloned.workload);
                assert!(cloned.stats.gc_runs > 0, "{run}: GC never ran");
                assert_eq!(
                    format!("{:?}", cloned.stats),
                    format!("{:?}", scratch.stats),
                    "{run}"
                );
                assert_eq!(cloned.paths, scratch.paths, "{run}");
                assert_eq!(cloned.mapping_bytes, scratch.mapping_bytes, "{run}");
                assert_eq!(cloned.space, scratch.space, "{run}");
            }
        }
    }
}
