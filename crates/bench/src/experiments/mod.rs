//! Experiment registry: one entry per table/figure of the paper plus
//! the ablations.

mod ablation;
mod arbitration;
mod latency;
mod memory;
mod perf;
mod qos;
mod reliability;
mod scalability;
mod sensitivity;
mod sharding;
mod structure;
mod tables;

use serde_json::Value;

/// A runnable experiment.
pub struct Experiment {
    /// CLI name (e.g. `fig15`).
    pub name: &'static str,
    /// What it reproduces.
    pub description: &'static str,
    /// Runner; `quick` shrinks scales for smoke tests.
    pub run: fn(bool) -> Value,
}

/// Every experiment, in paper order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            name: "table1",
            description: "Table 1: SSD configuration",
            run: tables::table1,
        },
        Experiment {
            name: "fig5",
            description: "Fig. 5: learned segment length distribution vs γ",
            run: structure::fig5,
        },
        Experiment {
            name: "fig10",
            description: "Fig. 10: CRB size per group (γ=4)",
            run: structure::fig10,
        },
        Experiment {
            name: "fig12",
            description: "Fig. 12: log-structured levels per group",
            run: structure::fig12,
        },
        Experiment {
            name: "fig15",
            description: "Fig. 15: mapping-table memory reduction vs DFTL/SFTL",
            run: memory::fig15,
        },
        Experiment {
            name: "fig16a",
            description: "Fig. 16a: performance, DRAM mainly for mapping",
            run: perf::fig16a,
        },
        Experiment {
            name: "fig16b",
            description: "Fig. 16b: performance, ≥20% DRAM for data cache",
            run: perf::fig16b,
        },
        Experiment {
            name: "fig17",
            description: "Fig. 17: application workloads (Table 2 suite)",
            run: perf::fig17,
        },
        Experiment {
            name: "fig18",
            description: "Fig. 18: OLTP latency distribution",
            run: latency::fig18,
        },
        Experiment {
            name: "fig19",
            description: "Fig. 19: mapping size vs γ",
            run: memory::fig19,
        },
        Experiment {
            name: "fig20",
            description: "Fig. 20: accurate vs approximate segments vs γ",
            run: structure::fig20,
        },
        Experiment {
            name: "fig21",
            description: "Fig. 21: performance vs γ",
            run: perf::fig21,
        },
        Experiment {
            name: "fig22a",
            description: "Fig. 22a: performance vs DRAM capacity",
            run: sensitivity::fig22a,
        },
        Experiment {
            name: "fig22b",
            description: "Fig. 22b: performance vs flash page size",
            run: sensitivity::fig22b,
        },
        Experiment {
            name: "fig23a",
            description: "Fig. 23a: levels visited per lookup",
            run: latency::fig23a,
        },
        Experiment {
            name: "fig23b",
            description: "Fig. 23b: lookup CPU overhead",
            run: latency::fig23b,
        },
        Experiment {
            name: "fig24",
            description: "Fig. 24: misprediction ratio vs γ",
            run: reliability::fig24,
        },
        Experiment {
            name: "fig25",
            description: "Fig. 25: write amplification factor",
            run: reliability::fig25,
        },
        Experiment {
            name: "table3",
            description: "Table 3: learning/lookup CPU cost",
            run: tables::table3,
        },
        Experiment {
            name: "recovery",
            description: "§5: crash-recovery scan time",
            run: reliability::recovery,
        },
        Experiment {
            name: "scalability",
            description: "Queue-depth sweep (IOPS, p99) + multi-tenant open-loop mix",
            run: scalability::scalability,
        },
        Experiment {
            name: "arbitration",
            description: "Multi-queue arbitration: RR vs weighted vs host-priority, background vs sync GC at QD 32",
            run: arbitration::arbitration,
        },
        Experiment {
            name: "qos",
            description: "Closed-loop QoS control plane: SLO-driven arbitration + admission control, 1000+ tenants",
            run: qos::qos,
        },
        Experiment {
            name: "sharding",
            description: "Sharded translation service: shard count × QD sweep, inline vs background compaction",
            run: sharding::sharding,
        },
        Experiment {
            name: "ablation_sort",
            description: "Ablation: LPA-sorted flush (Fig. 7 motivation)",
            run: ablation::ablation_sort,
        },
        Experiment {
            name: "ablation_compaction",
            description: "Ablation: compaction interval sweep",
            run: ablation::ablation_compaction,
        },
        Experiment {
            name: "ablation_gc",
            description: "Ablation: GC victim policy (greedy vs cost-benefit)",
            run: ablation::ablation_gc,
        },
    ]
}
