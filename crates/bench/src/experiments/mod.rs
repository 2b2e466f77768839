//! Experiment registry. An experiment is one measured sweep, simulated
//! once per invocation; every table and figure of the paper, and every
//! ablation, is a view of exactly one experiment's outcomes and is
//! written to `results/<name>.json`.

mod ablation;
mod arbitration;
mod gamma;
mod perf;
mod qos;
mod reliability;
mod scalability;
mod sharding;
mod structure;
mod tables;

use serde_json::Value;

/// A runnable experiment: one sweep and the figures it feeds.
pub struct Experiment {
    /// `(CLI name, what it reproduces)` of every figure or table the
    /// sweep feeds, e.g. `("fig15", "Fig. 15: …")`.
    pub figures: &'static [(&'static str, &'static str)],
    /// Runs the sweep once (`quick` shrinks scales for smoke tests) and
    /// returns one JSON record per entry of `figures`, in that order.
    pub run: fn(bool) -> Vec<Value>,
}

impl Experiment {
    /// The CLI names of the figures it feeds, in order.
    pub fn names(&self) -> Vec<&'static str> {
        self.figures.iter().map(|&(name, _)| name).collect()
    }

    /// Whether selecting `name` runs this experiment.
    pub fn feeds(&self, name: &str) -> bool {
        self.names().contains(&name)
    }
}

/// Every experiment, in paper order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            figures: &[("table1", "Table 1: SSD configuration")],
            run: |quick| vec![tables::table1(quick)],
        },
        Experiment {
            figures: &[
                ("fig5", "Fig. 5: learned segment length distribution vs γ"),
                ("fig10", "Fig. 10: CRB size per group (γ=4)"),
                ("fig12", "Fig. 12: log-structured levels per group"),
                ("fig15", "Fig. 15: mapping-table memory reduction vs DFTL/SFTL"),
                ("fig20", "Fig. 20: accurate vs approximate segments vs γ"),
            ],
            run: structure::structure,
        },
        Experiment {
            figures: &[("fig16a", "Fig. 16a: performance, DRAM mainly for mapping")],
            run: |quick| vec![perf::fig16a(quick)],
        },
        Experiment {
            figures: &[
                ("fig16b", "Fig. 16b: performance, ≥20% DRAM for data cache"),
                ("fig22b", "Fig. 22b: performance vs flash page size"),
                ("fig23a", "Fig. 23a: levels visited per lookup"),
            ],
            run: perf::page_size_sweep,
        },
        Experiment {
            figures: &[
                ("fig17", "Fig. 17: application workloads (Table 2 suite)"),
                ("fig18", "Fig. 18: OLTP latency distribution"),
                ("fig22a", "Fig. 22a: performance vs DRAM capacity"),
                ("fig23b", "Fig. 23b: lookup CPU overhead"),
            ],
            run: perf::dram_sweep,
        },
        Experiment {
            figures: &[("fig19", "Fig. 19: mapping size vs γ")],
            run: |quick| vec![gamma::fig19(quick)],
        },
        Experiment {
            figures: &[
                ("fig21", "Fig. 21: performance vs γ"),
                ("fig24", "Fig. 24: misprediction ratio vs γ"),
            ],
            run: gamma::gamma_sweep,
        },
        Experiment {
            figures: &[("fig25", "Fig. 25: write amplification factor")],
            run: |quick| vec![reliability::fig25(quick)],
        },
        Experiment {
            figures: &[("table3", "Table 3: learning/lookup CPU cost")],
            run: |quick| vec![tables::table3(quick)],
        },
        Experiment {
            figures: &[("recovery", "§5: crash-recovery scan time")],
            run: |quick| vec![reliability::recovery(quick)],
        },
        Experiment {
            figures: &[(
                "scalability",
                "Queue-depth sweep (IOPS, p99) + multi-tenant open-loop mix",
            )],
            run: |quick| vec![scalability::scalability(quick)],
        },
        Experiment {
            figures: &[(
                "arbitration",
                "Multi-queue arbitration: RR vs weighted vs host-priority, background vs sync GC at QD 32",
            )],
            run: |quick| vec![arbitration::arbitration(quick)],
        },
        Experiment {
            figures: &[(
                "qos",
                "Closed-loop QoS control plane: SLO-driven arbitration + admission control, 1000+ tenants",
            )],
            run: |quick| vec![qos::qos(quick)],
        },
        Experiment {
            figures: &[(
                "sharding",
                "Sharded translation service: shard count × QD sweep, inline vs background compaction",
            )],
            run: |quick| vec![sharding::sharding(quick)],
        },
        Experiment {
            figures: &[(
                "ablation_sort",
                "Ablation: LPA-sorted flush (Fig. 7 motivation)",
            )],
            run: |quick| vec![ablation::ablation_sort(quick)],
        },
        Experiment {
            figures: &[(
                "ablation_gc",
                "Ablation: GC victim policy (greedy vs cost-benefit)",
            )],
            run: |quick| vec![ablation::ablation_gc(quick)],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::registry;

    /// The 26 names the harness accepts.
    const NAMES: [&str; 26] = [
        "table1",
        "fig5",
        "fig10",
        "fig12",
        "fig15",
        "fig16a",
        "fig16b",
        "fig17",
        "fig18",
        "fig19",
        "fig20",
        "fig21",
        "fig22a",
        "fig22b",
        "fig23a",
        "fig23b",
        "fig24",
        "fig25",
        "table3",
        "recovery",
        "scalability",
        "arbitration",
        "qos",
        "sharding",
        "ablation_sort",
        "ablation_gc",
    ];

    #[test]
    fn every_name_resolves_to_exactly_one_sweep() {
        let registry = registry();
        let listed: Vec<&str> = registry.iter().flat_map(|e| e.names()).collect();
        let mut distinct = listed.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), listed.len(), "a name repeats: {listed:?}");
        assert_eq!(listed.len(), NAMES.len(), "{listed:?}");
        for name in NAMES {
            let sweeps = registry.iter().filter(|e| e.feeds(name)).count();
            assert_eq!(sweeps, 1, "`{name}` resolves to {sweeps} sweeps");
        }
    }

    #[test]
    fn figures_that_read_one_sweep_share_it() {
        let registry = registry();
        for group in [
            &["fig5", "fig10", "fig12", "fig15", "fig20"][..],
            &["fig16b", "fig22b", "fig23a"],
            &["fig17", "fig18", "fig22a", "fig23b"],
            &["fig21", "fig24"],
        ] {
            let sweep = registry
                .iter()
                .find(|e| e.feeds(group[0]))
                .expect("registered");
            assert_eq!(sweep.names(), group);
        }
    }
}
