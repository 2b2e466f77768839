//! Experiment registry. An experiment is one measured sweep, simulated
//! once per invocation; every table and figure of the paper, and every
//! ablation, is a view of exactly one experiment's outcomes and is
//! written to `results/<name>.json` with the [`Shape`] it was judged by.

mod ablation;
mod arbitration;
mod gamma;
mod perf;
mod qos;
mod reliability;
mod scalability;
mod structure;
mod tables;

use serde_json::{json, Value};
use std::fmt;

/// The shape a figure should have: the paper's claim, and what missed
/// it. A view records each check where it computes the number; `main`
/// judges every shape once.
pub struct Shape {
    claim: String,
    /// One line per check that missed, naming its workload row.
    misses: Vec<String>,
    /// A known gap: the ROADMAP direction that holds its hypothesis.
    gap: Option<&'static str>,
}

impl Shape {
    /// A shape to check; `known_gap` declares that the figure does not
    /// reproduce yet, naming the ROADMAP direction that holds the
    /// hypothesis.
    pub fn new(claim: impl Into<String>, known_gap: Option<&'static str>) -> Shape {
        let (claim, misses, gap) = (claim.into(), Vec::new(), known_gap);
        Shape { claim, misses, gap }
    }

    /// Records one check; `miss` says what missed when `ok` is false.
    pub fn check(&mut self, ok: bool, miss: impl FnOnce() -> String) {
        if !ok {
            self.misses.push(miss());
        }
    }

    /// `pass` when every check holds, `gap` when one misses and a gap is
    /// declared, `fail` otherwise.
    pub fn verdict(&self) -> &'static str {
        match (self.misses.is_empty(), self.gap) {
            (true, _) => "pass",
            (false, Some(_)) => "gap",
            (false, None) => "fail",
        }
    }

    /// The declared gap's reason; on a pass, a note that it is stale.
    fn reason(&self) -> Option<String> {
        let gap = self.gap?;
        Some(match self.verdict() {
            "pass" => format!("stale, every check holds: {gap}"),
            _ => gap.to_string(),
        })
    }

    pub fn json(&self) -> Value {
        json!({
            "claim": self.claim,
            "verdict": self.verdict(),
            "reason": self.reason(),
            "misses": self.misses,
        })
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.verdict(), self.claim)?;
        for line in self.reason().iter().chain(&self.misses) {
            write!(f, "\n    {line}")?;
        }
        Ok(())
    }
}

/// One figure's JSON record and the shape its view checked.
pub type Figure = (Value, Shape);

/// A runnable experiment: one sweep and the figures it feeds.
pub struct Experiment {
    /// `(CLI name, what it reproduces)` of every figure or table the
    /// sweep feeds, e.g. `("fig15", "Fig. 15: …")`.
    pub figures: &'static [(&'static str, &'static str)],
    /// Runs the sweep once (`quick` shrinks scales for smoke tests) and
    /// returns one [`Figure`] per entry of `figures`, in that order.
    pub run: fn(bool) -> Vec<Figure>,
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
                "QoS control plane: base weight + admission control + GC pacing, 1000+ tenants",
            )],
            run: |quick| vec![qos::qos(quick)],
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
    use super::{registry, Shape};

    fn judged(gap: bool, ok: bool) -> Shape {
        let mut shape = Shape::new("a claim", gap.then_some("direction 4: a hypothesis"));
        shape.check(true, || unreachable!("a check that holds names no miss"));
        shape.check(ok, || "row: missed".to_string());
        shape
    }

    #[test]
    fn every_check_holding_is_a_pass() {
        let shape = judged(false, true);
        assert_eq!(shape.verdict(), "pass");
        assert_eq!(shape.reason(), None);
        assert_eq!(shape.json()["misses"].as_array().map(Vec::len), Some(0));
    }

    #[test]
    fn a_miss_under_a_declared_gap_is_a_gap_with_its_reason() {
        let shape = judged(true, false);
        assert_eq!(shape.verdict(), "gap");
        assert_eq!(
            shape.json()["reason"].as_str(),
            Some("direction 4: a hypothesis")
        );
        assert_eq!(shape.json()["misses"][0].as_str(), Some("row: missed"));
    }

    #[test]
    fn a_miss_without_a_gap_is_a_fail() {
        let shape = judged(false, false);
        assert_eq!(shape.verdict(), "fail");
        assert_eq!(shape.reason(), None);
        assert_eq!(shape.to_string(), "fail: a claim\n    row: missed");
    }

    #[test]
    fn a_declared_gap_whose_checks_hold_passes_with_a_stale_note() {
        let shape = judged(true, true);
        assert_eq!(shape.verdict(), "pass");
        let note = "stale, every check holds: direction 4: a hypothesis";
        assert_eq!(shape.reason().as_deref(), Some(note));
    }

    /// The 25 names the harness accepts.
    const NAMES: [&str; 25] = [
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
