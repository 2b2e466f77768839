//! # Workload generators for the LeaFTL evaluation
//!
//! Synthetic, deterministic equivalents of the paper's evaluation
//! workloads (§4.1, Table 2): the MSR-Cambridge and FIU block-trace
//! profiles and the application-level FileBench/BenchBase profiles.
//! The real traces are not redistributable; these generators control
//! the access-pattern *structure* the learned FTL responds to —
//! sequential runs, strided records, Zipf-skewed point accesses,
//! read/write mix and working-set size.
//!
//! ```
//! use leaftl_workloads::{msr_src2, warmup_ops};
//!
//! // 10k operations against a 1M-page logical space, seed 42.
//! let ops = msr_src2().generate(1 << 20, 10_000, 42);
//! assert_eq!(ops.len(), 10_000);
//! // Same seed, same trace.
//! assert_eq!(ops, msr_src2().generate(1 << 20, 10_000, 42));
//! // Pre-fill 80% of the device before measuring, like the paper.
//! let warmup = warmup_ops(1 << 20, 0.8);
//! assert!(!warmup.is_empty());
//! ```

mod openloop;
mod profile;
mod suites;
pub mod trace_file;
pub mod zipf;

pub use openloop::{
    bursty_writer, gc_bully, gc_heavy_writer, multi_tenant_trace, qos_fleet, sequential_scanner,
    slo_reader, zipf_tenant, QosFleetSpec, TenantSpec,
};
pub use profile::{strided_ops, warmup_ops, ProfileParams, TraceGenerator};
pub use suites::{
    app_suite, auctionmark, block_trace_suite, compflow, fiu_home, fiu_mail, full_suite, msr_hm,
    msr_prn, msr_prxy, msr_src2, msr_usr, oltp, seats, tpcc,
};
pub use trace_file::{parse_msr_trace, to_msr_trace, ParseTraceError};
