//! The named workload suites of the paper's evaluation.
//!
//! * Block-trace suite (§4.1): five MSR-Cambridge volumes (hm, src2,
//!   prxy, prn, usr) and two FIU traces (home, mail) — drives Figs.
//!   5/10/12/15/16/19–25.
//! * Application suite (Table 2): OLTP and CompFlow from FileBench,
//!   TPCC / AuctionMark / SEATS from BenchBase — drives Figs. 17/18 and
//!   the "real SSD" columns of the sensitivity studies.
//!
//! The parameters are synthetic approximations of the published trace
//! characteristics (read/write mix, sequentiality, skew, working-set
//! size). Each profile is deterministic given a seed.

use crate::profile::ProfileParams;

fn profile(
    name: &str,
    read_ratio: f64,
    seq_fraction: f64,
    stride_fraction: f64,
    mean_run_pages: u32,
    zipf_theta: f64,
    working_set: f64,
) -> ProfileParams {
    ProfileParams {
        name: name.to_string(),
        read_ratio,
        seq_fraction,
        stride_fraction,
        mean_run_pages,
        zipf_theta,
        working_set,
    }
}

/// MSR-hm: hardware-monitoring volume — write-heavy with moderate
/// locality and mixed short runs.
pub fn msr_hm() -> ProfileParams {
    profile("MSR-hm", 0.35, 0.45, 0.15, 12, 0.90, 0.20)
}

/// MSR-src2: source-control volume — bursty, strongly sequential
/// writes (long learnable runs).
pub fn msr_src2() -> ProfileParams {
    profile("MSR-src2", 0.12, 0.65, 0.10, 32, 0.60, 0.15)
}

/// MSR-prxy: web-proxy volume — write-dominant small random I/O (the
/// hardest pattern for learned segments).
pub fn msr_prxy() -> ProfileParams {
    profile("MSR-prxy", 0.05, 0.25, 0.10, 8, 1.10, 0.05)
}

/// MSR-prn: print-server volume — balanced mix of sequential bursts
/// and strided metadata updates.
pub fn msr_prn() -> ProfileParams {
    profile("MSR-prn", 0.25, 0.50, 0.20, 16, 0.80, 0.30)
}

/// MSR-usr: user home directories — read-leaning with scans and
/// moderate skew.
pub fn msr_usr() -> ProfileParams {
    profile("MSR-usr", 0.60, 0.55, 0.10, 24, 0.90, 0.35)
}

/// FIU-home: research-home-directory trace — mixed small I/O with
/// strided application patterns.
pub fn fiu_home() -> ProfileParams {
    profile("FIU-home", 0.25, 0.35, 0.25, 8, 0.95, 0.20)
}

/// FIU-mail: mail-server trace — many small skewed random writes.
pub fn fiu_mail() -> ProfileParams {
    profile("FIU-mail", 0.10, 0.20, 0.15, 4, 1.20, 0.10)
}

/// The block-trace suite in the paper's presentation order.
pub fn block_trace_suite() -> Vec<ProfileParams> {
    vec![
        msr_hm(),
        msr_src2(),
        msr_prxy(),
        msr_prn(),
        msr_usr(),
        fiu_home(),
        fiu_mail(),
    ]
}

/// OLTP (FileBench): transactional file accesses — random reads and
/// log-style writes over a 10 GB file set.
pub fn oltp() -> ProfileParams {
    profile("OLTP", 0.70, 0.15, 0.15, 4, 0.99, 0.50)
}

/// CompFlow (FileBench): computation-flow file accesses — long
/// sequential read-process-write phases.
pub fn compflow() -> ProfileParams {
    profile("CompF", 0.50, 0.80, 0.05, 64, 0.30, 0.60)
}

/// TPC-C (BenchBase): warehouse OLTP — skewed random I/O with strided
/// index pages.
pub fn tpcc() -> ProfileParams {
    profile("TPCC", 0.65, 0.20, 0.15, 8, 1.10, 0.40)
}

/// AuctionMark (BenchBase): auction-site activity queries.
pub fn auctionmark() -> ProfileParams {
    profile("AMark", 0.55, 0.15, 0.12, 4, 1.05, 0.30)
}

/// SEATS (BenchBase): airline-ticketing queries.
pub fn seats() -> ProfileParams {
    profile("SEATS", 0.60, 0.15, 0.12, 4, 0.99, 0.35)
}

/// The application suite (Table 2) in the paper's presentation order.
pub fn app_suite() -> Vec<ProfileParams> {
    vec![seats(), auctionmark(), tpcc(), oltp(), compflow()]
}

/// Every workload of the evaluation (block traces then applications).
pub fn full_suite() -> Vec<ProfileParams> {
    let mut suite = block_trace_suite();
    suite.extend(app_suite());
    suite
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_have_paper_cardinality() {
        assert_eq!(block_trace_suite().len(), 7);
        assert_eq!(app_suite().len(), 5);
        assert_eq!(full_suite().len(), 12);
    }

    #[test]
    fn names_are_unique_and_match_paper_labels() {
        let suite = full_suite();
        let names: Vec<&str> = suite.iter().map(|p| p.name.as_str()).collect();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len());
        assert!(names.contains(&"MSR-prxy"));
        assert!(names.contains(&"TPCC"));
        assert!(names.contains(&"CompF"));
    }

    #[test]
    fn parameters_are_sane() {
        for p in full_suite() {
            assert!((0.0..=1.0).contains(&p.read_ratio), "{}", p.name);
            assert!(p.seq_fraction + p.stride_fraction <= 1.0, "{}", p.name);
            assert!(p.mean_run_pages >= 1, "{}", p.name);
            assert!((0.0..2.0).contains(&p.zipf_theta), "{}", p.name);
            assert!(p.working_set > 0.0 && p.working_set <= 1.0, "{}", p.name);
        }
    }

    #[test]
    fn sequential_profiles_produce_longer_requests() {
        let seq = msr_src2().generate(1 << 20, 5000, 11);
        let rnd = msr_prxy().generate(1 << 20, 5000, 11);
        let mean = |ops: &[leaftl_sim::HostOp]| {
            ops.iter().map(|o| o.page_count() as f64).sum::<f64>() / ops.len() as f64
        };
        assert!(
            mean(&seq) > 2.0 * mean(&rnd),
            "src2 {} vs prxy {}",
            mean(&seq),
            mean(&rnd)
        );
    }

    #[test]
    fn write_heavy_profiles_write() {
        let ops = fiu_mail().generate(1 << 20, 5000, 13);
        let writes = ops.iter().filter(|o| !o.is_read()).count();
        assert!(writes as f64 / ops.len() as f64 > 0.8);
    }
}
