//! Fixed histories: the steps the property tests draw, sampled with a
//! seed named by the test, so a fixed history can assert what it must
//! have exercised.

use crate::families::aging;
use crate::model::{check_model, step, Step};
use leaftl_repro::sim::{MappingScheme, SimStats, Ssd};
use proptest::prelude::*;

/// `len` steps drawn from [`step`] by the generator the property tests
/// use, seeded by `name`.
pub fn history(name: &str, len: usize) -> Vec<Step> {
    let (step, mut rng) = (step(), TestRng::for_test(name));
    (0..len).map(|_| step.new_value(&mut rng)).collect()
}

/// Steps in a fixed history after the aging.
pub const HISTORY: usize = 300;

/// Ages `ssd`, runs the fixed history named `name` on it under the
/// model and reads every LPA; returns what the run counted. Every fixed
/// history cuts power several times, each time on a device GC has been
/// collecting.
pub fn fixed<S: MappingScheme + Clone>(name: &str, ssd: Ssd<S>) -> Result<SimStats, TestCaseError> {
    let mut steps = aging(ssd.config().logical_pages()).map(Step::Host).to_vec();
    steps.extend(history(name, HISTORY));
    let crashes = steps.iter().filter(|s| matches!(s, Step::Crash)).count();
    prop_assert!(crashes >= 5, "{} power cuts in {}", crashes, name);
    let stats = check_model(ssd, &steps)?.ssd().stats().clone();
    prop_assert!(stats.gc_runs > 0, "{} must reach GC", name);
    Ok(stats)
}
