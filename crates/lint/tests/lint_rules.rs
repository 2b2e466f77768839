//! Fixture self-tests for the linter: one known-bad and one known-good
//! snippet per rule, asserting each rule fires exactly where expected
//! (rule id + 1-based line), plus allowlist parse/match/stale coverage
//! and an end-to-end `run()` over a throwaway mini-workspace.

use leaftl_lint::allowlist::Allowlist;
use leaftl_lint::rules::{check_crate_root, lint_file, Finding};

/// The (rule, line) pairs of a findings list, for exact-location
/// assertions.
fn fired(findings: &[Finding]) -> Vec<(&'static str, usize)> {
    findings.iter().map(|f| (f.rule, f.line)).collect()
}

// --- D1: order-dependent hash iteration ------------------------------

#[test]
fn d1_fires_on_hash_map_iteration_in_sim() {
    let src = "\
use std::collections::HashMap;
fn tally(m: &HashMap<u64, u64>) -> u64 {
    let mut total = 0;
    for (_k, v) in m.iter() {
        total += *v;
    }
    total
}
";
    assert_eq!(
        fired(&lint_file("crates/sim/src/fake.rs", src)),
        [("D1", 4)]
    );
}

#[test]
fn d1_fires_on_for_loop_over_hash_set() {
    let src = "\
use std::collections::HashSet;
fn visit(seen: &HashSet<u64>) {
    for v in seen {
        drop(v);
    }
}
";
    assert_eq!(
        fired(&lint_file("crates/core/src/fake.rs", src)),
        [("D1", 3)]
    );
}

#[test]
fn d1_fires_on_iteration_over_the_integer_hasher_aliases() {
    let src = "\
use leaftl_flash::IntSet;
fn visit(seen: &IntSet<u64>) -> u64 {
    seen.iter().sum()
}
";
    assert_eq!(
        fired(&lint_file("crates/sim/src/fake.rs", src)),
        [("D1", 3)]
    );
}

#[test]
fn d1_quiet_on_btree_and_on_same_statement_rematerialisation() {
    let src = "\
use std::collections::{BTreeMap, HashMap};
fn ordered(m: &HashMap<u64, u64>) -> BTreeMap<u64, u64> {
    let ordered: BTreeMap<u64, u64> = m.iter().map(|(k, v)| (*k, *v)).collect();
    ordered
}
";
    assert_eq!(fired(&lint_file("crates/sim/src/fake.rs", src)), []);
}

#[test]
fn d1_quiet_on_membership_only_use_and_in_tests() {
    let src = "\
use std::collections::HashSet;
fn dedup(seen: &mut HashSet<u64>, v: u64) -> bool {
    seen.insert(v)
}
#[cfg(test)]
mod tests {
    #[test]
    fn iterating_in_tests_is_fine() {
        let seen: std::collections::HashSet<u64> = [1, 2].into_iter().collect();
        for v in seen.iter() {
            drop(v);
        }
    }
}
";
    assert_eq!(fired(&lint_file("crates/sim/src/fake.rs", src)), []);
}

#[test]
fn d1_quiet_outside_sim_and_core() {
    let src = "\
use std::collections::HashMap;
fn tally(m: &HashMap<u64, u64>) -> usize {
    m.keys().count()
}
";
    assert_eq!(fired(&lint_file("crates/workloads/src/fake.rs", src)), []);
}

// --- D2: ambient time / randomness ------------------------------------

#[test]
fn d2_fires_on_instant_now() {
    let src = "\
fn elapsed() -> u64 {
    let t = std::time::Instant::now();
    t.elapsed().as_nanos() as u64
}
";
    assert_eq!(
        fired(&lint_file("crates/sim/src/fake.rs", src)),
        [("D2", 2)]
    );
}

#[test]
fn d2_quiet_in_test_code_and_on_sim_clock() {
    let src = "\
fn now(clock: &SimClock) -> u64 {
    clock.now_ns()
}
#[cfg(test)]
mod tests {
    #[test]
    fn wall_clock_ok_in_tests() {
        let _ = std::time::Instant::now();
    }
}
";
    assert_eq!(fired(&lint_file("crates/sim/src/fake.rs", src)), []);
}

#[test]
fn d2_fires_on_randomly_seeded_hash_collections_in_ftl_crates() {
    let src = "\
use std::collections::{HashMap, HashSet};
use std::collections::hash_map::RandomState;
fn build() {
    let seen: HashSet<u64> = HashSet::new();
    let sized: HashMap<u64, u64> = HashMap::with_capacity(8);
    drop((seen, sized));
}
";
    for krate in ["flash", "core", "sim", "baselines"] {
        assert_eq!(
            fired(&lint_file(&format!("crates/{krate}/src/fake.rs"), src)),
            [("D2", 2), ("D2", 4), ("D2", 5)],
            "{krate}"
        );
    }
    assert_eq!(fired(&lint_file("crates/workloads/src/fake.rs", src)), []);
}

#[test]
fn d2_quiet_on_the_integer_hasher_and_in_tests() {
    let src = "\
use leaftl_flash::{IntMap, IntSet};
use std::collections::hash_map::Entry;
fn build() -> (IntMap<u64, u64>, IntSet<u64>) {
    (IntMap::default(), IntSet::default())
}
#[cfg(test)]
mod tests {
    #[test]
    fn any_hasher_is_fine_in_tests() {
        let seen = std::collections::HashSet::<u64>::new();
        drop(seen);
    }
}
";
    assert_eq!(fired(&lint_file("crates/sim/src/fake.rs", src)), []);
}

// --- M1: wildcard arms on guarded enums -------------------------------

#[test]
fn m1_fires_on_wildcard_in_command_match() {
    let src = "\
fn name(c: Command) -> &'static str {
    match c {
        Command::Read { .. } => \"read\",
        Command::Write { .. } => \"write\",
        _ => \"other\",
    }
}
";
    assert_eq!(
        fired(&lint_file("crates/sim/src/fake.rs", src)),
        [("M1", 5)]
    );
}

#[test]
fn m1_fires_on_guarded_wildcard_after_block_arm() {
    let src = "\
fn handle(k: IoKind) -> u64 {
    match k {
        IoKind::Read => {
            let x = 1;
            x
        }
        _ if true => 0,
    }
}
";
    assert_eq!(
        fired(&lint_file("crates/sim/src/fake.rs", src)),
        [("M1", 7)]
    );
}

#[test]
fn m1_quiet_on_exhaustive_match_and_unguarded_enums() {
    let src = "\
fn name(c: Command) -> &'static str {
    match c {
        Command::Read { .. } => \"read\",
        Command::Write { .. } | Command::Flush => \"other\",
    }
}
fn digit(v: u32) -> &'static str {
    match v {
        0 => \"zero\",
        _ => \"many\",
    }
}
";
    assert_eq!(fired(&lint_file("crates/sim/src/fake.rs", src)), []);
}

// --- P1: unwrap/expect in hot paths -----------------------------------

#[test]
fn p1_fires_on_unwrap_and_expect() {
    let src = "\
fn take(opt: Option<u64>, res: Result<u64, ()>) -> u64 {
    let v = opt.unwrap();
    let w = res.expect(\"must\");
    v + w
}
";
    assert_eq!(
        fired(&lint_file("crates/core/src/fake.rs", src)),
        [("P1", 2), ("P1", 3)]
    );
}

#[test]
fn p1_quiet_on_domain_expect_method_and_in_tests() {
    let src = "\
fn parse(&mut self) -> Result<(), String> {
    self.expect(b'{')?;
    Ok(())
}
#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_ok_in_tests() {
        let v: Option<u64> = Some(1);
        assert_eq!(v.unwrap(), 1);
    }
}
";
    assert_eq!(fired(&lint_file("crates/sim/src/fake.rs", src)), []);
}

// --- T2: raw nanosecond subtraction -----------------------------------

#[test]
fn t2_fires_on_raw_ns_subtraction_in_clock() {
    let src = "\
fn stall(end_ns: u64, start_ns: u64) -> u64 {
    end_ns - start_ns
}
";
    assert_eq!(
        fired(&lint_file("crates/sim/src/clock.rs", src)),
        [("T2", 2)]
    );
}

#[test]
fn t2_quiet_on_saturating_sub_addition_and_other_files() {
    let src = "\
fn stall(end_ns: u64, start_ns: u64) -> u64 {
    let total_ns = end_ns + start_ns;
    total_ns.saturating_sub(2 * start_ns)
}
fn plain(a: u64, b: u64) -> u64 {
    a - b
}
";
    assert_eq!(fired(&lint_file("crates/sim/src/clock.rs", src)), []);
    // The rule only covers the three timeline-accounting files.
    let elsewhere = "\
fn stall(end_ns: u64, start_ns: u64) -> u64 {
    end_ns - start_ns
}
";
    assert_eq!(fired(&lint_file("crates/sim/src/device.rs", elsewhere)), []);
}

#[test]
fn t2_line_numbers_survive_string_continuations() {
    // A `\\` string line-continuation swallows the newline in the
    // source text; the lexer must still count the line (regression:
    // every finding after such a string was off by one).
    let src = "\
fn msg() -> &'static str {
    \"a message that continues \\
     on the next line\"
}
fn stall(end_ns: u64, start_ns: u64) -> u64 {
    end_ns - start_ns
}
";
    assert_eq!(
        fired(&lint_file("crates/sim/src/clock.rs", src)),
        [("T2", 6)]
    );
}

// --- A1: crate-level attributes ---------------------------------------

#[test]
fn a1_fires_on_missing_attributes() {
    let src = "\
//! A crate.
pub fn item() {}
";
    assert_eq!(
        fired(&check_crate_root("crates/fake/src/lib.rs", src, true)),
        [("A1", 1), ("A1", 1)]
    );
}

#[test]
fn a1_quiet_with_both_attributes_and_on_binary_roots() {
    let lib = "\
//! A crate.
#![forbid(unsafe_code)]
#![deny(missing_docs)]
pub fn item() {}
";
    assert_eq!(
        fired(&check_crate_root("crates/fake/src/lib.rs", lib, true)),
        []
    );
    // Binary roots only need forbid(unsafe_code).
    let main = "\
//! A binary.
#![forbid(unsafe_code)]
fn main() {}
";
    assert_eq!(
        fired(&check_crate_root("crates/fake/src/main.rs", main, false)),
        []
    );
}

// --- allowlist ---------------------------------------------------------

fn sample_finding() -> Finding {
    lint_file(
        "crates/core/src/fake.rs",
        "fn f(o: Option<u64>) -> u64 {\n    o.expect(\"present\")\n}\n",
    )
    .remove(0)
}

#[test]
fn allowlist_matches_on_rule_path_suffix_and_pattern() {
    let allow = Allowlist::parse(
        "[[allow]]\n\
         rule = \"P1\"\n\
         path = \"core/src/fake.rs\"\n\
         pattern = \"o.expect(\\\"present\\\")\"\n\
         reason = \"the caller checked is_some\"\n",
    )
    .expect("valid allowlist");
    assert_eq!(allow.matches(&sample_finding()), Some(0));
}

#[test]
fn allowlist_rejects_wrong_rule_path_or_pattern() {
    let f = sample_finding();
    let wrong_rule =
        "[[allow]]\nrule = \"T2\"\npath = \"fake.rs\"\npattern = \"o.expect\"\nreason = \"r\"\n";
    let wrong_path = "[[allow]]\nrule = \"P1\"\npath = \"crates/sim/src/fake.rs\"\npattern = \"o.expect\"\nreason = \"r\"\n";
    let wrong_pattern =
        "[[allow]]\nrule = \"P1\"\npath = \"fake.rs\"\npattern = \"q.expect\"\nreason = \"r\"\n";
    for toml in [wrong_rule, wrong_path, wrong_pattern] {
        let allow = Allowlist::parse(toml).expect("valid allowlist");
        assert_eq!(allow.matches(&f), None);
    }
}

#[test]
fn allowlist_requires_a_reason_and_rejects_unknown_keys() {
    let missing_reason = "[[allow]]\nrule = \"P1\"\npath = \"a.rs\"\npattern = \"x\"\n";
    assert!(Allowlist::parse(missing_reason)
        .unwrap_err()
        .contains("missing `reason`"));
    let unknown_key =
        "[[allow]]\nrule = \"P1\"\npath = \"a.rs\"\npattern = \"x\"\nreason = \"r\"\nline = \"7\"\n";
    assert!(Allowlist::parse(unknown_key)
        .unwrap_err()
        .contains("unknown key"));
    let bad_escape =
        "[[allow]]\nrule = \"P1\"\npath = \"a.rs\"\npattern = \"\\x\"\nreason = \"r\"\n";
    assert!(Allowlist::parse(bad_escape)
        .unwrap_err()
        .contains("unsupported escape"));
}

// --- end-to-end: run() over a throwaway mini-workspace -----------------

#[test]
fn run_partitions_violations_allowed_and_stale() {
    use std::fs;
    let root = std::env::temp_dir().join(format!("leaftl-lint-e2e-{}", std::process::id()));
    let src_dir = root.join("crates/sim/src");
    fs::create_dir_all(&src_dir).expect("fixture dir");
    fs::write(
        src_dir.join("lib.rs"),
        "//! Fixture sim crate.\n\
         #![forbid(unsafe_code)]\n\
         #![deny(missing_docs)]\n\
         /// Stalls.\n\
         pub fn stall(end_ns: u64, start_ns: u64) -> u64 {\n\
             end_ns.saturating_sub(start_ns)\n\
         }\n\
         /// Takes.\n\
         pub fn take(o: Option<u64>) -> u64 {\n\
             o.expect(\"present\")\n\
         }\n",
    )
    .expect("fixture source");
    fs::write(
        root.join("lint.toml"),
        "[[allow]]\n\
         rule = \"P1\"\n\
         path = \"crates/sim/src/lib.rs\"\n\
         pattern = \"o.expect(\\\"present\\\")\"\n\
         reason = \"fixture: caller checked\"\n\
         [[allow]]\n\
         rule = \"T2\"\n\
         path = \"crates/sim/src/lib.rs\"\n\
         pattern = \"no such line\"\n\
         reason = \"fixture: intentionally stale\"\n",
    )
    .expect("fixture allowlist");

    let report = leaftl_lint::run(&root).expect("lint run");
    fs::remove_dir_all(&root).ok();

    assert_eq!(report.violations, []);
    assert_eq!(report.allowed.len(), 1);
    assert_eq!(report.allowed[0].0.rule, "P1");
    assert_eq!(report.stale_allows.len(), 1);
    assert_eq!(report.stale_allows[0].pattern, "no such line");
    // A stale entry alone must fail the gate.
    assert!(!report.clean());
    let json = report.to_json();
    assert!(json.contains("\"clean\": false"));
    assert!(json.contains("fixture: intentionally stale"));
}
