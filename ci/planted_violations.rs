// Not part of any crate: CI's "gate fires" step appends this file to a
// throw-away copy of crates/sim/src/clock.rs and requires `cargo clippy`
// to refuse every line below that names a lint, by that lint.

fn planted(value: Option<u64>, command: crate::Command) -> bool {
    let _wall_clock = std::time::Instant::now(); // clippy::disallowed_methods
    let _table = std::collections::HashMap::<u64, u64>::new(); // clippy::disallowed_types
    let _value = value.unwrap(); // clippy::unwrap_used
    unsafe {} // unsafe_code
    match command {
        crate::Command::Flush => true,
        _ => false, // clippy::wildcard_enum_match_arm
    }
}

#[expect(clippy::unwrap_used, reason = "stale on purpose")] // unfulfilled_lint_expectations
fn planted_stale_expectation() {}
