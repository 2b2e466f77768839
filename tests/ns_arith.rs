//! Rule T2 (README "Static analysis"): nanosecond subtraction in the
//! timeline-accounting files is `saturating_sub` / `checked_sub` — a
//! raw `-` on `u64` nanoseconds underflows to ~584 years and silently
//! corrupts histograms and stall accounting (additions are exempt:
//! overflowing takes a 584-year run). No lint expresses it, so the rule
//! is textual: per line of non-test code, `//` comments and string
//! literals cut, an identifier ending in `_ns` beside a binary `-`.

const FILES: [(&str, &str); 7] = [
    ("clock.rs", include_str!("../crates/sim/src/clock.rs")),
    ("ssd.rs", include_str!("../crates/sim/src/ssd.rs")),
    ("gc.rs", include_str!("../crates/sim/src/gc.rs")),
    ("flush.rs", include_str!("../crates/sim/src/flush.rs")),
    (
        "collection.rs",
        include_str!("../crates/sim/src/collection.rs"),
    ),
    ("qos.rs", include_str!("../crates/sim/src/qos.rs")),
    ("device.rs", include_str!("../crates/sim/src/device.rs")),
];

/// The flagged lines that stay, in scan order: (file, the trimmed line,
/// the proof). One that is no longer flagged fails the test.
const ALLOW: [(&str, &str, &str); 1] = [(
    "qos.rs",
    "error = (p99 - budget_ns) / budget_ns;",
    "the f64 SLO error term is signed on purpose (negative = headroom drives weight decay)",
)];

/// `line` without what its string literals hold and without its `//` comment.
fn code_of(line: &str) -> String {
    let outside: String = line.replace("\\\"", "").split('"').step_by(2).collect();
    outside.split("//").next().unwrap_or_default().to_string()
}

/// An identifier on the line ends in `_ns` (field, local or method).
fn mentions_ns_ident(code: &str) -> bool {
    let in_ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices("_ns")
        .any(|(at, _)| !code[at + 3..].starts_with(in_ident))
}

/// A `-` that is a binary operator (not `->`, not a unary negation).
fn has_binary_minus(code: &str) -> bool {
    let ends_operand = |c: char| c.is_alphanumeric() || "_)]".contains(c);
    code.match_indices('-').any(|(at, _)| {
        !code[at + 1..].starts_with('>') && code[..at].trim_end().ends_with(ends_operand)
    })
}

fn raw_ns_subtraction(line: &str) -> bool {
    let code = code_of(line);
    let guarded = code.contains("saturating_") || code.contains("checked_");
    mentions_ns_ident(&code) && has_binary_minus(&code) && !guarded
}

#[test]
fn nanosecond_subtraction_saturates_in_the_timeline_files() {
    for bad in ["end_ns - start_ns", "(now - self.since_ns[q]) as f64"] {
        assert!(raw_ns_subtraction(bad), "{bad}");
    }
    for good in [
        "fn stall(end_ns: u64, start_ns: u64) -> u64 {",
        "let slack_ns = -headroom;",
        "total_ns.saturating_sub(2 * start_ns)",
        "let total_ns = end_ns + start_ns;",
        "a - b",
        "log(\"end_ns - start_ns\"); // end_ns - start_ns",
        "let nsec = a_nsec - b;",
    ] {
        assert!(!raw_ns_subtraction(good), "{good}");
    }

    let mut flagged = Vec::new();
    for (file, source) in FILES {
        let mut parts = source.split("#[cfg(test)]");
        let production = parts.next().unwrap_or_default().lines().map(str::trim);
        assert_eq!(parts.count(), 1, "{file}: one trailing test module");
        flagged.extend(
            production
                .filter(|line| raw_ns_subtraction(line))
                .map(|line| (file, line)),
        );
    }
    assert_eq!(
        flagged,
        ALLOW.map(|(file, line, _proof)| (file, line)),
        "raw `-` on nanoseconds (left) beside ALLOW (right): use saturating_sub / checked_sub"
    );
}
