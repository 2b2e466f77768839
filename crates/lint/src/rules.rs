//! The lint rules. Each is grounded in a gotcha a past PR hit (see the
//! README's "Static analysis" section for the full stories); together
//! they turn the repo's determinism and timeline-accounting contracts
//! from after-the-fact test assertions into properties enforced on
//! every commit.

use crate::lexer::{scan, word_match, ScannedFile, ScannedLine};

/// A single rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`D1`, `D2`, `M1`, `P1`, `T2`, `A1`).
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The raw source line, trimmed (allowlist patterns match here).
    pub snippet: String,
    /// What is wrong and how to fix it.
    pub message: String,
}

/// Iteration methods whose visit order on `HashMap`/`HashSet` is
/// unspecified — the surface rule D1 polices.
const HASH_ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
];

/// Ambient-nondeterminism tokens rule D2 rejects in sim/core: anything
/// that reads the host's wall clock or OS entropy makes traces and
/// fleet replays irreproducible by construction.
const AMBIENT_TOKENS: [&str; 5] = [
    "SystemTime",
    "Instant::now",
    "thread_rng",
    "rand::random",
    "from_entropy",
];

/// Spellings that build a `RandomState`-hashed collection, which rule
/// D2 rejects in the FTL crates: the default hasher is seeded from OS
/// entropy per process (iteration order differs from run to run, so
/// determinism would rest on an audit of every use) and costs a
/// SipHash per probe. `leaftl_flash::{IntMap, IntSet}` hash the same
/// keys deterministically; they have no `new`/`with_capacity`, so the
/// spellings below cannot be reached through them.
const RANDOM_STATE_TOKENS: [&str; 5] = [
    "HashMap::new",
    "HashSet::new",
    "HashMap::with_capacity",
    "HashSet::with_capacity",
    "RandomState",
];

fn in_sim_core(path: &str) -> bool {
    path.starts_with("crates/sim/src/") || path.starts_with("crates/core/src/")
}

/// The crates that model the device: everything under the IO path.
fn in_ftl_crates(path: &str) -> bool {
    ["flash", "core", "sim", "baselines"]
        .iter()
        .any(|name| path.starts_with(&format!("crates/{name}/src/")))
}

fn in_workspace_src(path: &str) -> bool {
    (path.starts_with("crates/") && path.contains("/src/")) || path.starts_with("src/")
}

fn is_ns_arith_file(path: &str) -> bool {
    matches!(
        path,
        "crates/sim/src/clock.rs" | "crates/sim/src/ssd.rs" | "crates/sim/src/qos.rs"
    )
}

/// Runs every per-file rule on one source file. `path` must be
/// workspace-relative with forward slashes — rule scoping keys on it.
pub fn lint_file(path: &str, source: &str) -> Vec<Finding> {
    let scanned = scan(source);
    let mut findings = Vec::new();
    if in_sim_core(path) {
        rule_d1_hash_iteration(path, &scanned, &mut findings);
        rule_d2_ambient(path, &scanned, &mut findings);
        rule_p1_unwrap(path, &scanned, &mut findings);
    }
    if in_ftl_crates(path) {
        rule_d2_random_state(path, &scanned, &mut findings);
    }
    if in_workspace_src(path) {
        rule_m1_wildcard(path, &scanned, &mut findings);
    }
    if is_ns_arith_file(path) {
        rule_t2_ns_arith(path, &scanned, &mut findings);
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

fn finding(rule: &'static str, path: &str, line: &ScannedLine, message: String) -> Finding {
    Finding {
        rule,
        file: path.to_string(),
        line: line.number,
        snippet: line.raw.trim().to_string(),
        message,
    }
}

// ---------------------------------------------------------------------
// D1 — no order-dependent iteration over hash collections
// ---------------------------------------------------------------------

/// Collects identifiers bound to `HashMap`/`HashSet` (or their
/// fixed-hasher aliases `IntMap`/`IntSet`, whose order is repeatable
/// but still an accident of the table's history) in this file:
/// `let` bindings, struct fields and function parameters. Tracking is
/// file-wide and name-based (no type inference), which can over-match a
/// same-named non-hash binding elsewhere in the file — the allowlist
/// absorbs that, and the bias is the safe direction.
fn hash_bound_names(scanned: &ScannedFile) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for line in &scanned.lines {
        let code = &line.code;
        for kw in ["HashMap", "HashSet", "IntMap", "IntSet"] {
            for at in word_positions(code, kw) {
                if let Some(name) = binding_name_before(&code[..at]) {
                    if !names.contains(&name) {
                        names.push(name);
                    }
                }
            }
        }
    }
    names
}

/// Walks left from a `HashMap`/`HashSet` token over type glue
/// (`&`, `<`, `::` paths, lifetimes, wrapper names) to the binding
/// separator (`:` of a field/param/`let`-type, or `=` of a `let`
/// initialiser), then extracts the identifier before it. Returns
/// `None` when the walk hits non-glue (a call paren, a `Vec<` element
/// position, …) — those sites don't bind a hash collection to a name.
fn binding_name_before(prefix: &str) -> Option<String> {
    let chars: Vec<char> = prefix.chars().collect();
    let mut j = chars.len();
    let sep = loop {
        if j == 0 {
            return None;
        }
        j -= 1;
        match chars[j] {
            ':' => {
                if j > 0 && chars[j - 1] == ':' {
                    j -= 1; // path `::`, keep walking
                } else {
                    break j;
                }
            }
            '=' => break j,
            c if c.is_alphanumeric()
                || c == '_'
                || c == ' '
                || c == '&'
                || c == '<'
                || c == '>'
                || c == ','
                || c == '\'' =>
            {
                continue;
            }
            _ => return None,
        }
    };
    // A hash collection as a collection *element* type (`Vec<HashMap<…>>`)
    // doesn't make the outer binding order-unstable.
    let glue: String = chars[sep + 1..].iter().collect();
    if glue.contains("Vec<") || glue.contains("VecDeque<") {
        return None;
    }
    let before: String = chars[..sep].iter().collect();
    let before = before.trim_end();
    let name: String = before
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    (!name.is_empty() && name.chars().next().is_some_and(|c| c.is_alphabetic()) && name != "mut")
        .then_some(name)
}

/// All word-boundary-delimited occurrence offsets of `needle` in `hay`.
fn word_positions(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = hay[from..].find(needle) {
        let at = from + p;
        from = at + needle.len();
        let before_ok = at == 0
            || !hay[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = hay[at + needle.len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            out.push(at);
        }
    }
    out
}

fn rule_d1_hash_iteration(path: &str, scanned: &ScannedFile, findings: &mut Vec<Finding>) {
    let names = hash_bound_names(scanned);
    if names.is_empty() {
        return;
    }
    let mut flagged: Vec<(usize, String)> = Vec::new();
    for line in &scanned.lines {
        if line.in_test {
            continue;
        }
        for name in &names {
            if !word_match(&line.code, name) {
                continue;
            }
            let stmt = scanned.statement_of(line);
            // A sort (or a BTree re-materialisation) on the same
            // statement restores a defined order.
            if stmt.contains(".sort") || stmt.contains("BTree") {
                continue;
            }
            let iterates = HASH_ITER_METHODS
                .iter()
                .any(|m| stmt_calls_method(stmt, name, m))
                || for_loop_over(stmt, name);
            if iterates
                && !flagged
                    .iter()
                    .any(|(s, n)| *s == line.statement && n == name)
            {
                flagged.push((line.statement, name.clone()));
                findings.push(finding(
                    "D1",
                    path,
                    line,
                    format!(
                        "order-dependent iteration over hash collection `{name}`: hash \
                         iteration order is unspecified, so any state or trace derived \
                         from it breaks byte-deterministic exports and seed-reproducible \
                         replays; use BTreeMap/BTreeSet, sort on the same statement, or \
                         allowlist with a proof of order-insensitivity"
                    ),
                ));
            }
        }
    }
}

/// `name.method(` with optional whitespace around the dot, anywhere in
/// the statement (handles multi-line builder chains).
fn stmt_calls_method(stmt: &str, name: &str, method: &str) -> bool {
    let mut from = 0;
    while let Some(p) = stmt[from..].find(name) {
        let at = from + p;
        from = at + name.len();
        let before_ok = at == 0
            || !stmt[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if !before_ok {
            continue;
        }
        let rest = stmt[at + name.len()..].trim_start();
        let Some(rest) = rest.strip_prefix('.') else {
            continue;
        };
        let rest = rest.trim_start();
        if rest.starts_with(method)
            && rest[method.len()..].trim_start().starts_with('(')
            && !rest[method.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
        {
            return true;
        }
    }
    false
}

/// `for … in <expr mentioning name>` where the loop header iterates the
/// hash collection directly (`&name`, `name`, `name.iter()` — the
/// method forms are caught by `stmt_calls_method` too).
fn for_loop_over(stmt: &str, name: &str) -> bool {
    let Some(fp) = stmt.find("for ") else {
        return false;
    };
    let header = &stmt[fp..];
    let Some(inp) = header.find(" in ") else {
        return false;
    };
    word_match(&header[inp + 4..], name)
}

// ---------------------------------------------------------------------
// D2 — no wall clock / ambient randomness in sim/core, no randomly
// seeded hasher in flash/core/sim/baselines
// ---------------------------------------------------------------------

fn rule_d2_ambient(path: &str, scanned: &ScannedFile, findings: &mut Vec<Finding>) {
    for line in &scanned.lines {
        if line.in_test {
            continue;
        }
        for tok in AMBIENT_TOKENS {
            if line.code.contains(tok) {
                findings.push(finding(
                    "D2",
                    path,
                    line,
                    format!(
                        "`{tok}` in a sim/core path: virtual time comes from SimClock and \
                         randomness from seeded generators; ambient sources make runs \
                         irreproducible"
                    ),
                ));
                break;
            }
        }
    }
}

/// D2's second half, over the four FTL crates: no randomly seeded
/// hasher in non-test code.
fn rule_d2_random_state(path: &str, scanned: &ScannedFile, findings: &mut Vec<Finding>) {
    for line in &scanned.lines {
        if line.in_test {
            continue;
        }
        if let Some(tok) = RANDOM_STATE_TOKENS
            .iter()
            .find(|tok| word_match(&line.code, tok))
        {
            findings.push(finding(
                "D2",
                path,
                line,
                format!(
                    "`{tok}` in an FTL crate: the default hasher is seeded from OS entropy \
                     and pays SipHash per probe; key by `leaftl_flash::IntMap`/`IntSet` \
                     (`::default()`), a `BTreeMap`, or a dense index instead"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// M1 — no `_ =>` wildcards in matches on the guarded command enums
// ---------------------------------------------------------------------

fn rule_m1_wildcard(path: &str, scanned: &ScannedFile, findings: &mut Vec<Finding>) {
    for arm in &scanned.wildcard_arms {
        if arm.in_test {
            continue;
        }
        let Some(line) = scanned.lines.get(arm.line - 1) else {
            continue;
        };
        findings.push(finding(
            "M1",
            path,
            line,
            format!(
                "`_ =>` wildcard in a match over `{}…`: adding a Command/IoKind/Source/\
                 CheckpointMode variant must force every arbiter, trace, stats and QoS \
                 path to handle it explicitly — spell the remaining variants out",
                arm.enum_seen
            ),
        ));
    }
}

// ---------------------------------------------------------------------
// P1 — no unwrap/expect in sim/core hot paths
// ---------------------------------------------------------------------

fn rule_p1_unwrap(path: &str, scanned: &ScannedFile, findings: &mut Vec<Finding>) {
    for line in &scanned.lines {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        // `.expect(` must open a string-literal message: `Option::expect`
        // and `Result::expect` always take one, which distinguishes them
        // from same-named domain methods (e.g. the trace validator's
        // byte-level `self.expect(b'{')`).
        if code.contains(".unwrap()") || code.contains(".expect(\"") {
            findings.push(finding(
                "P1",
                path,
                line,
                "unwrap/expect in a sim/core hot path: a panic here takes down the whole \
                 device timeline; return SimError, restructure, or allowlist with a \
                 one-line infallibility proof"
                    .to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// T2 — nanosecond subtraction must be saturating/checked
// ---------------------------------------------------------------------

fn rule_t2_ns_arith(path: &str, scanned: &ScannedFile, findings: &mut Vec<Finding>) {
    for line in &scanned.lines {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        if !mentions_ns_ident(code) {
            continue;
        }
        if code.contains("saturating_") || code.contains("checked_") {
            continue;
        }
        if has_binary_minus(code) {
            findings.push(finding(
                "T2",
                path,
                line,
                "raw `-` on nanosecond quantities: u64 time subtraction underflows to \
                 ~584 years and silently corrupts histograms and stall accounting; use \
                 saturating_sub/checked_sub (additions are exempt — u64 ns overflow \
                 needs a 584-year run)"
                    .to_string(),
            ));
        }
    }
}

/// An identifier on the line ends in `_ns` (field, local or method).
fn mentions_ns_ident(code: &str) -> bool {
    let mut from = 0;
    while let Some(p) = code[from..].find("_ns") {
        let at = from + p;
        from = at + 3;
        let after = code[at + 3..].chars().next();
        if !after.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            return true;
        }
    }
    false
}

/// A `-` that is a binary operator (not `->`, not a unary negation).
fn has_binary_minus(code: &str) -> bool {
    let chars: Vec<char> = code.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c != '-' {
            continue;
        }
        if chars.get(i + 1) == Some(&'>') {
            continue;
        }
        let prev = chars[..i].iter().rev().find(|c| !c.is_whitespace());
        let binary = prev.is_some_and(|&p| p.is_alphanumeric() || p == '_' || p == ')' || p == ']');
        if binary {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------
// A1 — crate-level attribute audit
// ---------------------------------------------------------------------

/// Checks a crate root (`lib.rs`/`main.rs`) for the workspace-wide
/// attribute contract: `#![forbid(unsafe_code)]` everywhere, and
/// `#![deny(missing_docs)]` on library crates (a crate may opt down to
/// `warn` only via an allowlist entry stating why).
pub fn check_crate_root(path: &str, source: &str, is_lib: bool) -> Vec<Finding> {
    let scanned = scan(source);
    let joined: String = scanned
        .lines
        .iter()
        .map(|l| l.code.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    let mut findings = Vec::new();
    let first = scanned.lines.first().cloned().unwrap_or(ScannedLine {
        number: 1,
        code: String::new(),
        raw: String::new(),
        in_test: false,
        statement: 0,
    });
    if !joined.contains("#![forbid(unsafe_code)]") {
        findings.push(finding(
            "A1",
            path,
            &first,
            "crate root is missing `#![forbid(unsafe_code)]`: the workspace ships \
             zero unsafe and the guarantee must not drift crate by crate"
                .to_string(),
        ));
    }
    if is_lib && !joined.contains("#![deny(missing_docs)]") {
        findings.push(finding(
            "A1",
            path,
            &first,
            "library crate root is missing `#![deny(missing_docs)]`: public API docs \
             are part of the paper→code map; opt down to `warn` only via an allowlist \
             entry explaining why"
                .to_string(),
        ));
    }
    findings
}
