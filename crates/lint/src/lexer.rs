//! A hand-rolled structural scanner for Rust sources.
//!
//! The offline build container has no `syn`, so — like the trace
//! validator's hand-rolled JSON parser (PR 9) — this module implements
//! the minimal subset of Rust lexing the lint rules need, as a single
//! character-level pass:
//!
//! * comments (line, nested block) and string/char literals are blanked
//!   out, so rules never match inside documentation or message text;
//! * brace nesting is tracked, with each block classified by the
//!   statement that opened it (`#[cfg(test)] mod …`, `match …`);
//! * `match` bodies additionally track their direct-level arms, so a
//!   rule can ask "does this match mix a `Pattern::Variant` arm with a
//!   `_` wildcard arm?" without a full parser.
//!
//! The output is a [`ScannedFile`]: one [`ScannedLine`] per source line
//! carrying the cleaned text, the enclosing-block classification flags,
//! and the id of the statement the line belongs to (statements span
//! lines; rules that need "same statement" semantics — e.g. D1's
//! "a `sort` on the same statement legalises the iteration" — join on
//! that id).
//!
//! Known, documented approximations (each is a conservative trade the
//! allowlist can absorb):
//!
//! * A lifetime tick (`'a`) is distinguished from a char literal by
//!   lookahead: `'` starts a literal only when the closing quote is one
//!   escaped-or-plain character away.
//! * `#[cfg(test)]` / `#[test]` mark the *next brace-opening item* as
//!   test code; the marker is dropped again when the attribute's
//!   statement ends braceless (e.g. `#[cfg(test)] use …;`).
//! * Match arms are tracked at the match body's direct brace level;
//!   struct-pattern braces and block bodies leave `{`/`}` markers in
//!   the arm buffer, which the wildcard test strips before comparing
//!   against `_`.

/// One source line after comment/string blanking, with its structural
/// classification.
#[derive(Debug, Clone)]
pub struct ScannedLine {
    /// 1-based line number.
    pub number: usize,
    /// The line with comments removed and literal contents blanked
    /// (quotes kept, so `.expect("…")` still shows the call shape).
    pub code: String,
    /// The original line, for reports and allowlist pattern matching.
    pub raw: String,
    /// Inside a `#[cfg(test)]`/`#[test]` item body.
    pub in_test: bool,
    /// Id of the statement this line starts in (statements are
    /// delimited by `;`, `{` and `}` at any depth).
    pub statement: usize,
}

/// A `_ =>` wildcard arm found in a `match` whose arms also name one of
/// the guarded enums.
#[derive(Debug, Clone)]
pub struct WildcardArm {
    /// Line of the `_ =>` token.
    pub line: usize,
    /// The guarded enum path (e.g. `Command::`) seen in a sibling arm.
    pub enum_seen: String,
    /// Whether the wildcard arm itself sits in test code.
    pub in_test: bool,
}

/// The scan result for one file.
#[derive(Debug)]
pub struct ScannedFile {
    /// Per-line structural records.
    pub lines: Vec<ScannedLine>,
    /// Joined cleaned text per statement id (for same-statement rules).
    pub statements: Vec<String>,
    /// Wildcard arms in matches that also name a guarded enum.
    pub wildcard_arms: Vec<WildcardArm>,
}

impl ScannedFile {
    /// The cleaned text of the statement `line` belongs to.
    pub fn statement_of(&self, line: &ScannedLine) -> &str {
        &self.statements[line.statement]
    }
}

/// Enum path prefixes whose matches must stay wildcard-free (rule M1):
/// a `_ =>` arm on these silently swallows the next variant instead of
/// forcing every arbiter/trace/stats/QoS path to handle it.
pub const GUARDED_ENUMS: [&str; 4] = ["Command::", "IoKind::", "Source::", "CheckpointMode::"];

#[derive(Debug)]
struct Frame {
    in_test: bool,
    /// `Some` when this block is a `match` body; holds the arm-tracking
    /// state for its direct level.
    match_ctx: Option<MatchCtx>,
}

#[derive(Debug, Default)]
struct MatchCtx {
    /// Guarded enum path seen in any direct-level arm pattern so far.
    enum_seen: Option<&'static str>,
    /// Accumulated pattern text since the last arm boundary (may carry
    /// `{`/`}` markers left by struct patterns or block arm bodies).
    pattern: String,
    /// False while inside a braceless arm body (after `=>`, before the
    /// separating `,`).
    in_pattern: bool,
    /// Paren/bracket depth inside a braceless arm body, so commas in
    /// `foo(a, b)` don't end the arm early.
    body_parens: i32,
    /// Direct-level `_ =>` arms recorded as (line, in_test).
    wildcards: Vec<(usize, bool)>,
}

impl MatchCtx {
    fn new() -> Self {
        MatchCtx {
            in_pattern: true,
            ..MatchCtx::default()
        }
    }

    /// Feeds one direct-level character of the match body.
    fn feed(&mut self, ch: char, line: usize, in_test: bool) {
        if self.in_pattern {
            self.pattern.push(ch);
            for e in GUARDED_ENUMS {
                if self.enum_seen.is_none() && self.pattern.contains(e) {
                    self.enum_seen = Some(e);
                }
            }
            if self.pattern.ends_with("=>") {
                // The current arm's pattern is the buffer segment after
                // the last `{`/`}` marker a nested brace pair left.
                let pat = self.pattern[..self.pattern.len() - 2]
                    .rsplit(['{', '}'])
                    .next()
                    .unwrap_or("")
                    .trim()
                    .to_string();
                if pat == "_" || (pat.starts_with('_') && pat[1..].trim_start().starts_with("if "))
                {
                    self.wildcards.push((line, in_test));
                }
                self.in_pattern = false;
                self.body_parens = 0;
                self.pattern.clear();
            }
        } else {
            match ch {
                '(' | '[' => self.body_parens += 1,
                ')' | ']' => self.body_parens -= 1,
                ',' if self.body_parens <= 0 => {
                    self.in_pattern = true;
                    self.pattern.clear();
                }
                _ => {}
            }
        }
    }
}

/// Scans `source`, producing the structural model the rules consume.
pub fn scan(source: &str) -> ScannedFile {
    let cleaned = blank_comments_and_literals(source);
    structure_pass(source, &cleaned)
}

/// Pass 1: blank comments and literal contents, preserving line
/// structure.
fn blank_comments_and_literals(source: &str) -> String {
    let bytes: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut i = 0;
    let n = bytes.len();
    while i < n {
        let c = bytes[i];
        // Line comment (also covers `///` and `//!` doc lines).
        if c == '/' && i + 1 < n && bytes[i + 1] == '/' {
            while i < n && bytes[i] != '\n' {
                i += 1;
            }
            continue;
        }
        // Nested block comment.
        if c == '/' && i + 1 < n && bytes[i + 1] == '*' {
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if bytes[i] == '/' && i + 1 < n && bytes[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if bytes[i] == '*' && i + 1 < n && bytes[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    if bytes[i] == '\n' {
                        out.push('\n');
                    }
                    i += 1;
                }
            }
            continue;
        }
        // Raw string literal r"…" / r#"…"# / br#"…"#.
        if (c == 'r' || c == 'b') && !prev_is_ident(&out) {
            let start = i + usize::from(c == 'b' && i + 1 < n && bytes[i + 1] == 'r');
            if bytes[start] == 'r' {
                let mut j = start + 1;
                let mut hashes = 0;
                while j < n && bytes[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j < n && bytes[j] == '"' {
                    out.push('"');
                    i = j + 1;
                    'raw: while i < n {
                        if bytes[i] == '"' {
                            let mut k = 0;
                            while k < hashes && i + 1 + k < n && bytes[i + 1 + k] == '#' {
                                k += 1;
                            }
                            if k == hashes {
                                i += 1 + hashes;
                                out.push('"');
                                break 'raw;
                            }
                        }
                        if bytes[i] == '\n' {
                            out.push('\n');
                        }
                        i += 1;
                    }
                    continue;
                }
            }
        }
        // Ordinary string literal.
        if c == '"' {
            out.push('"');
            i += 1;
            while i < n {
                if bytes[i] == '\\' {
                    // An escaped newline (string line-continuation) must
                    // still count as a line, or every number after it
                    // shifts.
                    if bytes.get(i + 1) == Some(&'\n') {
                        out.push('\n');
                    }
                    i += 2;
                    continue;
                }
                if bytes[i] == '"' {
                    out.push('"');
                    i += 1;
                    break;
                }
                if bytes[i] == '\n' {
                    out.push('\n');
                }
                i += 1;
            }
            continue;
        }
        // Char literal vs lifetime tick: a literal closes within one
        // (possibly escaped) character.
        if c == '\'' {
            let close = if i + 2 < n && bytes[i + 1] == '\\' {
                let mut j = i + 2;
                while j < n && bytes[j] != '\'' && bytes[j] != '\n' {
                    j += 1;
                }
                (j < n && bytes[j] == '\'').then_some(j)
            } else if i + 2 < n && bytes[i + 2] == '\'' {
                Some(i + 2)
            } else {
                None
            };
            if let Some(j) = close {
                out.push('\'');
                out.push('\'');
                i = j + 1;
                continue;
            }
            out.push('\'');
            i += 1;
            continue;
        }
        out.push(c);
        i += 1;
    }
    out
}

fn prev_is_ident(out: &str) -> bool {
    out.chars()
        .next_back()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Pass 2: brace/statement/match structure over the cleaned text.
fn structure_pass(raw_source: &str, cleaned: &str) -> ScannedFile {
    let raw_lines: Vec<&str> = raw_source.lines().collect();
    let mut lines: Vec<ScannedLine> = Vec::with_capacity(raw_lines.len());
    let mut statements: Vec<String> = vec![String::new()];
    let mut wildcard_arms = Vec::new();

    let mut stack: Vec<Frame> = Vec::new();
    let mut stmt_id = 0usize;
    // Text of the statement currently being accumulated (cleaned).
    let mut stmt_text = String::new();
    // A `#[cfg(test)]`/`#[test]` attribute in the pending statement.
    let mut pending_test_attr = false;

    for (idx, line) in cleaned.lines().enumerate() {
        let line_no = idx + 1;
        let in_test_now = pending_test_attr || stack.iter().any(|f| f.in_test);
        lines.push(ScannedLine {
            number: line_no,
            code: line.to_string(),
            raw: raw_lines.get(idx).copied().unwrap_or("").to_string(),
            in_test: in_test_now,
            statement: stmt_id,
        });
        let line_in_test = in_test_now;

        for ch in line.chars() {
            match ch {
                '{' => {
                    stmt_text.push(ch);
                    let is_test_block = pending_test_attr
                        || stmt_text.contains("#[cfg(test)]")
                        || stmt_text.contains("#[test]")
                        || stack.iter().any(|f| f.in_test);
                    stack.push(Frame {
                        in_test: is_test_block,
                        match_ctx: statement_tail_is_match(&stmt_text).then(MatchCtx::new),
                    });
                    pending_test_attr = false;
                    end_statement(&mut statements, &mut stmt_text, &mut stmt_id);
                }
                '}' => {
                    end_statement(&mut statements, &mut stmt_text, &mut stmt_id);
                    if let Some(frame) = stack.pop() {
                        if let Some(ctx) = frame.match_ctx {
                            if let Some(seen) = ctx.enum_seen {
                                for (at, arm_in_test) in ctx.wildcards {
                                    wildcard_arms.push(WildcardArm {
                                        line: at,
                                        enum_seen: seen.to_string(),
                                        in_test: arm_in_test,
                                    });
                                }
                            }
                        }
                        // Back at a match body's direct level: what
                        // follows the closed arm body is a new pattern.
                        if let Some(parent) = stack.last_mut() {
                            if let Some(ctx) = parent.match_ctx.as_mut() {
                                ctx.in_pattern = true;
                            }
                        }
                    }
                }
                ';' => {
                    stmt_text.push(ch);
                    pending_test_attr = false;
                    end_statement(&mut statements, &mut stmt_text, &mut stmt_id);
                }
                _ => {
                    stmt_text.push(ch);
                    if !pending_test_attr
                        && (stmt_text.contains("#[cfg(test)]") || stmt_text.contains("#[test]"))
                    {
                        pending_test_attr = true;
                    }
                }
            }
            if let Some(frame) = stack.last_mut() {
                if let Some(ctx) = frame.match_ctx.as_mut() {
                    ctx.feed(ch, line_no, line_in_test);
                }
            }
        }
        stmt_text.push('\n');
    }

    // Flush a trailing unterminated statement (normally empty).
    statements[stmt_id].push_str(&stmt_text);

    ScannedFile {
        lines,
        statements,
        wildcard_arms,
    }
}

fn end_statement(statements: &mut Vec<String>, stmt_text: &mut String, stmt_id: &mut usize) {
    statements[*stmt_id].push_str(stmt_text);
    stmt_text.clear();
    statements.push(String::new());
    *stmt_id += 1;
}

/// Whether the statement text opening a `{` ends in a `match`
/// scrutinee: the *last* block-introducing keyword in the statement is
/// `match`. (A `match` appearing earlier — e.g. `if … { match … {` cut
/// at the first brace — belongs to an outer statement; an `if`/`for`
/// after the `match` keyword means the brace opens that construct.)
fn statement_tail_is_match(stmt: &str) -> bool {
    let mut last_kw: Option<&str> = None;
    let mut last_pos = 0;
    for kw in ["match", "if", "while", "for", "loop", "fn", "impl", "mod"] {
        let mut from = 0;
        while let Some(p) = stmt[from..].find(kw) {
            let at = from + p;
            let before_ok = at == 0
                || !stmt[..at]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
            let after = stmt[at + kw.len()..].chars().next();
            let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
            if before_ok && after_ok && at >= last_pos {
                last_pos = at;
                last_kw = Some(kw);
            }
            from = at + kw.len();
        }
    }
    last_kw == Some("match")
}

/// Whether `needle` occurs in `hay` delimited by non-identifier
/// characters on both sides (shared helper for the rules).
pub fn word_match(hay: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(p) = hay[from..].find(needle) {
        let at = from + p;
        let before_ok = at == 0
            || !hay[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = hay[at + needle.len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        from = at + needle.len();
    }
    false
}
