//! Import of real block traces in the MSR-Cambridge SNIA format.
//!
//! The paper evaluates on the MSR-Cambridge and FIU traces, which are
//! licensed and not redistributable with this repository. When you have
//! them, this module replays the real thing instead of the synthetic
//! profiles: each CSV line
//!
//! ```text
//! Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//! 128166372003061629,hm,0,Read,383496192,32768,113736
//! ```
//!
//! becomes page-granular [`HostOp`]s (offset and size are bytes; the
//! device page size converts them to LPA + page count).

use leaftl_flash::Lpa;
use leaftl_sim::HostOp;
use std::error::Error;
use std::fmt;

/// Errors raised while parsing a trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl Error for ParseTraceError {}

/// Parses MSR-format trace text into host operations.
///
/// * `page_size` — the simulated device's page size in bytes.
/// * Offsets are truncated to page boundaries; sizes round up to whole
///   pages (a partial-page write still programs the page).
/// * A header line (starting with `Timestamp`) and blank lines are
///   skipped; `Type` is matched case-insensitively.
///
/// # Errors
///
/// Returns the first malformed line with its number and reason.
pub fn parse_msr_trace(text: &str, page_size: u32) -> Result<Vec<HostOp>, ParseTraceError> {
    let mut ops = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with("Timestamp") || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() < 6 {
            return Err(ParseTraceError {
                line: line_no,
                reason: format!("expected ≥6 comma-separated fields, got {}", fields.len()),
            });
        }
        let op_type = fields[3].trim();
        let offset: u64 = fields[4].trim().parse().map_err(|e| ParseTraceError {
            line: line_no,
            reason: format!("bad offset `{}`: {e}", fields[4]),
        })?;
        let size: u64 = fields[5].trim().parse().map_err(|e| ParseTraceError {
            line: line_no,
            reason: format!("bad size `{}`: {e}", fields[5]),
        })?;
        if size == 0 {
            continue;
        }
        let page = page_size as u64;
        let lpa = Lpa::new(offset / page);
        let end = offset + size;
        let pages = (end.div_ceil(page) - offset / page).max(1) as u32;
        let op = if op_type.eq_ignore_ascii_case("read") {
            HostOp::Read { lpa, pages }
        } else if op_type.eq_ignore_ascii_case("write") {
            HostOp::Write { lpa, pages }
        } else {
            return Err(ParseTraceError {
                line: line_no,
                reason: format!("unknown op type `{op_type}`"),
            });
        };
        ops.push(op);
    }
    Ok(ops)
}

/// Serialises host operations back into MSR format (for exporting the
/// synthetic profiles to other simulators).
pub fn to_msr_trace(ops: &[HostOp], page_size: u32, hostname: &str) -> String {
    let mut out = String::from("Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n");
    for (idx, op) in ops.iter().enumerate() {
        let (kind, lpa, pages) = match *op {
            HostOp::Read { lpa, pages } => ("Read", lpa, pages),
            HostOp::Write { lpa, pages } => ("Write", lpa, pages),
        };
        out.push_str(&format!(
            "{},{},0,{},{},{},0\n",
            idx,
            hostname,
            kind,
            lpa.raw() * page_size as u64,
            pages as u64 * page_size as u64,
        ));
    }
    out
}

#[cfg(test)]
#[expect(
    clippy::unwrap_used,
    reason = "a test: a step that fails should fail it with its message"
)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
128166372003061629,hm,0,Read,383496192,32768,113736
128166372016382155,hm,0,Write,2941632512,4096,23398

128166372026382245,hm,0,write,2941636608,8192,23398
";

    #[test]
    fn parses_reads_and_writes() {
        let ops = parse_msr_trace(SAMPLE, 4096).unwrap();
        assert_eq!(ops.len(), 3);
        assert_eq!(
            ops[0],
            HostOp::Read {
                lpa: Lpa::new(383496192 / 4096),
                pages: 8
            }
        );
        assert_eq!(
            ops[1],
            HostOp::Write {
                lpa: Lpa::new(2941632512 / 4096),
                pages: 1
            }
        );
        // Lower-case type accepted.
        assert!(!ops[2].is_read());
        assert_eq!(ops[2].page_count(), 2);
    }

    #[test]
    fn unaligned_requests_round_to_pages() {
        // 100 bytes at offset 4000 straddles two 4 KB pages.
        let text = "1,h,0,Write,4000,200,0\n";
        let ops = parse_msr_trace(text, 4096).unwrap();
        assert_eq!(
            ops[0],
            HostOp::Write {
                lpa: Lpa::new(0),
                pages: 2
            }
        );
    }

    #[test]
    fn zero_size_requests_are_skipped() {
        let ops = parse_msr_trace("1,h,0,Read,4096,0,0\n", 4096).unwrap();
        assert!(ops.is_empty());
    }

    #[test]
    fn bad_lines_report_position() {
        let err = parse_msr_trace("1,h,0,Read,notanumber,1,0\n", 4096).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.reason.contains("bad offset"));
        let err = parse_msr_trace("1,h,0\n", 4096).unwrap_err();
        assert!(err.reason.contains("fields"));
        let err = parse_msr_trace("1,h,0,Trim,0,1,0\n", 4096).unwrap_err();
        assert!(err.reason.contains("unknown op type"));
    }

    #[test]
    fn roundtrip_through_export() {
        let ops = vec![
            HostOp::Read {
                lpa: Lpa::new(10),
                pages: 4,
            },
            HostOp::Write {
                lpa: Lpa::new(99),
                pages: 1,
            },
        ];
        let text = to_msr_trace(&ops, 4096, "synth");
        let parsed = parse_msr_trace(&text, 4096).unwrap();
        assert_eq!(parsed, ops);
    }

    #[test]
    fn comments_and_header_skipped() {
        let text = "# comment\nTimestamp,...\n1,h,0,Read,0,4096,0\n";
        assert_eq!(parse_msr_trace(text, 4096).unwrap().len(), 1);
    }
}
