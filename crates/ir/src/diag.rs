//! Typed diagnostics shared by every static-analysis layer.
//!
//! The paper's central claim is that accelerator bugs come from the *SoC
//! interface* — coherence management, DMA setup, shared-bus contention —
//! not the datapath in isolation. Catching a malformed trace or a
//! contradictory configuration mid-simulation (as a `panic!`) wastes a
//! full co-simulation per defect; large design-space sweeps need those
//! defects rejected in microseconds, before any simulation starts.
//!
//! This module is the common vocabulary for that pre-flight checking: a
//! [`Diagnostic`] is one finding with a stable code (`L0101`…), a
//! [`Severity`], a [`Locus`] naming the offending node/array/config
//! field/protocol state, and a human-readable message. A [`Report`]
//! aggregates findings and renders them for humans or as JSON (for the
//! `soclint` CLI and sweep tooling). Code families are allocated by layer:
//!
//! * `L01xx` — trace / DDDG structure (this crate and `aladdin-lint`),
//! * `L02xx` — datapath / SoC configuration (`aladdin-accel`, `aladdin-lint`),
//! * `L03xx` — coherence-protocol reachability (`aladdin-lint`).

use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: worth knowing, never blocks a run.
    Info,
    /// Suspicious but simulable; sweeps proceed and report it.
    Warning,
    /// The artifact is invalid; simulating it would panic or produce
    /// meaningless numbers.
    Error,
}

impl Severity {
    /// Lower-case label used in human and JSON output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What a diagnostic points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Locus {
    /// No specific location (whole-artifact findings).
    None,
    /// A trace node, by dense index.
    Node(usize),
    /// A traced array, by dense index.
    Array(usize),
    /// A configuration field, dotted path (e.g. `soc.cache.line_bytes`).
    Field(&'static str),
    /// A coherence-protocol state, rendered (e.g. `"M/M"`).
    State(String),
    /// A design point in a sweep, by index in the swept space.
    Point(usize),
}

impl fmt::Display for Locus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Locus::None => f.write_str("-"),
            Locus::Node(i) => write!(f, "n{i}"),
            Locus::Array(i) => write!(f, "array#{i}"),
            Locus::Field(p) => f.write_str(p),
            Locus::State(s) => write!(f, "state {s}"),
            Locus::Point(i) => write!(f, "point#{i}"),
        }
    }
}

/// One finding: stable code, severity, locus, message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code (`L0101`…). Codes are never reused;
    /// the table lives in `crates/lint/README.md`.
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// What the finding points at.
    pub locus: Locus,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    #[must_use]
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            locus: Locus::None,
            message: message.into(),
        }
    }

    /// A warning-severity diagnostic.
    #[must_use]
    pub fn warning(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            locus: Locus::None,
            message: message.into(),
        }
    }

    /// An info-severity diagnostic.
    #[must_use]
    pub fn info(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Info,
            locus: Locus::None,
            message: message.into(),
        }
    }

    /// This diagnostic, anchored to a locus.
    #[must_use]
    pub fn at(mut self, locus: Locus) -> Self {
        self.locus = locus;
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity, self.code, self.locus, self.message
        )
    }
}

/// An ordered collection of diagnostics from one analysis pass (or the
/// merge of several).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    diags: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        Report::default()
    }

    /// Add one finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Append every finding of `other`.
    pub fn merge(&mut self, other: Report) {
        self.diags.extend(other.diags);
    }

    /// All findings, in emission order.
    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Whether no findings were emitted at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// Whether any error-severity finding was emitted.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Error)
    }

    /// Number of findings at `severity`.
    #[must_use]
    pub fn count(&self, severity: Severity) -> usize {
        self.diags.iter().filter(|d| d.severity == severity).count()
    }

    /// Number of findings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.diags.len()
    }

    /// Whether the report holds no findings.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    /// Whether any finding carries `code`.
    #[must_use]
    pub fn has_code(&self, code: &str) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }

    /// The first error's message, for legacy `Result<(), String>` shims.
    #[must_use]
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.diags.iter().find(|d| d.severity == Severity::Error)
    }

    /// Collapse repeated identical findings (same code, severity, locus
    /// and message) into one occurrence with a `(×N)` count appended,
    /// preserving first-occurrence order. Multi-file `soclint` runs and
    /// campaigns expanding many points over one bad configuration emit
    /// the same diagnostic many times; deduplication keeps the output
    /// readable without hiding anything (the count is exact).
    #[must_use]
    pub fn deduped(&self) -> Report {
        let mut out: Vec<Diagnostic> = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        for d in &self.diags {
            match out.iter().position(|o| o == d) {
                Some(i) => counts[i] += 1,
                None => {
                    out.push(d.clone());
                    counts.push(1);
                }
            }
        }
        for (d, n) in out.iter_mut().zip(&counts) {
            if *n > 1 {
                d.message.push_str(&format!(" (×{n})"));
            }
        }
        Report { diags: out }
    }

    /// Render one finding per line for terminals.
    #[must_use]
    pub fn to_human(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        for d in &self.diags {
            let _ = writeln!(out, "{d}");
        }
        let _ = write!(
            out,
            "{} error(s), {} warning(s), {} info",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info)
        );
        out
    }

    /// Render as a stable JSON document (no external dependencies; the
    /// format is pinned by golden tests in `aladdin-lint`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"diagnostics\":[");
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"code\":");
            json_string(&mut out, d.code);
            out.push_str(",\"severity\":");
            json_string(&mut out, d.severity.label());
            out.push_str(",\"locus\":");
            match &d.locus {
                Locus::None => out.push_str("null"),
                Locus::Node(i) => {
                    out.push_str(&format!("{{\"kind\":\"node\",\"index\":{i}}}"));
                }
                Locus::Array(i) => {
                    out.push_str(&format!("{{\"kind\":\"array\",\"index\":{i}}}"));
                }
                Locus::Field(p) => {
                    out.push_str("{\"kind\":\"field\",\"path\":");
                    json_string(&mut out, p);
                    out.push('}');
                }
                Locus::State(s) => {
                    out.push_str("{\"kind\":\"state\",\"state\":");
                    json_string(&mut out, s);
                    out.push('}');
                }
                Locus::Point(i) => {
                    out.push_str(&format!("{{\"kind\":\"point\",\"index\":{i}}}"));
                }
            }
            out.push_str(",\"message\":");
            json_string(&mut out, &d.message);
            out.push('}');
        }
        out.push_str(&format!(
            "],\"errors\":{},\"warnings\":{},\"infos\":{}}}",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info)
        ));
        out
    }
}

impl FromIterator<Diagnostic> for Report {
    fn from_iter<I: IntoIterator<Item = Diagnostic>>(iter: I) -> Self {
        Report {
            diags: iter.into_iter().collect(),
        }
    }
}

impl Extend<Diagnostic> for Report {
    fn extend<I: IntoIterator<Item = Diagnostic>>(&mut self, iter: I) {
        self.diags.extend(iter);
    }
}

impl IntoIterator for Report {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.diags.into_iter()
    }
}

/// Append `s` as a JSON string literal (with escaping) to `out`.
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn report_counts_and_queries() {
        let mut r = Report::new();
        assert!(r.is_clean());
        r.push(Diagnostic::warning("L0199", "odd").at(Locus::Node(3)));
        assert!(!r.is_clean());
        assert!(!r.has_errors());
        r.push(Diagnostic::error("L0101", "bad").at(Locus::Field("soc.bus.width_bits")));
        assert!(r.has_errors());
        assert!(r.has_code("L0101"));
        assert!(!r.has_code("L0300"));
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.count(Severity::Warning), 1);
        assert_eq!(r.first_error().unwrap().code, "L0101");
    }

    #[test]
    fn merge_concatenates() {
        let mut a = Report::new();
        a.push(Diagnostic::info("L0001", "a"));
        let mut b = Report::new();
        b.push(Diagnostic::info("L0002", "b"));
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.diagnostics()[1].code, "L0002");
    }

    #[test]
    fn human_rendering_mentions_everything() {
        let mut r = Report::new();
        r.push(Diagnostic::error("L0105", "access out of bounds").at(Locus::Node(7)));
        let h = r.to_human();
        assert!(h.contains("error"));
        assert!(h.contains("L0105"));
        assert!(h.contains("n7"));
        assert!(h.contains("1 error(s)"));
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let mut r = Report::new();
        r.push(Diagnostic::error("L0101", "a \"quoted\"\nthing").at(Locus::Node(1)));
        let j = r.to_json();
        assert_eq!(
            j,
            "{\"diagnostics\":[{\"code\":\"L0101\",\"severity\":\"error\",\
             \"locus\":{\"kind\":\"node\",\"index\":1},\
             \"message\":\"a \\\"quoted\\\"\\nthing\"}],\
             \"errors\":1,\"warnings\":0,\"infos\":0}"
        );
    }

    #[test]
    fn deduped_collapses_identical_findings() {
        let mut r = Report::new();
        r.push(Diagnostic::error("L0210", "zero field").at(Locus::Field("soc.bus.width_bits")));
        r.push(Diagnostic::warning("L0220", "slow").at(Locus::None));
        r.push(Diagnostic::error("L0210", "zero field").at(Locus::Field("soc.bus.width_bits")));
        r.push(Diagnostic::error("L0210", "zero field").at(Locus::Field("soc.bus.width_bits")));
        let d = r.deduped();
        assert_eq!(d.len(), 2);
        assert_eq!(d.diagnostics()[0].message, "zero field (×3)");
        assert_eq!(d.diagnostics()[1].message, "slow");
        assert_eq!(d.count(Severity::Error), 1);
        // Distinct loci are not merged.
        let mut r = Report::new();
        r.push(Diagnostic::info("L0271", "x").at(Locus::Point(0)));
        r.push(Diagnostic::info("L0271", "x").at(Locus::Point(1)));
        assert_eq!(r.deduped().len(), 2);
    }

    #[test]
    fn empty_report_json() {
        assert_eq!(
            Report::new().to_json(),
            "{\"diagnostics\":[],\"errors\":0,\"warnings\":0,\"infos\":0}"
        );
    }
}
