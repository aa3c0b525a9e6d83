//! The campaign journal format, in one place: the [`Record`] type that
//! writes every line (headers, point outcomes, coordinator events, lease
//! files), the append that reports its I/O errors, the header check and
//! line classifier every scanner shares, and the `.quarantine` sidecar.
//!
//! A journal is append-only JSONL. Line 1 is a header recording the
//! campaign name, its spec digest, the point count and the format
//! version; every later line is one finished point (`"status"` ok, error
//! or pruned) or a coordinator event (`"event"`). Each record is written
//! with one `write` and flushed, so a kill truncates at most the final
//! line, which scanners ignore; a damaged line anywhere else is
//! quarantined (`L0292`). Older journals may also hold
//! `"status":"retried"` lines, which never count as finished.

use std::collections::HashSet;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

use aladdin_core::{MemKind, MultiSocResult, SimError, SocConfig};
use aladdin_dse::{PointOutcome, PointSpec};
use aladdin_ir::{Diagnostic, Report};

use crate::campaign::{mem_str, CampaignPlan};
use crate::coordinator::CODE_LEASE;

/// Journal format version, bumped on breaking record changes.
pub const JOURNAL_VERSION: u32 = 1;

/// An `L0266` journal-integrity report.
pub(crate) fn journal_err(msg: impl Into<String>) -> Report {
    let mut r = Report::new();
    r.push(Diagnostic::error("L0266", msg));
    r
}

/// How a point ended, as its record's `"status"` says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    /// Simulated (or served from the result cache).
    Ok,
    /// The simulation failed; the typed diagnostic is recorded.
    Error,
    /// Statically skipped (`L0276`).
    Pruned,
}

/// One JSON line of the campaign layer's on-disk state. `point` is always
/// the plan index.
pub(crate) enum Record<'a> {
    /// Line 1 of a journal (`worker: None`), of a worker's segment, and
    /// `meta.json`.
    Header {
        plan: &'a CampaignPlan,
        worker: Option<&'a str>,
    },
    /// The outcome of one single-kernel point.
    Single {
        point: usize,
        kernel: &'a str,
        spec: &'a PointSpec,
        outcome: &'a PointOutcome,
    },
    /// The outcome of one multi-accelerator (job-set) point.
    Multi {
        point: usize,
        stagger: u64,
        count: usize,
        soc: &'a SocConfig,
        result: &'a Result<MultiSocResult, SimError>,
    },
    /// Worker `by` reclaimed dead worker `from`'s stale lease (`L0290`).
    Reclaim {
        point: usize,
        from: &'a str,
        by: &'a str,
    },
    /// The content of a point's lease file.
    Lease { point: usize, owner: &'a str },
}

impl Record<'_> {
    /// The status of a point outcome; `None` for headers, events and
    /// leases.
    pub(crate) fn status(&self) -> Option<Status> {
        match self {
            Record::Single { outcome, .. } => Some(match outcome {
                PointOutcome::Done(_) => Status::Ok,
                PointOutcome::Failed(_) => Status::Error,
                PointOutcome::Pruned(_) => Status::Pruned,
            }),
            Record::Multi { result, .. } => Some(if result.is_ok() {
                Status::Ok
            } else {
                Status::Error
            }),
            Record::Header { .. } | Record::Reclaim { .. } | Record::Lease { .. } => None,
        }
    }

    /// Append this record as one line with a single write, then flush.
    ///
    /// # Errors
    ///
    /// `L0266` when the write or the flush fails (a full disk, a revoked
    /// file): the record is not journaled.
    pub(crate) fn append(&self, out: &mut dyn Write) -> Result<(), Report> {
        let mut line = self.to_string();
        line.push('\n');
        out.write_all(line.as_bytes())
            .and_then(|()| out.flush())
            .map_err(|e| journal_err(format!("cannot append to the journal: {e}")))
    }
}

impl fmt::Display for Record<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Record::Header { plan, worker } => {
                write!(
                    f,
                    "{{\"campaign\":{},\"digest\":\"{:016x}\",\"points\":{},\"version\":{JOURNAL_VERSION}",
                    json_string(&plan.spec.name),
                    plan.digest,
                    plan.points.len()
                )?;
                if let Some(w) = worker {
                    write!(f, ",\"worker\":{}", json_string(w))?;
                }
                f.write_str("}")
            }
            Record::Single {
                point,
                kernel,
                spec,
                outcome,
            } => {
                write!(
                    f,
                    "{{\"point\":{point},\"kernel\":{},\"mem\":{},\"lanes\":{},\"partition\":{}",
                    json_string(kernel),
                    json_string(&mem_str(spec.kind)),
                    spec.dp.lanes,
                    spec.dp.partition
                )?;
                if spec.kind == MemKind::Cache {
                    write!(
                        f,
                        ",\"cache_bytes\":{},\"cache_ports\":{}",
                        spec.soc.cache.size_bytes, spec.soc.cache.ports
                    )?;
                }
                match outcome {
                    PointOutcome::Done(r) => write!(
                        f,
                        ",\"cycles\":{},\"energy_j\":{:e},\"edp\":{:e},\"status\":\"ok\"}}",
                        r.total_cycles,
                        r.energy_j(),
                        r.edp()
                    ),
                    PointOutcome::Failed(e) => error_tail(f, e),
                    PointOutcome::Pruned(p) => write!(
                        f,
                        ",\"lo\":{},\"power_floor_mw\":{:e},\"by_cycles\":{},\"by_power_mw\":{:e},\"status\":\"pruned\"}}",
                        p.lo, p.power_floor_mw, p.by_cycles, p.by_power_mw
                    ),
                }
            }
            Record::Multi {
                point,
                stagger,
                count,
                soc,
                result,
            } => {
                write!(
                    f,
                    "{{\"point\":{point},\"stagger\":{stagger},\"count\":{count},\"topology\":{},\"bus_width\":{}",
                    json_string(&soc.topology.topology.spec_string()),
                    soc.bus.width_bits
                )?;
                match result {
                    Ok(r) => {
                        write!(f, ",\"end\":{},\"latencies\":[", r.end)?;
                        for (i, a) in r.accelerators.iter().enumerate() {
                            let sep = if i == 0 { "" } else { "," };
                            write!(f, "{sep}{}", a.latency())?;
                        }
                        f.write_str("],\"status\":\"ok\"}")
                    }
                    Err(e) => error_tail(f, e),
                }
            }
            Record::Reclaim { point, from, by } => write!(
                f,
                "{{\"event\":\"reclaim\",\"point\":{point},\"from\":{},\"by\":{},\"code\":\"{CODE_LEASE}\"}}",
                json_string(from),
                json_string(by)
            ),
            Record::Lease { point, owner } => write!(
                f,
                "{{\"point\":{point},\"owner\":{},\"pid\":{}}}",
                json_string(owner),
                std::process::id()
            ),
        }
    }
}

/// The `,"status":"error","error":…}` tail of a failed point's record.
fn error_tail(f: &mut fmt::Formatter<'_>, e: &SimError) -> fmt::Result {
    write!(
        f,
        ",\"status\":\"error\",\"error\":{}}}",
        json_string(&e.to_string())
    )
}

/// Check a journal's first line against the campaign digest.
///
/// # Errors
///
/// `L0266` when `header` is missing, has no digest, or records another
/// digest — the file belongs to a different campaign, or the campaign
/// file changed since it was written.
pub(crate) fn check_header(path: &Path, header: Option<&str>, digest: u64) -> Result<(), Report> {
    let recorded = header
        .and_then(|h| json_field_str(h, "digest"))
        .ok_or_else(|| journal_err(format!("{} has no header digest", path.display())))?;
    if recorded == format!("{digest:016x}") {
        Ok(())
    } else {
        Err(journal_err(format!(
            "{} records digest {recorded} but the campaign's is {digest:016x}; \
             it belongs to a different campaign, or the campaign file changed since",
            path.display()
        )))
    }
}

/// What one journal line is, after integrity classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LineClass {
    /// A complete terminal record: `"status"` ok, error, or pruned.
    Finished(usize),
    /// A `"status":"retried"` line from an older worker: not terminal,
    /// never counts as finished.
    Retried,
    /// A coordinator event record (lease reclaim): carries `"event"`, no
    /// `"status"`.
    Event,
    /// An incomplete final line — the writer was killed mid-write; its
    /// point silently re-runs.
    TruncatedTail,
    /// A corrupt record anywhere else, including one whose point is not
    /// in the plan: quarantine it (`L0292`) rather than silently
    /// miscounting finished points.
    Corrupt,
}

/// Classify one journal body line of a plan with `points` points.
/// `is_last` distinguishes the benign kill-mid-write tail from mid-file
/// corruption.
pub(crate) fn classify_line(line: &str, is_last: bool, points: usize) -> LineClass {
    let trimmed = line.trim_end();
    if !trimmed.ends_with('}') {
        return if is_last {
            LineClass::TruncatedTail
        } else {
            LineClass::Corrupt
        };
    }
    if json_field_str(trimmed, "event").is_some() {
        return LineClass::Event;
    }
    let Some(point) = json_field_u64(trimmed, "point")
        .and_then(|p| usize::try_from(p).ok())
        .filter(|&p| p < points)
    else {
        return LineClass::Corrupt;
    };
    match json_field_str(trimmed, "status") {
        Some("ok" | "error" | "pruned") => LineClass::Finished(point),
        Some("retried") => LineClass::Retried,
        _ => LineClass::Corrupt,
    }
}

/// Check `text`'s header against `plan`'s digest, then classify every
/// body line as `(1-based line number, class, line)`.
///
/// # Errors
///
/// As for [`check_header`].
pub(crate) fn body_lines<'t>(
    path: &Path,
    text: &'t str,
    plan: &CampaignPlan,
) -> Result<impl Iterator<Item = (usize, LineClass, &'t str)>, Report> {
    let mut lines = text.lines();
    check_header(path, lines.next(), plan.digest)?;
    let body: Vec<&str> = lines.collect();
    let (last, points) = (body.len(), plan.points.len());
    Ok(body
        .into_iter()
        .enumerate()
        .map(move |(i, line)| (i + 2, classify_line(line, i + 1 == last, points), line)))
}

/// Everything an integrity scan of one journal found.
#[derive(Debug, Clone, Default)]
pub struct JournalScan {
    /// Points with a complete terminal record (ok, error, or pruned);
    /// every one is an index into the plan's points.
    pub finished: HashSet<usize>,
    /// Corrupt mid-file records, and records naming a point outside the
    /// plan, as `(1-based line number, raw line)` — candidates for the
    /// `.quarantine` sidecar (`L0292`).
    pub quarantined: Vec<(usize, String)>,
    /// `"status":"retried"` lines, which older workers wrote before
    /// re-attempting a point.
    pub retried: usize,
    /// Coordinator event records (lease reclaims) observed.
    pub events: usize,
}

/// Scan a journal's body, verifying its header against `plan`'s digest,
/// and classify every line: finished points, retried attempts,
/// coordinator events, corrupt mid-file records, and the benign
/// truncated tail.
///
/// # Errors
///
/// Returns `L0266` diagnostics when the journal is missing, has no
/// parseable header, or records a different campaign digest.
pub fn scan_journal(journal: &Path, plan: &CampaignPlan) -> Result<JournalScan, Report> {
    let text = std::fs::read_to_string(journal)
        .map_err(|e| journal_err(format!("cannot read journal {}: {e}", journal.display())))?;
    let mut scan = JournalScan::default();
    for (lineno, class, line) in body_lines(journal, &text, plan)? {
        match class {
            LineClass::Finished(point) => {
                scan.finished.insert(point);
            }
            LineClass::Retried => scan.retried += 1,
            LineClass::Event => scan.events += 1,
            LineClass::TruncatedTail => {}
            LineClass::Corrupt => scan.quarantined.push((lineno, line.to_owned())),
        }
    }
    Ok(scan)
}

/// Read the set of finished point indices from a journal, verifying its
/// header against `plan`'s digest.
///
/// Complete terminal records (ok, error, or pruned) of points in the plan
/// count as finished; a truncated final line is ignored so its point
/// re-runs; corrupt mid-file records are excluded (their points re-run) —
/// use [`scan_journal`] to see them.
///
/// # Errors
///
/// Returns `L0266` diagnostics when the journal is missing, has no
/// parseable header, or records a different campaign digest.
pub fn read_finished(journal: &Path, plan: &CampaignPlan) -> Result<HashSet<usize>, Report> {
    Ok(scan_journal(journal, plan)?.finished)
}

/// The `.quarantine` sidecar path of a journal.
#[must_use]
pub fn quarantine_path(journal: &Path) -> PathBuf {
    let mut name = journal.file_name().unwrap_or_default().to_os_string();
    name.push(".quarantine");
    journal.with_file_name(name)
}

/// Write `entries` (one line each) to the journal's `.quarantine`
/// sidecar, whole-file with an atomic temp+rename, so re-scanning never
/// duplicates entries. Removes a stale sidecar when there is nothing to
/// quarantine. Best effort: the sidecar is a report, not journal data.
pub(crate) fn write_quarantine(journal: &Path, entries: impl IntoIterator<Item = String>) {
    let sidecar = quarantine_path(journal);
    let mut text = String::new();
    for entry in entries {
        text.push_str(&entry);
        text.push('\n');
    }
    if text.is_empty() {
        let _ = std::fs::remove_file(&sidecar);
        return;
    }
    let tmp = sidecar.with_extension(format!("quarantine.tmp-{}", std::process::id()));
    if std::fs::write(&tmp, text).is_ok() {
        let _ = std::fs::rename(&tmp, &sidecar);
    }
}

/// JSON string encoding, for journal fields and the CLI's `--json`
/// output.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Extract `"key":"value"` from a flat JSON object line.
pub(crate) fn json_field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":\"");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    // Journal strings we read back (digests, statuses) never contain
    // escapes, so a plain quote scan suffices.
    rest.find('"').map(|end| &rest[..end])
}

/// Extract `"key":123` from a flat JSON object line.
pub(crate) fn json_field_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that accepts `budget` bytes, then fails like a full disk.
    struct FullDisk {
        budget: usize,
    }

    impl Write for FullDisk {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if buf.len() > self.budget {
                return Err(std::io::Error::other("no space left on device"));
            }
            self.budget -= buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn failed_append_is_a_typed_journal_error() {
        let record = Record::Reclaim {
            point: 3,
            from: "dead",
            by: "w1",
        };
        let line = format!("{record}\n");
        let mut roomy = FullDisk { budget: line.len() };
        record.append(&mut roomy).expect("fits");
        let mut full = FullDisk { budget: 0 };
        let err = record.append(&mut full).expect_err("the disk is full");
        assert!(err.has_code("L0266"), "{}", err.to_human());
        assert!(
            err.to_human().contains("no space left"),
            "{}",
            err.to_human()
        );
    }

    #[test]
    fn event_and_lease_records_classify_without_a_status() {
        let reclaim = Record::Reclaim {
            point: 2,
            from: "a\"b",
            by: "w1",
        }
        .to_string();
        assert_eq!(
            reclaim,
            r#"{"event":"reclaim","point":2,"from":"a\"b","by":"w1","code":"L0290"}"#
        );
        assert_eq!(classify_line(&reclaim, false, 8), LineClass::Event);
        let lease = Record::Lease {
            point: 7,
            owner: "w1",
        }
        .to_string();
        assert_eq!(json_field_str(&lease, "owner"), Some("w1"));
        assert_eq!(json_field_u64(&lease, "point"), Some(7));
    }
}
