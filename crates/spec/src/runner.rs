//! Journaled campaign execution: stream every finished point to a JSONL
//! journal, and resume an interrupted campaign without recomputing a
//! single finished point.
//!
//! The journal is append-only. Line 1 is a header recording the campaign
//! name, its spec digest, and the point count; every subsequent line is
//! one finished point, written (and flushed) the moment its simulation
//! completes. A killed run therefore leaves a journal whose complete
//! lines are exactly the finished points — [`run_campaign`] with
//! [`RunOptions::resume`] reads them back, skips those indices, and runs
//! only the remainder. A half-written final line (the kill landed
//! mid-write) fails the completeness check and its point is re-run.
//!
//! Journal integrity findings use `L0266`: digest mismatches (the
//! campaign file was edited between run and resume), missing journals,
//! and unreadable headers.

use std::collections::HashSet;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use aladdin_core::{simulate_multi, MemKind, SimError, TraceSource, Watchdog};
use aladdin_dse::{sweep_engine, PointOutcome, PointSpec};
use aladdin_ir::{AtrcTrace, Diagnostic, Report, Trace};
use aladdin_lint::BoundsSummary;
use aladdin_workloads::by_name;

use crate::campaign::{mem_str, CampaignPlan, PlannedPoint};

/// Journal format version, bumped on breaking record changes.
pub const JOURNAL_VERSION: u32 = 1;

/// How [`run_campaign`] treats the journal.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// `false`: start fresh (refuse an existing journal). `true`: require
    /// an existing journal with a matching digest and skip every point
    /// recorded in it.
    pub resume: bool,
    /// Run at most this many not-yet-finished points, then stop — the
    /// campaign stays resumable. `None` runs to completion.
    pub limit: Option<usize>,
    /// Skip points whose static cycle lower bound and power floor
    /// (`aladdin-lint` bounds analysis) are strictly dominated by an
    /// already-finished result. Skipped points are journaled as
    /// `"status":"pruned"` records (`L0276`), never silently dropped,
    /// and the surviving Pareto frontier is provably identical to the
    /// unpruned campaign's.
    pub prune: bool,
}

/// What one [`run_campaign`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// Total points in the plan.
    pub total: usize,
    /// Points skipped because the journal already records them.
    pub skipped: usize,
    /// Points simulated by this call.
    pub ran: usize,
    /// Of those, how many ended in a simulation error (recorded in the
    /// journal as outcomes, not retried on resume).
    pub failed: usize,
    /// Points statically pruned by this call ([`RunOptions::prune`]),
    /// journaled as `"status":"pruned"` records.
    pub pruned: usize,
    /// Corrupt mid-file journal records found on resume, copied to the
    /// `.quarantine` sidecar (`L0292`); their points re-ran.
    pub quarantined: usize,
    /// The journal these results were appended to.
    pub journal: PathBuf,
}

impl RunSummary {
    /// Whether every point of the campaign is now journaled (simulated,
    /// failed, or pruned).
    #[must_use]
    pub fn complete(&self) -> bool {
        self.skipped + self.ran + self.pruned == self.total
    }
}

fn journal_err(msg: impl Into<String>) -> Report {
    let mut r = Report::new();
    r.push(Diagnostic::error("L0266", msg));
    r
}

/// Resolve a planned kernel name to a materialized trace: bundled kernels
/// run their generator, `.atrc` entries decode the file.
///
/// # Errors
///
/// `L0262` for an unknown kernel name, and `L0280` for an `.atrc` file
/// that vanished or was damaged after the plan was validated.
fn materialize_trace(kernel: &str) -> Result<Trace, SimError> {
    if kernel.ends_with(".atrc") {
        Ok(AtrcTrace::open(kernel)?.decode()?)
    } else {
        by_name(kernel)
            .map(|k| k.run().trace)
            .ok_or_else(|| Diagnostic::error("L0262", format!("unknown kernel {kernel:?}")).into())
    }
}

/// A planned kernel's trace, loaded for a run.
pub(crate) enum LoadedTrace {
    /// Materialized in memory.
    Memory(Trace),
    /// An opened `.atrc` file every worker streams its own decode of.
    Atrc(AtrcTrace),
}

impl LoadedTrace {
    /// Load `kernel`, streaming `.atrc` entries unless `materialize`.
    ///
    /// # Errors
    ///
    /// As for [`materialize_trace`].
    pub(crate) fn load(kernel: &str, materialize: bool) -> Result<Self, SimError> {
        if kernel.ends_with(".atrc") && !materialize {
            Ok(LoadedTrace::Atrc(AtrcTrace::open(kernel)?))
        } else {
            materialize_trace(kernel).map(LoadedTrace::Memory)
        }
    }

    /// The sweep engine's view of the trace.
    pub(crate) fn source(&self) -> TraceSource<'_> {
        match self {
            LoadedTrace::Memory(t) => TraceSource::Memory(t),
            LoadedTrace::Atrc(t) => TraceSource::Atrc(t),
        }
    }
}

/// Execute `plan`, appending one JSONL record per finished point to
/// `journal`.
///
/// Each contiguous group of one kernel's single points is one
/// [`sweep_engine`] call (shared prepared DDDGs, result cache when the
/// harness is inert, bound pruning under [`RunOptions::prune`]); records
/// are written in completion order. Multi-accelerator points run
/// sequentially. Results are bit-identical to calling the underlying
/// engines directly — the journal is a log, not a different code path.
/// A trace that cannot be loaded (an `.atrc` file deleted or damaged
/// after planning) fails its points with the typed diagnostic
/// (`L0280`/`L0262`) instead of aborting the campaign.
///
/// # Errors
///
/// Returns `L0266` diagnostics when the journal already exists (fresh
/// run), is missing or digest-mismatched (resume), or cannot be written.
pub fn run_campaign(
    plan: &CampaignPlan,
    journal: &Path,
    opts: &RunOptions,
) -> Result<RunSummary, Report> {
    let (finished, quarantined) = if opts.resume {
        let scan = scan_journal(journal, plan.digest)?;
        // Corrupt mid-file records go to the `.quarantine` sidecar
        // (`L0292`) and their points re-run — never a silent miscount.
        write_quarantine(journal, &scan);
        (scan.finished, scan.quarantined.len())
    } else {
        if journal.exists() {
            return Err(journal_err(format!(
                "journal {} already exists; resume it or remove it first",
                journal.display()
            )));
        }
        (HashSet::new(), 0)
    };

    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(journal)
        .map_err(|e| journal_err(format!("cannot open journal {}: {e}", journal.display())))?;
    if finished.is_empty() && !opts.resume {
        writeln!(
            file,
            "{{\"campaign\":{},\"digest\":\"{:016x}\",\"points\":{},\"version\":{}}}",
            json_string(&plan.spec.name),
            plan.digest,
            plan.points.len(),
            JOURNAL_VERSION
        )
        .map_err(|e| journal_err(format!("cannot write journal header: {e}")))?;
    }

    let mut todo: Vec<usize> = (0..plan.points.len())
        .filter(|i| !finished.contains(i))
        .collect();
    if let Some(limit) = opts.limit {
        todo.truncate(limit);
    }

    let writer = Mutex::new(file);
    let write_line = |line: String| {
        let mut file = writer.lock().expect("journal writer poisoned");
        // One write + flush per record: a kill can truncate at most the
        // final line, which resume detects and re-runs.
        let _ = writeln!(file, "{line}");
        let _ = file.flush();
    };

    let mut failed = 0usize;
    let mut ran = 0usize;
    let mut pruned = 0usize;

    // Group contiguous runs of single points by kernel so each kernel's
    // trace is generated once and its points share the sweep fast path.
    let mut i = 0;
    while i < todo.len() {
        let index = todo[i];
        match &plan.points[index] {
            PlannedPoint::Single { kernel, .. } => {
                let kernel_name = kernel.clone();
                let mut group: Vec<usize> = Vec::new();
                while i < todo.len() {
                    match &plan.points[todo[i]] {
                        PlannedPoint::Single { kernel, .. } if *kernel == kernel_name => {
                            group.push(todo[i]);
                            i += 1;
                        }
                        _ => break,
                    }
                }
                let specs: Vec<PointSpec> = group
                    .iter()
                    .map(|&g| match &plan.points[g] {
                        PlannedPoint::Single { point, .. } => *point,
                        PlannedPoint::Multi { .. } => unreachable!("grouped singles"),
                    })
                    .collect();
                let record = |local: usize, outcome: &PointOutcome| {
                    write_line(outcome_record(
                        group[local],
                        &kernel_name,
                        &specs[local],
                        outcome,
                    ));
                };
                // Pruning needs static bounds over the full DDDG, so it
                // materializes `.atrc` entries; otherwise they stream.
                let outcomes = match LoadedTrace::load(&kernel_name, opts.prune) {
                    Ok(trace) => {
                        sweep_engine(&trace.source(), &specs, &plan.harness, opts.prune, &record).0
                    }
                    // The trace vanished or broke after planning: every
                    // point of the group fails with the typed diagnostic
                    // and the campaign goes on.
                    Err(e) => (0..specs.len())
                        .map(|local| {
                            let outcome = PointOutcome::Failed(e.clone());
                            record(local, &outcome);
                            outcome
                        })
                        .collect(),
                };
                for o in &outcomes {
                    match o {
                        PointOutcome::Done(_) => ran += 1,
                        PointOutcome::Failed(_) => {
                            ran += 1;
                            failed += 1;
                        }
                        PointOutcome::Pruned(_) => pruned += 1,
                    }
                }
            }
            PlannedPoint::Multi {
                stagger,
                count,
                soc,
            } => {
                let jobs = plan.jobs_at(*stagger);
                let result = simulate_multi(&jobs[..*count], soc, &plan.harness);
                if result.is_err() {
                    failed += 1;
                }
                write_line(multi_record(index, *stagger, *count, soc, &result));
                ran += 1;
                i += 1;
            }
        }
    }

    Ok(RunSummary {
        total: plan.points.len(),
        skipped: finished.len(),
        ran,
        failed,
        pruned,
        quarantined,
        journal: journal.to_path_buf(),
    })
}

/// Journal record for a multi-accelerator (job-set) point — used
/// identically by the single-process runner and the coordinator workers,
/// so merged multi-worker journals are record-for-record comparable to a
/// single-process run.
pub(crate) fn multi_record(
    index: usize,
    stagger: u64,
    count: usize,
    soc: &aladdin_core::SocConfig,
    result: &Result<aladdin_core::MultiSocResult, SimError>,
) -> String {
    let prefix = format!(
        "{{\"point\":{index},\"stagger\":{stagger},\"count\":{count},\"topology\":{},\"bus_width\":{}",
        json_string(&soc.topology.topology.spec_string()),
        soc.bus.width_bits
    );
    match result {
        Ok(r) => {
            let latencies: Vec<String> = r
                .accelerators
                .iter()
                .map(|a| a.latency().to_string())
                .collect();
            format!(
                "{prefix},\"end\":{},\"latencies\":[{}],\"status\":\"ok\"}}",
                r.end,
                latencies.join(",")
            )
        }
        Err(e) => format!(
            "{prefix},\"status\":\"error\",\"error\":{}}}",
            json_string(&e.to_string())
        ),
    }
}

/// The shared `{"point":…,"kernel":…,…` prefix of every single-point
/// journal record.
pub(crate) fn point_prefix(index: usize, kernel: &str, spec: &PointSpec) -> String {
    let mut line = format!(
        "{{\"point\":{index},\"kernel\":{},\"mem\":{},\"lanes\":{},\"partition\":{}",
        json_string(kernel),
        json_string(&mem_str(spec.kind)),
        spec.dp.lanes,
        spec.dp.partition,
    );
    if spec.kind == MemKind::Cache {
        line.push_str(&format!(
            ",\"cache_bytes\":{},\"cache_ports\":{}",
            spec.soc.cache.size_bytes, spec.soc.cache.ports
        ));
    }
    line
}

/// The journal record of one single-point outcome: `"ok"` with cycles,
/// energy and EDP, `"error"` with the typed diagnostic, or `"pruned"`
/// (`L0276`) with the bound and floor that condemned the point and the
/// finished result that dominated it.
pub(crate) fn outcome_record(
    index: usize,
    kernel: &str,
    spec: &PointSpec,
    outcome: &PointOutcome,
) -> String {
    let mut line = point_prefix(index, kernel, spec);
    match outcome {
        PointOutcome::Done(r) => line.push_str(&format!(
            ",\"cycles\":{},\"energy_j\":{:e},\"edp\":{:e},\"status\":\"ok\"}}",
            r.total_cycles,
            r.energy_j(),
            r.edp()
        )),
        PointOutcome::Failed(e) => line.push_str(&format!(
            ",\"status\":\"error\",\"error\":{}}}",
            json_string(&e.to_string())
        )),
        PointOutcome::Pruned(p) => line.push_str(&format!(
            ",\"lo\":{},\"power_floor_mw\":{:e},\"by_cycles\":{},\"by_power_mw\":{:e},\"status\":\"pruned\"}}",
            p.lo, p.power_floor_mw, p.by_cycles, p.by_power_mw
        )),
    }
    line
}

/// What one journal line is, after integrity classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LineClass {
    /// A complete terminal record: `"status"` ok, error, or pruned.
    Finished(usize),
    /// A `"status":"retried"` record — the point failed transiently and
    /// was re-attempted; not terminal, never counts as finished.
    Retried(usize),
    /// A coordinator event record (lease reclaim, …): carries `"event"`,
    /// no `"status"`.
    Event,
    /// An incomplete final line — the writer was killed mid-write; its
    /// point silently re-runs.
    TruncatedTail,
    /// A corrupt record anywhere else: quarantine it (`L0292`) rather
    /// than silently miscounting finished points.
    Corrupt,
}

/// Classify one journal body line. `is_last` distinguishes the benign
/// kill-mid-write tail from mid-file corruption.
pub(crate) fn classify_line(line: &str, is_last: bool) -> LineClass {
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
    let Some(point) = json_field_u64(trimmed, "point").and_then(|p| usize::try_from(p).ok()) else {
        return LineClass::Corrupt;
    };
    match json_field_str(trimmed, "status") {
        Some("ok" | "error" | "pruned") => LineClass::Finished(point),
        Some("retried") => LineClass::Retried(point),
        _ => LineClass::Corrupt,
    }
}

/// Everything an integrity scan of one journal found.
#[derive(Debug, Clone, Default)]
pub struct JournalScan {
    /// Points with a complete terminal record (ok, error, or pruned).
    pub finished: HashSet<usize>,
    /// Corrupt mid-file records as `(1-based line number, raw line)` —
    /// candidates for the `.quarantine` sidecar (`L0292`).
    pub quarantined: Vec<(usize, String)>,
    /// `"status":"retried"` records observed (transient failures that
    /// were re-attempted by a worker).
    pub retried: usize,
    /// Coordinator event records (lease reclaims, …) observed.
    pub events: usize,
}

/// Scan a journal's body, verifying its header against `digest`, and
/// classify every line: finished points, retried attempts, coordinator
/// events, corrupt mid-file records, and the benign truncated tail.
///
/// # Errors
///
/// Returns `L0266` diagnostics when the journal is missing, has no
/// parseable header, or records a different campaign digest.
pub fn scan_journal(journal: &Path, digest: u64) -> Result<JournalScan, Report> {
    let text = std::fs::read_to_string(journal)
        .map_err(|e| journal_err(format!("cannot read journal {}: {e}", journal.display())))?;
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| journal_err(format!("journal {} is empty", journal.display())))?;
    let recorded = json_field_str(header, "digest").ok_or_else(|| {
        journal_err(format!(
            "journal {} has no header digest",
            journal.display()
        ))
    })?;
    if recorded != format!("{digest:016x}") {
        return Err(journal_err(format!(
            "journal {} records digest {recorded} but the campaign's is {digest:016x}; \
             the campaign file changed since the run started",
            journal.display()
        )));
    }
    let body: Vec<&str> = lines.collect();
    let mut scan = JournalScan::default();
    for (i, line) in body.iter().enumerate() {
        match classify_line(line, i + 1 == body.len()) {
            LineClass::Finished(point) => {
                scan.finished.insert(point);
            }
            LineClass::Retried(_) => scan.retried += 1,
            LineClass::Event => scan.events += 1,
            LineClass::TruncatedTail => {}
            LineClass::Corrupt => scan.quarantined.push((i + 2, (*line).to_owned())),
        }
    }
    Ok(scan)
}

/// The `.quarantine` sidecar path of a journal.
#[must_use]
pub fn quarantine_path(journal: &Path) -> PathBuf {
    let mut name = journal.file_name().unwrap_or_default().to_os_string();
    name.push(".quarantine");
    journal.with_file_name(name)
}

/// Write a scan's corrupt records to the journal's `.quarantine` sidecar
/// (whole-file, atomic temp+rename — re-scanning never duplicates
/// entries). Removes a stale sidecar when the scan found nothing.
pub(crate) fn write_quarantine(journal: &Path, scan: &JournalScan) {
    let sidecar = quarantine_path(journal);
    if scan.quarantined.is_empty() {
        let _ = std::fs::remove_file(&sidecar);
        return;
    }
    let mut text = String::new();
    for (lineno, line) in &scan.quarantined {
        text.push_str(&format!("line {lineno}: {line}\n"));
    }
    let tmp = sidecar.with_extension(format!("quarantine.tmp-{}", std::process::id()));
    if std::fs::write(&tmp, text).is_ok() {
        let _ = std::fs::rename(&tmp, &sidecar);
    }
}

/// Read the set of finished point indices from a journal, verifying its
/// header against `digest`.
///
/// Complete terminal records (ok, error, or pruned) count as finished; a
/// truncated final line is ignored so its point re-runs; corrupt mid-file
/// records are excluded (their points re-run) — use [`scan_journal`] to
/// see them.
///
/// # Errors
///
/// Returns `L0266` diagnostics when the journal is missing, has no
/// parseable header, or records a different campaign digest.
pub fn read_finished(journal: &Path, digest: u64) -> Result<HashSet<usize>, Report> {
    Ok(scan_journal(journal, digest)?.finished)
}

/// How many of the plan's single points the process-wide result cache
/// already holds (the `sweep plan` forecast). Probing promotes disk-tier
/// hits into memory, pre-warming the subsequent run.
///
/// Always 0 when the campaign's harness is not inert (a fault seed or a
/// non-default watchdog): those runs bypass the cache, so nothing the
/// cache holds will be served to them.
#[must_use]
pub fn forecast_cached(plan: &CampaignPlan) -> usize {
    if !plan.harness.plan.is_empty() || plan.harness.watchdog != Watchdog::default() {
        return 0;
    }
    let mut cached = 0;
    let mut trace_for: Option<(String, Option<Trace>)> = None;
    for point in &plan.points {
        if let PlannedPoint::Single { kernel, point } = point {
            if !matches!(&trace_for, Some((name, _)) if name == kernel) {
                trace_for = Some((kernel.clone(), materialize_trace(kernel).ok()));
            }
            if let Some((_, Some(trace))) = &trace_for {
                if aladdin_dse::point_cached(trace, &point.dp, &point.soc, point.kind) {
                    cached += 1;
                }
            }
        }
    }
    cached
}

/// Static cycle-bound forecast for a plan's single points: the `L0275`
/// campaign summary shown by `sweep plan` and `soclint campaign` next to
/// the cache forecast, computed without running the scheduler.
///
/// Returns the aggregate [`BoundsSummary`] over every single point whose
/// configuration admits bounds, plus the count of points where bounds
/// were unavailable (the configuration itself fails validation, `L0273`,
/// or the trace cannot be loaded).
/// Job-set (multi-accelerator) points carry no static bounds and are not
/// counted. The summary's dominance count is judged within each kernel's
/// point group — pruning only ever compares results of the same kernel.
#[must_use]
pub fn plan_bounds(plan: &CampaignPlan) -> (BoundsSummary, usize) {
    let mut all = Vec::new();
    let mut groups: Vec<(String, Vec<aladdin_lint::CycleBounds>)> = Vec::new();
    let mut unavailable = 0usize;
    let mut trace_for: Option<(String, Option<Trace>)> = None;
    for point in &plan.points {
        if let PlannedPoint::Single { kernel, point } = point {
            if !matches!(&trace_for, Some((name, _)) if name == kernel) {
                trace_for = Some((kernel.clone(), materialize_trace(kernel).ok()));
            }
            let Some((_, Some(trace))) = &trace_for else {
                unavailable += 1;
                continue;
            };
            match aladdin_lint::bounds_for_point(
                trace,
                &point.dp,
                &point.soc,
                point.kind,
                &plan.harness,
            ) {
                Ok(b) => {
                    if !matches!(groups.last(), Some((name, _)) if name == kernel) {
                        groups.push((kernel.clone(), Vec::new()));
                    }
                    groups.last_mut().expect("just pushed").1.push(b);
                    all.push(b);
                }
                Err(_) => unavailable += 1,
            }
        }
    }
    let mut summary = aladdin_lint::summarize_bounds(&all);
    summary.dominated = groups
        .iter()
        .map(|(_, bs)| aladdin_lint::summarize_bounds(bs).dominated)
        .sum();
    (summary, unavailable)
}

/// Minimal JSON string encoding for journal fields.
pub(crate) fn json_string(s: &str) -> String {
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
pub(crate) mod tests {
    use super::*;
    use crate::campaign::CampaignSpec;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "aladdin-runner-{}-{name}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn tiny_plan() -> CampaignPlan {
        CampaignSpec::from_toml(
            r#"
name = "runner-test"
kernels = ["aes-aes"]
mems = ["isolated"]

[space]
lanes = [1, 2]
partitions = [1]
"#,
        )
        .expect("parses")
        .expand()
        .expect("expands")
    }

    #[test]
    fn journal_records_every_point_once() {
        let plan = tiny_plan();
        let journal = temp_path("full");
        let summary = run_campaign(&plan, &journal, &RunOptions::default()).expect("runs");
        assert_eq!(summary.ran, plan.points.len());
        assert_eq!(summary.failed, 0);
        assert!(summary.complete());

        let finished = read_finished(&journal, plan.digest).expect("readable");
        assert_eq!(finished.len(), plan.points.len());
        // Exactly one record per index, plus the header.
        let text = std::fs::read_to_string(&journal).unwrap();
        assert_eq!(text.lines().count(), plan.points.len() + 1);

        // A second run refuses to clobber; resume finds nothing to do.
        assert!(run_campaign(&plan, &journal, &RunOptions::default()).is_err());
        let resumed = run_campaign(
            &plan,
            &journal,
            &RunOptions {
                resume: true,
                ..RunOptions::default()
            },
        )
        .expect("resumes");
        assert_eq!(resumed.ran, 0);
        assert!(resumed.complete());
        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn limit_then_resume_completes_without_recompute() {
        let plan = tiny_plan();
        let journal = temp_path("limit");
        let first = run_campaign(
            &plan,
            &journal,
            &RunOptions {
                limit: Some(1),
                ..RunOptions::default()
            },
        )
        .expect("runs");
        assert_eq!(first.ran, 1);
        assert!(!first.complete());

        let second = run_campaign(
            &plan,
            &journal,
            &RunOptions {
                resume: true,
                ..RunOptions::default()
            },
        )
        .expect("resumes");
        assert_eq!(
            second.ran,
            plan.points.len() - 1,
            "only unfinished points run"
        );
        assert!(second.complete());
        let _ = std::fs::remove_file(&journal);
    }

    /// Encode a bundled kernel to a temp `.atrc` and plan a two-point
    /// sweep over the file instead of the kernel name. Returns the plan
    /// and the file, which the caller removes.
    pub(crate) fn atrc_plan(name: &str) -> (CampaignPlan, PathBuf) {
        let trace = by_name("aes-aes").expect("kernel").run().trace;
        let mut path = std::env::temp_dir();
        path.push(format!("aladdin-runner-{}-{name}.atrc", std::process::id()));
        std::fs::write(&path, aladdin_ir::encode_trace(&trace)).expect("write atrc");
        let toml = format!(
            r#"
name = "runner-atrc"
kernels = ["{}"]
mems = ["isolated"]

[space]
lanes = [1, 2]
partitions = [1]
"#,
            path.display()
        );
        let plan = CampaignSpec::from_toml(&toml)
            .expect("parses")
            .expand()
            .expect("an existing .atrc file validates");
        (plan, path)
    }

    #[test]
    fn atrc_kernel_entry_streams_end_to_end() {
        // Validation opens the file, the runner streams it, and the
        // journal fills exactly as a materialized run would.
        let (plan, atrc_path) = atrc_plan("aes");
        let journal = temp_path("atrc");
        let summary = run_campaign(&plan, &journal, &RunOptions::default()).expect("runs");
        assert_eq!(summary.ran, plan.points.len());
        assert_eq!(summary.failed, 0);
        assert!(summary.complete());
        let finished = read_finished(&journal, plan.digest).expect("readable");
        assert_eq!(finished.len(), plan.points.len());
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&atrc_path);
    }

    /// An `.atrc` file deleted or truncated after planning never panics
    /// the runner: every affected point is journaled as an error carrying
    /// the typed `L0280` diagnostic and counted as failed, and the
    /// campaign completes — streamed or materialized (`prune`).
    #[test]
    fn atrc_broken_after_planning_journals_typed_errors() {
        for prune in [false, true] {
            for truncate in [false, true] {
                let name = format!("broken-{prune}-{truncate}");
                let (plan, atrc_path) = atrc_plan(&name);
                if truncate {
                    let bytes = std::fs::read(&atrc_path).expect("read atrc");
                    std::fs::write(&atrc_path, &bytes[..bytes.len() / 2]).expect("truncate");
                } else {
                    std::fs::remove_file(&atrc_path).expect("delete atrc");
                }
                let journal = temp_path(&name);
                let opts = RunOptions {
                    prune,
                    ..RunOptions::default()
                };
                let summary = run_campaign(&plan, &journal, &opts).expect("runs");
                assert_eq!(summary.ran, plan.points.len(), "{name}");
                assert_eq!(summary.failed, plan.points.len(), "{name}");
                assert!(summary.complete(), "{name}");
                let text = std::fs::read_to_string(&journal).expect("journal");
                assert_eq!(text.lines().count(), plan.points.len() + 1, "{name}");
                for line in text.lines().skip(1) {
                    assert!(line.contains("\"status\":\"error\""), "{name}: {line}");
                    assert!(line.contains("[L0280]"), "{name}: {line}");
                }
                let _ = std::fs::remove_file(&journal);
                let _ = std::fs::remove_file(&atrc_path);
            }
        }
    }

    #[test]
    fn topology_contention_campaign_runs_with_expected_journal() {
        use aladdin_core::Topology;

        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/campaigns/topology_contention.toml"
        );
        let text = std::fs::read_to_string(path).expect("bundled campaign exists");
        let plan = CampaignSpec::from_toml(&text)
            .expect("parses")
            .expand()
            .expect("expands");

        // 4 topologies × 2 bus widths × 3 accelerator counts, topology
        // outermost — the axis order journal indices are pinned to.
        let topologies = [
            Topology::SharedBus,
            Topology::Crossbar { radix: 4 },
            Topology::TwoLevelBus {
                clusters: 2,
                bridge_cycles: 4,
            },
            Topology::MeshNoc {
                cols: 3,
                rows: 3,
                hop_cycles: 1,
                link_bits: 32,
            },
        ];
        let widths = [32u32, 64];
        let counts = [1usize, 2, 4];
        assert_eq!(plan.points.len(), 24);
        let mut expected = topologies
            .iter()
            .flat_map(|&t| widths.iter().map(move |&w| (t, w)))
            .flat_map(|(t, w)| counts.iter().map(move |&k| (t, w, k)));
        for p in &plan.points {
            let PlannedPoint::Multi {
                stagger,
                count,
                soc,
            } = p
            else {
                panic!("job-set campaign yields multi points");
            };
            let (t, w, k) = expected.next().expect("point count matches axes");
            assert_eq!(*stagger, 0);
            assert_eq!(soc.topology.topology, t);
            assert_eq!(soc.bus.width_bits, w);
            assert_eq!(*count, k);
        }

        let journal = temp_path("topology-contention");
        let summary = run_campaign(&plan, &journal, &RunOptions::default()).expect("runs");
        assert_eq!(summary.ran, 24);
        assert_eq!(summary.failed, 0);
        assert!(summary.complete());

        let text = std::fs::read_to_string(&journal).unwrap();
        let records: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(records.len(), 24);
        let mut end_of = std::collections::HashMap::new();
        for line in &records {
            assert!(line.contains("\"status\":\"ok\""), "{line}");
            let point = json_field_u64(line, "point").expect("point index") as usize;
            let count = json_field_u64(line, "count").expect("count field");
            let width = json_field_u64(line, "bus_width").expect("bus_width field");
            let end = json_field_u64(line, "end").expect("end cycle");
            assert!(end > 0, "{line}");
            let PlannedPoint::Multi { count: k, soc, .. } = &plan.points[point] else {
                unreachable!()
            };
            assert_eq!(count as usize, *k);
            assert_eq!(width as u32, soc.bus.width_bits);
            assert!(
                line.contains(&format!(
                    "\"topology\":\"{}\"",
                    soc.topology.topology.spec_string()
                )),
                "{line}"
            );
            end_of.insert((soc.topology.topology.spec_string(), width, count), end);
        }
        // Physics: on every fabric, at fixed width, adding accelerators
        // never finishes the SoC earlier.
        for t in ["shared-bus", "crossbar:4", "two-level:2:4", "mesh:3x3:1:32"] {
            for w in [32u64, 64] {
                let one = end_of[&(t.to_owned(), w, 1)];
                let four = end_of[&(t.to_owned(), w, 4)];
                assert!(
                    four >= one,
                    "{t} @{w}b: 4 accelerators ended at {four}, 1 at {one}"
                );
            }
        }
        // And a wider bus never hurts the fully-loaded shared bus.
        assert!(
            end_of[&("shared-bus".to_owned(), 64, 4)] <= end_of[&("shared-bus".to_owned(), 32, 4)],
            "doubling the shared-bus width must not slow the loaded SoC"
        );
        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn pruned_run_accounts_for_every_point() {
        let plan = tiny_plan();
        let journal = temp_path("pruned");
        let summary = run_campaign(
            &plan,
            &journal,
            &RunOptions {
                prune: true,
                ..RunOptions::default()
            },
        )
        .expect("runs");
        assert_eq!(summary.ran + summary.pruned, plan.points.len());
        assert!(summary.complete());
        // Every point — simulated or pruned — has exactly one record.
        let finished = read_finished(&journal, plan.digest).expect("readable");
        assert_eq!(finished.len(), plan.points.len());
        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn pruned_records_count_as_finished_on_resume() {
        let plan = tiny_plan();
        let journal = temp_path("pruned-resume");
        run_campaign(
            &plan,
            &journal,
            &RunOptions {
                limit: Some(1),
                ..RunOptions::default()
            },
        )
        .expect("runs");
        // Append an L0276 pruned record for the remaining point, as a
        // pruned run would have.
        let (kernel, spec) = match &plan.points[1] {
            PlannedPoint::Single { kernel, point } => (kernel.clone(), *point),
            PlannedPoint::Multi { .. } => unreachable!("sweep campaign"),
        };
        let record = outcome_record(
            1,
            &kernel,
            &spec,
            &PointOutcome::Pruned(aladdin_dse::PrunedPoint {
                index: 1,
                lo: 1000,
                power_floor_mw: 1.5,
                by_cycles: 400,
                by_power_mw: 0.9,
            }),
        );
        let mut text = std::fs::read_to_string(&journal).unwrap();
        text.push_str(&record);
        text.push('\n');
        std::fs::write(&journal, text).unwrap();

        let finished = read_finished(&journal, plan.digest).expect("readable");
        assert_eq!(finished.len(), plan.points.len(), "pruned counts");
        let resumed = run_campaign(
            &plan,
            &journal,
            &RunOptions {
                resume: true,
                ..RunOptions::default()
            },
        )
        .expect("resumes");
        assert_eq!(resumed.ran, 0, "pruned points are not re-run on resume");
        assert!(resumed.complete());
        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn plan_bounds_cover_every_single_point() {
        let plan = tiny_plan();
        let (summary, unavailable) = plan_bounds(&plan);
        assert_eq!(summary.points + unavailable, plan.points.len());
        assert_eq!(unavailable, 0, "a clean plan has bounds everywhere");
        assert!(summary.min_lo > 0);
        assert!(summary.certified == summary.points);
    }

    #[test]
    fn resume_refuses_a_foreign_journal() {
        let plan = tiny_plan();
        let journal = temp_path("foreign");
        std::fs::write(
            &journal,
            "{\"campaign\":\"other\",\"digest\":\"00000000deadbeef\",\"points\":1,\"version\":1}\n",
        )
        .unwrap();
        let err = run_campaign(
            &plan,
            &journal,
            &RunOptions {
                resume: true,
                ..RunOptions::default()
            },
        )
        .unwrap_err();
        assert!(err.has_code("L0266"), "{}", err.to_human());
        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn corrupt_midfile_lines_quarantine_and_rerun() {
        let plan = tiny_plan();
        let journal = temp_path("quarantine");
        run_campaign(&plan, &journal, &RunOptions::default()).expect("runs");
        // Corrupt the FIRST record — mid-file, not the benign truncated
        // tail — leaving the later record intact.
        let text = std::fs::read_to_string(&journal).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let keep = lines[1].len() - 7;
        lines[1].truncate(keep);
        std::fs::write(&journal, lines.join("\n") + "\n").unwrap();

        let scan = scan_journal(&journal, plan.digest).expect("scans");
        assert_eq!(
            scan.finished.len(),
            plan.points.len() - 1,
            "the corrupt record must not count as finished"
        );
        assert_eq!(scan.quarantined.len(), 1);
        assert_eq!(scan.quarantined[0].0, 2, "1-based line number");

        let resumed = run_campaign(
            &plan,
            &journal,
            &RunOptions {
                resume: true,
                ..RunOptions::default()
            },
        )
        .expect("resumes");
        assert_eq!(resumed.ran, 1, "only the corrupt point re-runs");
        assert_eq!(resumed.quarantined, 1);
        assert!(resumed.complete());
        let sidecar = quarantine_path(&journal);
        let q = std::fs::read_to_string(&sidecar).expect("sidecar written");
        assert!(q.starts_with("line 2: "), "{q}");
        assert_eq!(q.lines().count(), 1);

        // Re-resuming does not duplicate sidecar entries (whole-file
        // rewrite, not append) and finds nothing to do.
        let again = run_campaign(
            &plan,
            &journal,
            &RunOptions {
                resume: true,
                ..RunOptions::default()
            },
        )
        .expect("resumes");
        assert_eq!(again.ran, 0);
        let q2 = std::fs::read_to_string(&sidecar).expect("sidecar still there");
        assert_eq!(q2.lines().count(), 1, "no duplicate quarantine entries");
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&sidecar);
    }

    #[test]
    fn retried_records_do_not_count_as_finished() {
        let plan = tiny_plan();
        let journal = temp_path("retried");
        run_campaign(
            &plan,
            &journal,
            &RunOptions {
                limit: Some(1),
                ..RunOptions::default()
            },
        )
        .expect("runs");
        // Append a worker's retry breadcrumb for point 1 (a transient
        // failure that was re-attempted) and a coordinator event line.
        let (kernel, spec) = match &plan.points[1] {
            PlannedPoint::Single { kernel, point } => (kernel.clone(), *point),
            PlannedPoint::Multi { .. } => unreachable!("sweep campaign"),
        };
        let mut prefix = point_prefix(1, &kernel, &spec);
        prefix.push_str(
            ",\"status\":\"retried\",\"attempt\":1,\"backoff_ms\":5,\"error\":\"deadlock\"}",
        );
        let mut text = std::fs::read_to_string(&journal).unwrap();
        text.push_str(&prefix);
        text.push('\n');
        text.push_str("{\"event\":\"reclaim\",\"point\":1,\"from\":\"w1\",\"code\":\"L0290\"}\n");
        std::fs::write(&journal, text).unwrap();

        let scan = scan_journal(&journal, plan.digest).expect("scans");
        assert_eq!(scan.finished.len(), 1, "retried is not terminal");
        assert_eq!(scan.retried, 1);
        assert_eq!(scan.events, 1);
        assert!(scan.quarantined.is_empty(), "well-formed breadcrumbs pass");

        let resumed = run_campaign(
            &plan,
            &journal,
            &RunOptions {
                resume: true,
                ..RunOptions::default()
            },
        )
        .expect("resumes");
        assert_eq!(resumed.ran, 1, "the retried point still runs to terminal");
        assert!(resumed.complete());
        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn truncated_final_line_reruns_that_point() {
        let plan = tiny_plan();
        let journal = temp_path("truncated");
        run_campaign(&plan, &journal, &RunOptions::default()).expect("runs");
        // Chop the final record mid-line, as a kill would.
        let text = std::fs::read_to_string(&journal).unwrap();
        let truncated = &text[..text.len() - 10];
        std::fs::write(&journal, truncated).unwrap();

        let finished = read_finished(&journal, plan.digest).expect("readable");
        assert_eq!(finished.len(), plan.points.len() - 1);
        let resumed = run_campaign(
            &plan,
            &journal,
            &RunOptions {
                resume: true,
                ..RunOptions::default()
            },
        )
        .expect("resumes");
        assert_eq!(resumed.ran, 1, "only the truncated point re-runs");
        assert!(resumed.complete());
        let _ = std::fs::remove_file(&journal);
    }
}
