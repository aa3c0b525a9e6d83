//! Journaled campaign execution: stream every finished point to a JSONL
//! journal, and resume an interrupted campaign without recomputing a
//! single finished point.
//!
//! `execute` is the one dispatcher of planned points: `sweep run`
//! ([`run_campaign`]) and `sweep work`
//! ([`run_worker`](crate::coordinator::run_worker)) differ only in which
//! points they hand it and where its records go. Every record is built by
//! one record type, so a merged multi-worker journal matches a single-process
//! one by construction. A killed run leaves a journal whose complete
//! lines are exactly the finished points — [`run_campaign`] with
//! [`RunOptions::resume`] reads them back, skips those indices, and runs
//! only the remainder. A half-written final line (the kill landed
//! mid-write) fails the completeness check and its point is re-run.
//!
//! Journal integrity findings use `L0266`: digest mismatches (the
//! campaign file was edited between run and resume), missing journals,
//! unreadable headers, and failed writes.

use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use aladdin_core::{simulate_multi, SimError, TraceSource};
use aladdin_dse::{
    cache_gate_open, parallel_map, sweep_engine, PointOutcome, PointSpec, SweepPerf, SweepSource,
    TraceMemo,
};
use aladdin_ir::{AtrcTrace, Diagnostic, Report, Trace};
use aladdin_lint::BoundsSummary;
use aladdin_workloads::{by_name, Kernel};

use crate::campaign::{CampaignPlan, PlannedPoint};
use crate::journal::{journal_err, scan_journal, write_quarantine, Record, Status};

pub use crate::journal::JOURNAL_VERSION;

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

/// A planned kernel name that is not a bundled kernel.
fn unknown_kernel(kernel: &str) -> SimError {
    Diagnostic::error("L0262", format!("unknown kernel {kernel:?}")).into()
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
            .map(|k| build_trace(&*k))
            .ok_or_else(|| unknown_kernel(kernel))
    }
}

/// Run a bundled kernel's generator to its full trace.
fn build_trace(k: &dyn Kernel) -> Trace {
    #[cfg(test)]
    BUILT.with(|n| n.set(n.get() + 1));
    k.run().trace
}

/// What one [`execute`] caller (one `run_campaign` or `run_worker` call)
/// keeps across its `execute` calls, so a worker claiming many batches
/// hashes each kernel once and traces and graphs a kernel once per run
/// of batches that name it. It lives in memory only and never outlives
/// the call, so it cannot serve a fingerprint or a trace from an older
/// build of a kernel's generator — the reason traces are never stored
/// on disk by name.
#[derive(Default)]
pub(crate) struct KernelMemo {
    /// Bundled kernels' trace fingerprints, keyed by kernel name. Filled
    /// only under an open cache gate.
    fingerprints: HashMap<String, u128>,
    /// The most recent bundled kernel's trace and graph, built when one
    /// of its points first simulates. Dropped as soon as a kernel group
    /// names another kernel, so at most one kernel is resident.
    resident: Option<(String, TraceMemo)>,
}

impl KernelMemo {
    /// Fingerprint every distinct bundled kernel that the single points
    /// at `indices` name and the memo lacks, in parallel on the sweep
    /// engine's pool, claimed in plan order. `.atrc` entries and unknown
    /// names are left to [`LoadedTrace::load`], which streams the first
    /// and fails the second as before.
    fn fingerprint_ahead(&mut self, plan: &CampaignPlan, indices: &[usize]) {
        let mut named = HashSet::new();
        let kernels: Vec<(&str, Box<dyn Kernel>)> = indices
            .iter()
            .filter_map(|&i| match &plan.points[i] {
                PlannedPoint::Single { kernel, .. } => Some(kernel.as_str()),
                PlannedPoint::Multi { .. } => None,
            })
            .filter(|&k| !self.fingerprints.contains_key(k) && named.insert(k))
            .filter_map(|k| Some((k, by_name(k)?)))
            .collect();
        if kernels.is_empty() {
            return;
        }
        let hashed = parallel_map(
            kernels.len(),
            || (),
            |i, ()| ControlFlow::Continue(kernels[i].1.fingerprint()),
        );
        #[cfg(test)]
        HASHED.with(|n| n.set(n.get() + kernels.len()));
        for ((name, _), fingerprint) in kernels.iter().zip(hashed) {
            let fingerprint = fingerprint.expect("no job breaks, so every kernel is claimed");
            self.fingerprints.insert((*name).to_owned(), fingerprint);
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Fingerprint-only kernel runs made for this thread's `execute` and
    /// `forecast_cached` calls (on pool threads, counted on return), for
    /// tests.
    pub(crate) static HASHED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Bundled kernel traces built by this thread's sweeps and plan
    /// forecasts, for tests.
    pub(crate) static BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// A planned kernel's trace, loaded for a run.
enum LoadedTrace<'m> {
    /// A materialized `.atrc` file.
    Memory(Trace),
    /// An opened `.atrc` file every worker streams its own decode of.
    Atrc(AtrcTrace),
    /// A bundled kernel, built into the memo's resident cells only if
    /// one of its points simulates. Known by its fingerprint under an
    /// open cache gate.
    Bundled {
        fingerprint: Option<u128>,
        build: Box<dyn Fn() -> Trace + Sync>,
        resident: &'m TraceMemo,
    },
}

impl<'m> LoadedTrace<'m> {
    /// Load `kernel` for a sweep. `.atrc` entries stream unless
    /// `materialize`. A bundled kernel carries the fingerprint `memo`
    /// holds for it, if any (see [`KernelMemo::fingerprint_ahead`]), and
    /// shares `memo`'s resident trace and graph with the previous group
    /// if that group named the same kernel.
    ///
    /// # Errors
    ///
    /// As for [`materialize_trace`].
    fn load(kernel: &str, materialize: bool, memo: &'m mut KernelMemo) -> Result<Self, SimError> {
        if memo.resident.as_ref().is_some_and(|(k, _)| k != kernel) {
            memo.resident = None;
        }
        if kernel.ends_with(".atrc") {
            return if materialize {
                materialize_trace(kernel).map(LoadedTrace::Memory)
            } else {
                Ok(LoadedTrace::Atrc(AtrcTrace::open(kernel)?))
            };
        }
        let k = by_name(kernel).ok_or_else(|| unknown_kernel(kernel))?;
        let fingerprint = memo.fingerprints.get(kernel).copied();
        let resident = &memo
            .resident
            .get_or_insert_with(|| (kernel.to_owned(), TraceMemo::default()))
            .1;
        Ok(LoadedTrace::Bundled {
            fingerprint,
            build: Box::new(move || build_trace(&*k)),
            resident,
        })
    }

    /// The sweep engine's view of the trace.
    fn source(&self) -> SweepSource<'_> {
        match self {
            LoadedTrace::Memory(t) => TraceSource::Memory(t).into(),
            LoadedTrace::Atrc(t) => TraceSource::Atrc(t).into(),
            LoadedTrace::Bundled {
                fingerprint,
                build,
                resident,
            } => SweepSource::Lazy {
                fingerprint: *fingerprint,
                build: &**build,
                memo: resident,
            },
        }
    }
}

/// Run the planned points at `indices`, in order, handing each finished
/// point's index and [`Record`] to `sink` as it completes.
///
/// Each contiguous run of one kernel's single points is one
/// [`sweep_engine`] call (shared prepared DDDGs, parallel across cores,
/// result cache when the harness is inert, bound pruning under `prune`,
/// which materializes `.atrc` entries; otherwise they stream). Under an
/// open cache gate, before the first group, every bundled kernel the
/// points name that `memo` has not fingerprinted yet is fingerprinted, in
/// parallel; each bundled kernel then enters its sweep by its memoized
/// fingerprint. A bundled kernel's trace and graph are built only if one
/// of its points simulates, and `memo` keeps them for the next group if
/// it names the same kernel. A trace that cannot be loaded (an `.atrc`
/// file deleted or damaged after planning) fails each of its points with
/// the typed diagnostic (`L0280`/`L0262`). Multi-accelerator points run
/// through [`simulate_multi`]. Results are bit-identical to calling the engines
/// directly — the journal is a log, not a different code path. Sink
/// calls never overlap.
///
/// Returns the sweeps' perf roll-up and the first error `sink` returned.
/// After that error no later record reaches the sink, the sweep in
/// flight stops claiming points, and no later kernel group or multi point
/// starts.
pub(crate) fn execute(
    plan: &CampaignPlan,
    indices: &[usize],
    prune: bool,
    memo: &mut KernelMemo,
    sink: &mut (dyn FnMut(usize, &Record) -> Result<(), Report> + Send),
) -> (SweepPerf, Result<(), Report>) {
    if cache_gate_open(&plan.harness) {
        memo.fingerprint_ahead(plan, indices);
    }
    let state = Mutex::new((sink, Ok(())));
    // `Break` once the sink has failed, which cancels the sweep in flight.
    let emit = |index: usize, record: &Record| {
        let mut guard = state.lock().unwrap_or_else(PoisonError::into_inner);
        let (sink, status) = &mut *guard;
        if status.is_ok() {
            *status = sink(index, record);
        }
        if status.is_ok() {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        }
    };
    let stopped = || {
        state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .1
            .is_err()
    };

    let mut perf = SweepPerf::default();
    let mut rest = indices;
    while let Some(&index) = rest.first() {
        if stopped() {
            break;
        }
        match &plan.points[index] {
            PlannedPoint::Single { kernel, .. } => {
                let len = rest
                    .iter()
                    .take_while(|&&i| {
                        matches!(&plan.points[i], PlannedPoint::Single { kernel: k, .. } if k == kernel)
                    })
                    .count();
                let (group, tail) = rest.split_at(len);
                rest = tail;
                let specs: Vec<PointSpec> = group
                    .iter()
                    .filter_map(|&i| match &plan.points[i] {
                        PlannedPoint::Single { point, .. } => Some(*point),
                        PlannedPoint::Multi { .. } => None,
                    })
                    .collect();
                let record = |local: usize, outcome: &PointOutcome| {
                    let point = group[local];
                    let spec = &specs[local];
                    emit(
                        point,
                        &Record::Single {
                            point,
                            kernel,
                            spec,
                            outcome,
                        },
                    )
                };
                match LoadedTrace::load(kernel, prune, memo) {
                    Ok(trace) => {
                        let (_, p) =
                            sweep_engine(trace.source(), &specs, &plan.harness, prune, &record);
                        perf.absorb(&p);
                    }
                    Err(e) => {
                        let outcome = PointOutcome::Failed(e);
                        let _ = (0..specs.len()).try_for_each(|local| record(local, &outcome));
                    }
                }
            }
            PlannedPoint::Multi {
                stagger,
                count,
                soc,
            } => {
                rest = &rest[1..];
                let result = plan
                    .try_jobs_at(*stagger)
                    .map_err(SimError::from)
                    .and_then(|jobs| simulate_multi(&jobs[..*count], soc, &plan.harness));
                let (stagger, count) = (*stagger, *count);
                let _ = emit(
                    index,
                    &Record::Multi {
                        point: index,
                        stagger,
                        count,
                        soc,
                        result: &result,
                    },
                );
            }
        }
    }
    let (_, status) = state.into_inner().unwrap_or_else(PoisonError::into_inner);
    (perf, status)
}

/// Execute `plan`, appending one JSONL record per finished point to
/// `journal` in completion order. Points run through the shared executor:
/// one sweep-engine call per contiguous run of a kernel's points, typed
/// `L0280`/`L0262` error records for a trace broken after planning, and
/// `simulate_multi` for job-set points.
///
/// # Errors
///
/// Returns `L0266` diagnostics when the journal already exists (fresh
/// run), is missing or digest-mismatched (resume), or cannot be written —
/// a failed append stops the run, and the unjournaled points re-run on
/// resume.
pub fn run_campaign(
    plan: &CampaignPlan,
    journal: &Path,
    opts: &RunOptions,
) -> Result<RunSummary, Report> {
    let (finished, quarantined) = if opts.resume {
        let scan = scan_journal(journal, plan)?;
        // Corrupt mid-file records go to the `.quarantine` sidecar
        // (`L0292`) and their points re-run — never a silent miscount.
        let entries = scan
            .quarantined
            .iter()
            .map(|(n, l)| format!("line {n}: {l}"));
        write_quarantine(journal, entries);
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
    if !opts.resume {
        Record::Header { plan, worker: None }.append(&mut file)?;
    }

    let mut todo: Vec<usize> = (0..plan.points.len())
        .filter(|i| !finished.contains(i))
        .collect();
    if let Some(limit) = opts.limit {
        todo.truncate(limit);
    }

    let mut summary = RunSummary {
        total: plan.points.len(),
        skipped: finished.len(),
        ran: 0,
        failed: 0,
        pruned: 0,
        quarantined,
        journal: journal.to_path_buf(),
    };
    execute(
        plan,
        &todo,
        opts.prune,
        &mut KernelMemo::default(),
        &mut |_, record| {
            record.append(&mut file)?;
            match record.status() {
                Some(Status::Pruned) => summary.pruned += 1,
                Some(Status::Error) => {
                    summary.ran += 1;
                    summary.failed += 1;
                }
                Some(Status::Ok) | None => summary.ran += 1,
            }
            Ok(())
        },
    )
    .1?;
    Ok(summary)
}

/// Call `f` on every single point, with its index in `plan.points`, its
/// kernel, and what `load` gives for the kernel, loaded once per
/// contiguous run of the kernel's points.
fn for_each_single<T>(
    plan: &CampaignPlan,
    mut load: impl FnMut(&str) -> T,
    mut f: impl FnMut(usize, &str, &PointSpec, &T),
) {
    let mut loaded: Option<(&str, T)> = None;
    for (index, p) in plan.points.iter().enumerate() {
        if let PlannedPoint::Single { kernel, point } = p {
            if !matches!(&loaded, Some((name, _)) if name == kernel) {
                loaded = Some((kernel, load(kernel)));
            }
            let (_, value) = loaded.as_ref().expect("just loaded");
            f(index, kernel, point, value);
        }
    }
}

/// Call `f` on every single point of `plan`, in plan order, with its
/// index in `plan.points`, its kernel, and the kernel's materialized
/// trace, or the error that kept it from loading: `L0262` for an unknown
/// name, `L0280` for an `.atrc` file damaged or deleted since the plan
/// was validated. Each kernel is loaded once per contiguous run of its
/// points. Job-set points are skipped.
pub fn for_each_point_trace(
    plan: &CampaignPlan,
    mut f: impl FnMut(usize, &str, &PointSpec, Result<&Trace, &SimError>),
) {
    for_each_single(plan, materialize_trace, |index, kernel, point, trace| {
        f(index, kernel, point, trace.as_ref());
    });
}

/// How many of the plan's single points the process-wide result cache
/// already holds (the `sweep plan` forecast). Probing promotes disk-tier
/// hits into memory, pre-warming the subsequent run. Bundled kernels are
/// only fingerprinted, never traced; an `.atrc` entry is decoded once per
/// contiguous run of its points.
///
/// Always 0 when the campaign's harness is not inert (a fault seed or a
/// non-default watchdog) or the cache is off: those runs bypass the
/// cache, so nothing the cache holds will be served to them.
#[must_use]
pub fn forecast_cached(plan: &CampaignPlan) -> usize {
    if !cache_gate_open(&plan.harness) {
        return 0;
    }
    let mut memo = KernelMemo::default();
    memo.fingerprint_ahead(plan, &(0..plan.points.len()).collect::<Vec<_>>());
    let fingerprint = |kernel: &str| {
        if kernel.ends_with(".atrc") {
            materialize_trace(kernel).ok().map(|t| t.fingerprint())
        } else {
            memo.fingerprints.get(kernel).copied()
        }
    };
    let mut cached = 0;
    for_each_single(plan, fingerprint, |_, _, point, fp| {
        if fp.is_some_and(|fp| aladdin_dse::point_cached(fp, &point.dp, &point.soc, point.kind)) {
            cached += 1;
        }
    });
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
    for_each_point_trace(plan, |_, kernel, point, trace| {
        let bounds = trace.ok().and_then(|t| {
            aladdin_lint::bounds_for_point(t, &point.dp, &point.soc, point.kind, &plan.harness).ok()
        });
        let Some(b) = bounds else {
            unavailable += 1;
            return;
        };
        if !matches!(groups.last(), Some((name, _)) if name == kernel) {
            groups.push((kernel.to_owned(), Vec::new()));
        }
        groups.last_mut().expect("just pushed").1.push(b);
        all.push(b);
    });
    let mut summary = aladdin_lint::summarize_bounds(&all);
    summary.dominated = groups
        .iter()
        .map(|(_, bs)| aladdin_lint::summarize_bounds(bs).dominated)
        .sum();
    (summary, unavailable)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::campaign::CampaignSpec;
    use crate::journal::{json_field_u64, quarantine_path, read_finished};

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

        let finished = read_finished(&journal, &plan).expect("readable");
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

    /// A sink error (a failed journal append) stops the run: no later
    /// record reaches the sink and `execute` returns the error.
    #[test]
    fn execute_stops_at_the_first_sink_error() {
        let plan = tiny_plan();
        let mut calls = 0;
        let all: Vec<usize> = (0..plan.points.len()).collect();
        let err = execute(
            &plan,
            &all,
            false,
            &mut KernelMemo::default(),
            &mut |_, _| {
                calls += 1;
                Err(journal_err("disk full"))
            },
        )
        .1
        .expect_err("the sink failed");
        assert!(err.has_code("L0266"), "{}", err.to_human());
        assert_eq!(calls, 1, "nothing reaches the sink after an error");
    }

    /// A failed sink also cancels the sweep in flight: its workers stop
    /// claiming points, so each runs at most the point it already had.
    #[test]
    fn failed_sink_cancels_the_sweep_in_flight() {
        let plan = CampaignSpec::from_toml(
            r#"
name = "runner-cancel"
kernels = ["aes-aes"]
mems = ["isolated"]

[space]
lanes = [1, 2, 4, 8]
partitions = [1, 2, 4]
"#,
        )
        .expect("parses")
        .expand()
        .expect("expands");
        assert_eq!(plan.points.len(), 12);
        let all: Vec<usize> = (0..plan.points.len()).collect();
        let (perf, status) = execute(
            &plan,
            &all,
            false,
            &mut KernelMemo::default(),
            &mut |_, _| Err(journal_err("disk full")),
        );
        assert!(status.is_err());
        let threads = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
        assert!(
            perf.points >= 1 && perf.points <= threads as u64,
            "{} of 12 points ran on {threads} thread(s)",
            perf.points
        );
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
        let finished = read_finished(&journal, &plan).expect("readable");
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

    /// A job naming an unknown kernel, edited into a plan after `expand`
    /// validated it, is a typed `L0262` diagnostic from `try_jobs_at`, and
    /// the runner journals every such point as an error instead of
    /// panicking.
    #[test]
    fn unknown_job_kernel_after_planning_journals_typed_errors() {
        let mut plan = CampaignSpec::from_toml(
            r#"
name = "bad-job-kernel"
stagger = [0, 100]

[[jobs]]
kernel = "aes-aes"
mem = "isolated"
"#,
        )
        .expect("parses")
        .expand()
        .expect("expands");
        assert_eq!(plan.try_jobs_at(0).expect("valid plan").len(), 1);
        plan.spec.jobs[0].kernel = "no-such-kernel".to_string();
        let err = plan.try_jobs_at(0).expect_err("unknown kernel");
        assert_eq!(err.code, "L0262");
        assert!(err.message.contains("no-such-kernel"), "{err}");

        let journal = temp_path("bad-job-kernel");
        let summary = run_campaign(&plan, &journal, &RunOptions::default()).expect("runs");
        assert_eq!(summary.ran, plan.points.len());
        assert_eq!(summary.failed, plan.points.len());
        let text = std::fs::read_to_string(&journal).expect("journal");
        assert_eq!(text.lines().count(), plan.points.len() + 1);
        for line in text.lines().skip(1) {
            assert!(line.contains("\"status\":\"error\""), "{line}");
            assert!(line.contains("[L0262]"), "{line}");
        }
        let _ = std::fs::remove_file(&journal);
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
        let finished = read_finished(&journal, &plan).expect("readable");
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
        let outcome = PointOutcome::Pruned(aladdin_dse::PrunedPoint {
            index: 1,
            lo: 1000,
            power_floor_mw: 1.5,
            by_cycles: 400,
            by_power_mw: 0.9,
        });
        let record = Record::Single {
            point: 1,
            kernel: &kernel,
            spec: &spec,
            outcome: &outcome,
        }
        .to_string();
        let mut text = std::fs::read_to_string(&journal).unwrap();
        text.push_str(&record);
        text.push('\n');
        std::fs::write(&journal, text).unwrap();

        let finished = read_finished(&journal, &plan).expect("readable");
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

        let scan = scan_journal(&journal, &plan).expect("scans");
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

    /// A record naming a point the plan does not have is corrupt: it is
    /// quarantined, never counted as finished, and the point it displaced
    /// re-runs. Counting it made `skipped` exceed `total` and kept the
    /// campaign incomplete forever.
    #[test]
    fn out_of_plan_points_quarantine_and_rerun() {
        let plan = CampaignSpec::from_toml(
            r#"
name = "runner-out-of-plan"
kernels = ["aes-aes"]
mems = ["isolated"]

[space]
lanes = [1, 2]
partitions = [1, 2]
"#,
        )
        .expect("parses")
        .expand()
        .expect("expands");
        assert_eq!(plan.points.len(), 4);
        let journal = temp_path("out-of-plan");
        let limited = RunOptions {
            limit: Some(3),
            ..RunOptions::default()
        };
        run_campaign(&plan, &journal, &limited).expect("runs");
        let text = std::fs::read_to_string(&journal).unwrap();
        let moved = text.replacen("{\"point\":0,", "{\"point\":54,", 1);
        assert_ne!(moved, text, "point 0 ran under the limit");
        std::fs::write(&journal, moved).unwrap();

        let scan = scan_journal(&journal, &plan).expect("scans");
        assert!(scan.finished.iter().all(|&p| p < plan.points.len()));
        assert_eq!(scan.finished.len(), 2);
        assert_eq!(scan.quarantined.len(), 1);

        let resume = RunOptions {
            resume: true,
            ..RunOptions::default()
        };
        let first = run_campaign(&plan, &journal, &resume).expect("resumes");
        assert_eq!((first.skipped, first.ran), (2, 2));
        assert_eq!(first.quarantined, 1);
        assert!(first.complete());
        let second = run_campaign(&plan, &journal, &resume).expect("resumes");
        assert_eq!((second.total, second.skipped, second.ran), (4, 4, 0));
        assert_eq!(second.quarantined, 1);
        assert!(second.complete());
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(quarantine_path(&journal));
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
        // Append an older worker's retry breadcrumb for point 1 and a
        // coordinator event line.
        let retried = r#"{"point":1,"kernel":"aes-aes","mem":"isolated","lanes":2,"partition":1,"status":"retried","attempt":1,"backoff_ms":5,"error":"deadlock"}"#;
        let mut text = std::fs::read_to_string(&journal).unwrap();
        text.push_str(retried);
        text.push('\n');
        text.push_str("{\"event\":\"reclaim\",\"point\":1,\"from\":\"w1\",\"code\":\"L0290\"}\n");
        std::fs::write(&journal, text).unwrap();

        let scan = scan_journal(&journal, &plan).expect("scans");
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

        let finished = read_finished(&journal, &plan).expect("readable");
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

    fn plan_of(toml: &str) -> CampaignPlan {
        CampaignSpec::from_toml(toml)
            .expect("parses")
            .expand()
            .expect("expands")
    }

    fn hashed() -> usize {
        HASHED.with(std::cell::Cell::get)
    }

    fn built() -> usize {
        BUILT.with(std::cell::Cell::get)
    }

    /// A journal's point records, sorted (completion order varies).
    fn sorted_records(journal: &Path) -> Vec<String> {
        let text = std::fs::read_to_string(journal).expect("journal");
        let mut lines: Vec<String> = text.lines().skip(1).map(str::to_owned).collect();
        lines.sort();
        lines
    }

    /// Every `run_campaign` call fingerprints each bundled kernel once,
    /// up front, warm or cold, pruned or not; a warm pass journals what
    /// the cold one did without building a trace; a faulted campaign
    /// fingerprints nothing.
    #[test]
    fn warm_run_hashes_each_kernel_once_and_journals_the_cold_records() {
        let toml = r#"
name = "runner-warm"
kernels = ["aes-aes", "kmp", "viterbi"]
mems = ["isolated"]

[space]
lanes = [1, 2]
partitions = [1, 2]
"#;
        let plan = plan_of(toml);
        let run = |name: &str, prune: bool, plan: &CampaignPlan| {
            let journal = temp_path(name);
            let opts = RunOptions {
                prune,
                ..RunOptions::default()
            };
            let (hashes, builds) = (hashed(), built());
            let summary = run_campaign(plan, &journal, &opts).expect("runs");
            assert!(summary.complete(), "{name}");
            let records = sorted_records(&journal);
            let _ = std::fs::remove_file(&journal);
            (records, hashed() - hashes, built() - builds)
        };

        let (cold, hashes, _) = run("warm-cold", false, &plan);
        assert_eq!(hashes, 3);
        let (warm, hashes, builds) = run("warm-warm", false, &plan);
        assert_eq!((hashes, builds), (3, 0), "every point is a hit");
        assert_eq!(warm, cold);
        let (_, hashes, _) = run("warm-pruned", true, &plan);
        assert_eq!(hashes, 3);

        let faulted = plan_of(&format!("{toml}\n[faults]\nseed = 7\n"));
        let (_, hashes, builds) = run("warm-faulted", false, &faulted);
        assert_eq!((hashes, builds), (0, 3), "faulted runs build every trace");
    }

    /// An `.atrc` entry beside bundled kernels is neither fingerprinted
    /// nor materialized: only the bundled kernels are hashed, and the
    /// file's points stream as before.
    #[test]
    fn atrc_entry_beside_bundled_kernels_is_streamed_not_hashed() {
        let (atrc_only, atrc_path) = atrc_plan("beside");
        let PlannedPoint::Single { kernel: path, .. } = &atrc_only.points[0] else {
            unreachable!("a sweep campaign");
        };
        let plan = plan_of(&format!(
            r#"
name = "runner-beside"
kernels = ["{path}", "aes-aes", "kmp"]
mems = ["isolated"]

[space]
lanes = [1, 2]
partitions = [1]
"#
        ));
        let all: Vec<usize> = (0..plan.points.len()).collect();
        let before = hashed();
        let mut records = Vec::new();
        let (perf, status) = execute(
            &plan,
            &all,
            false,
            &mut KernelMemo::default(),
            &mut |_, r| {
                records.push(r.to_string());
                Ok(())
            },
        );
        status.expect("journals");
        assert_eq!(hashed() - before, 2, "only the bundled kernels");
        assert_eq!(perf.streamed_points, 2, "the .atrc points stream");
        assert_eq!(records.len(), plan.points.len());
        assert!(records.iter().all(|r| r.contains("\"status\":\"ok\"")));
        let _ = std::fs::remove_file(&atrc_path);
    }

    /// The `sweep plan` cache forecast fingerprints each bundled kernel
    /// and traces none; the bounds forecast then traces each kernel once.
    #[test]
    fn plan_forecasts_trace_each_kernel_once() {
        let plan = plan_of(
            r#"
name = "runner-forecast"
kernels = ["aes-aes", "kmp", "viterbi"]
mems = ["isolated"]

[space]
lanes = [1, 2]
partitions = [1, 2]
"#,
        );
        let (hashes, builds) = (hashed(), built());
        let _ = forecast_cached(&plan);
        assert_eq!((hashed() - hashes, built() - builds), (3, 0));
        let (_, unavailable) = plan_bounds(&plan);
        assert_eq!(unavailable, 0);
        assert_eq!(built() - builds, 3, "one build per kernel in all");
    }

    /// A worker's batches of one kernel share one trace build, cold or
    /// faulted; the memo drops it when a batch names another kernel.
    #[test]
    fn batches_of_one_kernel_build_its_trace_once() {
        // A kernel no other test here runs, so every point misses.
        let toml = r#"
name = "runner-batches"
kernels = ["sort-merge"]
mems = ["isolated"]

[space]
lanes = [1, 2, 4, 8]
partitions = [1, 2, 4]
"#;
        let faulted = format!("{toml}\n[faults]\nseed = 7\n");
        for toml in [toml, &faulted] {
            let plan = plan_of(toml);
            assert_eq!(plan.points.len(), 12);
            let all: Vec<usize> = (0..plan.points.len()).collect();
            let mut memo = KernelMemo::default();
            let (before, mut records) = (built(), 0);
            for batch in all.chunks(2) {
                let (perf, status) = execute(&plan, batch, false, &mut memo, &mut |_, _| {
                    records += 1;
                    Ok(())
                });
                status.expect("journals");
                assert_eq!(perf.cache_hits, 0, "a cold plan");
            }
            assert_eq!(records, 12);
            assert_eq!(built() - before, 1, "one build for six batches");

            let other = tiny_plan();
            let _ = execute(&other, &[0], false, &mut memo, &mut |_, _| Ok(()));
            let resident = memo.resident.as_ref().map(|(k, _)| k.as_str());
            assert_eq!(resident, Some("aes-aes"), "the old kernel is dropped");
        }
    }
}
