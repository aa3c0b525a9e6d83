//! Crash-safe multi-worker campaign coordination: N `sweep work`
//! processes pull design points from one shared campaign directory under
//! per-point **leases**, run them through the same executor as `sweep
//! run`, and append to their own journal segments; `sweep coordinate`
//! merges the segments into one journal, quarantining anything corrupt.
//!
//! # The coordination directory
//!
//! ```text
//! <dir>/
//!   meta.json                  campaign name, digest, point count
//!   leases/point-NNNNNN.lease  one per in-flight point: owner + pid
//!   hearts/<worker>.hb         per-worker heartbeat (mtime is the signal)
//!   journal/<worker>.jsonl     per-worker journal segment
//!   merged.jsonl               written by coordinate(): one record/point
//!   merged.jsonl.quarantine    corrupt records found during the merge
//! ```
//!
//! # Safety argument
//!
//! *Claiming* publishes a fully written lease file with an atomic
//! `hard_link`, which fails if the lease exists — exactly one worker wins
//! a point, and no reader ever sees a half-written lease. *Finishing*
//! appends one flushed record to the winner's own segment **before** the
//! lease is released, so a crash at any instant leaves the point either
//! (a) journaled (finished — the stale lease is ignored), or (b) not
//! journaled under a lease whose owner has stopped heartbeating (reclaimed
//! by any other worker after [`WorkerConfig::lease_timeout`],
//! `L0290`/`L0291`). A kill mid-append
//! leaves a truncated tail in one segment, which every scanner ignores;
//! corrupt *mid-file* records are quarantined (`L0292`), never silently
//! counted. Workers never write any shared file except their own segment
//! and their own heartbeat, so no write is ever contended.
//!
//! Simulation is deterministic, so the rare benign race — a live but
//! slow worker losing its lease to a reclaimer, both finishing the same
//! point — produces bit-identical records; the merge keeps the first and
//! counts the duplicate. The merged journal is therefore
//! record-for-record identical to a single-process `sweep run` of the
//! same spec, whatever the kill schedule.
//!
//! # Batches
//!
//! A worker claims up to `available_parallelism()` unfinished points at a
//! time — the thread count the sweep engine runs on — and hands the batch
//! to `execute`, the dispatcher `sweep run` uses. Each finished point
//! is journaled, then its lease released. A failed point is journaled
//! once as a terminal error: simulation is deterministic (seeded faults,
//! a watchdog in simulated cycles), so re-running it could only fail the
//! same way. A failing point never aborts the campaign; a failing journal
//! write does (`L0266`), leaving the point's lease to go stale.

use std::collections::{BTreeMap, HashSet};
use std::io::Write;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use aladdin_dse::SweepPerf;
use aladdin_ir::{Diagnostic, Report};

use crate::campaign::CampaignPlan;
use crate::journal::{
    body_lines, check_header, classify_line, journal_err, json_field_str, scan_journal,
    write_quarantine, LineClass, Record, Status,
};
use crate::runner::{execute, KernelMemo};

/// Lease expired and was reclaimed (or is still lying around stale).
pub const CODE_LEASE: &str = "L0290";
/// A worker's heartbeat went stale (presumed dead).
pub const CODE_HEARTBEAT: &str = "L0291";
/// A corrupt journal record was quarantined.
pub const CODE_QUARANTINE: &str = "L0292";

/// How one worker process participates in a shared campaign.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// The shared coordination directory.
    pub dir: PathBuf,
    /// This worker's id — unique per live worker; also its segment and
    /// heartbeat file name (letters, digits, `-`, `_`, `.`).
    pub worker: String,
    /// How long a lease may sit without its owner heartbeating before
    /// any other worker may reclaim it.
    pub lease_timeout: Duration,
    /// How long to sleep when every unfinished point is leased by a
    /// live worker.
    pub poll: Duration,
    /// Claim at most this many points, then exit (the campaign stays
    /// coordinated — other workers finish it).
    pub limit: Option<usize>,
    /// [`RunOptions::prune`](crate::RunOptions::prune), applied within
    /// each claimed batch.
    pub prune: bool,
}

impl WorkerConfig {
    /// Defaults for a worker on `dir`: id `w<pid>`, 30 s lease timeout,
    /// 200 ms poll, no limit, no pruning.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WorkerConfig {
            dir: dir.into(),
            worker: format!("w{}", std::process::id()),
            lease_timeout: Duration::from_secs(30),
            poll: Duration::from_millis(200),
            limit: None,
            prune: false,
        }
    }
}

/// What one [`run_worker`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSummary {
    /// This worker's id.
    pub worker: String,
    /// Total points in the plan.
    pub total: usize,
    /// Points this worker claimed and drove to a terminal record.
    pub claimed: usize,
    /// Of those, points whose outcome was a simulation error.
    pub failed: usize,
    /// Stale leases this worker reclaimed from dead workers (`L0290`).
    pub reclaimed: usize,
    /// Corrupt records quarantined from this worker's own prior segment.
    pub quarantined: usize,
    /// Sweep counters for this worker's simulations (cache hit rate,
    /// scheduler work, wall time).
    pub perf: SweepPerf,
    /// This worker's journal segment.
    pub journal: PathBuf,
    /// Whether every point of the campaign was journaled (by anyone)
    /// when this worker exited.
    pub complete: bool,
}

fn meta_path(dir: &Path) -> PathBuf {
    dir.join("meta.json")
}
fn leases_dir(dir: &Path) -> PathBuf {
    dir.join("leases")
}
fn hearts_dir(dir: &Path) -> PathBuf {
    dir.join("hearts")
}
fn segments_dir(dir: &Path) -> PathBuf {
    dir.join("journal")
}
fn lease_path(dir: &Path, index: usize) -> PathBuf {
    leases_dir(dir).join(format!("point-{index:06}.lease"))
}
fn heart_path(dir: &Path, worker: &str) -> PathBuf {
    hearts_dir(dir).join(format!("{worker}.hb"))
}

/// The journal segment a worker appends to.
#[must_use]
pub fn segment_path(dir: &Path, worker: &str) -> PathBuf {
    segments_dir(dir).join(format!("{worker}.jsonl"))
}

/// The merged journal `coordinate` writes.
#[must_use]
pub fn merged_path(dir: &Path) -> PathBuf {
    dir.join("merged.jsonl")
}

/// Create `path` holding `contents`, atomically: the bytes go to a unique
/// temp file in the same directory first and are published with
/// `hard_link`, which fails (`AlreadyExists`) if `path` exists. Exactly
/// one of several racing creators wins, and no reader ever sees the file
/// empty or half-written.
fn publish_new(path: &Path, contents: &str) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(
        ".tmp-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    let published = std::fs::write(&tmp, contents).and_then(|()| std::fs::hard_link(&tmp, path));
    let _ = std::fs::remove_file(&tmp);
    published
}

/// Create the coordination directory (idempotent) and verify `meta.json`
/// names this campaign. The first arrival publishes the meta with
/// [`publish_new`]; everyone else checks the digest, so workers can never
/// interleave two different campaigns in one directory.
fn init_dir(plan: &CampaignPlan, dir: &Path) -> Result<(), Report> {
    for d in [
        dir.to_path_buf(),
        leases_dir(dir),
        hearts_dir(dir),
        segments_dir(dir),
    ] {
        std::fs::create_dir_all(&d)
            .map_err(|e| journal_err(format!("cannot create {}: {e}", d.display())))?;
    }
    let meta = Record::Header { plan, worker: None };
    match publish_new(&meta_path(dir), &format!("{meta}\n")) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => verify_meta(plan, dir),
        Err(e) => Err(journal_err(format!("cannot write campaign meta: {e}"))),
    }
}

/// Check that an existing `meta.json` records this campaign's digest.
fn verify_meta(plan: &CampaignPlan, dir: &Path) -> Result<(), Report> {
    let meta = meta_path(dir);
    let text = std::fs::read_to_string(&meta)
        .map_err(|e| journal_err(format!("cannot read {}: {e}", meta.display())))?;
    check_header(&meta, text.lines().next(), plan.digest)
}

/// Refresh this worker's heartbeat. The file's mtime is the liveness
/// signal; the pid content is forensic only.
fn beat(dir: &Path, worker: &str) {
    let _ = std::fs::write(heart_path(dir, worker), format!("{}\n", std::process::id()));
}

fn age_of(path: &Path) -> Option<Duration> {
    std::fs::metadata(path)
        .and_then(|m| m.modified())
        .ok()?
        .elapsed()
        .ok()
}

/// Whether a lease may be reclaimed: both the lease itself and its
/// owner's heartbeat must be older than the timeout (a missing heartbeat
/// counts as infinitely old). Checking both means a freshly written
/// lease is never stolen even if its owner has not beaten yet.
fn lease_is_stale(dir: &Path, lease: &Path, owner: &str, timeout: Duration) -> bool {
    let lease_old = age_of(lease).is_some_and(|a| a > timeout);
    if !lease_old {
        return false;
    }
    age_of(&heart_path(dir, owner)).is_none_or(|a| a > timeout)
}

fn read_lease_owner(path: &Path) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    json_field_str(text.lines().next()?, "owner").map(str::to_owned)
}

/// Outcome of one claim attempt.
enum Claim {
    /// We hold the lease; run the point.
    Acquired {
        /// The previous owner, when the lease was reclaimed from a dead
        /// worker (`L0290`/`L0291`).
        reclaimed_from: Option<String>,
    },
    /// Someone else (alive, as far as we can tell) holds it.
    Held,
}

/// Try to lease `index`. Claiming publishes a fully written lease with
/// [`publish_new`]; reclaiming a stale lease first renames it to a
/// tombstone (atomic — exactly one reclaimer wins) and then re-claims. A
/// lease nobody can read (empty or damaged, e.g. by a writer killed
/// mid-write) has no owner to heartbeat, so it is stale once the lease
/// itself is older than the timeout.
fn try_claim(cfg: &WorkerConfig, index: usize) -> Claim {
    let path = lease_path(&cfg.dir, index);
    let lease = Record::Lease {
        point: index,
        owner: &cfg.worker,
    };
    let lease = format!("{lease}\n");
    let mut reclaimed_from = None;
    let mut tomb_seq = 0u32;
    loop {
        match publish_new(&path, &lease) {
            Ok(()) => return Claim::Acquired { reclaimed_from },
            Err(e) if e.kind() != std::io::ErrorKind::AlreadyExists => return Claim::Held,
            Err(_) => {}
        }
        let owner = read_lease_owner(&path);
        let stale = match &owner {
            // Our own lease from a previous life of this worker id
            // (crash + restart): we still own it.
            Some(owner) if *owner == cfg.worker => return Claim::Acquired { reclaimed_from },
            Some(owner) => lease_is_stale(&cfg.dir, &path, owner, cfg.lease_timeout),
            // The lease vanished between the publish and the read — its
            // owner just finished or released: race the publish again.
            None if !path.exists() => continue,
            None => age_of(&path).is_some_and(|a| a > cfg.lease_timeout),
        };
        if !stale {
            return Claim::Held;
        }
        let tomb = leases_dir(&cfg.dir).join(format!(
            "point-{index:06}.reclaimed-by-{}-{tomb_seq}",
            cfg.worker
        ));
        tomb_seq += 1;
        if std::fs::rename(&path, &tomb).is_err() {
            // Lost the reclaim race to another worker.
            return Claim::Held;
        }
        reclaimed_from = Some(owner.unwrap_or_else(|| "unknown".to_owned()));
    }
}

/// Journal one finished point, then release its lease and heartbeat —
/// in that order, so a crash in between leaves a finished point under a
/// stale lease, which scanners ignore.
///
/// # Errors
///
/// `L0266` when the append fails; the lease is then kept, goes stale, and
/// another worker re-runs the point.
fn finish_point(
    cfg: &WorkerConfig,
    segment: &mut dyn Write,
    index: usize,
    record: &Record,
) -> Result<(), Report> {
    record.append(segment)?;
    let _ = std::fs::remove_file(lease_path(&cfg.dir, index));
    beat(&cfg.dir, &cfg.worker);
    Ok(())
}

/// Incremental scanner over every segment in the directory: each
/// `refresh` reads only bytes appended since the last call (per-file
/// cursors), so the per-claim finished-set re-check stays O(new records)
/// instead of re-reading every journal. Only *complete* lines (ending in
/// a newline) are ever consumed — a torn tail from a killed worker sits
/// unconsumed until (never) completed. Corrupt complete lines do not
/// count as finished; segments whose header digest mismatches are
/// ignored entirely (`coordinate` flags them).
struct SegmentTracker {
    dir: PathBuf,
    digest: u64,
    points: usize,
    offsets: std::collections::HashMap<PathBuf, u64>,
    ignored: HashSet<PathBuf>,
    finished: HashSet<usize>,
}

impl SegmentTracker {
    fn new(dir: &Path, plan: &CampaignPlan) -> Self {
        SegmentTracker {
            dir: dir.to_path_buf(),
            digest: plan.digest,
            points: plan.points.len(),
            offsets: std::collections::HashMap::new(),
            ignored: HashSet::new(),
            finished: HashSet::new(),
        }
    }

    fn refresh(&mut self) {
        use std::io::{Read as _, Seek as _, SeekFrom};
        let Ok(entries) = std::fs::read_dir(segments_dir(&self.dir)) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("jsonl")
                || self.ignored.contains(&path)
            {
                continue;
            }
            let Ok(mut file) = std::fs::File::open(&path) else {
                continue;
            };
            let off = self.offsets.get(&path).copied().unwrap_or(0);
            if file.seek(SeekFrom::Start(off)).is_err() {
                continue;
            }
            let mut buf = String::new();
            if file.read_to_string(&mut buf).is_err() {
                continue;
            }
            // Consume up to the last newline; a partial final line waits
            // for the next refresh (or stays torn forever — ignored).
            let Some(complete_len) = buf.rfind('\n').map(|i| i + 1) else {
                continue;
            };
            let mut advanced = 0u64;
            let mut chunks = buf[..complete_len].split_inclusive('\n');
            if off == 0 {
                let Some(header) = chunks.next() else {
                    continue;
                };
                if check_header(&path, Some(header), self.digest).is_err() {
                    self.ignored.insert(path);
                    continue;
                }
                advanced += header.len() as u64;
            }
            for chunk in chunks {
                if let LineClass::Finished(point) =
                    classify_line(chunk.trim_end(), false, self.points)
                {
                    self.finished.insert(point);
                }
                advanced += chunk.len() as u64;
            }
            self.offsets.insert(path, off + advanced);
        }
    }
}

/// Participate in a shared campaign: claim batches of unfinished points
/// under leases, run each batch through `execute`, and append one
/// flushed record per finished point to this worker's own journal
/// segment. Returns when every point of the campaign is journaled (by any
/// worker) or [`WorkerConfig::limit`] is reached.
///
/// Restarting a crashed worker under the same id resumes its segment:
/// its own finished points are skipped, corrupt records from the crash
/// are quarantined (`L0292`), and any lease it still holds is re-owned.
///
/// # Errors
///
/// Returns `L0266` diagnostics when the directory cannot be created,
/// coordinates a different campaign, or this worker's segment is
/// unwritable — never for simulation failures or traces broken after
/// planning, which are journaled.
pub fn run_worker(plan: &CampaignPlan, cfg: &WorkerConfig) -> Result<WorkerSummary, Report> {
    if cfg.worker.is_empty()
        || !cfg
            .worker
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
    {
        return Err(journal_err(format!(
            "worker id {:?} is not filesystem-safe",
            cfg.worker
        )));
    }
    init_dir(plan, &cfg.dir)?;

    let segment = segment_path(&cfg.dir, &cfg.worker);
    let mut summary = WorkerSummary {
        worker: cfg.worker.clone(),
        total: plan.points.len(),
        claimed: 0,
        failed: 0,
        reclaimed: 0,
        quarantined: 0,
        perf: SweepPerf::default(),
        journal: segment.clone(),
        complete: false,
    };

    // Resume our own segment: quarantine crash damage, skip our own
    // finished points, append from here on.
    let mut tracker = SegmentTracker::new(&cfg.dir, plan);
    let fresh = !segment.exists();
    if !fresh {
        let scan = scan_journal(&segment, plan)?;
        let entries = scan
            .quarantined
            .iter()
            .map(|(n, l)| format!("line {n}: {l}"));
        write_quarantine(&segment, entries);
        summary.quarantined = scan.quarantined.len();
        tracker.finished.extend(scan.finished.iter().copied());
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&segment)
        .map_err(|e| journal_err(format!("cannot open {}: {e}", segment.display())))?;
    if fresh {
        let header = Record::Header {
            plan,
            worker: Some(&cfg.worker),
        };
        header.append(&mut file)?;
    }
    beat(&cfg.dir, &cfg.worker);

    // Each kernel is fingerprinted once per call, and traced and graphed
    // once per run of batches that name it, not once per batch.
    let mut memo = KernelMemo::default();
    // As many points as the sweep engine runs at once.
    let batch_size = std::thread::available_parallelism().map_or(4, NonZeroUsize::get);
    loop {
        tracker.refresh();
        if tracker.finished.len() >= plan.points.len() {
            break;
        }
        let room = cfg
            .limit
            .map_or(batch_size, |l| batch_size.min(l - summary.claimed));
        if room == 0 {
            break;
        }

        let mut batch = Vec::new();
        for index in 0..plan.points.len() {
            if batch.len() == room {
                break;
            }
            if tracker.finished.contains(&index) {
                continue;
            }
            let reclaimed_from = match try_claim(cfg, index) {
                Claim::Acquired { reclaimed_from } => reclaimed_from,
                Claim::Held => continue,
            };
            beat(&cfg.dir, &cfg.worker);
            tracker.refresh();
            if tracker.finished.contains(&index) {
                // Someone journaled this point after our last look:
                // either its owner released the lease just before our
                // publish won, or we reclaimed a dead owner's lease whose
                // record had already landed. Records are written before
                // leases are released, so this re-check is airtight —
                // release and move on, never re-run.
                let _ = std::fs::remove_file(lease_path(&cfg.dir, index));
                continue;
            }
            if let Some(from) = reclaimed_from {
                summary.reclaimed += 1;
                // Breadcrumb for the merge and for `soclint campaign
                // --journal`: the lease expired (L0290) because its
                // owner's heartbeat went stale (L0291).
                let by = &cfg.worker;
                Record::Reclaim {
                    point: index,
                    from: &from,
                    by,
                }
                .append(&mut file)?;
            }
            batch.push(index);
        }

        if batch.is_empty() {
            // Everything unfinished is leased by live workers: wait for
            // them to finish, die, or go stale.
            std::thread::sleep(cfg.poll);
            beat(&cfg.dir, &cfg.worker);
            continue;
        }
        let (perf, status) = execute(plan, &batch, cfg.prune, &mut memo, &mut |index, record| {
            finish_point(cfg, &mut file, index, record)?;
            tracker.finished.insert(index);
            summary.claimed += 1;
            if record.status() == Some(Status::Error) {
                summary.failed += 1;
            }
            Ok(())
        });
        status?;
        summary.perf.absorb(&perf);
    }

    summary.complete = tracker.finished.len() >= plan.points.len();
    Ok(summary)
}

/// What `coordinate` found while merging.
#[derive(Debug, Clone)]
pub struct CoordinateSummary {
    /// Total points in the plan.
    pub total: usize,
    /// Points with an `"ok"` record.
    pub done: usize,
    /// Points with a terminal `"error"` record.
    pub failed: usize,
    /// Points with a `"pruned"` record.
    pub pruned: usize,
    /// Lease-reclaim events across all segments.
    pub reclaims: usize,
    /// Duplicate terminal records dropped by first-wins dedupe (two
    /// workers raced a reclaim; records are bit-identical).
    pub duplicates: usize,
    /// Corrupt records quarantined to the merged sidecar (`L0292`).
    pub quarantined: usize,
    /// Terminal records attributed per worker segment, sorted by worker.
    pub per_worker: Vec<(String, usize)>,
    /// Leases still present whose owner's heartbeat is stale (`L0290`).
    pub stale_leases: usize,
    /// The merged journal path.
    pub merged: PathBuf,
    /// Whether every point has a terminal record.
    pub complete: bool,
    /// Integrity findings: `L0290`/`L0291` stale state, `L0292`
    /// quarantines, `L0266` foreign segments.
    pub report: Report,
}

/// Everything a read-only scan of a coordination directory yields.
#[derive(Default)]
struct DirScan {
    records: BTreeMap<usize, String>,
    per_worker: Vec<(String, usize)>,
    reclaims: usize,
    duplicates: usize,
    quarantined: Vec<(String, usize, String)>,
    report: Report,
}

/// Scan every segment (read-only): first-wins terminal records per
/// point, per-worker counts, reclaim tallies, corrupt records, and
/// stale-lease findings. A segment of another campaign is reported
/// (`L0266`) and its records ignored.
fn scan_dir(plan: &CampaignPlan, dir: &Path) -> DirScan {
    let mut scan = DirScan::default();
    let mut segments: Vec<PathBuf> = std::fs::read_dir(segments_dir(dir))
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("jsonl"))
        .collect();
    segments.sort();

    for path in segments {
        let worker = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let Ok(text) = std::fs::read_to_string(&path) else {
            scan.report.push(Diagnostic::error(
                "L0266",
                format!("cannot read segment {}", path.display()),
            ));
            continue;
        };
        let body = match body_lines(&path, &text, plan) {
            Ok(body) => body,
            Err(r) => {
                scan.report.merge(r);
                continue;
            }
        };
        let mut count = 0usize;
        for (lineno, class, line) in body {
            match class {
                LineClass::Finished(point) => match scan.records.entry(point) {
                    std::collections::btree_map::Entry::Occupied(_) => scan.duplicates += 1,
                    std::collections::btree_map::Entry::Vacant(slot) => {
                        slot.insert(line.to_owned());
                        count += 1;
                    }
                },
                LineClass::Corrupt => {
                    scan.quarantined
                        .push((worker.clone(), lineno, line.to_owned()));
                }
                LineClass::Event => scan.reclaims += 1,
                LineClass::Retried | LineClass::TruncatedTail => {}
            }
        }
        scan.per_worker.push((worker, count));
    }

    for (worker, lineno, _) in &scan.quarantined {
        scan.report.push(Diagnostic::warning(
            CODE_QUARANTINE,
            format!("segment {worker} line {lineno}: corrupt record quarantined"),
        ));
    }

    // Stale coordinator state: leases whose owner stopped heartbeating.
    for entry in std::fs::read_dir(leases_dir(dir))
        .into_iter()
        .flatten()
        .flatten()
    {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("lease") {
            continue;
        }
        let Some(owner) = read_lease_owner(&path) else {
            continue;
        };
        // Any timeout has passed for a *finished* campaign; for the
        // lint path we only report leases whose owner looks dead now.
        if age_of(&heart_path(dir, &owner)).is_none_or(|a| a > Duration::from_secs(30)) {
            scan.report.push(Diagnostic::warning(
                CODE_LEASE,
                format!(
                    "{} is still leased by {owner}, whose heartbeat is stale",
                    path.file_name().unwrap_or_default().to_string_lossy()
                ),
            ));
            scan.report.push(Diagnostic::warning(
                CODE_HEARTBEAT,
                format!("worker {owner} stopped heartbeating; presumed dead"),
            ));
        }
    }

    scan
}

/// Merge every worker's journal segment into `merged.jsonl`: one header
/// plus exactly one terminal record per finished point, in point order —
/// record-for-record identical to a single-process `sweep run`. Corrupt
/// records go to the `merged.jsonl.quarantine` sidecar (`L0292`);
/// leftover stale leases and heartbeats are reported (`L0290`/`L0291`).
///
/// Safe to run while workers are still going (it reads segments, writes
/// only `merged.jsonl`) and safe to re-run any number of times.
///
/// # Errors
///
/// Returns `L0266` diagnostics when the directory does not coordinate
/// this campaign or the merged journal cannot be written.
pub fn coordinate(plan: &CampaignPlan, dir: &Path) -> Result<CoordinateSummary, Report> {
    verify_meta(plan, dir)?;
    let scan = scan_dir(plan, dir);
    let report = scan.report;

    let merged = merged_path(dir);
    let mut text = format!("{}\n", Record::Header { plan, worker: None });
    let mut done = 0usize;
    let mut failed = 0usize;
    let mut pruned = 0usize;
    for line in scan.records.values() {
        match json_field_str(line, "status") {
            Some("ok") => done += 1,
            Some("error") => failed += 1,
            Some("pruned") => pruned += 1,
            _ => {}
        }
        text.push_str(line);
        text.push('\n');
    }
    let tmp = dir.join(format!("merged.jsonl.tmp-{}", std::process::id()));
    std::fs::write(&tmp, &text)
        .and_then(|()| std::fs::rename(&tmp, &merged))
        .map_err(|e| journal_err(format!("cannot write {}: {e}", merged.display())))?;

    // The merged sidecar mirrors the per-segment quarantine findings.
    let entries = scan.quarantined.iter();
    write_quarantine(
        &merged,
        entries.map(|(w, n, l)| format!("{w} line {n}: {l}")),
    );

    let stale_leases = report
        .diagnostics()
        .iter()
        .filter(|d| d.code == CODE_LEASE)
        .count();
    let complete = scan.records.len() >= plan.points.len();
    Ok(CoordinateSummary {
        total: plan.points.len(),
        done,
        failed,
        pruned,
        reclaims: scan.reclaims,
        duplicates: scan.duplicates,
        quarantined: scan.quarantined.len(),
        per_worker: scan.per_worker,
        stale_leases,
        merged,
        complete,
        report,
    })
}

/// Read-only journal integrity report for `soclint campaign --journal`:
/// accepts either a coordination directory (segments, leases, and
/// heartbeats are all checked — `L0290`/`L0291`/`L0292`/`L0266`) or a
/// single journal file (`L0292`/`L0266`). Writes nothing.
#[must_use]
pub fn journal_report(plan: &CampaignPlan, path: &Path) -> Report {
    let total = plan.points.len();
    let (mut report, summary) = if path.is_dir() {
        if let Err(r) = verify_meta(plan, path) {
            return r;
        }
        let scan = scan_dir(plan, path);
        let workers: Vec<String> = scan
            .per_worker
            .iter()
            .map(|(w, n)| format!("{w}={n}"))
            .collect();
        let summary = format!(
            "{} of {total} point(s) journaled across {} segment(s) ({}); {} reclaim(s)",
            scan.records.len(),
            workers.len(),
            workers.join(", "),
            scan.reclaims
        );
        (scan.report, summary)
    } else {
        let scan = match scan_journal(path, plan) {
            Ok(scan) => scan,
            Err(r) => return r,
        };
        let mut report = Report::new();
        for (lineno, _) in &scan.quarantined {
            report.push(Diagnostic::warning(
                CODE_QUARANTINE,
                format!("line {lineno}: corrupt record quarantined"),
            ));
        }
        let (finished, events) = (scan.finished.len(), scan.events);
        let summary = format!("{finished} of {total} point(s) journaled; {events} event(s)");
        (report, summary)
    };
    report.push(Diagnostic::info("L0266", summary));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignSpec, PlannedPoint};
    use crate::runner::{run_campaign, RunOptions};

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("aladdin-coord-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn tiny_plan() -> CampaignPlan {
        CampaignSpec::from_toml(
            r#"
name = "coord-test"
kernels = ["aes-aes"]
mems = ["isolated"]

[space]
lanes = [1, 2]
partitions = [1, 2]
"#,
        )
        .expect("parses")
        .expand()
        .expect("expands")
    }

    fn fast_cfg(dir: &Path, worker: &str) -> WorkerConfig {
        WorkerConfig {
            worker: worker.to_owned(),
            lease_timeout: Duration::from_millis(300),
            poll: Duration::from_millis(20),
            ..WorkerConfig::new(dir)
        }
    }

    #[test]
    fn one_worker_completes_and_merge_matches_single_process() {
        let plan = tiny_plan();
        let dir = temp_dir("solo");
        let summary = run_worker(&plan, &fast_cfg(&dir, "w1")).expect("works");
        assert_eq!(summary.claimed, plan.points.len());
        assert_eq!(summary.failed, 0);
        assert!(summary.complete);

        let merged = coordinate(&plan, &dir).expect("merges");
        assert!(merged.complete);
        assert_eq!(merged.done, plan.points.len());
        assert_eq!(merged.duplicates, 0);
        assert_eq!(merged.quarantined, 0);
        assert_eq!(
            merged.per_worker,
            vec![("w1".to_owned(), plan.points.len())]
        );

        // The merged body is record-for-record the single-process body.
        let mut journal = std::env::temp_dir();
        journal.push(format!("aladdin-coord-{}-solo.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&journal);
        run_campaign(&plan, &journal, &RunOptions::default()).expect("runs");
        let mut single: Vec<String> = std::fs::read_to_string(&journal)
            .unwrap()
            .lines()
            .skip(1)
            .map(str::to_owned)
            .collect();
        single.sort();
        let mut ours: Vec<String> = std::fs::read_to_string(&merged.merged)
            .unwrap()
            .lines()
            .skip(1)
            .map(str::to_owned)
            .collect();
        ours.sort();
        assert_eq!(single, ours, "merged journal must be bit-identical");

        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_workers_split_the_campaign_without_duplicates() {
        let plan = tiny_plan();
        let dir = temp_dir("pair");
        let plan2 = plan.clone();
        let dir2 = dir.clone();
        let t = std::thread::spawn(move || {
            run_worker(&plan2, &fast_cfg(&dir2, "wb")).expect("worker b")
        });
        let a = run_worker(&plan, &fast_cfg(&dir, "wa")).expect("worker a");
        let b = t.join().expect("joins");
        assert!(a.complete && b.complete);
        assert!(
            a.claimed + b.claimed >= plan.points.len(),
            "every point claimed at least once"
        );

        let merged = coordinate(&plan, &dir).expect("merges");
        assert!(merged.complete);
        assert_eq!(merged.done + merged.failed + merged.pruned, merged.total);
        assert_eq!(merged.quarantined, 0);
        // Per-worker counts attribute every merged record exactly once.
        let attributed: usize = merged.per_worker.iter().map(|(_, n)| n).sum();
        assert_eq!(attributed, merged.total);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lease_is_reclaimed_and_the_point_recovers() {
        let plan = tiny_plan();
        let dir = temp_dir("reclaim");
        let cfg = fast_cfg(&dir, "alive");
        init_dir(&plan, &dir).expect("init");
        // A dead worker left a lease on point 0 and stopped heartbeating.
        std::fs::write(
            lease_path(&dir, 0),
            "{\"point\":0,\"owner\":\"dead\",\"pid\":1}\n",
        )
        .expect("plant lease");
        std::fs::write(heart_path(&dir, "dead"), "1\n").expect("plant heart");
        let old = std::time::SystemTime::now() - Duration::from_secs(60);
        for p in [lease_path(&dir, 0), heart_path(&dir, "dead")] {
            let f = std::fs::OpenOptions::new().write(true).open(p).unwrap();
            f.set_modified(old).unwrap();
        }

        let summary = run_worker(&plan, &cfg).expect("works");
        assert!(summary.complete);
        assert_eq!(summary.reclaimed, 1, "the dead worker's lease reclaims");
        assert_eq!(summary.claimed, plan.points.len());

        let merged = coordinate(&plan, &dir).expect("merges");
        assert!(merged.complete);
        assert_eq!(merged.reclaims, 1, "the reclaim breadcrumb survives");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Many workers launched at the same instant on one fresh directory:
    /// the racing `meta.json` and lease creations never expose an empty
    /// file, so every round completes with each point journaled once.
    #[test]
    fn simultaneous_workers_on_a_fresh_dir_never_race() {
        const WORKERS: usize = 8;
        let plan = tiny_plan();
        for round in 0..20 {
            let dir = temp_dir(&format!("burst-{round}"));
            let start = std::sync::Barrier::new(WORKERS);
            let summaries: Vec<WorkerSummary> = std::thread::scope(|s| {
                let workers: Vec<_> = (0..WORKERS)
                    .map(|w| {
                        let (plan, dir, start) = (&plan, &dir, &start);
                        s.spawn(move || {
                            // A lease timeout no round comes near, so no
                            // live worker is ever reclaimed from.
                            let cfg = WorkerConfig {
                                lease_timeout: Duration::from_secs(30),
                                ..fast_cfg(dir, &format!("w{w}"))
                            };
                            start.wait();
                            run_worker(plan, &cfg)
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("worker thread").expect("worker runs"))
                    .collect()
            });
            assert!(summaries.iter().all(|s| s.complete), "round {round}");
            let claimed: usize = summaries.iter().map(|s| s.claimed).sum();
            assert_eq!(claimed, plan.points.len(), "round {round}");
            let merged = coordinate(&plan, &dir).expect("merges");
            assert!(merged.complete, "round {round}");
            assert_eq!(merged.duplicates, 0, "round {round}");
            assert_eq!(merged.done, plan.points.len(), "round {round}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A lease left empty (its writer died mid-claim) is held while fresh
    /// and reclaimed once older than the lease timeout — never held
    /// forever.
    #[test]
    fn unreadable_lease_is_reclaimed_once_stale() {
        let plan = tiny_plan();
        let dir = temp_dir("empty-lease");
        let cfg = fast_cfg(&dir, "alive");
        init_dir(&plan, &dir).expect("init");
        std::fs::write(lease_path(&dir, 0), "").expect("plant lease");
        assert!(
            matches!(try_claim(&cfg, 0), Claim::Held),
            "a fresh unreadable lease is held"
        );
        let old = std::time::SystemTime::now() - Duration::from_secs(60);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(lease_path(&dir, 0))
            .expect("open lease");
        f.set_modified(old).expect("age the lease");
        drop(f);

        let summary = run_worker(&plan, &cfg).expect("works");
        assert!(summary.complete);
        assert_eq!(summary.reclaimed, 1, "the empty lease reclaims");
        assert_eq!(summary.claimed, plan.points.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A trace file deleted or truncated after planning fails its points
    /// with the typed diagnostic; the worker journals them and the
    /// campaign completes.
    #[test]
    fn worker_journals_a_trace_broken_after_planning() {
        for truncate in [false, true] {
            let name = format!("coord-broken-{truncate}");
            let (plan, atrc) = crate::runner::tests::atrc_plan(&name);
            if truncate {
                let bytes = std::fs::read(&atrc).expect("read atrc");
                std::fs::write(&atrc, &bytes[..bytes.len() / 2]).expect("truncate");
            } else {
                std::fs::remove_file(&atrc).expect("delete atrc");
            }
            let dir = temp_dir(&name);
            let summary = run_worker(&plan, &fast_cfg(&dir, "w1")).expect("works");
            assert!(summary.complete, "{name}");
            assert_eq!(summary.failed, plan.points.len(), "{name}");
            let merged = coordinate(&plan, &dir).expect("merges");
            assert_eq!(merged.failed, plan.points.len(), "{name}");
            let text = std::fs::read_to_string(segment_path(&dir, "w1")).expect("segment");
            assert!(text.contains("[L0280]"), "{name}: {text}");
            let _ = std::fs::remove_dir_all(&dir);
            let _ = std::fs::remove_file(&atrc);
        }
    }

    #[test]
    fn fresh_lease_is_not_stolen() {
        let plan = tiny_plan();
        let dir = temp_dir("held");
        init_dir(&plan, &dir).expect("init");
        std::fs::write(
            lease_path(&dir, 0),
            "{\"point\":0,\"owner\":\"other\",\"pid\":1}\n",
        )
        .expect("plant lease");
        std::fs::write(heart_path(&dir, "other"), "1\n").expect("fresh heart");
        let cfg = fast_cfg(&dir, "me");
        match try_claim(&cfg, 0) {
            Claim::Held => {}
            Claim::Acquired { .. } => panic!("must not steal a fresh lease"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_failures_are_journaled_once_as_terminal_errors_and_the_campaign_completes() {
        // A 1-cycle watchdog makes every point fail the way a deadlock
        // would. Simulation is deterministic, so each point gets exactly
        // one terminal error record — and the campaign still completes.
        let mut plan = tiny_plan();
        plan.harness.watchdog = aladdin_core::Watchdog {
            max_cycles: Some(1),
            no_progress_cycles: 4_000_000,
        };
        let dir = temp_dir("watchdog");
        let summary = run_worker(&plan, &fast_cfg(&dir, "w1")).expect("works");
        assert!(summary.complete, "failures never abort the campaign");
        assert_eq!(summary.claimed, plan.points.len());
        assert_eq!(summary.failed, plan.points.len());

        let merged = coordinate(&plan, &dir).expect("merges");
        assert!(merged.complete);
        assert_eq!(merged.failed, plan.points.len());
        assert_eq!(merged.duplicates, 0);
        let text = std::fs::read_to_string(segment_path(&dir, "w1")).unwrap();
        let body: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(
            body.len(),
            plan.points.len(),
            "one record per point: {text}"
        );
        assert!(
            body.iter().all(|l| l.contains("\"status\":\"error\"")),
            "{text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A journal append that fails stops the worker with `L0266` and
    /// keeps the point's lease, so it goes stale and another worker
    /// re-runs the point; a successful append releases it.
    #[test]
    fn failed_append_keeps_the_lease() {
        struct FullDisk;
        impl Write for FullDisk {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("no space left on device"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let plan = tiny_plan();
        let dir = temp_dir("full-disk");
        init_dir(&plan, &dir).expect("init");
        let cfg = fast_cfg(&dir, "w1");
        assert!(matches!(try_claim(&cfg, 0), Claim::Acquired { .. }));
        let record = Record::Reclaim {
            point: 0,
            from: "dead",
            by: "w1",
        };
        let err = finish_point(&cfg, &mut FullDisk, 0, &record).expect_err("disk full");
        assert!(err.has_code("L0266"), "{}", err.to_human());
        assert!(lease_path(&dir, 0).exists(), "the lease is kept");

        let mut segment = Vec::new();
        finish_point(&cfg, &mut segment, 0, &record).expect("appends");
        assert!(!lease_path(&dir, 0).exists(), "the lease is released");
        assert_eq!(segment, format!("{record}\n").into_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `sweep work --prune`: every point is journaled exactly once, as ok
    /// or pruned, and the (cycles, energy) Pareto frontier of the ok
    /// records equals the unpruned run's.
    #[test]
    fn pruned_worker_journals_every_point_once_and_keeps_the_frontier() {
        let mut plan = CampaignSpec::from_toml(
            r#"
name = "coord-prune"
kernels = ["aes-aes"]
mems = ["cache"]

[space]
lanes = [1, 8]
cache_sizes = [1024, 1048576]
cache_ports = [1]
"#,
        )
        .expect("parses")
        .expand()
        .expect("expands");
        // The fastest design first, its result already cached, and the
        // costliest second, in the same batch: the first is a witness the
        // second can be pruned against.
        let design = |p: &PlannedPoint| match p {
            PlannedPoint::Single { point, .. } => *point,
            PlannedPoint::Multi { .. } => unreachable!("sweep campaign"),
        };
        plan.points.sort_by_key(|p| {
            let d = design(p);
            (std::cmp::Reverse(d.dp.lanes), d.soc.cache.size_bytes)
        });
        let costliest = plan.points.pop().expect("four points");
        plan.points.insert(1, costliest);
        let witness = design(&plan.points[0]);
        let trace = aladdin_workloads::by_name("aes-aes")
            .expect("kernel")
            .run()
            .trace;
        let _ = aladdin_dse::run_point_cached(&trace, &witness.dp, &witness.soc, witness.kind);

        let frontier = |dir: &Path, prune: bool| {
            let cfg = WorkerConfig {
                prune,
                ..fast_cfg(dir, "w1")
            };
            let summary = run_worker(&plan, &cfg).expect("works");
            assert!(summary.complete);
            let merged = coordinate(&plan, dir).expect("merges");
            assert_eq!(merged.duplicates, 0);
            assert_eq!(
                merged.done + merged.pruned,
                plan.points.len(),
                "ok or pruned"
            );
            let text = std::fs::read_to_string(&merged.merged).unwrap();
            let mut ok: Vec<(u64, f64)> = text
                .lines()
                .skip(1)
                .filter(|l| l.contains("\"status\":\"ok\""))
                .map(|l| {
                    let cycles = crate::journal::json_field_u64(l, "cycles").expect("cycles");
                    let energy = l
                        .split("\"energy_j\":")
                        .nth(1)
                        .and_then(|r| r.split(',').next())
                        .and_then(|e| e.parse().ok())
                        .expect("energy");
                    (cycles, energy)
                })
                .collect();
            ok.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let keep: Vec<(u64, f64)> = ok
                .iter()
                .copied()
                .filter(|&(c, e)| {
                    !ok.iter()
                        .any(|&(c2, e2)| c2 <= c && e2 <= e && (c2, e2) != (c, e))
                })
                .collect();
            (merged.pruned, keep)
        };
        let (pruned, kept) = frontier(&temp_dir("prune-on"), true);
        let (_, full) = frontier(&temp_dir("prune-off"), false);
        assert_eq!(
            kept, full,
            "pruning never changes the frontier ({pruned} pruned)"
        );
        let _ = std::fs::remove_dir_all(temp_dir("prune-off"));
        let _ = std::fs::remove_dir_all(temp_dir("prune-on"));
    }

    #[test]
    fn directory_refuses_a_different_campaign() {
        let plan = tiny_plan();
        let dir = temp_dir("foreign");
        init_dir(&plan, &dir).expect("init");
        let other = CampaignSpec::from_toml(
            r#"
name = "other"
kernels = ["fft-transpose"]
mems = ["isolated"]
"#,
        )
        .expect("parses")
        .expand()
        .expect("expands");
        let err = run_worker(&other, &fast_cfg(&dir, "w1")).unwrap_err();
        assert!(err.has_code("L0266"), "{}", err.to_human());
        let err = coordinate(&other, &dir).unwrap_err();
        assert!(err.has_code("L0266"), "{}", err.to_human());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_limit_leaves_a_resumable_campaign() {
        let plan = tiny_plan();
        let dir = temp_dir("limit");
        let cfg = WorkerConfig {
            limit: Some(1),
            ..fast_cfg(&dir, "w1")
        };
        let first = run_worker(&plan, &cfg).expect("works");
        assert_eq!(first.claimed, 1);
        assert!(!first.complete);
        let rest = run_worker(&plan, &fast_cfg(&dir, "w2")).expect("works");
        assert!(rest.complete);
        assert_eq!(rest.claimed, plan.points.len() - 1);

        let merged = coordinate(&plan, &dir).expect("merges");
        assert!(merged.complete);
        assert_eq!(
            merged.per_worker,
            vec![
                ("w1".to_owned(), 1),
                ("w2".to_owned(), plan.points.len() - 1)
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A segment record naming a point outside the plan never counts
    /// toward the tracker's finished set, so it cannot stop a worker
    /// while a real point is still unjournaled.
    #[test]
    fn tracker_ignores_out_of_plan_points() {
        let plan = tiny_plan();
        let dir = temp_dir("out-of-plan");
        let cfg = WorkerConfig {
            limit: Some(3),
            ..fast_cfg(&dir, "w1")
        };
        let first = run_worker(&plan, &cfg).expect("works");
        assert_eq!(first.claimed, 3);
        // Two of w1's three records now name points the plan lacks.
        let seg = segment_path(&dir, "w1");
        let text = std::fs::read_to_string(&seg).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        for (line, bogus) in lines[1..3].iter_mut().zip([54, 55]) {
            let point = crate::journal::json_field_u64(line, "point").expect("point");
            *line = line.replacen(
                &format!("\"point\":{point},"),
                &format!("\"point\":{bogus},"),
                1,
            );
        }
        std::fs::write(&seg, lines.join("\n") + "\n").unwrap();

        let mut tracker = SegmentTracker::new(&dir, &plan);
        tracker.refresh();
        assert_eq!(tracker.finished.len(), 1, "{:?}", tracker.finished);
        assert!(tracker.finished.iter().all(|&p| p < plan.points.len()));

        let rest = run_worker(&plan, &fast_cfg(&dir, "w2")).expect("works");
        assert_eq!(rest.claimed, plan.points.len() - 1);
        assert!(rest.complete);
        let merged = coordinate(&plan, &dir).expect("merges");
        assert!(merged.complete);
        assert_eq!(merged.quarantined, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_report_covers_dirs_and_files() {
        let plan = tiny_plan();
        let dir = temp_dir("lintable");
        run_worker(&plan, &fast_cfg(&dir, "w1")).expect("works");
        let report = journal_report(&plan, &dir);
        assert!(!report.has_errors(), "{}", report.to_human());
        assert!(report.to_human().contains("w1="), "per-worker counts");

        // Corrupt a mid-file record in the segment: the report flags it.
        let seg = segment_path(&dir, "w1");
        let text = std::fs::read_to_string(&seg).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let keep = lines[1].len() - 5;
        lines[1].truncate(keep);
        std::fs::write(&seg, lines.join("\n") + "\n").unwrap();
        let report = journal_report(&plan, &dir);
        assert!(report.has_code(CODE_QUARANTINE), "{}", report.to_human());

        // Single-file journals work through the same entry point.
        let mut journal = std::env::temp_dir();
        journal.push(format!(
            "aladdin-coord-{}-lintable.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&journal);
        run_campaign(&plan, &journal, &RunOptions::default()).expect("runs");
        let report = journal_report(&plan, &journal);
        assert!(!report.has_errors(), "{}", report.to_human());

        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A warm worker fingerprints each kernel once per call, however
    /// many batches its points span, and serves every point from the
    /// cache; a faulted campaign fingerprints nothing.
    #[test]
    fn warm_worker_hashes_each_kernel_once() {
        let toml = r#"
name = "coord-warm"
kernels = ["aes-aes", "kmp"]
mems = ["isolated"]

[space]
lanes = [1, 2, 4]
partitions = [1, 2, 4]
"#;
        let plan = CampaignSpec::from_toml(toml)
            .expect("parses")
            .expand()
            .expect("expands");
        let mut journal = std::env::temp_dir();
        journal.push(format!("aladdin-coord-{}-warm.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&journal);
        run_campaign(&plan, &journal, &RunOptions::default()).expect("fills the cache");

        let hashed = || crate::runner::HASHED.with(std::cell::Cell::get);
        let before = hashed();
        let dir = temp_dir("warm");
        let summary = run_worker(&plan, &fast_cfg(&dir, "w1")).expect("works");
        assert!(summary.complete);
        assert_eq!(summary.perf.cache_hits, plan.points.len() as u64);
        assert_eq!(hashed() - before, 2, "once per kernel, not per batch");

        let faulted = CampaignSpec::from_toml(&format!("{toml}\n[faults]\nseed = 7\n"))
            .expect("parses")
            .expand()
            .expect("expands");
        let dir2 = temp_dir("warm-faulted");
        let before = hashed();
        let summary = run_worker(&faulted, &fast_cfg(&dir2, "w1")).expect("works");
        assert!(summary.complete);
        assert_eq!(summary.perf.cache_hits, 0);
        assert_eq!(hashed(), before, "a faulted run loads its traces eagerly");

        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }
}
