//! `sweep` — plan, run, and resume declarative TOML sweep campaigns.
//!
//! ```text
//! sweep [--json] [--cache off|mem|full] [--faults SEED] <command> CAMPAIGN.toml [options]
//!
//! commands:
//!   plan FILE      expand and validate the campaign; print the point
//!                  count, pre-flight rejections, how many points the
//!                  result cache already holds, and the static cycle-bound
//!                  summary (`L0275`)
//!   run FILE       execute the campaign, streaming one JSONL record per
//!                  finished point to the journal
//!   resume FILE    continue an interrupted campaign from its journal,
//!                  skipping every recorded point
//!   work FILE      join a shared campaign directory as one worker:
//!                  claim batches of points (as many as the host has
//!                  hardware threads) under leases, run them through the
//!                  same executor as `run`, journal to an own segment;
//!                  crash-safe — a killed worker's leases are reclaimed
//!                  by the survivors after --lease-ms
//!   coordinate FILE  merge every worker's journal segment into
//!                  <dir>/merged.jsonl (one record per point, identical
//!                  to a single-process run), quarantine corrupt
//!                  records, and report stale leases/heartbeats
//!
//! options:
//!   --journal PATH  journal location (default target/campaigns/<name>.jsonl)
//!   --limit N       run at most N points, then stop (still resumable)
//!   --prune         run/resume/work: skip points whose static cycle lower
//!                   bound and power floor are strictly dominated by a
//!                   finished result (a worker compares within its batch);
//!                   skips are journaled as "status":"pruned" records
//!                   (L0276) and the Pareto frontier is unchanged
//!   --dir DIR       work/coordinate: the shared coordination directory
//!                  (default target/campaigns/<name>.d)
//!   --worker ID     work: this worker's id (default w<pid>)
//!   --lease-ms N    work: lease/heartbeat staleness timeout (default 30000)
//! ```
//!
//! Exit status: 0 on success, 1 when validation or any point failed,
//! 2 on usage errors (including the removed `--retries`: simulation is
//! deterministic, so a failed point is journaled once). `--faults SEED`
//! arms the canonical seeded fault plan, overriding the campaign's
//! `[faults]` seed — the same flag, with the same meaning, as
//! `simulate --faults`.

use std::path::{Path, PathBuf};
use std::time::Duration;

use aladdin_spec::{
    coordinate, forecast_cached, json_string, plan_bounds, run_campaign, run_worker, CampaignPlan,
    CampaignSpec, CommonArgs, OutputFormat, RunOptions, WorkerConfig,
};

fn usage() -> ! {
    eprintln!(
        "usage: sweep [--json] [--cache off|mem|full] [--faults SEED] [--topology SPEC] \
         <plan|run|resume|work|coordinate> CAMPAIGN.toml [--journal PATH] [--limit N] [--prune] \
         [--dir DIR] [--worker ID] [--lease-ms N]"
    );
    eprintln!(
        "  --topology pins the interconnect (shared-bus, crossbar[:RADIX], \
         two-level[:CLUSTERS[:BRIDGE]], mesh:COLSxROWS[:HOP[:LINKBITS]]), \
         overriding the campaign's [soc.topology] and space.topologies axis"
    );
    std::process::exit(2);
}

struct Args {
    common: CommonArgs,
    command: String,
    campaign: PathBuf,
    journal: Option<PathBuf>,
    limit: Option<usize>,
    prune: bool,
    dir: Option<PathBuf>,
    worker: Option<String>,
    lease_ms: Option<u64>,
}

fn parse_args() -> Args {
    let mut common = CommonArgs::new();
    let mut positional: Vec<String> = Vec::new();
    let mut journal = None;
    let mut limit = None;
    let mut prune = false;
    let mut dir = None;
    let mut worker = None;
    let mut lease_ms = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match common.consume(&arg, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => {
                eprintln!("sweep: {e}");
                usage();
            }
        }
        match arg.as_str() {
            "--journal" => match it.next() {
                Some(p) => journal = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--limit" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => limit = Some(n),
                None => usage(),
            },
            "--prune" => prune = true,
            "--dir" => match it.next() {
                Some(p) => dir = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--worker" => match it.next() {
                Some(w) => worker = Some(w),
                None => usage(),
            },
            "--lease-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => lease_ms = Some(n),
                None => usage(),
            },
            _ if arg.starts_with("--") => usage(),
            _ => positional.push(arg),
        }
    }
    let (command, campaign) = match positional.as_slice() {
        [c, f] => (c.clone(), PathBuf::from(f)),
        _ => usage(),
    };
    if !matches!(
        command.as_str(),
        "plan" | "run" | "resume" | "work" | "coordinate"
    ) {
        usage();
    }
    Args {
        common,
        command,
        campaign,
        journal,
        limit,
        prune,
        dir,
        worker,
        lease_ms,
    }
}

fn load_plan(args: &Args) -> Result<CampaignPlan, aladdin_ir::Report> {
    let text = std::fs::read_to_string(&args.campaign).map_err(|e| {
        let mut r = aladdin_ir::Report::new();
        r.push(aladdin_ir::Diagnostic::error(
            "L0260",
            format!("cannot read {}: {e}", args.campaign.display()),
        ));
        r
    })?;
    let mut spec = CampaignSpec::from_toml(&text)?;
    // The shared --topology flag pins the fabric, overriding both the
    // campaign's [soc.topology] platform and any space.topologies axis,
    // and the shared --faults flag overrides the campaign's [faults] seed.
    // Both participate in expansion (and therefore the plan digest), so a
    // journal recorded under one topology or fault seed refuses to resume
    // under another.
    if let Some(topology) = args.common.topology {
        spec.soc.topology = Some(topology);
        spec.space.topologies = None;
    }
    if let Some(seed) = args.common.faults_seed {
        spec.faults.seed = Some(seed);
    }
    spec.expand()
}

fn default_journal(plan: &CampaignPlan) -> PathBuf {
    let mut p = PathBuf::from("target/campaigns");
    let _ = std::fs::create_dir_all(&p);
    p.push(format!("{}.jsonl", plan.spec.name.replace('/', "_")));
    p
}

fn default_dir(plan: &CampaignPlan) -> PathBuf {
    let mut p = PathBuf::from("target/campaigns");
    p.push(format!("{}.d", plan.spec.name.replace('/', "_")));
    p
}

/// The human summary's verdict on a campaign.
fn completeness(complete: bool) -> &'static str {
    if complete {
        "; campaign complete"
    } else {
        "; campaign incomplete"
    }
}

/// A path as a JSON string.
fn json_path(path: &Path) -> String {
    json_string(&path.display().to_string())
}

fn emit_report_and_exit(report: &aladdin_ir::Report, format: OutputFormat) -> ! {
    match format {
        OutputFormat::Human => eprintln!("{}", report.to_human()),
        OutputFormat::Json => println!("{}", report.to_json()),
    }
    std::process::exit(1);
}

/// `sweep work FILE`: one worker process pulling leased points.
fn cmd_work(args: &Args, plan: &CampaignPlan) -> ! {
    let mut cfg = WorkerConfig::new(args.dir.clone().unwrap_or_else(|| default_dir(plan)));
    if let Some(w) = &args.worker {
        cfg.worker.clone_from(w);
    }
    if let Some(ms) = args.lease_ms {
        cfg.lease_timeout = Duration::from_millis(ms);
    }
    cfg.limit = args.limit;
    cfg.prune = args.prune;
    let s = run_worker(plan, &cfg).unwrap_or_else(|r| emit_report_and_exit(&r, args.common.format));
    match args.common.format {
        OutputFormat::Human => {
            println!("worker:   {} on {}", s.worker, cfg.dir.display());
            println!(
                "claimed:  {} of {} point(s), {} failed, {} lease(s) reclaimed{}",
                s.claimed,
                s.total,
                s.failed,
                s.reclaimed,
                completeness(s.complete)
            );
            if s.quarantined > 0 {
                println!(
                    "journal:  {} corrupt record(s) quarantined from {}",
                    s.quarantined,
                    s.journal.display()
                );
            }
            println!("{}", s.perf);
        }
        OutputFormat::Json => {
            println!(
                "{{\"worker\":{},\"total\":{},\"claimed\":{},\"failed\":{},\"reclaimed\":{},\"quarantined\":{},\"complete\":{}}}",
                json_string(&s.worker), s.total, s.claimed, s.failed, s.reclaimed,
                s.quarantined, s.complete
            );
        }
    }
    std::process::exit(i32::from(s.failed > 0));
}

/// `sweep coordinate FILE`: merge worker segments into one journal.
fn cmd_coordinate(args: &Args, plan: &CampaignPlan) -> ! {
    let dir = args.dir.clone().unwrap_or_else(|| default_dir(plan));
    let s = coordinate(plan, &dir).unwrap_or_else(|r| emit_report_and_exit(&r, args.common.format));
    match args.common.format {
        OutputFormat::Human => {
            println!("campaign: {} ({} points)", plan.spec.name, s.total);
            println!("merged:   {}", s.merged.display());
            println!(
                "points:   {} ok, {} failed, {} pruned{}",
                s.done,
                s.failed,
                s.pruned,
                completeness(s.complete)
            );
            let workers: Vec<String> = s
                .per_worker
                .iter()
                .map(|(w, n)| format!("{w}={n}"))
                .collect();
            println!(
                "workers:  {} ({} duplicate record(s) deduped, {} reclaim(s))",
                if workers.is_empty() {
                    "none".to_owned()
                } else {
                    workers.join(", ")
                },
                s.duplicates,
                s.reclaims
            );
            if s.quarantined > 0 || s.stale_leases > 0 {
                println!(
                    "health:   {} corrupt record(s) quarantined, {} stale lease(s)",
                    s.quarantined, s.stale_leases
                );
            }
            let human = s.report.to_human();
            if !human.trim().is_empty() {
                println!("{human}");
            }
        }
        OutputFormat::Json => {
            let workers: Vec<String> = s
                .per_worker
                .iter()
                .map(|(w, n)| format!("{{\"worker\":{},\"points\":{n}}}", json_string(w)))
                .collect();
            println!(
                "{{\"campaign\":{},\"merged\":{},\"total\":{},\"done\":{},\"failed\":{},\"pruned\":{},\"reclaims\":{},\"duplicates\":{},\"quarantined\":{},\"stale_leases\":{},\"complete\":{},\"per_worker\":[{}],\"report\":{}}}",
                json_string(&plan.spec.name),
                json_path(&s.merged),
                s.total,
                s.done,
                s.failed,
                s.pruned,
                s.reclaims,
                s.duplicates,
                s.quarantined,
                s.stale_leases,
                s.complete,
                workers.join(","),
                s.report.to_json()
            );
        }
    }
    std::process::exit(i32::from(s.failed > 0 || s.report.has_errors()));
}

fn emit_plan(plan: &CampaignPlan, cached: usize, format: OutputFormat) {
    // The L0275 static forecast: certified cycle intervals for every
    // single point, computed without running the scheduler.
    let (bounds, unbounded) = plan_bounds(plan);
    match format {
        OutputFormat::Human => {
            println!("campaign: {}", plan.spec.name);
            println!("digest:   {:016x}", plan.digest);
            println!(
                "points:   {} runnable, {} rejected by pre-flight",
                plan.points.len(),
                plan.rejected
            );
            println!(
                "cache:    {cached} of {} points already cached",
                plan.points.len()
            );
            if bounds.points > 0 {
                print!("bounds:   {bounds}");
                if unbounded > 0 {
                    print!("; {unbounded} point(s) without bounds (invalid config)");
                }
                println!();
            }
            let report = plan.report.to_human();
            if !report.trim().is_empty() {
                println!("{report}");
            }
        }
        OutputFormat::Json => {
            let min_hi = if bounds.certified > 0 {
                bounds.min_certified_hi.to_string()
            } else {
                "null".to_owned()
            };
            println!(
                "{{\"campaign\":{},\"digest\":\"{:016x}\",\"points\":{},\"rejected\":{},\"cached\":{},\
                 \"bounds\":{{\"points\":{},\"certified\":{},\"min_lo\":{},\"max_lo\":{},\"min_certified_hi\":{min_hi},\"dominated\":{},\"unavailable\":{unbounded}}},\
                 \"report\":{}}}",
                json_string(&plan.spec.name),
                plan.digest,
                plan.points.len(),
                plan.rejected,
                cached,
                bounds.points,
                bounds.certified,
                bounds.min_lo,
                bounds.max_lo,
                bounds.dominated,
                plan.report.to_json()
            );
        }
    }
}

fn main() {
    let args = parse_args();
    args.common.apply_cache_mode();

    let plan = match load_plan(&args) {
        Ok(plan) => plan,
        Err(report) => emit_report_and_exit(&report, args.common.format),
    };

    if args.command == "work" {
        cmd_work(&args, &plan);
    }
    if args.command == "coordinate" {
        cmd_coordinate(&args, &plan);
    }
    if args.command == "plan" {
        // Forecast how much of the campaign the result cache already
        // holds. A non-inert harness disarms the cache, so it's 0 there.
        let cached = forecast_cached(&plan);
        emit_plan(&plan, cached, args.common.format);
        std::process::exit(i32::from(plan.report.has_errors()));
    }

    let journal = args
        .journal
        .clone()
        .unwrap_or_else(|| default_journal(&plan));
    let opts = RunOptions {
        resume: args.command == "resume",
        limit: args.limit,
        prune: args.prune,
    };
    let summary = run_campaign(&plan, &journal, &opts)
        .unwrap_or_else(|r| emit_report_and_exit(&r, args.common.format));
    match args.common.format {
        OutputFormat::Human => {
            println!("campaign: {} ({} points)", plan.spec.name, summary.total);
            println!(
                "journal:  {} ({} skipped as already recorded)",
                summary.journal.display(),
                summary.skipped
            );
            println!(
                "ran:      {} point(s), {} failed, {} pruned{}",
                summary.ran,
                summary.failed,
                summary.pruned,
                if summary.complete() {
                    "; campaign complete"
                } else {
                    "; campaign incomplete (resume to continue)"
                }
            );
            if summary.quarantined > 0 {
                println!(
                    "journal:  {} corrupt record(s) quarantined to {}.quarantine",
                    summary.quarantined,
                    summary.journal.display()
                );
            }
            println!("{}", aladdin_dse::global_perf());
        }
        OutputFormat::Json => {
            println!(
                "{{\"campaign\":{},\"journal\":{},\"total\":{},\"skipped\":{},\"ran\":{},\"failed\":{},\"pruned\":{},\"quarantined\":{},\"complete\":{}}}",
                json_string(&plan.spec.name),
                json_path(&summary.journal),
                summary.total,
                summary.skipped,
                summary.ran,
                summary.failed,
                summary.pruned,
                summary.quarantined,
                summary.complete()
            );
        }
    }
    std::process::exit(i32::from(summary.failed > 0));
}
