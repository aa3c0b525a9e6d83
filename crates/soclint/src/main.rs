//! `soclint` — static analysis and model checking for the
//! gem5-aladdin-rs stack, from the command line.
//!
//! ```text
//! soclint [--json | --format human|json] <command> [args]
//!
//! commands:
//!   trace [KERNEL|FILE.atrc ...]
//!                            lint the traces of bundled
//!                            workloads (default: all 16); arguments
//!                            ending in `.atrc` are validated as encoded
//!                            binary trace files (`L0280` on truncation
//!                            or corruption) and then linted identically
//!   config                   lint the default design point
//!   sweep                    pre-flight the full Fig. 3 design space
//!   protocol [--seeded-bug NAME]
//!                            model-check the MOESI-lite protocol
//!                            (optionally with a seeded bug)
//!   faultplan FILE...        validate fault-plan files (bounds, rates,
//!                            format) before a fault-injection run
//!   flowspec FILE...         validate multi-accelerator job-set files
//!                            (one `job KERNEL MEM [OPT] [launch N]
//!                            [master N]` per line) against the checks
//!                            `simulate_multi` applies: duplicate bus
//!                            masters, more than one cache job, empty
//!                            job sets, topology capacity
//!   campaign FILE... [--journal PATH]
//!                            parse, validate and expand TOML campaign
//!                            files (`L0260`–`L0264`) without running
//!                            anything — the same pre-flight `sweep plan`
//!                            applies, so a campaign that lints clean
//!                            here expands at run time; includes the
//!                            static cycle-bound summary (`L0275`).
//!                            With `--journal`, also audits a run's
//!                            journal file or `sweep work` coordination
//!                            directory read-only: stale leases (`L0290`)
//!                            and heartbeats (`L0291`), quarantined
//!                            corrupt records (`L0292`), per-worker
//!                            point counts, and retry/reclaim tallies
//!   bounds FILE...           static cycle-bound analysis of TOML
//!                            campaign files: a certified `[lo, hi]`
//!                            interval per design point without running
//!                            the scheduler (`L0270`–`L0274`)
//!   all                      trace + config + sweep + protocol
//! ```
//!
//! Exit status: 0 when no error-severity diagnostic fired, 1 when at
//! least one did, 2 on usage errors — uniformly across every subcommand.
//! Diagnostic codes are documented in `crates/lint/README.md`.

use aladdin_accel::DatapathConfig;
use aladdin_core::SocConfig;
use aladdin_dse::{preflight_cache, preflight_dma, DesignSpace};
use aladdin_ir::{Diagnostic, Report};
use aladdin_lint::{
    bounds_for_point, lint_design, lint_trace, point_diagnostic, summarize_bounds,
    uncertified_diagnostic, ProtocolChecker, SeededBug,
};
use aladdin_spec::{
    for_each_point_trace, plan_bounds, CampaignPlan, CampaignSpec, CommonArgs, OutputFormat,
};
use aladdin_workloads::{all_kernels, by_name};

/// One named analysis target and its report.
struct Target {
    name: String,
    report: Report,
}

fn usage() -> ! {
    eprintln!(
        "usage: soclint [--json | --format human|json] [--topology SPEC] <trace [KERNEL|FILE.atrc ...] | config | sweep | protocol [--seeded-bug NAME] | faultplan FILE... | flowspec FILE... | campaign FILE... [--journal PATH] | bounds FILE... | all>"
    );
    eprintln!(
        "  --topology lints config/flowspec targets against that interconnect \
         (shared-bus, crossbar[:RADIX], two-level[:CLUSTERS[:BRIDGE]], \
         mesh:COLSxROWS[:HOP[:LINKBITS]]) instead of the default shared bus"
    );
    std::process::exit(2);
}

fn main() {
    // The shared CLI vocabulary (`--json`, `--format`) parses exactly as
    // it does for `simulate` and `sweep`.
    let mut common = CommonArgs::new();
    let mut rest: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match common.consume(&a, &mut it) {
            Ok(true) => continue,
            Ok(false) => rest.push(a),
            Err(e) => {
                eprintln!("soclint: {e}");
                usage();
            }
        }
    }
    let format = common.format;
    let (command, cmd_args) = match rest.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => usage(),
    };

    // `--topology` lints against that fabric (L0310 surfaces here when
    // the spec parses but is structurally invalid, e.g. `crossbar:0`).
    let mut base_soc = SocConfig::default();
    if let Some(topology) = common.topology {
        base_soc.topology.topology = topology;
    }

    let targets = match command {
        "trace" => lint_traces(cmd_args),
        "config" => vec![lint_default_config(&base_soc)],
        "sweep" => lint_fig3_space(),
        "protocol" => vec![lint_protocol(cmd_args)],
        "faultplan" => lint_fault_plans(cmd_args),
        "flowspec" => lint_flowspecs(cmd_args, &base_soc),
        "campaign" => lint_campaigns(cmd_args),
        "bounds" => lint_bounds(cmd_args),
        "all" => {
            let mut t = lint_traces(&[]);
            t.push(lint_default_config(&base_soc));
            t.extend(lint_fig3_space());
            t.push(lint_protocol(&[]));
            t
        }
        _ => usage(),
    };

    let any_error = targets.iter().any(|t| t.report.has_errors());
    if let Err(e) = emit(&targets, format) {
        // A reader that closes the pipe early (`soclint ... | head`) is
        // normal; anything else is a real I/O failure.
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("soclint: {e}");
            std::process::exit(1);
        }
    }
    std::process::exit(i32::from(any_error));
}

fn emit(targets: &[Target], format: OutputFormat) -> std::io::Result<()> {
    use std::io::Write;
    let mut stdout = std::io::stdout().lock();
    match format {
        OutputFormat::Human => {
            for t in targets {
                writeln!(stdout, "== {} ==", t.name)?;
                writeln!(stdout, "{}", t.report.to_human())?;
            }
        }
        OutputFormat::Json => {
            let mut out = String::from("{\"targets\":[");
            for (i, t) in targets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"name\":\"");
                out.push_str(&t.name); // kernel/target names need no escaping
                out.push_str("\",\"report\":");
                out.push_str(&t.report.to_json());
                out.push('}');
            }
            out.push_str(&format!(
                "],\"errors\":{}}}",
                targets
                    .iter()
                    .map(|t| t.report.count(aladdin_ir::Severity::Error))
                    .sum::<usize>()
            ));
            writeln!(stdout, "{out}")?;
        }
    }
    Ok(())
}

/// Lint the traces of the named kernels, or of all bundled kernels.
/// Names ending in `.atrc` are
/// treated as encoded binary trace files: the file is validated
/// structurally (header, checksum, footer — `L0280` on truncation or
/// corruption), decoded, and then linted exactly like an in-memory trace.
fn lint_traces(names: &[String]) -> Vec<Target> {
    if names.iter().any(|n| n.ends_with(".atrc")) {
        return names
            .iter()
            .map(|n| {
                if n.ends_with(".atrc") {
                    lint_atrc_file(n)
                } else {
                    lint_kernel_trace(n)
                }
            })
            .collect();
    }
    let kernels: Vec<_> = if names.is_empty() {
        all_kernels()
    } else {
        names
            .iter()
            .map(|n| match by_name(n) {
                Some(k) => k,
                None => {
                    eprintln!("soclint: unknown kernel {n:?}");
                    std::process::exit(2);
                }
            })
            .collect()
    };
    kernels
        .into_iter()
        .map(|kernel| Target {
            name: kernel.name().to_owned(),
            report: lint_trace(&kernel.run().trace),
        })
        .collect()
}

/// Lint one bundled kernel by name (the non-`.atrc` arm of a mixed
/// `soclint trace` argument list).
fn lint_kernel_trace(name: &str) -> Target {
    let Some(kernel) = by_name(name) else {
        eprintln!("soclint: unknown kernel {name:?}");
        std::process::exit(2);
    };
    Target {
        name: kernel.name().to_owned(),
        report: lint_trace(&kernel.run().trace),
    }
}

/// Lint one `.atrc` file: structural validation (`L0280` on a truncated
/// or corrupt file), then decode and run the same trace lints the
/// bundled kernels get.
fn lint_atrc_file(path: &str) -> Target {
    let mut report = Report::new();
    match aladdin_ir::AtrcTrace::open(path).and_then(|t| t.decode()) {
        Ok(trace) => {
            report.push(Diagnostic::info(
                "L0280",
                format!(
                    "atrc validated: kernel {:?}, {} node(s), {} array(s)",
                    trace.name(),
                    trace.nodes().len(),
                    trace.arrays().len()
                ),
            ));
            report.merge(lint_trace(&trace));
        }
        Err(d) => report.push(d),
    }
    Target {
        name: path.to_owned(),
        report,
    }
}

fn lint_default_config(soc: &SocConfig) -> Target {
    Target {
        name: "default-design-point".to_owned(),
        report: lint_design(&DatapathConfig::default(), soc),
    }
}

/// Pre-flight every point of the paper's Figure 3 design space.
fn lint_fig3_space() -> Vec<Target> {
    let soc = SocConfig::default();
    let space = DesignSpace::paper();

    let dma = preflight_dma(&space, &soc);
    let mut dma_report = Report::new();
    dma_report.push(Diagnostic::info(
        "L0200",
        format!(
            "{} of {} scratchpad/DMA points pass pre-flight",
            dma.accepted.len(),
            dma.accepted.len() + dma.rejected.len()
        ),
    ));
    for r in &dma.rejected {
        dma_report.merge(r.report.clone());
    }

    let cache = preflight_cache(&space, &soc);
    let mut cache_report = Report::new();
    cache_report.push(Diagnostic::info(
        "L0200",
        format!(
            "{} of {} cache points pass pre-flight",
            cache.accepted.len(),
            cache.accepted.len() + cache.rejected.len()
        ),
    ));
    for r in &cache.rejected {
        cache_report.merge(r.report.clone());
    }

    vec![
        Target {
            name: "fig3-dma-space".to_owned(),
            report: dma_report,
        },
        Target {
            name: "fig3-cache-space".to_owned(),
            report: cache_report,
        },
    ]
}

/// Statically validate fault-plan files: parse (`L0243` on malformed
/// lines), then bound-check every site (`L0240` rates, `L0241`
/// magnitudes, `L0242` plans that inject nothing) — the same
/// `FaultPlan::validate` the sweep runners apply, so a plan that lints
/// clean here is accepted at run time.
fn lint_fault_plans(paths: &[String]) -> Vec<Target> {
    if paths.is_empty() {
        usage();
    }
    paths
        .iter()
        .map(|path| {
            let mut report = Report::new();
            match std::fs::read_to_string(path) {
                Ok(text) => match aladdin_core::FaultPlan::from_text(&text) {
                    Ok(plan) => {
                        report.push(Diagnostic::info(
                            "L0243",
                            format!("fault plan parsed: seed {}", plan.seed),
                        ));
                        report.merge(plan.validate());
                    }
                    Err(d) => report.push(d),
                },
                Err(e) => report.push(Diagnostic::error(
                    "L0243",
                    format!("cannot read fault plan: {e}"),
                )),
            }
            Target {
                name: path.clone(),
                report,
            }
        })
        .collect()
}

/// Parse one `job` line of a flowspec file into an
/// [`AcceleratorJob`](aladdin_core::AcceleratorJob).
///
/// Grammar: `job KERNEL isolated|dma|cache [baseline|pipelined|full]
/// [launch N] [master N]`.
fn parse_flowspec_job(line: &str) -> Result<aladdin_core::AcceleratorJob, String> {
    use aladdin_core::{AcceleratorJob, DmaOptLevel, MasterId, MemKind};
    let mut words = line.split_whitespace();
    if words.next() != Some("job") {
        return Err(format!("expected `job ...`, got {line:?}"));
    }
    let name = words.next().ok_or("missing kernel name")?;
    let kernel = by_name(name).ok_or_else(|| format!("unknown kernel {name:?}"))?;
    let mem = words.next().ok_or("missing memory system")?;
    let mut words = words.peekable();
    let kind = match mem {
        "isolated" => MemKind::Isolated,
        "cache" => MemKind::Cache,
        "dma" => {
            let opt = match words.peek().copied() {
                Some("baseline") => Some(DmaOptLevel::Baseline),
                Some("pipelined") => Some(DmaOptLevel::Pipelined),
                Some("full") => Some(DmaOptLevel::Full),
                _ => None,
            };
            if opt.is_some() {
                words.next();
            }
            MemKind::Dma(opt.unwrap_or(DmaOptLevel::Full))
        }
        other => return Err(format!("unknown memory system {other:?}")),
    };
    let mut job = AcceleratorJob::new(kernel.run().trace, DatapathConfig::default(), kind, 0);
    while let Some(key) = words.next() {
        let value = words
            .next()
            .ok_or_else(|| format!("`{key}` needs a value"))?;
        let n: u64 = value
            .parse()
            .map_err(|_| format!("`{key}` value {value:?} is not a number"))?;
        match key {
            "launch" => job.launch_at = n,
            "master" => {
                job = job.with_master(MasterId(
                    u8::try_from(n).map_err(|_| format!("master {n} out of range"))?,
                ));
            }
            other => return Err(format!("unknown field {other:?}")),
        }
    }
    Ok(job)
}

/// Validate multi-accelerator job-set files: `L0254` on malformed lines,
/// then the same `validate_multi_jobs` the runtime applies
/// (`L0250`–`L0252`, `L0311`), so a flowspec that lints clean here is
/// accepted by `simulate_multi`.
fn lint_flowspecs(paths: &[String], soc: &SocConfig) -> Vec<Target> {
    if paths.is_empty() {
        usage();
    }
    paths
        .iter()
        .map(|path| {
            let mut report = Report::new();
            match std::fs::read_to_string(path) {
                Ok(text) => {
                    let mut jobs = Vec::new();
                    for (lineno, line) in text.lines().enumerate() {
                        let line = line.trim();
                        if line.is_empty() || line.starts_with('#') {
                            continue;
                        }
                        match parse_flowspec_job(line) {
                            Ok(job) => jobs.push(job),
                            Err(e) => report.push(Diagnostic::error(
                                "L0254",
                                format!("line {}: {e}", lineno + 1),
                            )),
                        }
                    }
                    report.push(Diagnostic::info(
                        "L0254",
                        format!("flowspec parsed: {} job(s)", jobs.len()),
                    ));
                    report.merge(aladdin_core::validate_multi_jobs(&jobs, soc));
                }
                Err(e) => report.push(Diagnostic::error(
                    "L0254",
                    format!("cannot read flowspec: {e}"),
                )),
            }
            Target {
                name: path.clone(),
                report,
            }
        })
        .collect()
}

/// Read and expand one TOML campaign file, or report why it can't be
/// (`L0260`/`L0261` parse errors, `L0262`–`L0264` expansion findings).
fn expand_campaign(path: &str) -> Result<CampaignPlan, Report> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        let mut r = Report::new();
        r.push(Diagnostic::error(
            "L0260",
            format!("cannot read campaign: {e}"),
        ));
        r
    })?;
    CampaignSpec::from_toml(&text)?.expand()
}

/// Statically validate TOML campaign files: parse (`L0260`/`L0261`),
/// resolve names (`L0262`), and expand to the full point list with the
/// same per-point design pre-flight `sweep plan` applies (`L0263` when
/// nothing survives, `L0264` expansion summary) — all without simulating
/// anything. The `L0275` static cycle-bound summary rides along, and
/// identical findings repeated across points are emitted once with an
/// occurrence count.
fn lint_campaigns(args: &[String]) -> Vec<Target> {
    // Split `--journal PATH` (a journal-integrity audit rider) from the
    // campaign file list.
    let mut paths: Vec<&String> = Vec::new();
    let mut journal: Option<&String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--journal" {
            match it.next() {
                Some(p) => journal = Some(p),
                None => usage(),
            }
        } else {
            paths.push(a);
        }
    }
    if paths.is_empty() {
        usage();
    }
    if journal.is_some() && paths.len() != 1 {
        eprintln!("soclint: --journal audits one campaign at a time");
        std::process::exit(2);
    }
    paths
        .iter()
        .map(|path| {
            let report = match expand_campaign(path) {
                Ok(plan) => {
                    let mut report = plan.report.clone();
                    let (bounds, _) = plan_bounds(&plan);
                    if bounds.points > 0 {
                        report.push(bounds.plan_diagnostic());
                    }
                    if let Some(j) = journal {
                        // Read-only: L0290/L0291 stale coordinator
                        // state, L0292 quarantined records, per-worker
                        // counts. Accepts a journal file or a `sweep
                        // work` directory.
                        report.merge(aladdin_spec::journal_report(&plan, std::path::Path::new(j)));
                    }
                    report
                }
                Err(report) => report,
            };
            Target {
                name: (*path).clone(),
                report: report.deduped(),
            }
        })
        .collect()
}

/// Static cycle-bound analysis of TOML campaign files: every design
/// point gets a certified `[lo, hi]` interval (`L0271`) computed without
/// running the scheduler, a `L0272` warning when the upper bound is not
/// certified (faulted harness or external bus traffic), `L0273` errors
/// where the configuration admits no bounds, and the `L0270`/`L0274`
/// aggregate summary and dominance count.
fn lint_bounds(paths: &[String]) -> Vec<Target> {
    if paths.is_empty() {
        usage();
    }
    paths
        .iter()
        .map(|path| {
            let report = match expand_campaign(path) {
                Ok(plan) => bounds_report(&plan),
                Err(report) => report,
            };
            Target {
                name: path.clone(),
                report: report.deduped(),
            }
        })
        .collect()
}

/// The per-point bounds report of one expanded campaign.
///
/// Dominance (`L0274`) is judged within each kernel's point group — a
/// point of one kernel can only ever be pruned against results of the
/// same kernel, so cross-kernel comparisons would be meaningless.
fn bounds_report(plan: &CampaignPlan) -> Report {
    let mut report = Report::new();
    let mut all = Vec::new();
    let mut groups: Vec<(String, Vec<aladdin_lint::CycleBounds>)> = Vec::new();
    let mut unloadable: Option<String> = None;
    for_each_point_trace(plan, |index, kernel, point, trace| {
        let trace = match trace {
            Ok(trace) => trace,
            Err(e) => {
                // One finding per run of the kernel's points, not per point.
                if unloadable.as_deref() != Some(kernel) {
                    report.merge(e.to_report());
                    unloadable = Some(kernel.to_owned());
                }
                return;
            }
        };
        match bounds_for_point(trace, &point.dp, &point.soc, point.kind, &plan.harness) {
            Ok(b) => {
                report.push(point_diagnostic(index, &b));
                if let Some(w) = uncertified_diagnostic(index, &b) {
                    report.push(w);
                }
                if !matches!(groups.last(), Some((name, _)) if name == kernel) {
                    groups.push((kernel.to_owned(), Vec::new()));
                }
                groups.last_mut().expect("just pushed").1.push(b);
                all.push(b);
            }
            Err(r) => report.merge(r),
        }
    });
    let mut summary = summarize_bounds(&all);
    summary.dominated = 0;
    for (kernel, bs) in &groups {
        let s = summarize_bounds(bs);
        summary.dominated += s.dominated;
        if let Some(d) = s.dominance_diagnostic() {
            report.push(Diagnostic::info(
                aladdin_lint::CODE_DOMINATED,
                format!("{kernel}: {}", d.message),
            ));
        }
    }
    report.push(summary.summary_diagnostic());
    report
}

/// Model-check the MOESI-lite protocol, optionally with a seeded bug.
fn lint_protocol(args: &[String]) -> Target {
    let mut bug = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--seeded-bug" {
            bug = match it.next().map(|n| (SeededBug::by_name(n), n)) {
                Some((Some(b), _)) => Some(b),
                Some((None, n)) => {
                    eprintln!(
                        "soclint: unknown seeded bug {n:?} (known: {})",
                        SeededBug::ALL
                            .iter()
                            .map(|b| b.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    std::process::exit(2);
                }
                None => usage(),
            };
        } else {
            usage();
        }
    }
    let checker = match bug {
        Some(b) => ProtocolChecker::with_bug(b),
        None => ProtocolChecker::new(),
    };
    let out = checker.check();
    let mut report = Report::new();
    report.push(Diagnostic::info(
        "L0300",
        format!(
            "exhaustively enumerated {} states over {} transitions",
            out.states, out.transitions
        ),
    ));
    report.merge(out.report);
    Target {
        name: match bug {
            Some(b) => format!("moesi-lite+{}", b.name()),
            None => "moesi-lite".to_owned(),
        },
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plan a two-point campaign over an `.atrc` encoding of `aes-aes`
    /// written to a temp file named after `name`.
    fn atrc_plan(name: &str) -> (CampaignPlan, std::path::PathBuf) {
        let trace = by_name("aes-aes").expect("kernel").run().trace;
        let mut path = std::env::temp_dir();
        path.push(format!("soclint-{}-{name}.atrc", std::process::id()));
        std::fs::write(&path, aladdin_ir::encode_trace(&trace)).expect("write atrc");
        let toml = format!(
            "name = \"bounds-atrc\"\nkernels = [\"{}\"]\nmems = [\"isolated\"]\n\n\
             [space]\nlanes = [1, 2]\npartitions = [1]\n",
            path.display()
        );
        let plan = CampaignSpec::from_toml(&toml)
            .expect("parses")
            .expand()
            .expect("an existing .atrc file validates");
        (plan, path)
    }

    #[test]
    fn bounds_of_an_atrc_changed_after_expansion_are_l0280() {
        let (plan, path) = atrc_plan("intact");
        let report = bounds_report(&plan);
        assert!(!report.has_errors(), "{}", report.to_human());
        let _ = std::fs::remove_file(&path);

        let (plan, path) = atrc_plan("damaged");
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        let damaged = bounds_report(&plan);
        std::fs::remove_file(&path).expect("remove");
        let deleted = bounds_report(&plan);
        for (what, report) in [("damaged", damaged), ("deleted", deleted)] {
            let errors: Vec<_> = report
                .diagnostics()
                .iter()
                .filter(|d| d.severity == aladdin_ir::Severity::Error)
                .collect();
            assert_eq!(errors.len(), 1, "{what}: {}", report.to_human());
            assert_eq!(errors[0].code, "L0280", "{what}: {}", report.to_human());
        }
    }
}
