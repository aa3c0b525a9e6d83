//! The campaign workloads: `campaign-cold`, `campaign-warm` and
//! `soc-contention`, all run by `aladdin_spec::run_campaign`.
//!
//! Untraced runs time whole `run_campaign` passes. Traced runs time one
//! untraced pass, then replay the same plan one point at a time through
//! the public calls `run_campaign` is built from, with a span around
//! each, because `run_campaign` cannot be split from outside.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use aladdin_accel::{PreparedDddg, SchedulerWorkspace};
use aladdin_core::{simulate, simulate_multi, simulate_prepared, FlowResult, FlowSpec, MemKind};
use aladdin_dse::{
    global_perf, reset_sweep_cache, run_point_cached, set_sweep_cache_dir, sweep_points_streaming,
    PointSpec,
};
use aladdin_spec::{mem_str, run_campaign, CampaignPlan, CampaignSpec, PlannedPoint, RunOptions};
use aladdin_workloads::{by_name, evaluation_kernels};

use crate::check::{self, Counts, Row};
use crate::spans::Recorder;
use crate::{
    median, peak_rss_mb, percentile, reset_peak_rss, threads, Args, Outcome, Scratch, SplitMix,
};

/// The trimmed Figure 3 space the evaluation sweep covers: two values of
/// each axis Figure 3 sweeps (lanes × partitions for DMA, lanes × sizes ×
/// ports at 32 B lines and 4 ways for the cache), 12 points per kernel.
const LANES: [u32; 2] = [2, 8];
const PARTITIONS: [u32; 2] = [2, 8];
const CACHE_SIZES: [u64; 2] = [8192, 32768];
const CACHE_PORTS: [u32; 2] = [1, 2];

/// Times set-up is repeated; its median is reported.
const SETUP_REPS: usize = 5;
/// Times the warm cache is filled in set-up; its median is reported.
const FILL_REPS: usize = 3;
/// Fewest timed passes a run makes, however long they take.
const MIN_PASSES: usize = 3;

fn list<T: ToString>(items: &[T], quote: bool) -> String {
    let v: Vec<String> = items
        .iter()
        .map(|i| {
            if quote {
                format!("\"{}\"", i.to_string())
            } else {
                i.to_string()
            }
        })
        .collect();
    v.join(", ")
}

/// The evaluation sweep: the eight `evaluation_kernels()` × `{dma:full,
/// cache}` over the trimmed space. The seed permutes the order of the
/// kernels, the flows and every axis, i.e. the order points run in;
/// the set of points and their results do not depend on it.
fn sweep_toml(seed: u64) -> String {
    let mut rng = SplitMix::new(seed);
    let mut kernels: Vec<&str> = evaluation_kernels().iter().map(|k| k.name()).collect();
    let mut mems = ["dma:full", "cache"];
    let (mut lanes, mut parts, mut sizes, mut ports) =
        (LANES, PARTITIONS, CACHE_SIZES, CACHE_PORTS);
    rng.shuffle(&mut kernels);
    rng.shuffle(&mut mems);
    rng.shuffle(&mut lanes);
    rng.shuffle(&mut parts);
    rng.shuffle(&mut sizes);
    rng.shuffle(&mut ports);
    format!(
        "name = \"perfbench-evaluation-sweep\"\n\
         kernels = [{}]\n\
         mems = [{}]\n\n\
         [space]\n\
         preset = \"quick\"\n\
         lanes = [{}]\n\
         partitions = [{}]\n\
         cache_sizes = [{}]\n\
         cache_lines = [32]\n\
         cache_ports = [{}]\n\
         cache_assocs = [4]\n",
        list(&kernels, true),
        list(&mems, true),
        list(&lanes, false),
        list(&parts, false),
        list(&sizes, false),
        list(&ports, false),
    )
}

/// `examples/campaigns/topology_contention.toml`: four jobs on four
/// fabrics, at two bus widths, with 1, 2 or 4 accelerators (24 points).
/// The seed permutes the fabric, width and count axes; the job list keeps
/// its order, because a count runs a prefix of it.
fn contention_toml(seed: u64) -> String {
    let mut rng = SplitMix::new(seed);
    let mut topologies = ["shared-bus", "crossbar:4", "two-level:2:4", "mesh:3x3"];
    let mut counts = [1, 2, 4];
    let mut widths = [32, 64];
    rng.shuffle(&mut topologies);
    rng.shuffle(&mut counts);
    rng.shuffle(&mut widths);
    format!(
        "name = \"perfbench-topology-contention\"\n\
         accel_counts = [{}]\n\
         bus_widths = [{}]\n\n\
         [space]\n\
         topologies = [{}]\n\n\
         [datapath]\n\
         lanes = 2\n\
         partition = 2\n\n\
         [[jobs]]\nkernel = \"aes-aes\"\nmem = \"dma:full\"\n\n\
         [[jobs]]\nkernel = \"kmp\"\nmem = \"dma:pipelined\"\n\n\
         [[jobs]]\nkernel = \"sort-merge\"\nmem = \"dma:full\"\n\n\
         [[jobs]]\nkernel = \"stencil-stencil2d\"\nmem = \"dma:full\"\nlaunch = 500\n",
        list(&counts, false),
        list(&widths, false),
        list(&topologies, true),
    )
}

fn expand(toml: &str) -> Result<CampaignPlan, String> {
    CampaignSpec::from_toml(toml)
        .and_then(|s| s.expand())
        .map_err(|r| r.to_human())
}

/// A campaign's set-up: the expanded plan, and the trace node count of
/// every point (each kernel traced once), which the node rate needs.
struct Setup {
    plan: CampaignPlan,
    nodes_of: BTreeMap<String, u64>,
    /// Median seconds of the expansion alone.
    expand_s: f64,
    /// Median seconds of the whole set-up, `extra` included.
    setup_s: f64,
}

/// Set a campaign up `reps` times: expand `toml`, size every point, then
/// run `extra` (the warm workload's cache fill), keeping the last result.
fn set_up<T>(
    toml: &str,
    reps: usize,
    mut extra: impl FnMut(&CampaignPlan) -> Result<T, String>,
) -> Result<(Setup, T), String> {
    let (mut expand_s, mut setup_s) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let plan = expand(toml)?;
        expand_s.push(t.elapsed().as_secs_f64());
        let nodes_of = plan_nodes(&plan);
        let x = extra(&plan)?;
        setup_s.push(t.elapsed().as_secs_f64());
        last = Some((plan, nodes_of, x));
    }
    let (plan, nodes_of, x) = last.expect("at least one set-up");
    let setup = Setup {
        plan,
        nodes_of,
        expand_s: median(&expand_s),
        setup_s: median(&setup_s),
    };
    Ok((setup, x))
}

/// The key of a planned point, as [`check::read_journal`] keys its row.
fn planned_key(p: &PlannedPoint) -> String {
    match p {
        PlannedPoint::Single { kernel, point } => single_key(kernel, point),
        PlannedPoint::Multi {
            stagger,
            count,
            soc,
        } => check::multi_key(
            &soc.topology.topology.spec_string(),
            u64::from(soc.bus.width_bits),
            *count as u64,
            *stagger,
        ),
    }
}

fn single_key(kernel: &str, p: &PointSpec) -> String {
    let cache =
        (p.kind == MemKind::Cache).then(|| (p.soc.cache.size_bytes, u64::from(p.soc.cache.ports)));
    check::single_key(
        kernel,
        &mem_str(p.kind),
        u64::from(p.dp.lanes),
        u64::from(p.dp.partition),
        cache,
    )
}

fn flow_value(r: &FlowResult) -> String {
    check::single_value(r.total_cycles, r.energy_j(), r.edp())
}

/// One timed `run_campaign` pass.
struct Pass {
    wall_s: f64,
    ran: usize,
    failed: usize,
    rows: Vec<Row>,
    cache_hits: u64,
    cache_lookups: u64,
}

/// Run `plan` into a fresh journal under `dir`, with the disk cache tier
/// at `cache` and the memory tier emptied first.
fn run_pass(plan: &CampaignPlan, dir: &Path, cache: &Path) -> Result<Pass, String> {
    set_sweep_cache_dir(cache);
    reset_sweep_cache();
    let journal = dir.join("journal.jsonl");
    let perf0 = global_perf();
    let t = Instant::now();
    let summary = run_campaign(plan, &journal, &RunOptions::default()).map_err(|r| r.to_human())?;
    let wall_s = t.elapsed().as_secs_f64();
    let perf = global_perf();
    Ok(Pass {
        wall_s,
        ran: summary.ran,
        failed: summary.failed,
        rows: check::read_journal(&journal)?,
        cache_hits: perf.cache_hits - perf0.cache_hits,
        cache_lookups: perf.points - perf0.points,
    })
}

/// Check one pass: every point ran, none failed, each matches
/// `reference` (when given), and the whole pass hashes to `pin`.
fn judge(
    out: &mut Outcome,
    what: &str,
    pass: &Pass,
    plan: &CampaignPlan,
    reference: Option<&BTreeMap<String, Option<String>>>,
    pin: u64,
) {
    let total = plan.points.len() as u64;
    out.attempted += total;
    let mut bad = pass.failed as u64;
    if pass.ran != plan.points.len() || pass.rows.len() != plan.points.len() {
        out.problems.push(format!(
            "{what}: ran {} and journaled {} of {total} points",
            pass.ran,
            pass.rows.len()
        ));
        bad = bad.max(total.saturating_sub(pass.rows.len() as u64));
    }
    if let Some(reference) = reference {
        let m = check::mismatches(&pass.rows, reference) as u64;
        if m > 0 {
            out.problems
                .push(format!("{what}: {m} point(s) differ from the reference"));
        }
        bad = bad.max(m);
    }
    let d = check::rows_digest(&pass.rows);
    if d != pin {
        out.problems.push(format!(
            "{what}: result digest {d:#018x}, pinned {pin:#018x}"
        ));
        bad = total;
    }
    out.failed += bad.min(total);
}

/// Node count of every planned point's trace(s), keyed like its row.
fn plan_nodes(plan: &CampaignPlan) -> BTreeMap<String, u64> {
    let mut of_kernel: BTreeMap<String, u64> = BTreeMap::new();
    let mut nodes = |k: &str| {
        *of_kernel.entry(k.to_owned()).or_insert_with(|| {
            by_name(k)
                .expect("planned kernel")
                .run()
                .trace
                .nodes()
                .len() as u64
        })
    };
    let mut by_key = BTreeMap::new();
    for p in &plan.points {
        let n = match p {
            PlannedPoint::Single { kernel, .. } => nodes(kernel),
            PlannedPoint::Multi { count, .. } => plan.spec.jobs[..*count]
                .iter()
                .map(|j| nodes(&j.kernel))
                .sum(),
        };
        by_key.insert(planned_key(p), n);
    }
    by_key
}

/// Run timed passes for `args.seconds` (at least [`MIN_PASSES`]), each
/// with a fresh journal; `cache` is the disk tier to use, or `None` for
/// a fresh empty one per pass. Sets the throughput metrics and the
/// median per-pass peak RSS.
fn timed_passes(
    args: &Args,
    scratch: &Scratch,
    out: &mut Outcome,
    setup: &Setup,
    cache: Option<&Path>,
    reference: Option<&BTreeMap<String, Option<String>>>,
    pin: u64,
) -> Result<Vec<Pass>, String> {
    let (plan, nodes_of) = (&setup.plan, &setup.nodes_of);
    let mut rss = Vec::new();
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let dir = scratch.fresh("pass")?;
        reset_peak_rss();
        let pass = run_pass(plan, &dir, cache.unwrap_or(&dir.join("cache")))?;
        rss.push(peak_rss_mb());
        let _ = std::fs::remove_dir_all(&dir);
        judge(
            out,
            &format!("pass {}", passes.len()),
            &pass,
            plan,
            reference,
            pin,
        );
        eprintln!(
            "pass {}: {} points in {:.3} s",
            passes.len(),
            pass.ran,
            pass.wall_s
        );
        passes.push(pass);
    }
    let rate = |f: &dyn Fn(&Pass) -> f64| -> f64 {
        median(&passes.iter().map(|p| f(p) / p.wall_s).collect::<Vec<_>>())
    };
    out.set("peak_rss_mb", median(&rss));
    out.set("points_per_s", rate(&|p| p.ran as f64));
    out.set(
        "sim_cycles_per_s",
        rate(&|p| p.rows.iter().map(|r| r.cycles as f64).sum()),
    );
    out.set(
        "stream_nodes_per_s",
        rate(&|p| {
            p.rows
                .iter()
                .map(|r| nodes_of.get(&r.key).copied().unwrap_or(0) as f64)
                .sum()
        }),
    );
    Ok(passes)
}

/// The simulated totals of a sweep plan, read back from the result
/// cache's memory tier (which the last pass filled) without timing.
fn sweep_counts(plan: &CampaignPlan) -> Counts {
    let mut counts = Counts::ZERO;
    for (kernel, idx) in kernel_groups(plan) {
        let trace = by_name(&kernel).expect("planned kernel").run().trace;
        for i in idx {
            let p = point_spec(plan, i);
            counts.add_flow(&run_point_cached(&trace, &p.dp, &p.soc, p.kind));
        }
    }
    counts
}

fn check_counts(out: &mut Outcome, what: &str, got: Counts, pin: Counts, points: u64) {
    if got != pin {
        out.fail(
            points,
            format!("{what}: simulated counts {got:?}, pinned {pin:?}"),
        );
    }
}

/// The plan's single points grouped by kernel, in plan order, as
/// `run_campaign` groups them.
fn kernel_groups(plan: &CampaignPlan) -> Vec<(String, Vec<usize>)> {
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    for (i, p) in plan.points.iter().enumerate() {
        if let PlannedPoint::Single { kernel, .. } = p {
            match groups.last_mut() {
                Some((k, v)) if k == kernel => v.push(i),
                _ => groups.push((kernel.clone(), vec![i])),
            }
        }
    }
    groups
}

fn point_spec(plan: &CampaignPlan, i: usize) -> PointSpec {
    match &plan.points[i] {
        PlannedPoint::Single { point, .. } => *point,
        PlannedPoint::Multi { .. } => unreachable!("sweep plans hold single points"),
    }
}

/// Untraced timing of a sweep plan's two parts, kernel group by kernel
/// group: trace generation and the multithreaded sweep. Returns
/// `(generation seconds, sweep seconds)`.
fn split_sweep(plan: &CampaignPlan, cache: &Path) -> (f64, f64) {
    set_sweep_cache_dir(cache);
    reset_sweep_cache();
    let (mut gen, mut sweep) = (0.0, 0.0);
    for (kernel, idx) in kernel_groups(plan) {
        let t = Instant::now();
        let trace = by_name(&kernel).expect("planned kernel").run().trace;
        gen += t.elapsed().as_secs_f64();
        let specs: Vec<PointSpec> = idx.iter().map(|&i| point_spec(plan, i)).collect();
        let t = Instant::now();
        let _ = sweep_points_streaming(&trace, &specs, &plan.harness, &|_, _| {});
        sweep += t.elapsed().as_secs_f64();
    }
    (gen, sweep)
}

/// Generate `kernel`'s trace and its fingerprint, each inside a span.
fn traced_trace(rec: &Recorder, kernel: &str) -> aladdin_ir::Trace {
    let (trace, _) = rec.span("workloads", "Kernel::run", None, || {
        by_name(kernel).expect("planned kernel").run().trace
    });
    let _ = rec.span("ir", "Trace::fingerprint", None, || trace.fingerprint());
    trace
}

/// `campaign-cold`: the evaluation sweep into a fresh journal and an
/// empty disk cache per pass.
pub fn cold(args: &Args, scratch: &Scratch, rec: Option<&Recorder>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (setup, ()) = set_up(&sweep_toml(args.seed), SETUP_REPS, |_| Ok(()))?;
    let plan = &setup.plan;
    let Some(rec) = rec else {
        out.set("setup_s", setup.setup_s);
        timed_passes(
            args,
            scratch,
            &mut out,
            &setup,
            None,
            None,
            check::SWEEP_DIGEST,
        )?;
        let counts = sweep_counts(plan);
        check_counts(
            &mut out,
            "cold",
            counts,
            check::SWEEP_COUNTS,
            plan.points.len() as u64,
        );
        return Ok(out);
    };
    out.set("spec.expand_ms", setup.expand_s * 1e3);

    let dir = scratch.fresh("untraced")?;
    let pass = run_pass(plan, &dir, &dir.join("cache"))?;
    judge(
        &mut out,
        "untraced pass",
        &pass,
        plan,
        None,
        check::SWEEP_DIGEST,
    );
    let reference = check::row_map(&pass.rows);
    set_hit_ratio(&mut out, &pass);
    let (gen_s, sweep_s) = split_sweep(plan, &scratch.fresh("split")?.join("cache"));
    out.set("spec.overhead_ms", (pass.wall_s - sweep_s - gen_s) * 1e3);

    let replay_cache = scratch.fresh("replay")?.join("cache");
    set_sweep_cache_dir(&replay_cache);
    reset_sweep_cache();
    let t = Instant::now();
    let mut counts = Counts::ZERO;
    let (mut iso_ms, mut point_ms, mut insert_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut step_ms = 0.0;
    let mut traces = Vec::new();
    let mut bad = 0u64;
    for (kernel, idx) in kernel_groups(plan) {
        let trace = traced_trace(rec, &kernel);
        let mut preps: BTreeMap<u32, PreparedDddg> = BTreeMap::new();
        let mut ws = SchedulerWorkspace::new();
        for &i in &idx {
            let p = point_spec(plan, i);
            let prep = preps.entry(p.dp.lanes).or_insert_with(|| {
                rec.span("accel", "PreparedDddg::new", Some(i), || {
                    PreparedDddg::new(&trace, &p.dp)
                })
                .0
            });
            let run = |kind: MemKind, ws: &mut SchedulerWorkspace| {
                simulate_prepared(
                    &trace,
                    &p.dp,
                    &p.soc,
                    &FlowSpec::new(kind).with_prepared(prep),
                    ws,
                )
            };
            let (iso, a_ms) = rec.span("accel", "simulate_prepared(Isolated)", Some(i), || {
                run(MemKind::Isolated, &mut ws)
            });
            let (own, c_ms) = rec.span("core", "simulate_prepared", Some(i), || {
                run(p.kind, &mut ws)
            });
            let (sim, s_ms) = rec.span("core", "simulate", Some(i), || {
                simulate(&trace, &p.dp, &p.soc, &FlowSpec::new(p.kind))
            });
            let (miss, m_ms) = rec.span("dse", "run_point_cached(miss)", Some(i), || {
                run_point_cached(&trace, &p.dp, &p.soc, p.kind)
            });
            let (Ok(_), Ok(own), Ok(sim)) = (iso, own, sim) else {
                bad += 1;
                continue;
            };
            let key = planned_key(&plan.points[i]);
            if own != sim || own != miss || reference.get(&key) != Some(&Some(flow_value(&own))) {
                bad += 1;
            }
            counts.add_flow(&own);
            iso_ms.push(a_ms);
            point_ms.push(c_ms);
            insert_us.push((m_ms - s_ms) * 1e3);
            step_ms += c_ms - a_ms;
        }
        traces.push((trace, idx));
    }
    let (lookup_us, _) = disk_hits(&mut out, rec, plan, &traces, &reference);
    let replay_s = t.elapsed().as_secs_f64();
    if bad > 0 {
        out.fail(
            bad,
            format!("traced replay: {bad} point(s) differ from the untraced run"),
        );
    }
    out.attempted += plan.points.len() as u64;
    check_counts(
        &mut out,
        "traced replay",
        counts,
        check::SWEEP_COUNTS,
        plan.points.len() as u64,
    );

    set_counts(&mut out, &counts);
    set_trace_layers(&mut out, rec, &traces);
    out.set(
        "accel.dddg_prepare_ms",
        rec.total_ms("accel", "PreparedDddg::new"),
    );
    out.set("accel.schedule_ms_p50", percentile(&iso_ms, 50.0));
    out.set("accel.schedule_ms_p99", percentile(&iso_ms, 99.0));
    out.set("mem.step_ms", step_ms);
    out.set("core.point_ms_p50", percentile(&point_ms, 50.0));
    out.set("core.point_ms_p99", percentile(&point_ms, 99.0));
    out.set("dse.cache_insert_us_p50", percentile(&insert_us, 50.0));
    out.set("dse.cache_lookup_us_p50", percentile(&lookup_us, 50.0));
    out.set(
        "dse.parallel_efficiency",
        point_ms.iter().sum::<f64>() / 1e3 / (threads() as f64 * sweep_s),
    );
    out.set("bench.trace_overhead_ms", (replay_s - pass.wall_s) * 1e3);
    out.set("bench.point_samples", point_ms.len() as f64);
    Ok(out)
}

/// Look every point up again after emptying the memory tier, so each is a
/// disk hit; check the hit and its result. Returns per-lookup µs and the
/// simulated totals of the results served.
fn disk_hits(
    out: &mut Outcome,
    rec: &Recorder,
    plan: &CampaignPlan,
    traces: &[(aladdin_ir::Trace, Vec<usize>)],
    reference: &BTreeMap<String, Option<String>>,
) -> (Vec<f64>, Counts) {
    reset_sweep_cache();
    let mut us = Vec::new();
    let mut counts = Counts::ZERO;
    let mut bad = 0u64;
    for (trace, idx) in traces {
        for &i in idx {
            let p = point_spec(plan, i);
            let hits0 = global_perf().cache_hits;
            let (r, ms) = rec.span("dse", "run_point_cached(hit)", Some(i), || {
                run_point_cached(trace, &p.dp, &p.soc, p.kind)
            });
            let hit = global_perf().cache_hits > hits0;
            if !hit || reference.get(&planned_key(&plan.points[i])) != Some(&Some(flow_value(&r))) {
                bad += 1;
            }
            counts.add_flow(&r);
            us.push(ms * 1e3);
        }
    }
    if bad > 0 {
        out.fail(bad, format!("{bad} disk-cache lookup(s) missed or differ"));
    }
    (us, counts)
}

fn set_hit_ratio(out: &mut Outcome, pass: &Pass) {
    let ratio = if pass.cache_lookups == 0 {
        0.0
    } else {
        pass.cache_hits as f64 / pass.cache_lookups as f64
    };
    out.set("dse.cache_hit_ratio", ratio);
}

fn set_counts(out: &mut Outcome, c: &Counts) {
    out.set("core.sim_cycles", c.sim_cycles as f64);
    out.set("accel.events", c.events as f64);
    out.set("accel.stepped_cycles", c.stepped_cycles as f64);
    out.set("mem.cache_accesses", c.cache_accesses as f64);
    out.set(
        "mem.cache_miss_ratio",
        if c.cache_accesses == 0 {
            0.0
        } else {
            c.cache_misses as f64 / c.cache_accesses as f64
        },
    );
    out.set("mem.tlb_misses", c.tlb_misses as f64);
    out.set("mem.dma_bursts", c.dma_bursts as f64);
    out.set("mem.bus_bytes", c.bus_bytes as f64);
}

fn set_trace_layers(out: &mut Outcome, rec: &Recorder, traces: &[(aladdin_ir::Trace, Vec<usize>)]) {
    out.set(
        "workloads.trace_gen_ms",
        rec.total_ms("workloads", "Kernel::run"),
    );
    out.set(
        "workloads.trace_nodes",
        traces.iter().map(|(t, _)| t.nodes().len() as f64).sum(),
    );
    out.set(
        "ir.fingerprint_ms",
        rec.total_ms("ir", "Trace::fingerprint"),
    );
}

/// `campaign-warm`: the evaluation sweep re-run against the disk cache
/// set-up filled, with the memory tier emptied before every pass.
pub fn warm(args: &Args, scratch: &Scratch, rec: Option<&Recorder>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut fill_dir: Option<std::path::PathBuf> = None;
    let (setup, fill) = set_up(&sweep_toml(args.seed), FILL_REPS, |plan| {
        if let Some(old) = fill_dir.take() {
            let _ = std::fs::remove_dir_all(old);
        }
        let dir = scratch.fresh("fill")?;
        let pass = run_pass(plan, &dir, &dir.join("cache"))?;
        fill_dir = Some(dir);
        Ok(pass)
    })?;
    let plan = &setup.plan;
    judge(
        &mut out,
        "cache fill",
        &fill,
        plan,
        None,
        check::SWEEP_DIGEST,
    );
    let reference = check::row_map(&fill.rows);
    let cache = fill_dir.expect("set-up filled a cache").join("cache");

    let Some(rec) = rec else {
        out.set("setup_s", setup.setup_s);
        let passes = timed_passes(
            args,
            scratch,
            &mut out,
            &setup,
            Some(&cache),
            Some(&reference),
            check::SWEEP_DIGEST,
        )?;
        let misses: u64 = passes.iter().map(|p| p.cache_lookups - p.cache_hits).sum();
        if misses > 0 {
            out.fail(
                misses,
                format!("{misses} warm lookup(s) missed the disk cache"),
            );
        }
        let counts = sweep_counts(plan);
        check_counts(
            &mut out,
            "warm",
            counts,
            check::SWEEP_COUNTS,
            plan.points.len() as u64,
        );
        return Ok(out);
    };
    out.set("spec.expand_ms", setup.expand_s * 1e3);

    let pass_dir = scratch.fresh("untraced")?;
    let pass = run_pass(plan, &pass_dir, &cache)?;
    judge(
        &mut out,
        "untraced pass",
        &pass,
        plan,
        Some(&reference),
        check::SWEEP_DIGEST,
    );
    set_hit_ratio(&mut out, &pass);
    let (gen_s, sweep_s) = split_sweep(plan, &cache);
    out.set("spec.overhead_ms", (pass.wall_s - sweep_s - gen_s) * 1e3);

    // The replay mirrors the warm fast path: trace generation, one
    // fingerprint per trace, then a cache hit per point. A hit needs no
    // prepared graph and no scheduling, so those layers stay at 0.
    let t = Instant::now();
    let traces: Vec<_> = kernel_groups(plan)
        .into_iter()
        .map(|(kernel, idx)| (traced_trace(rec, &kernel), idx))
        .collect();
    let (lookup_us, counts) = disk_hits(&mut out, rec, plan, &traces, &reference);
    let replay_s = t.elapsed().as_secs_f64();
    out.attempted += plan.points.len() as u64;
    check_counts(
        &mut out,
        "traced replay",
        counts,
        check::SWEEP_COUNTS,
        plan.points.len() as u64,
    );

    set_counts(&mut out, &counts);
    set_trace_layers(&mut out, rec, &traces);
    out.set("dse.cache_lookup_us_p50", percentile(&lookup_us, 50.0));
    out.set(
        "dse.parallel_efficiency",
        lookup_us.iter().sum::<f64>() / 1e6 / (threads() as f64 * sweep_s),
    );
    out.set("bench.trace_overhead_ms", (replay_s - pass.wall_s) * 1e3);
    out.set("bench.point_samples", lookup_us.len() as f64);
    Ok(out)
}

/// `soc-contention`: the 24-point topology-contention campaign.
pub fn contention(
    args: &Args,
    scratch: &Scratch,
    rec: Option<&Recorder>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (setup, ()) = set_up(&contention_toml(args.seed), SETUP_REPS, |_| Ok(()))?;
    let plan = &setup.plan;
    let Some(rec) = rec else {
        out.set("setup_s", setup.setup_s);
        timed_passes(
            args,
            scratch,
            &mut out,
            &setup,
            None,
            None,
            check::CONTENTION_DIGEST,
        )?;
        return Ok(out);
    };
    out.set("spec.expand_ms", setup.expand_s * 1e3);

    let dir = scratch.fresh("untraced")?;
    let pass = run_pass(plan, &dir, &dir.join("cache"))?;
    judge(
        &mut out,
        "untraced pass",
        &pass,
        plan,
        None,
        check::CONTENTION_DIGEST,
    );
    let reference = check::row_map(&pass.rows);

    // Untraced split of the pass: job construction (trace generation)
    // and the co-simulation itself, point by point as `run_campaign`
    // runs them.
    let (mut gen_s, mut sim_s) = (0.0, 0.0);
    for p in &plan.points {
        if let PlannedPoint::Multi {
            stagger,
            count,
            soc,
        } = p
        {
            let t = Instant::now();
            let jobs = plan.jobs_at(*stagger);
            gen_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let _ = simulate_multi(&jobs[..*count], soc, &plan.harness);
            sim_s += t.elapsed().as_secs_f64();
        }
    }
    out.set("spec.overhead_ms", (pass.wall_s - sim_s - gen_s) * 1e3);

    let t = Instant::now();
    let mut counts = Counts::ZERO;
    let (mut iso_ms, mut multi_ms) = (Vec::new(), Vec::new());
    let mut step_ms = 0.0;
    let mut nodes = 0u64;
    let mut bad = 0u64;
    for (i, p) in plan.points.iter().enumerate() {
        let PlannedPoint::Multi {
            stagger,
            count,
            soc,
        } = p
        else {
            unreachable!("job-set plans hold multi points")
        };
        let (jobs, _) = rec.span("workloads", "CampaignPlan::jobs_at", Some(i), || {
            plan.jobs_at(*stagger)
        });
        nodes = jobs.iter().map(|j| j.trace.nodes().len() as u64).sum();
        // The isolated cost of the same jobs: each job's graph prepared
        // and scheduled alone, with no memory system or fabric.
        let mut alone_ms = 0.0;
        let mut ws = SchedulerWorkspace::new();
        for job in &jobs[..*count] {
            let (prep, prep_ms) = rec.span("accel", "PreparedDddg::new", Some(i), || {
                PreparedDddg::new(&job.trace, &job.datapath)
            });
            let spec = FlowSpec::new(MemKind::Isolated).with_prepared(&prep);
            let (_, ms) = rec.span("accel", "simulate_prepared(Isolated)", Some(i), || {
                simulate_prepared(&job.trace, &job.datapath, soc, &spec, &mut ws)
            });
            iso_ms.push(ms);
            alone_ms += prep_ms + ms;
        }
        let (r, ms) = rec.span("core", "simulate_multi", Some(i), || {
            simulate_multi(&jobs[..*count], soc, &plan.harness)
        });
        multi_ms.push(ms);
        step_ms += ms - alone_ms;
        match r {
            Ok(r) => {
                let lat: Vec<u64> = r.accelerators.iter().map(|a| a.latency()).collect();
                let value = check::multi_value(r.end, &lat);
                if reference.get(&planned_key(p)) != Some(&Some(value)) {
                    bad += 1;
                }
                counts.add_multi(&r);
            }
            Err(_) => bad += 1,
        }
    }
    let replay_s = t.elapsed().as_secs_f64();
    if bad > 0 {
        out.fail(
            bad,
            format!("traced replay: {bad} point(s) differ from the untraced run"),
        );
    }
    out.attempted += plan.points.len() as u64;
    check_counts(
        &mut out,
        "traced replay",
        counts,
        check::CONTENTION_COUNTS,
        plan.points.len() as u64,
    );

    set_counts(&mut out, &counts);
    out.set("dse.cache_hit_ratio", 0.0);
    out.set(
        "workloads.trace_gen_ms",
        rec.total_ms("workloads", "CampaignPlan::jobs_at"),
    );
    out.set("workloads.trace_nodes", nodes as f64);
    out.set(
        "accel.dddg_prepare_ms",
        rec.total_ms("accel", "PreparedDddg::new"),
    );
    out.set("accel.schedule_ms_p50", percentile(&iso_ms, 50.0));
    out.set("accel.schedule_ms_p99", percentile(&iso_ms, 99.0));
    out.set("mem.step_ms", step_ms);
    out.set("core.multi_point_ms_p50", percentile(&multi_ms, 50.0));
    out.set("core.multi_point_ms_p99", percentile(&multi_ms, 99.0));
    out.set(
        "dse.parallel_efficiency",
        multi_ms.iter().sum::<f64>() / 1e3 / (threads() as f64 * sim_s),
    );
    out.set("bench.trace_overhead_ms", (replay_s - pass.wall_s) * 1e3);
    out.set("bench.point_samples", multi_ms.len() as f64);
    Ok(out)
}
