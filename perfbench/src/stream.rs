//! The `stream-5m` workload: a 5,000,004-node kernel streamed to an
//! `.atrc` file, decoded in full, and scheduled from the file through the
//! windowed scheduler. It is the generator of `BENCH_trace.json`'s
//! stream-fma row, so its node rate compares with that file's.

use std::io::BufWriter;
use std::path::Path;
use std::time::Instant;

use aladdin_accel::{DatapathConfig, DEFAULT_WINDOW_NODES};
use aladdin_core::{simulate_source, FlowSpec, MemKind, SocConfig, SourceFlowRun, TraceSource};
use aladdin_ir::{ArrayKind, AtrcSummary, AtrcTrace, Opcode, TraceStats, Tracer};

use crate::check::{self, Counts};
use crate::spans::Recorder;
use crate::{median, peak_rss_mb, reset_peak_rss, Args, Outcome, Scratch, SplitMix};

/// The generator stops at the first iteration boundary past this count.
const NODES: u64 = 5_000_000;
/// Times the trace is generated in set-up; its median is reported.
const GEN_REPS: usize = 3;
/// Fewest timed passes a run makes, however long they take.
const MIN_PASSES: usize = 3;

/// Stream a fused-multiply-add kernel of at least [`NODES`] nodes straight
/// to `path`, never materializing it. The access pattern cycles over a
/// 4096-element working set, so every memory dependence stays inside the
/// default scheduling window. The seed picks the input values, which do
/// not change the trace's shape.
fn generate(path: &Path, seed: u64) -> Result<AtrcSummary, String> {
    const LEN: usize = 4096;
    let mut rng = SplitMix::new(seed);
    let mut values = || -> Vec<f64> {
        (0..LEN)
            .map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 + 0.5)
            .collect()
    };
    let (va, vb) = (values(), values());
    let mut t = Tracer::new("stream-fma");
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    t.stream_to(Box::new(BufWriter::new(file)))
        .map_err(|e| format!("atrc header: {e}"))?;
    let a = t.array_f64("a", &va, ArrayKind::Input);
    let b = t.array_f64("b", &vb, ArrayKind::Input);
    let mut c = t.array_f64("c", &vec![0.0; LEN], ArrayKind::Output);
    let mut i: u32 = 0;
    while (t.len() as u64) < NODES {
        t.begin_iteration(i);
        let idx = i as usize % LEN;
        let x = t.load(&a, idx);
        let y = t.load(&b, idx);
        let p = t.binop(Opcode::FMul, x, y);
        let acc = t.load(&c, idx);
        let s = t.binop(Opcode::FAdd, p, acc);
        t.store(&mut c, idx, s);
        i += 1;
    }
    t.finish_streaming().map_err(|e| format!("seal atrc: {e}"))
}

/// One pass: open and decode the whole file, then schedule it.
struct Pass {
    stats: TraceStats,
    fingerprint: u128,
    run: SourceFlowRun,
    decode_s: f64,
    schedule_s: f64,
}

fn decode(path: &Path) -> Result<(AtrcTrace, TraceStats), String> {
    let atrc = AtrcTrace::open(path).map_err(|d| d.to_string())?;
    let stats = atrc.stats().map_err(|d| d.to_string())?;
    Ok((atrc, stats))
}

fn schedule(atrc: &AtrcTrace) -> Result<SourceFlowRun, String> {
    simulate_source(
        &TraceSource::Atrc(atrc),
        &DatapathConfig::default(),
        &SocConfig::default(),
        &FlowSpec::new(MemKind::Isolated),
    )
    .map_err(|e| e.to_string())
}

fn pass(path: &Path, rec: Option<&Recorder>) -> Result<Pass, String> {
    let t = Instant::now();
    let (atrc, stats) = match rec {
        Some(rec) => {
            rec.span("ir", "AtrcTrace::stats", Some(0), || decode(path))
                .0?
        }
        None => decode(path)?,
    };
    let decode_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let run = match rec {
        Some(rec) => {
            rec.span("accel", "simulate_source(window)", Some(0), || {
                schedule(&atrc)
            })
            .0?
        }
        None => schedule(&atrc)?,
    };
    Ok(Pass {
        stats,
        fingerprint: atrc.fingerprint(),
        run,
        decode_s,
        schedule_s: t.elapsed().as_secs_f64(),
    })
}

/// Check a pass against the generated file and the pinned schedule.
fn judge(out: &mut Outcome, p: &Pass, summary: &AtrcSummary) {
    out.attempted += 1;
    let cycles = p.run.result.total_cycles;
    let peak = p.run.peak_resident_nodes.unwrap_or(u64::MAX);
    let mut problems = Vec::new();
    if p.stats.nodes as u64 != summary.nodes || p.fingerprint != summary.fingerprint {
        problems.push(format!(
            "decoded {} nodes (fingerprint {:x}); wrote {} ({:x})",
            p.stats.nodes, p.fingerprint, summary.nodes, summary.fingerprint
        ));
    }
    if cycles != check::STREAM_CYCLES {
        problems.push(format!("{cycles} cycles, pinned {}", check::STREAM_CYCLES));
    }
    if peak > DEFAULT_WINDOW_NODES as u64 {
        problems.push(format!(
            "{peak} resident nodes exceed the {DEFAULT_WINDOW_NODES}-node window"
        ));
    }
    if !problems.is_empty() {
        out.fail(1, problems.join("; "));
    }
}

/// `stream-5m`.
pub fn run(args: &Args, scratch: &Scratch, rec: Option<&Recorder>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let path = scratch.fresh("stream")?.join("stream-fma.atrc");
    let mut gen_s = Vec::new();
    let mut summary = None;
    for _ in 0..GEN_REPS {
        let t = Instant::now();
        summary = Some(match rec {
            Some(rec) => {
                rec.span("ir", "Tracer::finish_streaming", None, || {
                    generate(&path, args.seed)
                })
                .0?
            }
            None => generate(&path, args.seed)?,
        });
        gen_s.push(t.elapsed().as_secs_f64());
    }
    let summary = summary.expect("GEN_REPS > 0");
    let nodes = summary.nodes as f64;

    let Some(rec) = rec else {
        out.set("setup_s", median(&gen_s));
        let start = Instant::now();
        let mut passes = Vec::new();
        let mut rss = Vec::new();
        while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
            reset_peak_rss();
            let p = pass(&path, None)?;
            rss.push(peak_rss_mb());
            judge(&mut out, &p, &summary);
            eprintln!(
                "pass {}: decode {:.3} s, schedule {:.3} s",
                passes.len(),
                p.decode_s,
                p.schedule_s
            );
            passes.push(p);
        }
        let rate = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        out.set("peak_rss_mb", median(&rss));
        out.set("points_per_s", rate(&|p| 1.0 / (p.decode_s + p.schedule_s)));
        out.set(
            "sim_cycles_per_s",
            rate(&|p| p.run.result.total_cycles as f64 / p.schedule_s),
        );
        out.set("stream_nodes_per_s", rate(&|p| nodes / p.schedule_s));
        return Ok(out);
    };

    let untraced = pass(&path, None)?;
    judge(&mut out, &untraced, &summary);
    let traced = pass(&path, Some(rec))?;
    judge(&mut out, &traced, &summary);
    if traced.run != untraced.run {
        out.fail(1, "traced and untraced schedules differ".into());
    }
    let mut counts = Counts::ZERO;
    counts.add_flow(&traced.run.result);
    out.set("core.sim_cycles", counts.sim_cycles as f64);
    out.set("accel.events", counts.events as f64);
    out.set("accel.stepped_cycles", counts.stepped_cycles as f64);
    out.set(
        "accel.peak_resident_nodes",
        traced.run.peak_resident_nodes.unwrap_or(0) as f64,
    );
    out.set("workloads.trace_nodes", nodes);
    out.set("ir.atrc_generate_s", median(&gen_s));
    out.set(
        "ir.atrc_decode_mb_per_s",
        summary.bytes as f64 / (1024.0 * 1024.0) / traced.decode_s,
    );
    out.set("accel.window_schedule_s", traced.schedule_s);
    out.set(
        "bench.trace_overhead_ms",
        (traced.decode_s + traced.schedule_s - untraced.decode_s - untraced.schedule_s) * 1e3,
    );
    out.set("bench.point_samples", 1.0);
    Ok(out)
}
