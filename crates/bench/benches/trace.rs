//! Trace-streaming benchmarks: `.atrc` encode/decode throughput and
//! windowed-scheduler node rate at paper-scale++ sizes.
//!
//! The headline experiment generates a multi-million-node kernel straight
//! to disk (the tracer never materializes it), then schedules it from the
//! file through the windowed DDDG scheduler. The peak resident node count
//! stays at the window size while the materialized path would need the
//! whole trace live — that gap is the bounded-memory claim behind
//! `BENCH_trace.json`.
//!
//! Self-contained harness (the workspace builds with no crate registry):
//! small-kernel tracing, encode and decode runs for a fixed wall-time
//! budget and reports the median; the big streaming run reports a single
//! timed pass. The run rewrites the committed root `BENCH_trace.json`,
//! naming [`BEFORE_COMMIT`] as the baseline its numbers are compared
//! against.

use std::hint::black_box;
use std::io::BufWriter;
use std::path::PathBuf;
use std::time::Instant;

use aladdin_accel::{DatapathConfig, DEFAULT_WINDOW_NODES};
use aladdin_core::{simulate_source, FlowSpec, MemKind, SocConfig, TraceSource};
use aladdin_ir::{encode_trace, ArrayKind, AtrcSummary, AtrcTrace, Opcode, Tracer};
use aladdin_workloads::by_name;

/// Node count of the synthetic streaming kernel. The acceptance floor is
/// five million nodes — far past what the bundled MachSuite-scale kernels
/// trace, and past what a materialized `Vec<TraceNode>` + DDDG comfortably
/// holds next to itself.
const BIG_NODES: u64 = 5_000_000;

/// The commit whose numbers this bench's output is compared against:
/// the parent of the change that last moved one of its metrics (here the
/// stream-fma node rate, with the file decoded ahead on a second thread).
const BEFORE_COMMIT: &str = "4c08aaf";

const DESCRIPTION: &str = "Streaming `.atrc` trace codec throughput and windowed-scheduler \
node rate. Measured with `cargo bench --bench trace -p aladdin-bench` (release profile), which \
rewrites this file. Bundled-kernel rows report median encode/decode over ~1 s of repetitions \
with the round-trip fingerprint asserted, and trace_ns_per_node: the median wall time of one \
Kernel::run (functional execution plus tracing, and dropping the trace) divided by its node \
count. The stream-fma row is the paper-scale++ experiment: \
a 5M-node synthetic kernel traced straight to disk (never materialized), then decoded once \
(decode_mb_per_sec) and scheduled from the file by simulate_source through the windowed DDDG \
scheduler with the default 65536-node window, the file decoded ahead on a second thread. \
peak_resident_nodes is the scheduler's resident high-water mark; \
materialized_resident_nodes is what the in-memory path would hold live (every node plus its \
DDDG edges) — the gap is the bounded-memory claim.";

/// Run `f` repeatedly for ~1 s and report the median seconds per call.
fn bench_median(mut f: impl FnMut() -> u64) -> f64 {
    let budget = std::time::Duration::from_millis(1000);
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || (start.elapsed() < budget && samples.len() < 1000) {
        let t0 = Instant::now();
        black_box(f());
        samples.push(t0.elapsed().as_secs_f64());
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn mb_per_sec(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0) / secs
}

/// Tracing rate and encode/decode throughput on bundled kernels, with the
/// round-trip fingerprint checked so the numbers are known to describe a
/// correct codec.
fn bench_kernel_codec(kernel: &str) -> String {
    let k = by_name(kernel).expect("kernel");
    let trace = k.run().trace;
    let bytes = encode_trace(&trace);
    let nodes = trace.nodes().len() as u64;

    let trace_ns_per_node =
        bench_median(|| k.run().trace.nodes().len() as u64) * 1e9 / nodes as f64;

    let enc = bench_median(|| encode_trace(&trace).len() as u64);
    let dec = bench_median(|| {
        let atrc = AtrcTrace::from_bytes(bytes.clone()).expect("valid bytes");
        atrc.decode().expect("decodes").nodes().len() as u64
    });
    let atrc = AtrcTrace::from_bytes(bytes.clone()).expect("valid bytes");
    assert_eq!(atrc.fingerprint(), trace.fingerprint(), "codec round-trip");

    let enc_mbps = mb_per_sec(bytes.len() as u64, enc);
    let dec_mbps = mb_per_sec(bytes.len() as u64, dec);
    println!(
        "trace/{kernel}: {nodes} nodes, {} bytes, trace {trace_ns_per_node:.1} ns/node, \
         encode {enc_mbps:.1} MB/s, decode {dec_mbps:.1} MB/s",
        bytes.len()
    );
    format!(
        "{{\"kernel\": \"{kernel}\", \"nodes\": {nodes}, \"bytes\": {}, \"trace_ns_per_node\": {trace_ns_per_node:.1}, \"encode_mb_per_sec\": {enc_mbps:.1}, \"decode_mb_per_sec\": {dec_mbps:.1}}}",
        bytes.len()
    )
}

/// Stream a synthetic fused-multiply-add kernel of `nodes` nodes straight
/// to `path` without ever materializing it. The access pattern cycles over
/// a 4 KiB-element working set, so every memory dependence points at most
/// ~25k nodes back — comfortably inside the default scheduling window.
fn generate_big(path: &std::path::Path, nodes: u64) -> AtrcSummary {
    let mut t = Tracer::new("stream-fma");
    let file = std::fs::File::create(path).expect("create trace file");
    t.stream_to(Box::new(BufWriter::new(file)))
        .expect("atrc header");
    const LEN: usize = 4096;
    let a = t.array_f64("a", &vec![1.5; LEN], ArrayKind::Input);
    let b = t.array_f64("b", &vec![0.25; LEN], ArrayKind::Input);
    let mut c = t.array_f64("c", &vec![0.0; LEN], ArrayKind::Output);
    let mut i: u32 = 0;
    while (t.len() as u64) < nodes {
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
    t.finish_streaming().expect("seal atrc stream")
}

fn bench_big_stream() -> String {
    let path =
        std::env::temp_dir().join(format!("aladdin-bench-trace-{}.atrc", std::process::id()));

    let t0 = Instant::now();
    let summary = generate_big(&path, BIG_NODES);
    let gen_secs = t0.elapsed().as_secs_f64();
    assert!(summary.nodes >= BIG_NODES, "generator met the size floor");
    let gen_mbps = mb_per_sec(summary.bytes, gen_secs);

    let atrc = AtrcTrace::open(&path).expect("reopen trace");
    let t0 = Instant::now();
    let stats = atrc.stats().expect("full decode pass");
    let dec_secs = t0.elapsed().as_secs_f64();
    let dec_mbps = mb_per_sec(summary.bytes, dec_secs);
    assert_eq!(
        atrc.fingerprint(),
        summary.fingerprint,
        "footer fingerprint"
    );

    let soc = SocConfig::default();
    let dp = DatapathConfig::default();
    let t0 = Instant::now();
    let run = simulate_source(
        &TraceSource::Atrc(&atrc),
        &dp,
        &soc,
        &FlowSpec::new(MemKind::Isolated),
    )
    .expect("windowed schedule");
    let sched_secs = t0.elapsed().as_secs_f64();
    let nodes_per_sec = summary.nodes as f64 / sched_secs;
    let peak = run
        .peak_resident_nodes
        .expect("streamed runs report their window high-water mark");
    // The bounded-memory claim: the windowed scheduler's resident ceiling
    // is the window, not the trace. A materialized run would hold every
    // node (plus its DDDG edges) live at once.
    assert!(
        peak <= DEFAULT_WINDOW_NODES as u64,
        "peak resident {peak} exceeded the window"
    );
    assert!(
        peak < summary.nodes / 10,
        "peak resident {peak} is not O(window) << O(trace)"
    );

    println!(
        "trace/stream-fma: {} nodes, {} bytes; generate+encode {gen_mbps:.1} MB/s, \
         decode {dec_mbps:.1} MB/s, schedule {nodes_per_sec:.0} nodes/s \
         ({} cycles), peak {peak} resident vs {} materialized",
        summary.nodes, summary.bytes, run.result.total_cycles, summary.nodes
    );
    println!("trace/stream-fma: {stats}");
    let _ = std::fs::remove_file(&path);
    format!(
        "{{\"kernel\": \"stream-fma\", \"nodes\": {}, \"bytes\": {}, \
         \"generate_encode_mb_per_sec\": {gen_mbps:.1}, \"decode_mb_per_sec\": {dec_mbps:.1}, \
         \"scheduled_nodes_per_sec\": {nodes_per_sec:.0}, \"scheduled_cycles\": {}, \
         \"window_nodes\": {}, \"peak_resident_nodes\": {peak}, \
         \"materialized_resident_nodes\": {}}}",
        summary.nodes, summary.bytes, run.result.total_cycles, DEFAULT_WINDOW_NODES, summary.nodes
    )
}

fn main() {
    let mut rows: Vec<String> = ["aes-aes", "fft-transpose", "bfs-bulk"]
        .into_iter()
        .map(bench_kernel_codec)
        .collect();
    rows.push(bench_big_stream());
    for row in &rows {
        println!("json: {row}");
    }

    let doc = format!(
        "{{\n  \"description\": \"{DESCRIPTION}\",\n  \"metrics\": [\"trace_ns_per_node\", \
         \"encode_mb_per_sec\", \"decode_mb_per_sec\", \"scheduled_nodes_per_sec\", \"peak_resident_nodes\"],\n  \
         \"before_commit\": \"{BEFORE_COMMIT}\",\n  \"results\": [\n    {}\n  ]\n}}\n",
        rows.join(",\n    ")
    );
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_trace.json");
    if let Err(e) = std::fs::write(&out, doc) {
        eprintln!("trace: cannot write {}: {e}", out.display());
    } else {
        println!("trace: wrote {}", out.display());
    }
}
