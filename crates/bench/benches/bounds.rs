//! Static-bounds benchmarks: how cheap the `[lo, hi]` analysis is next to
//! an actual simulation, and what `--prune` buys on a sweep that contains
//! statically dominated points.
//!
//! Self-contained harness (the workspace builds with no crate registry),
//! same shape as `sweep.rs`: fixed wall-time budget, median sample. The
//! point list is a prune-friendly ladder — one fast, low-leakage design
//! followed by a family of oversized, single-ported caches whose static
//! power floor and cycle lower bound are both strictly dominated by the
//! fast point's finished result. Real sweeps grow such points whenever a
//! design space includes cache sizes past the working set.
//!
//! Output doubles as the source for `BENCH_bounds.json`, which is written to
//! the repository root.

use std::hint::black_box;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::time::Instant;

use aladdin_core::{MemKind, SimHarness, SocConfig};
use aladdin_dse::{sweep_engine, sweep_points, PointOutcome, PointSpec};
use aladdin_lint::bounds_for_point;
use aladdin_workloads::by_name;

/// Run `f` repeatedly for ~1 s and report the median seconds per run.
fn median_secs(mut f: impl FnMut()) -> f64 {
    let budget = std::time::Duration::from_millis(1000);
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || (start.elapsed() < budget && samples.len() < 1000) {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// One fast cache point, then a ladder of oversized single-ported caches
/// at one lane: every rung is statically dominated by the fast point on
/// both cycles (lower bound) and power (leakage floor).
fn prune_ladder() -> Vec<PointSpec> {
    let fast = {
        let mut soc = SocConfig::default();
        soc.cache.size_bytes = 1 << 16;
        soc.cache.ports = 2;
        PointSpec {
            kind: MemKind::Cache,
            dp: aladdin_accel::DatapathConfig {
                lanes: 8,
                partition: 8,
                ..Default::default()
            },
            soc,
        }
    };
    let mut specs = vec![fast];
    for size in [1 << 20, 1 << 21, 1 << 22] {
        for hit_latency in [4, 6, 8, 12] {
            let mut slow = fast;
            slow.dp.lanes = 1;
            slow.dp.partition = 1;
            slow.soc.cache.size_bytes = size;
            slow.soc.cache.ports = 1;
            slow.soc.cache.hit_latency = hit_latency;
            specs.push(slow);
        }
    }
    specs
}

fn main() {
    let harness = SimHarness::default();
    let mut json_lines = Vec::new();

    for kernel in ["aes-aes", "fft-transpose"] {
        let trace = by_name(kernel).expect("kernel").run().trace;
        let specs = prune_ladder();
        let points = specs.len();

        // How cheap is the analysis itself? Bounds for the whole list,
        // no scheduler anywhere.
        let bounds_s = median_secs(|| {
            for s in &specs {
                black_box(
                    bounds_for_point(&trace, &s.dp, &s.soc, s.kind, &harness).expect("bounds"),
                );
            }
        });

        // Cold sweeps: every run re-simulates. The pruned run still
        // simulates the witness first (the list is walked in order), then
        // skips every dominated rung.
        let cold_full_s = median_secs(|| {
            aladdin_dse::reset_sweep_cache();
            black_box(sweep_points(&trace, &specs, &harness));
        });
        let pruned_sweep = || {
            sweep_engine((&trace).into(), &specs, &harness, true, &|_, _| {
                ControlFlow::Continue(())
            })
        };
        let mut pruned_count = 0u64;
        let cold_pruned_s = median_secs(|| {
            aladdin_dse::reset_sweep_cache();
            let (outcomes, perf) = pruned_sweep();
            pruned_count = perf.pruned;
            black_box(outcomes);
        });

        // Warm sweeps: the result cache answers everything that ran; only
        // points pruned on the cold pass still consult the bounds.
        let warm_full_s = median_secs(|| {
            black_box(sweep_points(&trace, &specs, &harness));
        });
        let warm_pruned_s = median_secs(|| {
            black_box(pruned_sweep());
        });

        // Sanity: pruning must never change the surviving results.
        aladdin_dse::reset_sweep_cache();
        let (outcomes, _) = pruned_sweep();
        let survivors = outcomes
            .iter()
            .flatten()
            .filter(|o| matches!(o, PointOutcome::Done(_)))
            .count();
        assert_eq!(survivors as u64 + pruned_count, points as u64);

        let saved_ms = (cold_full_s - cold_pruned_s) * 1e3;
        println!(
            "bounds/{kernel}: {:.0} bounds/s, {points} points, {pruned_count} pruned, \
             cold {:.1} ms -> {:.1} ms ({saved_ms:+.1} ms), warm {:.2} ms -> {:.2} ms",
            points as f64 / bounds_s,
            cold_full_s * 1e3,
            cold_pruned_s * 1e3,
            warm_full_s * 1e3,
            warm_pruned_s * 1e3,
        );
        json_lines.push(format!(
            "{{\"kernel\": \"{kernel}\", \"points\": {points}, \"pruned\": {pruned_count}, \
             \"bounds_per_sec\": {:.1}, \"cold_ms\": {:.3}, \"cold_pruned_ms\": {:.3}, \
             \"saved_ms\": {:.3}, \"warm_ms\": {:.3}, \"warm_pruned_ms\": {:.3}}}",
            points as f64 / bounds_s,
            cold_full_s * 1e3,
            cold_pruned_s * 1e3,
            saved_ms,
            warm_full_s * 1e3,
            warm_pruned_s * 1e3,
        ));
    }

    let doc = format!("[{}]\n", json_lines.join(",\n "));
    for line in &json_lines {
        println!("json: {line}");
    }
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_bounds.json");
    if let Err(e) = std::fs::write(&out, doc) {
        eprintln!("bounds: cannot write {}: {e}", out.display());
    } else {
        println!("wrote {}", out.display());
    }
}
