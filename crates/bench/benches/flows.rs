//! Benchmarks of whole co-simulation flows: one isolated / DMA / cache run
//! per representative kernel, measuring end-to-end simulator throughput
//! (simulated cycles per wall second drive sweep feasibility).
//!
//! Self-contained harness (no crate registry in the build environment):
//! each benchmark runs for a fixed wall-time budget and reports the median
//! ns/iteration.

use std::hint::black_box;
use std::time::Instant;

use aladdin_accel::DatapathConfig;
use aladdin_bench::{run_flow, square_dp};
use aladdin_core::{DmaOptLevel, MemKind, SocConfig};
use aladdin_workloads::by_name;

fn bench<R>(group: &str, name: &str, mut f: impl FnMut() -> R) {
    let mut samples = Vec::new();
    let budget = std::time::Duration::from_millis(200);
    let start = Instant::now();
    while samples.len() < 3 || (start.elapsed() < budget && samples.len() < 10_000) {
        let t0 = Instant::now();
        black_box(f());
        samples.push(t0.elapsed().as_nanos());
    }
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    println!("{group}/{name}: {median} ns/iter ({} runs)", samples.len());
}

fn dp() -> DatapathConfig {
    square_dp(4)
}

fn main() {
    let soc = SocConfig::default();
    for name in ["aes-aes", "md-knn", "fft-transpose"] {
        let trace = by_name(name).expect("kernel").run().trace;
        let group = format!("flow/{name}");
        bench(&group, "isolated", || {
            run_flow(black_box(&trace), &dp(), &soc, MemKind::Isolated)
        });
        bench(&group, "dma_baseline", || {
            run_flow(
                black_box(&trace),
                &dp(),
                &soc,
                MemKind::Dma(DmaOptLevel::Baseline),
            )
        });
        bench(&group, "dma_full", || {
            run_flow(
                black_box(&trace),
                &dp(),
                &soc,
                MemKind::Dma(DmaOptLevel::Full),
            )
        });
        bench(&group, "cache", || {
            run_flow(black_box(&trace), &dp(), &soc, MemKind::Cache)
        });
    }
}
