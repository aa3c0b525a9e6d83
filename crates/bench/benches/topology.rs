//! Interconnect-topology benchmarks: what each fabric costs to *simulate*
//! (wall-clock) and what it costs the *SoC* (completion cycles) as
//! contention grows. N identical DMA accelerators hammer one memory
//! system at 1, 4, and 9 masters across all four topology models — the
//! contention scaling study behind docs/interconnects.md.
//!
//! Self-contained harness (the workspace builds with no crate registry),
//! same shape as `bounds.rs`: fixed wall-time budget, median sample.
//! Output doubles as the source for `BENCH_topology.json`, which is written to
//! the repository root.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use aladdin_accel::DatapathConfig;
use aladdin_core::{
    simulate_multi, AcceleratorJob, DmaOptLevel, SimHarness, SocConfig, Topology, TopologyConfig,
};
use aladdin_workloads::by_name;

/// Run `f` repeatedly for ~1 s and report the median seconds per run.
fn median_secs(mut f: impl FnMut()) -> f64 {
    let budget = std::time::Duration::from_millis(1000);
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || (start.elapsed() < budget && samples.len() < 200) {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let harness = SimHarness::default();
    let trace = by_name("stencil-stencil2d").expect("kernel").run().trace;
    let dp = DatapathConfig {
        lanes: 4,
        partition: 4,
        ..DatapathConfig::default()
    };
    // A 4x3 grid carries 11 masters, so one mesh spec covers every rung.
    let topologies = [
        Topology::SharedBus,
        Topology::Crossbar { radix: 4 },
        Topology::TwoLevelBus {
            clusters: 2,
            bridge_cycles: 4,
        },
        Topology::MeshNoc {
            cols: 4,
            rows: 3,
            hop_cycles: 1,
            link_bits: 32,
        },
    ];

    let mut json_lines = Vec::new();
    for topology in topologies {
        let soc = SocConfig {
            topology: TopologyConfig {
                topology,
                ..TopologyConfig::default()
            },
            ..SocConfig::default()
        };
        let spec = topology.spec_string();
        for masters in [1usize, 4, 9] {
            let jobs: Vec<AcceleratorJob> = (0..masters)
                .map(|_| AcceleratorJob::dma(trace.clone(), dp, DmaOptLevel::Pipelined, 0))
                .collect();
            let result = simulate_multi(&jobs, &soc, &harness).expect("co-run completes");
            let wall_s = median_secs(|| {
                black_box(simulate_multi(&jobs, &soc, &harness).expect("co-run completes"));
            });
            // Determinism across repeats is part of the contract.
            assert_eq!(
                result,
                simulate_multi(&jobs, &soc, &harness).expect("co-run completes")
            );
            let worst = jobs
                .iter()
                .enumerate()
                .map(|(i, _)| result.accelerators[i].latency())
                .max()
                .expect("at least one job");
            println!(
                "topology/{spec}: {masters} master(s), done at {} (worst latency {worst}), \
                 bus {:.0}% utilized, {:.2} ms/run",
                result.end,
                result.bus_utilization * 100.0,
                wall_s * 1e3,
            );
            json_lines.push(format!(
                "{{\"topology\": \"{spec}\", \"masters\": {masters}, \"end_cycles\": {}, \
                 \"worst_latency\": {worst}, \"bus_utilization\": {:.4}, \"wall_ms\": {:.3}}}",
                result.end,
                result.bus_utilization,
                wall_s * 1e3,
            ));
        }
    }

    let doc = format!("[{}]\n", json_lines.join(",\n "));
    for line in &json_lines {
        println!("json: {line}");
    }
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_topology.json");
    if let Err(e) = std::fs::write(&out, doc) {
        eprintln!("topology: cannot write {}: {e}", out.display());
    } else {
        println!("topology: wrote {}", out.display());
    }
}
