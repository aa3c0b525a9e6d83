//! Figure 6: (a) cumulative DMA optimizations at 4 lanes; (b) the effect
//! of datapath parallelism with all optimizations applied.

use aladdin_core::{DmaOptLevel, MemKind, SocConfig};
use aladdin_workloads::evaluation_kernels;

use crate::{run_flow, square_dp};

/// Regenerate Figure 6a.
pub fn run_6a() {
    crate::banner("Figure 6a: performance gains from each DMA technique (4 lanes)");
    let soc = SocConfig::default();
    println!(
        "{:<20} {:<12} {:>9} {:>8} {:>8} {:>9} {:>9} {:>8}",
        "kernel", "technique", "cycles", "flush%", "dma%", "overlap%", "compute%", "speedup"
    );
    let mut rows = Vec::new();
    for k in evaluation_kernels() {
        let trace = k.run().trace;
        let mut base = 0u64;
        for opt in DmaOptLevel::ALL {
            let r = run_flow(&trace, &square_dp(4), &soc, MemKind::Dma(opt));
            if opt == DmaOptLevel::Baseline {
                base = r.total_cycles;
            }
            let f = r.phases.fractions();
            println!(
                "{:<20} {:<12} {:>9} {:>8.1} {:>8.1} {:>9.1} {:>9.1} {:>8.2}",
                k.name(),
                opt.to_string(),
                r.total_cycles,
                f[0] * 100.0,
                f[1] * 100.0,
                f[2] * 100.0,
                f[3] * 100.0,
                base as f64 / r.total_cycles as f64
            );
            rows.push(vec![
                k.name().to_owned(),
                opt.to_string(),
                r.total_cycles.to_string(),
                format!("{:.4}", f[0]),
                format!("{:.4}", f[1]),
                format!("{:.4}", f[2]),
                format!("{:.4}", f[3]),
                format!("{:.3}", base as f64 / r.total_cycles as f64),
            ]);
        }
    }
    crate::write_csv(
        "fig06a_dma_opts.csv",
        &[
            "kernel",
            "technique",
            "cycles",
            "flush_only",
            "dma_flush",
            "compute_dma",
            "compute_only",
            "speedup_vs_baseline",
        ],
        &rows,
    );
}

/// Regenerate Figure 6b.
pub fn run_6b() {
    crate::banner("Figure 6b: effect of parallelism with all DMA optimizations");
    let soc = SocConfig::default();
    println!(
        "{:<20} {:>6} {:>9} {:>8} {:>9} {:>9} {:>8}",
        "kernel", "lanes", "cycles", "dma%", "overlap%", "compute%", "speedup"
    );
    let mut rows = Vec::new();
    for k in evaluation_kernels() {
        let trace = k.run().trace;
        let mut one_lane = 0u64;
        for lanes in [1u32, 2, 4, 8, 16] {
            let r = run_flow(
                &trace,
                &square_dp(lanes),
                &soc,
                MemKind::Dma(DmaOptLevel::Full),
            );
            if lanes == 1 {
                one_lane = r.total_cycles;
            }
            let f = r.phases.fractions();
            println!(
                "{:<20} {:>6} {:>9} {:>8.1} {:>9.1} {:>9.1} {:>8.2}",
                k.name(),
                lanes,
                r.total_cycles,
                (f[0] + f[1]) * 100.0,
                f[2] * 100.0,
                f[3] * 100.0,
                one_lane as f64 / r.total_cycles as f64
            );
            rows.push(vec![
                k.name().to_owned(),
                lanes.to_string(),
                r.total_cycles.to_string(),
                format!("{:.4}", f[0] + f[1]),
                format!("{:.4}", f[2]),
                format!("{:.4}", f[3]),
                format!("{:.3}", one_lane as f64 / r.total_cycles as f64),
            ]);
        }
    }
    println!("\nspeedup saturates once compute fully overlaps with DMA: the serial arrival of");
    println!("DMA data bounds achievable performance no matter how parallel the datapath is");
    crate::write_csv(
        "fig06b_parallelism.csv",
        &[
            "kernel",
            "lanes",
            "cycles",
            "movement_only",
            "compute_dma",
            "compute_only",
            "speedup_vs_1lane",
        ],
        &rows,
    );
}

/// Regenerate both panels.
pub fn run() {
    run_6a();
    run_6b();
}
