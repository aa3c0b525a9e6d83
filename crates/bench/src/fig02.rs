//! Figure 2: data-movement overheads with traditional DMA.
//!
//! (a) the md-knn execution timeline on a 16-lane design;
//! (b) per-benchmark flush / DMA / compute breakdown at 16-way
//! parallelism, over the full kernel set.

use aladdin_core::{DmaOptLevel, MemKind, SocConfig};
use aladdin_workloads::{all_kernels, by_name};

use crate::{run_flow, square_dp};

/// Regenerate Figure 2a.
pub fn run_2a() {
    crate::banner("Figure 2a: md-knn execution timeline (16 lanes, baseline DMA)");
    let trace = by_name("md-knn").expect("kernel").run().trace;
    let r = run_flow(
        &trace,
        &square_dp(16),
        &SocConfig::default(),
        MemKind::Dma(DmaOptLevel::Baseline),
    );
    let f = r.phases.fractions();
    println!("total runtime: {} cycles", r.total_cycles);
    for (label, frac) in [
        ("flush-only", f[0]),
        ("DMA/flush", f[1]),
        ("compute/DMA", f[2]),
        ("compute-only", f[3]),
        ("other (invoke, drain)", f[4]),
    ] {
        println!(
            "  {label:<22} {:>5.1}%  |{}|",
            frac * 100.0,
            crate::bar(frac, 40)
        );
    }
    let compute = f[2] + f[3];
    println!(
        "\ncomputation occupies {:.0}% of total cycles (paper: ~25%); the rest is spent preparing and moving data",
        compute * 100.0
    );
    crate::write_csv(
        "fig02a_mdknn_timeline.csv",
        &["phase", "fraction"],
        &[
            vec!["flush_only".into(), format!("{:.4}", f[0])],
            vec!["dma_flush".into(), format!("{:.4}", f[1])],
            vec!["compute_dma".into(), format!("{:.4}", f[2])],
            vec!["compute_only".into(), format!("{:.4}", f[3])],
            vec!["other".into(), format!("{:.4}", f[4])],
        ],
    );
}

/// Regenerate Figure 2b.
pub fn run_2b() {
    crate::banner("Figure 2b: flush/DMA/compute breakdown, 16-way designs, all kernels");
    println!(
        "{:<20} {:>8} {:>8} {:>9} {:>9} {:>7}   bound",
        "kernel", "flush%", "dma%", "overlap%", "compute%", "other%"
    );
    let soc = SocConfig::default();
    let mut rows = Vec::new();
    let mut flush_sum = 0.0;
    let mut movement_bound = 0usize;
    let kernels = all_kernels();
    for k in &kernels {
        let trace = k.run().trace;
        let r = run_flow(
            &trace,
            &square_dp(16),
            &soc,
            MemKind::Dma(DmaOptLevel::Baseline),
        );
        let f = r.phases.fractions();
        let bound = if r.phases.is_data_movement_bound() {
            movement_bound += 1;
            "data-movement"
        } else {
            "compute"
        };
        println!(
            "{:<20} {:>8.1} {:>8.1} {:>9.1} {:>9.1} {:>7.1}   {bound}",
            k.name(),
            f[0] * 100.0,
            f[1] * 100.0,
            f[2] * 100.0,
            f[3] * 100.0,
            f[4] * 100.0
        );
        flush_sum += f[0];
        rows.push(vec![
            k.name().to_owned(),
            format!("{:.4}", f[0]),
            format!("{:.4}", f[1]),
            format!("{:.4}", f[2]),
            format!("{:.4}", f[3]),
            format!("{:.4}", f[4]),
            bound.to_owned(),
        ]);
    }
    println!(
        "\naverage flush share: {:.0}% (paper: ~20%); {}/{} kernels data-movement bound (paper: about half)",
        flush_sum / kernels.len() as f64 * 100.0,
        movement_bound,
        kernels.len()
    );
    crate::write_csv(
        "fig02b_breakdown.csv",
        &[
            "kernel",
            "flush_only",
            "dma_flush",
            "compute_dma",
            "compute_only",
            "other",
            "bound",
        ],
        &rows,
    );
}

/// Regenerate both panels.
pub fn run() {
    run_2a();
    run_2b();
}
