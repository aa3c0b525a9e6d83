//! Figure 4: performance-model validation.
//!
//! The paper validates against a Zynq Zedboard (≤6.4% mean DMA-model
//! error). With no FPGA available, this harness validates the composed
//! co-simulation against an independent closed-form reference — see
//! `aladdin_core::validation` and DESIGN.md for the substitution argument.

use aladdin_core::{validate_kernel, SocConfig};
use aladdin_workloads::evaluation_kernels;

/// Regenerate the Figure 4 validation table.
pub fn run() {
    crate::banner("Figure 4: cycle error, co-simulation vs analytical reference");
    let soc = SocConfig::default();
    println!(
        "{:<20} {:>12} {:>12} {:>8}   (flush/dma/compute analytic split)",
        "kernel", "simulated", "analytical", "error%"
    );
    let mut rows = Vec::new();
    let mut abs_errors = Vec::new();
    for k in evaluation_kernels() {
        let trace = k.run().trace;
        let row = validate_kernel(&trace, &soc).expect("validation run completes");
        println!(
            "{:<20} {:>12} {:>12} {:>8.2}   ({} / {} / {})",
            row.kernel,
            row.simulated,
            row.analytical,
            row.error_pct,
            row.flush_cycles,
            row.dma_cycles,
            row.compute_cycles
        );
        abs_errors.push(row.error_pct.abs());
        rows.push(vec![
            row.kernel.clone(),
            row.simulated.to_string(),
            row.analytical.to_string(),
            format!("{:.3}", row.error_pct),
            row.flush_cycles.to_string(),
            row.dma_cycles.to_string(),
            row.compute_cycles.to_string(),
        ]);
    }
    let mean = abs_errors.iter().sum::<f64>() / abs_errors.len() as f64;
    println!("\nmean |error|: {mean:.2}% (paper's hardware validation: 6.4% DMA / ~5% kernel)");
    crate::write_csv(
        "fig04_validation.csv",
        &[
            "kernel",
            "simulated",
            "analytical",
            "error_pct",
            "flush",
            "dma",
            "compute",
        ],
        &rows,
    );
}
