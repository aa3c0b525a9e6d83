//! Figure 5: the DMA latency-reduction techniques, as event timelines.
//!
//! The paper's Figure 5 is an illustration; this regenerates it from real
//! simulation: the flush / DMA / compute activity windows of one kernel
//! under each cumulative optimization.

use aladdin_core::{DmaOptLevel, MemKind, SocConfig};
use aladdin_workloads::by_name;

use crate::{run_flow, square_dp};

/// Regenerate Figure 5.
pub fn run() {
    crate::banner("Figure 5: DMA latency-reduction techniques (stencil2d, 4 lanes)");
    let trace = by_name("stencil-stencil2d").expect("kernel").run().trace;
    let dp = square_dp(4);
    let soc = SocConfig::default();

    let mut rows = Vec::new();
    let base_total = run_flow(&trace, &dp, &soc, MemKind::Dma(DmaOptLevel::Baseline)).total_cycles;
    for opt in DmaOptLevel::ALL {
        let r = run_flow(&trace, &dp, &soc, MemKind::Dma(opt));
        let p = r.phases;
        // Render a 60-char timeline with phase letters.
        let width = 60usize;
        let scale = |c: u64| (c as f64 / base_total as f64 * width as f64).round() as usize;
        let mut line = String::new();
        for (cycles, ch) in [
            (p.flush_only, 'F'),
            (p.dma_flush, 'D'),
            (p.compute_dma, 'O'),
            (p.compute_only, 'C'),
            (p.other, '.'),
        ] {
            line.push_str(&ch.to_string().repeat(scale(cycles)));
        }
        println!(
            "{:<12} |{line:<width$}| {:>8} cycles ({:.2}x)",
            opt.to_string(),
            r.total_cycles,
            base_total as f64 / r.total_cycles as f64
        );
        rows.push(vec![
            opt.to_string(),
            r.total_cycles.to_string(),
            p.flush_only.to_string(),
            p.dma_flush.to_string(),
            p.compute_dma.to_string(),
            p.compute_only.to_string(),
            p.other.to_string(),
        ]);
    }
    println!("\nF = flush-only, D = DMA (no compute), O = compute/DMA overlap, C = compute-only");
    println!("pipelined DMA overlaps flush chunks with DMA; full/empty bits start iteration 0 as soon as its line arrives");
    crate::write_csv(
        "fig05_dma_techniques.csv",
        &[
            "technique",
            "total",
            "flush_only",
            "dma_flush",
            "compute_dma",
            "compute_only",
            "other",
        ],
        &rows,
    );
}
