//! Compare scratchpad+DMA against a hardware-managed cache for every
//! evaluation kernel — the Section V-A question: "one of the earliest
//! decisions a designer needs to make".
//!
//! ```sh
//! cargo run --release -p aladdin-core --example dma_vs_cache
//! ```

use aladdin_accel::DatapathConfig;
use aladdin_core::{simulate, DmaOptLevel, FlowSpec, MemKind, SocConfig};
use aladdin_workloads::evaluation_kernels;

fn main() {
    let soc = SocConfig::default();
    let dp = DatapathConfig::builder()
        .lanes(4)
        .partition(4)
        .build()
        .expect("valid datapath");

    println!(
        "{:<20} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "kernel", "dma cycles", "cache cycles", "dma mW", "cache mW", "winner"
    );
    for kernel in evaluation_kernels() {
        let trace = kernel.run().trace;
        let dma = simulate(
            &trace,
            &dp,
            &soc,
            &FlowSpec::new(MemKind::Dma(DmaOptLevel::Full)),
        )
        .unwrap();
        let cache = simulate(&trace, &dp, &soc, &FlowSpec::new(MemKind::Cache)).unwrap();
        let winner = match (
            dma.edp() < cache.edp(),
            (dma.edp() - cache.edp()).abs() / dma.edp() < 0.15,
        ) {
            (_, true) => "either",
            (true, _) => "dma",
            (false, _) => "cache",
        };
        println!(
            "{:<20} {:>12} {:>12} {:>10.2} {:>10.2} {:>10}",
            kernel.name(),
            dma.total_cycles,
            cache.total_cycles,
            dma.power_mw(),
            cache.power_mw(),
            winner
        );
    }
}
