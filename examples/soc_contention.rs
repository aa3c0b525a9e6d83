//! Shared-resource contention: how background bus traffic degrades DMA-
//! and cache-based accelerators differently (Section IV-A: coarse-grained
//! DMA suffers more than fine-grained cache fills).
//!
//! ```sh
//! cargo run --release -p aladdin-core --example soc_contention
//! ```

use aladdin_accel::DatapathConfig;
use aladdin_core::{simulate, DmaOptLevel, FlowSpec, MemKind, SocConfig, TrafficConfig};
use aladdin_workloads::by_name;

fn main() {
    let kernel = by_name("stencil-stencil2d").expect("kernel exists");
    let trace = kernel.run().trace;
    let dp = DatapathConfig {
        lanes: 4,
        partition: 4,
        ..DatapathConfig::default()
    };
    let report = dp.check();
    assert!(
        !report.has_errors(),
        "invalid datapath: {}",
        report.to_human()
    );
    let dma_spec = FlowSpec::new(MemKind::Dma(DmaOptLevel::Full));
    let cache_spec = FlowSpec::new(MemKind::Cache);

    println!(
        "{:<28} {:>12} {:>12} {:>9} {:>9}",
        "traffic (bus load)", "dma cycles", "cache cycles", "dma x", "cache x"
    );
    let cycles = |soc: &SocConfig, spec| simulate(&trace, &dp, soc, spec).unwrap().total_cycles;
    let quiet = SocConfig::default();
    let dma0 = cycles(&quiet, &dma_spec);
    let cache0 = cycles(&quiet, &cache_spec);
    println!(
        "{:<28} {:>12} {:>12} {:>9.2} {:>9.2}",
        "none", dma0, cache0, 1.0, 1.0
    );

    for (label, period) in [
        ("light (~10%)", 160u64),
        ("medium (~25%)", 64),
        ("heavy (~50%)", 32),
    ] {
        let soc = SocConfig {
            traffic: Some(TrafficConfig { period, bytes: 64 }),
            ..SocConfig::default()
        };
        let report = soc.check();
        assert!(
            !report.has_errors(),
            "invalid platform: {}",
            report.to_human()
        );
        let dma = cycles(&soc, &dma_spec);
        let cache = cycles(&soc, &cache_spec);
        println!(
            "{:<28} {:>12} {:>12} {:>9.2} {:>9.2}",
            label,
            dma,
            cache,
            dma as f64 / dma0 as f64,
            cache as f64 / cache0 as f64
        );
    }
}
