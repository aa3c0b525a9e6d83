//! Quickstart: simulate one kernel on one SoC, three ways.
//!
//! ```sh
//! cargo run --release -p aladdin-core --example quickstart
//! ```

use aladdin_accel::DatapathConfig;
use aladdin_core::{simulate, DmaOptLevel, FlowSpec, MemKind, SocConfig};
use aladdin_workloads::by_name;

fn main() {
    let kernel = by_name("stencil-stencil3d").expect("kernel exists");
    let run = kernel.run();
    println!("kernel: {} — {}", kernel.name(), kernel.description());
    println!("trace:  {}", run.trace.stats());
    println!(
        "data:   {} B in, {} B out\n",
        run.trace.input_bytes(),
        run.trace.output_bytes()
    );

    let soc = SocConfig::default();
    let report = soc.check();
    assert!(
        !report.has_errors(),
        "invalid platform: {}",
        report.to_human()
    );
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

    let flow = |kind| simulate(&run.trace, &dp, &soc, &FlowSpec::new(kind)).unwrap();
    let isolated = flow(MemKind::Isolated);
    let baseline = flow(MemKind::Dma(DmaOptLevel::Baseline));
    let full = flow(MemKind::Dma(DmaOptLevel::Full));
    let cache = flow(MemKind::Cache);

    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>12}",
        "flow", "cycles", "power", "energy", "EDP"
    );
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>12}",
        "", "", "(mW)", "(uJ)", "(J*s)"
    );
    for r in [&isolated, &baseline, &full, &cache] {
        println!(
            "{:<22} {:>10} {:>10.2} {:>10.3} {:>12.3e}",
            r.mem_kind.to_string(),
            r.total_cycles,
            r.power_mw(),
            r.energy_j() * 1e6,
            r.edp()
        );
    }

    println!("\nbaseline DMA phase breakdown:\n  {}", baseline.phases);
    println!("optimized DMA phase breakdown:\n  {}", full.phases);
}
