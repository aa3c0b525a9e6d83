//! The trace-centric workflow: capture a kernel's dynamic trace once,
//! save it, inspect it, optimize it, and re-schedule it under several
//! configurations — gem5-Aladdin's capture-once/explore-many usage model.
//!
//! ```sh
//! cargo run --release -p aladdin-core --example trace_workflow
//! ```

use aladdin_accel::DatapathConfig;
use aladdin_core::{simulate, DmaOptLevel, FlowSpec, MemKind, SocConfig};
use aladdin_ir::{encode_trace, rebalance_reductions, AtrcTrace};
use aladdin_workloads::by_name;

fn main() {
    // 1. Capture.
    let kernel = by_name("gemm-ncubed").expect("kernel exists");
    let run = kernel.run();
    println!("captured {}: {}", kernel.name(), run.trace.stats());

    // 2. Encode / reload (`.atrc`, the on-disk interchange format that
    // `trace_tool encode` writes and `trace_tool info` inspects).
    let atrc = AtrcTrace::from_bytes(encode_trace(&run.trace)).expect("valid .atrc");
    println!("encoded {atrc}");
    let reloaded = atrc.decode().expect("round trip");
    assert_eq!(reloaded.nodes(), run.trace.nodes());

    // 3. Optimize: rebalance the per-element accumulation chains.
    let (balanced, stats) = rebalance_reductions(&reloaded, 4);
    println!(
        "\ntree-height reduction: {} chains rebalanced (longest {})",
        stats.chains, stats.longest
    );

    // 4. Re-schedule both variants under the same SoC.
    let soc = SocConfig::default();
    let spec = FlowSpec::new(MemKind::Dma(DmaOptLevel::Full));
    println!(
        "\n{:<28} {:>10} {:>10} {:>9}",
        "configuration", "serial", "balanced", "speedup"
    );
    for lanes in [2u32, 4, 8, 16] {
        let dp = DatapathConfig::builder()
            .lanes(lanes)
            .partition(lanes)
            .build()
            .expect("valid datapath");
        let serial = simulate(&reloaded, &dp, &soc, &spec).unwrap().total_cycles;
        let tree = simulate(&balanced, &dp, &soc, &spec).unwrap().total_cycles;
        println!(
            "{:<28} {:>10} {:>10} {:>8.2}x",
            format!("dma(+triggered), {lanes} lanes"),
            serial,
            tree,
            serial as f64 / tree as f64
        );
    }
}
