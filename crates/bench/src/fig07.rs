//! Figure 7: effect of datapath parallelism on cache-based accelerators,
//! decomposed into processing / latency / bandwidth time (Burger-style).

use aladdin_core::{decompose_cache_time, MemKind, SocConfig};
use aladdin_dse::CachePoint;
use aladdin_workloads::evaluation_kernels;

use crate::run_flow;

/// Find the smallest swept cache size at which performance saturates
/// (within 2% of the largest size), at 4 lanes — the paper's methodology.
fn saturating_cache_size(trace: &aladdin_ir::Trace, soc: &SocConfig) -> u64 {
    let sizes = [2048u64, 4096, 8192, 16384, 32768, 65536];
    let point = |size| CachePoint {
        lanes: 4,
        size_bytes: size,
        line_bytes: 32,
        ports: 2,
        assoc: 4,
    };
    let best = run_flow(
        trace,
        &point(*sizes.last().unwrap()).datapath(),
        &point(*sizes.last().unwrap()).apply(soc),
        MemKind::Cache,
    )
    .total_cycles;
    for &size in &sizes {
        let p = point(size);
        let c = run_flow(trace, &p.datapath(), &p.apply(soc), MemKind::Cache).total_cycles;
        if c as f64 <= best as f64 * 1.02 {
            return size;
        }
    }
    *sizes.last().unwrap()
}

/// Regenerate Figure 7.
pub fn run() {
    crate::banner("Figure 7: cache-based accelerators vs datapath parallelism");
    let soc = SocConfig::default();
    println!(
        "{:<20} {:>8} {:>6} {:>11} {:>9} {:>11} {:>8}",
        "kernel", "cache", "lanes", "processing", "latency", "bandwidth", "total"
    );
    let mut rows = Vec::new();
    for k in evaluation_kernels() {
        let trace = k.run().trace;
        let size = saturating_cache_size(&trace, &soc);
        for lanes in [1u32, 2, 4, 8, 16] {
            // Memory-level parallelism scales with the datapath: ports
            // grow with lanes (capped at the Figure 3 sweep maximum).
            let p = CachePoint {
                lanes,
                size_bytes: size,
                line_bytes: 32,
                ports: lanes.min(8),
                assoc: 4,
            };
            let d = decompose_cache_time(&trace, &p.datapath(), &p.apply(&soc));
            println!(
                "{:<20} {:>6}KB {:>6} {:>11} {:>9} {:>11} {:>8}",
                k.name(),
                size / 1024,
                lanes,
                d.processing,
                d.latency,
                d.bandwidth,
                d.total()
            );
            rows.push(vec![
                k.name().to_owned(),
                size.to_string(),
                lanes.to_string(),
                d.processing.to_string(),
                d.latency.to_string(),
                d.bandwidth.to_string(),
                d.total().to_string(),
            ]);
        }
    }
    println!("\nparallelism improves processing AND latency time (more memory-level parallelism),");
    println!("but bandwidth time grows in share: over-parallel designs outrun the 32-bit bus");
    crate::write_csv(
        "fig07_cache_parallelism.csv",
        &[
            "kernel",
            "cache_bytes",
            "lanes",
            "processing",
            "latency",
            "bandwidth",
            "total",
        ],
        &rows,
    );
}
