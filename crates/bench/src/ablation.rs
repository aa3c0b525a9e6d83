//! Ablation studies of the design choices DESIGN.md calls out.
//!
//! Each ablation toggles one modeling/microarchitecture decision and
//! reports the simulated-cycle impact across representative kernels:
//!
//! 1. **Lane synchronization** — the paper's inter-round barrier vs free
//!    dataflow (how much performance the barrier semantics cost).
//! 2. **Hardware prefetcher** — strided prefetcher on/off for the cache
//!    flow.
//! 3. **MSHRs** — hit-under-miss depth 1 vs the paper's 16.
//! 4. **Full/empty-bit granularity** — cache-line tracking vs page-level
//!    (double-buffering-style) tracking under DMA-triggered compute.
//! 5. **DMA pipelining chunk size** — the paper's 4 KB page vs smaller
//!    and larger chunks.

use aladdin_accel::{schedule, DatapathConfig, LaneSync, SpadMemory};
use aladdin_core::{DmaOptLevel, MemKind, SocConfig};
use aladdin_workloads::by_name;

use crate::{run_flow, square_dp};

const KERNELS: [&str; 4] = ["stencil-stencil2d", "md-knn", "spmv-crs", "fft-transpose"];

/// Run all ablations and print their tables.
pub fn run() {
    lane_sync();
    prefetcher();
    mshrs();
    ready_granularity();
    chunk_size();
    tree_reduction();
    write_policy();
}

fn write_policy() {
    crate::banner("Ablation 7: cache write policy (write-back vs write-through, 4 lanes)");
    println!(
        "{:<20} {:>12} {:>13} {:>10} {:>12}",
        "kernel", "write-back", "write-through", "wb bytes", "wt bytes"
    );
    let mut rows = Vec::new();
    for name in KERNELS {
        let trace = by_name(name).expect("kernel").run().trace;
        let mut wb = SocConfig::default();
        wb.cache.write_policy = aladdin_mem::WritePolicy::WriteBack;
        let mut wt = wb;
        wt.cache.write_policy = aladdin_mem::WritePolicy::WriteThrough;
        let r_wb = run_flow(&trace, &square_dp(4), &wb, MemKind::Cache);
        let r_wt = run_flow(&trace, &square_dp(4), &wt, MemKind::Cache);
        let wb_traffic = u64::from(wb.cache.line_bytes) * r_wb.cache_stats.unwrap().writebacks;
        let wt_traffic = 8 * r_wt.cache_stats.unwrap().writethroughs;
        println!(
            "{:<20} {:>12} {:>13} {:>10} {:>12}",
            name, r_wb.total_cycles, r_wt.total_cycles, wb_traffic, wt_traffic
        );
        rows.push(vec![
            name.to_owned(),
            r_wb.total_cycles.to_string(),
            r_wt.total_cycles.to_string(),
            wb_traffic.to_string(),
            wt_traffic.to_string(),
        ]);
    }
    crate::write_csv(
        "ablation_write_policy.csv",
        &[
            "kernel",
            "writeback_cycles",
            "writethrough_cycles",
            "wb_store_bytes",
            "wt_store_bytes",
        ],
        &rows,
    );
}

fn tree_reduction() {
    crate::banner("Ablation 6: tree-height reduction of serial accumulations (8 lanes)");
    println!(
        "{:<20} {:>10} {:>10} {:>8} {:>8}",
        "kernel", "serial", "balanced", "speedup", "chains"
    );
    let mut rows = Vec::new();
    for name in ["gemm-ncubed", "md-knn", "spmv-crs", "viterbi"] {
        let trace = by_name(name).expect("kernel").run().trace;
        let (balanced, stats) = aladdin_ir::rebalance_reductions(&trace, 4);
        let soc = SocConfig::default();
        let serial_cycles =
            run_flow(&trace, &square_dp(8), &soc, MemKind::Dma(DmaOptLevel::Full)).total_cycles;
        let balanced_cycles = run_flow(
            &balanced,
            &square_dp(8),
            &soc,
            MemKind::Dma(DmaOptLevel::Full),
        )
        .total_cycles;
        println!(
            "{:<20} {:>10} {:>10} {:>7.2}x {:>8}",
            name,
            serial_cycles,
            balanced_cycles,
            serial_cycles as f64 / balanced_cycles as f64,
            stats.chains
        );
        rows.push(vec![
            name.to_owned(),
            serial_cycles.to_string(),
            balanced_cycles.to_string(),
            format!("{:.3}", serial_cycles as f64 / balanced_cycles as f64),
            stats.chains.to_string(),
        ]);
    }
    crate::write_csv(
        "ablation_tree_reduction.csv",
        &[
            "kernel",
            "serial_cycles",
            "balanced_cycles",
            "speedup",
            "chains",
        ],
        &rows,
    );
}

fn lane_sync() {
    crate::banner("Ablation 1: inter-round lane barrier vs free dataflow");
    println!(
        "{:<20} {:>10} {:>10} {:>8}",
        "kernel", "barrier", "free", "cost"
    );
    let mut rows = Vec::new();
    for name in KERNELS {
        let trace = by_name(name).expect("kernel").run().trace;
        let run_sync = |sync| {
            let cfg = DatapathConfig {
                sync,
                ..square_dp(8)
            };
            let mut mem = SpadMemory::new(&trace, &cfg);
            schedule(&trace, &cfg, &mut mem, 0)
                .expect("schedules")
                .cycles
        };
        let barrier = run_sync(LaneSync::Barrier);
        let free = run_sync(LaneSync::Free);
        println!(
            "{:<20} {:>10} {:>10} {:>7.2}x",
            name,
            barrier,
            free,
            barrier as f64 / free as f64
        );
        rows.push(vec![
            name.to_owned(),
            barrier.to_string(),
            free.to_string(),
            format!("{:.3}", barrier as f64 / free as f64),
        ]);
    }
    crate::write_csv(
        "ablation_lane_sync.csv",
        &["kernel", "barrier_cycles", "free_cycles", "barrier_cost"],
        &rows,
    );
}

fn prefetcher() {
    crate::banner("Ablation 2: strided prefetcher on/off (cache flow, 4 lanes)");
    println!(
        "{:<20} {:>10} {:>10} {:>8}",
        "kernel", "on", "off", "benefit"
    );
    let mut rows = Vec::new();
    for name in KERNELS {
        let trace = by_name(name).expect("kernel").run().trace;
        let mut on = SocConfig::default();
        on.cache.prefetch.enabled = true;
        let mut off = on;
        off.cache.prefetch.enabled = false;
        let c_on = run_flow(&trace, &square_dp(4), &on, MemKind::Cache).total_cycles;
        let c_off = run_flow(&trace, &square_dp(4), &off, MemKind::Cache).total_cycles;
        println!(
            "{:<20} {:>10} {:>10} {:>7.2}x",
            name,
            c_on,
            c_off,
            c_off as f64 / c_on as f64
        );
        rows.push(vec![
            name.to_owned(),
            c_on.to_string(),
            c_off.to_string(),
            format!("{:.3}", c_off as f64 / c_on as f64),
        ]);
    }
    crate::write_csv(
        "ablation_prefetcher.csv",
        &["kernel", "prefetch_on", "prefetch_off", "benefit"],
        &rows,
    );
}

fn mshrs() {
    crate::banner("Ablation 3: MSHR depth (hit-under-miss), cache flow, 8 lanes");
    println!(
        "{:<20} {:>9} {:>9} {:>9} {:>9}",
        "kernel", "1", "4", "16", "benefit"
    );
    let mut rows = Vec::new();
    for name in KERNELS {
        let trace = by_name(name).expect("kernel").run().trace;
        let cycles: Vec<u64> = [1usize, 4, 16]
            .iter()
            .map(|&m| {
                let mut soc = SocConfig::default();
                soc.cache.mshrs = m;
                run_flow(&trace, &square_dp(8), &soc, MemKind::Cache).total_cycles
            })
            .collect();
        println!(
            "{:<20} {:>9} {:>9} {:>9} {:>8.2}x",
            name,
            cycles[0],
            cycles[1],
            cycles[2],
            cycles[0] as f64 / cycles[2] as f64
        );
        rows.push(vec![
            name.to_owned(),
            cycles[0].to_string(),
            cycles[1].to_string(),
            cycles[2].to_string(),
            format!("{:.3}", cycles[0] as f64 / cycles[2] as f64),
        ]);
    }
    crate::write_csv(
        "ablation_mshrs.csv",
        &["kernel", "mshr_1", "mshr_4", "mshr_16", "benefit_16_over_1"],
        &rows,
    );
}

fn ready_granularity() {
    crate::banner("Ablation 4: full/empty-bit granularity (DMA-triggered, 4 lanes)");
    println!(
        "{:<20} {:>10} {:>10} {:>10}   (32 B = paper, 4096 B ~ double buffering)",
        "kernel", "32B", "512B", "4096B"
    );
    let mut rows = Vec::new();
    for name in KERNELS {
        let trace = by_name(name).expect("kernel").run().trace;
        let cycles: Vec<u64> = [32u64, 512, 4096]
            .iter()
            .map(|&g| {
                let soc = SocConfig {
                    ready_bits_granule: g,
                    ..SocConfig::default()
                };
                run_flow(&trace, &square_dp(4), &soc, MemKind::Dma(DmaOptLevel::Full)).total_cycles
            })
            .collect();
        println!(
            "{:<20} {:>10} {:>10} {:>10}",
            name, cycles[0], cycles[1], cycles[2]
        );
        rows.push(vec![
            name.to_owned(),
            cycles[0].to_string(),
            cycles[1].to_string(),
            cycles[2].to_string(),
        ]);
    }
    crate::write_csv(
        "ablation_ready_granule.csv",
        &["kernel", "granule_32", "granule_512", "granule_4096"],
        &rows,
    );
}

fn chunk_size() {
    crate::banner("Ablation 5: pipelined-DMA chunk size (4 lanes)");
    println!(
        "{:<20} {:>10} {:>10} {:>10}   (4096 B = DRAM row = paper)",
        "kernel", "1KB", "4KB", "16KB"
    );
    let mut rows = Vec::new();
    for name in KERNELS {
        let trace = by_name(name).expect("kernel").run().trace;
        let cycles: Vec<u64> = [1024u64, 4096, 16384]
            .iter()
            .map(|&c| {
                let mut soc = SocConfig::default();
                soc.dma.chunk_bytes = c;
                run_flow(
                    &trace,
                    &square_dp(4),
                    &soc,
                    MemKind::Dma(DmaOptLevel::Pipelined),
                )
                .total_cycles
            })
            .collect();
        println!(
            "{:<20} {:>10} {:>10} {:>10}",
            name, cycles[0], cycles[1], cycles[2]
        );
        rows.push(vec![
            name.to_owned(),
            cycles[0].to_string(),
            cycles[1].to_string(),
            cycles[2].to_string(),
        ]);
    }
    crate::write_csv(
        "ablation_chunk_size.csv",
        &["kernel", "chunk_1k", "chunk_4k", "chunk_16k"],
        &rows,
    );
}
