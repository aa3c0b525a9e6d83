//! Scaling check: rerun the Figure 2b breakdown and the DMA-vs-cache
//! verdicts at MachSuite's *published* problem sizes, to confirm the
//! repository's scaled-down defaults do not change any conclusion.
//!
//! ```sh
//! cargo run --release -p aladdin-bench --bin paper_scale
//! ```

use aladdin_bench::{banner, run_flow, square_dp, write_csv};
use aladdin_core::{DmaOptLevel, FlowResult, MemKind, SocConfig};
use aladdin_workloads::{evaluation_kernels, paper_scale_kernels};

/// Best-EDP cache run over the Figure 3 cache-size sweep (a fixed size
/// would unfairly penalize whichever scale overflows it — the paper
/// always sweeps).
fn best_cache(trace: &aladdin_ir::Trace, soc: &SocConfig) -> FlowResult {
    [2048u64, 4096, 8192, 16384, 32768, 65536]
        .iter()
        .map(|&size| {
            let mut s = *soc;
            s.cache.size_bytes = size;
            run_flow(trace, &square_dp(4), &s, MemKind::Cache)
        })
        .min_by(|a, b| a.edp().partial_cmp(&b.edp()).expect("finite"))
        .expect("non-empty sweep")
}

fn main() {
    banner("Paper-scale inputs: Figure 2b breakdown + DMA/cache verdicts");
    let soc = SocConfig::default();
    println!(
        "{:<20} {:>9} {:>8} {:>9} {:>10} {:>10} {:>8}  verdict(default)",
        "kernel", "nodes", "flush%", "compute%", "dma cyc", "cache cyc", "ratio"
    );
    let mut rows = Vec::new();
    for (paper, scaled) in paper_scale_kernels().iter().zip(evaluation_kernels()) {
        let trace = paper.run().trace;
        let breakdown = run_flow(
            &trace,
            &square_dp(16),
            &soc,
            MemKind::Dma(DmaOptLevel::Baseline),
        );
        let f = breakdown.phases.fractions();

        let d = run_flow(&trace, &square_dp(4), &soc, MemKind::Dma(DmaOptLevel::Full));
        let c = best_cache(&trace, &soc);
        let ratio = d.edp() / c.edp();

        // The verdict at the repository's default (scaled) sizes.
        let strace = scaled.run().trace;
        let sd = run_flow(
            &strace,
            &square_dp(4),
            &soc,
            MemKind::Dma(DmaOptLevel::Full),
        );
        let sc = best_cache(&strace, &soc);
        let sratio = sd.edp() / sc.edp();
        let same_side = (ratio < 1.0) == (sratio < 1.0)
            || (0.8..1.25).contains(&ratio)
            || (0.8..1.25).contains(&sratio);

        println!(
            "{:<20} {:>9} {:>8.1} {:>9.1} {:>10} {:>10} {:>8.2}  {} ({:.2})",
            paper.name(),
            trace.nodes().len(),
            f[0] * 100.0,
            (f[2] + f[3]) * 100.0,
            d.total_cycles,
            c.total_cycles,
            ratio,
            if same_side { "consistent" } else { "FLIPPED" },
            sratio
        );
        rows.push(vec![
            paper.name().to_owned(),
            trace.nodes().len().to_string(),
            format!("{:.4}", f[0]),
            format!("{:.4}", f[2] + f[3]),
            d.total_cycles.to_string(),
            c.total_cycles.to_string(),
            format!("{ratio:.3}"),
            format!("{sratio:.3}"),
            same_side.to_string(),
        ]);
    }
    write_csv(
        "paper_scale_check.csv",
        &[
            "kernel",
            "nodes",
            "flush_frac_16way",
            "compute_frac_16way",
            "dma_cycles_4lane",
            "cache_cycles_4lane",
            "edp_ratio_paper_scale",
            "edp_ratio_default_scale",
            "verdict_consistent",
        ],
        &rows,
    );
}
