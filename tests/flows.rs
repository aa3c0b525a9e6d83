//! Flow-level behavioral tests: the paper's qualitative claims, asserted.

use aladdin_accel::DatapathConfig;
use aladdin_core::{
    decompose_cache_time, simulate, validate_kernel, DmaOptLevel, FlowResult, FlowSpec, MemKind,
    SocConfig,
};
use aladdin_workloads::{by_name, evaluation_kernels};

fn trace_of(name: &str) -> aladdin_ir::Trace {
    by_name(name).expect("kernel").run().trace
}

fn dp(lanes: u32, partition: u32) -> DatapathConfig {
    DatapathConfig {
        lanes,
        partition,
        ..DatapathConfig::default()
    }
}

fn dma(
    soc: &SocConfig,
    trace: &aladdin_ir::Trace,
    d: &DatapathConfig,
    opt: DmaOptLevel,
) -> FlowResult {
    simulate(trace, d, soc, &FlowSpec::new(MemKind::Dma(opt))).unwrap()
}

fn cache(soc: &SocConfig, trace: &aladdin_ir::Trace, d: &DatapathConfig) -> FlowResult {
    simulate(trace, d, soc, &FlowSpec::new(MemKind::Cache)).unwrap()
}

/// Section II-B / Figure 2: with a 16-way parallel design under baseline
/// DMA, data movement is a large fraction of runtime for most kernels, and
/// flush alone averages ~20%.
#[test]
fn data_movement_dominates_16way_baseline() {
    let soc = SocConfig::default();
    let d = dp(16, 16);
    let mut flush_fracs = Vec::new();
    let mut movement_bound = 0;
    let kernels = evaluation_kernels();
    for kernel in &kernels {
        let trace = kernel.run().trace;
        let r = dma(&soc, &trace, &d, DmaOptLevel::Baseline);
        let f = r.phases.fractions();
        flush_fracs.push(f[0]);
        if r.phases.is_data_movement_bound() {
            movement_bound += 1;
        }
    }
    let avg_flush = flush_fracs.iter().sum::<f64>() / flush_fracs.len() as f64;
    assert!(
        avg_flush > 0.08 && avg_flush < 0.45,
        "average flush fraction should be substantial (paper ~20%): {avg_flush:.2}"
    );
    assert!(
        movement_bound >= 3,
        "roughly half the suite should be data-movement bound: {movement_bound}/8"
    );
}

/// Section IV-C2: increased parallelism does not reduce flush/DMA time
/// (the serial-data-arrival effect) — it only converts DMA-only cycles
/// into overlapped compute/DMA cycles.
#[test]
fn parallelism_does_not_reduce_dma_time() {
    let soc = SocConfig::default();
    let trace = trace_of("stencil-stencil2d");
    let narrow = dma(&soc, &trace, &dp(1, 1), DmaOptLevel::Full);
    let wide = dma(&soc, &trace, &dp(16, 16), DmaOptLevel::Full);
    // Every DMA-busy cycle is classified as either dma_flush or
    // compute_dma, so their sum is the engine's busy time — which depends
    // only on bytes and bus bandwidth, not on datapath width.
    let narrow_dma = narrow.phases.dma_flush + narrow.phases.compute_dma;
    let wide_dma = wide.phases.dma_flush + wide.phases.compute_dma;
    let ratio = wide_dma as f64 / narrow_dma.max(1) as f64;
    assert!(
        (0.85..=1.15).contains(&ratio),
        "DMA busy time should be invariant to lanes: {narrow_dma} vs {wide_dma}"
    );
    // And the wide design still cannot finish before the data does: its
    // total time stays bounded below by the (lane-invariant) DMA time.
    assert!(wide.total_cycles as f64 >= 0.9 * narrow_dma as f64);
}

/// Section V-A, Figure 8 orderings (EDP preference).
#[test]
fn dma_vs_cache_preferences_match_the_paper() {
    let soc = SocConfig::default();
    let d = dp(4, 4);

    // aes and nw prefer DMA.
    for name in ["aes-aes", "nw-nw"] {
        let trace = trace_of(name);
        let dma = dma(&soc, &trace, &d, DmaOptLevel::Full);
        let cache = cache(&soc, &trace, &d);
        assert!(
            dma.edp() < cache.edp(),
            "{name}: DMA EDP {:.3e} should beat cache {:.3e}",
            dma.edp(),
            cache.edp()
        );
    }

    // spmv and fft prefer caches.
    for name in ["spmv-crs", "fft-transpose"] {
        let trace = trace_of(name);
        let dma = dma(&soc, &trace, &d, DmaOptLevel::Full);
        let cache = cache(&soc, &trace, &d);
        assert!(
            cache.total_cycles < dma.total_cycles,
            "{name}: cache {} should outperform DMA {}",
            cache.total_cycles,
            dma.total_cycles
        );
    }
}

/// Section IV-E: the Burger-style decomposition behaves sanely across the
/// suite — processing shrinks with lanes, bandwidth time grows in share.
#[test]
fn cache_decomposition_trends() {
    let soc = SocConfig::default();
    let trace = trace_of("spmv-crs");
    let one = decompose_cache_time(&trace, &dp(1, 1), &soc).expect("decomposes");
    let sixteen = decompose_cache_time(&trace, &dp(16, 16), &soc).expect("decomposes");
    assert!(sixteen.processing < one.processing);
    let f1 = one.fractions();
    let f16 = sixteen.fractions();
    assert!(
        f16[2] >= f1[2] * 0.8,
        "bandwidth share should not shrink with parallelism: {f1:?} vs {f16:?}"
    );
}

/// Figure 4 substitute: the composed analytical model agrees with the
/// co-simulation within a Figure-4-like error band for the whole suite.
#[test]
fn validation_errors_are_small() {
    let soc = SocConfig::default();
    let mut errors = Vec::new();
    for kernel in evaluation_kernels() {
        let trace = kernel.run().trace;
        let row = validate_kernel(&trace, &soc).expect("validates");
        errors.push(row.error_pct.abs());
        assert!(
            row.error_pct.abs() < 15.0,
            "{}: error {:.2}%",
            kernel.name(),
            row.error_pct
        );
    }
    let mean = errors.iter().sum::<f64>() / errors.len() as f64;
    assert!(
        mean < 7.0,
        "mean validation error should be small: {mean:.2}%"
    );
}
