//! Cross-crate integration tests: every kernel through every flow.

use aladdin_accel::DatapathConfig;
use aladdin_core::{simulate, DmaOptLevel, FlowResult, FlowSpec, MemKind, SocConfig};
use aladdin_workloads::{all_kernels, evaluation_kernels};

fn dp(lanes: u32, partition: u32) -> DatapathConfig {
    DatapathConfig {
        lanes,
        partition,
        ..DatapathConfig::default()
    }
}

fn run(
    soc: &SocConfig,
    trace: &aladdin_ir::Trace,
    d: &DatapathConfig,
    kind: MemKind,
) -> FlowResult {
    simulate(trace, d, soc, &FlowSpec::new(kind)).unwrap()
}

#[test]
fn every_kernel_is_functionally_correct() {
    for kernel in all_kernels() {
        let run = kernel.run();
        let reference = kernel.reference();
        assert_eq!(
            run.outputs,
            reference,
            "{} traced execution diverges from reference",
            kernel.name()
        );
        let report = run.trace.check();
        assert!(
            report.is_clean(),
            "{} produced an invalid trace: {}",
            kernel.name(),
            report.to_human()
        );
    }
}

#[test]
fn every_kernel_runs_every_flow() {
    let soc = SocConfig::default();
    let d = dp(2, 2);
    for kernel in all_kernels() {
        let trace = kernel.run().trace;
        let iso = run(&soc, &trace, &d, MemKind::Isolated);
        let dma = run(&soc, &trace, &d, MemKind::Dma(DmaOptLevel::Baseline));
        let cache = run(&soc, &trace, &d, MemKind::Cache);
        assert!(iso.total_cycles > 0, "{}", kernel.name());
        assert!(
            dma.total_cycles > iso.total_cycles,
            "{}: system effects must cost time ({} vs {})",
            kernel.name(),
            dma.total_cycles,
            iso.total_cycles
        );
        assert!(cache.total_cycles > 0, "{}", kernel.name());
        assert!(iso.energy_j() > 0.0 && dma.energy_j() > 0.0 && cache.energy_j() > 0.0);
    }
}

#[test]
fn dma_opt_levels_never_hurt() {
    let soc = SocConfig::default();
    let d = dp(4, 4);
    for kernel in evaluation_kernels() {
        let trace = kernel.run().trace;
        let base = run(&soc, &trace, &d, MemKind::Dma(DmaOptLevel::Baseline)).total_cycles;
        let pipe = run(&soc, &trace, &d, MemKind::Dma(DmaOptLevel::Pipelined)).total_cycles;
        let full = run(&soc, &trace, &d, MemKind::Dma(DmaOptLevel::Full)).total_cycles;
        // Pipelining pays per-chunk setup; allow a tiny regression margin
        // on kernels with almost no data (aes), none elsewhere.
        assert!(
            pipe <= base + base / 20 + 200,
            "{}: pipelined {pipe} vs baseline {base}",
            kernel.name()
        );
        assert!(
            full <= pipe + pipe / 50 + 50,
            "{}: triggered {full} vs pipelined {pipe}",
            kernel.name()
        );
    }
}

#[test]
fn phase_attribution_is_conserved() {
    let soc = SocConfig::default();
    let d = dp(4, 4);
    for kernel in evaluation_kernels() {
        let trace = kernel.run().trace;
        for opt in DmaOptLevel::ALL {
            let r = run(&soc, &trace, &d, MemKind::Dma(opt));
            let p = r.phases;
            assert_eq!(
                p.flush_only + p.dma_flush + p.compute_dma + p.compute_only + p.other,
                p.total,
                "{} {opt}",
                kernel.name()
            );
            assert_eq!(p.total, r.total_cycles, "{} {opt}", kernel.name());
        }
    }
}

#[test]
fn determinism_across_identical_runs() {
    let soc = SocConfig::default();
    let d = dp(4, 4);
    for kernel in evaluation_kernels().into_iter().take(3) {
        let t1 = kernel.run().trace;
        let t2 = kernel.run().trace;
        assert_eq!(t1.nodes().len(), t2.nodes().len());
        let r1 = run(&soc, &t1, &d, MemKind::Dma(DmaOptLevel::Full));
        let r2 = run(&soc, &t2, &d, MemKind::Dma(DmaOptLevel::Full));
        assert_eq!(r1.total_cycles, r2.total_cycles, "{}", kernel.name());
        let c1 = run(&soc, &t1, &d, MemKind::Cache);
        let c2 = run(&soc, &t2, &d, MemKind::Cache);
        assert_eq!(c1.total_cycles, c2.total_cycles, "{}", kernel.name());
    }
}

#[test]
fn traces_serialize_round_trip() {
    use aladdin_ir::{encode_trace, AtrcTrace};
    for name in ["aes-aes", "spmv-crs", "fft-transpose", "sort-radix"] {
        let kernel = aladdin_workloads::by_name(name).expect("kernel");
        let trace = kernel.run().trace;
        let parsed = AtrcTrace::from_bytes(encode_trace(&trace))
            .and_then(|atrc| atrc.decode())
            .unwrap_or_else(|e| panic!("{name} failed to decode: {e}"));
        assert_eq!(parsed.name(), trace.name(), "{name}");
        assert_eq!(parsed.nodes(), trace.nodes(), "{name}");
        assert_eq!(parsed.arrays(), trace.arrays(), "{name}");
        // And the decoded trace schedules identically.
        let dp = dp(2, 2);
        let soc = SocConfig::default();
        assert_eq!(
            run(&soc, &parsed, &dp, MemKind::Isolated).total_cycles,
            run(&soc, &trace, &dp, MemKind::Isolated).total_cycles,
            "{name}"
        );
    }
}

#[test]
fn multi_accelerator_conserves_single_job_behavior() {
    use aladdin_core::{simulate_multi, AcceleratorJob, SimHarness};
    let soc_cfg = SocConfig::default();
    for name in ["md-knn", "fft-transpose"] {
        let trace = aladdin_workloads::by_name(name)
            .expect("kernel")
            .run()
            .trace;
        let d = dp(4, 4);
        let single = run(&soc_cfg, &trace, &d, MemKind::Dma(DmaOptLevel::Pipelined));
        let multi = simulate_multi(
            &[AcceleratorJob::dma(trace, d, DmaOptLevel::Pipelined, 0)],
            &soc_cfg,
            &SimHarness::default(),
        )
        .expect("multi run completes");
        let m = multi.accelerators[0].end;
        let s = single.total_cycles;
        assert!(
            m.abs_diff(s) as f64 / s as f64 <= 0.02,
            "{name}: multi {m} vs flow {s}"
        );
    }
}

#[test]
fn paper_scale_kernels_are_functionally_correct() {
    // The cheaper paper-scale variants run under the functional check too
    // (the heavyweight ones — gemm 64^3, stencil2d 64x128 — are exercised
    // by the `paper_scale` bench binary in release mode).
    for kernel in aladdin_workloads::paper_scale_kernels() {
        let skip = ["gemm-ncubed", "stencil-stencil2d", "stencil-stencil3d"];
        if skip.contains(&kernel.name()) {
            continue;
        }
        let run = kernel.run();
        assert_eq!(
            run.outputs,
            kernel.reference(),
            "{} paper-scale run diverges",
            kernel.name()
        );
        assert!(run.trace.check().is_clean());
    }
}
