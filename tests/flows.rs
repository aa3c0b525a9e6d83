//! Flow-level behavioral tests: the paper's qualitative claims, asserted.

use aladdin_accel::DatapathConfig;
use aladdin_core::{
    decompose_cache_time, simulate, simulate_multi, validate_kernel, AcceleratorJob, DmaOptLevel,
    FlowResult, FlowSpec, MemKind, SimError, SimHarness, SocConfig, TrafficConfig,
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

/// A cache geometry the constructors cannot build (3 KiB of 32 B lines,
/// 4-way: 24 sets, not a power of two) ends the cache flow and a
/// multi-accelerator run with a cache job in a typed `L0211`, the code
/// the static check reports, instead of a panic.
#[test]
fn unbuildable_cache_geometry_is_a_typed_error() {
    let mut soc = SocConfig::default();
    soc.cache.size_bytes = 3 * 1024;
    let d = dp(1, 1);
    let expect_l0211 = |err: SimError| match err {
        SimError::Diag(diag) => assert_eq!(diag.code, "L0211", "{diag}"),
        other => panic!("expected a typed diagnostic, got {other:?}"),
    };
    expect_l0211(
        simulate(
            &trace_of("aes-aes"),
            &d,
            &soc,
            &FlowSpec::new(MemKind::Cache),
        )
        .unwrap_err(),
    );
    let jobs = [
        AcceleratorJob::cache(trace_of("aes-aes"), d, 0),
        AcceleratorJob::dma(trace_of("spmv-crs"), d, DmaOptLevel::Full, 0),
    ];
    expect_l0211(simulate_multi(&jobs, &soc, &SimHarness::default()).unwrap_err());
}

/// Each SoC component, and the datapath, checks its own configuration
/// where it is built, so a broken component ends every flow that builds
/// it, and a one-job multi-accelerator run of that flow, in a typed
/// diagnostic with the code and locus of the first error
/// `SocConfig::check` (or `DatapathConfig::check`) reports: never a
/// panic, a hang or a silent run. Flows that never build the component
/// still run.
#[test]
fn broken_components_fail_as_the_static_check_reports() {
    use aladdin_core::Topology;
    use DmaOptLevel::{Baseline, Full, Pipelined};
    const DMA: &[MemKind] = &[
        MemKind::Dma(Baseline),
        MemKind::Dma(Pipelined),
        MemKind::Dma(Full),
    ];
    const FABRIC: &[MemKind] = &[
        MemKind::Dma(Baseline),
        MemKind::Dma(Pipelined),
        MemKind::Dma(Full),
        MemKind::Cache,
    ];
    const EVERY: &[MemKind] = &[
        MemKind::Isolated,
        MemKind::Dma(Baseline),
        MemKind::Dma(Pipelined),
        MemKind::Dma(Full),
        MemKind::Cache,
    ];
    // (case, mutation of the SoC and datapath, the flows that build the
    // broken component, whether a multi-accelerator job of those flows
    // builds it too).
    type Case = (
        &'static str,
        fn(&mut SocConfig, &mut DatapathConfig),
        &'static [MemKind],
        bool,
    );
    let cases: [Case; 18] = [
        ("0-bit bus", |s, _| s.bus.width_bits = 0, FABRIC, true),
        ("12-bit bus", |s, _| s.bus.width_bits = 12, FABRIC, true),
        ("zero DMA chunk", |s, _| s.dma.chunk_bytes = 0, DMA, true),
        ("zero DMA burst", |s, _| s.dma.burst_bytes = 0, DMA, true),
        ("zero flush line", |s, _| s.flush.line_bytes = 0, DMA, true),
        // Multi-accelerator DMA jobs do not gate loads on full/empty bits.
        (
            "zero granule",
            |s, _| s.ready_bits_granule = 0,
            &[MemKind::Dma(Full)],
            false,
        ),
        (
            "48 B granule",
            |s, _| s.ready_bits_granule = 48,
            &[MemKind::Dma(Full)],
            false,
        ),
        (
            "8 KiB granule",
            |s, _| s.ready_bits_granule = 8192,
            &[MemKind::Dma(Full)],
            false,
        ),
        ("no MSHR", |s, _| s.cache.mshrs = 0, &[MemKind::Cache], true),
        (
            "no cache port",
            |s, _| s.cache.ports = 0,
            &[MemKind::Cache],
            true,
        ),
        (
            "3 KiB cache",
            |s, _| s.cache.size_bytes = 3 * 1024,
            &[MemKind::Cache],
            true,
        ),
        ("bankless DRAM", |s, _| s.dram.banks = 0, FABRIC, true),
        (
            "crossbar:0",
            |s, _| s.topology.topology = Topology::Crossbar { radix: 0 },
            FABRIC,
            true,
        ),
        (
            "zero traffic period",
            |s, _| {
                s.traffic = Some(TrafficConfig {
                    period: 0,
                    bytes: 64,
                })
            },
            FABRIC,
            true,
        ),
        (
            "zero-byte traffic",
            |s, _| {
                s.traffic = Some(TrafficConfig {
                    period: 10,
                    bytes: 0,
                })
            },
            FABRIC,
            true,
        ),
        (
            "traffic past its region",
            |s, _| {
                s.traffic = Some(TrafficConfig {
                    period: 10,
                    bytes: 32 << 20,
                });
            },
            FABRIC,
            true,
        ),
        ("zero lanes", |_, d| d.lanes = 0, EVERY, true),
        ("zero partition", |_, d| d.partition = 0, EVERY, true),
    ];
    let trace = trace_of("aes-aes");
    for (case, mutate, builds, multi) in cases {
        let mut soc = SocConfig::default();
        let mut d = dp(2, 2);
        mutate(&mut soc, &mut d);
        let (soc_report, dp_report) = (soc.check(), d.check());
        let first = (soc_report.first_error())
            .or_else(|| dp_report.first_error())
            .expect("the static check rejects it");
        let expect = |run: &str, err: SimError| match err {
            SimError::Diag(diag) => assert_eq!(
                (diag.code, &diag.locus),
                (first.code, &first.locus),
                "{case}, {run}: {diag}"
            ),
            other => panic!("{case}, {run}: expected a typed diagnostic, got {other:?}"),
        };
        for &kind in EVERY {
            let run = simulate(&trace, &d, &soc, &FlowSpec::new(kind));
            if !builds.contains(&kind) {
                assert!(run.is_ok(), "{case}, {kind} never builds it: {run:?}");
                continue;
            }
            expect(&kind.to_string(), run.unwrap_err());
            if multi {
                let job = AcceleratorJob::new(trace.clone(), d, kind, 0);
                let run = simulate_multi(&[job], &soc, &SimHarness::default());
                expect(&format!("one-job multi {kind}"), run.unwrap_err());
            }
        }
    }
}

/// Generated agreement between the static checks and the flows: seeded
/// draws put SoC, datapath, traffic and topology values on both sides of
/// every rule's boundary (zero, one, a non-power of two, a non-divisor of
/// 4 KiB, one over a capacity), and every flow, alone and as a one-job
/// multi-accelerator run, must return `Ok` exactly when `check()` of the
/// configuration it builds is clean, and otherwise a `SimError::Diag`
/// with the code and locus of that check's first error. Never a panic.
#[test]
fn generated_configurations_agree_with_the_static_checks() {
    use aladdin_core::{MasterId, Topology};
    use aladdin_mem::TRAFFIC_REGION_BYTES;
    use aladdin_rng::SmallRng;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The configuration a flow builds: `soc` with every component the
    /// flow never builds reset to its default.
    fn built_by(soc: &SocConfig, kind: MemKind, multi: bool) -> SocConfig {
        let mut built = SocConfig::default();
        // A multi-accelerator run builds the fabric even for isolated jobs.
        if multi || kind != MemKind::Isolated {
            built.bus = soc.bus;
            built.dram = soc.dram;
            built.topology = soc.topology;
            built.traffic = soc.traffic;
        }
        match kind {
            MemKind::Isolated => {}
            MemKind::Dma(opt) => {
                built.dma = soc.dma;
                built.flush = soc.flush;
                // Multi-accelerator DMA jobs do not gate loads on
                // full/empty bits.
                if opt.triggered() && !multi {
                    built.ready_bits_granule = soc.ready_bits_granule;
                }
            }
            MemKind::Cache => {
                built.cache = soc.cache;
                built.tlb = soc.tlb;
            }
        }
        built
    }

    const OVER_REGION: u32 = TRAFFIC_REGION_BYTES as u32 + 1;
    const KINDS: [MemKind; 5] = [
        MemKind::Isolated,
        MemKind::Dma(DmaOptLevel::Baseline),
        MemKind::Dma(DmaOptLevel::Pipelined),
        MemKind::Dma(DmaOptLevel::Full),
        MemKind::Cache,
    ];
    let trace = trace_of("aes-aes");
    let mut rng = SmallRng::seed_from_u64(0xA63E);
    let (mut oks, mut errs) = (0, 0);
    for case in 0..256 {
        // Each field keeps its default three times in four, else takes
        // one of its boundary values.
        let mut draw = |values: &[u64], default: u64| {
            if rng.gen_range(0..4u32) == 0 {
                values[rng.gen_range(0..values.len())]
            } else {
                default
            }
        };
        let mut d = dp(2, 2);
        d.lanes = draw(&[0, 1, 3, 16], 2) as u32;
        d.partition = draw(&[0, 1, 3, 16], 2) as u32;
        d.ports_per_bank = draw(&[0, 1, 3], 1) as u32;
        let mut soc = SocConfig::default();
        soc.bus.width_bits = draw(&[0, 1, 12, 24, 64], 32) as u32;
        soc.cache.size_bytes = draw(&[0, 1, 3 * 1024, 4096], 16 * 1024);
        soc.cache.line_bytes = draw(&[0, 1, 24, 64], 32) as u32;
        soc.cache.assoc = draw(&[0, 1, 3], 4) as u32;
        soc.cache.ports = draw(&[0, 1, 3], 2) as u32;
        soc.cache.mshrs = draw(&[0, 1, 3], 8) as usize;
        soc.tlb.entries = draw(&[0, 1, 3], 8) as usize;
        soc.tlb.page_bytes = draw(&[0, 1, 3000, 8192], 4096);
        soc.dram.banks = draw(&[0, 1, 3], 4) as usize;
        soc.dram.row_bytes = draw(&[0, 1, 3000, 8192], 4096);
        soc.dma.chunk_bytes = draw(&[0, 1, 3000, 8192], 4096);
        soc.dma.burst_bytes = draw(&[0, 1, 3], 64) as u32;
        soc.flush.line_bytes = draw(&[0, 1, 3], 32) as u32;
        soc.ready_bits_granule = draw(&[0, 1, 48, 4096, 8192], 32);
        if draw(&[1], 0) == 1 {
            soc.traffic = Some(TrafficConfig {
                period: draw(&[0, 1, 3], 200),
                bytes: draw(&[0, 1, 3, u64::from(OVER_REGION)], 64) as u32,
            });
        }
        let (a, b) = (
            draw(&[0, 1, 3, 257], 2) as u32,
            draw(&[0, 1, 2, 3], 2) as u32,
        );
        soc.topology.topology = match draw(&[1, 2, 3], 0) {
            1 => Topology::Crossbar { radix: a },
            2 => Topology::TwoLevelBus {
                clusters: a,
                bridge_cycles: 2,
            },
            3 => Topology::MeshNoc {
                cols: a.min(3),
                rows: b,
                hop_cycles: 1,
                link_bits: draw(&[0, 7, 8], 32) as u32,
            },
            _ => Topology::SharedBus,
        };

        for kind in KINDS {
            for multi in [false, true] {
                let run = if multi { "one-job multi" } else { "single" };
                let built = built_by(&soc, kind, multi);
                let mut soc_report = built.check();
                // A single-accelerator cache flow's datapath is bus master 1.
                if kind == MemKind::Cache && !multi && !soc_report.has_errors() {
                    let master = soc.topology.check_master(MasterId::ACCEL_CACHE);
                    soc_report.extend(master.err());
                }
                let dp_report = d.check();
                let first = (soc_report.first_error()).or_else(|| dp_report.first_error());
                let got = catch_unwind(AssertUnwindSafe(|| {
                    if multi {
                        let job = AcceleratorJob::new(trace.clone(), d, kind, 0);
                        simulate_multi(&[job], &soc, &SimHarness::default()).map(|_| ())
                    } else {
                        simulate(&trace, &d, &soc, &FlowSpec::new(kind)).map(|_| ())
                    }
                }));
                let what = format!("case {case}, {run} {kind}: {d:?} {soc:?}");
                match (got, first) {
                    (Err(_), _) => panic!("{what}: panicked"),
                    (Ok(Ok(())), None) => oks += 1,
                    (Ok(Err(SimError::Diag(diag))), Some(first)) => {
                        assert_eq!(
                            (diag.code, &diag.locus),
                            (first.code, &first.locus),
                            "{what}: {diag}"
                        );
                        errs += 1;
                    }
                    (Ok(got), first) => panic!("{what}: got {got:?}, check says {first:?}"),
                }
            }
        }
    }
    // Both sides of the boundary were reached.
    assert!(oks > 0 && errs > 0, "{oks} ok, {errs} rejected");
}
