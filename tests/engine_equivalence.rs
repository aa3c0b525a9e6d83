//! Golden bit-exactness suite for the unified flow engine.
//!
//! The `FlowSpec` refactor's contract is that `simulate` is the *same
//! simulation* the pre-`FlowSpec` `run_*` entry points performed — not a
//! close approximation. Before those entry points were deleted, every
//! bundled kernel under every memory-system kind was recorded here as its
//! `total_cycles` plus a 64-bit FNV-1a digest of the whole [`FlowResult`]'s
//! `Debug` rendering. Rust's float `Debug` output round-trips, so a
//! matching digest pins every field — cycles, phases, energy inputs, and
//! every stats block — bit for bit. A heterogeneous multi-accelerator run
//! rides along: cache + DMA jobs on one bus must complete under the
//! watchdog, be deterministic, and each be no faster than its solo run.
//!
//! Before the single flows and `simulate_multi` were moved onto one SoC
//! world, three more tables were recorded the same way: the single flows
//! under background traffic and under a seeded fault plan, and
//! `simulate_multi` across every job kind, fabric and harness the world
//! steps. They pin that the merge was bit-exact.

use aladdin_accel::DatapathConfig;
use aladdin_core::{
    simulate, simulate_multi, AcceleratorJob, DmaOptLevel, FlowSpec, MemKind, ProtocolConfig,
    SimHarness, SocConfig, Topology, TopologyConfig, TrafficConfig,
};
use aladdin_workloads::{all_kernels, by_name};

fn dp(lanes: u32) -> DatapathConfig {
    DatapathConfig {
        lanes,
        partition: lanes,
        ..DatapathConfig::default()
    }
}

const ISOLATED: MemKind = MemKind::Isolated;
const DMA_BASELINE: MemKind = MemKind::Dma(DmaOptLevel::Baseline);
const DMA_PIPELINED: MemKind = MemKind::Dma(DmaOptLevel::Pipelined);
const DMA_FULL: MemKind = MemKind::Dma(DmaOptLevel::Full);
const CACHE: MemKind = MemKind::Cache;

const KINDS: [MemKind; 3] = [ISOLATED, DMA_FULL, CACHE];

/// `(kernel, flow, total_cycles, digest)` for every kernel × {isolated,
/// dma:full, cache} at lanes = partition = 2, recorded from the
/// `run_isolated`/`run_dma`/`run_cache` entry points.
const GOLDEN_LANES_2: &[(&str, MemKind, u64, u64)] = &[
    ("aes-aes", ISOLATED, 1682, 0x60008161e07b26be),
    ("aes-aes", DMA_FULL, 1826, 0xcb6d9982cc989653),
    ("aes-aes", CACHE, 1731, 0xe9f996674cff620b),
    ("nw-nw", ISOLATED, 33269, 0xde3385638b55d03e),
    ("nw-nw", DMA_FULL, 33829, 0xe65127c0ed2f058d),
    ("nw-nw", CACHE, 33359, 0x581c6f762f8fb2fd),
    ("gemm-ncubed", ISOLATED, 60416, 0x72cc03f3ed0e92a4),
    ("gemm-ncubed", DMA_FULL, 67804, 0xe6960f11f8c07aaa),
    ("gemm-ncubed", CACHE, 138094, 0x188d0d460923570d),
    ("stencil-stencil2d", ISOLATED, 73036, 0x0711f5fd253c3ccc),
    ("stencil-stencil2d", DMA_FULL, 83054, 0x84021c87fd56b91d),
    ("stencil-stencil2d", CACHE, 82841, 0x2c3da12f38e7775d),
    ("stencil-stencil3d", ISOLATED, 41160, 0xd37e76c7e62240a2),
    ("stencil-stencil3d", DMA_FULL, 52021, 0xdb0a72391ac0806c),
    ("stencil-stencil3d", CACHE, 61534, 0x31b137f4f52ed2fa),
    ("md-knn", ISOLATED, 34368, 0x44ef19b9678df561),
    ("md-knn", DMA_FULL, 36469, 0x7817ce90a00265d6),
    ("md-knn", CACHE, 38657, 0x9c9c57a5ca9e8506),
    ("spmv-crs", ISOLATED, 2729, 0x0a8f587cdaf29fd5),
    ("spmv-crs", DMA_FULL, 8517, 0x9b19aa7cb826a8bf),
    ("spmv-crs", CACHE, 5733, 0x92f655eabf64d467),
    ("fft-transpose", ISOLATED, 2112, 0x2ff89eec22f837d4),
    ("fft-transpose", DMA_FULL, 7348, 0x7fba84fb46b9ab2c),
    ("fft-transpose", CACHE, 9108, 0x810c73916a2b0008),
    ("bfs-bulk", ISOLATED, 3455, 0xa0800a7a61eaef5f),
    ("bfs-bulk", DMA_FULL, 5903, 0x76fda3644d4664be),
    ("bfs-bulk", CACHE, 6256, 0x44a1d96debcccd02),
    ("sort-merge", ISOLATED, 6182, 0x548bef49e1c2f307),
    ("sort-merge", DMA_FULL, 7358, 0x584b1cfb2f8ac51c),
    ("sort-merge", CACHE, 6041, 0x3840563af490abec),
    ("sort-radix", ISOLATED, 19866, 0x134ee09002909d6b),
    ("sort-radix", DMA_FULL, 21035, 0xd8099465843bdc61),
    ("sort-radix", CACHE, 19936, 0x8f881eec5c54361a),
    ("kmp", ISOLATED, 1569, 0xd0142f2f448f2dee),
    ("kmp", DMA_FULL, 2264, 0x0ffb318aae5d3f35),
    ("kmp", CACHE, 1899, 0xad7459fe9b2133f8),
    ("viterbi", ISOLATED, 54961, 0xbeeefe87c9880ec8),
    ("viterbi", DMA_FULL, 62758, 0x1961935a026233f7),
    ("viterbi", CACHE, 94247, 0x96c372fd9070b922),
    ("gemm-blocked", ISOLATED, 34816, 0x75f9828bb204ad96),
    ("gemm-blocked", DMA_FULL, 40606, 0xf233eacdb237e83a),
    ("gemm-blocked", CACHE, 53868, 0x33dbe8dde12d797c),
    ("spmv-ellpack", ISOLATED, 2729, 0x56e8ce7c19d83ef5),
    ("spmv-ellpack", DMA_FULL, 8498, 0x2f68651911f39529),
    ("spmv-ellpack", CACHE, 5761, 0xe6302dedb6fffc2d),
    ("md-grid", ISOLATED, 14532, 0x56a15d52243a8173),
    ("md-grid", DMA_FULL, 17718, 0xdd7fb2447c23155d),
    ("md-grid", CACHE, 15702, 0x442fd25d653a906f),
];

/// The first four kernels under every DMA optimization level at
/// lanes = partition = 4, recorded from the `Soc::run_dma` wrapper.
const GOLDEN_DMA_LEVELS: &[(&str, MemKind, u64, u64)] = &[
    ("aes-aes", DMA_BASELINE, 1174, 0xf59b48a70ea79b62),
    ("aes-aes", DMA_PIPELINED, 1142, 0x2119f51e5bc0419f),
    ("aes-aes", DMA_FULL, 1074, 0x1366a2ec6aaa864f),
    ("nw-nw", DMA_BASELINE, 28062, 0x11e2ee45a2dd0b41),
    ("nw-nw", DMA_PIPELINED, 27766, 0x386ff41a9d6c6200),
    ("nw-nw", DMA_FULL, 27685, 0x623e227a6509c465),
    ("gemm-ncubed", DMA_BASELINE, 46738, 0xe70d9a5ef8759cfa),
    ("gemm-ncubed", DMA_PIPELINED, 41850, 0x0e9a3aaa301547a0),
    ("gemm-ncubed", DMA_FULL, 41676, 0x5358963953c0d172),
    ("stencil-stencil2d", DMA_BASELINE, 72833, 0x7c7f455bdd307940),
    (
        "stencil-stencil2d",
        DMA_PIPELINED,
        58688,
        0x93a2cec180cf2150,
    ),
    ("stencil-stencil2d", DMA_FULL, 50376, 0xaec9bf8cef74c068),
];

/// 64-bit FNV-1a over a result's `Debug` rendering.
fn digest(r: &impl std::fmt::Debug) -> u64 {
    format!("{r:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Re-simulate every row of `golden` at `lanes` and compare.
fn assert_matches_goldens(golden: &[(&str, MemKind, u64, u64)], lanes: u32) {
    let soc = SocConfig::default();
    let d = dp(lanes);
    let mut trace: Option<(&str, aladdin_ir::Trace)> = None;
    for &(kernel, kind, cycles, hash) in golden {
        if !matches!(&trace, Some((name, _)) if *name == kernel) {
            trace = Some((kernel, by_name(kernel).expect("kernel").run().trace));
        }
        let (_, t) = trace.as_ref().expect("just loaded");
        let r = simulate(t, &d, &soc, &FlowSpec::new(kind))
            .unwrap_or_else(|e| panic!("{kernel} {kind}: {e}"));
        assert_eq!(
            (r.total_cycles, digest(&r)),
            (cycles, hash),
            "{kernel} {kind}: diverged from the recorded golden"
        );
    }
}

/// Every kernel × {isolated, dma, cache}: the unified engine reproduces
/// the recorded results of the pre-`FlowSpec` entry points bit-exactly.
#[test]
fn unified_engine_matches_recorded_goldens_everywhere() {
    assert_eq!(GOLDEN_LANES_2.len(), all_kernels().len() * KINDS.len());
    assert_matches_goldens(GOLDEN_LANES_2, 2);
}

/// Every DMA optimization level, at a second datapath width.
#[test]
fn dma_levels_match_recorded_goldens() {
    assert_eq!(GOLDEN_DMA_LEVELS.len(), 4 * DmaOptLevel::ALL.len());
    assert_matches_goldens(GOLDEN_DMA_LEVELS, 4);
}

/// Heterogeneous SoC (paper Fig. 3 ACCEL0/ACCEL1): a cache-based and a
/// DMA-based accelerator sharing one bus complete under the default
/// watchdog, contention makes neither faster than its solo run, and the
/// co-run reproduces bit-exactly.
#[test]
fn heterogeneous_multi_contends_and_reproduces() {
    let soc = SocConfig::default();
    let h = SimHarness::default();
    let d = dp(4);
    let cache_trace = aladdin_workloads::by_name("spmv-crs")
        .expect("kernel")
        .run()
        .trace;
    let dma_trace = aladdin_workloads::by_name("stencil-stencil2d")
        .expect("kernel")
        .run()
        .trace;

    let solo_cache = simulate_multi(
        &[AcceleratorJob::cache(cache_trace.clone(), d, 0)],
        &soc,
        &h,
    )
    .expect("solo cache run completes");
    let solo_dma = simulate_multi(
        &[AcceleratorJob::dma(
            dma_trace.clone(),
            d,
            DmaOptLevel::Pipelined,
            0,
        )],
        &soc,
        &h,
    )
    .expect("solo dma run completes");

    let jobs = [
        AcceleratorJob::cache(cache_trace, d, 0),
        AcceleratorJob::dma(dma_trace, d, DmaOptLevel::Pipelined, 0),
    ];
    let co = simulate_multi(&jobs, &soc, &h).expect("heterogeneous run completes");
    assert_eq!(co.accelerators.len(), 2);
    assert_eq!(co.accelerators[0].kind, MemKind::Cache);
    assert_eq!(
        co.accelerators[1].kind,
        MemKind::Dma(DmaOptLevel::Pipelined)
    );

    // Sharing the bus can only slow each accelerator down.
    assert!(
        co.accelerators[0].latency() >= solo_cache.accelerators[0].latency(),
        "cache job sped up under contention: {} vs solo {}",
        co.accelerators[0].latency(),
        solo_cache.accelerators[0].latency()
    );
    assert!(
        co.accelerators[1].latency() >= solo_dma.accelerators[0].latency(),
        "dma job sped up under contention: {} vs solo {}",
        co.accelerators[1].latency(),
        solo_dma.accelerators[0].latency()
    );
    // And at least one of them actually pays for the contention.
    assert!(
        co.accelerators[0].latency() > solo_cache.accelerators[0].latency()
            || co.accelerators[1].latency() > solo_dma.accelerators[0].latency(),
        "co-running on one bus must cost somebody cycles"
    );

    let again = simulate_multi(&jobs, &soc, &h).expect("rerun completes");
    assert_eq!(co, again, "heterogeneous co-run must be deterministic");
}

/// The interconnect refactor's contract: selecting `shared-bus`
/// explicitly is the *same simulation* as the pre-refactor default, for
/// every kernel under every memory-system kind and through
/// `simulate_multi`. Full structural equality, not just cycle counts.
#[test]
fn explicit_shared_bus_topology_is_bit_exact_with_the_default() {
    let default_soc = SocConfig::default();
    let explicit_soc = SocConfig {
        topology: TopologyConfig {
            topology: Topology::SharedBus,
            ..TopologyConfig::default()
        },
        ..default_soc
    };
    let h = SimHarness::default();
    let d = dp(2);
    for kernel in all_kernels() {
        let trace = kernel.run().trace;
        for kind in KINDS {
            let spec = FlowSpec::new(kind);
            let base = simulate(&trace, &d, &default_soc, &spec)
                .unwrap_or_else(|e| panic!("{} {kind}: {e}", kernel.name()));
            let explicit = simulate(&trace, &d, &explicit_soc, &spec)
                .unwrap_or_else(|e| panic!("{} {kind}: {e}", kernel.name()));
            assert_eq!(base, explicit, "{} {kind}", kernel.name());
        }
        let jobs = [AcceleratorJob::dma(trace, d, DmaOptLevel::Full, 0)];
        let base = simulate_multi(&jobs, &default_soc, &h)
            .unwrap_or_else(|e| panic!("{} multi: {e}", kernel.name()));
        let explicit = simulate_multi(&jobs, &explicit_soc, &h)
            .unwrap_or_else(|e| panic!("{} multi: {e}", kernel.name()));
        assert_eq!(base, explicit, "{} multi", kernel.name());
    }
}

fn soc_with(topology: Topology) -> SocConfig {
    SocConfig {
        topology: TopologyConfig {
            topology,
            ..TopologyConfig::default()
        },
        ..SocConfig::default()
    }
}

fn saturating_jobs(n: usize) -> Vec<AcceleratorJob> {
    let trace = aladdin_workloads::by_name("stencil-stencil2d")
        .expect("kernel")
        .run()
        .trace;
    (0..n)
        .map(|_| AcceleratorJob::dma(trace.clone(), dp(4), DmaOptLevel::Pipelined, 0))
        .collect()
}

/// Conservation across fabrics: no interconnect model may lose or
/// duplicate a transaction. The roll-up's `bus_bytes` must equal the sum
/// of per-master bytes, and the total traffic a job set moves is a
/// property of the jobs, not of the fabric carrying them.
#[test]
fn every_topology_conserves_bus_bytes() {
    let topologies = [
        Topology::SharedBus,
        Topology::Crossbar { radix: 4 },
        Topology::TwoLevelBus {
            clusters: 2,
            bridge_cycles: 3,
        },
        Topology::MeshNoc {
            cols: 3,
            rows: 3,
            hop_cycles: 1,
            link_bits: 32,
        },
    ];
    let jobs = saturating_jobs(4);
    let h = SimHarness::default();
    let baseline = simulate_multi(&jobs, &soc_with(Topology::SharedBus), &h)
        .expect("shared-bus run completes");
    for topology in topologies {
        let soc = soc_with(topology);
        let r = simulate_multi(&jobs, &soc, &h)
            .unwrap_or_else(|e| panic!("{}: {e}", topology.spec_string()));
        let per_master: u64 = r.accelerators.iter().map(|a| a.bus_bytes).sum();
        assert_eq!(
            r.bus_bytes,
            per_master,
            "{}: roll-up bytes must equal the per-master sum",
            topology.spec_string()
        );
        assert_eq!(
            r.bus_bytes,
            baseline.bus_bytes,
            "{}: total traffic is a property of the jobs, not the fabric",
            topology.spec_string()
        );
        for (i, a) in r.accelerators.iter().enumerate() {
            assert!(
                a.bus_bytes > 0 && a.end > a.launched,
                "{}: master {i} lost its transactions",
                topology.spec_string()
            );
        }
        let again = simulate_multi(&jobs, &soc, &h).expect("rerun completes");
        assert_eq!(r, again, "{} must be deterministic", topology.spec_string());
    }
}

/// Fairness under saturation: with N identical jobs hammering one
/// fabric, round-robin grants must bound how far apart the completion
/// times can drift. A starved master would blow the spread wide open.
#[test]
fn crossbar_and_mesh_grant_fairly_under_saturation() {
    for (topology, n) in [
        (Topology::Crossbar { radix: 4 }, 6),
        (
            Topology::MeshNoc {
                cols: 3,
                rows: 3,
                hop_cycles: 1,
                link_bits: 32,
            },
            6,
        ),
    ] {
        let jobs = saturating_jobs(n);
        let r = simulate_multi(&jobs, &soc_with(topology), &SimHarness::default())
            .unwrap_or_else(|e| panic!("{}: {e}", topology.spec_string()));
        let latencies: Vec<u64> = r.accelerators.iter().map(|a| a.latency()).collect();
        let min = *latencies.iter().min().expect("jobs");
        let max = *latencies.iter().max().expect("jobs");
        assert!(min > 0, "{}: degenerate run", topology.spec_string());
        // Identical work through a fair arbiter: the slowest master may
        // pay contention, but not more than 2x the fastest.
        assert!(
            max <= min.saturating_mul(2),
            "{}: unfair grant spread {latencies:?}",
            topology.spec_string()
        );
    }
}

/// Background traffic for the traffic goldens: a 64-byte read every 20
/// cycles, enough to contend with both DMA bursts and cache fills.
const TRAFFIC: TrafficConfig = TrafficConfig {
    period: 20,
    bytes: 64,
};

fn noisy_soc() -> SocConfig {
    SocConfig {
        traffic: Some(TRAFFIC),
        ..SocConfig::default()
    }
}

/// `(kernel, flow, total_cycles, digest)` for four kernels under
/// {dma:full, cache} at lanes = partition = 2: first with background
/// traffic on the bus, then under the seed-7 fault harness. Where the
/// traffic generator ticks relative to the DMA engines and cache fills is
/// the subtle part of the per-cycle loop; these rows pin it.
const GOLDEN_TRAFFIC: &[(&str, MemKind, u64, u64)] = &[
    ("aes-aes", DMA_FULL, 1856, 0x3975682794679b59),
    ("aes-aes", CACHE, 1747, 0xd1e811f048e061ec),
    ("spmv-crs", DMA_FULL, 12808, 0x81e9e04e5b0cf5fe),
    ("spmv-crs", CACHE, 14836, 0x804ab9a7304defc6),
    ("fft-transpose", DMA_FULL, 11304, 0x1d61aa38d56a67aa),
    ("fft-transpose", CACHE, 26534, 0x51e6d4fb00651a78),
    ("md-knn", DMA_FULL, 36832, 0xa3aa4d10457f92c8),
    ("md-knn", CACHE, 42823, 0x83f614086158af98),
];
const GOLDEN_FAULTS: &[(&str, MemKind, u64, u64)] = &[
    ("aes-aes", DMA_FULL, 1826, 0xcb6d9982cc989653),
    ("aes-aes", CACHE, 1731, 0xe9f996674cff620b),
    ("spmv-crs", DMA_FULL, 8517, 0x9b19aa7cb826a8bf),
    ("spmv-crs", CACHE, 5832, 0x640db3d4bf8fbb02),
    ("fft-transpose", DMA_FULL, 7348, 0x7fba84fb46b9ab2c),
    ("fft-transpose", CACHE, 9265, 0x05343a5e2cd53aad),
    ("md-knn", DMA_FULL, 36469, 0x7817ce90a00265d6),
    ("md-knn", CACHE, 38745, 0xcfc3333e80e646ab),
];

const NOISY_KERNELS: [&str; 4] = ["aes-aes", "spmv-crs", "fft-transpose", "md-knn"];

/// Re-simulate `NOISY_KERNELS` × {dma:full, cache} on `soc` under `harness`.
fn noisy_rows(soc: &SocConfig, harness: &SimHarness) -> Vec<(&'static str, MemKind, u64, u64)> {
    let d = dp(2);
    let mut rows = Vec::new();
    for kernel in NOISY_KERNELS {
        let trace = by_name(kernel).expect("kernel").run().trace;
        for kind in [DMA_FULL, CACHE] {
            let spec = FlowSpec::new(kind).with_harness(harness);
            let r =
                simulate(&trace, &d, soc, &spec).unwrap_or_else(|e| panic!("{kernel} {kind}: {e}"));
            rows.push((kernel, kind, r.total_cycles, digest(&r)));
        }
    }
    rows
}

#[test]
fn traffic_flows_match_recorded_goldens() {
    assert_eq!(
        noisy_rows(&noisy_soc(), &SimHarness::default()),
        GOLDEN_TRAFFIC
    );
}

#[test]
fn faulted_flows_match_recorded_goldens() {
    assert_eq!(
        noisy_rows(&SocConfig::default(), &SimHarness::with_seed(7)),
        GOLDEN_FAULTS
    );
}

/// `(scenario, end, digest of the whole MultiSocResult)` for
/// `simulate_multi`: one-job runs of every memory kind, the heterogeneous
/// cache+DMA pair, `saturating_jobs(4)` on all four fabrics, a staggered
/// launch, a run with background traffic and a run under the seed-7 fault
/// harness; then `saturating_jobs(4)` on every fabric again under the
/// seed-7 harness, a 32-byte-burst / 2-outstanding protocol layer and
/// infinite bandwidth.
const GOLDEN_MULTI: &[(&str, u64, u64)] = &[
    ("one-isolated", 40379, 0xfa198b9b759e3686),
    ("one-dma:baseline", 72832, 0x202b225b1073a7c0),
    ("one-dma:pipelined", 58687, 0xe0426ffd2da42587),
    ("one-dma:full", 49005, 0x7ed67cebeb923893),
    ("one-cache", 5271, 0xb696aa026181aaf3),
    ("cache+dma", 62205, 0xc06d9e4382aaf1dc),
    ("saturating-shared-bus", 107025, 0x29f75cd5ecc1d8e4),
    ("saturating-crossbar", 88080, 0x24e16b88105a6533),
    ("saturating-two-level", 107098, 0x58f918325465edf3),
    ("saturating-mesh", 107056, 0x3ba1e35a71651941),
    ("staggered", 96448, 0x4ca483a5553a5996),
    ("traffic", 79912, 0x7f0e294c4299bd14),
    ("faults-seed-7", 62319, 0xc1d9a4efbf935ed4),
    ("saturating-shared-bus+seed-7", 107003, 0xaefc531e3db8d363),
    ("saturating-shared-bus+protocol", 107020, 0x79911a29bfad764c),
    (
        "saturating-shared-bus+infinite-bw",
        55153,
        0xaeaca9c6d3872118,
    ),
    ("saturating-crossbar+seed-7", 90507, 0xa0c3f074c4f176ae),
    ("saturating-crossbar+protocol", 91741, 0x5fdcf23e512d92a5),
    ("saturating-crossbar+infinite-bw", 55153, 0x694e34c3338bc838),
    ("saturating-two-level+seed-7", 107111, 0x4f4c04f1ad57aa2b),
    ("saturating-two-level+protocol", 107424, 0x0cb28ab879eda872),
    (
        "saturating-two-level+infinite-bw",
        62116,
        0xcd4315bf8f7956a0,
    ),
    ("saturating-mesh+seed-7", 107058, 0xd5bab8806d5d839c),
    ("saturating-mesh+protocol", 107141, 0xad956a1d755f4b70),
    ("saturating-mesh+infinite-bw", 69992, 0x0fdd0adf05679333),
];

fn multi_rows() -> Vec<(&'static str, u64, u64)> {
    let d = dp(4);
    let stencil = by_name("stencil-stencil2d").expect("kernel").run().trace;
    let spmv = by_name("spmv-crs").expect("kernel").run().trace;
    let pair = || {
        vec![
            AcceleratorJob::cache(spmv.clone(), d, 0),
            AcceleratorJob::dma(stencil.clone(), d, DmaOptLevel::Pipelined, 0),
        ]
    };
    let clean = SimHarness::default();
    let mut scenarios: Vec<(&'static str, Vec<AcceleratorJob>, SocConfig, SimHarness)> = vec![
        (
            "one-isolated",
            vec![AcceleratorJob::isolated(stencil.clone(), d, 0)],
            SocConfig::default(),
            clean,
        ),
        (
            "one-dma:baseline",
            vec![AcceleratorJob::dma(
                stencil.clone(),
                d,
                DmaOptLevel::Baseline,
                0,
            )],
            SocConfig::default(),
            clean,
        ),
        (
            "one-dma:pipelined",
            vec![AcceleratorJob::dma(
                stencil.clone(),
                d,
                DmaOptLevel::Pipelined,
                0,
            )],
            SocConfig::default(),
            clean,
        ),
        (
            "one-dma:full",
            vec![AcceleratorJob::dma(
                stencil.clone(),
                d,
                DmaOptLevel::Full,
                0,
            )],
            SocConfig::default(),
            clean,
        ),
        (
            "one-cache",
            vec![AcceleratorJob::cache(spmv.clone(), d, 0)],
            SocConfig::default(),
            clean,
        ),
        ("cache+dma", pair(), SocConfig::default(), clean),
    ];
    for (name, topology) in [
        ("saturating-shared-bus", Topology::SharedBus),
        ("saturating-crossbar", Topology::Crossbar { radix: 4 }),
        (
            "saturating-two-level",
            Topology::TwoLevelBus {
                clusters: 2,
                bridge_cycles: 3,
            },
        ),
        (
            "saturating-mesh",
            Topology::MeshNoc {
                cols: 3,
                rows: 3,
                hop_cycles: 1,
                link_bits: 32,
            },
        ),
    ] {
        scenarios.push((name, saturating_jobs(4), soc_with(topology), clean));
    }
    scenarios.push((
        "staggered",
        vec![
            AcceleratorJob::dma(stencil.clone(), d, DmaOptLevel::Full, 0),
            AcceleratorJob::cache(spmv.clone(), d, 5_000),
            AcceleratorJob::dma(stencil.clone(), d, DmaOptLevel::Baseline, 20_000),
        ],
        SocConfig::default(),
        clean,
    ));
    scenarios.push(("traffic", pair(), noisy_soc(), clean));
    scenarios.push((
        "faults-seed-7",
        pair(),
        SocConfig::default(),
        SimHarness::with_seed(7),
    ));
    // Every fabric again under the seed-7 fault harness, a non-inert
    // protocol layer and infinite bandwidth.
    let protocol = ProtocolConfig {
        max_burst_bytes: 32,
        max_outstanding: 2,
    };
    for (names, topology) in [
        (
            [
                "saturating-shared-bus+seed-7",
                "saturating-shared-bus+protocol",
                "saturating-shared-bus+infinite-bw",
            ],
            Topology::SharedBus,
        ),
        (
            [
                "saturating-crossbar+seed-7",
                "saturating-crossbar+protocol",
                "saturating-crossbar+infinite-bw",
            ],
            Topology::Crossbar { radix: 4 },
        ),
        (
            [
                "saturating-two-level+seed-7",
                "saturating-two-level+protocol",
                "saturating-two-level+infinite-bw",
            ],
            Topology::TwoLevelBus {
                clusters: 2,
                bridge_cycles: 3,
            },
        ),
        (
            [
                "saturating-mesh+seed-7",
                "saturating-mesh+protocol",
                "saturating-mesh+infinite-bw",
            ],
            Topology::MeshNoc {
                cols: 3,
                rows: 3,
                hop_cycles: 1,
                link_bits: 32,
            },
        ),
    ] {
        let [seeded, protocol_name, infinite] = names;
        let soc = soc_with(topology);
        scenarios.push((seeded, saturating_jobs(4), soc, SimHarness::with_seed(7)));
        let mut wrapped = soc;
        wrapped.topology.protocol = protocol;
        scenarios.push((protocol_name, saturating_jobs(4), wrapped, clean));
        let mut unbounded = soc;
        unbounded.bus.infinite_bandwidth = true;
        scenarios.push((infinite, saturating_jobs(4), unbounded, clean));
    }
    scenarios
        .into_iter()
        .map(|(name, jobs, soc, harness)| {
            let r = simulate_multi(&jobs, &soc, &harness).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, r.end, digest(&r))
        })
        .collect()
}

#[test]
fn multi_runs_match_recorded_goldens() {
    assert_eq!(multi_rows(), GOLDEN_MULTI);
}
