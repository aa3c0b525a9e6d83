//! SoC-level configuration.

use aladdin_accel::SpadMemory;
use aladdin_ir::{Diagnostic, Report};
use aladdin_mem::{
    BusConfig, CacheConfig, Clock, DmaConfig, DramConfig, FlushConfig, MasterId, TlbConfig,
    TopologyConfig, TrafficConfig,
};

/// Cumulative DMA optimization levels (Section IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DmaOptLevel {
    /// Flush everything, then one DMA descriptor per array, then compute.
    Baseline,
    /// Split flush+DMA into page-sized chunks and overlap them.
    Pipelined,
    /// Pipelined DMA plus full/empty bits: compute starts immediately and
    /// loads stall per cache line until their data arrives.
    Full,
}

impl DmaOptLevel {
    /// All levels, in cumulative order.
    pub const ALL: [DmaOptLevel; 3] = [
        DmaOptLevel::Baseline,
        DmaOptLevel::Pipelined,
        DmaOptLevel::Full,
    ];

    /// Whether flush/DMA are chunk-pipelined at this level.
    #[must_use]
    pub fn pipelined(self) -> bool {
        !matches!(self, DmaOptLevel::Baseline)
    }

    /// Whether full/empty bits trigger computation at this level.
    #[must_use]
    pub fn triggered(self) -> bool {
        matches!(self, DmaOptLevel::Full)
    }
}

impl std::fmt::Display for DmaOptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DmaOptLevel::Baseline => "baseline",
            DmaOptLevel::Pipelined => "+pipelined",
            DmaOptLevel::Full => "+triggered",
        })
    }
}

/// Which local memory system a flow used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// Isolated Aladdin (scratchpad, data pre-loaded, no system).
    Isolated,
    /// Scratchpad + DMA at the given optimization level.
    Dma(DmaOptLevel),
    /// Hardware-managed cache (+ scratchpads for private arrays).
    Cache,
}

impl std::fmt::Display for MemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemKind::Isolated => f.write_str("isolated"),
            MemKind::Dma(o) => write!(f, "dma({o})"),
            MemKind::Cache => f.write_str("cache"),
        }
    }
}

/// How the CPU learns the accelerator has finished (Section III-E: the
/// accelerator `mfence`s, then writes a shared status pointer the CPU
/// observes through cache coherence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionSignal {
    /// The CPU spins on the status variable, polling every `poll_cycles`;
    /// completion is observed at the next poll boundary.
    SpinWait {
        /// Polling period in accelerator cycles.
        poll_cycles: u64,
    },
    /// The CPU does other work and takes an interrupt with a fixed
    /// delivery + handler latency.
    Interrupt {
        /// Interrupt delivery and handling latency in cycles.
        latency_cycles: u64,
    },
}

impl CompletionSignal {
    /// Cycles between the accelerator's last action at `end` and the CPU
    /// observing completion.
    #[must_use]
    pub fn observation_lag(self, end: u64) -> u64 {
        match self {
            CompletionSignal::SpinWait { poll_cycles } => {
                let poll = poll_cycles.max(1);
                // Next poll boundary at or after `end`.
                end.div_ceil(poll) * poll - end
            }
            CompletionSignal::Interrupt { latency_cycles } => latency_cycles,
        }
    }
}

/// Full SoC configuration: everything outside the accelerator datapath.
///
/// Defaults reproduce the paper's validated platform: 100 MHz accelerator,
/// 32-bit bus, Zedboard flush/invalidate constants, 40-cycle DMA setup,
/// 8-entry TLB with a 200 ns miss penalty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocConfig {
    /// Accelerator clock.
    pub clock: Clock,
    /// Shared system bus (per-link timing: width, arbitration, DRAM port).
    pub bus: BusConfig,
    /// Interconnect topology the bus links are composed into (shared bus,
    /// crossbar, two-level bus, mesh NoC) plus the optional burst/
    /// outstanding-transaction protocol layer.
    pub topology: TopologyConfig,
    /// DRAM behind the bus.
    pub dram: DramConfig,
    /// CPU-side flush/invalidate cost model.
    pub flush: FlushConfig,
    /// DMA engine parameters; the flow's [`DmaOptLevel`] decides whether
    /// transfers are chunked.
    pub dma: DmaConfig,
    /// Accelerator TLB (cache-based flows).
    pub tlb: TlbConfig,
    /// Accelerator cache geometry (cache-based flows).
    pub cache: CacheConfig,
    /// Granularity in bytes at which full/empty bits track DMA arrivals
    /// under [`DmaOptLevel::Full`]. One CPU cache line in the paper;
    /// 4096 approximates page-level double buffering.
    pub ready_bits_granule: u64,
    /// Cycles for the CPU to invoke the accelerator (`ioctl`, descriptor
    /// setup, one-way signaling) before any flush begins.
    pub invoke_cycles: u64,
    /// Optional background traffic on the shared bus.
    pub traffic: Option<TrafficConfig>,
    /// Optional CPU-side completion-observation model; `None` reports the
    /// accelerator-side end (the paper's measurement boundary).
    pub completion: Option<CompletionSignal>,
}

impl Default for SocConfig {
    fn default() -> Self {
        SocConfig {
            clock: Clock::default(),
            bus: BusConfig::default(),
            topology: TopologyConfig::default(),
            dram: DramConfig::default(),
            flush: FlushConfig::default(),
            dma: DmaConfig::default(),
            tlb: TlbConfig::default(),
            cache: CacheConfig::default(),
            ready_bits_granule: 32,
            invoke_cycles: 17,
            traffic: None,
            completion: None,
        }
    }
}

impl SocConfig {
    /// The paper's second contended scenario: a 64-bit system bus.
    #[must_use]
    pub fn with_64bit_bus(mut self) -> Self {
        self.bus.width_bits = 64;
        self
    }

    /// Checks SoC-internal consistency, reporting every defect as a typed
    /// diagnostic (`L021x`, `L0310`, `L0311`): the union of the checks
    /// the component constructors run, plus the full/empty-bit granule
    /// rule (`L0214`) that [`SpadMemory`] applies and the topology's room
    /// for the traffic generator's bus master. Cross-layer contradictions
    /// against a [`DatapathConfig`](aladdin_accel::DatapathConfig) live in
    /// `aladdin_lint::lint_cross` under `L022x`.
    #[must_use]
    pub fn check(&self) -> Report {
        // L0210 zero fields come first, and alone: the other rules divide
        // by them.
        let (bus, cache) = (self.bus.check(), self.cache.check());
        let traffic = self.traffic.map_or_else(Report::new, |t| t.check());
        let zero = |d: &&Diagnostic| d.code == "L0210";
        let mut report: Report = (bus.diagnostics().iter().filter(zero))
            .chain(cache.diagnostics().iter().filter(zero))
            .chain(traffic.diagnostics().iter().filter(zero))
            .cloned()
            .chain(self.dma.check())
            .chain(self.flush.check())
            .collect();
        if report.has_errors() {
            return report;
        }
        // L0211 cache geometry, L0212 TLB, L0213 bus width, L0310
        // topology, L0216 DRAM, L0218 traffic request size, L0311 traffic
        // master, L0214 granule.
        let topology = self.topology.check();
        let traffic_master = match self.traffic {
            Some(_) if !topology.has_errors() => {
                self.topology.check_master(MasterId::TRAFFIC).err()
            }
            _ => None,
        };
        for component in [
            cache,
            self.tlb.check(),
            bus,
            topology,
            self.dram.check(),
            traffic,
        ] {
            report.merge(component);
        }
        report.extend(traffic_master);
        report.extend(SpadMemory::check_ready_granule(self.ready_bits_granule).err());
        report
    }

    /// [`check`](SocConfig::check) of only the components a run of
    /// `kinds` builds, every other component taken at its default: a run
    /// reports this report's first error before it builds anything, so
    /// the error it ends with does not depend on the order its
    /// constructors run in. A `multi`-accelerator run builds the fabric
    /// even for isolated jobs and gates no loads on full/empty bits.
    pub(crate) fn check_built(&self, kinds: &[MemKind], multi: bool) -> Report {
        let mut built = SocConfig::default();
        for &kind in kinds {
            if multi || kind != MemKind::Isolated {
                built.bus = self.bus;
                built.dram = self.dram;
                built.topology = self.topology;
                built.traffic = self.traffic;
            }
            match kind {
                MemKind::Isolated => {}
                MemKind::Dma(opt) => {
                    built.dma = self.dma;
                    built.flush = self.flush;
                    if opt.triggered() && !multi {
                        built.ready_bits_granule = self.ready_bits_granule;
                    }
                }
                MemKind::Cache => {
                    built.cache = self.cache;
                    built.tlb = self.tlb;
                }
            }
        }
        built.check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_levels_are_cumulative() {
        assert!(!DmaOptLevel::Baseline.pipelined());
        assert!(!DmaOptLevel::Baseline.triggered());
        assert!(DmaOptLevel::Pipelined.pipelined());
        assert!(!DmaOptLevel::Pipelined.triggered());
        assert!(DmaOptLevel::Full.pipelined());
        assert!(DmaOptLevel::Full.triggered());
    }

    #[test]
    fn default_matches_paper_platform() {
        let cfg = SocConfig::default();
        assert_eq!(cfg.clock.mhz(), 100.0);
        assert_eq!(cfg.bus.width_bits, 32);
        assert_eq!(cfg.flush.flush_ns_per_line, 84.0);
        assert_eq!(cfg.dma.setup_cycles, 40);
        assert_eq!(cfg.tlb.entries, 8);
        assert_eq!(cfg.tlb.miss_cycles, 20);
        assert_eq!(cfg.with_64bit_bus().bus.width_bits, 64);
    }

    #[test]
    fn completion_signal_lags() {
        let spin = CompletionSignal::SpinWait { poll_cycles: 100 };
        assert_eq!(spin.observation_lag(1000), 0); // exactly on a boundary
        assert_eq!(spin.observation_lag(1001), 99);
        assert_eq!(spin.observation_lag(1099), 1);
        let irq = CompletionSignal::Interrupt {
            latency_cycles: 500,
        };
        assert_eq!(irq.observation_lag(12345), 500);
        // Degenerate poll period never divides by zero.
        assert_eq!(
            CompletionSignal::SpinWait { poll_cycles: 0 }.observation_lag(7),
            0
        );
    }

    #[test]
    fn check_validates_struct_updates() {
        let soc = SocConfig {
            bus: BusConfig {
                width_bits: 64,
                ..BusConfig::default()
            },
            invoke_cycles: 42,
            ready_bits_granule: 4096,
            ..SocConfig::default()
        };
        assert!(soc.check().is_clean());

        // 3 KB / 32 B lines / 4 ways = 24 sets: not a power of two.
        let err = SocConfig {
            cache: CacheConfig {
                size_bytes: 3072,
                ..CacheConfig::default()
            },
            ..SocConfig::default()
        }
        .check();
        assert!(err.has_code("L0211"));
        assert!(err.has_errors());
    }

    /// A cache, TLB or DRAM the static check rejects fails to construct
    /// with the same code, message and locus as its first finding.
    #[test]
    fn constructors_reject_with_the_static_diagnostic() {
        use aladdin_mem::{Cache, Dram, Tlb};
        let cases: [fn(&mut SocConfig); 10] = [
            |s| s.cache.size_bytes = 3072,
            |s| s.cache.size_bytes = 4100,
            |s| s.cache.assoc = 3,
            |s| s.cache.mshrs = 0,
            |s| s.cache.line_bytes = 0,
            |s| s.cache.ports = 0,
            |s| s.tlb.page_bytes = 3000,
            |s| s.tlb.entries = 0,
            |s| s.dram.banks = 0,
            |s| s.dram.row_bytes = 1000,
        ];
        for mutate in cases {
            let mut soc = SocConfig::default();
            mutate(&mut soc);
            let first = soc.check().into_iter().next();
            let runtime = Cache::try_new(soc.cache)
                .err()
                .or(Tlb::try_new(soc.tlb).err())
                .or(Dram::try_new(soc.dram).err());
            assert!(first.is_some());
            assert_eq!(runtime, first);
        }
    }

    #[test]
    fn check_matches_default_platform() {
        assert!(SocConfig::default().check().is_clean());
        let mut soc = SocConfig::default();
        soc.bus.width_bits = 12;
        assert!(soc.check().has_code("L0213"));
    }

    #[test]
    fn topology_defects_surface_through_soc_check() {
        use aladdin_mem::Topology;
        let mut soc = SocConfig::default();
        assert_eq!(soc.topology.topology, Topology::SharedBus);
        soc.topology.topology = Topology::Crossbar { radix: 0 };
        assert!(soc.check().has_code(aladdin_mem::CODE_BAD_TOPOLOGY));

        let mesh = SocConfig {
            topology: TopologyConfig {
                topology: Topology::MeshNoc {
                    cols: 3,
                    rows: 3,
                    hop_cycles: 1,
                    link_bits: 32,
                },
                ..TopologyConfig::default()
            },
            ..SocConfig::default()
        };
        assert!(mesh.check().is_clean());
        assert_eq!(mesh.topology.capacity(), 8);
    }

    #[test]
    fn display_strings() {
        assert_eq!(
            MemKind::Dma(DmaOptLevel::Full).to_string(),
            "dma(+triggered)"
        );
        assert_eq!(MemKind::Cache.to_string(), "cache");
        assert_eq!(MemKind::Isolated.to_string(), "isolated");
    }
}
