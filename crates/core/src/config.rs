//! SoC-level configuration.

use aladdin_ir::{Diagnostic, Locus, Report};
use aladdin_mem::{
    BusConfig, CacheConfig, Clock, DmaConfig, DramConfig, FlushConfig, TlbConfig, TopologyConfig,
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

/// Background bus-traffic injection for contention studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficConfig {
    /// Cycles between injected requests.
    pub period: u64,
    /// Bytes per request.
    pub bytes: u32,
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
    /// DMA engine parameters (the `pipelined` field is overridden by the
    /// flow's [`DmaOptLevel`]).
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
    /// diagnostic (`L021x` codes). Cross-layer contradictions against a
    /// [`DatapathConfig`](aladdin_accel::DatapathConfig) live in
    /// `aladdin-lint` under `L022x`; `aladdin_lint::lint_soc` delegates to
    /// this method, so the two surfaces can never drift apart.
    #[must_use]
    pub fn check(&self) -> Report {
        let mut report = Report::new();

        // L0210: zero-valued structural fields the simulators divide by.
        let zeros: [(&'static str, bool); 7] = [
            ("soc.bus.width_bits", self.bus.width_bits == 0),
            ("soc.cache.line_bytes", self.cache.line_bytes == 0),
            ("soc.cache.assoc", self.cache.assoc == 0),
            ("soc.cache.size_bytes", self.cache.size_bytes == 0),
            ("soc.cache.ports", self.cache.ports == 0),
            ("soc.dma.burst_bytes", self.dma.burst_bytes == 0),
            ("soc.dma.chunk_bytes", self.dma.chunk_bytes == 0),
        ];
        for (field, is_zero) in zeros {
            if is_zero {
                report.push(
                    Diagnostic::error("L0210", format!("{field} must be positive"))
                        .at(Locus::Field(field)),
                );
            }
        }
        if self.flush.line_bytes == 0 {
            report.push(
                Diagnostic::error("L0210", "soc.flush.line_bytes must be positive")
                    .at(Locus::Field("soc.flush.line_bytes")),
            );
        }
        if report.has_errors() {
            return report;
        }

        // L0211: cache geometry must be constructible — mirrors the
        // assertions in `CacheConfig::num_sets`, as a diagnostic instead
        // of a mid-sweep panic.
        let lines = self.cache.size_bytes / u64::from(self.cache.line_bytes);
        if !self
            .cache
            .size_bytes
            .is_multiple_of(u64::from(self.cache.line_bytes))
        {
            report.push(
                Diagnostic::error(
                    "L0211",
                    format!(
                        "cache capacity {} B is not a whole number of {} B lines",
                        self.cache.size_bytes, self.cache.line_bytes
                    ),
                )
                .at(Locus::Field("soc.cache.size_bytes")),
            );
        } else if !lines.is_multiple_of(u64::from(self.cache.assoc)) {
            report.push(
                Diagnostic::error(
                    "L0211",
                    format!(
                        "{lines} cache lines do not divide into {}-way sets",
                        self.cache.assoc
                    ),
                )
                .at(Locus::Field("soc.cache.assoc")),
            );
        } else if !(lines / u64::from(self.cache.assoc)).is_power_of_two() {
            report.push(
                Diagnostic::error(
                    "L0211",
                    format!(
                        "cache set count {} is not a power of two",
                        lines / u64::from(self.cache.assoc)
                    ),
                )
                .at(Locus::Field("soc.cache.size_bytes")),
            );
        }
        if self.cache.mshrs == 0 {
            report.push(
                Diagnostic::error("L0211", "a cache needs at least one MSHR to miss")
                    .at(Locus::Field("soc.cache.mshrs")),
            );
        }

        // L0212: TLB/page-size coherence.
        if !self.tlb.page_bytes.is_power_of_two() {
            report.push(
                Diagnostic::error(
                    "L0212",
                    format!(
                        "TLB page size {} B is not a power of two",
                        self.tlb.page_bytes
                    ),
                )
                .at(Locus::Field("soc.tlb.page_bytes")),
            );
        }
        if self.tlb.entries == 0 {
            report.push(
                Diagnostic::error("L0212", "TLB must have at least one entry")
                    .at(Locus::Field("soc.tlb.entries")),
            );
        }

        // L0213: bus width must be byte-granular.
        if !self.bus.width_bits.is_multiple_of(8) {
            report.push(
                Diagnostic::error(
                    "L0213",
                    format!(
                        "bus width {} bits is not a whole number of bytes",
                        self.bus.width_bits
                    ),
                )
                .at(Locus::Field("soc.bus.width_bits")),
            );
        }

        // L0310: interconnect topology shape (delegated to aladdin-mem so
        // the simulator and this surface can never drift apart).
        report.merge(self.topology.check());

        // L0216: DRAM geometry — mirrors `Dram::try_new`, statically.
        if self.dram.banks == 0 {
            report.push(
                Diagnostic::error("L0216", "DRAM needs at least one bank")
                    .at(Locus::Field("soc.dram.banks")),
            );
        }
        if !self.dram.row_bytes.is_power_of_two() {
            report.push(
                Diagnostic::error(
                    "L0216",
                    format!(
                        "DRAM row size {} B is not a power of two",
                        self.dram.row_bytes
                    ),
                )
                .at(Locus::Field("soc.dram.row_bytes")),
            );
        }

        // L0214: ready-bit granularity gates loads under triggered DMA.
        if self.ready_bits_granule == 0 {
            report.push(
                Diagnostic::error("L0214", "ready_bits_granule must be positive")
                    .at(Locus::Field("soc.ready_bits_granule")),
            );
        } else if !self.ready_bits_granule.is_power_of_two() {
            report.push(
                Diagnostic::warning(
                    "L0214",
                    format!(
                        "ready_bits_granule {} is not a power of two; full/empty bits will straddle lines",
                        self.ready_bits_granule
                    ),
                )
                .at(Locus::Field("soc.ready_bits_granule")),
            );
        }
        report
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
