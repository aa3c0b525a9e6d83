//! Configuration contradiction checks (`L02xx`).
//!
//! A design point is a [`DatapathConfig`] paired with a [`SocConfig`].
//! Individually-plausible parameter choices can contradict each other
//! across the accelerator/SoC boundary — exactly the interface bugs the
//! paper argues co-simulation exists to find. Those contradictions
//! either panic mid-simulation (cache geometry that cannot be
//! constructed) or silently produce meaningless numbers (a pipelined DMA
//! engine serialized by a single outstanding descriptor). This pass
//! proves a design point free of both before any cycle is simulated, so
//! sweep runners can prune invalid points statically.

use aladdin_accel::DatapathConfig;
use aladdin_core::SocConfig;
use aladdin_ir::{Diagnostic, Locus, Report};

/// Lint one full design point: datapath checks (`L0201`), SoC-internal
/// checks (`L021x`) and cross-layer contradictions (`L022x`).
#[must_use]
pub fn lint_design(dp: &DatapathConfig, soc: &SocConfig) -> Report {
    let mut report = dp.check();
    report.merge(lint_soc(soc));
    if report.has_errors() {
        // Cross-checks divide by these fields; zero values were reported.
        return report;
    }
    report.merge(lint_cross(dp, soc));
    report
}

/// SoC-internal consistency (`L021x`).
///
/// Delegates to [`SocConfig::check`], which owns the single copy of these
/// rules; this wrapper survives as the lint-pass entry point.
#[must_use]
pub fn lint_soc(soc: &SocConfig) -> Report {
    soc.check()
}

/// Cross-layer contradictions (`L022x`). Assumes the per-layer fields are
/// individually sane (callers run [`lint_soc`] and
/// [`DatapathConfig::check`] first).
#[must_use]
pub fn lint_cross(dp: &DatapathConfig, soc: &SocConfig) -> Report {
    let mut report = Report::new();

    // L0220: scratchpad bandwidth vs lane count. Each lane issues up to
    // one memory op per cycle; fewer ports than lanes serializes them.
    if dp.local_mem_bandwidth() < dp.lanes {
        report.push(
            Diagnostic::warning(
                "L0220",
                format!(
                    "{} lanes share {} scratchpad ports ({} banks x {}/bank); lanes will stall",
                    dp.lanes,
                    dp.local_mem_bandwidth(),
                    dp.partition,
                    dp.ports_per_bank
                ),
            )
            .at(Locus::Field("datapath.partition")),
        );
    }

    // L0221: cache line vs bus width. A refill narrower than one bus
    // beat cannot be expressed; a line that is not a whole number of
    // beats wastes bus cycles on every fill.
    let bus_bytes = u64::from(soc.bus.width_bits / 8).max(1);
    if u64::from(soc.cache.line_bytes) < bus_bytes {
        report.push(
            Diagnostic::error(
                "L0221",
                format!(
                    "cache line {} B is narrower than one bus beat ({bus_bytes} B)",
                    soc.cache.line_bytes
                ),
            )
            .at(Locus::Field("soc.cache.line_bytes")),
        );
    } else if u64::from(soc.cache.line_bytes) % bus_bytes != 0 {
        report.push(
            Diagnostic::warning(
                "L0221",
                format!(
                    "cache line {} B is not a whole number of {bus_bytes} B bus beats",
                    soc.cache.line_bytes
                ),
            )
            .at(Locus::Field("soc.cache.line_bytes")),
        );
    }

    // L0222: MSHRs vs outstanding DMA descriptors. On the shared bus the
    // cache and the DMA engine compete; if the DMA engine can post more
    // bursts than the cache has MSHRs, cache misses starve behind DMA
    // traffic whenever both run (the paper's overlapping-phase designs).
    if soc.dma.max_outstanding > soc.cache.mshrs {
        report.push(
            Diagnostic::warning(
                "L0222",
                format!(
                    "DMA may keep {} bursts in flight but the cache has only {} MSHRs",
                    soc.dma.max_outstanding, soc.cache.mshrs
                ),
            )
            .at(Locus::Field("soc.dma.max_outstanding")),
        );
    }

    // L0223: DMA chunking vs TLB pages. Pipelined DMA descriptors that
    // straddle page boundaries take extra TLB misses mid-burst.
    if soc.tlb.page_bytes > 0
        && soc.dma.chunk_bytes > soc.tlb.page_bytes
        && !soc.dma.chunk_bytes.is_multiple_of(soc.tlb.page_bytes)
    {
        report.push(
            Diagnostic::warning(
                "L0223",
                format!(
                    "DMA chunk {} B is not a whole number of {} B pages",
                    soc.dma.chunk_bytes, soc.tlb.page_bytes
                ),
            )
            .at(Locus::Field("soc.dma.chunk_bytes")),
        );
    }

    // L0224: pipelined-DMA flag dependencies. Splitting a transfer into
    // chunked descriptors only overlaps anything if more than one
    // descriptor can be outstanding, and if a transfer is longer than
    // one chunk at all.
    if soc.dma.pipelined && soc.dma.max_outstanding < 2 {
        report.push(
            Diagnostic::error(
                "L0224",
                format!(
                    "pipelined DMA with max_outstanding = {} cannot overlap descriptors",
                    soc.dma.max_outstanding
                ),
            )
            .at(Locus::Field("soc.dma.pipelined")),
        );
    }
    if soc.dma.pipelined && u64::from(soc.dma.burst_bytes) > soc.dma.chunk_bytes {
        report.push(
            Diagnostic::error(
                "L0224",
                format!(
                    "DMA burst {} B exceeds the chunk size {} B",
                    soc.dma.burst_bytes, soc.dma.chunk_bytes
                ),
            )
            .at(Locus::Field("soc.dma.burst_bytes")),
        );
    }

    // L0225: ready-bit granularity vs DMA chunking. Granules larger than
    // a chunk mean a load can only unblock when a *later* chunk lands,
    // defeating triggered execution.
    if soc.ready_bits_granule > soc.dma.chunk_bytes {
        report.push(
            Diagnostic::warning(
                "L0225",
                format!(
                    "ready_bits_granule {} B exceeds the DMA chunk size {} B",
                    soc.ready_bits_granule, soc.dma.chunk_bytes
                ),
            )
            .at(Locus::Field("soc.ready_bits_granule")),
        );
    }

    // L0226: DMA bursts vs bus beats.
    if u64::from(soc.dma.burst_bytes) % bus_bytes != 0 {
        report.push(
            Diagnostic::warning(
                "L0226",
                format!(
                    "DMA burst {} B is not a whole number of {bus_bytes} B bus beats",
                    soc.dma.burst_bytes
                ),
            )
            .at(Locus::Field("soc.dma.burst_bytes")),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_design_point_is_clean() {
        let r = lint_design(&DatapathConfig::default(), &SocConfig::default());
        assert!(r.is_clean(), "{}", r.to_human());
    }

    #[test]
    fn unconstructible_cache_geometry_is_an_error() {
        let mut soc = SocConfig::default();
        soc.cache.size_bytes = 3072; // 96 lines / 4 ways = 24 sets: not 2^k
        let r = lint_soc(&soc);
        assert!(r.has_code("L0211"), "{}", r.to_human());
        assert!(r.has_errors());
    }

    #[test]
    fn starved_scratchpad_warns() {
        let dp = DatapathConfig {
            lanes: 16,
            partition: 2,
            ..DatapathConfig::default()
        };
        let r = lint_design(&dp, &SocConfig::default());
        assert!(r.has_code("L0220"));
        assert!(!r.has_errors());
    }

    #[test]
    fn pipelined_dma_needs_outstanding_descriptors() {
        let mut soc = SocConfig::default();
        soc.dma.pipelined = true;
        soc.dma.max_outstanding = 1;
        let r = lint_soc(&soc);
        assert!(
            r.is_clean() || !r.has_code("L0224"),
            "soc-only pass must not cross-check"
        );
        let r = lint_design(&DatapathConfig::default(), &soc);
        assert!(r.has_code("L0224"), "{}", r.to_human());
        assert!(r.has_errors());
    }

    #[test]
    fn line_narrower_than_bus_beat_is_an_error() {
        let mut soc = SocConfig::default();
        soc.bus.width_bits = 512;
        soc.cache.line_bytes = 32;
        let r = lint_design(&DatapathConfig::default(), &soc);
        assert!(r.has_code("L0221"));
        assert!(r.has_errors());
    }

    #[test]
    fn dma_outstripping_mshrs_warns() {
        let mut soc = SocConfig::default();
        soc.cache.mshrs = 1;
        soc.dma.max_outstanding = 8;
        let r = lint_design(&DatapathConfig::default(), &soc);
        assert!(r.has_code("L0222"));
    }

    #[test]
    fn zero_fields_reported_without_panicking() {
        let mut soc = SocConfig::default();
        soc.cache.line_bytes = 0;
        soc.bus.width_bits = 0;
        let r = lint_design(&DatapathConfig::default(), &soc);
        assert!(r.has_code("L0210"));
        assert!(r.count(aladdin_ir::Severity::Error) >= 2);
    }

    #[test]
    fn bankless_dram_is_an_error() {
        let mut soc = SocConfig::default();
        soc.dram.banks = 0;
        let r = lint_soc(&soc);
        assert!(r.has_code("L0216"), "{}", r.to_human());
        assert!(r.has_errors());
    }

    #[test]
    fn paper_design_space_is_fully_clean() {
        // Every Fig. 3 point must pass pre-flight: the sweep runners rely
        // on this to prune nothing from the paper's own experiments.
        let soc = SocConfig::default();
        for lanes in [1u32, 2, 4, 8, 16] {
            for partition in [1u32, 2, 4, 8, 16] {
                let dp = DatapathConfig {
                    lanes,
                    partition,
                    ..DatapathConfig::default()
                };
                let r = lint_design(&dp, &soc);
                assert!(
                    !r.has_errors(),
                    "lanes {lanes} partition {partition}: {}",
                    r.to_human()
                );
            }
        }
    }
}
