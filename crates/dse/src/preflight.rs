//! Static pre-flight validation of design points.
//!
//! A full-factorial sweep multiplies every parameter list together, so
//! it inevitably produces contradictory combinations (a cache capacity
//! that does not divide into power-of-two sets, a cache line narrower
//! than one bus beat). Simulating such a point either fails mid-sweep
//! or quietly produces garbage. This pass runs `aladdin-lint`'s
//! configuration checks over every point *before* any simulation starts
//! and splits the space into accepted and rejected points, each
//! rejection carrying its full diagnostic report.

use aladdin_core::SocConfig;
use aladdin_ir::Report;
use aladdin_lint::lint_design;

use crate::space::{CachePoint, DesignSpace, DmaPoint};

/// A design point that failed pre-flight, with the evidence.
#[derive(Debug, Clone)]
pub struct RejectedPoint {
    /// Index of the point in the swept space's point list.
    pub index: usize,
    /// The error-bearing report from `aladdin-lint`.
    pub report: Report,
}

/// Outcome of pre-flighting one point list.
#[derive(Debug, Clone)]
pub struct Preflight<P> {
    /// Points that may be simulated, with their original indices.
    pub accepted: Vec<(usize, P)>,
    /// Points that must not be simulated.
    pub rejected: Vec<RejectedPoint>,
}

fn split<P: Copy>(points: &[P], mut lint: impl FnMut(&P) -> Report) -> Preflight<P> {
    let mut accepted = Vec::new();
    let mut rejected = Vec::new();
    for (index, point) in points.iter().enumerate() {
        let report = lint(point);
        if report.has_errors() {
            rejected.push(RejectedPoint { index, report });
        } else {
            accepted.push((index, *point));
        }
    }
    Preflight { accepted, rejected }
}

/// Pre-flight every scratchpad/DMA point of `space` against `soc`.
#[must_use]
pub fn preflight_dma(space: &DesignSpace, soc: &SocConfig) -> Preflight<DmaPoint> {
    split(&space.dma_points(), |p| lint_design(&p.datapath(), soc))
}

/// Pre-flight every cache point of `space`, applying each point's cache
/// geometry to `soc` exactly as [`sweep`](crate::sweep) with `MemKind::Cache`
/// would before simulating it.
///
/// Unlike [`DesignSpace::cache_points`], which silently drops
/// unconstructible geometries, this lints the *unfiltered* combination
/// list, so every invalid point shows up in `rejected` with a report;
/// indices refer to [`DesignSpace::cache_points_unfiltered`].
#[must_use]
pub fn preflight_cache(space: &DesignSpace, soc: &SocConfig) -> Preflight<CachePoint> {
    split(&space.cache_points_unfiltered(), |p| {
        lint_design(&p.datapath(), &p.apply(soc))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_space_passes_preflight_whole() {
        let soc = SocConfig::default();
        let space = DesignSpace::paper();
        let dma = preflight_dma(&space, &soc);
        assert_eq!(dma.accepted.len(), space.dma_points().len());
        assert!(dma.rejected.is_empty());
        let cache = preflight_cache(&space, &soc);
        assert_eq!(cache.accepted.len(), space.cache_points_unfiltered().len());
        assert!(
            cache.rejected.is_empty(),
            "paper cache space must be simulable"
        );
        // The legacy silent filter agrees with the lint verdict here.
        assert_eq!(cache.accepted.len(), space.cache_points().len());
    }

    #[test]
    fn contradictory_cache_size_is_rejected_not_panicking() {
        // 3072 B / 32 B lines / 4 ways = 24 sets: not a power of two, so
        // simulating this point would fail in Cache::try_new.
        let space = DesignSpace {
            cache_sizes: vec![2048, 3072],
            ..DesignSpace::quick()
        };
        let soc = SocConfig::default();
        let out = preflight_cache(&space, &soc);
        assert!(!out.rejected.is_empty(), "bad geometry must be rejected");
        for r in &out.rejected {
            assert!(r.report.has_code("L0211"), "{}", r.report.to_human());
        }
        // Exactly the 3072 B points are gone; every 2048 B point stays.
        let total = space.cache_points_unfiltered().len();
        assert_eq!(out.accepted.len() + out.rejected.len(), total);
        assert!(out.accepted.iter().all(|(_, p)| p.size_bytes == 2048));
    }
}
