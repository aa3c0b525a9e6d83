//! The design space of Figure 3's parameter table.

use aladdin_accel::DatapathConfig;
use aladdin_core::SocConfig;
use aladdin_mem::{CacheConfig, Topology};

/// One scratchpad/DMA design point: compute parallelism × scratchpad
/// partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DmaPoint {
    /// Datapath lanes.
    pub lanes: u32,
    /// Scratchpad partition factor.
    pub partition: u32,
}

impl DmaPoint {
    /// The datapath configuration of this point.
    #[must_use]
    pub fn datapath(&self) -> DatapathConfig {
        DatapathConfig {
            lanes: self.lanes,
            partition: self.partition,
            ..DatapathConfig::default()
        }
    }
}

/// One cache-based design point: compute parallelism × cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CachePoint {
    /// Datapath lanes.
    pub lanes: u32,
    /// Cache capacity in bytes.
    pub size_bytes: u64,
    /// Cache line size in bytes.
    pub line_bytes: u32,
    /// Cache ports.
    pub ports: u32,
    /// Associativity.
    pub assoc: u32,
}

impl CachePoint {
    /// The datapath configuration of this point. Private (internal)
    /// scratchpads are partitioned to match the lane count.
    #[must_use]
    pub fn datapath(&self) -> DatapathConfig {
        DatapathConfig {
            lanes: self.lanes,
            partition: self.lanes,
            ..DatapathConfig::default()
        }
    }

    /// `soc` with this point's cache geometry applied.
    #[must_use]
    pub fn apply(&self, soc: &SocConfig) -> SocConfig {
        SocConfig {
            cache: CacheConfig {
                size_bytes: self.size_bytes,
                line_bytes: self.line_bytes,
                ports: self.ports,
                assoc: self.assoc,
                ..soc.cache
            },
            ..*soc
        }
    }
}

/// The swept parameter ranges. [`DesignSpace::paper`] is Figure 3's table;
/// [`DesignSpace::standard`] trims redundant cache dimensions for faster
/// full-suite regeneration; [`DesignSpace::quick`] is for tests.
#[derive(Debug, Clone)]
pub struct DesignSpace {
    /// Datapath lane counts.
    pub lanes: Vec<u32>,
    /// Scratchpad partition factors.
    pub partitions: Vec<u32>,
    /// Cache sizes in bytes.
    pub cache_sizes: Vec<u64>,
    /// Cache line sizes in bytes.
    pub cache_lines: Vec<u32>,
    /// Cache port counts.
    pub cache_ports: Vec<u32>,
    /// Cache associativities.
    pub cache_assocs: Vec<u32>,
    /// Interconnect topologies to sweep. The default spaces pin the
    /// paper's shared bus; add crossbar/two-level/mesh variants to study
    /// how topology choice interacts with the other axes.
    pub topologies: Vec<Topology>,
}

impl DesignSpace {
    /// The full Figure 3 table.
    #[must_use]
    pub fn paper() -> Self {
        DesignSpace {
            lanes: vec![1, 2, 4, 8, 16],
            partitions: vec![1, 2, 4, 8, 16],
            cache_sizes: vec![2048, 4096, 8192, 16384, 32768, 65536],
            cache_lines: vec![16, 32, 64],
            cache_ports: vec![1, 2, 4, 8],
            cache_assocs: vec![4, 8],
            topologies: vec![Topology::SharedBus],
        }
    }

    /// A trimmed space (fixed 32 B lines, 4-way) that preserves every
    /// trend the figures need while cutting sweep time ~6×.
    #[must_use]
    pub fn standard() -> Self {
        DesignSpace {
            cache_lines: vec![32],
            cache_assocs: vec![4],
            ..DesignSpace::paper()
        }
    }

    /// A tiny space for unit tests.
    #[must_use]
    pub fn quick() -> Self {
        DesignSpace {
            lanes: vec![1, 4],
            partitions: vec![1, 4],
            cache_sizes: vec![2048, 8192],
            cache_lines: vec![32],
            cache_ports: vec![1, 2],
            cache_assocs: vec![4],
            topologies: vec![Topology::SharedBus],
        }
    }

    /// `self` swept over `topologies` as an additional axis.
    #[must_use]
    pub fn with_topologies(mut self, topologies: Vec<Topology>) -> Self {
        assert!(!topologies.is_empty(), "at least one topology");
        self.topologies = topologies;
        self
    }

    /// All scratchpad/DMA design points (lanes × partitions).
    #[must_use]
    pub fn dma_points(&self) -> Vec<DmaPoint> {
        let mut v = Vec::new();
        for &lanes in &self.lanes {
            for &partition in &self.partitions {
                v.push(DmaPoint { lanes, partition });
            }
        }
        v
    }

    /// Every cache combination of the space, including geometries that
    /// cannot be constructed. [`cache_points`](DesignSpace::cache_points)
    /// filters these silently for the unchecked sweep runners; the
    /// pre-flight pass (`preflight_cache`) lints this unfiltered list
    /// instead, so invalid combinations are *diagnosed* rather than
    /// silently dropped.
    #[must_use]
    pub fn cache_points_unfiltered(&self) -> Vec<CachePoint> {
        let mut v = Vec::new();
        for &lanes in &self.lanes {
            for &size_bytes in &self.cache_sizes {
                for &line_bytes in &self.cache_lines {
                    for &ports in &self.cache_ports {
                        for &assoc in &self.cache_assocs {
                            v.push(CachePoint {
                                lanes,
                                size_bytes,
                                line_bytes,
                                ports,
                                assoc,
                            });
                        }
                    }
                }
            }
        }
        v
    }

    /// All cache design points whose geometry passes
    /// [`CacheConfig::check`] on the default platform; the others cannot
    /// be constructed and are skipped.
    #[must_use]
    pub fn cache_points(&self) -> Vec<CachePoint> {
        let soc = SocConfig::default();
        let mut v = self.cache_points_unfiltered();
        v.retain(|p| !p.apply(&soc).cache.check().has_errors());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_space_sizes() {
        let s = DesignSpace::paper();
        assert_eq!(s.dma_points().len(), 25);
        // 5 lanes × 6 sizes × 3 lines × 4 ports × 2 assocs, minus
        // unconstructible geometries.
        let pts = s.cache_points();
        assert!(pts.len() > 500, "{}", pts.len());
        for p in &pts {
            let lines = p.size_bytes / u64::from(p.line_bytes);
            assert!(lines >= u64::from(p.assoc));
        }
    }

    #[test]
    fn cache_point_applies_geometry() {
        let p = CachePoint {
            lanes: 4,
            size_bytes: 8192,
            line_bytes: 32,
            ports: 2,
            assoc: 4,
        };
        let soc = p.apply(&SocConfig::default());
        assert_eq!(soc.cache.size_bytes, 8192);
        assert_eq!(soc.cache.try_num_sets().expect("valid geometry"), 64);
        assert_eq!(p.datapath().lanes, 4);
    }

    #[test]
    fn quick_space_is_small() {
        let s = DesignSpace::quick();
        assert!(s.dma_points().len() <= 4);
        assert!(s.cache_points().len() <= 8);
    }
}
