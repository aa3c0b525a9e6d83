//! Background bus traffic for shared-resource-contention studies.

use aladdin_ir::Diagnostic;

use crate::bus::MasterId;
use crate::interconnect::Fabric;

/// Injects a fixed-size bus request every `period` cycles, emulating other
/// SoC agents (CPU, display, other accelerators) competing for the shared
/// interconnect — the paper's "behavior under shared resource contention"
/// consideration (Section IV-A).
#[derive(Debug, Clone)]
pub struct TrafficGenerator {
    period: u64,
    bytes: u32,
    region_base: u64,
    region_bytes: u64,
    next_at: u64,
    next_offset: u64,
    issued: u64,
}

impl TrafficGenerator {
    /// A generator issuing `bytes`-sized requests every `period` cycles,
    /// walking sequentially through a private address region.
    ///
    /// # Panics
    ///
    /// Panics if `period` or `bytes` is zero, or the region is smaller than
    /// one request.
    #[must_use]
    pub fn new(period: u64, bytes: u32, region_base: u64, region_bytes: u64) -> Self {
        assert!(period > 0, "period must be positive");
        assert!(bytes > 0, "request size must be positive");
        assert!(region_bytes >= u64::from(bytes), "region too small");
        TrafficGenerator {
            period,
            bytes,
            region_base,
            region_bytes,
            next_at: 0,
            next_offset: 0,
            issued: 0,
        }
    }

    /// Fraction of a `bytes_per_cycle`-wide bus this generator consumes.
    #[must_use]
    pub fn offered_load(&self, bus_bytes_per_cycle: u64) -> f64 {
        f64::from(self.bytes) / (self.period as f64 * bus_bytes_per_cycle as f64)
    }

    /// Issue any requests due at `cycle` onto `bus`.
    ///
    /// # Errors
    ///
    /// The fabric's `L0311` diagnostic when its topology cannot host
    /// [`MasterId::TRAFFIC`].
    pub fn tick(&mut self, cycle: u64, bus: &mut Fabric) -> Result<(), Diagnostic> {
        while cycle >= self.next_at {
            let addr = self.region_base + self.next_offset;
            bus.try_request(MasterId::TRAFFIC, addr, self.bytes, false)?;
            self.next_offset = (self.next_offset + u64::from(self.bytes)) % self.region_bytes;
            self.next_at += self.period;
            self.issued += 1;
        }
        Ok(())
    }

    /// Requests issued so far.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::BusConfig;
    use crate::dram::DramConfig;
    use crate::interconnect::TopologyConfig;

    fn bus() -> Fabric {
        Fabric::try_new(
            BusConfig::default(),
            DramConfig::default(),
            TopologyConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn issues_at_period() {
        let mut bus = bus();
        let mut gen = TrafficGenerator::new(10, 64, 0x800_0000, 1 << 20);
        for cycle in 0..100 {
            gen.tick(cycle, &mut bus).unwrap();
            bus.tick(cycle);
        }
        // Cycles 0,10,...,90 → 10 requests.
        assert_eq!(gen.issued(), 10);
    }

    #[test]
    fn offered_load_math() {
        let gen = TrafficGenerator::new(16, 64, 0, 4096);
        assert!((gen.offered_load(4) - 1.0).abs() < 1e-12);
        let light = TrafficGenerator::new(64, 64, 0, 4096);
        assert!((light.offered_load(4) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn region_wraps() {
        let mut bus = bus();
        let mut gen = TrafficGenerator::new(1, 64, 0, 128);
        for cycle in 0..4 {
            gen.tick(cycle, &mut bus).unwrap();
            bus.tick(cycle);
        }
        assert_eq!(gen.issued(), 4);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let _ = TrafficGenerator::new(0, 64, 0, 4096);
    }
}
