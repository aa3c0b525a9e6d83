//! Background bus traffic for shared-resource-contention studies.

use aladdin_ir::{Diagnostic, Locus, Report};

use crate::bus::MasterId;
use crate::interconnect::Fabric;

/// Where every [`TrafficGenerator`] walks: a private region at 1 GiB,
/// clear of the accelerator's arrays.
pub const TRAFFIC_REGION_BASE: u64 = 0x4000_0000;

/// The size of the traffic region, [`TRAFFIC_REGION_BASE`] onwards.
pub const TRAFFIC_REGION_BYTES: u64 = 16 << 20;

/// Background bus-traffic injection for contention studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficConfig {
    /// Cycles between injected requests.
    pub period: u64,
    /// Bytes per request.
    pub bytes: u32,
}

impl TrafficConfig {
    /// Static check, as `SocConfig::check` reports it: `L0210` for a zero
    /// period or request size, and `L0218` for a request larger than the
    /// [`TRAFFIC_REGION_BYTES`] region the generator walks.
    #[must_use]
    pub fn check(&self) -> Report {
        let mut report = Report::new();
        crate::require_positive(&mut report, "soc.traffic.period", self.period);
        crate::require_positive(&mut report, "soc.traffic.bytes", u64::from(self.bytes));
        if u64::from(self.bytes) > TRAFFIC_REGION_BYTES {
            report.push(
                Diagnostic::error(
                    "L0218",
                    format!(
                        "a {} B traffic request does not fit the {} MiB traffic region",
                        self.bytes,
                        TRAFFIC_REGION_BYTES >> 20
                    ),
                )
                .at(Locus::Field("soc.traffic.bytes")),
            );
        }
        report
    }
}

/// Injects a fixed-size bus request every `period` cycles, emulating other
/// SoC agents (CPU, display, other accelerators) competing for the shared
/// interconnect — the paper's "behavior under shared resource contention"
/// consideration (Section IV-A).
#[derive(Debug, Clone)]
pub struct TrafficGenerator {
    period: u64,
    bytes: u32,
    next_at: u64,
    next_offset: u64,
    issued: u64,
}

impl TrafficGenerator {
    /// A generator issuing `cfg.bytes`-sized requests every `cfg.period`
    /// cycles, walking sequentially through the traffic region.
    ///
    /// # Errors
    ///
    /// The first error of [`TrafficConfig::check`].
    pub fn try_new(cfg: &TrafficConfig) -> Result<Self, Diagnostic> {
        if let Some(d) = cfg.check().first_error() {
            return Err(d.clone());
        }
        Ok(TrafficGenerator {
            period: cfg.period,
            bytes: cfg.bytes,
            next_at: 0,
            next_offset: 0,
            issued: 0,
        })
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
            let addr = TRAFFIC_REGION_BASE + self.next_offset;
            bus.try_request(MasterId::TRAFFIC, addr, self.bytes, false)?;
            self.next_offset = (self.next_offset + u64::from(self.bytes)) % TRAFFIC_REGION_BYTES;
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

    fn generator(period: u64, bytes: u32) -> TrafficGenerator {
        TrafficGenerator::try_new(&TrafficConfig { period, bytes }).unwrap()
    }

    #[test]
    fn issues_at_period() {
        let mut bus = bus();
        let mut gen = generator(10, 64);
        for cycle in 0..100 {
            gen.tick(cycle, &mut bus).unwrap();
            bus.tick(cycle);
        }
        // Cycles 0,10,...,90 → 10 requests.
        assert_eq!(gen.issued(), 10);
    }

    #[test]
    fn offered_load_math() {
        assert!((generator(16, 64).offered_load(4) - 1.0).abs() < 1e-12);
        assert!((generator(64, 64).offered_load(4) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn region_wraps() {
        let mut bus = bus();
        let half = u32::try_from(TRAFFIC_REGION_BYTES / 2).unwrap();
        let mut gen = generator(1, half);
        for cycle in 0..3 {
            gen.tick(cycle, &mut bus).unwrap();
            bus.tick(cycle);
        }
        assert_eq!(gen.issued(), 3);
        assert_eq!(
            gen.next_offset,
            u64::from(half),
            "back at the start, then half"
        );
    }

    /// A generator the check rejects is not built: it fails with the
    /// check's first code and locus.
    #[test]
    fn zero_or_oversized_traffic_rejected() {
        let too_big = u32::try_from(TRAFFIC_REGION_BYTES + 1).unwrap();
        for (period, bytes, code, field) in [
            (0, 64, "L0210", "soc.traffic.period"),
            (10, 0, "L0210", "soc.traffic.bytes"),
            (10, too_big, "L0218", "soc.traffic.bytes"),
        ] {
            let cfg = TrafficConfig { period, bytes };
            let first = cfg.check().first_error().cloned().expect("rejected");
            assert_eq!((first.code, &first.locus), (code, &Locus::Field(field)));
            let err = TrafficGenerator::try_new(&cfg).expect_err("not built");
            assert_eq!(err, first);
        }
        let whole = u32::try_from(TRAFFIC_REGION_BYTES).unwrap();
        assert!(TrafficConfig {
            period: 1,
            bytes: whole
        }
        .check()
        .is_clean());
    }
}
