//! Accelerator clock and time-unit conversions.

use aladdin_ir::{Diagnostic, Locus};

/// Converts between wall-clock nanoseconds and accelerator cycles.
///
/// The paper runs accelerators at 100 MHz (10 ns/cycle) so that a 4 KB DMA
/// transfer and a 4 KB CPU cache flush take the same time, which is what
/// makes pipelined DMA bubble-free (Section IV-B1). That is the default.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clock {
    ns_per_cycle: f64,
}

impl Clock {
    /// A clock with the given period in nanoseconds.
    ///
    /// # Errors
    ///
    /// Returns an `L0210` diagnostic if `ns_per_cycle` is not strictly
    /// positive and finite.
    pub fn try_from_period_ns(ns_per_cycle: f64) -> Result<Self, Diagnostic> {
        if !(ns_per_cycle.is_finite() && ns_per_cycle > 0.0) {
            return Err(Diagnostic::error(
                "L0210",
                format!("clock period must be positive, got {ns_per_cycle}"),
            )
            .at(Locus::Field("clock")));
        }
        Ok(Clock { ns_per_cycle })
    }

    /// A clock with the given frequency in MHz.
    ///
    /// # Errors
    ///
    /// Returns an `L0210` diagnostic if `mhz` is not strictly positive
    /// and finite.
    pub fn try_from_mhz(mhz: f64) -> Result<Self, Diagnostic> {
        if !(mhz.is_finite() && mhz > 0.0) {
            return Err(Diagnostic::error(
                "L0210",
                format!("clock frequency must be positive, got {mhz}"),
            )
            .at(Locus::Field("clock")));
        }
        Clock::try_from_period_ns(1000.0 / mhz)
    }

    /// A clock with the given frequency in MHz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is not strictly positive and finite; use
    /// [`try_from_mhz`](Clock::try_from_mhz) to handle that as a typed
    /// diagnostic instead.
    #[must_use]
    pub fn from_mhz(mhz: f64) -> Self {
        Clock::try_from_mhz(mhz).unwrap_or_else(|d| panic!("{d}"))
    }

    /// Clock period in nanoseconds.
    #[must_use]
    pub fn period_ns(self) -> f64 {
        self.ns_per_cycle
    }

    /// Frequency in MHz.
    #[must_use]
    pub fn mhz(self) -> f64 {
        1000.0 / self.ns_per_cycle
    }

    /// Convert a duration in nanoseconds to cycles, rounding up.
    #[must_use]
    pub fn cycles_from_ns(self, ns: f64) -> u64 {
        (ns / self.ns_per_cycle).ceil() as u64
    }

    /// Convert cycles to nanoseconds.
    #[must_use]
    pub fn ns_from_cycles(self, cycles: u64) -> f64 {
        cycles as f64 * self.ns_per_cycle
    }

    /// Convert cycles to seconds.
    #[must_use]
    pub fn seconds_from_cycles(self, cycles: u64) -> f64 {
        self.ns_from_cycles(cycles) * 1e-9
    }
}

impl Default for Clock {
    /// The paper's 100 MHz accelerator clock.
    fn default() -> Self {
        Clock::from_mhz(100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_clock_is_a_typed_diagnostic() {
        assert_eq!(Clock::try_from_mhz(0.0).unwrap_err().code, "L0210");
        assert_eq!(
            Clock::try_from_period_ns(f64::NAN).unwrap_err().code,
            "L0210"
        );
        assert!(Clock::try_from_mhz(100.0).is_ok());
    }

    #[test]
    fn default_is_100mhz() {
        let c = Clock::default();
        assert_eq!(c.period_ns(), 10.0);
        assert_eq!(c.mhz(), 100.0);
    }

    #[test]
    fn conversions_round_trip() {
        let c = Clock::from_mhz(250.0);
        assert_eq!(c.period_ns(), 4.0);
        assert_eq!(c.cycles_from_ns(12.0), 3);
        assert_eq!(c.cycles_from_ns(12.1), 4);
        assert_eq!(c.ns_from_cycles(5), 20.0);
        assert!((c.seconds_from_cycles(250_000_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_period_rejected() {
        let err = Clock::try_from_period_ns(0.0).unwrap_err();
        assert_eq!(err.code, "L0210");
        assert!(err.message.contains("must be positive"), "{err}");
    }
}
