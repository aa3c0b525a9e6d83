//! Row-buffer DRAM timing model.

use aladdin_faults::FaultInjector;
use aladdin_ir::{Diagnostic, Locus, Report};

/// DRAM timing configuration, in accelerator cycles.
///
/// Defaults approximate a single-channel LPDDR device as seen from a 100 MHz
/// accelerator: a row-buffer hit costs one CAS (30 ns), a row-buffer miss a
/// precharge + activate + CAS (100 ns). Pipelined DMA chunks transfers at
/// 4 KB — the row-buffer size — "to optimize for DRAM row buffer hits"
/// (Section IV-B1), which this model rewards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Latency of an access that hits the open row.
    pub row_hit_cycles: u64,
    /// Latency of an access that misses the open row.
    pub row_miss_cycles: u64,
    /// Row-buffer (DRAM page) size in bytes.
    pub row_bytes: u64,
    /// Number of independently-open banks.
    pub banks: usize,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            row_hit_cycles: 3,
            row_miss_cycles: 10,
            row_bytes: 4096,
            banks: 4,
        }
    }
}

impl DramConfig {
    /// `L0216` validation, as `SocConfig::check` reports it: at least one
    /// bank, and a power-of-two row size (row indexing is a mask).
    #[must_use]
    pub fn check(&self) -> Report {
        let mut report = Report::new();
        if self.banks == 0 {
            report.push(
                Diagnostic::error("L0216", "DRAM needs at least one bank")
                    .at(Locus::Field("soc.dram.banks")),
            );
        }
        if !self.row_bytes.is_power_of_two() {
            report.push(
                Diagnostic::error(
                    "L0216",
                    format!("DRAM row size {} B is not a power of two", self.row_bytes),
                )
                .at(Locus::Field("soc.dram.row_bytes")),
            );
        }
        report
    }
}

/// Per-bank open-row state plus access statistics.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    open_rows: Vec<Option<u64>>,
    stats: DramStats,
    faults: Option<FaultInjector>,
}

/// DRAM access counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Accesses that hit the open row.
    pub row_hits: u64,
    /// Accesses that required opening a row.
    pub row_misses: u64,
}

impl Dram {
    /// A DRAM with all rows closed.
    ///
    /// # Errors
    ///
    /// Returns the first [`DramConfig::check`] error (`L0216`).
    pub fn try_new(cfg: DramConfig) -> Result<Self, Diagnostic> {
        crate::first_error(cfg.check())?;
        Ok(Dram {
            open_rows: vec![None; cfg.banks],
            cfg,
            stats: DramStats::default(),
            faults: None,
        })
    }

    /// Configuration this DRAM was built with.
    #[must_use]
    pub fn config(&self) -> DramConfig {
        self.cfg
    }

    /// Arm latency-spike injection (e.g. refresh collisions). `None`
    /// restores the exact unperturbed timing.
    pub fn set_faults(&mut self, faults: Option<FaultInjector>) {
        self.faults = faults;
    }

    /// Perform an access at `addr`, returning its device latency in cycles
    /// and updating the open-row state.
    pub fn access(&mut self, addr: u64) -> u64 {
        let row = addr / self.cfg.row_bytes;
        let bank = (row as usize) % self.cfg.banks;
        let spike = self.faults.as_mut().map_or(0, FaultInjector::extra_cycles);
        if self.open_rows[bank] == Some(row) {
            self.stats.row_hits += 1;
            self.cfg.row_hit_cycles + spike
        } else {
            self.open_rows[bank] = Some(row);
            self.stats.row_misses += 1;
            self.cfg.row_miss_cycles + spike
        }
    }

    /// Access statistics so far.
    #[must_use]
    pub fn stats(&self) -> DramStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_dram_config_is_a_typed_diagnostic() {
        let bankless = DramConfig {
            banks: 0,
            ..DramConfig::default()
        };
        assert_eq!(Dram::try_new(bankless).unwrap_err().code, "L0216");
        let odd_row = DramConfig {
            row_bytes: 3000,
            ..DramConfig::default()
        };
        assert_eq!(Dram::try_new(odd_row).unwrap_err().code, "L0216");
    }

    #[test]
    fn sequential_accesses_hit_open_row() {
        let mut d = Dram::try_new(DramConfig::default()).expect("valid DRAM");
        assert_eq!(d.access(0), 10); // cold: row miss
        assert_eq!(d.access(64), 3); // same 4 KB row
        assert_eq!(d.access(4032), 3);
        assert_eq!(d.access(4096), 10); // next row, same-but-rotated bank
        assert_eq!(d.stats().row_hits, 2);
        assert_eq!(d.stats().row_misses, 2);
    }

    #[test]
    fn banks_keep_independent_rows() {
        let cfg = DramConfig::default();
        let mut d = Dram::try_new(cfg).expect("valid DRAM");
        // Rows 0..4 map to banks 0..4; all stay open simultaneously.
        for r in 0..4u64 {
            d.access(r * cfg.row_bytes);
        }
        for r in 0..4u64 {
            assert_eq!(d.access(r * cfg.row_bytes + 128), cfg.row_hit_cycles);
        }
    }

    #[test]
    fn strided_conflicting_rows_thrash() {
        let cfg = DramConfig {
            banks: 1,
            ..DramConfig::default()
        };
        let mut d = Dram::try_new(cfg).expect("valid DRAM");
        d.access(0);
        d.access(cfg.row_bytes);
        assert_eq!(d.access(0), cfg.row_miss_cycles);
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_rejected() {
        let _ = Dram::try_new(DramConfig {
            banks: 0,
            ..DramConfig::default()
        })
        .expect("valid DRAM");
    }
}
