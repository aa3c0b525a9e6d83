//! Datapath configuration.

use aladdin_ir::{Diagnostic, Locus, Report};

use crate::fu::FuTiming;

/// How iterations mapped to the same lane (and across lanes) synchronize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LaneSync {
    /// All lanes synchronize before the next unrolled iteration round
    /// begins — the paper's model ("when lanes are finished executing, they
    /// must wait and synchronize with all other lanes before the next
    /// iteration can begin", Section IV-D).
    #[default]
    Barrier,
    /// No structural constraint beyond data dependences and per-lane
    /// functional-unit limits. Used by ablation studies to quantify what
    /// the barrier costs.
    Free,
}

/// Microarchitectural parameters of one accelerator datapath.
///
/// `lanes` and `partition` are the two axes of the paper's design sweeps
/// (Figure 3's table: 1–16 datapath lanes, 1–16 scratchpad partitions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatapathConfig {
    /// Number of datapath lanes (the unrolling factor): iteration `i` of
    /// the kernel's parallel loop executes on lane `i % lanes`.
    pub lanes: u32,
    /// Cyclic partitioning factor of each scratchpad array: element `e`
    /// lives in bank `e % partition`.
    pub partition: u32,
    /// Read/write ports per scratchpad bank.
    pub ports_per_bank: u32,
    /// Functional-unit latencies.
    pub timing: FuTiming,
    /// Inter-lane synchronization model.
    pub sync: LaneSync,
}

impl Default for DatapathConfig {
    fn default() -> Self {
        DatapathConfig {
            lanes: 1,
            partition: 1,
            ports_per_bank: 1,
            timing: FuTiming::default(),
            sync: LaneSync::Barrier,
        }
    }
}

impl DatapathConfig {
    /// A fallible, validating builder over the default configuration.
    ///
    /// [`DatapathConfigBuilder::build`] runs [`DatapathConfig::check`] and
    /// returns the typed [`Report`] on any defect, so an invalid datapath
    /// can never escape construction. This is the supported construction
    /// path; struct-literal update syntax remains available for tests and
    /// sweep internals that start from an already-valid configuration.
    #[must_use]
    pub fn builder() -> DatapathConfigBuilder {
        DatapathConfigBuilder {
            cfg: DatapathConfig::default(),
        }
    }

    /// Peak local memory bandwidth in elements per cycle
    /// (banks × ports/bank) — one of the three Kiviat axes of Figure 9.
    #[must_use]
    pub fn local_mem_bandwidth(&self) -> u32 {
        self.partition * self.ports_per_bank
    }

    /// Checks the configuration, reporting every defect as a typed
    /// diagnostic: zero-valued structural parameters are `L0201`, degenerate
    /// (legal but wasteful) shapes are `L0210`-series warnings.
    ///
    /// Cross-checks against the SoC configuration (bank count vs lanes,
    /// cache geometry, DMA/TLB consistency) live in `aladdin-lint` under
    /// `L022x`; this only knows about the datapath itself.
    #[must_use]
    pub fn check(&self) -> Report {
        let mut report = Report::new();
        if self.lanes == 0 {
            report.push(
                Diagnostic::error("L0201", "lanes must be >= 1").at(Locus::Field("datapath.lanes")),
            );
        }
        if self.partition == 0 {
            report.push(
                Diagnostic::error("L0201", "partition must be >= 1")
                    .at(Locus::Field("datapath.partition")),
            );
        }
        if self.ports_per_bank == 0 {
            report.push(
                Diagnostic::error("L0201", "ports_per_bank must be >= 1")
                    .at(Locus::Field("datapath.ports_per_bank")),
            );
        }
        report
    }
}

/// Fallible builder for [`DatapathConfig`].
///
/// Created by [`DatapathConfig::builder`]. Setters are infallible and
/// chainable; all validation happens once in [`build`](Self::build), which
/// returns the same `L0201` diagnostics as [`DatapathConfig::check`].
#[derive(Debug, Clone)]
pub struct DatapathConfigBuilder {
    cfg: DatapathConfig,
}

impl DatapathConfigBuilder {
    /// Number of datapath lanes (the unrolling factor).
    #[must_use]
    pub fn lanes(mut self, lanes: u32) -> Self {
        self.cfg.lanes = lanes;
        self
    }

    /// Cyclic partitioning factor of each scratchpad array.
    #[must_use]
    pub fn partition(mut self, partition: u32) -> Self {
        self.cfg.partition = partition;
        self
    }

    /// Read/write ports per scratchpad bank.
    #[must_use]
    pub fn ports_per_bank(mut self, ports: u32) -> Self {
        self.cfg.ports_per_bank = ports;
        self
    }

    /// Functional-unit latencies.
    #[must_use]
    pub fn timing(mut self, timing: FuTiming) -> Self {
        self.cfg.timing = timing;
        self
    }

    /// Inter-lane synchronization model.
    #[must_use]
    pub fn sync(mut self, sync: LaneSync) -> Self {
        self.cfg.sync = sync;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns the full typed [`Report`] (code `L0201`) if any structural
    /// parameter is zero.
    pub fn build(self) -> Result<DatapathConfig, Report> {
        let report = self.cfg.check();
        if report.has_errors() {
            Err(report)
        } else {
            Ok(self.cfg)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trips_and_validates() {
        let built = DatapathConfig::builder()
            .lanes(4)
            .partition(8)
            .ports_per_bank(2)
            .sync(LaneSync::Free)
            .build()
            .expect("valid datapath");
        assert_eq!(
            built,
            DatapathConfig {
                lanes: 4,
                partition: 8,
                ports_per_bank: 2,
                timing: FuTiming::default(),
                sync: LaneSync::Free,
            }
        );

        let err = DatapathConfig::builder().lanes(0).build().unwrap_err();
        assert!(err.has_code("L0201"));
    }

    #[test]
    fn default_is_valid() {
        let cfg = DatapathConfig::default();
        assert!(cfg.check().is_clean());
        assert_eq!(cfg.lanes, 1);
        assert_eq!(cfg.sync, LaneSync::Barrier);
        assert_eq!(cfg.local_mem_bandwidth(), 1);
    }

    #[test]
    fn bandwidth_multiplies() {
        let cfg = DatapathConfig {
            partition: 8,
            ports_per_bank: 2,
            ..DatapathConfig::default()
        };
        assert_eq!(cfg.local_mem_bandwidth(), 16);
    }

    #[test]
    fn zero_params_rejected() {
        for bad in [
            DatapathConfig {
                lanes: 0,
                ..DatapathConfig::default()
            },
            DatapathConfig {
                partition: 0,
                ..DatapathConfig::default()
            },
            DatapathConfig {
                ports_per_bank: 0,
                ..DatapathConfig::default()
            },
        ] {
            let report = bad.check();
            assert!(report.has_errors());
            assert!(report.has_code("L0201"));
        }
    }
}
