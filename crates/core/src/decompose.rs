//! Burger-style execution-time decomposition for cache-based accelerators
//! (Section IV-E, Figure 7).
//!
//! Three runs under progressively realistic memory constraints:
//!
//! 1. **Processing time** — all accesses single-cycle hits.
//! 2. **Latency time** — real cache misses, but infinite bus bandwidth.
//! 3. **Bandwidth time** — the real, width-limited bus.
//!
//! Each component is "the additional execution time after applying a
//! realistic constraint to a memory system parameter".

use aladdin_accel::DatapathConfig;
use aladdin_faults::SimError;
use aladdin_ir::Trace;

use crate::config::SocConfig;
use crate::engine::simulate_cache_ideal;

/// The three-way decomposition of a cache-based run's execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeDecomposition {
    /// Cycles assuming single-cycle, always-hit memory.
    pub processing: u64,
    /// Additional cycles from cache misses under unlimited bus bandwidth.
    pub latency: u64,
    /// Additional cycles from the bandwidth-limited system bus.
    pub bandwidth: u64,
}

impl TimeDecomposition {
    /// Total (realistic) execution time.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.processing + self.latency + self.bandwidth
    }

    /// Fractions (processing, latency, bandwidth) of the total.
    #[must_use]
    pub fn fractions(&self) -> [f64; 3] {
        let t = self.total().max(1) as f64;
        [
            self.processing as f64 / t,
            self.latency as f64 / t,
            self.bandwidth as f64 / t,
        ]
    }
}

/// Decompose the cache-based execution time of `trace` on `dp` in `soc`.
///
/// # Errors
///
/// Returns [`SimError`] if the cache flow fails preflight (`L0253`, e.g.
/// zero MSHRs or zero cache ports) or any of the three runs fails as
/// [`simulate`](crate::simulate) would.
pub fn decompose_cache_time(
    trace: &Trace,
    dp: &DatapathConfig,
    soc: &SocConfig,
) -> Result<TimeDecomposition, SimError> {
    let ideal = simulate_cache_ideal(trace, dp, soc, true)?;
    let mut inf_bus = *soc;
    inf_bus.bus.infinite_bandwidth = true;
    let latency_run = simulate_cache_ideal(trace, dp, &inf_bus, false)?;
    let real = simulate_cache_ideal(trace, dp, soc, false)?;

    let processing = ideal.total_cycles;
    let latency = latency_run.total_cycles.saturating_sub(processing);
    let bandwidth = real.total_cycles.saturating_sub(latency_run.total_cycles);
    Ok(TimeDecomposition {
        processing,
        latency,
        bandwidth,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aladdin_workloads::by_name;

    #[test]
    fn decomposition_orders_constraints() {
        let trace = by_name("stencil-stencil2d").expect("kernel").run().trace;
        let dp = DatapathConfig {
            lanes: 4,
            partition: 4,
            ..DatapathConfig::default()
        };
        let soc = SocConfig::default();
        let d = decompose_cache_time(&trace, &dp, &soc).expect("decomposes");
        assert!(d.processing > 0);
        assert!(d.latency > 0, "misses must cost something: {d:?}");
        let f = d.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallelism_reduces_processing_time() {
        let trace = by_name("stencil-stencil2d").expect("kernel").run().trace;
        let soc = SocConfig::default();
        let narrow = decompose_cache_time(
            &trace,
            &DatapathConfig {
                lanes: 1,
                partition: 1,
                ..DatapathConfig::default()
            },
            &soc,
        )
        .expect("decomposes");
        let wide = decompose_cache_time(
            &trace,
            &DatapathConfig {
                lanes: 8,
                partition: 8,
                ..DatapathConfig::default()
            },
            &soc,
        )
        .expect("decomposes");
        assert!(
            wide.processing < narrow.processing,
            "lanes must cut processing time: {} vs {}",
            wide.processing,
            narrow.processing
        );
    }

    #[test]
    fn zero_mshr_cache_is_a_typed_preflight_error() {
        let trace = by_name("aes-aes").expect("kernel").run().trace;
        let mut soc = SocConfig::default();
        soc.cache.mshrs = 0;
        let err = decompose_cache_time(&trace, &DatapathConfig::default(), &soc).unwrap_err();
        assert_eq!(err.code(), "L0253", "{err}");
    }
}
