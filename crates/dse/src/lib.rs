//! Design-space exploration for accelerator/SoC co-design.
//!
//! Implements the paper's evaluation methodology on top of
//! [`aladdin-core`](aladdin_core):
//!
//! * [`DesignSpace`] — the Figure 3 parameter table (datapath lanes,
//!   scratchpad partitioning, cache geometry, bus width),
//! * [`sweep`]/[`sweep_perf`] — a multithreaded design-space sweep
//!   generic over [`MemKind`](aladdin_core::MemKind), and
//!   [`sweep_points`]/[`sweep_points_streaming`] for arbitrary point
//!   lists; all of them, and the single-point [`run_point_cached`], run
//!   one per-point step (result cache, shared DDDG preparation, optional
//!   bound pruning) through one parallel engine, [`sweep_engine`],
//! * [`pareto_frontier`] and [`edp_optimal`] — the Figure 8 analyses,
//! * [`run_codesign`] — the four design scenarios of Figures 9/10
//!   (isolated, co-designed DMA, co-designed cache at 32- and 64-bit bus)
//!   with per-scenario EDP improvements,
//! * [`KiviatSummary`] — the three normalized microarchitecture axes of
//!   Figure 9 (lanes, local SRAM, local memory bandwidth).
//!
//! # Example
//!
//! ```
//! use aladdin_dse::{edp_optimal, sweep, DesignSpace};
//! use aladdin_core::{DmaOptLevel, MemKind, SocConfig};
//! use aladdin_workloads::{by_name, Kernel};
//!
//! let trace = by_name("aes-aes").expect("kernel").run().trace;
//! let space = DesignSpace::quick();
//! let results = sweep(
//!     &trace,
//!     &space,
//!     &SocConfig::default(),
//!     MemKind::Dma(DmaOptLevel::Full),
//! );
//! let best = edp_optimal(&results).expect("non-empty sweep");
//! assert!(best.edp() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod cache;
mod kiviat;
mod pareto;
mod perf;
mod preflight;
mod scenario;
mod space;
mod sweep;

pub use cache::{
    maintain_shard_index, point_cached, reset_sweep_cache, set_sweep_cache_dir,
    set_sweep_cache_mode, ShardIndexReport, SweepCacheMode, FORMAT_VERSION,
};
pub use kiviat::KiviatSummary;
pub use pareto::{edp_optimal, optimal_by, pareto_frontier, Metric};
pub use perf::{global_perf, SweepPerf};
pub use preflight::{preflight_cache, preflight_dma, Preflight, RejectedPoint};
pub use scenario::{run_codesign, CodesignReport, ScenarioOutcome};
pub use space::{CachePoint, DesignSpace, DmaPoint};
pub use sweep::{
    cache_gate_open, run_point_cached, sweep, sweep_engine, sweep_perf, sweep_points,
    sweep_points_streaming, PointOutcome, PointSpec, PrunedPoint, SweepSource,
};
