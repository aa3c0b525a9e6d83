//! `gem5-aladdin-rs` core: SoC/accelerator co-simulation.
//!
//! This crate is the paper's primary contribution — the coupling of a
//! pre-RTL accelerator model (`aladdin-accel`) with an SoC memory substrate
//! (`aladdin-mem`) so that accelerators are evaluated *inside* the system
//! they will ship in, not in isolation. One engine runs every flow: a
//! [`FlowSpec`] names the memory system via [`MemKind`], and the single
//! fallible entry point [`simulate`] executes it:
//!
//! * [`MemKind::Isolated`] — classic Aladdin: all data assumed pre-loaded
//!   into scratchpads, compute time only. The "designed in isolation"
//!   baseline of every co-design comparison.
//! * [`MemKind::Dma`] — the full scratchpad/DMA flow: CPU-side cache flush
//!   and invalidate (analytical, Zedboard-characterized constants),
//!   descriptor DMA over the shared bus, compute, and DMA writeback. The
//!   three [`DmaOptLevel`]s reproduce Section IV-B: baseline, pipelined
//!   DMA (page-granular flush/DMA overlap), and DMA-triggered computation
//!   (full/empty bits).
//! * [`MemKind::Cache`] — the cache-based flow: shared arrays are pulled
//!   on demand through an accelerator TLB and a MOESI cache over the same
//!   bus; private arrays stay in scratchpads.
//!
//! Every run returns a [`FlowResult`] with the paper's runtime phase
//! attribution (flush-only / DMA-flush / compute-DMA / compute-only,
//! Section IV-C), an accelerator [`EnergyReport`], and component
//! statistics. [`simulate_multi`] co-simulates several accelerators —
//! heterogeneous mixes of DMA and cache clients included — on one shared
//! bus (Figure 3's `ACCEL0`/`ACCEL1`). Both entry points step the same
//! SoC world: one interconnect, background traffic, per-master DMA
//! engines and the datapath's memory front, advanced by one per-cycle
//! step.
//!
//! # Example
//!
//! ```
//! use aladdin_core::{simulate, DmaOptLevel, FlowSpec, MemKind, SocConfig};
//! use aladdin_accel::DatapathConfig;
//! use aladdin_workloads::{by_name, Kernel};
//!
//! let kernel = by_name("stencil-stencil2d").expect("known kernel");
//! let trace = kernel.run().trace;
//! let soc = SocConfig::default();
//! let dp = DatapathConfig { lanes: 4, partition: 4, ..DatapathConfig::default() };
//!
//! let isolated = simulate(&trace, &dp, &soc, &FlowSpec::new(MemKind::Isolated)).unwrap();
//! let dma = simulate(
//!     &trace,
//!     &dp,
//!     &soc,
//!     &FlowSpec::new(MemKind::Dma(DmaOptLevel::Full)),
//! )
//! .unwrap();
//! assert!(dma.total_cycles >= isolated.total_cycles);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod cachemem;
mod config;
mod decompose;
mod engine;
mod multi;
mod phase;
mod source;
mod validation;
mod world;

pub use aladdin_accel::EnergyReport;
pub use aladdin_faults::{
    DeadlockSnapshot, FaultPlan, FaultSpec, NackSpec, SimError, SimHarness, Watchdog,
};
pub use aladdin_mem::{
    MasterId, ProtocolConfig, Topology, TopologyConfig, TrafficConfig, CODE_BAD_TOPOLOGY,
    CODE_TOPOLOGY_CAPACITY,
};
pub use config::{CompletionSignal, DmaOptLevel, MemKind, SocConfig};
pub use decompose::{decompose_cache_time, TimeDecomposition};
pub use engine::{
    simulate, simulate_prepared, simulate_source, simulate_source_prepared, FlowResult, FlowSpec,
    SourceFlowRun,
};
pub use multi::{
    simulate_multi, validate_multi_jobs, AcceleratorJob, AcceleratorTimeline, MultiSocResult,
};
pub use phase::PhaseBreakdown;
pub use source::{TraceSource, TraceSourceKind};
pub use validation::{validate_kernel, ValidationRow};
