//! SoC memory substrate for `gem5-aladdin-rs`.
//!
//! This crate is the gem5 stand-in: a cycle-stepped model of everything
//! between an accelerator's datapath and DRAM —
//!
//! * an interconnect [`Fabric`]: the paper's shared bus with round-robin
//!   arbitration, or a crossbar, two-level bus or mesh [`Topology`], with a
//!   configurable width (the paper's 32-/64-bit sweep), an optional
//!   AXI-like burst protocol, and an optional infinite-bandwidth mode used
//!   for the Fig. 7 latency/bandwidth decomposition,
//! * a row-buffer [`Dram`] model,
//! * a set-associative, write-back [`Cache`] with MSHRs (hit-under-miss),
//!   MOESI line states, and a strided hardware prefetcher,
//! * an accelerator [`Tlb`] with a characterized miss penalty,
//! * a descriptor-based [`DmaEngine`] supporting baseline and pipelined
//!   (page-chunked) operation, delivering per-line arrival times so
//!   full/empty bits can trigger computation early,
//! * a [`FlushSchedule`] implementing the paper's analytical CPU cache
//!   flush/invalidate cost model (84 ns / 71 ns per line),
//! * a [`TrafficGenerator`] that injects background bus traffic to study
//!   shared-resource contention.
//!
//! All components advance in lock step with the accelerator clock: call
//! `tick(cycle)` once per cycle and drain completions. Time is measured in
//! accelerator cycles; [`Clock`] converts to nanoseconds.
//!
//! # Example
//!
//! ```
//! use aladdin_mem::{BusConfig, DramConfig, Fabric, MasterId, TopologyConfig};
//!
//! let mut bus = Fabric::try_new(
//!     BusConfig::default(),
//!     DramConfig::default(),
//!     TopologyConfig::default(),
//! )?;
//! let token = bus.try_request(MasterId::DMA, 0x1000, 64, false)?;
//! let mut done = None;
//! 'outer: for cycle in 0..10_000 {
//!     bus.tick(cycle);
//!     for c in bus.drain_completions() {
//!         if c.token == token {
//!             done = Some(c.at);
//!             break 'outer;
//!         }
//!     }
//! }
//! assert!(done.is_some());
//! # Ok::<(), aladdin_ir::Diagnostic>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod bus;
mod cache;
mod clock;
pub mod coherence;
mod dma;
mod dram;
mod flush;
mod interconnect;
mod intervals;
mod tlb;
mod traffic;

pub use bus::{BusCompletion, BusConfig, BusFaults, BusStats, MasterId, Token};
pub use cache::{
    AccessKind, Cache, CacheBusRequest, CacheConfig, CacheOutcome, CacheStats, FillTracker,
    PrefetcherConfig, WritePolicy,
};
pub use clock::Clock;
pub use coherence::MoesiState;
pub use dma::{DmaConfig, DmaDirection, DmaEngine, DmaStats, DmaTransfer, LineArrival};
pub use dram::{Dram, DramConfig, DramStats};
pub use flush::{FlushConfig, FlushSchedule};
pub use interconnect::{
    Fabric, ProtocolConfig, Topology, TopologyConfig, CODE_BAD_TOPOLOGY, CODE_TOPOLOGY_CAPACITY,
};
pub use intervals::IntervalSet;
pub use tlb::{Tlb, TlbConfig, TlbStats};
pub use traffic::{TrafficConfig, TrafficGenerator, TRAFFIC_REGION_BASE, TRAFFIC_REGION_BYTES};

/// The first diagnostic of a component's `check`, as its constructor's
/// error: the runtime rejects exactly what the static check reports.
pub(crate) fn first_error(report: aladdin_ir::Report) -> Result<(), aladdin_ir::Diagnostic> {
    report.into_iter().next().map_or(Ok(()), Err)
}

/// `L0210` if `value` is zero: a field the simulators divide by or step
/// through, named by its `soc.` locus.
pub(crate) fn require_positive(report: &mut aladdin_ir::Report, field: &'static str, value: u64) {
    if value == 0 {
        report.push(
            aladdin_ir::Diagnostic::error("L0210", format!("{field} must be positive"))
                .at(aladdin_ir::Locus::Field(field)),
        );
    }
}
