//! Aladdin-style pre-RTL accelerator model.
//!
//! This crate turns a dynamic [`Trace`](aladdin_ir::Trace) into a cycle-level
//! performance and power estimate of a fixed-function accelerator, without
//! generating RTL — the Aladdin methodology (Shao et al., ISCA 2014) that
//! gem5-Aladdin embeds:
//!
//! 1. [`PreparedDddg`] — the dynamic data dependence graph, built once per
//!    trace, with critical-path analysis and the iteration instances loop
//!    unrolling maps to lanes and rounds.
//! 2. [`schedule`] — a breadth-first, resource-constrained dataflow
//!    scheduler. Compute operations are limited to one per functional-unit
//!    class per lane per cycle; memory operations go through a pluggable
//!    [`DatapathMemory`], so the same datapath can be evaluated against a
//!    partitioned scratchpad, a scratchpad gated by DMA full/empty bits, or
//!    a hardware-managed cache (implemented in `aladdin-core`).
//! 3. [`PowerModel`] — 40 nm-class per-operation energies, SRAM/cache
//!    access energies and leakage, rolled up into an [`EnergyReport`].
//!
//! # Example: schedule a tiny kernel on a 2-lane datapath
//!
//! ```
//! use aladdin_ir::{ArrayKind, Opcode, Tracer};
//! use aladdin_accel::{schedule, DatapathConfig, SpadMemory};
//!
//! let mut t = Tracer::new("dot2");
//! let a = t.array_f64("a", &[1.0, 2.0], ArrayKind::Input);
//! let b = t.array_f64("b", &[3.0, 4.0], ArrayKind::Input);
//! let mut o = t.array_f64("o", &[0.0; 2], ArrayKind::Output);
//! for i in 0..2 {
//!     t.begin_iteration(i as u32);
//!     let x = t.load(&a, i);
//!     let y = t.load(&b, i);
//!     let p = t.binop(Opcode::FMul, x, y);
//!     t.store(&mut o, i, p);
//! }
//! let trace = t.finish();
//!
//! let cfg = DatapathConfig { lanes: 2, ..DatapathConfig::default() };
//! let mut mem = SpadMemory::new(&trace, &cfg);
//! let result = schedule(&trace, &cfg, &mut mem, 0).expect("schedules");
//! assert!(result.end > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod config;
mod dddg;
mod fu;
mod meminterface;
mod power;
mod scheduler;
mod window;

pub use config::{DatapathConfig, LaneSync};
pub use dddg::PreparedDddg;
pub use fu::FuTiming;
pub use meminterface::{DatapathMemory, IssueResult, SpadMemory, SpadStats};
pub use power::{CacheEnergyParams, EnergyReport, PowerModel};
pub use scheduler::{
    mem_issue_budget, schedule, try_schedule_prepared, ScheduleResult, SchedulerWorkspace,
};
pub use window::{trace_node_stream, try_schedule_windowed, WindowedOutcome, DEFAULT_WINDOW_NODES};
