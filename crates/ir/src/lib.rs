//! Dynamic dataflow IR and tracing DSL for `gem5-aladdin-rs`.
//!
//! The Aladdin accelerator model is *trace driven*: a workload is executed
//! once, functionally, and every dynamic operation it performs is recorded as
//! a node in a [`Trace`]. Nodes carry their true data dependences (register
//! dependences through SSA-style value identifiers, and memory dependences
//! through exact store→load matching), so the trace is already a dynamic data
//! dependence graph (DDDG) in flattened form. The `aladdin-accel` crate then
//! schedules this graph under hardware resource constraints.
//!
//! Workloads do not write LLVM IR: they are ordinary Rust functions written
//! against the [`Tracer`] DSL, which mirrors the load/store/compute structure
//! of the original MachSuite C kernels. Executing the kernel both computes
//! the real result (used by tests to check functional correctness) and emits
//! the trace.
//!
//! # Example
//!
//! ```
//! use aladdin_ir::{ArrayKind, Opcode, Tracer};
//!
//! let mut t = Tracer::new("vecadd");
//! let a = t.array_f64("a", &[1.0, 2.0], ArrayKind::Input);
//! let b = t.array_f64("b", &[3.0, 4.0], ArrayKind::Input);
//! let mut c = t.array_f64("c", &[0.0, 0.0], ArrayKind::Output);
//! for i in 0..2 {
//!     t.begin_iteration(i as u32);
//!     let x = t.load(&a, i);
//!     let y = t.load(&b, i);
//!     let s = t.binop(Opcode::FAdd, x, y);
//!     t.store(&mut c, i, s);
//! }
//! let trace = t.finish();
//! assert_eq!(trace.nodes().len(), 8);
//! assert_eq!(trace.array(c.id()).name, "c");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod atrc;
mod deps;
pub mod diag;
mod hash;
mod opcode;
mod serialize;
mod stats;
mod trace;
mod tracer;
mod transform;

pub use array::{ArrayId, ArrayInfo, ArrayKind};
pub use atrc::{
    atrc_checksum, encode_trace, AtrcNodeIter, AtrcSummary, AtrcTrace, StatsAccumulator,
    TraceWriter, ATRC_VERSION,
};
pub use deps::DepList;
pub use diag::{Diagnostic, Locus, Report, Severity};
pub use hash::ContentHasher;
pub use opcode::{FuClass, Opcode};
pub use serialize::ParseTraceError;
pub use stats::TraceStats;
pub use trace::{MemAccessKind, MemRef, NodeId, Trace, TraceNode};
pub use tracer::{TArray, TVal, Tracer};
pub use transform::{rebalance_reductions, RebalanceStats};
