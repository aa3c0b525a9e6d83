//! `aladdin-lint`: static analysis and model checking for the
//! gem5-aladdin-rs co-simulation stack.
//!
//! Three analysis families, all emitting the shared typed
//! [`Diagnostic`]/[`Report`] vocabulary from `aladdin-ir`:
//!
//! 1. **Trace lints** ([`lint_trace`], `L01xx`) — SSA def-before-use
//!    through memory, store→load dependence consistency,
//!    dependence-cycle detection, dead-node detection and loop
//!    annotation balance.
//! 2. **Configuration contradiction checks** ([`lint_design`],
//!    [`lint_cross`], `L02xx`) — cross-validating datapath and SoC
//!    parameters (scratchpad partitioning vs lanes, cache line vs bus
//!    width, MSHRs vs outstanding DMA, TLB/page coherence, DMA chunking
//!    vs full/empty-bit granules) so design-space sweeps can statically
//!    prune invalid points instead of failing mid-simulation.
//! 3. **Static cycle-bound analysis** ([`bounds_for_point`], `L027x`) —
//!    certified `[lo, hi]` cycle intervals per design point from a
//!    weighted ASAP critical path, compute/memory rooflines and a
//!    serialized-execution ceiling, computed without running the
//!    scheduler; the sweep stack uses them to prune dominated points
//!    without changing the Pareto frontier.
//! 4. **Coherence-protocol model checking** ([`ProtocolChecker`],
//!    `L03xx`) — exhaustive reachability over the MOESI-lite line state
//!    machine under read/write/evict/flush/DMA interleavings, proving
//!    no lost dirty line, no duplicate ownership, no readable stale
//!    copy and no stuck state; seeded-bug variants prove the checker
//!    itself is not vacuous.
//!
//! The diagnostic-code table lives in `crates/lint/README.md`; the
//! `soclint` CLI (`crates/soclint`) fronts all three families.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
mod config_lint;
mod protocol;
mod trace_lint;

pub use aladdin_ir::{Diagnostic, Locus, Report, Severity};
pub use bounds::{
    bounds_for_point, bounds_for_prepared, point_diagnostic, static_power_floor_mw,
    summarize_bounds, uncertified_diagnostic, BoundsSummary, CycleBounds, CODE_BOUNDS_SUMMARY,
    CODE_BOUNDS_UNAVAILABLE, CODE_DOMINATED, CODE_PLAN_BOUNDS, CODE_POINT_BOUNDS, CODE_PRUNED,
    CODE_UNCERTIFIED,
};
pub use config_lint::{lint_cross, lint_design};
pub use protocol::{ProtocolCheck, ProtocolChecker, SeededBug};
pub use trace_lint::{
    lint_dead_nodes, lint_dep_cycles, lint_dep_relation, lint_loop_annotations, lint_memory_ssa,
    lint_trace,
};
