//! Static cycle-bound analysis: certified `[lo, hi]` intervals per design
//! point, computed without running the scheduler (`L0270`–`L0276`).
//!
//! Design-space sweeps pay full simulation cost for every point, even
//! points that are provably dominated before the first scheduler cycle.
//! This module turns the DDDG plus a configuration into sound cycle
//! bounds in microseconds:
//!
//! * **Lower bound** — the maximum of four independently sound bounds:
//!   a weighted ASAP critical path over the [`PreparedDddg`], a per-class
//!   compute roofline (`ceil(N_k / lanes) − 1 + latency_k`), a memory
//!   roofline from the scheduler's per-cycle issue budget and scratchpad/
//!   cache port counts, and (under barrier synchronization) the sum of
//!   per-round rooflines.
//! * **Upper bound** — a structural serialized-execution bound: every
//!   node issued alone, every memory access serviced at its worst-case
//!   latency, every DMA burst and cache fill serialized on the bus. The
//!   upper bound is *certified* only when nothing unbounded can perturb
//!   the run (no fault plan, no background bus traffic); otherwise it is
//!   reported as `u64::MAX` and flagged `L0272`.
//!
//! Soundness is the contract — `lo ≤ simulated_cycles ≤ hi` is property-
//! tested against the engine for every in-tree kernel × randomized
//! configurations × all three flow kinds (`tests/bounds_soundness.rs`).
//! The sweep stack uses these intervals to prune dominated points without
//! changing the Pareto frontier (see `aladdin-dse`'s pruned sweep and
//! `docs/bounds.md`).

use std::fmt;

use aladdin_accel::{
    mem_issue_budget, CacheEnergyParams, DatapathConfig, LaneSync, PowerModel, PreparedDddg,
};
use aladdin_core::{CompletionSignal, MemKind, SimHarness, SocConfig};
use aladdin_ir::{ArrayInfo, Diagnostic, FuClass, Locus, Report, Trace};
use aladdin_mem::{DmaDirection, DmaTransfer, FlushSchedule, Topology};

/// `L0270`: aggregate bounds summary over a set of design points.
pub const CODE_BOUNDS_SUMMARY: &str = "L0270";
/// `L0271`: per-point certified cycle interval.
pub const CODE_POINT_BOUNDS: &str = "L0271";
/// `L0272`: the upper bound could not be certified (fault plan,
/// background traffic, or a non-shared-bus topology makes worst-case
/// cycles unbounded by the serialized model).
pub const CODE_UNCERTIFIED: &str = "L0272";
/// `L0273`: bounds unavailable because the configuration is invalid.
pub const CODE_BOUNDS_UNAVAILABLE: &str = "L0273";
/// `L0274`: cycle-dominance count (points whose lower bound exceeds some
/// other point's certified upper bound).
pub const CODE_DOMINATED: &str = "L0274";
/// `L0275`: campaign-plan bounds summary (`sweep plan`, `soclint
/// campaign`), printed next to the cache forecast.
pub const CODE_PLAN_BOUNDS: &str = "L0275";
/// `L0276`: a design point was pruned at sweep time because its lower
/// bound was dominated by an already-simulated result.
pub const CODE_PRUNED: &str = "L0276";

/// A certified cycle interval for one design point, with the individual
/// lower-bound components exposed for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleBounds {
    /// Sound lower bound on `total_cycles`.
    pub lo: u64,
    /// Upper bound on `total_cycles`; `u64::MAX` when not certified.
    pub hi: u64,
    /// Whether `hi` is a certified bound (no fault plan, no background
    /// traffic, shared-bus topology with an inert protocol, non-empty
    /// trace).
    pub certified: bool,
    /// Weighted ASAP critical-path component of the scheduled region.
    pub crit_path: u64,
    /// Per-functional-unit-class compute roofline component.
    pub compute_roofline: u64,
    /// Memory issue/port bandwidth roofline component.
    pub memory_roofline: u64,
    /// Sum of per-round rooflines under barrier synchronization (0 under
    /// [`LaneSync::Free`]).
    pub round_sum: u64,
}

impl CycleBounds {
    /// Whether `cycles` falls inside the interval.
    #[must_use]
    pub fn contains(&self, cycles: u64) -> bool {
        self.lo <= cycles && cycles <= self.hi
    }

    /// Human-readable interval description used by `L0271`.
    #[must_use]
    pub fn describe(&self) -> String {
        let hi = if self.certified {
            self.hi.to_string()
        } else {
            "unbounded".to_owned()
        };
        format!(
            "cycles in [{}, {}] (crit path {}, compute roofline {}, memory roofline {}, \
             barrier rounds {})",
            self.lo,
            hi,
            self.crit_path,
            self.compute_roofline,
            self.memory_roofline,
            self.round_sum
        )
    }
}

/// The four scheduled-region bounds, before flow assembly (invoke, DMA,
/// flush, completion lag).
struct SchedBounds {
    crit_path: u64,
    compute_roofline: u64,
    memory_roofline: u64,
    round_sum: u64,
    /// max of the four lower-bound components.
    lo: u64,
    /// Serialized-execution upper bound on `end − start`.
    serialized: u64,
}

/// Bus bytes moved per cycle (at least 1 to avoid division by zero).
fn bus_bytes_per_cycle(soc: &SocConfig) -> u64 {
    (u64::from(soc.bus.width_bits) / 8).max(1)
}

/// Cycles the fabric needs to move `bytes` (1 under infinite bandwidth).
///
/// Topology-aware in the direction that keeps lower bounds sound: a
/// crossbar's `radix` parallel slave channels can deliver up to `radix×`
/// the single-bus bandwidth, so its beat count divides by the radix. A
/// two-level bus or mesh shares the same single DRAM data channel and
/// only *adds* bridge/hop latency, so the shared-bus floor stays sound.
fn bus_beats(soc: &SocConfig, bytes: u64) -> u64 {
    if soc.bus.infinite_bandwidth {
        return 1;
    }
    let lanes = match soc.topology.topology {
        Topology::Crossbar { radix } => u64::from(radix.max(1)),
        _ => 1,
    };
    bytes
        .div_ceil(bus_bytes_per_cycle(soc).saturating_mul(lanes))
        .max(1)
}

/// `end` plus the CPU-side completion-observation lag. Monotone in `end`
/// for both completion models, so it preserves lower *and* upper bounds.
fn observed_end(end: u64, completion: Option<CompletionSignal>) -> u64 {
    // Saturated upper bounds stay saturated (and `observation_lag` on a
    // near-MAX end would overflow its poll-boundary arithmetic).
    if end >= u64::MAX / 2 {
        return u64::MAX;
    }
    end + completion.map_or(0, |c| c.observation_lag(end))
}

/// Compute the scheduled-region bounds. `cache_flow` selects the memory
/// service model: scratchpad (1-cycle `Done`) or cache (`hit_latency`
/// floor for shared arrays, scratchpad for internal arrays).
fn sched_bounds(
    trace: &Trace,
    prep: &PreparedDddg,
    dp: &DatapathConfig,
    soc: &SocConfig,
    cache_flow: bool,
) -> SchedBounds {
    let nodes = trace.nodes();
    let n = nodes.len();
    if n == 0 {
        return SchedBounds {
            crit_path: 0,
            compute_roofline: 0,
            memory_roofline: 0,
            round_sum: 0,
            lo: 0,
            serialized: 0,
        };
    }
    let lanes = u64::from(dp.lanes.max(1));
    let hit = soc.cache.hit_latency;
    let instances = prep.instances();
    let barrier = dp.sync == LaneSync::Barrier;
    let nr = prep.num_rounds(dp.lanes);

    let mut per_class = [0u64; 6];
    let mut round_class: Vec<[u64; 6]> = if barrier {
        vec![[0u64; 6]; nr]
    } else {
        Vec::new()
    };
    let mut shared = 0u64;
    let mut internal = 0u64;
    // Weighted ASAP: `w[i]` is node i's end weight (cycles from issue to
    // retire); an edge from d costs `max(w[d], 1)` because even a
    // zero-latency cache hit releases its consumers the *next* cycle.
    let mut w = vec![0u64; n];
    let mut issue_at = vec![0u64; n];
    let mut crit = 0u64;
    for (i, node) in nodes.iter().enumerate() {
        let class = node.opcode.fu_class();
        per_class[class.index()] += 1;
        if barrier {
            round_class[(instances[i] / dp.lanes) as usize][class.index()] += 1;
        }
        let wi = if let Some(m) = &node.mem {
            if cache_flow && trace.array(m.array).kind.is_shared() {
                shared += 1;
                hit
            } else {
                internal += 1;
                1
            }
        } else {
            dp.timing.latency(class)
        };
        w[i] = wi;
        let mut at = 0u64;
        for d in &node.deps {
            let di = d.index();
            at = at.max(issue_at[di] + w[di].max(1));
        }
        issue_at[i] = at;
        crit = crit.max(at + wi);
    }

    let n_mem = shared + internal;
    let budget = mem_issue_budget(dp) as u64;
    // Scratchpad flows cannot accept more than (arrays × banks × ports)
    // memory operations per cycle even when the issue budget is larger:
    // every acceptance consumes a bank port that cycle.
    let mem_width = if cache_flow {
        budget
    } else {
        budget.min(
            (trace.arrays().len() as u64).max(1)
                * u64::from(dp.partition.max(1))
                * u64::from(dp.ports_per_bank.max(1)),
        )
    }
    .max(1);
    // The cheapest service any memory op can see: scratchpads answer the
    // next cycle; shared arrays under a cache cost at least a hit.
    let min_service = if n_mem == 0 {
        0
    } else if internal > 0 {
        if shared > 0 {
            hit.min(1)
        } else {
            1
        }
    } else {
        hit
    };
    let mem_roof = |count: u64| -> u64 {
        if count == 0 {
            0
        } else {
            (count.div_ceil(mem_width) - 1) + min_service
        }
    };
    let class_roof = |counts: &[u64; 6]| -> u64 {
        let mut best = 0u64;
        for class in FuClass::ALL {
            if class == FuClass::Mem {
                continue;
            }
            let c = counts[class.index()];
            if c > 0 {
                best = best.max(c.div_ceil(lanes) - 1 + dp.timing.latency(class));
            }
        }
        best
    };

    let compute_roofline = class_roof(&per_class);
    let memory_roofline = mem_roof(n_mem);
    // Barrier rounds serialize: the next round's first issue waits for
    // the previous round's last retire, so per-round rooflines add up.
    // A round may contribute 0 (a lone zero-latency hit retires the
    // cycle it issues and unparks the next round the same cycle).
    let round_sum = if barrier {
        round_class
            .iter()
            .map(|rc| class_roof(rc).max(mem_roof(rc[FuClass::Mem.index()])))
            .sum()
    } else {
        0
    };

    // Structural serialized-execution upper bound. Per node: bounded
    // issue bookkeeping (the 3n term), plus its full service latency,
    // plus per-access retry/port-conflict slack; cache-flow shared
    // accesses additionally pay a worst-case TLB walk and up to five
    // serialized bus transactions (fill, dirty writeback, prefetches).
    let total_compute_lat = FuClass::ALL
        .iter()
        .filter(|c| **c != FuClass::Mem)
        .fold(0u64, |acc, c| {
            acc.saturating_add(per_class[c.index()].saturating_mul(dp.timing.latency(*c)))
        });
    let n_u = n as u64;
    let serialized = if cache_flow {
        let line = u64::from(soc.cache.line_bytes).max(8);
        let per_bus_op = soc
            .dram
            .row_miss_cycles
            .saturating_add(bus_beats(soc, line))
            .saturating_add(4);
        (3 * n_u)
            .saturating_add(total_compute_lat)
            .saturating_add(2 * internal)
            .saturating_add(
                shared.saturating_mul(soc.tlb.miss_cycles.saturating_add(hit).saturating_add(2)),
            )
            .saturating_add(shared.saturating_mul(5).saturating_mul(per_bus_op))
    } else {
        (3 * n_u)
            .saturating_add(total_compute_lat)
            .saturating_add(2 * n_mem)
    };

    let lo = crit
        .max(compute_roofline)
        .max(memory_roofline)
        .max(round_sum);
    SchedBounds {
        crit_path: crit,
        compute_roofline,
        memory_roofline,
        round_sum,
        lo,
        serialized,
    }
}

/// DMA-completion bounds for one direction: the serialized descriptor
/// recurrence `t = max(eligible, t) + setup + transfer` with a bandwidth
/// floor (`lo`) or a fully serialized worst-case burst cost (`hi`).
fn dma_window(
    soc: &SocConfig,
    chunks: &[u64],
    eligibility: &[u64],
    start: u64,
    worst_case: bool,
) -> u64 {
    let burst = u64::from(soc.dma.burst_bytes).max(1);
    let per_burst = soc
        .dram
        .row_miss_cycles
        .saturating_add(bus_beats(soc, burst))
        .saturating_add(4);
    let mut t = start;
    for (k, &bytes) in chunks.iter().enumerate() {
        let xfer = if worst_case {
            bytes
                .div_ceil(burst)
                .saturating_mul(per_burst)
                .saturating_add(4)
        } else {
            bus_beats(soc, bytes)
        };
        t = t
            .max(eligibility[k])
            .saturating_add(soc.dma.setup_cycles)
            .saturating_add(xfer);
    }
    t
}

/// Bounds for a design point whose DDDG is already prepared (the sweep
/// fast path: one [`PreparedDddg`] shared across every point of a trace).
/// The configuration must be valid — use [`bounds_for_point`] for the
/// checked entry point.
#[must_use]
pub fn bounds_for_prepared(
    trace: &Trace,
    prep: &PreparedDddg,
    dp: &DatapathConfig,
    soc: &SocConfig,
    kind: MemKind,
    harness: &SimHarness,
) -> CycleBounds {
    if trace.nodes().is_empty() {
        // Degenerate: the engine reports 0 cycles for an empty trace in
        // some flows and flush-only time in others; don't claim either.
        return CycleBounds {
            lo: 0,
            hi: u64::MAX,
            certified: false,
            crit_path: 0,
            compute_roofline: 0,
            memory_roofline: 0,
            round_sum: 0,
        };
    }
    // Fault injection only ever *adds* cycles (delayed grants, NACK
    // retries, DRAM spikes, extended TLB walks, flush stalls), so the
    // lower bound holds under any plan; the upper bound does not. The
    // serialized ceiling was derived for the paper's shared bus with an
    // inert protocol — crossbar/two-level/mesh hop, bridge, and
    // serialization costs (and burst/outstanding stalls) are not in the
    // model, so those fabrics keep a sound `lo` but an open `hi`.
    let certified = harness.plan.is_empty()
        && soc.traffic.is_none()
        && soc.topology.topology == Topology::SharedBus
        && soc.topology.protocol.is_inert();
    let sb = sched_bounds(trace, prep, dp, soc, matches!(kind, MemKind::Cache));

    let (lo, hi) = match kind {
        MemKind::Isolated => (sb.lo, sb.serialized),
        MemKind::Cache => {
            let t0 = soc.invoke_cycles;
            (
                observed_end(t0 + sb.lo, soc.completion),
                observed_end(t0.saturating_add(sb.serialized), soc.completion),
            )
        }
        MemKind::Dma(opt) => {
            let t0 = soc.invoke_cycles;
            let in_transfers: Vec<DmaTransfer> = trace
                .input_arrays()
                .map(|a| DmaTransfer {
                    base: a.base_addr,
                    bytes: a.size_bytes(),
                    direction: DmaDirection::In,
                })
                .collect();
            let chunks = soc.dma.chunk_sizes(opt.pipelined(), &in_transfers);
            // The un-faulted flush schedule: fault stalls only push
            // eligibility later, so this is a sound floor.
            let flush = FlushSchedule::new(soc.flush, soc.clock, t0, &chunks, trace.output_bytes());
            let eligibility: Vec<u64> = if opt.pipelined() {
                flush.chunk_times().to_vec()
            } else {
                vec![flush.end(); chunks.len()]
            };
            let out_transfers: Vec<DmaTransfer> = trace
                .output_arrays()
                .map(|a| DmaTransfer {
                    base: a.base_addr,
                    bytes: a.size_bytes(),
                    direction: DmaDirection::Out,
                })
                .collect();
            let out_chunks = soc.dma.chunk_sizes(opt.pipelined(), &out_transfers);

            let dma_done_lo = if chunks.is_empty() {
                t0
            } else {
                dma_window(soc, &chunks, &eligibility, t0, false)
            };
            let compute_end_lo = if opt.triggered() {
                // Triggered computation co-simulates with the transfer
                // and must outlast both.
                (t0 + sb.lo).max(dma_done_lo)
            } else {
                dma_done_lo + sb.lo
            };
            let end_lo = dma_window(
                soc,
                &out_chunks,
                &vec![compute_end_lo; out_chunks.len()],
                compute_end_lo,
                false,
            );

            let dma_done_hi = if chunks.is_empty() {
                flush.end().max(t0)
            } else {
                dma_window(soc, &chunks, &eligibility, t0, true)
            };
            // Sound for triggered flows too: once every input byte has
            // landed no load can gate, so whatever work remains finishes
            // within the serialized bound.
            let compute_end_hi = dma_done_hi.saturating_add(sb.serialized);
            let end_hi = dma_window(
                soc,
                &out_chunks,
                &vec![compute_end_hi; out_chunks.len()],
                compute_end_hi,
                true,
            );
            (
                observed_end(end_lo, soc.completion),
                observed_end(end_hi, soc.completion),
            )
        }
    };

    CycleBounds {
        lo,
        hi: if certified { hi.max(lo) } else { u64::MAX },
        certified,
        crit_path: sb.crit_path,
        compute_roofline: sb.compute_roofline,
        memory_roofline: sb.memory_roofline,
        round_sum: sb.round_sum,
    }
}

/// Bounds for one design point, validating the configuration first.
///
/// # Errors
///
/// Returns a report of `L0273` diagnostics (one per underlying config
/// error) when the datapath/SoC configuration is invalid — bounds over
/// an invalid point would be meaningless.
pub fn bounds_for_point(
    trace: &Trace,
    dp: &DatapathConfig,
    soc: &SocConfig,
    kind: MemKind,
    harness: &SimHarness,
) -> Result<CycleBounds, Report> {
    let report = crate::lint_design(dp, soc);
    if report.has_errors() {
        let out: Report = report
            .into_iter()
            .filter(|d| d.severity == aladdin_ir::Severity::Error)
            .map(|d| {
                Diagnostic::error(
                    CODE_BOUNDS_UNAVAILABLE,
                    format!("cycle bounds unavailable: {} ({})", d.message, d.code),
                )
                .at(d.locus)
            })
            .collect();
        return Err(out);
    }
    let prep = PreparedDddg::new(trace, dp);
    Ok(bounds_for_prepared(trace, &prep, dp, soc, kind, harness))
}

/// A sound static lower bound on the point's average power in mW: the
/// flow's leakage floor plus, when the upper bound is certified, the
/// datapath's dynamic energy spread over the worst-case runtime.
///
/// Used by the pruned sweep: a point whose `(lo cycles, power floor)`
/// is strictly dominated by an already-simulated result can never reach
/// the Pareto frontier.
#[must_use]
pub fn static_power_floor_mw(
    trace: &Trace,
    dp: &DatapathConfig,
    soc: &SocConfig,
    kind: MemKind,
    bounds: &CycleBounds,
) -> f64 {
    let pm = PowerModel::default_40nm();
    let total_bytes: u64 = trace.arrays().iter().map(ArrayInfo::size_bytes).sum();
    let leak = match kind {
        MemKind::Isolated | MemKind::Dma(_) => {
            pm.datapath_leakage_mw(dp.lanes) + pm.spad_leakage_mw(total_bytes, dp.ports_per_bank)
        }
        MemKind::Cache => {
            let internal_bytes: u64 = trace
                .arrays()
                .iter()
                .filter(|a| !a.kind.is_shared())
                .map(ArrayInfo::size_bytes)
                .sum();
            pm.datapath_leakage_mw(dp.lanes)
                + pm.cache_leakage_mw(CacheEnergyParams {
                    size_bytes: soc.cache.size_bytes,
                    line_bytes: soc.cache.line_bytes,
                    assoc: soc.cache.assoc,
                    ports: soc.cache.ports,
                    mshrs: soc.cache.mshrs,
                })
                + pm.spad_leakage_mw(internal_bytes, dp.ports_per_bank)
        }
    };
    if !bounds.certified || bounds.hi == 0 || bounds.hi == u64::MAX {
        return leak;
    }
    let t = soc.clock.seconds_from_cycles(bounds.hi);
    if t <= 0.0 {
        return leak;
    }
    // Datapath dynamic energy is runtime-independent; dividing by the
    // longest possible runtime gives the smallest possible average power
    // contribution. Memory dynamic energy is omitted (it depends on
    // hit/miss behaviour we don't statically know) — omission keeps the
    // floor sound.
    leak + pm.datapath_energy_pj(&trace.stats()) * 1e-12 / t * 1e3
}

/// Aggregate statistics over a set of per-point bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundsSummary {
    /// Number of design points summarized.
    pub points: usize,
    /// Points with a certified upper bound.
    pub certified: usize,
    /// Smallest lower bound.
    pub min_lo: u64,
    /// Largest lower bound.
    pub max_lo: u64,
    /// Smallest certified upper bound (`u64::MAX` when none).
    pub min_certified_hi: u64,
    /// Points whose lower bound exceeds some other point's certified
    /// upper bound — they can never win on cycles.
    pub dominated: usize,
}

impl Default for BoundsSummary {
    fn default() -> Self {
        BoundsSummary {
            points: 0,
            certified: 0,
            min_lo: 0,
            max_lo: 0,
            min_certified_hi: u64::MAX,
            dominated: 0,
        }
    }
}

impl fmt::Display for BoundsSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "static cycle bounds: {} point(s), lo in [{}, {}] cycles, {} certified upper \
             bound(s)",
            self.points, self.min_lo, self.max_lo, self.certified
        )?;
        if self.min_certified_hi != u64::MAX {
            write!(f, ", best certified hi {}", self.min_certified_hi)?;
        }
        write!(f, ", {} cycle-dominated", self.dominated)
    }
}

/// Summarize per-point bounds (dominance counted against the smallest
/// certified upper bound).
#[must_use]
pub fn summarize_bounds(all: &[CycleBounds]) -> BoundsSummary {
    if all.is_empty() {
        return BoundsSummary::default();
    }
    let min_lo = all.iter().map(|b| b.lo).min().unwrap_or(0);
    let max_lo = all.iter().map(|b| b.lo).max().unwrap_or(0);
    let certified = all.iter().filter(|b| b.certified).count();
    let min_certified_hi = all
        .iter()
        .filter(|b| b.certified)
        .map(|b| b.hi)
        .min()
        .unwrap_or(u64::MAX);
    let dominated = all.iter().filter(|b| b.lo > min_certified_hi).count();
    BoundsSummary {
        points: all.len(),
        certified,
        min_lo,
        max_lo,
        min_certified_hi,
        dominated,
    }
}

impl BoundsSummary {
    /// The `L0270` aggregate summary diagnostic.
    #[must_use]
    pub fn summary_diagnostic(&self) -> Diagnostic {
        Diagnostic::info(CODE_BOUNDS_SUMMARY, self.to_string())
    }

    /// The `L0275` campaign-plan summary diagnostic (same message, the
    /// code distinguishes the plan-time surface).
    #[must_use]
    pub fn plan_diagnostic(&self) -> Diagnostic {
        Diagnostic::info(CODE_PLAN_BOUNDS, self.to_string())
    }

    /// The `L0274` dominance diagnostic, when any point is dominated.
    #[must_use]
    pub fn dominance_diagnostic(&self) -> Option<Diagnostic> {
        (self.dominated > 0).then(|| {
            Diagnostic::info(
                CODE_DOMINATED,
                format!(
                    "{} of {} point(s) are cycle-dominated: their lower bound exceeds the \
                     best certified upper bound ({}); `sweep run --prune` can skip them",
                    self.dominated, self.points, self.min_certified_hi
                ),
            )
        })
    }
}

/// The `L0271` per-point interval diagnostic.
#[must_use]
pub fn point_diagnostic(index: usize, bounds: &CycleBounds) -> Diagnostic {
    Diagnostic::info(CODE_POINT_BOUNDS, bounds.describe()).at(Locus::Point(index))
}

/// The `L0272` warning when a point's upper bound is not certified.
#[must_use]
pub fn uncertified_diagnostic(index: usize, bounds: &CycleBounds) -> Option<Diagnostic> {
    (!bounds.certified).then(|| {
        Diagnostic::warning(
            CODE_UNCERTIFIED,
            "upper bound not certified: a fault plan, background bus traffic, or a \
             non-shared-bus interconnect topology makes worst-case cycles unbounded",
        )
        .at(Locus::Point(index))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aladdin_core::{simulate, DmaOptLevel, FaultPlan, FlowSpec, Watchdog};
    use aladdin_ir::{ArrayKind, Opcode, Tracer};

    fn dot_trace(n: usize) -> Trace {
        let mut t = Tracer::new("dot");
        let a = t.array_f64("a", &vec![1.0; n], ArrayKind::Input);
        let b = t.array_f64("b", &vec![2.0; n], ArrayKind::Input);
        let mut o = t.array_f64("o", &vec![0.0; n], ArrayKind::Output);
        for i in 0..n {
            t.begin_iteration(i as u32);
            let x = t.load(&a, i);
            let y = t.load(&b, i);
            let p = t.binop(Opcode::FMul, x, y);
            t.store(&mut o, i, p);
        }
        t.finish()
    }

    fn inert() -> SimHarness {
        SimHarness {
            plan: FaultPlan::default(),
            watchdog: Watchdog::default(),
        }
    }

    #[test]
    fn bounds_bracket_all_three_flows() {
        let trace = dot_trace(16);
        let dp = DatapathConfig {
            lanes: 2,
            ..DatapathConfig::default()
        };
        let soc = SocConfig::default();
        let harness = inert();
        for kind in [
            MemKind::Isolated,
            MemKind::Dma(DmaOptLevel::Baseline),
            MemKind::Dma(DmaOptLevel::Pipelined),
            MemKind::Dma(DmaOptLevel::Full),
            MemKind::Cache,
        ] {
            let b = bounds_for_point(&trace, &dp, &soc, kind, &harness).unwrap();
            assert!(b.certified, "{kind}: expected certified bounds");
            assert!(b.lo <= b.hi, "{kind}: lo {} > hi {}", b.lo, b.hi);
            let r = simulate(&trace, &dp, &soc, &FlowSpec::new(kind)).unwrap();
            assert!(
                b.contains(r.total_cycles),
                "{kind}: {} outside [{}, {}]",
                r.total_cycles,
                b.lo,
                b.hi
            );
            assert!(b.lo > 0, "{kind}: trivial lower bound");
        }
    }

    #[test]
    fn faulted_or_noisy_points_are_uncertified() {
        let trace = dot_trace(4);
        let dp = DatapathConfig::default();
        let soc = SocConfig::default();
        let harness = SimHarness::with_seed(7);
        let b = bounds_for_point(&trace, &dp, &soc, MemKind::Isolated, &harness).unwrap();
        assert!(!b.certified);
        assert_eq!(b.hi, u64::MAX);
        assert!(uncertified_diagnostic(0, &b).is_some());

        let noisy = SocConfig {
            traffic: Some(aladdin_core::TrafficConfig {
                period: 10,
                bytes: 64,
            }),
            ..SocConfig::default()
        };
        let b = bounds_for_point(&trace, &dp, &noisy, MemKind::Cache, &inert()).unwrap();
        assert!(!b.certified);
    }

    #[test]
    fn only_the_shared_bus_certifies_an_upper_bound() {
        let trace = dot_trace(8);
        let dp = DatapathConfig::default();
        let harness = inert();
        for (topology, kind) in [
            (
                Topology::Crossbar { radix: 4 },
                MemKind::Dma(DmaOptLevel::Full),
            ),
            (
                Topology::TwoLevelBus {
                    clusters: 2,
                    bridge_cycles: 4,
                },
                MemKind::Cache,
            ),
            (
                Topology::MeshNoc {
                    cols: 2,
                    rows: 2,
                    hop_cycles: 1,
                    link_bits: 32,
                },
                MemKind::Dma(DmaOptLevel::Full),
            ),
        ] {
            let mut soc = SocConfig::default();
            soc.topology.topology = topology;
            let b = bounds_for_point(&trace, &dp, &soc, kind, &harness).unwrap();
            assert!(!b.certified, "{topology:?}: hi must stay open");
            assert_eq!(b.hi, u64::MAX);
            assert!(b.lo > 0, "{topology:?}: lo still sound and non-trivial");
            // The lower bound still brackets the simulated run.
            let r = simulate(&trace, &dp, &soc, &FlowSpec::new(kind)).unwrap();
            assert!(
                b.lo <= r.total_cycles,
                "{topology:?}: lo {} > simulated {}",
                b.lo,
                r.total_cycles
            );
        }

        // An active protocol layer also leaves the bound open.
        let mut soc = SocConfig::default();
        soc.topology.protocol.max_burst_bytes = 64;
        let b =
            bounds_for_point(&trace, &dp, &soc, MemKind::Dma(DmaOptLevel::Full), &harness).unwrap();
        assert!(!b.certified);

        // Crossbar beats divide by radix, so its DMA lower bound can only
        // shrink relative to the shared bus.
        let shared = bounds_for_point(
            &trace,
            &dp,
            &SocConfig::default(),
            MemKind::Dma(DmaOptLevel::Full),
            &harness,
        )
        .unwrap();
        let mut xbar_soc = SocConfig::default();
        xbar_soc.topology.topology = Topology::Crossbar { radix: 4 };
        let xbar = bounds_for_point(
            &trace,
            &dp,
            &xbar_soc,
            MemKind::Dma(DmaOptLevel::Full),
            &harness,
        )
        .unwrap();
        assert!(xbar.lo <= shared.lo);
    }

    #[test]
    fn invalid_config_reports_l0273() {
        let trace = dot_trace(4);
        let dp = DatapathConfig {
            lanes: 0,
            ..DatapathConfig::default()
        };
        let soc = SocConfig::default();
        let err = bounds_for_point(&trace, &dp, &soc, MemKind::Isolated, &inert()).unwrap_err();
        assert!(err.has_errors());
        assert!(err.has_code(CODE_BOUNDS_UNAVAILABLE));
    }

    #[test]
    fn empty_trace_is_degenerate() {
        let trace = Tracer::new("empty").finish();
        let b = bounds_for_point(
            &trace,
            &DatapathConfig::default(),
            &SocConfig::default(),
            MemKind::Isolated,
            &inert(),
        )
        .unwrap();
        assert_eq!(b.lo, 0);
        assert!(!b.certified);
    }

    #[test]
    fn more_lanes_never_raise_the_compute_roofline() {
        let trace = dot_trace(32);
        let soc = SocConfig::default();
        let harness = inert();
        let mut prev = u64::MAX;
        for lanes in [1u32, 2, 4, 8] {
            let dp = DatapathConfig {
                lanes,
                partition: lanes,
                ..DatapathConfig::default()
            };
            let b = bounds_for_point(&trace, &dp, &soc, MemKind::Isolated, &harness).unwrap();
            assert!(
                b.compute_roofline <= prev,
                "lanes {lanes}: roofline {} > previous {prev}",
                b.compute_roofline
            );
            prev = b.compute_roofline;
        }
    }

    #[test]
    fn summary_counts_domination() {
        let certified = CycleBounds {
            lo: 100,
            hi: 200,
            certified: true,
            crit_path: 100,
            compute_roofline: 0,
            memory_roofline: 0,
            round_sum: 0,
        };
        let dominated = CycleBounds {
            lo: 300,
            hi: 900,
            certified: true,
            ..certified
        };
        let open = CycleBounds {
            lo: 50,
            hi: u64::MAX,
            certified: false,
            ..certified
        };
        let s = summarize_bounds(&[certified, dominated, open]);
        assert_eq!(s.points, 3);
        assert_eq!(s.certified, 2);
        assert_eq!(s.min_lo, 50);
        assert_eq!(s.max_lo, 300);
        assert_eq!(s.min_certified_hi, 200);
        assert_eq!(s.dominated, 1);
        assert!(s.dominance_diagnostic().is_some());
        assert_eq!(s.summary_diagnostic().code, CODE_BOUNDS_SUMMARY);
        assert_eq!(s.plan_diagnostic().code, CODE_PLAN_BOUNDS);
        assert!(summarize_bounds(&[]).dominance_diagnostic().is_none());
    }

    #[test]
    fn power_floor_is_at_most_simulated_power() {
        let trace = dot_trace(16);
        let dp = DatapathConfig::default();
        let soc = SocConfig::default();
        for kind in [MemKind::Isolated, MemKind::Cache] {
            let b = bounds_for_point(&trace, &dp, &soc, kind, &inert()).unwrap();
            let floor = static_power_floor_mw(&trace, &dp, &soc, kind, &b);
            let r = simulate(&trace, &dp, &soc, &FlowSpec::new(kind)).unwrap();
            let actual = r.energy.avg_power_mw();
            assert!(
                floor <= actual + 1e-9,
                "{kind}: floor {floor} > simulated {actual}"
            );
            assert!(floor > 0.0);
        }
    }
}
