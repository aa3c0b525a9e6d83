//! The unified simulation engine: one [`FlowSpec`] descriptor, one
//! fallible [`simulate`] core.
//!
//! Every way of running an accelerator against an SoC — isolated
//! Aladdin, scratchpad+DMA at any optimization level, the cache+TLB
//! flow; with or without a fault-injection/watchdog harness; on or off
//! the prepared-DDDG sweep fast path — is one call:
//!
//! ```
//! use aladdin_core::{simulate, FlowSpec, MemKind, SocConfig};
//! use aladdin_accel::DatapathConfig;
//! use aladdin_workloads::by_name;
//!
//! let trace = by_name("aes-aes").expect("kernel").run().trace;
//! let dp = DatapathConfig { lanes: 2, partition: 2, ..DatapathConfig::default() };
//! let r = simulate(&trace, &dp, &SocConfig::default(), &FlowSpec::new(MemKind::Cache))
//!     .expect("simulation completes");
//! assert!(r.total_cycles > 0);
//! ```

use aladdin_accel::{
    trace_node_stream, try_schedule_prepared, try_schedule_windowed, CacheEnergyParams,
    DatapathConfig, DatapathMemory, EnergyReport, PowerModel, PreparedDddg, ScheduleResult,
    SchedulerWorkspace, SpadMemory, SpadStats, DEFAULT_WINDOW_NODES,
};
use aladdin_faults::{SimError, SimHarness, Watchdog};
use aladdin_ir::{ArrayInfo, ArrayKind, Diagnostic, Locus, Report, Trace, TraceStats};
use aladdin_mem::{CacheStats, DmaEngine, DmaStats, IntervalSet, MasterId, TlbStats};

use crate::cachemem::CacheClient;
use crate::config::{DmaOptLevel, MemKind, SocConfig};
use crate::phase::PhaseBreakdown;
use crate::source::TraceSource;
use crate::world::{DmaPlan, SocWorld};

/// Everything measured from one simulated accelerator invocation.
///
/// `PartialEq` compares every field bit-exactly (including the f64 energy
/// numbers) — the contract the sweep result cache and the fast-path parity
/// tests rely on.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowResult {
    /// Kernel name.
    pub kernel: String,
    /// Which memory system serviced the datapath.
    pub mem_kind: MemKind,
    /// Datapath configuration the run used.
    pub datapath: DatapathConfig,
    /// Cycle the invocation began (always 0).
    pub start: u64,
    /// Cycle everything (including writeback DMA) finished.
    pub end: u64,
    /// `end - start`.
    pub total_cycles: u64,
    /// The paper's four-phase runtime attribution.
    pub phases: PhaseBreakdown,
    /// Accelerator energy/power roll-up.
    pub energy: EnergyReport,
    /// Cycles with at least one datapath operation in flight.
    pub compute_busy_cycles: u64,
    /// Structural memory rejects seen by the scheduler.
    pub mem_rejects: u64,
    /// Scratchpad statistics (spad-backed flows and private arrays).
    pub spad_stats: Option<SpadStats>,
    /// Cache statistics (cache flow).
    pub cache_stats: Option<CacheStats>,
    /// TLB statistics (cache flow).
    pub tlb_stats: Option<TlbStats>,
    /// DMA engine statistics (DMA flows; in + out combined).
    pub dma_stats: Option<DmaStats>,
    /// Total local SRAM the design provisions (scratchpads and/or cache),
    /// bytes — a Figure 9 Kiviat axis.
    pub local_sram_bytes: u64,
    /// Peak local memory bandwidth in accesses/cycle — the third Kiviat
    /// axis.
    pub local_mem_bandwidth: u32,
    /// Scheduler loop iterations actually executed (idle fast-forwarding
    /// makes this smaller than the simulated cycle count).
    pub sched_stepped_cycles: u64,
    /// Scheduler events (issues + retires) processed — the throughput
    /// denominator `SweepPerf` aggregates.
    pub sched_events: u64,
}

impl FlowResult {
    /// Runtime in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.energy.runtime_s()
    }

    /// Total accelerator energy in joules.
    #[must_use]
    pub fn energy_j(&self) -> f64 {
        self.energy.energy_j()
    }

    /// Average accelerator power in milliwatts.
    #[must_use]
    pub fn power_mw(&self) -> f64 {
        self.energy.avg_power_mw()
    }

    /// Energy-delay product in joule-seconds.
    #[must_use]
    pub fn edp(&self) -> f64 {
        self.energy.edp()
    }
}

/// One simulation, fully described: which flow to run, under which
/// harness, on which prepared graph.
///
/// The two borrowed fields are optional layers: `harness` arms fault
/// injection and the watchdog (`None` runs clean under the default
/// watchdog, bit-identical to a harness with an empty plan), and
/// `prepared` supplies a caller-built [`PreparedDddg`] so sweeps can
/// share one graph per trace across points and workers (`None` prepares
/// a private graph, bit-identical results either way).
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec<'a> {
    /// Which CPU↔accelerator flow to simulate.
    pub kind: MemKind,
    /// Optional fault-injection/watchdog harness.
    pub harness: Option<&'a SimHarness>,
    /// Optional caller-prepared DDDG (the sweep fast path). Only
    /// meaningful for in-memory traces on the scheduler's prepared store;
    /// ignored by the streamed store.
    pub prepared: Option<&'a PreparedDddg>,
    /// Sliding-window size for the scheduler's streamed store. `None`
    /// lets the source decide: in-memory traces use the prepared store,
    /// `.atrc` sources stream with [`DEFAULT_WINDOW_NODES`]. `Some(w)`
    /// forces the streamed store for any source — bit-exact with the
    /// prepared store under the barrier sync model whenever `w` holds the largest
    /// barrier round (see `aladdin_accel::try_schedule_windowed`).
    pub window_nodes: Option<usize>,
}

impl<'a> FlowSpec<'a> {
    /// A clean spec for `kind`: default watchdog, no fault injection, no
    /// shared graph.
    #[must_use]
    pub fn new(kind: MemKind) -> Self {
        FlowSpec {
            kind,
            harness: None,
            prepared: None,
            window_nodes: None,
        }
    }

    /// Schedule through the windowed streaming engine with a window of
    /// `nodes` resident nodes (clamped to at least 1).
    #[must_use]
    pub fn with_window(mut self, nodes: usize) -> Self {
        self.window_nodes = Some(nodes);
        self
    }

    /// Run under `harness` (fault plan + watchdog).
    #[must_use]
    pub fn with_harness(mut self, harness: &'a SimHarness) -> Self {
        self.harness = Some(harness);
        self
    }

    /// Reuse a caller-prepared DDDG (must match the trace passed to
    /// [`simulate`]).
    #[must_use]
    pub fn with_prepared(mut self, prepared: &'a PreparedDddg) -> Self {
        self.prepared = Some(prepared);
        self
    }

    /// Statically validate this spec against `soc`: combinations that can
    /// never complete (a cache flow with zero MSHRs or zero cache ports
    /// would reject every access forever) are reported as `L0253` errors
    /// before any cycle is simulated. `soclint flowspec` runs the same
    /// check.
    #[must_use]
    pub fn preflight(&self, soc: &SocConfig) -> Report {
        let mut r = Report::new();
        if self.kind == MemKind::Cache {
            if soc.cache.mshrs == 0 {
                r.push(
                    Diagnostic::error(
                        "L0253",
                        "cache flow with zero MSHRs can never start a fill; every miss \
                         rejects forever",
                    )
                    .at(Locus::Field("cache.mshrs")),
                );
            }
            if soc.cache.ports == 0 {
                r.push(
                    Diagnostic::error(
                        "L0253",
                        "cache flow with zero cache ports can never accept an access",
                    )
                    .at(Locus::Field("cache.ports")),
                );
            }
        }
        r
    }
}

/// Run one accelerator invocation described by `spec`.
///
/// This is the single simulation core: every other entry point (the
/// `_prepared`/`_source` variants, the sweep runners in `aladdin-dse`) is
/// a thin wrapper over this function and produces bit-identical results.
///
/// # Errors
///
/// Returns [`SimError`] if the spec fails [`FlowSpec::preflight`]
/// (`L0253`), the DMA engine stalls (`L0230`), the scheduler deadlocks
/// (`L0232`), or the watchdog or the SoC world's cycle guard expires
/// (`L0233`).
pub fn simulate(
    trace: &Trace,
    dp: &DatapathConfig,
    soc: &SocConfig,
    spec: &FlowSpec,
) -> Result<FlowResult, SimError> {
    simulate_prepared(trace, dp, soc, spec, &mut SchedulerWorkspace::new())
}

/// [`simulate`] on the sweep fast path: the scheduler reuses `ws`'s
/// buffers (and `spec.prepared`'s graph, if supplied). Bit-identical
/// results to [`simulate`].
///
/// # Errors
///
/// As for [`simulate`].
pub fn simulate_prepared(
    trace: &Trace,
    dp: &DatapathConfig,
    soc: &SocConfig,
    spec: &FlowSpec,
    ws: &mut SchedulerWorkspace,
) -> Result<FlowResult, SimError> {
    simulate_source_prepared(&TraceSource::Memory(trace), dp, soc, spec, ws).map(|r| r.result)
}

/// A [`FlowResult`] plus the streaming-side observations the windowed
/// scheduler reports — what [`simulate_source`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceFlowRun {
    /// The flow result, bit-comparable across trace sources and
    /// scheduling paths.
    pub result: FlowResult,
    /// Peak simultaneously-resident nodes when the scheduler ran on the
    /// streamed store; `None` on the prepared store (which always holds
    /// the whole trace).
    pub peak_resident_nodes: Option<u64>,
}

/// [`simulate`] for any [`TraceSource`]: an in-memory trace runs on the
/// prepared store (unless `spec.window_nodes` forces streaming), an
/// `.atrc` source streams its nodes through the streamed store in
/// O(window) memory.
///
/// # Errors
///
/// As for [`simulate`], plus `SimError::Diag` (`L0280`) if an `.atrc`
/// source turns out to be truncated or corrupt mid-stream.
pub fn simulate_source(
    source: &TraceSource,
    dp: &DatapathConfig,
    soc: &SocConfig,
    spec: &FlowSpec,
) -> Result<SourceFlowRun, SimError> {
    simulate_source_prepared(source, dp, soc, spec, &mut SchedulerWorkspace::new())
}

/// [`simulate_source`] with caller-supplied scheduler buffers — the sweep
/// fast path. Bit-identical results to [`simulate_source`].
///
/// # Errors
///
/// As for [`simulate_source`].
pub fn simulate_source_prepared(
    source: &TraceSource,
    dp: &DatapathConfig,
    soc: &SocConfig,
    spec: &FlowSpec,
    ws: &mut SchedulerWorkspace,
) -> Result<SourceFlowRun, SimError> {
    let pre = spec.preflight(soc);
    if pre.has_errors() {
        return Err(report_error(pre));
    }
    let default_harness;
    let harness = match spec.harness {
        Some(h) => h,
        None => {
            default_harness = SimHarness::default();
            &default_harness
        }
    };
    let sched = SchedSpec {
        prep: spec.prepared,
        window: spec.window_nodes,
    };
    match spec.kind {
        MemKind::Isolated => sim_isolated(source, dp, soc, &sched, ws, harness),
        MemKind::Dma(opt) => sim_dma(source, dp, soc, opt, &sched, ws, harness),
        MemKind::Cache => sim_cache(source, dp, soc, false, &sched, ws, harness),
    }
}

/// How a flow should drive the scheduler: an optional shared prepared
/// graph (prepared store) and an optional forced window (streamed
/// store).
#[derive(Default)]
pub(crate) struct SchedSpec<'a> {
    prep: Option<&'a PreparedDddg>,
    window: Option<usize>,
}

/// One scheduling run's outputs, source-independent: the schedule, the
/// trace statistics (materialized traces compute them in memory, streamed
/// traces accumulate them at admission), and the streaming path's
/// resident-node peak.
pub(crate) struct SchedRun {
    pub(crate) sched: ScheduleResult,
    stats: TraceStats,
    peak_resident_nodes: Option<u64>,
}

/// Run the scheduler on the store appropriate for `source`, with `ws`'s
/// buffers either way: prepared (`try_schedule_prepared`) for in-memory
/// traces without a forced window, streamed (`try_schedule_windowed`)
/// otherwise.
pub(crate) fn run_schedule(
    source: &TraceSource,
    dp: &DatapathConfig,
    spec: &SchedSpec,
    ws: &mut SchedulerWorkspace,
    mem: &mut dyn DatapathMemory,
    start: u64,
    watchdog: &Watchdog,
) -> Result<SchedRun, SimError> {
    let out = match (source, spec.window) {
        (TraceSource::Memory(trace), None) => {
            let built;
            let prep = match spec.prep {
                Some(p) => p,
                None => {
                    built = PreparedDddg::new(trace, dp);
                    &built
                }
            };
            let sched = try_schedule_prepared(trace, dp, prep, ws, mem, start, watchdog)?;
            return Ok(SchedRun {
                sched,
                stats: trace.stats(),
                peak_resident_nodes: None,
            });
        }
        (TraceSource::Memory(trace), Some(w)) => {
            try_schedule_windowed(trace_node_stream(trace), dp, ws, mem, start, watchdog, w)?
        }
        (TraceSource::Atrc(atrc), w) => {
            let window = w.unwrap_or(DEFAULT_WINDOW_NODES);
            try_schedule_windowed(atrc.nodes(), dp, ws, mem, start, watchdog, window)?
        }
    };
    Ok(SchedRun {
        sched: out.result,
        stats: out.stats,
        peak_resident_nodes: Some(out.peak_resident_nodes),
    })
}

/// First error of `report` as a [`SimError`].
pub(crate) fn report_error(report: Report) -> SimError {
    let diag = report
        .diagnostics()
        .iter()
        .find(|d| d.severity == aladdin_ir::Severity::Error)
        .cloned()
        .unwrap_or_else(|| Diagnostic::error("L0253", "flow spec failed preflight"));
    SimError::Diag(diag)
}

fn total_array_bytes(arrays: &[ArrayInfo]) -> u64 {
    arrays.iter().map(|a| a.size_bytes()).sum()
}

fn internal_array_bytes(arrays: &[ArrayInfo]) -> u64 {
    arrays
        .iter()
        .filter(|a| a.kind == ArrayKind::Internal)
        .map(|a| a.size_bytes())
        .sum()
}

/// Scratchpad energy: datapath accesses plus (for DMA flows) the words the
/// DMA engine moved in and out of the banks.
fn spad_energy_pj(
    pm: &PowerModel,
    spad: &SpadStats,
    total_bytes: u64,
    partition: u32,
    dma_in_bytes: u64,
    dma_out_bytes: u64,
) -> f64 {
    let bank = (total_bytes / u64::from(partition.max(1))).max(64);
    let reads = spad.reads + dma_out_bytes / 8;
    let writes = spad.writes + dma_in_bytes / 8;
    reads as f64 * pm.sram_read_pj(bank) + writes as f64 * pm.sram_write_pj(bank)
}

/// What a flow's memory side adds to its schedule: the local-memory
/// energy and leakage terms, component statistics and the Kiviat
/// provisioning axes — the inputs of the one [`FlowResult`] roll-up.
struct LocalMemory {
    kind: MemKind,
    energy_pj: f64,
    /// Leakage terms added, in order, to the datapath's.
    leakage_mw: Vec<f64>,
    spad: SpadStats,
    cache: Option<(CacheStats, TlbStats)>,
    dma: Option<DmaStats>,
    sram_bytes: u64,
    bandwidth: u32,
}

/// Roll one flow's schedule and memory side up into its [`FlowResult`].
/// `end` is the cycle everything finished, which is also the runtime:
/// every flow's invocation begins at cycle 0.
fn roll_up(
    source: &TraceSource,
    dp: &DatapathConfig,
    soc: &SocConfig,
    run: SchedRun,
    end: u64,
    phases: PhaseBreakdown,
    local: LocalMemory,
) -> SourceFlowRun {
    let pm = PowerModel::default_40nm();
    let sched = run.sched;
    let energy = EnergyReport {
        datapath_pj: pm.datapath_energy_pj(&run.stats),
        local_mem_pj: local.energy_pj,
        leakage_mw: local
            .leakage_mw
            .iter()
            .fold(pm.datapath_leakage_mw(dp.lanes), |sum, term| sum + term),
        runtime_cycles: end,
        clock: soc.clock,
    };
    SourceFlowRun {
        result: FlowResult {
            kernel: source.name().to_owned(),
            mem_kind: local.kind,
            datapath: *dp,
            start: 0,
            end,
            total_cycles: end,
            phases,
            energy,
            compute_busy_cycles: sched.busy.total(),
            mem_rejects: sched.mem_rejects,
            spad_stats: Some(local.spad),
            cache_stats: local.cache.map(|(c, _)| c),
            tlb_stats: local.cache.map(|(_, t)| t),
            dma_stats: local.dma,
            local_sram_bytes: local.sram_bytes,
            local_mem_bandwidth: local.bandwidth,
            sched_stepped_cycles: sched.stepped_cycles,
            sched_events: sched.events,
        },
        peak_resident_nodes: run.peak_resident_nodes,
    }
}

/// The isolated flow: scratchpads pre-loaded, compute only.
fn sim_isolated(
    source: &TraceSource,
    dp: &DatapathConfig,
    soc: &SocConfig,
    sspec: &SchedSpec,
    ws: &mut SchedulerWorkspace,
    harness: &SimHarness,
) -> Result<SourceFlowRun, SimError> {
    let mut spad = SpadMemory::from_arrays(source.arrays(), dp);
    let run = run_schedule(source, dp, sspec, ws, &mut spad, 0, &harness.watchdog)?;
    let pm = PowerModel::default_40nm();
    let total_bytes = total_array_bytes(source.arrays());
    let end = run.sched.end;
    let phases = PhaseBreakdown::classify(
        &IntervalSet::new(),
        &IntervalSet::new(),
        &run.sched.busy,
        0,
        end,
    );
    let local = LocalMemory {
        kind: MemKind::Isolated,
        energy_pj: spad_energy_pj(&pm, &spad.stats(), total_bytes, dp.partition, 0, 0),
        leakage_mw: vec![pm.spad_leakage_mw(total_bytes, dp.ports_per_bank)],
        spad: spad.stats(),
        cache: None,
        dma: None,
        sram_bytes: total_bytes,
        bandwidth: dp.local_mem_bandwidth(),
    };
    Ok(roll_up(source, dp, soc, run, end, phases, local))
}

/// The scratchpad/DMA flow at the given optimization level: invoke →
/// flush/invalidate → DMA in → compute → DMA out (with overlap as the
/// optimizations allow), every transfer stepping one lockstep SoC world.
fn sim_dma(
    source: &TraceSource,
    dp: &DatapathConfig,
    soc: &SocConfig,
    opt: DmaOptLevel,
    sspec: &SchedSpec,
    ws: &mut SchedulerWorkspace,
    harness: &SimHarness,
) -> Result<SourceFlowRun, SimError> {
    let t0 = soc.invoke_cycles;
    let plan = DmaPlan::new(source, soc, opt, t0, &harness.plan);
    let mut spad = SpadMemory::from_arrays(source.arrays(), dp);
    if opt.triggered() {
        spad.enable_ready_bits();
        spad.set_ready_granularity(soc.ready_bits_granule);
    }
    let mut world = SocWorld::new(soc, spad).map_err(SimError::Diag)?;
    world.set_faults(&harness.plan);
    world.dma.start(plan.input_engine(MasterId::DMA));

    let (run, compute_end) = if opt.triggered() {
        // DMA-triggered computation: the datapath runs against the world,
        // whose DMA arrivals set the scratchpad's full/empty bits.
        let run = run_schedule(source, dp, sspec, ws, &mut world, t0, &harness.watchdog);
        let run = world.settle(run)?;
        // The transfer may outlive the computation (e.g. not every input
        // byte is read): drain it before writeback DMA starts.
        let dma_done = world.drain_dma(run.sched.end)?;
        let compute_end = run.sched.end.max(dma_done);
        (run, compute_end)
    } else {
        // Baseline / pipelined: compute begins only when all data is in —
        // with no input arrays at all, right after coherence — and runs
        // on the scratchpads alone.
        let data_in = if plan.has_inputs() {
            world.drain_dma(t0)?
        } else {
            plan.flush.end().max(t0)
        };
        let run = run_schedule(
            source,
            dp,
            sspec,
            ws,
            &mut world.front,
            data_in,
            &harness.watchdog,
        );
        let run = world.settle(run)?;
        let end = run.sched.end;
        (run, end)
    };
    // Writeback DMA of the output arrays.
    let dma_in = world.dma.take_done(MasterId::DMA);
    world
        .dma
        .start(plan.writeback_engine(compute_end, MasterId::DMA));
    let end = world.drain_dma(compute_end)?;
    let dma_out = world.dma.take_done(MasterId::DMA);
    let end = end + soc.completion.map_or(0, |c| c.observation_lag(end));

    let (in_busy, in_stats) = engine_record(dma_in);
    let (out_busy, out_stats) = engine_record(dma_out);
    let phases =
        PhaseBreakdown::for_dma_run(plan.flush.busy(), &in_busy, &out_busy, &run.sched.busy, end);
    let pm = PowerModel::default_40nm();
    let total_bytes = total_array_bytes(source.arrays());
    let local = LocalMemory {
        kind: MemKind::Dma(opt),
        energy_pj: spad_energy_pj(
            &pm,
            &world.front.stats(),
            total_bytes,
            dp.partition,
            source.input_bytes(),
            source.output_bytes(),
        ),
        leakage_mw: vec![pm.spad_leakage_mw(total_bytes, dp.ports_per_bank)],
        spad: world.front.stats(),
        cache: None,
        dma: Some(DmaStats {
            descriptors: in_stats.descriptors + out_stats.descriptors,
            bursts: in_stats.bursts + out_stats.bursts,
            bytes: in_stats.bytes + out_stats.bytes,
        }),
        sram_bytes: total_bytes,
        bandwidth: dp.local_mem_bandwidth(),
    };
    Ok(roll_up(source, dp, soc, run, end, phases, local))
}

/// A finished DMA engine's busy intervals and statistics.
fn engine_record(engine: Option<(u64, DmaEngine)>) -> (IntervalSet, DmaStats) {
    engine
        .map(|(_, e)| (e.busy().clone(), e.stats()))
        .unwrap_or_default()
}

/// The cache-based flow, optionally with ideal (single-cycle) memory —
/// the `ideal` variant exists for the Figure 7 time decomposition.
fn sim_cache(
    source: &TraceSource,
    dp: &DatapathConfig,
    soc: &SocConfig,
    ideal: bool,
    sspec: &SchedSpec,
    ws: &mut SchedulerWorkspace,
    harness: &SimHarness,
) -> Result<SourceFlowRun, SimError> {
    let t0 = soc.invoke_cycles;
    let mut client = CacheClient::from_arrays(source.arrays(), dp, soc, MasterId::ACCEL_CACHE);
    client.set_ideal(ideal);
    client.set_faults(&harness.plan);
    let mut world = SocWorld::new(soc, client).map_err(SimError::Diag)?;
    world.set_faults(&harness.plan);
    let run = run_schedule(source, dp, sspec, ws, &mut world, t0, &harness.watchdog);
    let run = world.settle(run)?;
    let end = run.sched.end
        + soc
            .completion
            .map_or(0, |c| c.observation_lag(run.sched.end));

    let pm = PowerModel::default_40nm();
    let cs = world.front.cache.stats();
    let ts = world.front.tlb.stats();
    let internal_bytes = internal_array_bytes(source.arrays());
    let cache_params = CacheEnergyParams {
        size_bytes: soc.cache.size_bytes,
        line_bytes: soc.cache.line_bytes,
        assoc: soc.cache.assoc,
        ports: soc.cache.ports,
        mshrs: soc.cache.mshrs,
    };
    let cache_dyn = cs.accesses() as f64 * pm.cache_access_pj(cache_params)
        + (cs.misses + cs.prefetches) as f64 * pm.cache_fill_pj(cache_params)
        + (ts.hits + ts.misses) as f64 * pm.tlb_access_pj();
    let spad_dyn = spad_energy_pj(
        &pm,
        &world.front.spad.stats(),
        internal_bytes.max(64),
        dp.partition,
        0,
        0,
    );
    let phases = PhaseBreakdown::classify(
        &IntervalSet::new(),
        &IntervalSet::new(),
        &run.sched.busy,
        0,
        end,
    );
    let local = LocalMemory {
        kind: MemKind::Cache,
        energy_pj: cache_dyn + spad_dyn,
        leakage_mw: vec![
            pm.cache_leakage_mw(cache_params),
            pm.spad_leakage_mw(internal_bytes, dp.ports_per_bank),
        ],
        spad: world.front.spad.stats(),
        cache: Some((cs, ts)),
        dma: None,
        sram_bytes: soc.cache.size_bytes + internal_bytes,
        bandwidth: soc.cache.ports,
    };
    Ok(roll_up(source, dp, soc, run, end, phases, local))
}

/// The ideal/real cache runs the Figure 7 decomposition needs, without
/// exposing `ideal` on the public [`FlowSpec`].
///
/// # Errors
///
/// As for [`simulate`] with a cache [`FlowSpec`], preflight included.
pub(crate) fn simulate_cache_ideal(
    trace: &Trace,
    dp: &DatapathConfig,
    soc: &SocConfig,
    ideal: bool,
) -> Result<FlowResult, SimError> {
    let pre = FlowSpec::new(MemKind::Cache).preflight(soc);
    if pre.has_errors() {
        return Err(report_error(pre));
    }
    sim_cache(
        &TraceSource::Memory(trace),
        dp,
        soc,
        ideal,
        &SchedSpec::default(),
        &mut SchedulerWorkspace::new(),
        &SimHarness::default(),
    )
    .map(|r| r.result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aladdin_workloads::by_name;

    fn trace_of(name: &str) -> Trace {
        by_name(name).expect("kernel").run().trace
    }

    fn dp(lanes: u32, partition: u32) -> DatapathConfig {
        DatapathConfig {
            lanes,
            partition,
            ..DatapathConfig::default()
        }
    }

    #[test]
    fn stalled_dma_is_a_typed_diagnostic() {
        let trace = trace_of("stencil-stencil2d");
        let mut soc = SocConfig::default();
        soc.dma.max_outstanding = 0; // the engine can never post a burst
        let err = simulate(
            &trace,
            &dp(2, 2),
            &soc,
            &FlowSpec::new(MemKind::Dma(DmaOptLevel::Baseline)),
        )
        .unwrap_err();
        assert_eq!(err.code(), "L0230", "{err}");
        // The diagnostic carries the DMA engine's forensic state.
        assert!(err.to_string().contains("dma:"), "{err}");
    }

    #[test]
    fn masters_the_topology_cannot_host_are_typed_diagnostics() {
        // A 2x1 mesh hosts one master, the DMA engine: neither the cache
        // client (master 1) nor the traffic generator (master 3) fits.
        let trace = trace_of("aes-aes");
        let mut soc = SocConfig::default();
        soc.topology.topology = aladdin_mem::Topology::MeshNoc {
            cols: 2,
            rows: 1,
            hop_cycles: 1,
            link_bits: 32,
        };
        let cache = simulate(&trace, &dp(2, 2), &soc, &FlowSpec::new(MemKind::Cache));
        let err = cache.unwrap_err();
        assert_eq!(err.code(), aladdin_mem::CODE_TOPOLOGY_CAPACITY, "{err}");
        soc.traffic = Some(crate::TrafficConfig {
            period: 100,
            bytes: 64,
        });
        let dma = FlowSpec::new(MemKind::Dma(DmaOptLevel::Baseline));
        let err = simulate(&trace, &dp(2, 2), &soc, &dma).unwrap_err();
        assert_eq!(err.code(), aladdin_mem::CODE_TOPOLOGY_CAPACITY, "{err}");
    }

    #[test]
    fn harness_and_prepared_layers_are_invisible() {
        let trace = trace_of("fft-transpose");
        let soc = SocConfig::default();
        let d = dp(2, 2);
        let h = SimHarness::default();
        let prep = PreparedDddg::new(&trace, &d);
        for kind in [
            MemKind::Isolated,
            MemKind::Dma(DmaOptLevel::Full),
            MemKind::Cache,
        ] {
            let plain = simulate(&trace, &d, &soc, &FlowSpec::new(kind)).unwrap();
            let layered = simulate_prepared(
                &trace,
                &d,
                &soc,
                &FlowSpec::new(kind).with_harness(&h).with_prepared(&prep),
                &mut SchedulerWorkspace::new(),
            )
            .unwrap();
            assert_eq!(plain, layered, "{kind}: layers must be bit-invisible");
        }
    }

    #[test]
    fn faulted_runs_are_deterministic_and_no_faster() {
        let trace = trace_of("fft-transpose");
        let soc = SocConfig::default();
        let d = dp(2, 2);
        let h = SimHarness::with_seed(7);
        let spec = FlowSpec::new(MemKind::Dma(DmaOptLevel::Full)).with_harness(&h);
        let a = simulate(&trace, &d, &soc, &spec).unwrap();
        let b = simulate(&trace, &d, &soc, &spec).unwrap();
        assert_eq!(a, b, "same seed must reproduce bit-exactly");
        let clean = simulate(
            &trace,
            &d,
            &soc,
            &FlowSpec::new(MemKind::Dma(DmaOptLevel::Full)),
        )
        .unwrap();
        assert!(
            a.total_cycles >= clean.total_cycles,
            "faults cannot speed the run up: {} vs {}",
            a.total_cycles,
            clean.total_cycles
        );
        let cache_spec = FlowSpec::new(MemKind::Cache).with_harness(&h);
        let ca = simulate(&trace, &d, &soc, &cache_spec).unwrap();
        let cb = simulate(&trace, &d, &soc, &cache_spec).unwrap();
        assert_eq!(ca, cb);
        let cache_clean = simulate(&trace, &d, &soc, &FlowSpec::new(MemKind::Cache)).unwrap();
        assert!(ca.total_cycles >= cache_clean.total_cycles);
    }

    fn run(trace: &Trace, d: &DatapathConfig, soc: &SocConfig, kind: MemKind) -> FlowResult {
        simulate(trace, d, soc, &FlowSpec::new(kind)).expect("flow completes")
    }

    #[test]
    fn isolated_is_fastest() {
        let trace = trace_of("stencil-stencil2d");
        let soc = SocConfig::default();
        let iso = run(&trace, &dp(4, 4), &soc, MemKind::Isolated);
        let dma = run(&trace, &dp(4, 4), &soc, MemKind::Dma(DmaOptLevel::Baseline));
        assert!(iso.total_cycles < dma.total_cycles);
        assert_eq!(iso.phases.flush_only, 0);
        assert!(dma.phases.flush_only > 0);
    }

    #[test]
    fn dma_optimizations_monotonically_help() {
        let trace = trace_of("stencil-stencil2d");
        let soc = SocConfig::default();
        let base = run(&trace, &dp(4, 4), &soc, MemKind::Dma(DmaOptLevel::Baseline));
        let pipe = run(
            &trace,
            &dp(4, 4),
            &soc,
            MemKind::Dma(DmaOptLevel::Pipelined),
        );
        let full = run(&trace, &dp(4, 4), &soc, MemKind::Dma(DmaOptLevel::Full));
        assert!(
            pipe.total_cycles < base.total_cycles,
            "pipelined {} !< baseline {}",
            pipe.total_cycles,
            base.total_cycles
        );
        assert!(
            full.total_cycles < pipe.total_cycles,
            "triggered {} !< pipelined {}",
            full.total_cycles,
            pipe.total_cycles
        );
        // Pipelining hides flush-only time almost entirely.
        assert!(pipe.phases.flush_only * 10 < base.phases.flush_only.max(1) * 12);
        // Triggered compute overlaps compute with DMA.
        assert!(full.phases.compute_dma > 0);
    }

    #[test]
    fn phase_totals_match_runtime() {
        let trace = trace_of("gemm-ncubed");
        let soc = SocConfig::default();
        for opt in DmaOptLevel::ALL {
            let r = run(&trace, &dp(2, 2), &soc, MemKind::Dma(opt));
            let p = r.phases;
            assert_eq!(
                p.flush_only + p.dma_flush + p.compute_dma + p.compute_only + p.other,
                p.total,
                "{opt}"
            );
            assert_eq!(p.total, r.total_cycles);
        }
    }

    #[test]
    fn cache_flow_runs_every_kernel_cheaply() {
        // Smoke test on the two smallest kernels.
        let soc = SocConfig::default();
        for name in ["aes-aes", "fft-transpose"] {
            let trace = trace_of(name);
            let r = run(&trace, &dp(2, 2), &soc, MemKind::Cache);
            assert!(r.total_cycles > 0, "{name}");
            assert!(r.energy_j() > 0.0, "{name}");
            assert!(r.cache_stats.unwrap().accesses() > 0, "{name}");
        }
    }

    #[test]
    fn spmv_prefers_cache_over_dma() {
        // The paper's key qualitative result for irregular kernels.
        let trace = trace_of("spmv-crs");
        let soc = SocConfig::default();
        let d = dp(4, 4);
        let dma = run(&trace, &d, &soc, MemKind::Dma(DmaOptLevel::Full));
        let cache = run(&trace, &d, &soc, MemKind::Cache);
        assert!(
            cache.total_cycles < dma.total_cycles,
            "cache {} should beat DMA {} on spmv",
            cache.total_cycles,
            dma.total_cycles
        );
    }

    #[test]
    fn aes_prefers_dma_over_cache() {
        // aes moves almost no data, so runtimes are close — but the cache
        // design pays tag/TLB energy and leakage for nothing, losing on
        // EDP (the paper's Figure 8 preference metric).
        let trace = trace_of("aes-aes");
        let soc = SocConfig::default();
        let d = dp(4, 4);
        let dma = run(&trace, &d, &soc, MemKind::Dma(DmaOptLevel::Full));
        let cache = run(&trace, &d, &soc, MemKind::Cache);
        assert!(
            dma.edp() < cache.edp(),
            "DMA EDP {:.3e} should beat cache {:.3e} on aes",
            dma.edp(),
            cache.edp()
        );
        assert!(
            dma.power_mw() < cache.power_mw(),
            "DMA power {:.2} should beat cache {:.2} on aes",
            dma.power_mw(),
            cache.power_mw()
        );
    }

    #[test]
    fn energy_and_edp_are_positive_and_consistent() {
        let trace = trace_of("md-knn");
        let soc = SocConfig::default();
        let r = run(&trace, &dp(4, 4), &soc, MemKind::Dma(DmaOptLevel::Full));
        assert!(r.energy_j() > 0.0);
        assert!(r.power_mw() > 0.0);
        let edp = r.edp();
        assert!((edp - r.energy_j() * r.seconds()).abs() < 1e-18);
    }

    #[test]
    fn deterministic_across_runs() {
        let trace = trace_of("stencil-stencil3d");
        let soc = SocConfig::default();
        let a = run(&trace, &dp(4, 4), &soc, MemKind::Dma(DmaOptLevel::Full));
        let b = run(&trace, &dp(4, 4), &soc, MemKind::Dma(DmaOptLevel::Full));
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.phases, b.phases);
    }

    #[test]
    fn zero_mshr_cache_spec_fails_preflight() {
        let trace = trace_of("aes-aes");
        let mut soc = SocConfig::default();
        soc.cache.mshrs = 0;
        let err = simulate(&trace, &dp(2, 2), &soc, &FlowSpec::new(MemKind::Cache)).unwrap_err();
        assert_eq!(err.code(), "L0253", "{err}");
        // The same config is fine for flows that never touch the cache.
        let ok = simulate(&trace, &dp(2, 2), &soc, &FlowSpec::new(MemKind::Isolated));
        assert!(ok.is_ok());
    }
}
