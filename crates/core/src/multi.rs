//! Multi-accelerator SoC simulation.
//!
//! The paper's Figure 3 SoC hosts several accelerators (`ACCEL0`,
//! `ACCEL1`, …) behind one system bus, and Section IV-A argues that
//! coarse-grained DMA suffers disproportionately when that bus is shared.
//! This module simulates N accelerators running concurrently — each
//! described by the same [`MemKind`] vocabulary as the single-accelerator
//! [`simulate`](crate::simulate) engine — arbitrating for one bus/DRAM:
//!
//! * **DMA jobs** walk the invoke → flush → DMA-in → compute → DMA-out
//!   pipeline with their own DMA engine. Compute executes from private
//!   scratchpads (no bus traffic), so its duration comes from a
//!   standalone schedule; the co-simulated part is exactly the
//!   shared-resource part. Under [`DmaOptLevel::Full`] the compute/DMA
//!   overlap is approximated analytically (compute starts with the first
//!   delivered chunk) — the bus traffic, which is what contention is
//!   about, is identical.
//! * **One cache job** may join the mix (the heterogeneous ACCEL0/ACCEL1
//!   pairing): its datapath is co-scheduled cycle-by-cycle, with every
//!   fill arbitrating against the DMA engines on the shared bus.
//! * **Isolated jobs** never touch the bus; they ride along for
//!   apples-to-apples timelines.
//!
//! Runs are guarded by the harness [`Watchdog`](aladdin_faults::Watchdog)
//! and armed with its [`FaultPlan`](aladdin_faults::FaultPlan); degenerate
//! configurations come back as typed [`SimError`]s (`L0250`–`L0253`,
//! `L0230`, `L0233`) instead of panics.

use aladdin_accel::{
    try_schedule_prepared, DatapathConfig, DatapathMemory, IssueResult, PreparedDddg,
    SchedulerWorkspace, SpadMemory,
};
use aladdin_faults::{SimError, SimHarness};
use aladdin_ir::{Diagnostic, Locus, Report, Trace};
use aladdin_mem::{
    build_interconnect, BusFaults, DmaConfig, DmaDirection, DmaEngine, DmaTransfer, FlushSchedule,
    Interconnect, IntervalSet, MasterId, TrafficGenerator, CODE_TOPOLOGY_CAPACITY,
};

use crate::cachemem::CacheClient;
use crate::config::{DmaOptLevel, MemKind, SocConfig};
use crate::engine::{report_error, FlowSpec};
use crate::phase::PhaseBreakdown;

/// One accelerator's workload in a multi-accelerator simulation.
#[derive(Debug, Clone)]
pub struct AcceleratorJob {
    /// The kernel trace this accelerator runs.
    pub trace: Trace,
    /// Its datapath configuration.
    pub datapath: DatapathConfig,
    /// Which memory system this accelerator uses — the same vocabulary as
    /// the single-accelerator [`FlowSpec`].
    pub kind: MemKind,
    /// Cycle at which the host invokes this accelerator.
    pub launch_at: u64,
    /// Explicit bus-client id; `None` registers the job-index master via
    /// [`MasterId::job`].
    pub master: Option<MasterId>,
}

impl AcceleratorJob {
    /// A job of any [`MemKind`], launched at `launch_at`.
    #[must_use]
    pub fn new(trace: Trace, datapath: DatapathConfig, kind: MemKind, launch_at: u64) -> Self {
        AcceleratorJob {
            trace,
            datapath,
            kind,
            launch_at,
            master: None,
        }
    }

    /// A scratchpad/DMA job at optimization level `opt`.
    #[must_use]
    pub fn dma(trace: Trace, datapath: DatapathConfig, opt: DmaOptLevel, launch_at: u64) -> Self {
        AcceleratorJob::new(trace, datapath, MemKind::Dma(opt), launch_at)
    }

    /// A cache-based job (TLB + cache fills over the shared bus).
    #[must_use]
    pub fn cache(trace: Trace, datapath: DatapathConfig, launch_at: u64) -> Self {
        AcceleratorJob::new(trace, datapath, MemKind::Cache, launch_at)
    }

    /// An isolated job (private scratchpads, no bus traffic).
    #[must_use]
    pub fn isolated(trace: Trace, datapath: DatapathConfig, launch_at: u64) -> Self {
        AcceleratorJob::new(trace, datapath, MemKind::Isolated, launch_at)
    }

    /// Pin this job to an explicit bus client id.
    #[must_use]
    pub fn with_master(mut self, master: MasterId) -> Self {
        self.master = Some(master);
        self
    }

    fn resolved_master(&self, index: usize) -> Option<MasterId> {
        self.master.or_else(|| MasterId::job(index))
    }
}

/// Timeline of one accelerator in a multi-accelerator run.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorTimeline {
    /// Kernel name.
    pub kernel: String,
    /// Which memory system the job used.
    pub kind: MemKind,
    /// Invocation cycle.
    pub launched: u64,
    /// Cycle the input DMA finished (DMA jobs; launch+invoke otherwise).
    pub data_in_done: u64,
    /// Cycle the compute phase finished.
    pub compute_done: u64,
    /// Cycle the writeback DMA finished (= completion).
    pub end: u64,
    /// The paper's four-phase attribution over `[0, end)` (pre-launch
    /// cycles count as `other`).
    pub phases: PhaseBreakdown,
    /// Bytes this job moved over the shared bus.
    pub bus_bytes: u64,
}

impl AcceleratorTimeline {
    /// Total latency from launch to completion.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.end - self.launched
    }
}

/// Result of a multi-accelerator simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSocResult {
    /// Per-accelerator timelines, in job order.
    pub accelerators: Vec<AcceleratorTimeline>,
    /// Cycle everything finished.
    pub end: u64,
    /// Total bytes moved over the shared bus.
    pub bus_bytes: u64,
    /// Bus data-wire utilization over the whole run.
    pub bus_utilization: f64,
}

/// Statically validate a multi-accelerator job set against `soc`: empty
/// sets (`L0250`), more jobs than the configured interconnect topology
/// can carry or out-of-range client ids (`L0311`), duplicate client ids
/// (`L0251`), more than one cache client (`L0252`), and per-kind
/// [`FlowSpec::preflight`] findings such as a cache flow with zero MSHRs
/// (`L0253`). Capacity comes from [`TopologyConfig::capacity`]
/// (`aladdin_mem::TopologyConfig::capacity`) — 256 ids on bus-like
/// topologies, grid size minus the memory controller on a mesh.
/// `soclint flowspec` runs the same check.
#[must_use]
pub fn validate_multi_jobs(jobs: &[AcceleratorJob], soc: &SocConfig) -> Report {
    let mut r = Report::new();
    if jobs.is_empty() {
        r.push(Diagnostic::error("L0250", "need at least one job"));
        return r;
    }
    let capacity = soc.topology.capacity();
    if jobs.len() > capacity {
        r.push(Diagnostic::error(
            CODE_TOPOLOGY_CAPACITY,
            format!(
                "{} jobs, but a {} interconnect carries at most {} masters",
                jobs.len(),
                soc.topology.topology.kind_name(),
                capacity
            ),
        ));
    }
    let mut seen: Vec<MasterId> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        match job.resolved_master(i) {
            // Exhaustion of the 256-wide id space is already reported above.
            None => {}
            Some(m) if (m.0 as usize) >= capacity => {
                r.push(
                    Diagnostic::error(
                        CODE_TOPOLOGY_CAPACITY,
                        format!(
                            "bus client id {} out of range (a {} interconnect carries at most \
                             {} masters)",
                            m.0,
                            soc.topology.topology.kind_name(),
                            capacity
                        ),
                    )
                    .at(Locus::Point(i)),
                );
            }
            Some(m) => {
                if seen.contains(&m) {
                    r.push(
                        Diagnostic::error("L0251", format!("duplicate bus client id {}", m.0))
                            .at(Locus::Point(i)),
                    );
                }
                seen.push(m);
                if soc.traffic.is_some() && m == MasterId::TRAFFIC {
                    r.push(
                        Diagnostic::warning(
                            "L0251",
                            "job shares a bus queue with the background traffic generator",
                        )
                        .at(Locus::Point(i)),
                    );
                }
            }
        }
        for d in FlowSpec::new(job.kind).preflight(soc).diagnostics() {
            r.push(d.clone().at(Locus::Point(i)));
        }
    }
    let caches = jobs.iter().filter(|j| j.kind == MemKind::Cache).count();
    if caches > 1 {
        r.push(Diagnostic::error(
            "L0252",
            format!(
                "{caches} cache-based jobs, but the engine co-schedules at most one cache \
                 client per run"
            ),
        ));
    }
    r
}

enum Stage {
    DmaIn(Box<DmaEngine>),
    Compute { until: u64 },
    DmaOut(Box<DmaEngine>),
    Done,
}

struct JobState {
    index: usize,
    stage: Stage,
    flush_end: u64,
    first_data_at: u64,
    compute_cycles: u64,
    overlap: bool,
    dma_cfg: DmaConfig,
    out_transfers: Vec<DmaTransfer>,
    master: MasterId,
    flush_busy: IntervalSet,
    in_busy: IntervalSet,
    out_busy: IntervalSet,
    compute_busy: IntervalSet,
    timeline: AcceleratorTimeline,
}

impl JobState {
    fn engine_mut(&mut self) -> Option<&mut DmaEngine> {
        match &mut self.stage {
            Stage::DmaIn(e) | Stage::DmaOut(e) => Some(e),
            _ => None,
        }
    }
}

fn interval(start: u64, end: u64) -> IntervalSet {
    if end > start {
        [(start, end)].into_iter().collect()
    } else {
        IntervalSet::new()
    }
}

fn inconsistent_completion() -> SimError {
    SimError::Diag(Diagnostic::error(
        "L0231",
        "DMA engine reported done without a completion time",
    ))
}

/// The shared-bus world every non-cache job lives in: DMA engines,
/// background traffic, the bus itself, and the stage machines. One `step`
/// advances everything by one cycle; the cache job's scheduler (when
/// present) drives `pump_to` from inside its `end_cycle`.
struct DmaWorld {
    bus: Box<dyn Interconnect>,
    traffic: Option<TrafficGenerator>,
    states: Vec<JobState>,
    cache_master: Option<MasterId>,
    cache_events: Vec<(u64, u64)>,
    next_cycle: u64,
    idle_streak: u64,
    last_bytes: u64,
    limit: u64,
    total_jobs: usize,
    error: Option<SimError>,
}

/// Consecutive idle-bus cycles with a DMA stage pending before the run is
/// declared stalled — the same window as the single-accelerator flow's
/// `drive_dma_to_completion`.
const DMA_STALL_WINDOW: u64 = 2_000_000;

impl DmaWorld {
    fn all_done(&self) -> bool {
        self.states.iter().all(|s| matches!(s.stage, Stage::Done))
    }

    fn done_count(&self) -> usize {
        self.states
            .iter()
            .filter(|s| matches!(s.stage, Stage::Done))
            .count()
    }

    fn pump_to(&mut self, cycle: u64) {
        while self.next_cycle <= cycle && self.error.is_none() {
            let c = self.next_cycle;
            self.step(c);
            self.next_cycle += 1;
        }
    }

    fn step(&mut self, cycle: u64) {
        if self.error.is_some() {
            return;
        }
        if cycle >= self.limit {
            self.error = Some(SimError::WatchdogExpired {
                limit: self.limit,
                cycle,
                completed: self.done_count(),
                total: self.total_jobs,
                notes: vec!["multi-accelerator engine cycle guard".to_owned()],
            });
            return;
        }
        // 1. Advance every active DMA engine, the traffic, and the bus.
        for st in &mut self.states {
            if let Some(engine) = st.engine_mut() {
                engine.tick(cycle, self.bus.as_mut());
            }
        }
        if let Some(t) = self.traffic.as_mut() {
            t.tick(cycle, self.bus.as_mut());
        }
        self.bus.tick(cycle);

        // 2. Route completions by master id; the cache client's are
        // buffered for its scheduler-driven end_cycle.
        for c in self.bus.drain_completions() {
            if Some(c.master) == self.cache_master {
                self.cache_events.push((c.token, c.at));
                continue;
            }
            if let Some(st) = self.states.iter_mut().find(|s| s.master == c.master) {
                if let Some(engine) = st.engine_mut() {
                    engine.on_bus_completion(c.token, c.at);
                }
            }
        }

        // 3. Stage transitions.
        let mut transitioned = false;
        for st in &mut self.states {
            loop {
                match &mut st.stage {
                    Stage::DmaIn(e) if e.is_done() => {
                        // The CPU's output-region invalidate may still be
                        // running; it only gates the writeback, not local
                        // compute.
                        let Some(dma_done) = e.done_at() else {
                            self.error = Some(inconsistent_completion());
                            return;
                        };
                        st.in_busy = e.busy().clone();
                        st.timeline.data_in_done = dma_done;
                        let compute_start = if st.overlap {
                            // Full/empty bits: compute begins with the
                            // first delivered chunk and cannot end before
                            // the last byte arrives.
                            st.first_data_at
                        } else {
                            dma_done
                        };
                        let compute_done = if st.overlap {
                            dma_done.max(st.first_data_at + st.compute_cycles)
                        } else {
                            dma_done + st.compute_cycles
                        };
                        st.timeline.compute_done = compute_done;
                        st.compute_busy = interval(compute_start, compute_done);
                        st.stage = Stage::Compute {
                            until: compute_done,
                        };
                        transitioned = true;
                    }
                    Stage::Compute { until } if cycle >= *until => {
                        let eligible = (*until).max(st.flush_end);
                        let chunks = st.dma_cfg.chunk_sizes(&st.out_transfers);
                        let mut out = DmaEngine::new(
                            st.dma_cfg,
                            &st.out_transfers,
                            &vec![eligible; chunks.len()],
                        );
                        out.set_master(st.master);
                        if out.is_done() {
                            // No output arrays: completion is the compute.
                            st.timeline.end = st.timeline.compute_done;
                            st.stage = Stage::Done;
                        } else {
                            st.stage = Stage::DmaOut(Box::new(out));
                        }
                        transitioned = true;
                    }
                    Stage::DmaOut(e) if e.is_done() => {
                        let Some(done) = e.done_at() else {
                            self.error = Some(inconsistent_completion());
                            return;
                        };
                        st.out_busy = e.busy().clone();
                        st.timeline.end = done.max(st.timeline.compute_done);
                        st.stage = Stage::Done;
                        transitioned = true;
                    }
                    _ => break,
                }
            }
        }

        // 4. Stall detection, as in the single-accelerator DMA flow: a
        // quiet bus with a DMA stage pending and no bytes moving cannot be
        // waiting on eligibility or contention. Compute stages are exempt
        // (their completion cycle is already scheduled).
        let bytes = self.bus.stats().bytes;
        let dma_pending = self
            .states
            .iter()
            .any(|s| matches!(s.stage, Stage::DmaIn(_) | Stage::DmaOut(_)));
        if dma_pending && self.bus.is_idle() && bytes == self.last_bytes && !transitioned {
            self.idle_streak += 1;
            if self.idle_streak >= DMA_STALL_WINDOW {
                let stuck: Vec<String> = self
                    .states
                    .iter()
                    .filter(|s| !matches!(s.stage, Stage::Done))
                    .map(|s| format!("{} ({})", s.timeline.kernel, s.timeline.kind))
                    .collect();
                self.error = Some(SimError::Diag(Diagnostic::error(
                    "L0230",
                    format!(
                        "multi-accelerator DMA made no progress by cycle {cycle} — likely a \
                         stalled descriptor; pending: {}",
                        stuck.join(", ")
                    ),
                )));
            }
        } else {
            self.idle_streak = 0;
            self.last_bytes = bytes;
        }
    }
}

/// The cache job's [`DatapathMemory`]: its TLB/cache client plus the
/// shared [`DmaWorld`], pumped from `end_cycle` so every cache fill
/// arbitrates against the DMA engines cycle-accurately.
struct MultiMemory {
    client: CacheClient,
    world: DmaWorld,
}

impl DatapathMemory for MultiMemory {
    fn begin_cycle(&mut self, cycle: u64) {
        self.client.begin_cycle(cycle);
    }

    fn issue(&mut self, id: u64, addr: u64, bytes: u32, write: bool, cycle: u64) -> IssueResult {
        self.client.issue(id, addr, bytes, write, cycle)
    }

    fn drain_completions(&mut self) -> Vec<(u64, u64)> {
        self.client.drain_completions()
    }

    fn end_cycle(&mut self, cycle: u64) {
        self.client.push_bus_requests(self.world.bus.as_mut());
        self.world.pump_to(cycle);
        for (token, at) in std::mem::take(&mut self.world.cache_events) {
            self.client.on_bus_completion(token, at);
        }
        self.client.collect_cache_completions();
    }

    fn is_passive(&self) -> bool {
        // The DMA world must be pumped every cycle — no idle fast-forward.
        false
    }
}

/// Simulate `jobs` concurrently on one SoC under `harness`.
///
/// Heterogeneous job sets are supported: any mix of DMA and isolated
/// jobs, plus at most one cache-based job, all arbitrating for the same
/// bus. The harness's watchdog bounds the run and its fault plan arms
/// the bus, DRAM, flush and TLB injection sites.
///
/// # Errors
///
/// Returns [`SimError`] if the job set fails [`validate_multi_jobs`]
/// (`L0250`–`L0253`, `L0311`), the configured topology is malformed
/// (`L0310`), a DMA engine stalls (`L0230`/`L0231`), the cache job's
/// scheduler deadlocks (`L0232`), or the watchdog expires (`L0233`).
#[allow(clippy::too_many_lines)]
pub fn simulate_multi(
    jobs: &[AcceleratorJob],
    soc: &SocConfig,
    harness: &SimHarness,
) -> Result<MultiSocResult, SimError> {
    let report = validate_multi_jobs(jobs, soc);
    if report.has_errors() {
        return Err(report_error(report));
    }

    let mut ws = SchedulerWorkspace::new();
    let mut bus = build_interconnect(soc.bus, soc.dram, soc.topology).map_err(SimError::Diag)?;
    bus.set_faults(BusFaults::from_plan(&harness.plan));
    // Register every job's master up front so arbitration order (and, on a
    // mesh, node placement) is fixed before the first request.
    for (i, job) in jobs.iter().enumerate() {
        let master = job.resolved_master(i).expect("validated job count");
        bus.register_master(master).map_err(SimError::Diag)?;
    }
    let traffic = soc
        .traffic
        .map(|t| TrafficGenerator::new(t.period, t.bytes, 0x4000_0000, 16 << 20));

    let mut states: Vec<JobState> = Vec::new();
    let mut cache_job: Option<(usize, MasterId)> = None;
    for (i, job) in jobs.iter().enumerate() {
        let master = job.resolved_master(i).expect("validated job count");
        match job.kind {
            MemKind::Cache => cache_job = Some((i, master)),
            MemKind::Isolated => {
                states.push(setup_isolated(i, job, master, soc, harness, &mut ws)?)
            }
            MemKind::Dma(opt) => {
                states.push(setup_dma(i, job, opt, master, soc, harness, &mut ws)?);
            }
        }
    }

    let mut world = DmaWorld {
        bus,
        traffic,
        states,
        cache_master: cache_job.map(|(_, m)| m),
        cache_events: Vec::new(),
        next_cycle: 0,
        idle_streak: 0,
        last_bytes: 0,
        limit: harness.watchdog.max_cycles.unwrap_or(500_000_000),
        total_jobs: jobs.len(),
        error: None,
    };

    // Co-schedule the cache job (if any): its scheduler drives the shared
    // world cycle-by-cycle through `MultiMemory::end_cycle`.
    let mut cache_timeline: Option<(usize, AcceleratorTimeline)> = None;
    if let Some((ci, cmaster)) = cache_job {
        let job = &jobs[ci];
        let t0 = job.launch_at + soc.invoke_cycles;
        let prep = PreparedDddg::new(&job.trace, &job.datapath);
        let mut client = CacheClient::new(&job.trace, &job.datapath, soc, cmaster);
        client.set_faults(&harness.plan);
        let mut mem = MultiMemory { client, world };
        let sched = match try_schedule_prepared(
            &job.trace,
            &job.datapath,
            &prep,
            &mut ws,
            &mut mem,
            t0,
            &harness.watchdog,
        ) {
            Ok(s) => s,
            Err(mut e) => {
                if let Some(we) = mem.world.error.take() {
                    return Err(we);
                }
                e.push_note(format!(
                    "multi cache client: {} TLB-delayed access(es); bus: {} queued \
                     request(s), {} in flight",
                    mem.client.delayed_count(),
                    mem.world.bus.queue_depths().iter().sum::<usize>(),
                    mem.world.bus.in_flight_count()
                ));
                return Err(e);
            }
        };
        if let Some(we) = mem.world.error.take() {
            return Err(we);
        }
        let end = sched.end + soc.completion.map_or(0, |c| c.observation_lag(sched.end));
        let phases = PhaseBreakdown::for_dma_run(
            &IntervalSet::new(),
            &IntervalSet::new(),
            &IntervalSet::new(),
            &sched.busy,
            end,
        );
        cache_timeline = Some((
            ci,
            AcceleratorTimeline {
                kernel: job.trace.name().to_owned(),
                kind: MemKind::Cache,
                launched: job.launch_at,
                data_in_done: t0,
                compute_done: sched.end,
                end,
                phases,
                bus_bytes: 0,
            },
        ));
        world = mem.world;
    }

    // Drain the remaining DMA jobs.
    while !world.all_done() {
        let c = world.next_cycle;
        world.pump_to(c);
        if let Some(e) = world.error.take() {
            return Err(e);
        }
    }

    // Assemble timelines in job order.
    let bus_stats = world.bus.stats();
    let mut per_index: Vec<Option<AcceleratorTimeline>> = (0..jobs.len()).map(|_| None).collect();
    for mut st in world.states {
        st.timeline.phases = PhaseBreakdown::for_dma_run(
            &st.flush_busy,
            &st.in_busy,
            &st.out_busy,
            &st.compute_busy,
            st.timeline.end,
        );
        st.timeline.bus_bytes = bus_stats.master_bytes(st.master);
        per_index[st.index] = Some(st.timeline);
    }
    if let Some((ci, mut t)) = cache_timeline {
        if let Some((_, m)) = cache_job {
            t.bus_bytes = bus_stats.master_bytes(m);
        }
        per_index[ci] = Some(t);
    }
    let accelerators: Vec<AcceleratorTimeline> = per_index
        .into_iter()
        .map(|t| t.expect("every job produces a timeline"))
        .collect();
    let end = accelerators.iter().map(|a| a.end).max().unwrap_or(0);
    Ok(MultiSocResult {
        accelerators,
        end,
        bus_bytes: bus_stats.bytes,
        bus_utilization: bus_stats.busy_cycles as f64 / end.max(1) as f64,
    })
}

fn setup_isolated(
    index: usize,
    job: &AcceleratorJob,
    master: MasterId,
    soc: &SocConfig,
    harness: &SimHarness,
    ws: &mut SchedulerWorkspace,
) -> Result<JobState, SimError> {
    let t0 = job.launch_at + soc.invoke_cycles;
    let prep = PreparedDddg::new(&job.trace, &job.datapath);
    let mut spad = SpadMemory::new(&job.trace, &job.datapath);
    let sched = try_schedule_prepared(
        &job.trace,
        &job.datapath,
        &prep,
        ws,
        &mut spad,
        t0,
        &harness.watchdog,
    )?;
    Ok(JobState {
        index,
        stage: Stage::Done,
        flush_end: t0,
        first_data_at: t0,
        compute_cycles: sched.cycles,
        overlap: false,
        dma_cfg: soc.dma,
        out_transfers: Vec::new(),
        master,
        flush_busy: IntervalSet::new(),
        in_busy: IntervalSet::new(),
        out_busy: IntervalSet::new(),
        compute_busy: sched.busy,
        timeline: AcceleratorTimeline {
            kernel: job.trace.name().to_owned(),
            kind: MemKind::Isolated,
            launched: job.launch_at,
            data_in_done: t0,
            compute_done: sched.end,
            end: sched.end,
            phases: PhaseBreakdown::default(),
            bus_bytes: 0,
        },
    })
}

fn setup_dma(
    index: usize,
    job: &AcceleratorJob,
    opt: DmaOptLevel,
    master: MasterId,
    soc: &SocConfig,
    harness: &SimHarness,
    ws: &mut SchedulerWorkspace,
) -> Result<JobState, SimError> {
    let dma_cfg = DmaConfig {
        pipelined: opt.pipelined(),
        ..soc.dma
    };
    let t0 = job.launch_at + soc.invoke_cycles;
    let in_transfers: Vec<DmaTransfer> = job
        .trace
        .input_arrays()
        .map(|a| DmaTransfer {
            base: a.base_addr,
            bytes: a.size_bytes(),
            direction: DmaDirection::In,
        })
        .collect();
    let chunks = dma_cfg.chunk_sizes(&in_transfers);
    let flush = FlushSchedule::new_with_faults(
        soc.flush,
        soc.clock,
        t0,
        &chunks,
        job.trace.output_bytes(),
        harness.plan.flush_injector(),
    );
    let eligibility: Vec<u64> = if opt.pipelined() {
        flush.chunk_times().to_vec()
    } else {
        vec![flush.end(); chunks.len()]
    };
    let mut engine = DmaEngine::new(dma_cfg, &in_transfers, &eligibility);
    engine.set_master(master);

    // Compute duration from a standalone schedule (private scratchpads,
    // no bus interaction), under the same watchdog.
    let prep = PreparedDddg::new(&job.trace, &job.datapath);
    let mut spad = SpadMemory::new(&job.trace, &job.datapath);
    let compute_cycles = try_schedule_prepared(
        &job.trace,
        &job.datapath,
        &prep,
        ws,
        &mut spad,
        0,
        &harness.watchdog,
    )?
    .cycles;

    let out_transfers: Vec<DmaTransfer> = job
        .trace
        .output_arrays()
        .map(|a| DmaTransfer {
            base: a.base_addr,
            bytes: a.size_bytes(),
            direction: DmaDirection::Out,
        })
        .collect();

    let (stage, compute_busy) = if engine.is_done() {
        // No input data: go straight to compute after coherence work.
        (
            Stage::Compute {
                until: flush.end() + compute_cycles,
            },
            interval(flush.end(), flush.end() + compute_cycles),
        )
    } else {
        (Stage::DmaIn(Box::new(engine)), IntervalSet::new())
    };
    let first_data_at = eligibility.first().copied().unwrap_or(t0);
    Ok(JobState {
        index,
        stage,
        flush_end: flush.end(),
        first_data_at,
        compute_cycles,
        overlap: opt.triggered(),
        dma_cfg,
        out_transfers,
        master,
        flush_busy: flush.busy().clone(),
        in_busy: IntervalSet::new(),
        out_busy: IntervalSet::new(),
        compute_busy,
        timeline: AcceleratorTimeline {
            kernel: job.trace.name().to_owned(),
            kind: MemKind::Dma(opt),
            launched: job.launch_at,
            data_in_done: 0,
            compute_done: flush.end() + compute_cycles,
            end: 0,
            phases: PhaseBreakdown::default(),
            bus_bytes: 0,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, FlowSpec};
    use aladdin_workloads::by_name;

    fn job(name: &str, launch_at: u64) -> AcceleratorJob {
        AcceleratorJob::dma(
            by_name(name).expect("kernel").run().trace,
            DatapathConfig {
                lanes: 4,
                partition: 4,
                ..DatapathConfig::default()
            },
            DmaOptLevel::Pipelined,
            launch_at,
        )
    }

    fn run(jobs: &[AcceleratorJob]) -> MultiSocResult {
        simulate_multi(jobs, &SocConfig::default(), &SimHarness::default()).expect("completes")
    }

    #[test]
    fn single_job_matches_flow_closely() {
        let soc = SocConfig::default();
        let j = job("stencil-stencil2d", 0);
        let multi = run(std::slice::from_ref(&j));
        let single = simulate(
            &j.trace,
            &j.datapath,
            &soc,
            &FlowSpec::new(MemKind::Dma(DmaOptLevel::Pipelined)),
        )
        .unwrap();
        let m = multi.accelerators[0].end;
        let s = single.total_cycles;
        let diff = m.abs_diff(s) as f64 / s as f64;
        assert!(
            diff < 0.02,
            "multi-sim of one job should match the flow: {m} vs {s}"
        );
    }

    #[test]
    fn contention_stretches_both_accelerators() {
        let alone = run(&[job("stencil-stencil2d", 0)]);
        let pair = run(&[job("stencil-stencil2d", 0), job("stencil-stencil3d", 0)]);
        let alone_latency = alone.accelerators[0].latency();
        let pair_latency = pair.accelerators[0].latency();
        assert!(
            pair_latency > alone_latency,
            "sharing the bus must stretch DMA: {alone_latency} vs {pair_latency}"
        );
        assert!(pair.bus_utilization > alone.bus_utilization * 0.9);
        assert_eq!(pair.accelerators.len(), 2);
    }

    #[test]
    fn staggered_launch_reduces_interference() {
        let together = run(&[job("stencil-stencil2d", 0), job("stencil-stencil2d", 0)]);
        // Launch the second one after the first's input DMA window.
        let solo = run(&[job("stencil-stencil2d", 0)]);
        let window = solo.accelerators[0].data_in_done;
        let staggered = run(&[
            job("stencil-stencil2d", 0),
            job("stencil-stencil2d", window),
        ]);
        assert!(
            staggered.accelerators[0].latency() <= together.accelerators[0].latency(),
            "staggering should relieve accel 0: {} vs {}",
            staggered.accelerators[0].latency(),
            together.accelerators[0].latency()
        );
    }

    #[test]
    fn empty_jobs_are_a_typed_error() {
        let err = simulate_multi(&[], &SocConfig::default(), &SimHarness::default()).unwrap_err();
        assert_eq!(err.code(), "L0250");
    }

    #[test]
    fn four_accelerators_supported() {
        let jobs: Vec<_> = ["aes-aes", "fft-transpose", "spmv-crs", "md-knn"]
            .iter()
            .map(|n| job(n, 0))
            .collect();
        let r = run(&jobs);
        assert_eq!(r.accelerators.len(), 4);
        for a in &r.accelerators {
            assert!(a.end > 0, "{} never finished", a.kernel);
        }
    }

    #[test]
    fn over_capacity_and_duplicate_masters_are_typed_errors() {
        use aladdin_mem::Topology;
        // A 2x2 mesh has 3 accelerator nodes; 5 jobs overflow it.
        let mut mesh_soc = SocConfig::default();
        mesh_soc.topology.topology = Topology::MeshNoc {
            cols: 2,
            rows: 2,
            hop_cycles: 1,
            link_bits: 32,
        };
        let jobs: Vec<_> = (0..5).map(|_| job("aes-aes", 0)).collect();
        let err = simulate_multi(&jobs, &mesh_soc, &SimHarness::default()).unwrap_err();
        assert_eq!(err.code(), aladdin_mem::CODE_TOPOLOGY_CAPACITY);
        // The same 5 jobs are legal on the default shared bus since the
        // old 4-master cap was lifted.
        let r = run(&jobs);
        assert_eq!(r.accelerators.len(), 5);
        let dup = vec![
            job("aes-aes", 0).with_master(MasterId(2)),
            job("fft-transpose", 0).with_master(MasterId(2)),
        ];
        let err = simulate_multi(&dup, &SocConfig::default(), &SimHarness::default()).unwrap_err();
        assert_eq!(err.code(), "L0251");
    }

    #[test]
    fn five_accelerators_complete_on_a_crossbar() {
        use aladdin_mem::Topology;
        let mut soc = SocConfig::default();
        soc.topology.topology = Topology::Crossbar { radix: 4 };
        let jobs: Vec<_> = [
            "aes-aes",
            "fft-transpose",
            "spmv-crs",
            "md-knn",
            "gemm-ncubed",
        ]
        .iter()
        .map(|n| job(n, 0))
        .collect();
        let r = simulate_multi(&jobs, &soc, &SimHarness::default()).expect("completes");
        assert_eq!(r.accelerators.len(), 5);
        for a in &r.accelerators {
            assert!(a.end > 0, "{} never finished", a.kernel);
            assert!(a.bus_bytes > 0, "{} moved no bytes", a.kernel);
        }
        assert_eq!(
            r.bus_bytes,
            r.accelerators.iter().map(|a| a.bus_bytes).sum()
        );
    }

    #[test]
    fn nine_accelerators_complete_on_a_mesh() {
        use aladdin_mem::Topology;
        let mut soc = SocConfig::default();
        soc.topology.topology = Topology::MeshNoc {
            cols: 5,
            rows: 2,
            hop_cycles: 1,
            link_bits: 32,
        };
        let jobs: Vec<_> = (0..9).map(|_| job("aes-aes", 0)).collect();
        let r = simulate_multi(&jobs, &soc, &SimHarness::default()).expect("completes");
        assert_eq!(r.accelerators.len(), 9);
        for a in &r.accelerators {
            assert!(a.end > 0, "{} never finished", a.kernel);
            assert!(a.bus_bytes > 0, "{} moved no bytes", a.kernel);
        }
    }

    #[test]
    fn two_cache_jobs_are_rejected() {
        let mk = |name: &str| {
            AcceleratorJob::cache(
                by_name(name).expect("kernel").run().trace,
                DatapathConfig {
                    lanes: 2,
                    partition: 2,
                    ..DatapathConfig::default()
                },
                0,
            )
        };
        let err = simulate_multi(
            &[mk("aes-aes"), mk("fft-transpose")],
            &SocConfig::default(),
            &SimHarness::default(),
        )
        .unwrap_err();
        assert_eq!(err.code(), "L0252");
    }

    #[test]
    fn heterogeneous_cache_and_dma_complete_under_contention() {
        let dp = DatapathConfig {
            lanes: 4,
            partition: 4,
            ..DatapathConfig::default()
        };
        let cache_solo = run(&[AcceleratorJob::cache(
            by_name("spmv-crs").expect("kernel").run().trace,
            dp,
            0,
        )]);
        let pair = run(&[
            AcceleratorJob::cache(by_name("spmv-crs").expect("kernel").run().trace, dp, 0),
            job("stencil-stencil2d", 0),
        ]);
        assert_eq!(pair.accelerators.len(), 2);
        assert_eq!(pair.accelerators[0].kind, MemKind::Cache);
        assert!(pair.accelerators[0].end > 0);
        assert!(pair.accelerators[1].end > 0);
        assert!(
            pair.accelerators[0].latency() >= cache_solo.accelerators[0].latency(),
            "bus contention cannot speed the cache job up: {} vs {}",
            pair.accelerators[0].latency(),
            cache_solo.accelerators[0].latency()
        );
        // Both clients actually used the shared bus.
        assert!(pair.accelerators[0].bus_bytes > 0);
        assert!(pair.accelerators[1].bus_bytes > 0);
    }

    #[test]
    fn isolated_job_rides_along_without_bus_traffic() {
        let iso = AcceleratorJob::isolated(
            by_name("aes-aes").expect("kernel").run().trace,
            DatapathConfig {
                lanes: 2,
                partition: 2,
                ..DatapathConfig::default()
            },
            0,
        );
        let r = run(&[iso, job("stencil-stencil2d", 0)]);
        assert_eq!(r.accelerators[0].kind, MemKind::Isolated);
        assert!(r.accelerators[0].end > 0);
        assert_eq!(r.accelerators[0].bus_bytes, 0);
        assert!(r.accelerators[1].bus_bytes > 0);
    }

    #[test]
    fn multi_watchdog_expires_as_a_typed_error() {
        let mut harness = SimHarness::default();
        harness.watchdog.max_cycles = Some(10);
        let err = simulate_multi(
            &[job("stencil-stencil2d", 0)],
            &SocConfig::default(),
            &harness,
        )
        .unwrap_err();
        assert_eq!(err.code(), "L0233");
    }

    #[test]
    fn per_job_phases_cover_the_timeline() {
        let r = run(&[job("stencil-stencil2d", 0), job("gemm-ncubed", 0)]);
        for a in &r.accelerators {
            assert_eq!(a.phases.total, a.end, "{}", a.kernel);
            assert!(
                a.phases.dma_flush + a.phases.compute_dma > 0,
                "{}",
                a.kernel
            );
            assert!(
                a.phases.compute_only + a.phases.compute_dma > 0,
                "{}",
                a.kernel
            );
        }
    }
}
