//! Multi-accelerator SoC simulation.
//!
//! The paper's Figure 3 SoC hosts several accelerators (`ACCEL0`,
//! `ACCEL1`, …) behind one system bus, and Section IV-A argues that
//! coarse-grained DMA suffers disproportionately when that bus is shared.
//! This module simulates N accelerators running concurrently — each
//! described by the same [`MemKind`] vocabulary as the single-accelerator
//! [`simulate`](crate::simulate) engine — in one [`SocWorld`], the same
//! bus/DMA/cache world the single flows step. The world keeps its own
//! clock here, so every job progresses on every cycle:
//!
//! * **DMA jobs** are stage machines the world advances each cycle:
//!   invoke → flush → DMA-in → compute → DMA-out, with their engines in
//!   the world's per-master DMA slots and their transfers planned by the
//!   same `DmaPlan` as the single DMA flow. Compute executes from private
//!   scratchpads (no bus traffic), so its duration comes from a standalone
//!   schedule; the co-simulated part is exactly the shared-resource part.
//!   Under [`DmaOptLevel::Full`] the compute/DMA overlap is approximated
//!   analytically (compute starts with the first delivered chunk) — the
//!   bus traffic, which is what contention is about, is identical. This
//!   job model is why a one-job run is close to, not equal to, the single
//!   flow.
//! * **One cache job** may join the mix (the heterogeneous ACCEL0/ACCEL1
//!   pairing): its cache client becomes the shared world's front, so its
//!   scheduler drives the world cycle-by-cycle and every fill arbitrates
//!   against the DMA engines.
//! * **Isolated jobs** never touch the bus; they ride along for
//!   apples-to-apples timelines.
//!
//! Runs are guarded by the harness [`Watchdog`](aladdin_faults::Watchdog)
//! and armed with its [`FaultPlan`](aladdin_faults::FaultPlan); degenerate
//! configurations come back as typed [`SimError`]s (`L0250`–`L0253`,
//! `L0230`, `L0233`) instead of panics.

use aladdin_accel::{DatapathConfig, SchedulerWorkspace, SpadMemory};
use aladdin_faults::{SimError, SimHarness};
use aladdin_ir::{Diagnostic, Locus, Report, Trace};
use aladdin_mem::{BusStats, IntervalSet, MasterId, CODE_TOPOLOGY_CAPACITY};

use crate::cachemem::CacheClient;
use crate::config::{DmaOptLevel, MemKind, SocConfig};
use crate::engine::{report_error, run_schedule, FlowSpec, SchedSpec};
use crate::phase::PhaseBreakdown;
use crate::source::TraceSource;
use crate::world::{DmaEngines, DmaPlan, SocWorld};

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

#[derive(Debug, Clone, Copy)]
enum Stage {
    DmaIn,
    Compute { until: u64 },
    DmaOut,
    Done,
}

/// One DMA or isolated job's stage machine, advanced by the world every
/// cycle. The job's engines live in the world's DMA slot for `master`.
#[derive(Debug)]
pub(crate) struct JobState {
    index: usize,
    master: MasterId,
    stage: Stage,
    /// The job's transfers; `None` for isolated jobs.
    plan: Option<DmaPlan>,
    compute_cycles: u64,
    in_busy: IntervalSet,
    out_busy: IntervalSet,
    compute_busy: IntervalSet,
    timeline: AcceleratorTimeline,
}

fn interval(start: u64, end: u64) -> IntervalSet {
    if end > start {
        [(start, end)].into_iter().collect()
    } else {
        IntervalSet::new()
    }
}

impl JobState {
    pub(crate) fn is_done(&self) -> bool {
        matches!(self.stage, Stage::Done)
    }

    /// Take every stage transition due at `cycle`; whether any happened.
    pub(crate) fn advance(&mut self, cycle: u64, dma: &mut DmaEngines) -> bool {
        let mut transitioned = false;
        loop {
            match self.stage {
                Stage::DmaIn => {
                    // The CPU's output-region invalidate may still be
                    // running; it only gates the writeback, not local
                    // compute.
                    let Some((dma_done, engine)) = dma.take_done(self.master) else {
                        break;
                    };
                    self.in_busy = engine.busy().clone();
                    self.timeline.data_in_done = dma_done;
                    // Full/empty bits: compute begins with the first
                    // delivered chunk and cannot end before the last byte
                    // arrives.
                    let first_data = self.plan.as_ref().and_then(|p| p.eligibility.first());
                    let (start, done) = match (self.timeline.kind, first_data) {
                        (MemKind::Dma(opt), Some(&first)) if opt.triggered() => {
                            (first, dma_done.max(first + self.compute_cycles))
                        }
                        _ => (dma_done, dma_done + self.compute_cycles),
                    };
                    self.timeline.compute_done = done;
                    self.compute_busy = interval(start, done);
                    self.stage = Stage::Compute { until: done };
                }
                Stage::Compute { until } if cycle >= until => {
                    let out = self
                        .plan
                        .as_ref()
                        .map(|p| p.writeback_engine(until.max(p.flush.end()), self.master));
                    match out {
                        Some(out) if !out.is_done() => {
                            dma.start(out);
                            self.stage = Stage::DmaOut;
                        }
                        // No output arrays: completion is the compute.
                        _ => {
                            self.timeline.end = self.timeline.compute_done;
                            self.stage = Stage::Done;
                        }
                    }
                }
                Stage::DmaOut => {
                    let Some((done, engine)) = dma.take_done(self.master) else {
                        break;
                    };
                    self.out_busy = engine.busy().clone();
                    self.timeline.end = done.max(self.timeline.compute_done);
                    self.stage = Stage::Done;
                }
                _ => break,
            }
            transitioned = true;
        }
        transitioned
    }

    /// The finished timeline, with its phases and bus bytes.
    fn finish(mut self, bus: &BusStats) -> (usize, AcceleratorTimeline) {
        let no_flush = IntervalSet::new();
        self.timeline.phases = PhaseBreakdown::for_dma_run(
            self.plan.as_ref().map_or(&no_flush, |p| p.flush.busy()),
            &self.in_busy,
            &self.out_busy,
            &self.compute_busy,
            self.timeline.end,
        );
        self.timeline.bus_bytes = bus.master_bytes(self.master);
        (self.index, self.timeline)
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
/// (`L0310`), a DMA engine stalls (`L0230`), the cache job's scheduler
/// deadlocks (`L0232`), or the watchdog expires (`L0233`).
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
    let mut world = SocWorld::new(soc, ())
        .map_err(SimError::Diag)?
        .with_own_clock(harness.watchdog.max_cycles);
    world.set_faults(&harness.plan);
    // Register every job's master up front so arbitration order (and, on a
    // mesh, node placement) and DMA tick order are fixed before the first
    // request.
    let masters: Vec<MasterId> = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| job.resolved_master(i).expect("validated job count"))
        .collect();
    for &master in &masters {
        world.register_master(master)?;
    }

    let mut cache_job = None;
    for (i, job) in jobs.iter().enumerate() {
        if job.kind == MemKind::Cache {
            cache_job = Some(i);
        } else {
            add_job(&mut world, i, job, masters[i], soc, harness, &mut ws)?;
        }
    }

    // Co-schedule the cache job (if any): its scheduler drives the shared
    // world cycle-by-cycle.
    let mut timelines = Vec::with_capacity(jobs.len());
    if let Some(ci) = cache_job {
        let job = &jobs[ci];
        let t0 = job.launch_at + soc.invoke_cycles;
        let mut client =
            CacheClient::from_arrays(job.trace.arrays(), &job.datapath, soc, masters[ci]);
        client.set_faults(&harness.plan);
        let mut mem = world.replace_front(client).0;
        let source = TraceSource::Memory(&job.trace);
        let run = run_schedule(
            &source,
            &job.datapath,
            &SchedSpec::default(),
            &mut ws,
            &mut mem,
            t0,
            &harness.watchdog,
        );
        let sched = mem.settle(run)?.sched;
        let end = sched.end + soc.completion.map_or(0, |c| c.observation_lag(sched.end));
        let phases = PhaseBreakdown::for_dma_run(
            &IntervalSet::new(),
            &IntervalSet::new(),
            &IntervalSet::new(),
            &sched.busy,
            end,
        );
        timelines.push((
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
        world = mem.replace_front(()).0;
    }

    // Run the remaining DMA jobs to completion.
    world.run_until_idle(world.next_cycle())?;

    // Assemble timelines in job order.
    let bus = world.bus_stats();
    for (ci, t) in &mut timelines {
        t.bus_bytes = bus.master_bytes(masters[*ci]);
    }
    timelines.extend(world.jobs.into_iter().map(|st| st.finish(&bus)));
    timelines.sort_by_key(|(i, _)| *i);
    let accelerators: Vec<AcceleratorTimeline> = timelines.into_iter().map(|(_, t)| t).collect();
    let end = accelerators.iter().map(|a| a.end).max().unwrap_or(0);
    Ok(MultiSocResult {
        accelerators,
        end,
        bus_bytes: bus.bytes,
        bus_utilization: bus.busy_cycles as f64 / end.max(1) as f64,
    })
}

/// Add job `index` (DMA or isolated) to `world`: plan its transfers,
/// start its input engine, and time its compute from a standalone
/// schedule on private scratchpads (no bus interaction) under the
/// harness watchdog.
fn add_job(
    world: &mut SocWorld,
    index: usize,
    job: &AcceleratorJob,
    master: MasterId,
    soc: &SocConfig,
    harness: &SimHarness,
    ws: &mut SchedulerWorkspace,
) -> Result<(), SimError> {
    let t0 = job.launch_at + soc.invoke_cycles;
    let plan = match job.kind {
        MemKind::Dma(opt) => Some(DmaPlan::new(
            &TraceSource::Memory(&job.trace),
            soc,
            opt,
            t0,
            &harness.plan,
        )),
        _ => None,
    };
    let mut spad = SpadMemory::new(&job.trace, &job.datapath);
    let sched = run_schedule(
        &TraceSource::Memory(&job.trace),
        &job.datapath,
        &SchedSpec::default(),
        ws,
        &mut spad,
        if plan.is_some() { 0 } else { t0 },
        &harness.watchdog,
    )?
    .sched;
    let mut state = JobState {
        index,
        master,
        stage: Stage::Done,
        plan: None,
        compute_cycles: sched.cycles,
        in_busy: IntervalSet::new(),
        out_busy: IntervalSet::new(),
        compute_busy: sched.busy,
        timeline: AcceleratorTimeline {
            kernel: job.trace.name().to_owned(),
            kind: job.kind,
            launched: job.launch_at,
            data_in_done: t0,
            compute_done: sched.end,
            end: sched.end,
            phases: PhaseBreakdown::default(),
            bus_bytes: 0,
        },
    };
    if let Some(plan) = plan {
        let flush_end = plan.flush.end();
        state.timeline.data_in_done = 0;
        state.timeline.compute_done = flush_end + sched.cycles;
        state.timeline.end = 0;
        if plan.has_inputs() {
            world.dma.start(plan.input_engine(master));
            state.stage = Stage::DmaIn;
            state.compute_busy = IntervalSet::new();
        } else {
            // No input data: go straight to compute after coherence work.
            state.stage = Stage::Compute {
                until: flush_end + sched.cycles,
            };
            state.compute_busy = interval(flush_end, flush_end + sched.cycles);
        }
        state.plan = Some(plan);
    }
    world.jobs.push(state);
    Ok(())
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
    fn stalled_multi_dma_is_a_typed_diagnostic() {
        let mut soc = SocConfig::default();
        soc.dma.max_outstanding = 0; // no engine can ever post a burst
        let err = simulate_multi(
            &[job("stencil-stencil2d", 0), job("aes-aes", 0)],
            &soc,
            &SimHarness::default(),
        )
        .unwrap_err();
        assert_eq!(err.code(), "L0230", "{err}");
        // The diagnostic names every wedged engine by its bus master.
        let msg = err.to_string();
        assert!(msg.contains("master 0: dma:"), "{msg}");
        assert!(msg.contains("master 1: dma:"), "{msg}");
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
