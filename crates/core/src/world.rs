//! The one SoC world: interconnect, background traffic, DMA engines and a
//! datapath front, advanced by one per-cycle step.
//!
//! The paper's Figure 3 SoC puts every accelerator behind one bus and one
//! DRAM; after MosaicSim, every flow of [`simulate`](crate::simulate) and
//! every job of [`simulate_multi`](crate::simulate_multi) plugs into this
//! one loop. A step ticks the DMA engines (in master-registration order),
//! the traffic generator and the interconnect, routes completions by
//! master, advances multi-accelerator job stage machines and runs the one
//! no-progress detector (`L0230`). A world with a [`Front`] (DMA-gated
//! scratchpads or a cache client) is the scheduler's [`DatapathMemory`].
//! A single flow's world steps in lockstep with its scheduler, only on
//! the cycles the scheduler visits; a multi-accelerator world keeps its
//! own clock and steps every cycle, because its background jobs progress
//! while the scheduled datapath idles.

use aladdin_accel::{DatapathMemory, IssueResult, SpadMemory};
use aladdin_faults::{FaultPlan, SimError};
use aladdin_ir::Diagnostic;
use aladdin_mem::{
    BusFaults, BusStats, DmaConfig, DmaDirection, DmaEngine, DmaTransfer, Fabric, FlushSchedule,
    LineArrival, MasterId, TrafficGenerator,
};

use crate::config::{DmaOptLevel, SocConfig};
use crate::multi::JobState;
use crate::source::TraceSource;

/// Consecutive idle-bus cycles with a DMA transfer pending and no DMA
/// bytes posted before the run is declared stalled (`L0230`).
const DMA_STALL_WINDOW: u64 = 2_000_000;

/// The world's cycle guard when the harness sets no `max_cycles`.
const DEFAULT_CYCLE_LIMIT: u64 = 500_000_000;

/// One accelerator's DMA program — the one planner both engines use.
///
/// Descriptor order follows array registration order, i.e. the kernel's
/// `dmaLoad` calls, exactly as in gem5-Aladdin. Under DMA-triggered
/// computation this order decides how effective full/empty bits are: a
/// kernel that gathers through an array delivered last (spmv's `vec`)
/// stalls, one whose small operands arrive first (stencil filters)
/// streams.
#[derive(Debug)]
pub(crate) struct DmaPlan {
    cfg: DmaConfig,
    /// CPU-side flush of the inputs and invalidate of the outputs.
    pub(crate) flush: FlushSchedule,
    inputs: Vec<DmaTransfer>,
    /// Earliest service cycle per input chunk: page-by-page flush
    /// completion when pipelined, the whole flush otherwise.
    pub(crate) eligibility: Vec<u64>,
    outputs: Vec<DmaTransfer>,
}

impl DmaPlan {
    /// Plan `source`'s transfers at optimization level `opt` for an
    /// accelerator invoked at `t0`, drawing flush faults from `plan`.
    pub(crate) fn new(
        source: &TraceSource,
        soc: &SocConfig,
        opt: DmaOptLevel,
        t0: u64,
        plan: &FaultPlan,
    ) -> Self {
        let cfg = DmaConfig {
            pipelined: opt.pipelined(),
            ..soc.dma
        };
        let transfers = |arrays: &mut dyn Iterator<Item = &aladdin_ir::ArrayInfo>, direction| {
            arrays
                .map(|a| DmaTransfer {
                    base: a.base_addr,
                    bytes: a.size_bytes(),
                    direction,
                })
                .collect::<Vec<_>>()
        };
        let inputs = transfers(&mut source.input_arrays(), DmaDirection::In);
        let chunks = cfg.chunk_sizes(&inputs);
        let flush = FlushSchedule::new_with_faults(
            soc.flush,
            soc.clock,
            t0,
            &chunks,
            source.output_bytes(),
            plan.flush_injector(),
        );
        let eligibility = if opt.pipelined() {
            flush.chunk_times().to_vec()
        } else {
            vec![flush.end(); chunks.len()]
        };
        DmaPlan {
            cfg,
            flush,
            inputs,
            eligibility,
            outputs: transfers(&mut source.output_arrays(), DmaDirection::Out),
        }
    }

    /// Whether any input byte must be transferred.
    pub(crate) fn has_inputs(&self) -> bool {
        !self.eligibility.is_empty()
    }

    /// The input engine, requesting as `master`.
    pub(crate) fn input_engine(&self, master: MasterId) -> DmaEngine {
        let mut e = DmaEngine::new(self.cfg, &self.inputs, &self.eligibility);
        e.set_master(master);
        e
    }

    /// The writeback engine, every descriptor eligible at `eligible`.
    pub(crate) fn writeback_engine(&self, eligible: u64, master: MasterId) -> DmaEngine {
        let chunks = self.cfg.chunk_sizes(&self.outputs).len();
        let mut e = DmaEngine::new(self.cfg, &self.outputs, &vec![eligible; chunks]);
        e.set_master(master);
        e
    }
}

/// The world's DMA engines, one slot per bus master in registration
/// order — the order engines tick in, and so the order their bursts reach
/// the interconnect.
#[derive(Debug, Default)]
pub(crate) struct DmaEngines {
    slots: Vec<(MasterId, Option<DmaEngine>)>,
}

impl DmaEngines {
    fn slot(&mut self, master: MasterId) -> &mut Option<DmaEngine> {
        let i = match self.slots.iter().position(|(m, _)| *m == master) {
            Some(i) => i,
            None => {
                self.slots.push((master, None));
                self.slots.len() - 1
            }
        };
        &mut self.slots[i].1
    }

    fn engines(&self) -> impl Iterator<Item = &DmaEngine> {
        self.slots.iter().filter_map(|(_, e)| e.as_ref())
    }

    /// Install `engine` in its master's slot.
    pub(crate) fn start(&mut self, engine: DmaEngine) {
        let master = engine.master();
        *self.slot(master) = Some(engine);
    }

    /// Remove `master`'s engine if it has finished, with its completion
    /// cycle.
    pub(crate) fn take_done(&mut self, master: MasterId) -> Option<(u64, DmaEngine)> {
        let slot = self.slot(master);
        let done = slot.as_ref()?.done_at()?;
        slot.take().map(|e| (done, e))
    }

    fn on_bus_completion(&mut self, master: MasterId, token: u64, at: u64) {
        if let Some((_, Some(e))) = self.slots.iter_mut().find(|(m, _)| *m == master) {
            e.on_bus_completion(token, at);
        }
    }

    fn pending(&self) -> bool {
        self.engines().any(|e| !e.is_done())
    }

    fn bytes_posted(&self) -> u64 {
        self.engines().map(|e| e.stats().bytes).sum()
    }

    fn drain_arrivals(&mut self) -> impl Iterator<Item = LineArrival> + '_ {
        self.slots
            .iter_mut()
            .filter_map(|(_, e)| e.as_mut())
            .flat_map(DmaEngine::drain_arrivals)
    }

    fn describe(&self) -> impl Iterator<Item = String> + '_ {
        self.slots
            .iter()
            .filter_map(|(m, e)| Some(format!("master {}: {}", m.0, e.as_ref()?.describe_state())))
    }
}

/// The datapath side of a world: what the scheduler issues into, and how
/// it hooks into the world's cycle. Every hook defaults to "not involved".
pub(crate) trait Front {
    /// The bus master whose completions this front consumes.
    fn bus_master(&self) -> Option<MasterId> {
        None
    }

    /// Post transactions generated since the last cycle.
    ///
    /// # Errors
    ///
    /// The fabric's diagnostic for a request it refuses.
    fn push_bus_requests(&mut self, _bus: &mut Fabric) -> Result<(), Diagnostic> {
        Ok(())
    }

    /// Take one bus completion addressed to [`bus_master`](Front::bus_master).
    fn on_bus_completion(&mut self, _token: u64, _at: u64) {}

    /// Take the data the DMA engines delivered this cycle.
    fn take_arrivals(&mut self, _dma: &mut DmaEngines) {}

    /// One-line state summary for deadlock forensics.
    fn forensic_note(&self) -> Option<String> {
        None
    }
}

/// No datapath attached: the world runs DMA transfers and background jobs
/// on its own.
impl Front for () {}

/// DMA-triggered computation: every delivered line sets the scratchpad's
/// full/empty bits.
impl Front for SpadMemory {
    fn take_arrivals(&mut self, dma: &mut DmaEngines) {
        for a in dma.drain_arrivals() {
            self.push_arrival(a.addr, a.bytes, a.at);
        }
    }
}

/// The SoC outside the datapaths. See the module docs.
#[derive(Debug)]
pub(crate) struct SocWorld<F = ()> {
    bus: Fabric,
    traffic: Option<TrafficGenerator>,
    /// DMA engines, keyed by master.
    pub(crate) dma: DmaEngines,
    /// Multi-accelerator DMA and isolated jobs the world advances.
    pub(crate) jobs: Vec<JobState>,
    /// The datapath side.
    pub(crate) front: F,
    /// Completions for the front, held until the world has caught up.
    inbox: Vec<(u64, u64)>,
    /// `Some(next cycle)` when the world keeps its own clock; `None` in
    /// lockstep with one scheduler.
    clock: Option<u64>,
    limit: u64,
    idle_streak: u64,
    idle_bytes: u64,
    error: Option<SimError>,
}

impl<F: Front> SocWorld<F> {
    /// A lockstep world for `soc` with `front` as its datapath side and
    /// no faults armed.
    ///
    /// # Errors
    ///
    /// Returns the topology's `L0310` diagnostic if `soc.topology` is
    /// malformed, or its `L0311` diagnostic if it cannot host the
    /// front's or the traffic generator's master.
    pub(crate) fn new(soc: &SocConfig, front: F) -> Result<Self, Diagnostic> {
        let traffic = soc.traffic.map(|_| MasterId::TRAFFIC);
        for master in front.bus_master().into_iter().chain(traffic) {
            soc.topology.check_master(master)?;
        }
        Ok(SocWorld {
            bus: Fabric::try_new(soc.bus, soc.dram, soc.topology)?,
            traffic: soc
                .traffic
                .map(|t| TrafficGenerator::new(t.period, t.bytes, 0x4000_0000, 16 << 20)),
            dma: DmaEngines::default(),
            jobs: Vec::new(),
            front,
            inbox: Vec::new(),
            clock: None,
            limit: DEFAULT_CYCLE_LIMIT,
            idle_streak: 0,
            idle_bytes: 0,
            error: None,
        })
    }

    /// Keep the world's own clock from cycle 0, giving up at `max_cycles`
    /// (the harness watchdog's ceiling) if set.
    pub(crate) fn with_own_clock(mut self, max_cycles: Option<u64>) -> Self {
        self.clock = Some(0);
        self.limit = max_cycles.unwrap_or(DEFAULT_CYCLE_LIMIT);
        self
    }

    /// Swap the datapath side for `front`, handing back the old one.
    pub(crate) fn replace_front<G: Front>(self, front: G) -> (SocWorld<G>, F) {
        let SocWorld {
            bus,
            traffic,
            dma,
            jobs,
            front: old,
            inbox,
            clock,
            limit,
            idle_streak,
            idle_bytes,
            error,
        } = self;
        let world = SocWorld {
            bus,
            traffic,
            dma,
            jobs,
            front,
            inbox,
            clock,
            limit,
            idle_streak,
            idle_bytes,
            error,
        };
        (world, old)
    }

    /// Arm the bus and DRAM fault-injection sites from `plan`. An empty
    /// plan leaves timing bit-identical.
    pub(crate) fn set_faults(&mut self, plan: &FaultPlan) {
        self.bus.set_faults(BusFaults::from_plan(plan));
    }

    /// Register `master` with the interconnect and give it a DMA slot.
    ///
    /// # Errors
    ///
    /// Returns the interconnect's capacity diagnostic (`L0311`).
    pub(crate) fn register_master(&mut self, master: MasterId) -> Result<(), SimError> {
        self.bus.register_master(master).map_err(SimError::Diag)?;
        self.dma.slot(master);
        Ok(())
    }

    /// Interconnect statistics so far.
    pub(crate) fn bus_stats(&self) -> BusStats {
        self.bus.stats()
    }

    /// The next cycle of the world's own clock (0 in lockstep).
    pub(crate) fn next_cycle(&self) -> u64 {
        self.clock.unwrap_or(0)
    }

    /// Advance everything by one cycle: DMA engines, traffic, the
    /// interconnect; then route completions by master.
    ///
    /// # Errors
    ///
    /// The fabric's diagnostic for a request it refuses.
    fn tick(&mut self, cycle: u64) -> Result<(), Diagnostic> {
        for e in self.dma.slots.iter_mut().filter_map(|(_, e)| e.as_mut()) {
            e.tick(cycle, &mut self.bus)?;
        }
        if let Some(t) = self.traffic.as_mut() {
            t.tick(cycle, &mut self.bus)?;
        }
        self.bus.tick(cycle);
        let front = self.front.bus_master();
        for c in self.bus.drain_completions() {
            if Some(c.master) == front {
                self.inbox.push((c.token, c.at));
            } else {
                self.dma.on_bus_completion(c.master, c.token, c.at);
            }
        }
        Ok(())
    }

    /// One world cycle: the tick, job stage transitions, the cycle guard
    /// and the no-progress detector. A recorded error freezes the world.
    fn step(&mut self, cycle: u64) {
        if self.error.is_some() {
            return;
        }
        if cycle >= self.limit {
            self.error = Some(SimError::WatchdogExpired {
                limit: self.limit,
                cycle,
                completed: self.jobs.iter().filter(|j| j.is_done()).count(),
                total: self.jobs.len(),
                notes: vec!["SoC world cycle guard".to_owned()],
            });
            return;
        }
        if let Err(d) = self.tick(cycle) {
            self.error = Some(SimError::Diag(d));
            return;
        }
        let mut transitioned = false;
        for job in &mut self.jobs {
            transitioned |= job.advance(cycle, &mut self.dma);
        }
        self.watch(cycle, transitioned);
    }

    /// The no-progress detector: a quiet bus with a DMA transfer pending
    /// and no DMA bytes posted for [`DMA_STALL_WINDOW`] cycles cannot be
    /// waiting on contention — the engine is wedged, e.g. by a
    /// zero-descriptor window. Job stage transitions count as progress.
    fn watch(&mut self, cycle: u64, transitioned: bool) {
        if transitioned || !self.dma.pending() || !self.bus.is_idle() {
            self.idle_streak = 0;
            return;
        }
        let posted = self.dma.bytes_posted();
        if posted != self.idle_bytes {
            self.idle_bytes = posted;
            self.idle_streak = 0;
            return;
        }
        self.idle_streak += 1;
        if self.idle_streak >= DMA_STALL_WINDOW {
            let pending: Vec<String> = self.dma.describe().collect();
            self.error = Some(SimError::Diag(Diagnostic::error(
                "L0230",
                format!(
                    "DMA made no progress by cycle {cycle} — likely a stalled descriptor; {}",
                    pending.join("; ")
                ),
            )));
        }
    }

    /// Step from `from` until no DMA transfer or job remains; the first
    /// cycle not stepped.
    ///
    /// # Errors
    ///
    /// The stall (`L0230`) or cycle-guard (`L0233`) error the world
    /// recorded.
    pub(crate) fn run_until_idle(&mut self, from: u64) -> Result<u64, SimError> {
        let mut cycle = from;
        while self.dma.pending() || self.jobs.iter().any(|j| !j.is_done()) {
            self.step(cycle);
            cycle += 1;
            if let Some(e) = self.error.take() {
                return Err(e);
            }
        }
        Ok(cycle)
    }

    /// [`run_until_idle`](Self::run_until_idle) for the single flows'
    /// transfer phases: the cycle the last DMA transfer completed, no
    /// earlier than the first cycle not stepped.
    ///
    /// # Errors
    ///
    /// As for [`run_until_idle`](Self::run_until_idle).
    pub(crate) fn drain_dma(&mut self, from: u64) -> Result<u64, SimError> {
        let stop = self.run_until_idle(from)?;
        Ok(self
            .dma
            .engines()
            .filter_map(DmaEngine::done_at)
            .fold(stop, u64::max))
    }

    /// One-line state summary of the bus, the DMA engines and the front.
    pub(crate) fn forensic_note(&self) -> String {
        let mut parts = vec![format!(
            "bus: {} queued request(s), {} in flight",
            self.bus.queue_depths().iter().sum::<usize>(),
            self.bus.in_flight_count()
        )];
        parts.extend(self.dma.describe());
        parts.extend(self.front.forensic_note());
        parts.join("; ")
    }

    /// Resolve a run the world took part in: an error the world recorded
    /// wins, and any other error gets the world's forensic note.
    ///
    /// # Errors
    ///
    /// The world's error, else `run`'s.
    pub(crate) fn settle<T>(&mut self, run: Result<T, SimError>) -> Result<T, SimError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        run.map_err(|mut e| {
            e.push_note(self.forensic_note());
            e
        })
    }
}

/// A world with a front is the scheduler's memory: the front serves the
/// datapath, and `end_cycle` advances the world.
impl<F: Front + DatapathMemory> DatapathMemory for SocWorld<F> {
    fn begin_cycle(&mut self, cycle: u64) {
        self.front.begin_cycle(cycle);
    }

    fn issue(&mut self, id: u64, addr: u64, bytes: u32, write: bool, cycle: u64) -> IssueResult {
        self.front.issue(id, addr, bytes, write, cycle)
    }

    fn drain_completions(&mut self, out: &mut Vec<(u64, u64)>) {
        self.front.drain_completions(out);
    }

    fn end_cycle(&mut self, cycle: u64) {
        if let Err(d) = self.front.push_bus_requests(&mut self.bus) {
            self.error.get_or_insert(SimError::Diag(d));
        }
        match self.clock {
            None => self.step(cycle),
            Some(mut next) => {
                while next <= cycle && self.error.is_none() {
                    self.step(next);
                    next += 1;
                }
                self.clock = Some(next);
            }
        }
        for (token, at) in self.inbox.drain(..) {
            self.front.on_bus_completion(token, at);
        }
        self.front.take_arrivals(&mut self.dma);
        self.front.end_cycle(cycle);
    }
}
