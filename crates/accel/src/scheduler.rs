//! Resource-constrained dataflow scheduling of a DDDG.
//!
//! This is Aladdin's scheduling step: a breadth-first traversal of the
//! dynamic data dependence graph under user-defined hardware constraints
//! (Section III-B). Per cycle,
//!
//! * each lane may begin at most one operation per functional-unit class
//!   (one FU of each class per lane, fully pipelined),
//! * memory operations issue through the [`DatapathMemory`] and may be
//!   structurally rejected (bank conflict, port limit, MSHR exhaustion) or
//!   stalled (full/empty bit not set, cache miss) — stalling one lane never
//!   blocks independent operations in other lanes (hit-under-miss),
//! * under [`LaneSync::Barrier`], all lanes synchronize before the next
//!   unrolled iteration round begins.
//!
//! # One loop, two stores
//!
//! The per-cycle loop exists once, as `SchedState::run`. It is generic
//! over a `NodeStore`, which answers only what the loop cannot own: each
//! node's opcode, memory reference, lane and round; which successors a
//! retirement releases; when nodes become resident; and when the trace is
//! finished. Ready queues, completion wheels, the barrier, busy
//! accounting, the idle jump and the watchdog are the loop's alone.
//!
//! * The *prepared* store ([`try_schedule_prepared`]) holds the whole
//!   trace and its [`PreparedDddg`]: every node is resident from the start
//!   and every barrier round's size is known.
//! * The *streamed* store ([`try_schedule_windowed`](crate::try_schedule_windowed))
//!   admits nodes from an iterator into a bounded window (see `window.rs`).
//!
//! # Sweep fast path
//!
//! Design-space sweeps re-schedule the same trace hundreds of times. Two
//! pieces of per-run work are invariant or reusable across points and can
//! be hoisted out of the inner loop:
//!
//! * [`PreparedDddg`] — the graph (successor lists, in-degrees, iteration
//!   instances) depends only on the trace, so a sweep builds it once and
//!   shares it across every lane count, cache geometry and worker thread;
//!   each run derives lanes and rounds from its own lane count.
//! * [`SchedulerWorkspace`] — the loop's heaps and vectors are sized by
//!   the trace, not the config; keeping them alive between runs of either
//!   store turns ~10 allocations per design point into zero.
//!
//! [`schedule`] remains the convenient one-shot entry point; it builds
//! both on the fly and produces bit-identical results to
//! [`try_schedule_prepared`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use aladdin_faults::{DeadlockSnapshot, SimError, Watchdog};
use aladdin_ir::{FuClass, MemAccessKind, MemRef, NodeId, Opcode, Trace, TraceNode};
use aladdin_mem::IntervalSet;

use crate::config::{DatapathConfig, LaneSync};
use crate::dddg::PreparedDddg;
use crate::meminterface::{DatapathMemory, IssueResult};
use crate::window::NodeRing;

/// Outcome of scheduling a trace on a datapath.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleResult {
    /// Cycle the scheduler started at.
    pub start: u64,
    /// Cycle the last operation completed.
    pub end: u64,
    /// Cycles during which at least one operation occupied a functional
    /// unit or the scratchpad. Memory operations waiting inside the memory
    /// system (cache misses, full/empty-bit stalls) are *not* busy — those
    /// gaps are what runtime phase attribution measures.
    pub busy: IntervalSet,
    /// Operations issued per functional-unit class.
    pub issued_per_class: [u64; 6],
    /// Memory issue attempts that were structurally rejected.
    pub mem_rejects: u64,
    /// Total cycles simulated (`end - start`).
    pub cycles: u64,
    /// Scheduler loop iterations actually executed. Idle fast-forwarding
    /// makes this smaller than `cycles`; the gap is simulation work saved.
    pub stepped_cycles: u64,
    /// Scheduler events processed: issues plus retires. A throughput
    /// denominator for "how much simulation happened", independent of how
    /// many idle cycles were skipped.
    pub events: u64,
}

pub(crate) const CLASSES: usize = 6;

/// How many memory issue attempts the scheduler examines per cycle for a
/// datapath — the engine's internal issue-bandwidth budget, exposed
/// read-only so static analyses (`aladdin-lint`'s cycle-bound model) can
/// reason about per-cycle memory throughput without re-deriving the
/// scheduler's internals.
#[must_use]
pub fn mem_issue_budget(cfg: &DatapathConfig) -> usize {
    8 + 4 * cfg.lanes as usize + 2 * cfg.partition as usize
}

/// Ready memory operations, ordered by node id: a bitset of 64-id words.
///
/// Each cycle [`issue_smallest`](ReadyMem::issue_smallest) walks the
/// smallest ids in place and removes only the ones the memory accepts, so
/// a rejected attempt costs a bit scan, never a re-insertion.
#[derive(Debug, Default)]
pub(crate) struct ReadyMem {
    /// Bit `b` of `words[i]` is id `(base + i) * 64 + b`. The last word
    /// is non-zero, and the set is re-based whenever it empties, so
    /// storage spans only the ready ids.
    words: Vec<u64>,
    base: usize,
    /// Index of the first non-zero word. The zero words before it are
    /// dropped once they make up half of `words`.
    head: usize,
    len: usize,
}

impl ReadyMem {
    pub(crate) fn clear(&mut self) {
        self.words.clear();
        self.head = 0;
        self.len = 0;
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn insert(&mut self, id: u32) {
        let w = id as usize / 64;
        if self.len == 0 {
            self.base = w;
            self.head = 0;
        } else if w < self.base {
            let grow = self.base - w;
            self.words.splice(0..0, std::iter::repeat_n(0, grow));
            self.base = w;
            self.head += grow;
        }
        let i = w - self.base;
        if i >= self.words.len() {
            self.words.resize(i + 1, 0);
        }
        self.head = self.head.min(i);
        debug_assert_eq!(self.words[i] & (1 << (id % 64)), 0, "id {id} already ready");
        self.words[i] |= 1 << (id % 64);
        self.len += 1;
    }

    /// Offer the `budget` smallest ready ids to `issue`, in ascending
    /// order, and remove each one it accepts (returns `true` for). A
    /// rejected id stays in place for the next cycle.
    #[inline]
    pub(crate) fn issue_smallest(&mut self, budget: usize, mut issue: impl FnMut(u32) -> bool) {
        let mut left = budget;
        for i in self.head..self.words.len() {
            let mut word = self.words[i];
            while word != 0 && left > 0 {
                let bit = word.trailing_zeros();
                word &= word - 1;
                left -= 1;
                if issue(((self.base + i) * 64) as u32 + bit) {
                    self.words[i] &= !(1 << bit);
                    self.len -= 1;
                }
            }
            if left == 0 {
                break;
            }
        }
        if self.len == 0 {
            self.clear();
            return;
        }
        while self.words[self.head] == 0 {
            self.head += 1;
        }
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
        if self.head >= 8 && self.head * 2 >= self.words.len() {
            self.words.drain(..self.head);
            self.base += self.head;
            self.head = 0;
        }
    }
}

/// Reusable scheduling buffers: heaps, wheels, per-node state, and scratch
/// vectors the loop would otherwise allocate afresh for every design
/// point.
///
/// A workspace is plain state — create one per worker thread and pass it
/// to [`try_schedule_prepared`] or
/// [`try_schedule_windowed`](crate::try_schedule_windowed) for every point
/// that worker simulates, in any mix. All contents are cleared (but their
/// capacity retained) at the start of each run, so reuse cannot leak state
/// between points; results are bit-identical to a fresh workspace.
#[derive(Debug, Default)]
pub struct SchedulerWorkspace {
    /// The prepared store's remaining in-degree per node.
    indeg: Vec<u32>,
    /// The streamed store's resident-node slots.
    pub(crate) ring: NodeRing,
    pub(crate) state: SchedState,
}

impl SchedulerWorkspace {
    /// An empty workspace. Buffers grow to fit the first trace scheduled
    /// and are retained afterwards.
    #[must_use]
    pub fn new() -> Self {
        SchedulerWorkspace::default()
    }
}

/// Where the scheduling loop finds its nodes: the per-node facts and
/// lifecycle the loop does not own. Ids are node ids; the loop only asks
/// about resident ones.
pub(crate) trait NodeStore {
    fn opcode(&self, id: u32) -> Opcode;
    fn mem(&self, id: u32) -> Option<MemRef>;
    fn lane(&self, id: u32) -> u32;
    fn round(&self, id: u32) -> u32;
    /// Retire `id` and hand each successor whose last dependence it was to
    /// `release`, in successor order. Returns `id`'s round.
    fn retire(&mut self, id: u32, release: impl FnMut(&Self, u32)) -> u32;
    /// Make the first nodes resident before cycle one.
    fn start(&mut self, st: &mut SchedState) -> Result<(), SimError> {
        self.admit(st)
    }
    /// Make nodes resident after the cycle's retirements and before its
    /// issue phases.
    fn admit(&mut self, st: &mut SchedState) -> Result<(), SimError>;
    /// Whether every node has retired, given `completed` retirements.
    fn finished(&self, completed: u64) -> bool;
    /// Node count for error snapshots, and notes qualifying it.
    fn total(&self) -> usize;
    fn notes(&self) -> Vec<String>;
}

/// Emptied barrier-round buffers a workspace keeps for reuse. Streamed
/// runs wake rounds and admit new ones a few at a time, so a handful
/// covers the gap between the two.
const SPARE_PARKED: usize = 16;

/// Barrier bookkeeping for one round, kept only while the round can still
/// matter; completed rounds are popped from the front of the deque.
#[derive(Debug, Default)]
struct RoundState {
    done: usize,
    /// Nodes of this round made resident so far — the round's true size
    /// once the round is final.
    total: usize,
    parked: Vec<u32>,
}

/// The scheduling loop's state, owned by a [`SchedulerWorkspace`] and
/// reset at the start of every run.
#[derive(Debug, Default)]
pub(crate) struct SchedState {
    barrier: bool,
    /// Barrier rounds, front = `current_round`.
    rounds: VecDeque<RoundState>,
    /// Emptied `parked` buffers of woken rounds, reused by new rounds so
    /// a streamed barrier round allocates nothing once the run is warm.
    /// At most [`SPARE_PARKED`] are kept: a prepared run creates every
    /// round up front, and would otherwise keep every woken buffer.
    spare_parked: Vec<Vec<u32>>,
    current_round: u32,
    /// Rounds below this one are final: no more of their nodes can
    /// arrive, so their `total` is exact.
    final_rounds: u32,
    ready_compute: Vec<BinaryHeap<Reverse<u32>>>,
    /// One bit per `ready_compute` slot; set iff the slot's heap is
    /// non-empty. The issue loop walks set bits instead of scanning all
    /// `lanes × CLASSES` heaps every cycle.
    ready_mask: Vec<u64>,
    ready_mem: ReadyMem,
    ready_count: usize,
    wheel: BinaryHeap<Reverse<(u64, u32)>>,
    /// Memory-system completions not yet due (delivered with a future
    /// completion cycle, e.g. a known DMA arrival time).
    mem_wheel: BinaryHeap<Reverse<(u64, u32)>>,
    /// The buffer the memory drains one cycle's completions into; empty
    /// between cycles, kept for its capacity.
    drained: Vec<(u64, u64)>,
    /// Memory operations issued into the memory system whose completions
    /// have not yet been drained. While this is non-zero the memory system
    /// owes us events at unknown cycles, so idle fast-forwarding must not
    /// skip its per-cycle advancement.
    mem_inflight: usize,
    active: usize,
    busy_start: u64,
    busy: IntervalSet,
    completed: u64,
    last_retire: u64,
    issued_per_class: [u64; CLASSES],
    mem_rejects: u64,
    events: u64,
}

impl SchedState {
    /// Clear every buffer (keeping its capacity) for a run of `cfg` from
    /// cycle `start`.
    fn reset(&mut self, cfg: &DatapathConfig, start: u64) {
        let slots = cfg.lanes as usize * CLASSES;
        if self.ready_compute.len() < slots {
            self.ready_compute.resize_with(slots, BinaryHeap::new);
        }
        for h in &mut self.ready_compute[..slots] {
            h.clear();
        }
        self.ready_mask.clear();
        self.ready_mask.resize(slots.div_ceil(64), 0);
        self.ready_mem.clear();
        self.wheel.clear();
        self.mem_wheel.clear();
        self.rounds.clear();
        self.barrier = cfg.sync == LaneSync::Barrier;
        self.current_round = 0;
        self.final_rounds = 0;
        self.ready_count = 0;
        self.mem_inflight = 0;
        self.active = 0;
        self.busy_start = start;
        self.busy = IntervalSet::new();
        self.completed = 0;
        self.last_retire = start;
        self.issued_per_class = [0; CLASSES];
        self.mem_rejects = 0;
        self.events = 0;
    }

    fn enqueue<S: NodeStore>(&mut self, store: &S, id: u32) {
        let opcode = store.opcode(id);
        if opcode.is_memory() {
            self.ready_mem.insert(id);
        } else {
            let slot = store.lane(id) as usize * CLASSES + opcode.fu_class().index();
            self.ready_compute[slot].push(Reverse(id));
            self.ready_mask[slot / 64] |= 1u64 << (slot % 64);
        }
        self.ready_count += 1;
    }

    /// Make a dependence-free node available, honoring the round barrier.
    pub(crate) fn release<S: NodeStore>(&mut self, store: &S, id: u32) {
        let round = store.round(id);
        if self.barrier && round > self.current_round {
            self.rounds[(round - self.current_round) as usize]
                .parked
                .push(id);
        } else {
            self.enqueue(store, id);
        }
    }

    /// Count a newly resident node of `round` toward its barrier round.
    /// Rounds arrive in order, so every round before it is final.
    #[inline]
    pub(crate) fn add_to_round(&mut self, round: u32) {
        if !self.barrier {
            return;
        }
        self.final_rounds = self.final_rounds.max(round);
        let off = (round - self.current_round) as usize;
        while self.rounds.len() <= off {
            // The current round never parks, so it takes no buffer.
            let parked = if self.rounds.is_empty() {
                Vec::new()
            } else {
                self.spare_parked.pop().unwrap_or_default()
            };
            self.rounds.push_back(RoundState {
                parked,
                ..RoundState::default()
            });
        }
        self.rounds[off].total += 1;
    }

    /// The last round streamed admission needs resident: under the
    /// barrier, `current_round + 1`, which is final once the first node
    /// past it is admitted; without a barrier, every round.
    #[inline]
    pub(crate) fn admit_frontier(&self) -> u32 {
        if self.barrier {
            self.current_round.saturating_add(1)
        } else {
            u32::MAX
        }
    }

    /// Mark every round final: no more nodes will arrive.
    #[inline]
    pub(crate) fn seal_rounds(&mut self) {
        self.final_rounds = u32::MAX;
    }

    /// Advance the barrier past every final round whose nodes have all
    /// retired, waking the next round's parked nodes. A round that is not
    /// yet final blocks advancement even when momentarily drained.
    pub(crate) fn advance_rounds<S: NodeStore>(&mut self, store: &S) {
        if !self.barrier {
            return;
        }
        while self.current_round < self.final_rounds
            && self.rounds.front().is_some_and(|r| r.done == r.total)
        {
            self.rounds.pop_front();
            self.current_round += 1;
            if let Some(next) = self.rounds.front_mut() {
                let mut parked = std::mem::take(&mut next.parked);
                for &id in &parked {
                    self.enqueue(store, id);
                }
                if self.spare_parked.len() < SPARE_PARKED {
                    parked.clear();
                    self.spare_parked.push(parked);
                }
            }
        }
    }

    #[inline]
    fn begin_busy(&mut self, cycle: u64) {
        if self.active == 0 {
            self.busy_start = cycle;
        }
        self.active += 1;
    }

    /// Retire node `id` at `cycle`. `occupied` says whether the node was
    /// counted in `active` (true for wheel-tracked ops, false for memory
    /// ops that completed via the memory system).
    fn retire<S: NodeStore>(&mut self, store: &mut S, id: u32, cycle: u64, occupied: bool) {
        let round = store.retire(id, |store, succ| self.release(store, succ));
        if occupied {
            self.active -= 1;
            if self.active == 0 {
                self.busy
                    .push(self.busy_start, cycle.max(self.busy_start + 1));
            }
        }
        self.completed += 1;
        self.events += 1;
        self.last_retire = self.last_retire.max(cycle);
        if self.barrier {
            self.rounds[(round - self.current_round) as usize].done += 1;
            self.advance_rounds(store);
        }
    }

    /// The per-cycle scheduling loop, over nodes from `store`.
    #[allow(clippy::too_many_lines)]
    pub(crate) fn run<S: NodeStore>(
        &mut self,
        store: &mut S,
        cfg: &DatapathConfig,
        mem: &mut dyn DatapathMemory,
        start: u64,
        watchdog: &Watchdog,
    ) -> Result<ScheduleResult, SimError> {
        if let Some(d) = cfg.check().first_error() {
            return Err(SimError::Diag(d.clone()));
        }
        self.reset(cfg, start);
        store.start(self)?;

        let mut cycle = start;
        let mem_budget = mem_issue_budget(cfg);
        let mut idle_cycles = 0u64;
        let mut stepped = 0u64;
        // Whether the memory system is passive (no autonomous between-cycle
        // behavior): queried once, it licenses the tightened idle jump below.
        let mem_passive = mem.is_passive();

        while !store.finished(self.completed) {
            if let Some(limit) = watchdog.max_cycles {
                if cycle.saturating_sub(start) > limit {
                    return Err(SimError::WatchdogExpired {
                        limit,
                        cycle,
                        completed: self.completed as usize,
                        total: store.total(),
                        notes: store.notes(),
                    });
                }
            }
            stepped += 1;
            mem.begin_cycle(cycle);
            let mut progressed = false;

            // 1. Retire wheel (compute + scratchpad) completions due now.
            while let Some(&Reverse((at, id))) = self.wheel.peek() {
                if at > cycle {
                    break;
                }
                self.wheel.pop();
                self.retire(store, id, at, true);
                progressed = true;
            }

            // 2. Retire memory-system completions; buffer those not yet due.
            // Every completion answers a `Pending` issue, so with none in
            // flight there is nothing to drain.
            if self.mem_inflight > 0 {
                let mut drained = std::mem::take(&mut self.drained);
                mem.drain_completions(&mut drained);
                for &(id, at) in &drained {
                    self.mem_inflight -= 1;
                    if at > cycle {
                        self.mem_wheel.push(Reverse((at, id as u32)));
                    } else {
                        self.retire(store, id as u32, at.max(cycle), false);
                        progressed = true;
                    }
                }
                drained.clear();
                self.drained = drained;
            }
            while let Some(&Reverse((at, id))) = self.mem_wheel.peek() {
                if at > cycle {
                    break;
                }
                self.mem_wheel.pop();
                self.retire(store, id, at, false);
                progressed = true;
            }

            // 2b. Admit nodes into the room retirement just made. Placed
            // before the issue phases so a node admitted this cycle can
            // issue this cycle.
            store.admit(self)?;

            // 3. Issue compute: one op per lane per class. Only slots whose
            // ready heap is non-empty are visited (bitmask), in the same
            // ascending slot order a full scan would use.
            for w in 0..self.ready_mask.len() {
                let mut word = self.ready_mask[w];
                while word != 0 {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    let slot = w * 64 + bit;
                    let heap = &mut self.ready_compute[slot];
                    let Reverse(id) = heap.pop().expect("set bit implies non-empty heap");
                    if heap.is_empty() {
                        self.ready_mask[w] &= !(1u64 << bit);
                    }
                    let class = store.opcode(id).fu_class();
                    self.wheel
                        .push(Reverse((cycle + cfg.timing.latency(class), id)));
                    self.issued_per_class[class.index()] += 1;
                    self.begin_busy(cycle);
                    self.ready_count -= 1;
                    self.events += 1;
                    progressed = true;
                }
            }

            // 4. Issue memory ops until the interface pushes back. The
            // `mem_budget` smallest ready ids are tried in ascending order,
            // so a long queue of conflicting accesses cannot make one cycle
            // O(n); a rejected op stays where it is for the next cycle.
            let mut ready_mem = std::mem::take(&mut self.ready_mem);
            ready_mem.issue_smallest(mem_budget, |id| {
                let mref = store.mem(id).expect("memory node has MemRef");
                let write = mref.kind == MemAccessKind::Write;
                match mem.issue(u64::from(id), mref.addr, mref.bytes, write, cycle) {
                    IssueResult::Done { at } => {
                        self.wheel.push(Reverse((at, id)));
                        self.issued_per_class[FuClass::Mem.index()] += 1;
                        self.begin_busy(cycle);
                        self.ready_count -= 1;
                        self.events += 1;
                        progressed = true;
                        true
                    }
                    IssueResult::Pending => {
                        // In flight inside the memory system; the datapath
                        // op is waiting, not occupying a unit, so it does
                        // not count toward busy time.
                        self.issued_per_class[FuClass::Mem.index()] += 1;
                        self.ready_count -= 1;
                        self.mem_inflight += 1;
                        self.events += 1;
                        progressed = true;
                        true
                    }
                    IssueResult::Reject => {
                        self.mem_rejects += 1;
                        false
                    }
                }
            });
            self.ready_mem = ready_mem;

            mem.end_cycle(cycle);

            // 5. Advance time, skipping ahead when provably idle. No node
            // can become ready in a skipped window: admission only follows
            // retirement, and the next retirement is the event jumped to.
            if progressed {
                idle_cycles = 0;
            } else {
                idle_cycles += 1;
                if idle_cycles >= watchdog.no_progress_cycles {
                    return Err(SimError::Deadlock(Box::new(DeadlockSnapshot {
                        cycle,
                        completed: self.completed as usize,
                        total: store.total(),
                        idle_cycles,
                        ready_compute: self.ready_count - self.ready_mem.len(),
                        ready_mem: self.ready_mem.len(),
                        wheel: wheel_snapshot(&self.wheel),
                        mem_wheel: wheel_snapshot(&self.mem_wheel),
                        mem_inflight: self.mem_inflight,
                        notes: store.notes(),
                    })));
                }
            }
            cycle = if self.ready_count == 0 {
                let wheel_next = match (
                    self.wheel.peek().map(|&Reverse((at, _))| at),
                    self.mem_wheel.peek().map(|&Reverse((at, _))| at),
                ) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                let in_wheels = (self.wheel.len() + self.mem_wheel.len()) as u64;
                let wheel_only = store.finished(self.completed + in_wheels);
                match wheel_next {
                    // Only wheel events pending and nothing else in flight:
                    // jump straight to the next completion. With a passive
                    // memory (no autonomous between-cycle behavior) the same
                    // jump is safe whenever no memory op is in flight, even
                    // if dependents are still waiting on those wheel retires
                    // — nothing can become ready before the next retire, and
                    // a passive memory cannot act in the skipped window.
                    Some(w) if wheel_only || (mem_passive && self.mem_inflight == 0) => {
                        w.max(cycle + 1)
                    }
                    _ => cycle + 1,
                }
            } else {
                cycle + 1
            };
        }

        let end = self.last_retire.max(start);
        Ok(ScheduleResult {
            start,
            end,
            busy: std::mem::take(&mut self.busy),
            issued_per_class: self.issued_per_class,
            mem_rejects: self.mem_rejects,
            cycles: end - start,
            stepped_cycles: stepped,
            events: self.events,
        })
    }
}

/// Summarize a completion wheel as `(due_cycle, count)` pairs, soonest
/// first, truncated to the eight soonest distinct cycles.
fn wheel_snapshot(wheel: &BinaryHeap<Reverse<(u64, u32)>>) -> Vec<(u64, u32)> {
    let mut times: Vec<u64> = wheel.iter().map(|&Reverse((at, _))| at).collect();
    times.sort_unstable();
    let mut out: Vec<(u64, u32)> = Vec::new();
    for t in times {
        match out.last_mut() {
            Some((cycle, count)) if *cycle == t => *count += 1,
            _ => out.push((t, 1)),
        }
    }
    out.truncate(8);
    out
}

/// The prepared store: an in-memory trace and its [`PreparedDddg`]. Every
/// node is resident from the start, so admission is a no-op and every
/// barrier round is final from the start. Lanes and rounds derive from
/// the graph's iteration instances and this run's lane count.
struct Prepared<'a> {
    nodes: &'a [TraceNode],
    graph: &'a PreparedDddg,
    lanes: u32,
    indeg: &'a mut [u32],
}

impl NodeStore for Prepared<'_> {
    fn opcode(&self, id: u32) -> Opcode {
        self.nodes[id as usize].opcode
    }

    fn mem(&self, id: u32) -> Option<MemRef> {
        self.nodes[id as usize].mem
    }

    fn lane(&self, id: u32) -> u32 {
        self.graph.instances()[id as usize] % self.lanes
    }

    fn round(&self, id: u32) -> u32 {
        self.graph.instances()[id as usize] / self.lanes
    }

    fn retire(&mut self, id: u32, mut release: impl FnMut(&Self, u32)) -> u32 {
        let graph = self.graph;
        for &succ in graph.successors(NodeId::from_index(id as usize)) {
            self.indeg[succ as usize] -= 1;
            if self.indeg[succ as usize] == 0 {
                release(self, succ);
            }
        }
        self.round(id)
    }

    fn start(&mut self, st: &mut SchedState) -> Result<(), SimError> {
        if st.barrier {
            st.rounds
                .extend(self.graph.round_totals(self.lanes).map(|total| RoundState {
                    total,
                    ..RoundState::default()
                }));
        }
        st.seal_rounds();
        for id in 0..self.nodes.len() as u32 {
            if self.indeg[id as usize] == 0 {
                st.release(self, id);
            }
        }
        Ok(())
    }

    fn admit(&mut self, _st: &mut SchedState) -> Result<(), SimError> {
        Ok(())
    }

    fn finished(&self, completed: u64) -> bool {
        completed == self.nodes.len() as u64
    }

    fn total(&self) -> usize {
        self.nodes.len()
    }

    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Schedule `trace` on the datapath described by `cfg`, with memory
/// operations serviced by `mem`, starting at absolute cycle `start`.
///
/// Returns cycle-level results; `mem` retains its own statistics (accesses,
/// conflicts, stalls) for the power model.
///
/// One-shot convenience over [`try_schedule_prepared`]: builds the DDDG and
/// a fresh workspace internally and runs under the default watchdog.
/// Sweeps that revisit the same trace should prepare once and reuse a
/// workspace instead.
///
/// # Errors
///
/// As for [`try_schedule_prepared`].
pub fn schedule(
    trace: &Trace,
    cfg: &DatapathConfig,
    mem: &mut dyn DatapathMemory,
    start: u64,
) -> Result<ScheduleResult, SimError> {
    let prepared = PreparedDddg::new(trace, cfg);
    let mut ws = SchedulerWorkspace::new();
    try_schedule_prepared(
        trace,
        cfg,
        &prepared,
        &mut ws,
        mem,
        start,
        &Watchdog::default(),
    )
}

/// Schedule an in-memory `trace` with its DDDG prepared up front and the
/// loop's buffers supplied by a reusable workspace — the sweep fast path.
/// The watchdog's no-progress and max-cycles guards return typed
/// [`SimError`]s carrying a forensic [`DeadlockSnapshot`] instead of
/// panicking, so sweeps can record the failed point and keep going.
///
/// # Errors
///
/// `SimError::Diag` with [`DatapathConfig::check`]'s first error (`L0201`)
/// for an invalid `cfg`; `SimError::Deadlock` when no progress is made
/// for `watchdog.no_progress_cycles` consecutive stepped cycles;
/// `SimError::WatchdogExpired` when the simulated cycle count crosses
/// `watchdog.max_cycles`.
///
/// # Panics
///
/// Panics if `prepared` was built for another trace — a caller bug,
/// detectable before any simulation starts.
pub fn try_schedule_prepared(
    trace: &Trace,
    cfg: &DatapathConfig,
    prepared: &PreparedDddg,
    ws: &mut SchedulerWorkspace,
    mem: &mut dyn DatapathMemory,
    start: u64,
    watchdog: &Watchdog,
) -> Result<ScheduleResult, SimError> {
    assert_eq!(
        prepared.len(),
        trace.nodes().len(),
        "PreparedDddg built for another trace"
    );
    let SchedulerWorkspace { indeg, state, .. } = ws;
    indeg.clear();
    indeg.extend_from_slice(prepared.indegrees());
    let mut store = Prepared {
        nodes: trace.nodes(),
        graph: prepared,
        lanes: cfg.lanes,
        indeg,
    };
    state.run(&mut store, cfg, mem, start, watchdog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meminterface::SpadMemory;
    use aladdin_ir::{ArrayKind, Opcode, TVal, Tracer};

    /// `iters` independent iterations, each: 2 loads, fmul, store.
    fn parallel_kernel(iters: usize) -> Trace {
        let mut t = Tracer::new("par");
        let a = t.array_f64("a", &vec![1.0; iters], ArrayKind::Input);
        let b = t.array_f64("b", &vec![2.0; iters], ArrayKind::Input);
        let mut c = t.array_f64("c", &vec![0.0; iters], ArrayKind::Output);
        for i in 0..iters {
            t.begin_iteration(i as u32);
            let x = t.load(&a, i);
            let y = t.load(&b, i);
            let p = t.binop(Opcode::FMul, x, y);
            t.store(&mut c, i, p);
        }
        t.finish()
    }

    fn run(trace: &Trace, cfg: &DatapathConfig) -> ScheduleResult {
        let mut mem = SpadMemory::new(trace, cfg);
        schedule(trace, cfg, &mut mem, 0).expect("schedules")
    }

    /// `ReadyMem` against a `BTreeSet` reference: random inserts, including
    /// ids below every ready one and far above it, and rounds that offer
    /// the budget smallest ids and accept a random subset.
    #[test]
    fn ready_mem_matches_an_ordered_set() {
        use aladdin_rng::SmallRng;
        use std::collections::BTreeSet;
        for case in 0..64u64 {
            let mut rng = SmallRng::seed_from_u64(0x4EAD + case);
            let span = rng.gen_range(1..5_000u32);
            let mut ready = ReadyMem::default();
            let mut reference = BTreeSet::new();
            for _ in 0..400 {
                for _ in 0..rng.gen_range(0..6usize) {
                    let id = rng.gen_range(0..span);
                    if reference.insert(id) {
                        ready.insert(id);
                    }
                }
                let budget = rng.gen_range(1..40usize);
                let expected: Vec<u32> = reference.iter().copied().take(budget).collect();
                let (mut offered, mut accepted) = (Vec::new(), Vec::new());
                ready.issue_smallest(budget, |id| {
                    offered.push(id);
                    let ok = rng.gen_bool(0.3);
                    if ok {
                        accepted.push(id);
                    }
                    ok
                });
                assert_eq!(offered, expected, "case {case}");
                for id in accepted {
                    reference.remove(&id);
                }
                let mut all = Vec::new();
                ready.issue_smallest(usize::MAX, |id| {
                    all.push(id);
                    false
                });
                assert!(all.iter().eq(reference.iter()), "case {case}");
                assert_eq!(ready.len(), reference.len(), "case {case}");
            }
        }
    }

    /// Wraps a memory and hides its passivity, forcing the scheduler onto
    /// the untightened cycle-by-cycle idle path — the pre-optimization
    /// reference behavior.
    struct NotPassive<'a>(&'a mut SpadMemory);

    impl DatapathMemory for NotPassive<'_> {
        fn begin_cycle(&mut self, cycle: u64) {
            self.0.begin_cycle(cycle);
        }
        fn issue(
            &mut self,
            id: u64,
            addr: u64,
            bytes: u32,
            write: bool,
            cycle: u64,
        ) -> IssueResult {
            self.0.issue(id, addr, bytes, write, cycle)
        }
        fn drain_completions(&mut self, out: &mut Vec<(u64, u64)>) {
            self.0.drain_completions(out);
        }
        fn end_cycle(&mut self, cycle: u64) {
            self.0.end_cycle(cycle);
        }
    }

    /// A memory that accepts every issue and never completes any of them —
    /// the shape of a lost-completion bug, used to exercise the watchdog.
    #[derive(Default)]
    struct BlackHoleMemory;

    impl DatapathMemory for BlackHoleMemory {
        fn begin_cycle(&mut self, _cycle: u64) {}
        fn issue(
            &mut self,
            _id: u64,
            _addr: u64,
            _bytes: u32,
            _write: bool,
            _cycle: u64,
        ) -> IssueResult {
            IssueResult::Pending
        }
        fn drain_completions(&mut self, _out: &mut Vec<(u64, u64)>) {}
        fn end_cycle(&mut self, _cycle: u64) {}
    }

    #[test]
    fn deadlock_is_a_typed_error_with_a_forensic_snapshot() {
        let trace = parallel_kernel(4);
        let cfg = DatapathConfig::default();
        let prepared = PreparedDddg::new(&trace, &cfg);
        let mut ws = SchedulerWorkspace::new();
        let wd = Watchdog {
            max_cycles: None,
            no_progress_cycles: 64,
        };
        let err = try_schedule_prepared(
            &trace,
            &cfg,
            &prepared,
            &mut ws,
            &mut BlackHoleMemory,
            0,
            &wd,
        )
        .unwrap_err();
        assert_eq!(err.code(), "L0232");
        let SimError::Deadlock(snap) = err else {
            panic!("expected a deadlock, got {err}");
        };
        assert_eq!(snap.idle_cycles, 64);
        assert!(snap.mem_inflight > 0, "the black hole swallowed issues");
        assert!(snap.completed < snap.total);
        assert_eq!(snap.total, trace.nodes().len());
    }

    #[test]
    fn watchdog_cycle_ceiling_is_a_typed_error() {
        let mut t = Tracer::new("chain");
        let mut acc = TVal::lit(1.0);
        for _ in 0..10 {
            acc = t.binop(Opcode::FAdd, acc, TVal::lit(1.0));
        }
        let trace = t.finish();
        let cfg = DatapathConfig::default();
        let mut mem = SpadMemory::new(&trace, &cfg);
        let wd = Watchdog {
            max_cycles: Some(10),
            no_progress_cycles: 4_000_000,
        };
        // The chain needs 30 cycles; a 10-cycle ceiling must expire.
        let prepared = PreparedDddg::new(&trace, &cfg);
        let mut ws = SchedulerWorkspace::new();
        let err =
            try_schedule_prepared(&trace, &cfg, &prepared, &mut ws, &mut mem, 0, &wd).unwrap_err();
        assert_eq!(err.code(), "L0233");
        assert!(err.to_string().contains("watchdog expired"));
    }

    #[test]
    fn try_schedule_matches_schedule_under_default_watchdog() {
        let trace = parallel_kernel(16);
        let cfg = DatapathConfig {
            lanes: 4,
            partition: 4,
            ..DatapathConfig::default()
        };
        let mut mem = SpadMemory::new(&trace, &cfg);
        let prepared = PreparedDddg::new(&trace, &cfg);
        let mut ws = SchedulerWorkspace::new();
        let fallible = try_schedule_prepared(
            &trace,
            &cfg,
            &prepared,
            &mut ws,
            &mut mem,
            0,
            &Watchdog::default(),
        )
        .unwrap();
        let mut mem2 = SpadMemory::new(&trace, &cfg);
        let infallible = schedule(&trace, &cfg, &mut mem2, 0).expect("schedules");
        assert_eq!(fallible, infallible);
    }

    #[test]
    fn empty_trace_is_zero_cycles() {
        let trace = Tracer::new("e").finish();
        let r = run(&trace, &DatapathConfig::default());
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn serial_chain_takes_critical_path() {
        let mut t = Tracer::new("chain");
        let mut acc = TVal::lit(1.0);
        for _ in 0..10 {
            acc = t.binop(Opcode::FAdd, acc, TVal::lit(1.0));
        }
        let trace = t.finish();
        let r = run(&trace, &DatapathConfig::default());
        // 10 dependent FAdds at 3 cycles each; each issues the cycle after
        // its predecessor completes.
        assert_eq!(r.cycles, 30);
    }

    #[test]
    fn idle_jump_shrinks_stepped_cycles_without_changing_results() {
        // A serial chain is maximally idle-heavy: after each issue the
        // scheduler waits out the full FU latency with nothing ready.
        let mut t = Tracer::new("idle-chain");
        let mut acc = TVal::lit(1.0);
        for _ in 0..50 {
            acc = t.binop(Opcode::FDiv, acc, TVal::lit(2.0)); // 16-cycle FU
        }
        let trace = t.finish();
        let cfg = DatapathConfig::default();

        let fast = run(&trace, &cfg);
        let mut spad = SpadMemory::new(&trace, &cfg);
        let slow = schedule(&trace, &cfg, &mut NotPassive(&mut spad), 0).expect("schedules");

        // The tightened jump may not skip a retire or change any outcome.
        assert_eq!(fast.end, slow.end);
        assert_eq!(fast.busy, slow.busy);
        assert_eq!(fast.issued_per_class, slow.issued_per_class);
        assert_eq!(fast.mem_rejects, slow.mem_rejects);
        assert_eq!(fast.events, slow.events);
        // ...but it must do far fewer loop iterations than cycles exist.
        // The reference path only jumps once everything is in the wheel
        // (the final op), so it steps nearly every cycle.
        assert!(slow.stepped_cycles > slow.cycles - 16);
        assert!(
            fast.stepped_cycles * 4 < slow.stepped_cycles,
            "fast path stepped {} of {} cycles",
            fast.stepped_cycles,
            slow.stepped_cycles
        );
    }

    #[test]
    fn prepared_and_workspace_reuse_match_one_shot_schedule() {
        let trace = parallel_kernel(32);
        let mut ws = SchedulerWorkspace::new();
        // Reuse the same preparation and the same workspace across
        // everything.
        let prepared = PreparedDddg::new(&trace, &DatapathConfig::default());
        for lanes in [1u32, 2, 4, 8] {
            for partition in [1u32, 2, 8] {
                for sync in [LaneSync::Barrier, LaneSync::Free] {
                    let cfg = DatapathConfig {
                        lanes,
                        partition,
                        sync,
                        ..DatapathConfig::default()
                    };
                    let mut mem = SpadMemory::new(&trace, &cfg);
                    let fast = try_schedule_prepared(
                        &trace,
                        &cfg,
                        &prepared,
                        &mut ws,
                        &mut mem,
                        7,
                        &Watchdog::default(),
                    )
                    .unwrap();
                    let mut mem2 = SpadMemory::new(&trace, &cfg);
                    let one_shot = schedule(&trace, &cfg, &mut mem2, 7).expect("schedules");
                    assert_eq!(fast, one_shot, "lanes={lanes} partition={partition}");
                    assert_eq!(mem.stats(), mem2.stats());
                }
            }
        }
    }

    /// One graph per kernel schedules every lane count, in any order, on
    /// one reused workspace — exactly as the streamed store does with a
    /// window holding the whole trace.
    #[test]
    fn one_graph_serves_every_lane_count() {
        use crate::window::{trace_node_stream, try_schedule_windowed};
        use aladdin_rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0x1A7E);
        let mut ws = SchedulerWorkspace::new();
        for kernel in aladdin_workloads::evaluation_kernels() {
            let trace = kernel.run().trace;
            let prepared = PreparedDddg::new(&trace, &DatapathConfig::default());
            let mut lanes = [1u32, 2, 3, 8, 16];
            rng.shuffle(&mut lanes);
            for lanes in lanes {
                let cfg = DatapathConfig {
                    lanes,
                    partition: 4,
                    ..DatapathConfig::default()
                };
                let mut mem = SpadMemory::new(&trace, &cfg);
                let shared = try_schedule_prepared(
                    &trace,
                    &cfg,
                    &prepared,
                    &mut ws,
                    &mut mem,
                    0,
                    &Watchdog::default(),
                )
                .unwrap();
                let mut mem2 = SpadMemory::new(&trace, &cfg);
                let streamed = try_schedule_windowed(
                    trace_node_stream(&trace),
                    &cfg,
                    &mut SchedulerWorkspace::new(),
                    &mut mem2,
                    0,
                    &Watchdog::default(),
                    trace.nodes().len(),
                )
                .unwrap();
                assert_eq!(shared, streamed.result, "{} lanes={lanes}", kernel.name());
                assert_eq!(mem.stats(), mem2.stats(), "{} lanes={lanes}", kernel.name());
            }
        }
    }

    #[test]
    fn more_lanes_speed_up_parallel_work() {
        let trace = parallel_kernel(64);
        let mut prev = u64::MAX;
        for lanes in [1u32, 2, 4, 8] {
            let cfg = DatapathConfig {
                lanes,
                partition: lanes * 2, // scale memory with compute
                ..DatapathConfig::default()
            };
            let r = run(&trace, &cfg);
            assert!(r.cycles < prev, "lanes={lanes}: {} !< {prev}", r.cycles);
            prev = r.cycles;
        }
    }

    #[test]
    fn memory_bandwidth_limits_speedup() {
        let trace = parallel_kernel(64);
        // Many lanes but a single scratchpad bank: loads serialize.
        let starved = run(
            &trace,
            &DatapathConfig {
                lanes: 16,
                partition: 1,
                ..DatapathConfig::default()
            },
        );
        let fed = run(
            &trace,
            &DatapathConfig {
                lanes: 16,
                partition: 16,
                ..DatapathConfig::default()
            },
        );
        assert!(
            starved.cycles > 2 * fed.cycles,
            "bank starvation must dominate: {} vs {}",
            starved.cycles,
            fed.cycles
        );
        assert!(starved.mem_rejects > 0);
    }

    #[test]
    fn barrier_never_beats_free_sync() {
        let trace = parallel_kernel(8);
        let cfg_barrier = DatapathConfig {
            lanes: 4,
            partition: 8,
            sync: LaneSync::Barrier,
            ..DatapathConfig::default()
        };
        let cfg_free = DatapathConfig {
            sync: LaneSync::Free,
            ..cfg_barrier
        };
        let b = run(&trace, &cfg_barrier);
        let f = run(&trace, &cfg_free);
        assert!(
            f.cycles <= b.cycles,
            "free sync can only help: {} vs {}",
            f.cycles,
            b.cycles
        );
    }

    #[test]
    fn single_lane_issues_at_most_one_per_class_per_cycle() {
        // 8 independent FMuls in one iteration → one lane → 8 issue
        // cycles even though all are ready immediately.
        let mut t = Tracer::new("one-lane");
        for _ in 0..8 {
            let _ = t.binop(Opcode::FMul, TVal::lit(2.0), TVal::lit(3.0));
        }
        let trace = t.finish();
        let r = run(&trace, &DatapathConfig::default());
        // Last issue at cycle 7, +4 latency.
        assert_eq!(r.cycles, 11);
        assert_eq!(r.issued_per_class[FuClass::FpMul.index()], 8);
    }

    #[test]
    fn different_classes_issue_in_parallel_within_a_lane() {
        let mut t = Tracer::new("mix");
        for _ in 0..4 {
            let _ = t.binop(Opcode::FMul, TVal::lit(2.0), TVal::lit(3.0));
            let _ = t.ibinop(Opcode::Add, TVal::lit(1), TVal::lit(1));
        }
        let trace = t.finish();
        let r = run(&trace, &DatapathConfig::default());
        // FMuls: issue cycles 0..3, last completes at 7; Adds overlap.
        assert_eq!(r.cycles, 7);
    }

    #[test]
    fn busy_intervals_cover_work() {
        let trace = parallel_kernel(16);
        let r = run(
            &trace,
            &DatapathConfig {
                lanes: 4,
                partition: 4,
                ..DatapathConfig::default()
            },
        );
        assert!(r.busy.total() > 0);
        assert!(r.busy.total() <= r.cycles);
        let issued: u64 = r.issued_per_class.iter().sum();
        assert!(issued as f64 / r.busy.total() as f64 > 0.5);
    }

    #[test]
    fn start_offset_respected() {
        let trace = parallel_kernel(4);
        let cfg = DatapathConfig::default();
        let mut mem = SpadMemory::new(&trace, &cfg);
        let r = schedule(&trace, &cfg, &mut mem, 1000).expect("schedules");
        assert_eq!(r.start, 1000);
        assert!(r.end > 1000);
        assert_eq!(r.busy.start().unwrap(), 1000);
    }

    #[test]
    fn ready_bits_delay_compute_until_arrival() {
        let trace = parallel_kernel(8);
        let cfg = DatapathConfig {
            lanes: 2,
            partition: 2,
            ..DatapathConfig::default()
        };
        // All data arrives at cycle 500.
        let mut mem = SpadMemory::new(&trace, &cfg);
        mem.enable_ready_bits();
        for arr in trace.arrays().iter().filter(|a| a.kind.is_input()) {
            mem.push_arrival(arr.base_addr, arr.size_bytes() as u32, 500);
        }
        let r = schedule(&trace, &cfg, &mut mem, 0).expect("schedules");
        assert!(r.end > 500, "compute cannot finish before data: {}", r.end);

        // Versus: data pre-arrived at cycle 0 — much faster.
        let mut mem2 = SpadMemory::new(&trace, &cfg);
        mem2.enable_ready_bits();
        for arr in trace.arrays().iter().filter(|a| a.kind.is_input()) {
            mem2.push_arrival(arr.base_addr, arr.size_bytes() as u32, 0);
        }
        let r2 = schedule(&trace, &cfg, &mut mem2, 0).expect("schedules");
        assert!(r2.end < 100);
    }

    #[test]
    fn waw_ordering_preserved_under_parallelism() {
        // Two stores to the same element from different iterations: the
        // second must retire after the first (WAW dependence), so the final
        // memory state is deterministic.
        let mut t = Tracer::new("waw");
        let mut o = t.array_f64("o", &[0.0], ArrayKind::Output);
        t.begin_iteration(0);
        let s0 = t.store(&mut o, 0, TVal::lit(1.0));
        t.begin_iteration(1);
        let s1 = t.store(&mut o, 0, TVal::lit(2.0));
        assert!(s1.index() > s0.index());
        let trace = t.finish();
        let cfg = DatapathConfig {
            lanes: 2,
            partition: 4,
            ports_per_bank: 4,
            sync: LaneSync::Free,
            ..DatapathConfig::default()
        };
        let r = run(&trace, &cfg);
        // Store 2 depends on store 1: at least two serialized accesses.
        assert!(r.cycles >= 2, "cycles={}", r.cycles);
    }
}
