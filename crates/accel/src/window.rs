//! Windowed DDDG construction and scheduling over a node stream.
//!
//! The prepared store ([`try_schedule_prepared`]) needs the whole trace —
//! `Vec<TraceNode>` plus a [`PreparedDddg`](crate::PreparedDddg) with
//! successor lists and in-degrees for every node — resident in memory
//! before the first cycle is simulated. That is the scale bottleneck for
//! paper-scale++ kernels: a multi-million-node bfs or fft blows out memory
//! long before the scheduler itself becomes the limit.
//!
//! [`try_schedule_windowed`] instead runs the same scheduling loop over a
//! *streamed* store: the trace arrives as an *iterator* of nodes
//! (typically an `.atrc` reader, see `aladdin_ir::AtrcTrace`: `nodes()`
//! decodes on the scheduling thread, `nodes_ahead()` on a second thread
//! that keeps a few blocks ahead of admission) and at most
//! `window_nodes` nodes are *resident*: a node is admitted when fewer than
//! `window_nodes` nodes are resident, its dependence edges are resolved on
//! admission (dependences always point backwards, and admission is in
//! program order, so an absent dependence has already retired), and
//! retirement frees the node's edge storage.
//!
//! # Memory bound
//!
//! Resident nodes never exceed `window_nodes`. They live in a dense ring
//! of slots indexed by `id − base`, where `base` is the oldest unretired
//! node id; retired slots at the front are trimmed. The ring is allocated
//! once per run, for the window (at most [`DEFAULT_WINDOW_NODES`]) plus
//! an eighth, rather than grown through a chain of reallocations. The
//! node stream adds its own buffers: one block for an inline `.atrc`
//! decode, a few for a decode-ahead one. Slot storage is
//! therefore O(live id span): the distance from the oldest unretired node
//! to the newest admitted one. Under [`LaneSync::Barrier`] with the window
//! holding the largest round, that span is at most one round plus the
//! window. Under [`LaneSync::Free`] a long-latency old node can hold the
//! span open past the window while younger nodes retire around it; the
//! resident count, and so admission, is still capped at the window.
//!
//! # Exactness
//!
//! One loop runs both stores, so they can differ only in *when* a node
//! becomes resident. The streamed store admits after each cycle's
//! retirements and before its issue phases. Under the default
//! [`LaneSync::Barrier`] model, iteration instances are monotone in
//! program order, so each barrier round occupies a contiguous node-id
//! range; whenever `window_nodes` is at least the largest round's node
//! count, every node is admitted no later than the cycle it could first
//! become ready, and the result — including `stepped_cycles` and busy
//! intervals — is bit-identical to the prepared store. Smaller windows
//! (and [`LaneSync::Free`]) remain *sound*: every dependence is still
//! honored and the schedule completes, but late admission can delay issue,
//! so cycle counts may differ. The equivalence and property tests in this
//! module and in `tests/` certify both claims.
//!
//! [`try_schedule_prepared`]: crate::try_schedule_prepared
//! [`LaneSync::Barrier`]: crate::LaneSync::Barrier
//! [`LaneSync::Free`]: crate::LaneSync::Free

use std::collections::VecDeque;
use std::iter::Peekable;

use aladdin_faults::{SimError, Watchdog};
use aladdin_ir::{Diagnostic, MemRef, Opcode, StatsAccumulator, TraceNode, TraceStats};

use crate::config::DatapathConfig;
use crate::dddg::Instances;
use crate::meminterface::DatapathMemory;
use crate::scheduler::{NodeStore, SchedState, ScheduleResult, SchedulerWorkspace};

/// Default sliding-window size for streamed scheduling: large enough that
/// every workload kernel's barrier rounds fit with room to spare (keeping
/// the windowed path bit-exact), small enough that resident graph state
/// stays in the tens of megabytes even for multi-million-node traces.
pub const DEFAULT_WINDOW_NODES: usize = 65_536;

/// Outcome of a windowed scheduling run: the cycle-level schedule plus the
/// streaming-side observations the prepared path gets for free from the
/// in-memory trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowedOutcome {
    /// The schedule, field-for-field comparable with the prepared path's
    /// result.
    pub result: ScheduleResult,
    /// Maximum number of simultaneously resident (admitted, unretired)
    /// nodes — the windowed path's memory ceiling, bounded by the
    /// `window_nodes` argument.
    pub peak_resident_nodes: u64,
    /// Trace statistics accumulated at admission, equal to
    /// `Trace::stats()` of the materialized trace.
    pub stats: TraceStats,
}

/// Successors stored inline per node before spilling to the heap. DDDG
/// nodes have few consumers (stream-fma averages 1.2), so nearly every
/// node's edges need no allocation.
const INLINE_SUCCS: usize = 4;

/// A node's successor ids, kept in the order they were added: the first
/// [`INLINE_SUCCS`] inline, the rest in `spill`.
#[derive(Default)]
struct Succs {
    len: u32,
    inline: [u32; INLINE_SUCCS],
    spill: Vec<u32>,
}

impl Succs {
    #[inline]
    fn push(&mut self, succ: u32) {
        let n = self.len as usize;
        if n < INLINE_SUCCS {
            self.inline[n] = succ;
        } else {
            self.spill.push(succ);
        }
        self.len += 1;
    }

    /// Successors in insertion order.
    #[inline]
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let n = (self.len as usize).min(INLINE_SUCCS);
        self.inline[..n].iter().chain(&self.spill).copied()
    }
}

/// A node slot: the slice of [`TraceNode`] plus graph state the loop
/// needs between admission and retirement. A retired slot stays in the
/// ring (with `live` cleared) until every older slot has retired too.
struct WNode {
    opcode: Opcode,
    mem: Option<MemRef>,
    lane: u32,
    round: u32,
    indeg: u32,
    live: bool,
    succs: Succs,
}

/// Resident nodes, densely indexed by `id − base`. Admission appends in
/// program order, so slot `i` always holds node `base + i`; retirement
/// clears a slot and trims retired slots off the front, advancing `base`
/// to the oldest unretired id.
#[derive(Default)]
struct NodeRing {
    base: u32,
    slots: VecDeque<WNode>,
    /// Unretired nodes — the count admission is gated on.
    live: usize,
    /// Slot count past which the ring grows by an eighth instead of
    /// doubling (see [`NodeRing::push`]).
    window: usize,
}

impl NodeRing {
    /// The live node `id`, if it has been admitted and not yet retired.
    #[inline]
    fn get_mut(&mut self, id: u32) -> Option<&mut WNode> {
        let off = id.checked_sub(self.base)? as usize;
        self.slots.get_mut(off).filter(|n| n.live)
    }

    /// The node `id`, which must be resident.
    #[inline]
    fn node(&self, id: u32) -> &WNode {
        &self.slots[(id - self.base) as usize]
    }

    #[inline]
    fn node_mut(&mut self, id: u32) -> &mut WNode {
        &mut self.slots[(id - self.base) as usize]
    }

    /// A ring for `window` resident nodes, allocated once for up to the
    /// default window plus the eighth a full window overshoots by, so a
    /// streamed run does not grow it through a chain of reallocations.
    fn new(window: usize) -> Self {
        let slots = window.min(DEFAULT_WINDOW_NODES);
        NodeRing {
            window,
            slots: VecDeque::with_capacity(slots + slots / 8),
            ..NodeRing::default()
        }
    }

    /// Append node `id`, which must be the next id in program order. An
    /// empty ring needs no re-basing: trimming advanced `base` past every
    /// retired id, so it already equals `id`.
    ///
    /// A ring starts with room for its window plus an eighth (for at most
    /// the default window); up to the window it doubles as it fills, and
    /// past it, it grows by an eighth. A full window's span overshoots the
    /// window by only the few retired slots not yet trimmed, and the head
    /// wraps through the ring's whole capacity, so doubling there would
    /// nearly double the memory a full-window run touches.
    #[inline]
    fn push(&mut self, id: u32, node: WNode) {
        debug_assert_eq!(id, self.base + self.slots.len() as u32);
        let len = self.slots.len();
        if len == self.slots.capacity() && len >= self.window {
            self.slots.reserve_exact((len / 8).max(1));
        }
        self.slots.push_back(node);
        self.live += 1;
    }

    /// Retire resident node `id`, returning its round and successors.
    #[inline]
    fn retire(&mut self, id: u32) -> (u32, Succs) {
        let node = self.node_mut(id);
        debug_assert!(node.live, "retired node is resident");
        node.live = false;
        let out = (node.round, std::mem::take(&mut node.succs));
        self.live -= 1;
        while self.slots.front().is_some_and(|n| !n.live) {
            self.slots.pop_front();
            self.base += 1;
        }
        out
    }
}

/// The streamed store: a node stream admitted in program order into a
/// [`NodeRing`] of at most `window` live nodes.
///
/// Being generic over the stream, the scheduling loop over this store is
/// compiled in the caller's crate. The small per-node helpers it calls
/// (here, on `ReadyMem` and on `SchedState`) are `#[inline]` so they can
/// be inlined there too: as opaque calls they cost ~15% of stream-fma
/// scheduling time.
struct Streamed<I: Iterator> {
    iter: Peekable<I>,
    window: usize,
    lanes: u32,
    nodes: NodeRing,
    admitted: u64,
    instances: Instances,
    eof: bool,
    peak_resident: u64,
    stats: StatsAccumulator,
}

impl<I> Streamed<I>
where
    I: Iterator<Item = Result<TraceNode, Diagnostic>>,
{
    /// Admit one node: assign its lane and round from its iteration
    /// instance (the rule [`PreparedDddg`](crate::PreparedDddg) numbers
    /// instances by), resolve its dependence edges against the resident
    /// set, and release it if dependence-free.
    fn admit_node(&mut self, node: &TraceNode, st: &mut SchedState) -> Result<(), Diagnostic> {
        let id = node.id.index() as u64;
        if id != self.admitted {
            return Err(Diagnostic::error(
                "L0280",
                format!(
                    "trace stream is not in dense program order: expected node {}, got {id}",
                    self.admitted
                ),
            ));
        }
        self.admitted += 1;
        self.stats.push(node);

        let instance = self.instances.next(node.iteration);
        let lane = instance % self.lanes;
        let round = instance / self.lanes;
        st.add_to_round(round);

        let idx = node.id.index() as u32;
        let mut indeg = 0u32;
        for dep in &node.deps {
            let d = dep.index() as u32;
            if u64::from(d) >= id {
                return Err(Diagnostic::error(
                    "L0280",
                    format!("node {id} depends on non-earlier node {d}"),
                ));
            }
            if let Some(p) = self.nodes.get_mut(d) {
                p.succs.push(idx);
                indeg += 1;
            }
            // An absent dependence has already retired: admission follows
            // program order, so every earlier node was admitted before us.
        }
        self.nodes.push(
            idx,
            WNode {
                opcode: node.opcode,
                mem: node.mem,
                lane,
                round,
                indeg,
                live: true,
                succs: Succs::default(),
            },
        );
        if indeg == 0 {
            st.release(self, idx);
        }
        Ok(())
    }
}

impl<I> NodeStore for Streamed<I>
where
    I: Iterator<Item = Result<TraceNode, Diagnostic>>,
{
    fn opcode(&self, id: u32) -> Opcode {
        self.nodes.node(id).opcode
    }

    fn mem(&self, id: u32) -> Option<MemRef> {
        self.nodes.node(id).mem
    }

    fn lane(&self, id: u32) -> u32 {
        self.nodes.node(id).lane
    }

    fn round(&self, id: u32) -> u32 {
        self.nodes.node(id).round
    }

    fn retire(&mut self, id: u32, mut release: impl FnMut(&Self, u32)) -> u32 {
        let (round, succs) = self.nodes.retire(id);
        for succ in succs.iter() {
            let s = self.nodes.node_mut(succ);
            debug_assert!(s.live, "successor of a resident node is resident");
            s.indeg -= 1;
            if s.indeg == 0 {
                release(self, succ);
            }
        }
        round
    }

    /// Admit nodes until the window is full or the stream ends, then
    /// probe (without consuming) whether the stream is exhausted so
    /// end-of-trace is known the moment the last node is admitted.
    fn admit(&mut self, st: &mut SchedState) -> Result<(), SimError> {
        while self.nodes.live < self.window {
            match self.iter.next() {
                Some(Ok(node)) => self.admit_node(&node, st)?,
                Some(Err(d)) => return Err(SimError::from(d)),
                None => break,
            }
        }
        if self.iter.peek().is_none() {
            self.eof = true;
            st.seal_rounds();
        }
        self.peak_resident = self.peak_resident.max(self.nodes.live as u64);
        st.advance_rounds(self);
        Ok(())
    }

    fn finished(&self, completed: u64) -> bool {
        self.eof && completed == self.admitted
    }

    fn total(&self) -> usize {
        self.admitted as usize
    }

    fn notes(&self) -> Vec<String> {
        vec!["windowed: total counts admitted nodes only".to_string()]
    }
}

/// Schedule a stream of trace nodes on the datapath described by `cfg`,
/// keeping at most `window_nodes` nodes resident — the streaming
/// counterpart of [`try_schedule_prepared`](crate::try_schedule_prepared),
/// running the same loop on buffers from the same reusable `ws`.
///
/// `nodes` yields [`TraceNode`]s in dense program order (node 0, 1, 2, …),
/// as `aladdin_ir::AtrcTrace::nodes()` does; stream items are fallible so
/// a corrupt `.atrc` block surfaces as a typed diagnostic mid-run instead
/// of a panic. `window_nodes` is clamped to at least 1.
///
/// See the module docs for the exactness guarantee: bit-identical to the
/// prepared path under [`LaneSync::Barrier`] whenever the window holds
/// the largest barrier round, sound (all dependences honored) otherwise.
///
/// # Errors
///
/// `SimError::Diag` for an invalid `cfg` (as for the prepared path), or if
/// the stream yields an error or is not in dense program order;
/// `SimError::Deadlock` and `SimError::WatchdogExpired` as for the
/// prepared path, with `total` counting admitted nodes only (the full
/// trace length is unknown mid-stream).
///
/// [`LaneSync::Barrier`]: crate::LaneSync::Barrier
pub fn try_schedule_windowed<I>(
    nodes: I,
    cfg: &DatapathConfig,
    ws: &mut SchedulerWorkspace,
    mem: &mut dyn DatapathMemory,
    start: u64,
    watchdog: &Watchdog,
    window_nodes: usize,
) -> Result<WindowedOutcome, SimError>
where
    I: IntoIterator<Item = Result<TraceNode, Diagnostic>>,
{
    let window = window_nodes.max(1);
    let mut store = Streamed {
        iter: nodes.into_iter().peekable(),
        window,
        lanes: cfg.lanes,
        nodes: NodeRing::new(window),
        admitted: 0,
        instances: Instances::default(),
        eof: false,
        peak_resident: 0,
        stats: StatsAccumulator::new(),
    };
    let result = ws.state.run(&mut store, cfg, mem, start, watchdog)?;
    Ok(WindowedOutcome {
        result,
        peak_resident_nodes: store.peak_resident,
        stats: store.stats.finish(),
    })
}

/// Adapt an in-memory [`Trace`](aladdin_ir::Trace)'s nodes to the
/// fallible-stream shape [`try_schedule_windowed`] consumes.
pub fn trace_node_stream(
    trace: &aladdin_ir::Trace,
) -> impl Iterator<Item = Result<TraceNode, Diagnostic>> + '_ {
    trace.nodes().iter().map(|n| Ok(n.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LaneSync;
    use crate::meminterface::SpadMemory;
    use crate::scheduler::schedule;
    use aladdin_ir::{ArrayKind, Opcode, TVal, Trace, Tracer};

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

    fn windowed(trace: &Trace, cfg: &DatapathConfig, window: usize) -> WindowedOutcome {
        let mut mem = SpadMemory::new(trace, cfg);
        try_schedule_windowed(
            trace_node_stream(trace),
            cfg,
            &mut SchedulerWorkspace::new(),
            &mut mem,
            0,
            &Watchdog::default(),
            window,
        )
        .expect("windowed schedule")
    }

    #[test]
    fn empty_stream_is_zero_cycles() {
        let trace = Tracer::new("e").finish();
        let out = windowed(&trace, &DatapathConfig::default(), 16);
        assert_eq!(out.result.cycles, 0);
        assert_eq!(out.peak_resident_nodes, 0);
        assert_eq!(out.stats, trace.stats());
    }

    #[test]
    fn full_window_is_bit_exact_with_materialized() {
        let trace = parallel_kernel(64);
        for (lanes, partition) in [(1u32, 1u32), (2, 4), (4, 4), (8, 2)] {
            let cfg = DatapathConfig {
                lanes,
                partition,
                ..DatapathConfig::default()
            };
            let mut mem = SpadMemory::new(&trace, &cfg);
            let reference = schedule(&trace, &cfg, &mut mem, 0).expect("schedules");
            let out = windowed(&trace, &cfg, trace.nodes().len());
            assert_eq!(out.result, reference, "lanes={lanes} partition={partition}");
            assert_eq!(out.stats, trace.stats());
        }
    }

    #[test]
    fn round_sized_window_is_bit_exact_under_barrier() {
        let trace = parallel_kernel(64);
        for lanes in [1u32, 2, 4, 8] {
            let cfg = DatapathConfig {
                lanes,
                partition: 4,
                ..DatapathConfig::default()
            };
            // 4 nodes per iteration instance → one round is 4 × lanes.
            let round_nodes = 4 * lanes as usize;
            let mut mem = SpadMemory::new(&trace, &cfg);
            let reference = schedule(&trace, &cfg, &mut mem, 0).expect("schedules");
            let out = windowed(&trace, &cfg, round_nodes);
            assert_eq!(out.result, reference, "lanes={lanes} window={round_nodes}");
            assert!(
                out.peak_resident_nodes <= round_nodes as u64,
                "peak {} exceeds window {round_nodes}",
                out.peak_resident_nodes
            );
        }
    }

    #[test]
    fn tiny_window_is_sound_and_bounded() {
        let trace = parallel_kernel(48);
        let cfg = DatapathConfig {
            lanes: 4,
            partition: 4,
            ..DatapathConfig::default()
        };
        for window in [1usize, 2, 3, 5, 7] {
            let out = windowed(&trace, &cfg, window);
            // Everything still retires, stats still match, memory bounded.
            assert_eq!(out.stats, trace.stats());
            assert!(out.peak_resident_nodes <= window as u64);
            assert_eq!(
                out.result.issued_per_class.iter().sum::<u64>() as usize,
                trace.nodes().len()
            );
        }
    }

    #[test]
    fn serial_chain_matches_at_any_window() {
        let mut t = Tracer::new("chain");
        let mut acc = TVal::lit(1.0);
        for _ in 0..20 {
            acc = t.binop(Opcode::FAdd, acc, TVal::lit(1.0));
        }
        let trace = t.finish();
        let cfg = DatapathConfig::default();
        let mut mem = SpadMemory::new(&trace, &cfg);
        let reference = schedule(&trace, &cfg, &mut mem, 0).expect("schedules");
        for window in [1usize, 2, 64] {
            let out = windowed(&trace, &cfg, window);
            assert_eq!(out.result, reference, "window={window}");
        }
    }

    #[test]
    fn free_sync_with_full_window_matches() {
        let trace = parallel_kernel(32);
        let cfg = DatapathConfig {
            lanes: 4,
            partition: 8,
            sync: LaneSync::Free,
            ..DatapathConfig::default()
        };
        let mut mem = SpadMemory::new(&trace, &cfg);
        let reference = schedule(&trace, &cfg, &mut mem, 0).expect("schedules");
        let out = windowed(&trace, &cfg, trace.nodes().len());
        assert_eq!(out.result, reference);
    }

    #[test]
    fn successors_past_inline_capacity_match_materialized() {
        // One load feeding ten consumers: its successor list spills past
        // the inline slots, and every consumer must still be released
        // when the load retires.
        const FANOUT: usize = 10;
        const { assert!(FANOUT > INLINE_SUCCS) };
        let mut t = Tracer::new("fanout");
        let a = t.array_f64("a", &[3.0], ArrayKind::Input);
        let mut c = t.array_f64("c", &[0.0; FANOUT], ArrayKind::Output);
        let x = t.load(&a, 0);
        for k in 0..FANOUT {
            let p = t.binop(Opcode::FMul, x, TVal::lit(k as f64));
            t.store(&mut c, k, p);
        }
        let trace = t.finish();
        for (lanes, partition) in [(1u32, 1u32), (2, 2), (4, 8)] {
            let cfg = DatapathConfig {
                lanes,
                partition,
                ..DatapathConfig::default()
            };
            let mut mem = SpadMemory::new(&trace, &cfg);
            let reference = schedule(&trace, &cfg, &mut mem, 0).expect("schedules");
            let out = windowed(&trace, &cfg, trace.nodes().len());
            assert_eq!(out.result, reference, "lanes={lanes} partition={partition}");
            assert_eq!(out.stats, trace.stats());
        }
    }

    #[test]
    fn free_sync_span_may_outgrow_a_small_window() {
        // An FDiv (16 cycles) heads the trace; independent integer adds
        // follow and retire one per cycle around it. The oldest resident
        // node pins the ring's base, so the live id span grows well past
        // the window while the resident count stays capped.
        const ADDS: usize = 40;
        let mut t = Tracer::new("straggler");
        t.binop(Opcode::FDiv, TVal::lit(1.0), TVal::lit(3.0));
        for k in 0..ADDS {
            t.ibinop(Opcode::Add, TVal::lit(k as i64), TVal::lit(1));
        }
        let trace = t.finish();
        let cfg = DatapathConfig {
            sync: LaneSync::Free,
            ..DatapathConfig::default()
        };
        let mut mem = SpadMemory::new(&trace, &cfg);
        let reference = schedule(&trace, &cfg, &mut mem, 0).expect("schedules");
        let full = windowed(&trace, &cfg, trace.nodes().len());
        assert_eq!(full.result, reference);

        let window = 4;
        let out = windowed(&trace, &cfg, window);
        assert_eq!(out.stats, trace.stats());
        assert!(out.peak_resident_nodes <= window as u64);
        // The adds never wait for the divide to leave: one issues every
        // cycle, as in the materialized schedule. Gating admission on the
        // id span instead would stall them until the divide retires.
        assert_eq!(out.result, reference);
        assert_eq!(out.result.cycles, ADDS as u64);
    }

    #[test]
    fn ring_rebases_after_draining() {
        let slot = |round| WNode {
            opcode: Opcode::Add,
            mem: None,
            lane: 0,
            round,
            indeg: 0,
            live: true,
            succs: Succs::default(),
        };
        let mut ring = NodeRing::default();
        for id in 0..4 {
            ring.push(id, slot(id));
        }
        // Out-of-order retirement: slot 0 pins the front until it goes.
        for id in [2, 1, 3] {
            ring.retire(id);
            assert_eq!(ring.base, 0);
        }
        assert_eq!(ring.slots.len(), 4);
        assert_eq!(ring.retire(0).0, 0);
        assert!(ring.slots.is_empty());
        assert_eq!(ring.live, 0);
        // Trimming moved the base past every retired id, so admission
        // into the empty ring lands at the next id.
        assert_eq!(ring.base, 4);
        ring.push(4, slot(9));
        assert!(ring.get_mut(3).is_none());
        assert_eq!(ring.node(4).round, 9);
    }

    #[test]
    fn ring_grows_by_an_eighth_past_the_window() {
        let slot = || WNode {
            opcode: Opcode::Add,
            mem: None,
            lane: 0,
            round: 0,
            indeg: 0,
            live: true,
            succs: Succs::default(),
        };
        const WINDOW: usize = 64;
        let mut ring = NodeRing::new(WINDOW);
        for id in 0..=WINDOW as u32 {
            ring.push(id, slot());
        }
        let cap = ring.slots.capacity();
        assert!(cap > WINDOW && cap <= WINDOW + WINDOW / 8, "capacity {cap}");
    }

    #[test]
    fn successors_iterate_in_insertion_order() {
        let mut succs = Succs::default();
        for s in 0..3 * INLINE_SUCCS as u32 {
            succs.push(s);
        }
        assert!(succs.iter().eq(0..3 * INLINE_SUCCS as u32));
    }

    #[test]
    fn drained_window_readmits_and_matches() {
        // Four lanes, one FMul per iteration: each barrier round is four
        // nodes that issue together and retire together. With a one-round
        // window the ring empties every round and re-bases on the next
        // admission.
        let mut t = Tracer::new("rounds");
        for i in 0..16 {
            t.begin_iteration(i);
            t.binop(Opcode::FMul, TVal::lit(f64::from(i)), TVal::lit(2.0));
        }
        let trace = t.finish();
        let cfg = DatapathConfig {
            lanes: 4,
            ..DatapathConfig::default()
        };
        let mut mem = SpadMemory::new(&trace, &cfg);
        let reference = schedule(&trace, &cfg, &mut mem, 0).expect("schedules");
        let out = windowed(&trace, &cfg, 4);
        assert_eq!(out.result, reference);
        assert_eq!(out.peak_resident_nodes, 4);
    }

    #[test]
    fn start_offset_respected() {
        let trace = parallel_kernel(8);
        let cfg = DatapathConfig::default();
        let mut mem = SpadMemory::new(&trace, &cfg);
        let out = try_schedule_windowed(
            trace_node_stream(&trace),
            &cfg,
            &mut SchedulerWorkspace::new(),
            &mut mem,
            1000,
            &Watchdog::default(),
            8,
        )
        .unwrap();
        assert_eq!(out.result.start, 1000);
        assert!(out.result.end > 1000);
    }

    #[test]
    fn stream_errors_surface_as_typed_diagnostics() {
        let trace = parallel_kernel(4);
        let cfg = DatapathConfig::default();
        let mut mem = SpadMemory::new(&trace, &cfg);
        let stream = trace
            .nodes()
            .iter()
            .map(|n| Ok(n.clone()))
            .take(3)
            .chain(std::iter::once(Err(Diagnostic::error(
                "L0280",
                "block 1: truncated",
            ))));
        let mut ws = SchedulerWorkspace::new();
        let err =
            try_schedule_windowed(stream, &cfg, &mut ws, &mut mem, 0, &Watchdog::default(), 2)
                .unwrap_err();
        assert_eq!(err.code(), "L0280");
    }

    #[test]
    fn non_dense_stream_is_rejected() {
        let trace = parallel_kernel(4);
        let cfg = DatapathConfig::default();
        let mut mem = SpadMemory::new(&trace, &cfg);
        let stream = trace.nodes().iter().skip(1).map(|n| Ok(n.clone()));
        let mut ws = SchedulerWorkspace::new();
        let err =
            try_schedule_windowed(stream, &cfg, &mut ws, &mut mem, 0, &Watchdog::default(), 64)
                .unwrap_err();
        assert_eq!(err.code(), "L0280");
    }
}
