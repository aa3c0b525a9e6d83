//! The dynamic data dependence graph (DDDG), built once per trace.

use aladdin_ir::{NodeId, Trace};

use crate::config::DatapathConfig;
use crate::fu::FuTiming;

/// Numbers iteration instances in program order: the first node starts
/// instance 0 and each change of the trace's iteration label starts the
/// next one. Both node stores assign instances through this one rule.
///
/// A datapath with `lanes` lanes runs instance `k` on lane `k % lanes` in
/// barrier round `k / lanes`. Because instances are monotone in program
/// order and dependences always point backwards, a dependence can never
/// target a later round — which makes the inter-round lane barrier
/// deadlock-free by construction, including for kernels whose labels
/// revisit earlier values (e.g. the per-byte structure of AES).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Instances {
    /// The previous node's `(label, instance)`.
    last: Option<(u32, u32)>,
}

impl Instances {
    /// The instance of the next node in program order, labelled `label`.
    #[inline]
    pub(crate) fn next(&mut self, label: u32) -> u32 {
        let instance = match self.last {
            Some((l, k)) if l == label => k,
            Some((_, k)) => k + 1,
            None => 0,
        };
        self.last = Some((label, instance));
        instance
    }
}

/// A trace's DDDG: successor lists, in-degrees and iteration instances,
/// the same for every datapath.
///
/// The trace itself stores predecessor (dependence) lists; scheduling needs
/// the transpose, kept here in compressed rows. Nothing in the graph
/// depends on the datapath — loop unrolling only decides which lane and
/// barrier round each iteration instance runs in — so one graph serves
/// every lane count, partitioning, cache geometry and SoC, and a sweep can
/// build it once and share it across every point and worker thread.
///
/// # Example
///
/// ```
/// use aladdin_accel::{DatapathConfig, FuTiming, PreparedDddg};
/// use aladdin_ir::{Opcode, TVal, Tracer};
///
/// let mut t = Tracer::new("chain");
/// let mut acc = TVal::lit(1.0);
/// for _ in 0..3 {
///     acc = t.binop(Opcode::FMul, acc, TVal::lit(2.0));
/// }
/// let trace = t.finish();
/// let g = PreparedDddg::new(&trace, &DatapathConfig::default());
/// // Three dependent 4-cycle multiplies: critical path of 12 cycles.
/// assert_eq!(g.critical_path_cycles(&trace, &FuTiming::default()), 12);
/// ```
#[derive(Debug, Clone)]
pub struct PreparedDddg {
    /// Node `i`'s successors are `succ_targets[succ_offsets[i]..succ_offsets[i + 1]]`.
    succ_offsets: Vec<usize>,
    succ_targets: Vec<u32>,
    indeg: Vec<u32>,
    /// Iteration instance of every node (see [`Instances`]).
    instance: Vec<u32>,
    /// Node count of every instance.
    instance_size: Vec<usize>,
}

impl PreparedDddg {
    /// Build the graph for `trace`. `cfg` is not read: the graph is the
    /// same for every datapath, and any configuration may be scheduled on
    /// it with [`try_schedule_prepared`](crate::try_schedule_prepared).
    #[must_use]
    pub fn new(trace: &Trace, _cfg: &DatapathConfig) -> Self {
        let nodes = trace.nodes();
        let n = nodes.len();
        // Count each node's successors into the slot after its own, so the
        // running sum leaves `succ_offsets[i]` at node i's first slot.
        let mut succ_offsets = vec![0usize; n + 1];
        for node in nodes {
            for dep in &node.deps {
                succ_offsets[dep.index() + 1] += 1;
            }
        }
        for i in 0..n {
            succ_offsets[i + 1] += succ_offsets[i];
        }
        // Fill in program order, so each row keeps the order successors
        // were discovered in. Filling advances `succ_offsets[d]` to row
        // d's end, which is row d + 1's start: shift back by one after.
        let mut succ_targets = vec![0u32; succ_offsets[n]];
        let mut indeg = Vec::with_capacity(n);
        let mut instance = Vec::with_capacity(n);
        let mut instance_size: Vec<usize> = Vec::new();
        let mut instances = Instances::default();
        for (i, node) in nodes.iter().enumerate() {
            for dep in &node.deps {
                let slot = &mut succ_offsets[dep.index()];
                succ_targets[*slot] = i as u32;
                *slot += 1;
            }
            indeg.push(node.deps.len() as u32);
            let k = instances.next(node.iteration) as usize;
            if k == instance_size.len() {
                instance_size.push(0);
            }
            instance_size[k] += 1;
            instance.push(k as u32);
        }
        succ_offsets.rotate_right(1);
        succ_offsets[0] = 0;
        PreparedDddg {
            succ_offsets,
            succ_targets,
            indeg,
            instance,
            instance_size,
        }
    }

    /// Successors (consumers) of `node`, in program order.
    #[must_use]
    #[inline]
    pub fn successors(&self, node: NodeId) -> &[u32] {
        let i = node.index();
        &self.succ_targets[self.succ_offsets[i]..self.succ_offsets[i + 1]]
    }

    /// Initial in-degree (number of dependences) of every node.
    #[must_use]
    pub fn indegrees(&self) -> &[u32] {
        &self.indeg
    }

    /// Iteration instance of every node. A datapath with `lanes` lanes
    /// runs instance `k` on lane `k % lanes` in barrier round `k / lanes`.
    #[must_use]
    pub fn instances(&self) -> &[u32] {
        &self.instance
    }

    /// Number of barrier rounds on a datapath with `lanes` lanes, 0 for an
    /// empty trace.
    #[must_use]
    pub fn num_rounds(&self, lanes: u32) -> usize {
        self.instance_size.len().div_ceil(lanes as usize)
    }

    /// Node count of every barrier round on a datapath with `lanes` lanes:
    /// each round is `lanes` consecutive instances.
    pub fn round_totals(&self, lanes: u32) -> impl Iterator<Item = usize> + '_ {
        self.instance_size
            .chunks(lanes as usize)
            .map(|round| round.iter().sum())
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.indeg.len()
    }

    /// Whether the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.indeg.is_empty()
    }

    /// Length in cycles of the dependence-critical path, assuming
    /// single-cycle memory and unlimited resources — the ideal lower bound
    /// on compute time.
    #[must_use]
    pub fn critical_path_cycles(&self, trace: &Trace, timing: &FuTiming) -> u64 {
        let mut finish = vec![0u64; self.len()];
        let mut best = 0;
        for node in trace.nodes() {
            let i = node.id.index();
            let ready = node
                .deps
                .iter()
                .map(|d| finish[d.index()])
                .max()
                .unwrap_or(0);
            finish[i] = ready + timing.latency(node.opcode.fu_class());
            best = best.max(finish[i]);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aladdin_ir::{ArrayKind, Opcode, TVal, Tracer};

    fn chain_trace() -> Trace {
        // A serial chain: s = ((1*2)*3)*4 — critical path dominates.
        let mut t = Tracer::new("chain");
        let mut acc = TVal::lit(1.0);
        for k in 2..=4 {
            acc = t.binop(Opcode::FMul, acc, TVal::lit(k as f64));
        }
        t.finish()
    }

    fn parallel_trace() -> Trace {
        let mut t = Tracer::new("par");
        let a = t.array_f64("a", &[1.0; 8], ArrayKind::Input);
        for i in 0..8 {
            t.begin_iteration(i as u32);
            let x = t.load(&a, i);
            let _ = t.binop(Opcode::FAdd, x, TVal::lit(1.0));
        }
        t.finish()
    }

    fn build(trace: &Trace) -> PreparedDddg {
        PreparedDddg::new(trace, &DatapathConfig::default())
    }

    #[test]
    fn chain_critical_path() {
        let trace = chain_trace();
        // Three dependent FMuls at 4 cycles each.
        assert_eq!(
            build(&trace).critical_path_cycles(&trace, &FuTiming::default()),
            12
        );
    }

    #[test]
    fn parallel_trace_is_wide() {
        let trace = parallel_trace();
        // One load + one FAdd per independent iteration.
        assert_eq!(
            build(&trace).critical_path_cycles(&trace, &FuTiming::default()),
            4
        );
    }

    #[test]
    fn successors_transpose_deps() {
        let trace = chain_trace();
        let g = build(&trace);
        assert_eq!(g.successors(NodeId::from_index(0)), &[1]);
        assert_eq!(g.successors(NodeId::from_index(1)), &[2]);
        assert!(g.successors(NodeId::from_index(2)).is_empty());
        assert_eq!(g.indegrees(), &[0, 1, 1]);
    }

    #[test]
    fn successors_keep_program_order() {
        // One load feeding five consumers, interleaved with a second load
        // feeding two: each row lists its consumers in program order.
        let mut t = Tracer::new("fan");
        let a = t.array_f64("a", &[1.0, 2.0], ArrayKind::Input);
        let x = t.load(&a, 0);
        let y = t.load(&a, 1);
        for k in 0..5 {
            let _ = t.binop(Opcode::FAdd, x, TVal::lit(f64::from(k)));
            if k % 2 == 0 {
                let _ = t.binop(Opcode::FMul, y, x);
            }
        }
        let trace = t.finish();
        let g = build(&trace);
        for node in trace.nodes() {
            let expected: Vec<u32> = trace
                .nodes()
                .iter()
                .filter(|c| c.deps.contains(&node.id))
                .map(|c| c.id.index() as u32)
                .collect();
            assert_eq!(g.successors(node.id), expected.as_slice(), "{}", node.id);
        }
    }

    #[test]
    fn rounds_follow_lanes() {
        let trace = parallel_trace();
        let g = build(&trace);
        // Eight iterations of two nodes each.
        assert_eq!(g.instances()[0], 0);
        assert_eq!(g.instances()[15], 7);
        assert_eq!(g.num_rounds(1), 8);
        assert_eq!(g.num_rounds(3), 3);
        assert_eq!(g.num_rounds(4), 2);
        // Iterations 0..3 → round 0, 4..7 → round 1; two nodes each.
        assert!(g.round_totals(4).eq([8, 8]));
        assert!(g.round_totals(3).eq([6, 6, 4]));
        assert!(g.round_totals(16).eq([16]));
    }

    #[test]
    fn revisited_labels_start_new_instances() {
        let mut t = Tracer::new("revisit");
        for label in [0u32, 0, 1, 0, 0, 2, 2] {
            t.begin_iteration(label);
            let _ = t.ibinop(Opcode::Add, TVal::lit(1), TVal::lit(1));
        }
        let trace = t.finish();
        assert_eq!(build(&trace).instances(), &[0, 0, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn empty_graph() {
        let trace = Tracer::new("e").finish();
        let g = build(&trace);
        assert!(g.is_empty());
        assert_eq!(g.num_rounds(4), 0);
        assert_eq!(g.round_totals(4).count(), 0);
        assert_eq!(g.critical_path_cycles(&trace, &FuTiming::default()), 0);
    }
}
