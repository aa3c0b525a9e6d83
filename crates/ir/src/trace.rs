//! Dynamic traces: flattened dynamic data dependence graphs.

use std::fmt;
use std::sync::OnceLock;

use crate::array::{ArrayId, ArrayInfo};
use crate::deps::DepList;
use crate::diag::{Diagnostic, Locus, Report};
use crate::hash::ContentHasher;
use crate::opcode::Opcode;
use crate::stats::TraceStats;

/// The trace fingerprint's word stream, defined once and shared by
/// [`Trace::fingerprint`], the `.atrc` writer ([`crate::TraceWriter`]) and
/// a fingerprint-only [`Tracer`](crate::Tracer), so a fingerprint computed
/// over an in-memory trace, while *streaming* nodes to disk, or while
/// tracing without storing a node is bit-identical. The order is
/// single-pass friendly: kernel name first, then every node, then the
/// node count, then every array, then the array count — the counts follow
/// their contents because a streaming producer does not know them up
/// front.
#[derive(Debug, Clone)]
pub(crate) struct TraceHasher(ContentHasher);

impl TraceHasher {
    /// A stream for a kernel named `name`.
    pub(crate) fn new(name: &str) -> Self {
        let mut h = ContentHasher::new();
        h.str(name);
        TraceHasher(h)
    }

    /// One node in two to five words plus one per two dependences.
    /// Node ids are positions (checked by [`Trace::check`] and the
    /// writer), so the stream omits them.
    pub(crate) fn node(&mut self, node: &TraceNode) {
        let h = &mut self.0;
        h.word(node.opcode as u64 | (node.deps.len() as u64) << 8);
        for pair in node.deps.chunks(2) {
            let second = pair.get(1).map_or(0, |d| u64::from(d.0));
            h.word(u64::from(pair[0].0) | second << 32);
        }
        let tag = match &node.mem {
            None => 0,
            Some(m) => 1 + u64::from(m.kind == MemAccessKind::Write),
        };
        h.word(u64::from(node.iteration) | tag << 32);
        if let Some(m) = &node.mem {
            h.word(u64::from(m.array.0) | u64::from(m.bytes) << 32);
            h.word(m.addr);
        }
    }

    /// The fingerprint of the `nodes` nodes absorbed so far plus `arrays`.
    pub(crate) fn finish(&self, nodes: u64, arrays: &[ArrayInfo]) -> u128 {
        let mut h = self.0.clone();
        h.word(nodes);
        for a in arrays {
            h.str(&a.name);
            h.word(a.kind as u64);
            h.word(a.base_addr);
            h.word(u64::from(a.elem_bytes));
            h.word(a.len);
        }
        h.word(arrays.len() as u64);
        h.finish()
    }
}

/// Identifier of a dynamic trace node (one executed operation).
///
/// Node ids are dense and issued in program order, so they double as indices
/// into [`Trace::nodes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Dense index of this node in [`Trace::nodes`].
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a dense index (used by graph algorithms).
    #[must_use]
    pub fn from_index(idx: usize) -> Self {
        NodeId(u32::try_from(idx).expect("trace larger than u32::MAX nodes"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Direction of a traced memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemAccessKind {
    /// The node reads memory.
    Read,
    /// The node writes memory.
    Write,
}

/// Memory reference attached to a `Load`/`Store` node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// Array being accessed.
    pub array: ArrayId,
    /// Absolute (trace virtual) byte address.
    pub addr: u64,
    /// Access size in bytes.
    pub bytes: u32,
    /// Read or write.
    pub kind: MemAccessKind,
}

/// One dynamic operation in the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceNode {
    /// This node's id (equal to its position in the trace).
    pub id: NodeId,
    /// Executed operation.
    pub opcode: Opcode,
    /// Producers this node truly depends on (register + memory dependences).
    pub deps: DepList,
    /// Memory reference, for memory opcodes.
    pub mem: Option<MemRef>,
    /// Dynamic iteration of the kernel's parallel loop this node belongs to.
    ///
    /// The scheduler maps iteration `i` to datapath lane `i % lanes`,
    /// mirroring Aladdin's loop-unrolling transformation.
    pub iteration: u32,
}

/// A complete dynamic trace of one accelerated kernel invocation.
///
/// Immutable once produced by [`Tracer::finish`](crate::Tracer::finish).
/// Dependences always point backwards (`dep < id`), making the trace a DAG in
/// topological order — schedulers exploit this.
#[derive(Debug, Clone)]
pub struct Trace {
    name: String,
    nodes: Vec<TraceNode>,
    arrays: Vec<ArrayInfo>,
    fp: OnceLock<u128>,
    stats: OnceLock<TraceStats>,
}

impl Trace {
    pub(crate) fn new(name: String, nodes: Vec<TraceNode>, arrays: Vec<ArrayInfo>) -> Self {
        Trace {
            name,
            nodes,
            arrays,
            fp: OnceLock::new(),
            stats: OnceLock::new(),
        }
    }

    /// Kernel name this trace was recorded from.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All dynamic nodes in program order.
    #[must_use]
    pub fn nodes(&self) -> &[TraceNode] {
        &self.nodes
    }

    /// Node lookup by id.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &TraceNode {
        &self.nodes[id.index()]
    }

    /// All traced arrays.
    #[must_use]
    pub fn arrays(&self) -> &[ArrayInfo] {
        &self.arrays
    }

    /// Array lookup by id.
    #[must_use]
    pub fn array(&self, id: ArrayId) -> &ArrayInfo {
        &self.arrays[id.index()]
    }

    /// Arrays that must be transferred host → accelerator.
    pub fn input_arrays(&self) -> impl Iterator<Item = &ArrayInfo> {
        self.arrays.iter().filter(|a| a.kind.is_input())
    }

    /// Arrays that must be transferred accelerator → host.
    pub fn output_arrays(&self) -> impl Iterator<Item = &ArrayInfo> {
        self.arrays.iter().filter(|a| a.kind.is_output())
    }

    /// Total bytes of input (host → accelerator) data.
    #[must_use]
    pub fn input_bytes(&self) -> u64 {
        self.input_arrays().map(ArrayInfo::size_bytes).sum()
    }

    /// Total bytes of output (accelerator → host) data.
    #[must_use]
    pub fn output_bytes(&self) -> u64 {
        self.output_arrays().map(ArrayInfo::size_bytes).sum()
    }

    /// Aggregate statistics over the trace, memoized like the
    /// fingerprint: every call after the first is free.
    #[must_use]
    pub fn stats(&self) -> TraceStats {
        *self.stats.get_or_init(|| TraceStats::compute(self))
    }

    /// A 128-bit content fingerprint of the trace: name, every node
    /// (opcode, dependences, memory reference, iteration label), and every
    /// array.
    ///
    /// Two traces with equal fingerprints schedule identically, so the DSE
    /// layer uses this as the trace component of its result-cache key. The
    /// value is stable across processes and runs (no pointer or hash-seed
    /// dependence): a word-at-a-time [`ContentHasher`] over a canonical
    /// word stream of the trace. The same stream is produced by
    /// [`TraceWriter`](crate::TraceWriter) while encoding an `.atrc` file,
    /// so a file-backed trace carries this fingerprint in its footer and
    /// result-cache keys never require a decode.
    ///
    /// The value is memoized: recomputation is free after the first call.
    #[must_use]
    pub fn fingerprint(&self) -> u128 {
        *self.fp.get_or_init(|| {
            let mut h = TraceHasher::new(&self.name);
            for node in &self.nodes {
                h.node(node);
            }
            h.finish(self.nodes.len() as u64, &self.arrays)
        })
    }

    /// A copy of this trace with every node's dependence list replaced
    /// (ids unchanged; every new dependence must still point backwards).
    /// Trace optimizations that may need forward references use
    /// [`with_deps_toposorted`](Trace::with_deps_toposorted) instead.
    ///
    /// # Panics
    ///
    /// Panics if `new_deps.len()` differs from the node count, or (debug
    /// builds) if the result fails [`validate`](Trace::validate).
    #[must_use]
    pub fn with_deps(&self, new_deps: Vec<Vec<NodeId>>) -> Trace {
        assert_eq!(
            new_deps.len(),
            self.nodes.len(),
            "one dependence list per node required"
        );
        let nodes = self
            .nodes
            .iter()
            .zip(new_deps)
            .map(|(n, deps)| TraceNode {
                deps: deps.into(),
                ..*n
            })
            .collect();
        let out = Trace::new(self.name.clone(), nodes, self.arrays.clone());
        debug_assert!(out.check().is_clean(), "{}", out.check().to_human());
        out
    }

    /// Like [`with_deps`](Trace::with_deps), but additionally renumbers
    /// nodes by a stable topological sort so the new dependences may point
    /// *forward* in the old numbering (as long as they are acyclic).
    /// Trace-level optimizations that restructure dependences (e.g. tree-
    /// height reduction) need this because a rebalanced operand tree can
    /// pair a combiner with a leaf that originally appeared later.
    ///
    /// Ties break toward the original program order, so unrelated nodes
    /// keep their relative positions.
    ///
    /// # Panics
    ///
    /// Panics if `new_deps.len()` differs from the node count or if the
    /// new dependence relation has a cycle.
    #[must_use]
    pub fn with_deps_toposorted(&self, new_deps: Vec<Vec<NodeId>>) -> Trace {
        assert_eq!(
            new_deps.len(),
            self.nodes.len(),
            "one dependence list per node required"
        );
        let n = self.nodes.len();
        let mut indeg = vec![0u32; n];
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, deps) in new_deps.iter().enumerate() {
            for d in deps {
                succs[d.index()].push(i as u32);
                indeg[i] += 1;
            }
        }
        // Kahn's algorithm with a min-heap on the original index keeps the
        // order stable.
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<u32>> = (0..n)
            .filter(|&i| indeg[i] == 0)
            .map(|i| std::cmp::Reverse(i as u32))
            .collect();
        let mut order = Vec::with_capacity(n);
        let mut new_index = vec![u32::MAX; n];
        while let Some(std::cmp::Reverse(i)) = heap.pop() {
            new_index[i as usize] = order.len() as u32;
            order.push(i as usize);
            for &s in &succs[i as usize] {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    heap.push(std::cmp::Reverse(s));
                }
            }
        }
        assert_eq!(order.len(), n, "new dependence relation has a cycle");

        let nodes = order
            .iter()
            .enumerate()
            .map(|(pos, &old)| {
                let mut deps: DepList = new_deps[old]
                    .iter()
                    .map(|d| NodeId(new_index[d.index()]))
                    .collect();
                deps.sort_unstable();
                deps.dedup();
                TraceNode {
                    id: NodeId::from_index(pos),
                    opcode: self.nodes[old].opcode,
                    deps,
                    mem: self.nodes[old].mem,
                    iteration: self.nodes[old].iteration,
                }
            })
            .collect();
        let out = Trace::new(self.name.clone(), nodes, self.arrays.clone());
        debug_assert!(out.check().is_clean(), "{}", out.check().to_human());
        out
    }

    /// Checks structural invariants, reporting every violation as a typed
    /// [`Diagnostic`](crate::Diagnostic): non-dense node ids (`L0101`),
    /// forward or self dependences (`L0102`), memory/`MemRef` mismatches
    /// (`L0103`), references to unknown arrays (`L0104`), and accesses out
    /// of the owning array's bounds (`L0105`).
    ///
    /// Unlike the legacy [`validate`](Trace::validate), this does not stop
    /// at the first defect: `soclint` and the sweep pre-flight pass want
    /// the full list. Deeper semantic lints (store→load consistency,
    /// dependence cycles, unreachable nodes, unbalanced loop annotations)
    /// live in the `aladdin-lint` crate under `L011x`.
    #[must_use]
    pub fn check(&self) -> Report {
        let mut report = Report::new();
        for (idx, node) in self.nodes.iter().enumerate() {
            if node.id.index() != idx {
                report.push(
                    Diagnostic::error(
                        "L0101",
                        format!("node at position {idx} has id {}", node.id),
                    )
                    .at(Locus::Node(idx)),
                );
            }
            for &dep in &node.deps {
                if dep.index() >= idx {
                    report.push(
                        Diagnostic::error(
                            "L0102",
                            format!("node {} depends on non-earlier {}", node.id, dep),
                        )
                        .at(Locus::Node(idx)),
                    );
                }
            }
            if let Some(d) = node.mem_violation(&self.arrays) {
                report.push(d.at(Locus::Node(idx)));
            }
        }
        report
    }
}

impl TraceNode {
    /// Check the node's memory reference against `arrays`: memory opcodes
    /// carry a [`MemRef`] inside a known array, compute opcodes carry none.
    /// Shared by [`Trace::check`] and the streaming `.atrc` decoder, so a
    /// streamed node obeys the same rules as a materialized one.
    pub(crate) fn mem_violation(&self, arrays: &[ArrayInfo]) -> Option<Diagnostic> {
        match (&self.mem, self.opcode.is_memory()) {
            (Some(m), true) => {
                let Some(arr) = arrays.get(m.array.index()) else {
                    return Some(Diagnostic::error(
                        "L0104",
                        format!("node {} references unknown {}", self.id, m.array),
                    ));
                };
                let end = m.addr.saturating_add(u64::from(m.bytes));
                let arr_end = arr.base_addr.saturating_add(arr.size_bytes());
                (m.addr < arr.base_addr || end > arr_end).then(|| {
                    Diagnostic::error(
                        "L0105",
                        format!(
                            "node {} access [{:#x},{:#x}) outside array {}",
                            self.id, m.addr, end, arr.name
                        ),
                    )
                })
            }
            (None, false) => None,
            (Some(_), false) => Some(Diagnostic::error(
                "L0103",
                format!("compute node {} carries a MemRef", self.id),
            )),
            (None, true) => Some(Diagnostic::error(
                "L0103",
                format!("memory node {} lacks a MemRef", self.id),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArrayKind, Tracer};

    fn tiny_trace() -> Trace {
        let mut t = Tracer::new("t");
        let a = t.array_f64("a", &[1.0, 2.0, 3.0], ArrayKind::Input);
        let mut o = t.array_f64("o", &[0.0], ArrayKind::Output);
        let x = t.load(&a, 0);
        let y = t.load(&a, 1);
        let s = t.binop(Opcode::FMul, x, y);
        t.store(&mut o, 0, s);
        t.finish()
    }

    #[test]
    fn trace_is_valid_and_ordered() {
        let tr = tiny_trace();
        assert!(tr.check().is_clean(), "{}", tr.check().to_human());
        assert_eq!(tr.nodes().len(), 4);
        assert_eq!(tr.input_bytes(), 24);
        assert_eq!(tr.output_bytes(), 8);
    }

    #[test]
    fn deps_point_backwards() {
        let tr = tiny_trace();
        for node in tr.nodes() {
            for dep in &node.deps {
                assert!(dep.index() < node.id.index());
            }
        }
    }

    #[test]
    fn mul_depends_on_both_loads() {
        let tr = tiny_trace();
        let mul = &tr.nodes()[2];
        assert_eq!(mul.opcode, Opcode::FMul);
        assert_eq!(mul.deps.len(), 2);
    }

    #[test]
    fn store_depends_on_mul() {
        let tr = tiny_trace();
        let store = &tr.nodes()[3];
        assert_eq!(store.opcode, Opcode::Store);
        assert!(store.deps.contains(&NodeId(2)));
        let m = store.mem.expect("store has memref");
        assert_eq!(m.kind, MemAccessKind::Write);
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let a = tiny_trace();
        let b = tiny_trace();
        // Same content → same fingerprint, across independent constructions.
        assert_eq!(a.fingerprint(), b.fingerprint());

        // Any content change — here a single dependence — must change it.
        let mut deps: Vec<Vec<NodeId>> = a.nodes().iter().map(|n| n.deps.to_vec()).collect();
        deps[3].clear();
        let c = a.with_deps(deps);
        assert_ne!(a.fingerprint(), c.fingerprint());

        // The kernel name participates too (two kernels can share a body).
        let mut t = Tracer::new("other-name");
        let arr = t.array_f64("a", &[1.0, 2.0, 3.0], ArrayKind::Input);
        let mut o = t.array_f64("o", &[0.0], ArrayKind::Output);
        let x = t.load(&arr, 0);
        let y = t.load(&arr, 1);
        let s = t.binop(Opcode::FMul, x, y);
        t.store(&mut o, 0, s);
        let renamed = t.finish();
        assert_ne!(a.fingerprint(), renamed.fingerprint());
    }

    /// The fingerprint is persisted (`.atrc` footers, result-cache keys),
    /// so any change to its value must be deliberate.
    #[test]
    fn fingerprint_is_pinned() {
        assert_eq!(
            tiny_trace().fingerprint(),
            0xf834_18e9_afda_238e_d524_6316_a87b_28e6
        );
    }

    /// Changing any one field of any node or array, or the name, changes
    /// the fingerprint, and no two of those edits collide. Ids are
    /// positions (`Trace::check`), so they are not edited on their own.
    #[test]
    fn every_field_reaches_the_fingerprint() {
        let base = tiny_trace();
        let (nodes, arrays) = (base.nodes().to_vec(), base.arrays().to_vec());
        let with = |edit: &dyn Fn(&mut Vec<TraceNode>, &mut Vec<ArrayInfo>)| {
            let (mut n, mut a) = (nodes.clone(), arrays.clone());
            edit(&mut n, &mut a);
            Trace::new(base.name().to_owned(), n, a).fingerprint()
        };
        let mut prints = vec![
            base.fingerprint(),
            Trace::new("u".to_owned(), nodes.clone(), arrays.clone()).fingerprint(),
            with(&|n, _| n[2].opcode = Opcode::FAdd),
            with(&|n, _| {
                n[2].deps.pop();
            }),
            with(&|n, _| n[2].deps.push(NodeId(1))),
            with(&|n, _| n[2].deps[0] = NodeId(1)),
            with(&|n, _| n[2].iteration = 1),
            with(&|n, _| n[3].iteration = u32::MAX),
            with(&|n, _| n[0].mem = None),
            with(&|n, _| n[2].mem = n[0].mem),
            with(&|n, _| n[0].mem.as_mut().expect("load").array = ArrayId(1)),
            with(&|n, _| n[0].mem.as_mut().expect("load").addr += 8),
            with(&|n, _| n[0].mem.as_mut().expect("load").bytes = 4),
            with(&|n, _| n[0].mem.as_mut().expect("load").kind = MemAccessKind::Write),
            with(&|n, _| drop(n.pop())),
            with(&|_, a| a[0].name.push('x')),
            with(&|_, a| a[0].kind = ArrayKind::InOut),
            with(&|_, a| a[0].base_addr += 64),
            with(&|_, a| a[0].elem_bytes = 4),
            with(&|_, a| a[0].len += 1),
            with(&|_, a| drop(a.pop())),
        ];
        let total = prints.len();
        prints.sort_unstable();
        prints.dedup();
        assert_eq!(
            prints.len(),
            total,
            "some edit left the fingerprint unchanged or collided"
        );
    }

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.to_string(), "n42");
    }
}
