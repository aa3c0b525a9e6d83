//! The tracing DSL workloads are written against.

use std::io::{self, Write};

use crate::array::{ArrayId, ArrayInfo, ArrayKind};
use crate::atrc::{AtrcSummary, TraceWriter};
use crate::deps::DepList;
use crate::opcode::Opcode;
use crate::trace::{MemAccessKind, MemRef, NodeId, Trace, TraceHasher, TraceNode};

/// Base of the simulated virtual address space traced arrays live in.
const ARRAY_BASE_ADDR: u64 = 0x1000_0000;

/// Alignment of each traced array (one DMA page, so per-array transfers
/// split cleanly into page-sized chunks for pipelined DMA).
const ARRAY_ALIGN: u64 = 4096;

/// A traced value: the functional result plus the node that produced it.
///
/// `src == None` marks a literal/constant, which creates no dependence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TVal<T> {
    /// Functional value, used to actually compute the kernel's result.
    pub v: T,
    /// Producing trace node, if any.
    pub src: Option<NodeId>,
}

impl<T> TVal<T> {
    /// A literal value with no producing node.
    #[must_use]
    pub fn lit(v: T) -> Self {
        TVal { v, src: None }
    }
}

impl<T> From<T> for TVal<T> {
    fn from(v: T) -> Self {
        TVal::lit(v)
    }
}

/// A traced array: functional storage plus per-element last-writer tracking
/// used to derive exact store→load (RAW) memory dependences.
#[derive(Debug, Clone)]
pub struct TArray<T> {
    id: ArrayId,
    base_addr: u64,
    elem_bytes: u32,
    data: Vec<T>,
    last_store: Vec<Option<NodeId>>,
}

impl<T: Copy> TArray<T> {
    /// Identifier of this array in the trace.
    #[must_use]
    pub fn id(&self) -> ArrayId {
        self.id
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Untraced view of the current contents (for result extraction).
    #[must_use]
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Untraced read, for host-side (not accelerator-visible) checks.
    #[must_use]
    pub fn peek(&self, idx: usize) -> T {
        self.data[idx]
    }

    fn addr_of(&self, idx: usize) -> u64 {
        self.base_addr + idx as u64 * u64::from(self.elem_bytes)
    }
}

/// Where a [`Tracer`] sends each node it records.
#[derive(Debug)]
enum Sink {
    /// Keep every node, for [`Tracer::finish`].
    Nodes(Vec<TraceNode>),
    /// Encode every node to `.atrc`, for [`Tracer::finish_streaming`].
    /// The first I/O error is deferred to the finish.
    Atrc(TraceWriter<Box<dyn Write>>, Option<io::Error>),
    /// Hash every node and keep none, for [`Tracer::finish_fingerprint`].
    Hash(TraceHasher),
}

/// Records the dynamic execution of a kernel as a [`Trace`].
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Tracer {
    name: String,
    sink: Sink,
    arrays: Vec<ArrayInfo>,
    next_addr: u64,
    iteration: u32,
    emitted: u32,
}

impl Tracer {
    /// Start tracing a kernel named `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Tracer {
            name: name.into(),
            sink: Sink::Nodes(Vec::new()),
            arrays: Vec::new(),
            next_addr: ARRAY_BASE_ADDR,
            iteration: 0,
            emitted: 0,
        }
    }

    /// Start a *fingerprint-only* tracer for a kernel named `name`: every
    /// emitted node is hashed into the fingerprint stream and dropped, so
    /// the kernel runs functionally and yields [`Trace::fingerprint`] of
    /// the trace it would have recorded without storing a node. Finish
    /// with [`finish_fingerprint`](Tracer::finish_fingerprint). A sweep
    /// whose points are all in the result cache needs nothing more.
    #[must_use]
    pub fn fingerprint_only(name: impl Into<String>) -> Self {
        let name = name.into();
        Tracer {
            sink: Sink::Hash(TraceHasher::new(&name)),
            ..Tracer::new(name)
        }
    }

    /// Switch this tracer to *streaming* mode: every emitted node is
    /// written straight to an `.atrc` [`TraceWriter`] over `sink` instead
    /// of being materialized, so tracing a multi-million-node kernel needs
    /// O(arrays) memory, not O(nodes). Finish with
    /// [`finish_streaming`](Tracer::finish_streaming) instead of
    /// [`finish`](Tracer::finish).
    ///
    /// I/O errors during tracing are deferred: tracing continues
    /// functionally (results stay correct) and the first error is
    /// reported by `finish_streaming`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the `.atrc` header.
    ///
    /// # Panics
    ///
    /// Panics if any node has already been recorded.
    pub fn stream_to(&mut self, sink: Box<dyn Write>) -> io::Result<()> {
        assert_eq!(self.emitted, 0, "stream_to must be called before tracing");
        self.sink = Sink::Atrc(TraceWriter::new(sink, &self.name)?, None);
        Ok(())
    }

    /// Number of nodes recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.emitted as usize
    }

    /// Whether no node has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.emitted == 0
    }

    /// Mark the start of dynamic iteration `i` of the kernel's parallel
    /// loop. Subsequent nodes are attributed to this iteration; the
    /// scheduler maps iteration `i` to datapath lane `i % lanes`.
    pub fn begin_iteration(&mut self, i: u32) {
        self.iteration = i;
    }

    /// Current iteration label.
    #[must_use]
    pub fn iteration(&self) -> u32 {
        self.iteration
    }

    fn register_array<T: Copy>(
        &mut self,
        name: &str,
        data: &[T],
        elem_bytes: u32,
        kind: ArrayKind,
    ) -> TArray<T> {
        let id = ArrayId(u32::try_from(self.arrays.len()).expect("too many arrays"));
        let base_addr = self.next_addr;
        let size = data.len() as u64 * u64::from(elem_bytes);
        self.next_addr += size.div_ceil(ARRAY_ALIGN).max(1) * ARRAY_ALIGN;
        self.arrays.push(ArrayInfo {
            id,
            name: name.to_owned(),
            kind,
            base_addr,
            elem_bytes,
            len: data.len() as u64,
        });
        TArray {
            id,
            base_addr,
            elem_bytes,
            data: data.to_vec(),
            last_store: vec![None; data.len()],
        }
    }

    /// Register an array of `f64` elements (8-byte footprint each).
    pub fn array_f64(&mut self, name: &str, data: &[f64], kind: ArrayKind) -> TArray<f64> {
        self.register_array(name, data, 8, kind)
    }

    /// Register an array of `i64` values stored as 4-byte integers, matching
    /// MachSuite's C `int` arrays.
    pub fn array_i32(&mut self, name: &str, data: &[i64], kind: ArrayKind) -> TArray<i64> {
        self.register_array(name, data, 4, kind)
    }

    /// Register an array of bytes (1-byte footprint each).
    pub fn array_u8(&mut self, name: &str, data: &[u8], kind: ArrayKind) -> TArray<u8> {
        self.register_array(name, data, 1, kind)
    }

    fn emit(&mut self, opcode: Opcode, deps: DepList, mem: Option<MemRef>) -> NodeId {
        let id = NodeId(self.emitted);
        self.emitted = self.emitted.checked_add(1).expect("trace too large");
        let node = TraceNode {
            id,
            opcode,
            deps,
            mem,
            iteration: self.iteration,
        };
        match &mut self.sink {
            Sink::Nodes(nodes) => nodes.push(node),
            Sink::Atrc(w, deferred) => {
                if deferred.is_none() {
                    if let Err(e) = w.push_node(&node) {
                        *deferred = Some(e);
                    }
                }
            }
            Sink::Hash(h) => h.node(&node),
        }
        id
    }

    /// The sorted, duplicate-free producers among `srcs`. The typed
    /// helpers pass at most three sources, which stay inline.
    fn dep_list(srcs: &[Option<NodeId>]) -> DepList {
        let mut deps = DepList::new();
        for &src in srcs.iter().flatten() {
            deps.push(src);
        }
        deps.sort_unstable();
        deps.dedup();
        deps
    }

    /// Record a load of `arr[idx]`.
    ///
    /// The load depends on the last traced store to that element (exact RAW
    /// memory dependence), if any.
    pub fn load<T: Copy>(&mut self, arr: &TArray<T>, idx: usize) -> TVal<T> {
        self.load_indexed(arr, idx, None)
    }

    /// Record a load of `arr[idx]` whose *address* was produced by another
    /// node (indirect access, e.g. `vec[cols[j]]` in sparse kernels). The
    /// load cannot issue before `idx_src` completes.
    pub fn load_indexed<T: Copy>(
        &mut self,
        arr: &TArray<T>,
        idx: usize,
        idx_src: Option<NodeId>,
    ) -> TVal<T> {
        let deps = Self::dep_list(&[arr.last_store[idx], idx_src]);
        let mem = MemRef {
            array: arr.id,
            addr: arr.addr_of(idx),
            bytes: arr.elem_bytes,
            kind: MemAccessKind::Read,
        };
        let id = self.emit(Opcode::Load, deps, Some(mem));
        TVal {
            v: arr.data[idx],
            src: Some(id),
        }
    }

    /// Record a store of `val` to `arr[idx]`.
    ///
    /// Returns the store node id so later host-side synchronization can
    /// depend on it. Stores depend on the value they write, on the address
    /// producer (if any, see [`Tracer::store_indexed`]) and on the previous
    /// store to the same element (WAW ordering, which keeps final memory
    /// state deterministic under out-of-order completion).
    pub fn store<T: Copy>(&mut self, arr: &mut TArray<T>, idx: usize, val: TVal<T>) -> NodeId {
        self.store_indexed(arr, idx, val, None)
    }

    /// Record a store whose address was produced by another node.
    pub fn store_indexed<T: Copy>(
        &mut self,
        arr: &mut TArray<T>,
        idx: usize,
        val: TVal<T>,
        idx_src: Option<NodeId>,
    ) -> NodeId {
        let deps = Self::dep_list(&[val.src, arr.last_store[idx], idx_src]);
        let mem = MemRef {
            array: arr.id,
            addr: arr.addr_of(idx),
            bytes: arr.elem_bytes,
            kind: MemAccessKind::Write,
        };
        let id = self.emit(Opcode::Store, deps, Some(mem));
        arr.data[idx] = val.v;
        arr.last_store[idx] = Some(id);
        id
    }

    /// Record a floating-point binary operation and compute its result.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not one of `FAdd`, `FSub`, `FMul`, `FDiv`.
    pub fn binop(&mut self, op: Opcode, a: TVal<f64>, b: TVal<f64>) -> TVal<f64> {
        let v = match op {
            Opcode::FAdd => a.v + b.v,
            Opcode::FSub => a.v - b.v,
            Opcode::FMul => a.v * b.v,
            Opcode::FDiv => a.v / b.v,
            other => panic!("binop: {other} is not an f64 arithmetic opcode"),
        };
        let id = self.emit(op, Self::dep_list(&[a.src, b.src]), None);
        TVal { v, src: Some(id) }
    }

    /// Record an integer binary operation and compute its result.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not an integer arithmetic/logic opcode, or on
    /// division/remainder by zero.
    pub fn ibinop(&mut self, op: Opcode, a: TVal<i64>, b: TVal<i64>) -> TVal<i64> {
        let v = match op {
            Opcode::Add => a.v.wrapping_add(b.v),
            Opcode::Sub => a.v.wrapping_sub(b.v),
            Opcode::Mul => a.v.wrapping_mul(b.v),
            Opcode::Div => a.v / b.v,
            Opcode::Rem => a.v % b.v,
            Opcode::Shift => {
                a.v.wrapping_shl(u32::try_from(b.v.rem_euclid(64)).expect("shift"))
            }
            Opcode::BitOp => a.v ^ b.v,
            other => panic!("ibinop: {other} is not an i64 arithmetic opcode"),
        };
        let id = self.emit(op, Self::dep_list(&[a.src, b.src]), None);
        TVal { v, src: Some(id) }
    }

    /// Record a bitwise AND (convenience over [`Tracer::raw_op`] since
    /// [`Opcode::BitOp`] covers AND/OR/XOR).
    pub fn and(&mut self, a: TVal<i64>, b: TVal<i64>) -> TVal<i64> {
        let id = self.emit(Opcode::BitOp, Self::dep_list(&[a.src, b.src]), None);
        TVal {
            v: a.v & b.v,
            src: Some(id),
        }
    }

    /// Record a bitwise OR.
    pub fn or(&mut self, a: TVal<i64>, b: TVal<i64>) -> TVal<i64> {
        let id = self.emit(Opcode::BitOp, Self::dep_list(&[a.src, b.src]), None);
        TVal {
            v: a.v | b.v,
            src: Some(id),
        }
    }

    /// Record a floating-point square root.
    pub fn fsqrt(&mut self, a: TVal<f64>) -> TVal<f64> {
        let id = self.emit(Opcode::FSqrt, Self::dep_list(&[a.src]), None);
        TVal {
            v: a.v.sqrt(),
            src: Some(id),
        }
    }

    /// Record a comparison of two floats, producing a boolean.
    pub fn fcmp_lt(&mut self, a: TVal<f64>, b: TVal<f64>) -> TVal<bool> {
        let id = self.emit(Opcode::FCmp, Self::dep_list(&[a.src, b.src]), None);
        TVal {
            v: a.v < b.v,
            src: Some(id),
        }
    }

    /// Record a comparison of two integers, producing a boolean.
    pub fn icmp_lt(&mut self, a: TVal<i64>, b: TVal<i64>) -> TVal<bool> {
        let id = self.emit(Opcode::Icmp, Self::dep_list(&[a.src, b.src]), None);
        TVal {
            v: a.v < b.v,
            src: Some(id),
        }
    }

    /// Record an equality comparison of two integers.
    pub fn icmp_eq(&mut self, a: TVal<i64>, b: TVal<i64>) -> TVal<bool> {
        let id = self.emit(Opcode::Icmp, Self::dep_list(&[a.src, b.src]), None);
        TVal {
            v: a.v == b.v,
            src: Some(id),
        }
    }

    /// Record a select (`cond ? a : b`), the traced form of a branch the
    /// datapath turns into a mux.
    pub fn select<T: Copy>(&mut self, cond: TVal<bool>, a: TVal<T>, b: TVal<T>) -> TVal<T> {
        let id = self.emit(
            Opcode::Select,
            Self::dep_list(&[cond.src, a.src, b.src]),
            None,
        );
        TVal {
            v: if cond.v { a.v } else { b.v },
            src: Some(id),
        }
    }

    /// Record an int→float conversion.
    pub fn cast_f64(&mut self, a: TVal<i64>) -> TVal<f64> {
        let id = self.emit(Opcode::Cast, Self::dep_list(&[a.src]), None);
        TVal {
            v: a.v as f64,
            src: Some(id),
        }
    }

    /// Record an arbitrary operation with an explicit result, the escape
    /// hatch for operations the typed helpers do not cover (e.g. an S-box
    /// substitution whose table lives outside the accelerator).
    ///
    /// # Panics
    ///
    /// Panics if `op` is a memory opcode — use
    /// [`load`](Tracer::load)/[`store`](Tracer::store) for those.
    pub fn raw_op<T>(&mut self, op: Opcode, result: T, deps: &[Option<NodeId>]) -> TVal<T> {
        assert!(!op.is_memory(), "raw_op cannot record memory opcodes");
        let id = self.emit(op, Self::dep_list(deps), None);
        TVal {
            v: result,
            src: Some(id),
        }
    }

    /// Finish tracing and produce the immutable [`Trace`].
    ///
    /// # Panics
    ///
    /// Panics if the tracer was put in streaming mode with
    /// [`stream_to`](Tracer::stream_to) or made with
    /// [`fingerprint_only`](Tracer::fingerprint_only): neither keeps its
    /// nodes.
    #[must_use]
    pub fn finish(self) -> Trace {
        let Sink::Nodes(nodes) = self.sink else {
            panic!("only a tracer made by Tracer::new keeps its nodes");
        };
        let trace = Trace::new(self.name, nodes, self.arrays);
        debug_assert!(trace.check().is_clean(), "{}", trace.check().to_human());
        trace
    }

    /// Finish a *streaming* tracer: seal the `.atrc` stream (footer with
    /// arrays, node count, fingerprint, checksum) and return the encoding
    /// summary. The fingerprint equals what [`Trace::fingerprint`] would
    /// return for the materialized equivalent.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error deferred during tracing, or any error
    /// sealing the footer.
    ///
    /// # Panics
    ///
    /// Panics if [`stream_to`](Tracer::stream_to) was never called.
    pub fn finish_streaming(self) -> io::Result<AtrcSummary> {
        let Sink::Atrc(writer, deferred) = self.sink else {
            panic!("finish_streaming requires stream_to");
        };
        match deferred {
            Some(e) => Err(e),
            None => writer.finish(&self.arrays),
        }
    }

    /// Finish a [`fingerprint_only`](Tracer::fingerprint_only) tracer:
    /// the [`Trace::fingerprint`] of the trace [`Tracer::new`] would have
    /// recorded from the same calls.
    ///
    /// # Panics
    ///
    /// Panics if the tracer was not made by `fingerprint_only`.
    #[must_use]
    pub fn finish_fingerprint(self) -> u128 {
        let Sink::Hash(h) = &self.sink else {
            panic!("finish_fingerprint requires Tracer::fingerprint_only");
        };
        h.finish(u64::from(self.emitted), &self.arrays)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(t: &Tracer) -> &[TraceNode] {
        match &t.sink {
            Sink::Nodes(nodes) => nodes,
            _ => panic!("not a materializing tracer"),
        }
    }

    #[test]
    fn literals_create_no_dependence() {
        let mut t = Tracer::new("lit");
        let a = TVal::lit(2.0);
        let b = TVal::from(3.0);
        let c = t.binop(Opcode::FMul, a, b);
        assert_eq!(c.v, 6.0);
        assert!(nodes(&t)[0].deps.is_empty());
    }

    #[test]
    fn raw_load_store_dependences() {
        let mut t = Tracer::new("dep");
        let mut a = t.array_f64("a", &[0.0; 4], ArrayKind::Internal);
        let s0 = t.store(&mut a, 2, TVal::lit(5.0));
        let x = t.load(&a, 2);
        assert_eq!(x.v, 5.0);
        // The load must carry a RAW dependence on the store.
        let load_node = &nodes(&t)[x.src.unwrap().index()];
        assert_eq!(load_node.deps, vec![s0]);
    }

    #[test]
    fn waw_ordering_recorded() {
        let mut t = Tracer::new("waw");
        let mut a = t.array_f64("a", &[0.0], ArrayKind::Output);
        let s0 = t.store(&mut a, 0, TVal::lit(1.0));
        let s1 = t.store(&mut a, 0, TVal::lit(2.0));
        let n1 = &nodes(&t)[s1.index()];
        assert!(n1.deps.contains(&s0));
        assert_eq!(a.peek(0), 2.0);
    }

    #[test]
    fn indirect_load_depends_on_index_producer() {
        let mut t = Tracer::new("ind");
        let cols = t.array_i32("cols", &[2, 0, 1], ArrayKind::Input);
        let vec = t.array_f64("vec", &[10.0, 20.0, 30.0], ArrayKind::Input);
        let j = t.load(&cols, 0);
        let v = t.load_indexed(&vec, usize::try_from(j.v).unwrap(), j.src);
        assert_eq!(v.v, 30.0);
        let n = &nodes(&t)[v.src.unwrap().index()];
        assert!(n.deps.contains(&j.src.unwrap()));
    }

    #[test]
    fn iteration_labels_apply() {
        let mut t = Tracer::new("iter");
        t.begin_iteration(7);
        let x = t.ibinop(Opcode::Add, TVal::lit(1), TVal::lit(2));
        assert_eq!(x.v, 3);
        assert_eq!(nodes(&t)[0].iteration, 7);
    }

    /// The same calls fingerprint alike whether the tracer keeps its
    /// nodes or only hashes them, arrays registered mid-trace included.
    #[test]
    fn fingerprint_only_matches_the_materialized_trace() {
        let record = |t: &mut Tracer| {
            let a = t.array_f64("a", &[1.0, 2.0], ArrayKind::Input);
            t.begin_iteration(3);
            let x = t.load(&a, 1);
            let mut o = t.array_f64("o", &[0.0], ArrayKind::Output);
            let y = t.binop(Opcode::FAdd, x, TVal::lit(1.0));
            t.store(&mut o, 0, y);
        };
        let mut kept = Tracer::new("fp");
        record(&mut kept);
        let mut hashed = Tracer::fingerprint_only("fp");
        record(&mut hashed);
        assert_eq!(hashed.len(), 3);
        assert_eq!(hashed.finish_fingerprint(), kept.finish().fingerprint());
    }

    #[test]
    #[should_panic(expected = "keeps its nodes")]
    fn fingerprint_only_tracers_do_not_materialize() {
        let _ = Tracer::fingerprint_only("fp").finish();
    }

    #[test]
    fn arrays_are_page_aligned_and_disjoint() {
        let mut t = Tracer::new("align");
        let a = t.array_f64("a", &[0.0; 100], ArrayKind::Input);
        let b = t.array_u8("b", &[0; 3], ArrayKind::Input);
        let tr = {
            // keep borrows alive only through ids
            let (ai, bi) = (a.id(), b.id());
            let tr = t.finish();
            assert_eq!(tr.array(ai).base_addr % 4096, 0);
            assert_eq!(tr.array(bi).base_addr % 4096, 0);
            assert!(tr.array(bi).base_addr >= tr.array(ai).base_addr + 800);
            tr
        };
        assert!(tr.check().is_clean());
    }

    #[test]
    fn select_and_compare() {
        let mut t = Tracer::new("sel");
        let c = t.fcmp_lt(TVal::lit(1.0), TVal::lit(2.0));
        let v = t.select(c, TVal::lit(10i64), TVal::lit(20i64));
        assert_eq!(v.v, 10);
        let sel = &nodes(&t)[v.src.unwrap().index()];
        assert!(sel.deps.contains(&c.src.unwrap()));
    }

    #[test]
    #[should_panic(expected = "not an f64 arithmetic opcode")]
    fn binop_rejects_memory_opcodes() {
        let mut t = Tracer::new("bad");
        let _ = t.binop(Opcode::Load, TVal::lit(0.0), TVal::lit(0.0));
    }

    #[test]
    #[should_panic(expected = "cannot record memory opcodes")]
    fn raw_op_rejects_memory() {
        let mut t = Tracer::new("bad");
        let _ = t.raw_op(Opcode::Store, 0u8, &[]);
    }

    #[test]
    fn integer_ops_compute() {
        let mut t = Tracer::new("int");
        assert_eq!(t.ibinop(Opcode::Add, 3.into(), 4.into()).v, 7);
        assert_eq!(t.ibinop(Opcode::Sub, 3.into(), 4.into()).v, -1);
        assert_eq!(t.ibinop(Opcode::Mul, 3.into(), 4.into()).v, 12);
        assert_eq!(t.ibinop(Opcode::Div, 12.into(), 4.into()).v, 3);
        assert_eq!(t.ibinop(Opcode::Rem, 13.into(), 4.into()).v, 1);
        assert_eq!(t.ibinop(Opcode::Shift, 1.into(), 4.into()).v, 16);
        assert_eq!(t.and(0b1100.into(), 0b1010.into()).v, 0b1000);
        assert_eq!(t.or(0b1100.into(), 0b1010.into()).v, 0b1110);
        assert_eq!(t.cast_f64(3.into()).v, 3.0);
        assert!(t.icmp_lt(1.into(), 2.into()).v);
        assert!(t.icmp_eq(2.into(), 2.into()).v);
        assert_eq!(t.fsqrt(TVal::lit(9.0)).v, 3.0);
    }
}
