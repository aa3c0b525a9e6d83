//! Trace-level optimizations.
//!
//! Aladdin applies "common accelerator design optimizations" to the DDDG
//! before scheduling (Section III-B); the one with scheduling-visible
//! effect is **tree-height reduction**: a serial reduction chain
//! `(((a+b)+c)+d)…` has dependence depth *n*, but commutative/associative
//! operators let hardware evaluate it as a balanced tree of depth
//! ⌈log₂ n⌉. This module rewires such chains in a recorded trace.
//!
//! Only dependence structure changes — node count, opcodes, and memory
//! references are untouched, so power estimates are unaffected. (Like
//! Aladdin, we assume FP reassociation is acceptable for accelerator
//! generation; traces carry no values, so there is nothing to recompute.)

use crate::opcode::Opcode;
use crate::trace::{NodeId, Trace};

/// Whether `op` is commutative and associative, making its reduction
/// chains rebalanceable.
fn reassociable(op: Opcode) -> bool {
    matches!(
        op,
        Opcode::Add | Opcode::Mul | Opcode::BitOp | Opcode::FAdd | Opcode::FMul
    )
}

/// Statistics from one [`rebalance_reductions`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebalanceStats {
    /// Reduction chains found and rebalanced.
    pub chains: usize,
    /// Total chain nodes rewired.
    pub nodes: usize,
    /// Length of the longest chain rebalanced.
    pub longest: usize,
}

/// Rebalance serial reduction chains into dependence trees.
///
/// A chain is a maximal sequence of nodes with the same reassociable
/// opcode and the same iteration label, where each node is the *only*
/// consumer of its predecessor. Chains shorter than `min_len` are left
/// alone (rebalancing a 2-chain is a no-op; 3-chains barely matter).
///
/// Restricting chains to one iteration keeps the transform local to a
/// datapath lane: cross-iteration accumulations are loop-carried
/// dependences whose restructuring would change the unrolling semantics
/// (and whose reordering would shred the lane/round mapping).
///
/// Returns the transformed trace and rebalancing statistics. The result
/// always passes [`Trace::check`].
/// # Example
///
/// ```
/// use aladdin_ir::{rebalance_reductions, ArrayKind, Opcode, Tracer};
///
/// let mut t = Tracer::new("sum");
/// let a = t.array_f64("a", &[1.0; 8], ArrayKind::Input);
/// let mut acc = t.load(&a, 0);
/// for i in 1..8 {
///     let x = t.load(&a, i);
///     acc = t.binop(Opcode::FAdd, x, acc);
/// }
/// let trace = t.finish();
/// let (balanced, stats) = rebalance_reductions(&trace, 4);
/// assert_eq!(stats.chains, 1);
/// assert_eq!(balanced.nodes().len(), trace.nodes().len());
/// ```
#[must_use]
pub fn rebalance_reductions(trace: &Trace, min_len: usize) -> (Trace, RebalanceStats) {
    let n = trace.nodes().len();
    let min_len = min_len.max(3);

    // Consumer counts (only chain candidates need exact counts).
    let mut consumers = vec![0u32; n];
    for node in trace.nodes() {
        for d in &node.deps {
            consumers[d.index()] += 1;
        }
    }

    let mut new_deps: Vec<Vec<NodeId>> = trace.nodes().iter().map(|t| t.deps.to_vec()).collect();
    let mut in_chain = vec![false; n];
    let mut stats = RebalanceStats::default();

    // Walk program order; start a chain at any reassociable node whose
    // successor-by-dependence continues it.
    for start in 0..n {
        if in_chain[start] {
            continue;
        }
        let op = trace.nodes()[start].opcode;
        if !reassociable(op) {
            continue;
        }
        // Grow the chain: current node must have exactly one consumer,
        // which has the same opcode and lists it as a dependence.
        let mut chain = vec![start];
        let mut cur = start;
        loop {
            if consumers[cur] != 1 {
                break;
            }
            // Find the single consumer (scan forward; consumers are later).
            let Some(next) =
                (cur + 1..n).find(|&j| trace.nodes()[j].deps.iter().any(|d| d.index() == cur))
            else {
                break;
            };
            if trace.nodes()[next].opcode != op
                || trace.nodes()[next].iteration != trace.nodes()[start].iteration
                || in_chain[next]
            {
                break;
            }
            chain.push(next);
            cur = next;
        }
        if chain.len() < min_len {
            continue;
        }

        // Collect the chain's external operands ("leaves"), in chain order.
        let chain_set: std::collections::HashSet<usize> = chain.iter().copied().collect();
        let mut leaves: Vec<NodeId> = Vec::new();
        for &c in &chain {
            for d in &trace.nodes()[c].deps {
                if !chain_set.contains(&d.index()) {
                    leaves.push(*d);
                }
            }
        }
        // A well-formed binary reduction has exactly chain.len() + 1
        // leaves; chains mixing literals (fewer operands) are rebuilt from
        // whatever leaves exist, which stays correct because each chain
        // node combines the front two queue entries.
        if leaves.len() < 2 {
            continue;
        }

        // Rebuild as a balanced tree: each chain node (in id order) pops
        // two operands from the queue and pushes itself. Queue entries may
        // be *later* node ids (leaves are interleaved with the chain in
        // program order); the final topological renumbering fixes that.
        let mut queue: std::collections::VecDeque<NodeId> = leaves.into();
        for &c in &chain {
            let a = queue.pop_front();
            let b = queue.pop_front();
            let mut deps: Vec<NodeId> = [a, b].into_iter().flatten().collect();
            deps.sort_unstable();
            deps.dedup();
            new_deps[c] = deps;
            queue.push_back(NodeId::from_index(c));
            in_chain[c] = true;
        }

        stats.chains += 1;
        stats.nodes += chain.len();
        stats.longest = stats.longest.max(chain.len());
    }

    if stats.chains == 0 {
        return (trace.clone(), stats);
    }
    let out = trace.with_deps_toposorted(new_deps);
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArrayKind, TVal, Tracer};

    /// acc = x0 + x1 + ... + x{n-1}, built as a serial chain over loads.
    fn reduction_trace(n: usize) -> Trace {
        let mut t = Tracer::new("red");
        let a = t.array_f64("a", &vec![1.0; n], ArrayKind::Input);
        let mut o = t.array_f64("o", &[0.0], ArrayKind::Output);
        let mut acc = t.load(&a, 0);
        for i in 1..n {
            let x = t.load(&a, i);
            acc = t.binop(Opcode::FAdd, acc, x);
        }
        t.store(&mut o, 0, acc);
        t.finish()
    }

    fn depth(trace: &Trace) -> usize {
        let mut d = vec![0usize; trace.nodes().len()];
        let mut best = 0;
        for node in trace.nodes() {
            let in_d = node.deps.iter().map(|x| d[x.index()]).max().unwrap_or(0);
            d[node.id.index()] = in_d + 1;
            best = best.max(d[node.id.index()]);
        }
        best
    }

    #[test]
    fn rebalancing_reduces_depth_logarithmically() {
        let trace = reduction_trace(64);
        let before = depth(&trace);
        let (out, stats) = rebalance_reductions(&trace, 4);
        let after = depth(&out);
        assert_eq!(stats.chains, 1);
        assert_eq!(stats.nodes, 63);
        assert!(out.check().is_clean());
        // Serial: ~64 levels of adds; balanced: ~log2(64) = 6 (+ loads).
        assert!(before >= 64, "before={before}");
        assert!(after <= 10, "after={after}");
    }

    #[test]
    fn node_counts_and_opcodes_unchanged() {
        // Nodes may be renumbered, but the multiset of operations (and
        // hence every power estimate) is identical.
        let trace = reduction_trace(32);
        let (out, _) = rebalance_reductions(&trace, 4);
        assert_eq!(out.nodes().len(), trace.nodes().len());
        assert_eq!(out.stats().per_class, trace.stats().per_class);
        let mems = |t: &Trace| {
            let mut v: Vec<_> = t.nodes().iter().filter_map(|n| n.mem).collect();
            v.sort_by_key(|m| (m.addr, m.kind == crate::MemAccessKind::Write));
            v
        };
        assert_eq!(mems(&out), mems(&trace));
    }

    #[test]
    fn every_leaf_is_still_consumed_exactly_once() {
        let trace = reduction_trace(16);
        let (out, _) = rebalance_reductions(&trace, 4);
        // Each load feeds exactly one add in both versions.
        let mut uses = vec![0usize; out.nodes().len()];
        for node in out.nodes() {
            for d in &node.deps {
                uses[d.index()] += 1;
            }
        }
        for node in out.nodes() {
            if node.opcode == Opcode::Load {
                assert_eq!(uses[node.id.index()], 1, "load {} reused", node.id);
            }
        }
    }

    #[test]
    fn short_chains_left_alone() {
        let mut t = Tracer::new("short");
        let x = t.binop(Opcode::FAdd, TVal::lit(1.0), TVal::lit(2.0));
        let _ = t.binop(Opcode::FAdd, x, TVal::lit(3.0));
        let trace = t.finish();
        let (out, stats) = rebalance_reductions(&trace, 4);
        assert_eq!(stats.chains, 0);
        assert_eq!(out.nodes()[1].deps, trace.nodes()[1].deps);
    }

    #[test]
    fn non_reassociable_chains_untouched() {
        let mut t = Tracer::new("sub");
        let mut acc = TVal::lit(100.0);
        for _ in 0..8 {
            acc = t.binop(Opcode::FSub, acc, TVal::lit(1.0));
        }
        let trace = t.finish();
        let (out, stats) = rebalance_reductions(&trace, 4);
        assert_eq!(stats.chains, 0);
        assert_eq!(depth(&out), depth(&trace));
    }

    #[test]
    fn forked_chains_are_not_rebalanced_past_the_fork() {
        // acc values observed mid-chain (two consumers) must break the
        // chain there.
        let mut t = Tracer::new("fork");
        let a = t.array_f64("a", &[1.0; 8], ArrayKind::Input);
        let mut o = t.array_f64("o", &[0.0; 2], ArrayKind::Output);
        let mut acc = t.load(&a, 0);
        for i in 1..4 {
            let x = t.load(&a, i);
            acc = t.binop(Opcode::FAdd, acc, x);
        }
        t.store(&mut o, 0, acc); // mid-chain observation
        for i in 4..8 {
            let x = t.load(&a, i);
            acc = t.binop(Opcode::FAdd, acc, x);
        }
        t.store(&mut o, 1, acc);
        let trace = t.finish();
        let (out, _) = rebalance_reductions(&trace, 3);
        assert!(out.check().is_clean());
        // The store's dependence is preserved.
        let store = out
            .nodes()
            .iter()
            .find(|n| n.opcode == Opcode::Store)
            .unwrap();
        assert!(!store.deps.is_empty());
    }
}
