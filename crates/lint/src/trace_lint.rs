//! Deep static analysis of traces and DDDGs (`L011x`).
//!
//! `aladdin-ir`'s [`Trace::check`] covers cheap structural invariants
//! (`L010x`: dense ids, backward deps, `MemRef` consistency, array
//! bounds). This module layers the semantic analyses on top: SSA-style
//! def-before-use through memory, store→load dependence consistency,
//! dependence-cycle detection, unreachable (dead) nodes, and loop
//! annotation balance. The DDDG checks re-verify the scheduler-facing
//! lane/round assignment against the trace.

use aladdin_accel::{DatapathConfig, PreparedDddg};
use aladdin_ir::{Diagnostic, Locus, MemAccessKind, NodeId, Report, Trace};

/// Full trace analysis: structural `L010x` checks plus the deep `L011x`
/// lints below. This is what `soclint trace` runs.
#[must_use]
pub fn lint_trace(trace: &Trace) -> Report {
    let mut report = trace.check();
    if report.has_errors() {
        // Deep analyses assume structural sanity (in-bounds ids, backward
        // deps); running them on a broken trace would only produce noise.
        return report;
    }
    report.merge(lint_memory_ssa(trace));
    report.merge(lint_dep_cycles(trace));
    report.merge(lint_dead_nodes(trace));
    report.merge(lint_loop_annotations(trace));
    cap_warnings(report, MAX_WARNINGS_PER_CODE)
}

/// How many warnings of each code [`lint_trace`] keeps before
/// summarizing the rest. Real kernels can have thousands of e.g. dead
/// loads (values feeding only comparisons), and a flood of identical
/// warnings buries everything else.
pub const MAX_WARNINGS_PER_CODE: usize = 8;

/// Keep at most `max_per_code` warnings of each code, appending one
/// summary warning per truncated code. Errors and infos pass through
/// untouched, and `has_code` answers stay unchanged.
fn cap_warnings(report: Report, max_per_code: usize) -> Report {
    use aladdin_ir::Severity;
    let mut kept = Report::new();
    let mut counts: std::collections::BTreeMap<&'static str, usize> =
        std::collections::BTreeMap::new();
    for d in report {
        if d.severity != Severity::Warning {
            kept.push(d);
            continue;
        }
        let n = counts.entry(d.code).or_insert(0);
        *n += 1;
        if *n <= max_per_code {
            kept.push(d);
        }
    }
    for (code, n) in counts {
        if n > max_per_code {
            kept.push(Diagnostic::warning(
                code,
                format!(
                    "{} further {code} warning(s) suppressed ({n} total)",
                    n - max_per_code
                ),
            ));
        }
    }
    kept
}

/// Whether `ancestor` is reachable from `node` by walking dependence
/// edges backwards. The tracer emits memory dependences as *direct*
/// edges, so the direct-dependence fast path almost always decides;
/// the full search (pruned below the target index, since dependences
/// point backwards) only runs for transitively-ordered accesses.
fn depends_on(trace: &Trace, node: NodeId, ancestor: NodeId) -> bool {
    if trace.node(node).deps.contains(&ancestor) {
        return true;
    }
    let target = ancestor.index();
    let mut stack = vec![node.index()];
    let mut seen = vec![false; trace.nodes().len()];
    while let Some(i) = stack.pop() {
        if i == target {
            return true;
        }
        if i < target || seen[i] {
            continue;
        }
        seen[i] = true;
        for dep in &trace.nodes()[i].deps {
            stack.push(dep.index());
        }
    }
    false
}

/// Memory SSA checks.
///
/// * `L0110` (warning): a load reads bytes of a non-input array that no
///   earlier store wrote — accelerator-side use of uninitialized local
///   memory (input arrays are initialized by the host-side transfer).
/// * `L0111` (error): a load's most recent overlapping store is not among
///   its dependence ancestors — a missing RAW edge, so the scheduler may
///   hoist the load above the store.
/// * `L0112` (error): a store's most recent overlapping store is not
///   among its ancestors — a missing WAW edge, so final memory state
///   depends on completion order.
#[must_use]
pub fn lint_memory_ssa(trace: &Trace) -> Report {
    let mut report = Report::new();
    // Last-writer map per array, keyed by write start address; values
    // carry (end, writer). `max_write` bounds how far below `lo` an
    // overlapping write can start, keeping the overlap query local.
    let mut writes: Vec<std::collections::BTreeMap<u64, (u64, NodeId)>> =
        vec![std::collections::BTreeMap::new(); trace.arrays().len()];
    let mut max_write: Vec<u64> = vec![0; trace.arrays().len()];
    for node in trace.nodes() {
        let Some(m) = &node.mem else { continue };
        let (lo, hi) = (m.addr, m.addr + u64::from(m.bytes));
        let log = &mut writes[m.array.index()];
        let window = lo.saturating_sub(max_write[m.array.index()].saturating_sub(1));
        let last_overlap = log
            .range(window..hi)
            .filter(|&(_, &(end, _))| end > lo)
            .map(|(_, &(_, w))| w)
            .max(); // NodeId orders by index: max = most recent

        match m.kind {
            MemAccessKind::Read => match last_overlap {
                Some(writer) => {
                    if !depends_on(trace, node.id, writer) {
                        report.push(
                            Diagnostic::error(
                                "L0111",
                                format!(
                                    "load {} does not depend on the last store {} to its bytes",
                                    node.id, writer
                                ),
                            )
                            .at(Locus::Node(node.id.index())),
                        );
                    }
                }
                None => {
                    let arr = trace.array(m.array);
                    if !arr.kind.is_input() {
                        report.push(
                            Diagnostic::warning(
                                "L0110",
                                format!(
                                    "load {} reads {} array {} before any store initializes it",
                                    node.id, arr.kind, arr.name
                                ),
                            )
                            .at(Locus::Node(node.id.index())),
                        );
                    }
                }
            },
            MemAccessKind::Write => {
                if let Some(writer) = last_overlap {
                    if !depends_on(trace, node.id, writer) {
                        report.push(
                            Diagnostic::error(
                                "L0112",
                                format!(
                                    "store {} is unordered against earlier store {} to its bytes",
                                    node.id, writer
                                ),
                            )
                            .at(Locus::Node(node.id.index())),
                        );
                    }
                }
                log.insert(lo, (hi, node.id));
                max_write[m.array.index()] = max_write[m.array.index()].max(u64::from(m.bytes));
            }
        }
    }
    report
}

/// Cycle detection (`L0115`, error) over an arbitrary dependence relation
/// via Kahn's algorithm. For traces that already pass the backward-edge
/// check a cycle is impossible; this exists for candidate dependence
/// lists (e.g. transform outputs before
/// [`Trace::with_deps_toposorted`](aladdin_ir::Trace::with_deps_toposorted)
/// renumbers them) and reports every node on a cycle.
#[must_use]
pub fn lint_dep_relation(num_nodes: usize, deps: &[Vec<NodeId>]) -> Report {
    let mut report = Report::new();
    if deps.len() != num_nodes {
        report.push(Diagnostic::error(
            "L0115",
            format!(
                "dependence relation has {} lists for {num_nodes} nodes",
                deps.len()
            ),
        ));
        return report;
    }
    let mut indeg = vec![0usize; num_nodes];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); num_nodes];
    for (i, list) in deps.iter().enumerate() {
        for d in list {
            if d.index() < num_nodes {
                succs[d.index()].push(i);
                indeg[i] += 1;
            }
        }
    }
    let mut queue: Vec<usize> = (0..num_nodes).filter(|&i| indeg[i] == 0).collect();
    let mut removed = 0usize;
    while let Some(i) = queue.pop() {
        removed += 1;
        for &s in &succs[i] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                queue.push(s);
            }
        }
    }
    if removed < num_nodes {
        for (i, &d) in indeg.iter().enumerate() {
            if d > 0 {
                report.push(
                    Diagnostic::error(
                        "L0115",
                        format!("node n{i} participates in a dependence cycle"),
                    )
                    .at(Locus::Node(i)),
                );
            }
        }
    }
    report
}

/// [`lint_dep_relation`] over a trace's own dependence lists.
#[must_use]
pub fn lint_dep_cycles(trace: &Trace) -> Report {
    let deps: Vec<Vec<NodeId>> = trace.nodes().iter().map(|n| n.deps.to_vec()).collect();
    lint_dep_relation(trace.nodes().len(), &deps)
}

/// Dead/unreachable nodes (`L0116`, warning): nodes whose value never
/// contributes (transitively) to any store. They burn functional-unit
/// energy and issue slots without affecting the kernel's output.
#[must_use]
pub fn lint_dead_nodes(trace: &Trace) -> Report {
    let n = trace.nodes().len();
    let mut live = vec![false; n];
    // Stores are the observable roots; sweep backwards (deps point
    // backwards, so one reverse pass propagates fully).
    for node in trace.nodes().iter().rev() {
        let is_store = node
            .mem
            .as_ref()
            .is_some_and(|m| m.kind == MemAccessKind::Write);
        if is_store {
            live[node.id.index()] = true;
        }
        if live[node.id.index()] {
            for dep in &node.deps {
                live[dep.index()] = true;
            }
        }
    }
    let mut report = Report::new();
    for node in trace.nodes() {
        if !live[node.id.index()] {
            report.push(
                Diagnostic::warning(
                    "L0116",
                    format!(
                        "{} node {} contributes to no store (dead work)",
                        node.opcode, node.id
                    ),
                )
                .at(Locus::Node(node.id.index())),
            );
        }
    }
    report
}

/// Loop annotation balance (`L0113`/`L0114`, warnings).
///
/// Iteration labels drive the lane mapping (`i % lanes`). Reuse of a
/// label across loop *phases* is idiomatic (aes re-labels each round
/// `0..16`), so plain reopening is fine; what is suspicious is a run
/// interrupted for exactly one node and then resumed — the signature of
/// a single corrupted `begin_iteration` marker (`L0113`). Labels should
/// also cover `0..=max` without gaps (`L0114`: skipped labels leave
/// lanes idle under the `i % lanes` mapping).
#[must_use]
pub fn lint_loop_annotations(trace: &Trace) -> Report {
    let mut report = Report::new();
    let nodes = trace.nodes();
    for w in nodes.windows(3) {
        if w[1].iteration != w[0].iteration && w[2].iteration == w[0].iteration {
            report.push(
                Diagnostic::warning(
                    "L0113",
                    format!(
                        "iteration {} interrupts a run of iteration {} for a single node",
                        w[1].iteration, w[0].iteration
                    ),
                )
                .at(Locus::Node(w[1].id.index())),
            );
        }
    }
    let mut seen: std::collections::HashSet<u32> = std::collections::HashSet::new();
    let mut max_label = 0u32;
    for node in nodes {
        seen.insert(node.iteration);
        max_label = max_label.max(node.iteration);
    }
    if !nodes.is_empty() && (seen.len() as u64) < u64::from(max_label) + 1 {
        report.push(Diagnostic::warning(
            "L0114",
            format!(
                "iteration labels skip values: {} distinct labels but maximum is {max_label}",
                seen.len()
            ),
        ));
    }
    report
}

/// DDDG consistency (`L0118`/`L0119`, errors): the round each node's
/// iteration instance maps to under `cfg.lanes` must be monotone along
/// dependences (otherwise the barrier scheduler deadlocks) and every lane
/// index must fall inside the configured lane count.
#[must_use]
pub fn lint_dddg(trace: &Trace, cfg: &DatapathConfig) -> Report {
    let mut report = cfg.check();
    if report.has_errors() {
        return report;
    }
    let graph = PreparedDddg::new(trace, cfg);
    let round = |i: usize| graph.instances()[i] / cfg.lanes;
    for node in trace.nodes() {
        for dep in &node.deps {
            if round(dep.index()) > round(node.id.index()) {
                report.push(
                    Diagnostic::error(
                        "L0118",
                        format!(
                            "round inversion: {} (round {}) depends on {} (round {})",
                            node.id,
                            round(node.id.index()),
                            dep,
                            round(dep.index())
                        ),
                    )
                    .at(Locus::Node(node.id.index())),
                );
            }
        }
    }
    for (i, &instance) in graph.instances().iter().enumerate() {
        let lane = instance % cfg.lanes;
        if lane >= cfg.lanes {
            report.push(
                Diagnostic::error(
                    "L0119",
                    format!("node n{i} mapped to lane {lane} of {}", cfg.lanes),
                )
                .at(Locus::Node(i)),
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use aladdin_ir::{ArrayKind, Opcode, Tracer};

    fn well_formed() -> Trace {
        let mut t = Tracer::new("wf");
        let a = t.array_f64("a", &[1.0, 2.0, 3.0, 4.0], ArrayKind::Input);
        let mut o = t.array_f64("o", &[0.0, 0.0], ArrayKind::Output);
        for i in 0..2 {
            t.begin_iteration(i as u32);
            let x = t.load(&a, 2 * i);
            let y = t.load(&a, 2 * i + 1);
            let s = t.binop(Opcode::FAdd, x, y);
            t.store(&mut o, i, s);
        }
        t.finish()
    }

    #[test]
    fn well_formed_trace_is_clean() {
        let r = lint_trace(&well_formed());
        assert!(r.is_clean(), "{}", r.to_human());
    }

    #[test]
    fn dddg_of_well_formed_trace_is_clean() {
        let t = well_formed();
        for lanes in [1, 2, 4] {
            let cfg = DatapathConfig {
                lanes,
                partition: lanes,
                ..DatapathConfig::default()
            };
            let r = lint_dddg(&t, &cfg);
            assert!(r.is_clean(), "{}", r.to_human());
        }
    }

    #[test]
    fn cycle_in_candidate_relation_detected() {
        // 3 nodes; 0 -> 1 -> 2 -> 0.
        let deps = vec![
            vec![NodeId::from_index(2)],
            vec![NodeId::from_index(0)],
            vec![NodeId::from_index(1)],
        ];
        let r = lint_dep_relation(3, &deps);
        assert!(r.has_code("L0115"));
        assert_eq!(r.count(aladdin_ir::Severity::Error), 3);
    }

    #[test]
    fn read_of_uninitialized_internal_array_warns() {
        let mut t = Tracer::new("uninit");
        let scratch = t.array_f64("scratch", &[0.0; 4], ArrayKind::Internal);
        let mut o = t.array_f64("o", &[0.0], ArrayKind::Output);
        let x = t.load(&scratch, 1); // never stored
        t.store(&mut o, 0, x);
        let r = lint_trace(&t.finish());
        assert!(r.has_code("L0110"), "{}", r.to_human());
        assert!(!r.has_errors());
    }

    #[test]
    fn dead_compute_node_warns() {
        let mut t = Tracer::new("dead");
        let a = t.array_f64("a", &[1.0, 2.0], ArrayKind::Input);
        let mut o = t.array_f64("o", &[0.0], ArrayKind::Output);
        let x = t.load(&a, 0);
        let y = t.load(&a, 1);
        let _unused = t.binop(Opcode::FMul, x, y); // result dropped
        t.store(&mut o, 0, x);
        let r = lint_trace(&t.finish());
        assert!(r.has_code("L0116"), "{}", r.to_human());
    }
}
