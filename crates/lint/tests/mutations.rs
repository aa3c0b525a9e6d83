//! Mutation tests: break a well-formed trace in a known way and assert
//! the matching lint code — and only an appropriate one — fires. Victims
//! are chosen by a seeded RNG so each run exercises several mutants.
//!
//! | mutation                         | expected code |
//! |----------------------------------|---------------|
//! | drop a load's RAW edge           | `L0111`       |
//! | drop a store's WAW edge          | `L0112`       |
//! | turn a store into a load (text)  | `L0110`       |
//! | corrupt one loop marker (text)   | `L0113`       |

use aladdin_ir::{ArrayKind, MemAccessKind, NodeId, Opcode, Trace, Tracer};
use aladdin_lint::lint_trace;
use aladdin_rng::SmallRng;

const ELEMS: usize = 8;

/// Two passes over an output array: pass one computes `o[i] = a[i]+b[i]`,
/// pass two reads the partial result into a second output and then
/// overwrites `o[i]` from an input — giving every element a RAW edge
/// (pass-two load on pass-one store) and a WAW edge (pass-two store on
/// pass-one store) whose removal is independently detectable.
fn base_trace() -> Trace {
    let mut t = Tracer::new("mutant-base");
    let a = t.array_f64("a", &[1.0; ELEMS], ArrayKind::Input);
    let b = t.array_f64("b", &[2.0; ELEMS], ArrayKind::Input);
    let mut o = t.array_f64("o", &[0.0; ELEMS], ArrayKind::Output);
    let mut o2 = t.array_f64("o2", &[0.0; ELEMS], ArrayKind::Output);
    for i in 0..ELEMS {
        t.begin_iteration(i as u32);
        let x = t.load(&a, i);
        let y = t.load(&b, i);
        let s = t.binop(Opcode::FAdd, x, y);
        t.store(&mut o, i, s);
    }
    for i in 0..ELEMS {
        t.begin_iteration((ELEMS + i) as u32);
        let prev = t.load(&o, i);
        t.store(&mut o2, i, prev);
        let z = t.load(&a, i);
        t.store(&mut o, i, z);
    }
    t.finish()
}

fn is_write_to(trace: &Trace, id: NodeId, array_name: &str) -> bool {
    trace
        .node(id)
        .mem
        .as_ref()
        .is_some_and(|m| m.kind == MemAccessKind::Write && trace.array(m.array).name == array_name)
}

/// Node ids of `o`-accesses that carry a dependence on an earlier store
/// to `o` — RAW victims when they are loads, WAW victims when stores.
fn victims(trace: &Trace, kind: MemAccessKind) -> Vec<NodeId> {
    trace
        .nodes()
        .iter()
        .filter(|n| {
            n.mem
                .as_ref()
                .is_some_and(|m| m.kind == kind && trace.array(m.array).name == "o")
                && n.deps.iter().any(|&d| is_write_to(trace, d, "o"))
        })
        .map(|n| n.id)
        .collect()
}

/// Rebuild the trace with `victim`'s dependences on stores-to-`o` removed.
fn drop_store_deps(trace: &Trace, victim: NodeId) -> Trace {
    let deps: Vec<Vec<NodeId>> = trace
        .nodes()
        .iter()
        .map(|n| {
            if n.id == victim {
                n.deps
                    .iter()
                    .copied()
                    .filter(|&d| !is_write_to(trace, d, "o"))
                    .collect()
            } else {
                n.deps.to_vec()
            }
        })
        .collect();
    trace.with_deps(deps)
}

#[test]
fn base_trace_is_error_free() {
    let report = lint_trace(&base_trace());
    assert!(!report.has_errors(), "{}", report.to_human());
}

#[test]
fn dropping_a_raw_edge_fires_l0111() {
    let trace = base_trace();
    let loads = victims(&trace, MemAccessKind::Read);
    assert_eq!(loads.len(), ELEMS, "every pass-two load carries a RAW edge");
    let mut rng = SmallRng::seed_from_u64(0x5111);
    for _ in 0..4 {
        let victim = loads[rng.gen_range(0..loads.len())];
        let report = lint_trace(&drop_store_deps(&trace, victim));
        assert!(report.has_code("L0111"), "{victim}: {}", report.to_human());
        assert!(report.has_errors());
    }
}

#[test]
fn dropping_a_waw_edge_fires_l0112() {
    let trace = base_trace();
    let stores = victims(&trace, MemAccessKind::Write);
    assert_eq!(
        stores.len(),
        ELEMS,
        "every pass-two store carries a WAW edge"
    );
    let mut rng = SmallRng::seed_from_u64(0x5112);
    for _ in 0..4 {
        let victim = stores[rng.gen_range(0..stores.len())];
        let report = lint_trace(&drop_store_deps(&trace, victim));
        assert!(report.has_code("L0112"), "{victim}: {}", report.to_human());
        assert!(report.has_errors());
    }
}

/// The line of node `id` in the text serialization: one `trace` header
/// and one line per array precede the node lines, which are in id order.
fn node_line(trace: &Trace, id: NodeId) -> usize {
    1 + trace.arrays().len() + id.index()
}

#[test]
fn dropping_a_def_in_text_fires_l0110() {
    let trace = base_trace();
    // Pass-one stores to `o`: writes to `o` with no dependence on an
    // earlier one. Turning one into a load erases the definition that
    // the pass-two load of the same element relies on.
    let defs: Vec<NodeId> = trace
        .nodes()
        .iter()
        .filter(|n| {
            is_write_to(&trace, n.id, "o") && !n.deps.iter().any(|&d| is_write_to(&trace, d, "o"))
        })
        .map(|n| n.id)
        .collect();
    assert_eq!(defs.len(), ELEMS);
    let mut rng = SmallRng::seed_from_u64(0x5110);
    for _ in 0..4 {
        let victim = defs[rng.gen_range(0..defs.len())];
        let mut lines: Vec<String> = trace.to_text().lines().map(str::to_owned).collect();
        let line = &mut lines[node_line(&trace, victim)];
        assert!(line.starts_with("node store"), "{line}");
        *line = line
            .replacen("node store", "node load", 1)
            .replacen(" w :", " r :", 1);
        let mutant = Trace::from_text(&lines.join("\n")).expect("mutant stays structurally valid");
        let report = lint_trace(&mutant);
        assert!(report.has_code("L0110"), "{victim}: {}", report.to_human());
    }
}

#[test]
fn corrupting_a_loop_marker_in_text_fires_l0113() {
    let trace = base_trace();
    let mut rng = SmallRng::seed_from_u64(0x5113);
    for _ in 0..4 {
        // Relabel a mid-run node (each iteration spans several nodes) to
        // the previous iteration's label: the interrupted-run sandwich.
        let iter = rng.gen_range(1..ELEMS as u32);
        let mid = trace
            .nodes()
            .windows(3)
            .find(|w| w.iter().all(|n| n.iteration == iter))
            .map(|w| w[1].id)
            .expect("every iteration has a run of three nodes");
        let mut lines: Vec<String> = trace.to_text().lines().map(str::to_owned).collect();
        let line = &mut lines[node_line(&trace, mid)];
        *line = line.replacen(&format!(" {iter} "), &format!(" {} ", iter - 1), 1);
        let mutant = Trace::from_text(&lines.join("\n")).expect("mutant stays structurally valid");
        let report = lint_trace(&mutant);
        assert!(report.has_code("L0113"), "n{mid}: {}", report.to_human());
        assert!(!report.has_errors(), "loop-marker damage is a warning");
    }
}
