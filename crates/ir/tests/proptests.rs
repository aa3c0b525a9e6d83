//! Property-style tests of the tracer and trace invariants.
//!
//! The workspace builds hermetically (no crate registry), so these use the
//! in-tree deterministic [`aladdin_rng::SmallRng`] rather than `proptest`:
//! each test replays many seeded random programs against the tracing DSL
//! and asserts the structural invariant for every one.

use aladdin_ir::{ArrayKind, MemAccessKind, Opcode, TVal, Tracer};
use aladdin_rng::SmallRng;

/// A random program step executed against the tracing DSL.
#[derive(Debug, Clone)]
enum Step {
    Load(usize),
    Store(usize, f64),
    BinOp(u8),
    Iter(u32),
}

fn random_steps(rng: &mut SmallRng, len: usize, max_steps: usize) -> Vec<Step> {
    let n = rng.gen_range(0..max_steps);
    (0..n)
        .map(|_| match rng.gen_range(0..4u32) {
            0 => Step::Load(rng.gen_range(0..len)),
            1 => Step::Store(rng.gen_range(0..len), rng.gen_range(-1.0e6..1.0e6)),
            2 => Step::BinOp(rng.gen_range(0..4u32) as u8),
            _ => Step::Iter(rng.gen_range(0..64u32)),
        })
        .collect()
}

fn run_steps(steps: &[Step], len: usize) -> aladdin_ir::Trace {
    let mut t = Tracer::new("prop");
    let mut arr = t.array_f64("a", &vec![1.0; len], ArrayKind::InOut);
    let mut last = TVal::lit(1.0);
    for s in steps {
        match s {
            Step::Load(i) => last = t.load(&arr, *i),
            Step::Store(i, v) => {
                let val = if v.is_finite() { *v } else { 0.0 };
                t.store(
                    &mut arr,
                    *i,
                    TVal {
                        v: val,
                        src: last.src,
                    },
                );
            }
            Step::BinOp(k) => {
                let op = [Opcode::FAdd, Opcode::FSub, Opcode::FMul, Opcode::FDiv][*k as usize];
                last = t.binop(op, last, TVal::lit(2.0));
            }
            Step::Iter(i) => t.begin_iteration(*i),
        }
    }
    t.finish()
}

/// Any program the DSL can express yields a structurally valid trace.
#[test]
fn random_programs_validate() {
    for case in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(0x1001 + case);
        let steps = random_steps(&mut rng, 16, 200);
        let trace = run_steps(&steps, 16);
        let report = trace.check();
        assert!(report.is_clean(), "{}", report.to_human());
    }
}

/// Dependences always point strictly backwards.
#[test]
fn deps_point_backwards() {
    for case in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(0x2002 + case);
        let steps = random_steps(&mut rng, 8, 150);
        let trace = run_steps(&steps, 8);
        for node in trace.nodes() {
            for dep in &node.deps {
                assert!(dep.index() < node.id.index());
            }
        }
    }
}

/// Every load that follows a store to the same element depends
/// (transitively through node ids) on some earlier store to it.
#[test]
fn raw_dependences_exist() {
    for case in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(0x3003 + case);
        let steps = random_steps(&mut rng, 4, 120);
        let trace = run_steps(&steps, 4);
        let mut last_store: [Option<usize>; 4] = [None; 4];
        for node in trace.nodes() {
            if let Some(m) = node.mem {
                let elem = ((m.addr - trace.array(m.array).base_addr) / 8) as usize;
                match m.kind {
                    MemAccessKind::Write => last_store[elem] = Some(node.id.index()),
                    MemAccessKind::Read => {
                        if let Some(s) = last_store[elem] {
                            assert!(
                                node.deps.iter().any(|d| d.index() == s),
                                "load {} misses RAW dep on store {}",
                                node.id.index(),
                                s
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Trace statistics are conserved: per-class counts sum to the node
/// count, and loads+stores equal memory-class operations.
#[test]
fn stats_conserved() {
    for case in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(0x4004 + case);
        let steps = random_steps(&mut rng, 8, 150);
        let trace = run_steps(&steps, 8);
        let s = trace.stats();
        assert_eq!(s.per_class.iter().sum::<usize>(), s.nodes);
        assert_eq!(s.loads + s.stores, s.class(aladdin_ir::FuClass::Mem));
        assert_eq!(s.nodes, trace.nodes().len());
    }
}

/// Traced functional state equals a plain-Rust shadow execution.
#[test]
fn functional_shadow_agrees() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0x5005 + case);
        let steps = random_steps(&mut rng, 8, 150);
        let mut t = Tracer::new("shadow");
        let mut arr = t.array_f64("a", &[1.0; 8], ArrayKind::InOut);
        let mut shadow = [1.0f64; 8];
        let mut last = TVal::lit(1.0);
        let mut shadow_last = 1.0f64;
        for s in &steps {
            match s {
                Step::Load(i) => {
                    last = t.load(&arr, *i);
                    shadow_last = shadow[*i];
                }
                Step::Store(i, v) => {
                    let val = if v.is_finite() { *v } else { 0.0 };
                    t.store(
                        &mut arr,
                        *i,
                        TVal {
                            v: val,
                            src: last.src,
                        },
                    );
                    shadow[*i] = val;
                }
                Step::BinOp(k) => {
                    let op = [Opcode::FAdd, Opcode::FSub, Opcode::FMul, Opcode::FDiv][*k as usize];
                    last = t.binop(op, last, TVal::lit(2.0));
                    shadow_last = match op {
                        Opcode::FAdd => shadow_last + 2.0,
                        Opcode::FSub => shadow_last - 2.0,
                        Opcode::FMul => shadow_last * 2.0,
                        _ => shadow_last / 2.0,
                    };
                }
                Step::Iter(i) => t.begin_iteration(*i),
            }
            assert!((last.v == shadow_last) || (last.v.is_nan() && shadow_last.is_nan()));
        }
        for (i, &sh) in shadow.iter().enumerate() {
            assert!((arr.peek(i) == sh) || (arr.peek(i).is_nan() && sh.is_nan()));
        }
    }
}
