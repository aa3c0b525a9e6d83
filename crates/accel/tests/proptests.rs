//! Property-style tests of the DDDG and scheduler, driven by the in-tree
//! deterministic [`aladdin_rng::SmallRng`] (the workspace builds with no
//! crate registry, so `proptest` is unavailable). Each test replays many
//! seeded random kernels and asserts the invariant for every one.

use aladdin_accel::{schedule, DatapathConfig, FuTiming, LaneSync, PreparedDddg, SpadMemory};
use aladdin_ir::{ArrayKind, Opcode, TVal, Tracer};
use aladdin_rng::SmallRng;

/// Build a random but well-formed kernel: `iters` iterations, each with a
/// random mix of loads, compute ops and one store.
fn random_kernel(iters: usize, ops_per_iter: &[u8]) -> aladdin_ir::Trace {
    let mut t = Tracer::new("prop-kernel");
    let a = t.array_f64("a", &vec![1.5; iters.max(1)], ArrayKind::Input);
    let mut o = t.array_f64("o", &vec![0.0; iters.max(1)], ArrayKind::Output);
    for i in 0..iters {
        t.begin_iteration(i as u32);
        let mut v = t.load(&a, i);
        for &op in ops_per_iter {
            let opcode = [Opcode::FAdd, Opcode::FMul, Opcode::Add][op as usize % 3];
            v = if opcode == Opcode::Add {
                let iv = t.ibinop(Opcode::Add, TVal::lit(1), TVal::lit(2));
                let f = t.cast_f64(iv);
                t.binop(Opcode::FAdd, v, f)
            } else {
                t.binop(opcode, v, TVal::lit(1.25))
            };
        }
        t.store(&mut o, i, v);
    }
    t.finish()
}

fn random_ops(rng: &mut SmallRng, max_len: usize) -> Vec<u8> {
    let n = rng.gen_range(0..max_len);
    (0..n).map(|_| rng.gen_range(0..3u32) as u8).collect()
}

fn run(trace: &aladdin_ir::Trace, lanes: u32, partition: u32, sync: LaneSync) -> u64 {
    let cfg = DatapathConfig {
        lanes,
        partition,
        sync,
        ..DatapathConfig::default()
    };
    let mut mem = SpadMemory::new(trace, &cfg);
    schedule(trace, &cfg, &mut mem, 0)
        .expect("schedules")
        .cycles
}

/// Scheduling always terminates and takes at least the critical path.
#[test]
fn schedule_bounded_below_by_critical_path() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xACC1 + case);
        let iters = rng.gen_range(1..24usize);
        let ops = random_ops(&mut rng, 6);
        let lanes = rng.gen_range(1..8u32);
        let partition = rng.gen_range(1..8u32);
        let trace = random_kernel(iters, &ops);
        let cfg = DatapathConfig {
            lanes,
            partition,
            ..DatapathConfig::default()
        };
        let graph = PreparedDddg::new(&trace, &cfg);
        let cp = graph.critical_path_cycles(&trace, &FuTiming::default());
        let cycles = run(&trace, lanes, partition, LaneSync::Barrier);
        assert!(cycles >= cp, "{cycles} cycles < critical path {cp}");
        // And bounded above by fully-serial execution.
        let serial: u64 = trace
            .nodes()
            .iter()
            .map(|n| FuTiming::default().latency(n.opcode.fu_class()) + 1)
            .sum();
        assert!(
            cycles <= serial + 2,
            "{cycles} cycles > serial bound {serial}"
        );
    }
}

/// More lanes never slow a kernel down (with memory scaled to match).
#[test]
fn lanes_monotonic() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xACC2 + case);
        let iters = rng.gen_range(1..20usize);
        let ops = random_ops(&mut rng, 5);
        let trace = random_kernel(iters, &ops);
        let mut prev = u64::MAX;
        for lanes in [1u32, 2, 4, 8] {
            let cycles = run(&trace, lanes, 16, LaneSync::Barrier);
            assert!(cycles <= prev, "lanes {lanes}: {cycles} > {prev}");
            prev = cycles;
        }
    }
}

/// More scratchpad banks never slow a kernel down.
#[test]
fn partition_monotonic() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xACC3 + case);
        let iters = rng.gen_range(1..20usize);
        let ops = random_ops(&mut rng, 5);
        let trace = random_kernel(iters, &ops);
        let mut prev = u64::MAX;
        for partition in [1u32, 2, 4, 8] {
            let cycles = run(&trace, 8, partition, LaneSync::Barrier);
            assert!(cycles <= prev, "partition {partition}: {cycles} > {prev}");
            prev = cycles;
        }
    }
}

/// Free lane synchronization is never slower than the barrier.
#[test]
fn barrier_is_conservative() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xACC4 + case);
        let iters = rng.gen_range(1..20usize);
        let ops = random_ops(&mut rng, 5);
        let lanes = rng.gen_range(1..8u32);
        let trace = random_kernel(iters, &ops);
        let barrier = run(&trace, lanes, 8, LaneSync::Barrier);
        let free = run(&trace, lanes, 8, LaneSync::Free);
        assert!(free <= barrier, "free {free} > barrier {barrier}");
    }
}

/// The instance-based round mapping never assigns a dependence to a
/// later round than its consumer (the deadlock-freedom invariant).
#[test]
fn rounds_are_monotone_along_deps() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xACC5 + case);
        let iters = rng.gen_range(1..24usize);
        let ops = random_ops(&mut rng, 6);
        let lanes = rng.gen_range(1..8u32);
        let trace = random_kernel(iters, &ops);
        let cfg = DatapathConfig {
            lanes,
            ..DatapathConfig::default()
        };
        let graph = PreparedDddg::new(&trace, &cfg);
        let round = |i: usize| graph.instances()[i] / lanes;
        for node in trace.nodes() {
            for dep in &node.deps {
                assert!(round(dep.index()) <= round(node.id.index()));
            }
        }
        // The barrier rounds partition the nodes.
        let totals: Vec<usize> = graph.round_totals(lanes).collect();
        assert_eq!(totals.len(), graph.num_rounds(lanes));
        assert_eq!(totals.iter().sum::<usize>(), trace.nodes().len());
    }
}

/// Determinism: identical inputs produce identical schedules.
#[test]
fn schedule_is_deterministic() {
    for case in 0..32u64 {
        let mut rng = SmallRng::seed_from_u64(0xACC6 + case);
        let iters = rng.gen_range(1..16usize);
        let ops = random_ops(&mut rng, 5);
        let lanes = rng.gen_range(1..8u32);
        let trace = random_kernel(iters, &ops);
        let a = run(&trace, lanes, 4, LaneSync::Barrier);
        let b = run(&trace, lanes, 4, LaneSync::Barrier);
        assert_eq!(a, b);
    }
}
