//! The scheduler's memory-issue contract, checked from the memory's side
//! for both engines: each cycle the scheduler tries the
//! `mem_issue_budget(cfg)` smallest ready memory ids in ascending order,
//! and a rejected op stays ready without losing its place. A recording
//! memory that accepts at most `k` issues per cycle sees every attempt.

use aladdin_accel::{
    mem_issue_budget, trace_node_stream, try_schedule_prepared, try_schedule_windowed,
    DatapathConfig, DatapathMemory, IssueResult, LaneSync, PreparedDddg, ScheduleResult,
    SchedulerWorkspace,
};
use aladdin_faults::Watchdog;
use aladdin_ir::{ArrayKind, Opcode, TVal, Trace, Tracer};
use aladdin_rng::SmallRng;

/// One issue attempt: `(cycle, node id, accepted)`.
type Attempt = (u64, u64, bool);

/// Accepts at most `k` issues per cycle, and turns some ids away even
/// with ports to spare (a pseudo-random bank conflict), so rejected and
/// accepted attempts interleave. Records every attempt.
struct KPerCycle {
    k: usize,
    salt: u64,
    accepted: usize,
    attempts: Vec<Attempt>,
}

impl KPerCycle {
    fn new(k: usize, salt: u64) -> Self {
        KPerCycle {
            k,
            salt,
            accepted: 0,
            attempts: Vec::new(),
        }
    }
}

impl DatapathMemory for KPerCycle {
    fn begin_cycle(&mut self, _cycle: u64) {
        self.accepted = 0;
    }

    fn issue(&mut self, id: u64, _addr: u64, _bytes: u32, _write: bool, cycle: u64) -> IssueResult {
        let ok = self.accepted < self.k && !(id ^ cycle ^ self.salt).is_multiple_of(3);
        self.attempts.push((cycle, id, ok));
        if ok {
            self.accepted += 1;
            IssueResult::Done { at: cycle + 1 }
        } else {
            IssueResult::Reject
        }
    }

    fn drain_completions(&mut self, _out: &mut Vec<(u64, u64)>) {}

    fn end_cycle(&mut self, _cycle: u64) {}
}

/// Schedule `trace` on both engines (the windowed one with a window
/// holding the whole trace) against fresh recording memories; both must
/// make the same attempts and report the same schedule.
fn run_both(
    trace: &Trace,
    cfg: &DatapathConfig,
    k: usize,
    salt: u64,
) -> (ScheduleResult, Vec<Attempt>) {
    let prepared = PreparedDddg::new(trace, cfg);
    let mut mem = KPerCycle::new(k, salt);
    let materialized = try_schedule_prepared(
        trace,
        cfg,
        &prepared,
        &mut SchedulerWorkspace::new(),
        &mut mem,
        0,
        &Watchdog::default(),
    )
    .expect("schedules");
    let mut wmem = KPerCycle::new(k, salt);
    let windowed = try_schedule_windowed(
        trace_node_stream(trace),
        cfg,
        &mut SchedulerWorkspace::new(),
        &mut wmem,
        0,
        &Watchdog::default(),
        trace.nodes().len(),
    )
    .expect("schedules")
    .result;
    assert_eq!(materialized, windowed, "engines disagree");
    assert_eq!(mem.attempts, wmem.attempts, "engines attempt differently");
    let rejects = mem.attempts.iter().filter(|a| !a.2).count() as u64;
    assert_eq!(materialized.mem_rejects, rejects);
    (materialized, mem.attempts)
}

/// The attempts of each cycle that made any, in cycle order.
fn by_cycle(attempts: &[Attempt]) -> Vec<(u64, Vec<(u64, bool)>)> {
    let mut out: Vec<(u64, Vec<(u64, bool)>)> = Vec::new();
    for &(cycle, id, ok) in attempts {
        match out.last_mut() {
            Some((c, v)) if *c == cycle => v.push((id, ok)),
            _ => out.push((cycle, vec![(id, ok)])),
        }
    }
    out
}

/// One iteration of 192 dependence-free loads: every load is ready from
/// cycle 0, so the ready set at any cycle is exactly the loads not yet
/// accepted, and the attempts each cycle can be predicted outright.
#[test]
fn each_cycle_tries_the_budget_smallest_ready_ids_in_order() {
    for (case, (lanes, partition, k)) in [(1, 1, 1), (2, 2, 1), (2, 4, 3), (4, 1, 2)]
        .into_iter()
        .enumerate()
    {
        let mut t = Tracer::new("loads");
        let a = t.array_f64("a", &[1.0; 96], ArrayKind::Input);
        let b = t.array_f64("b", &[2.0; 96], ArrayKind::Input);
        t.begin_iteration(0);
        for i in 0..96 {
            t.load(&a, i);
            t.load(&b, i);
        }
        let trace = t.finish();
        let mut ready: Vec<u64> = trace
            .nodes()
            .iter()
            .filter(|n| n.opcode.is_memory())
            .inspect(|n| assert!(n.deps.is_empty(), "loads are dependence-free"))
            .map(|n| n.id.index() as u64)
            .collect();
        let cfg = DatapathConfig {
            lanes,
            partition,
            ..DatapathConfig::default()
        };
        let budget = mem_issue_budget(&cfg);
        let (result, attempts) = run_both(&trace, &cfg, k, case as u64);
        assert!(
            result.mem_rejects > 0,
            "case {case}: the memory pushed back"
        );
        for (cycle, tried) in by_cycle(&attempts) {
            let ids: Vec<u64> = tried.iter().map(|&(id, _)| id).collect();
            let expected: Vec<u64> = ready.iter().copied().take(budget).collect();
            assert_eq!(ids, expected, "case {case}, cycle {cycle}");
            ready.retain(|id| !tried.contains(&(*id, true)));
        }
        assert!(ready.is_empty(), "case {case}: every load issued");
    }
}

/// Random kernels with loads, dependent compute and stores. Whatever
/// becomes ready when, each cycle's attempts ascend and fit the budget,
/// and a rejected op is still ready the next cycle: it is tried again,
/// unless the budget filled up with smaller ids first.
#[test]
fn rejected_ops_keep_their_place_on_both_engines() {
    for case in 0..48u64 {
        let mut rng = SmallRng::seed_from_u64(0x15_5E + case);
        let iters = rng.gen_range(1..24usize);
        let mut t = Tracer::new("mixed");
        let a = t.array_f64("a", &vec![1.0; iters], ArrayKind::Input);
        let b = t.array_f64("b", &vec![2.0; iters], ArrayKind::Input);
        let mut c = t.array_f64("c", &vec![0.0; iters], ArrayKind::Output);
        for i in 0..iters {
            t.begin_iteration(i as u32);
            let mut v = t.load(&a, i);
            for _ in 0..rng.gen_range(0..3usize) {
                let w = t.load(&b, rng.gen_range(0..iters));
                v = t.binop(Opcode::FMul, v, w);
            }
            v = t.binop(Opcode::FAdd, v, TVal::lit(0.5));
            t.store(&mut c, i, v);
        }
        let trace = t.finish();
        let cfg = DatapathConfig {
            lanes: rng.gen_range(1..5u32),
            partition: rng.gen_range(1..5u32),
            sync: if rng.gen_bool(0.5) {
                LaneSync::Barrier
            } else {
                LaneSync::Free
            },
            ..DatapathConfig::default()
        };
        let budget = mem_issue_budget(&cfg);
        let (_, attempts) = run_both(&trace, &cfg, rng.gen_range(1..4usize), case);
        let cycles = by_cycle(&attempts);
        for (cycle, tried) in &cycles {
            assert!(tried.len() <= budget, "case {case}, cycle {cycle}");
            assert!(
                tried.windows(2).all(|w| w[0].0 < w[1].0),
                "case {case}, cycle {cycle}: {tried:?}"
            );
        }
        for pair in cycles.windows(2) {
            let ((cycle, tried), (next_cycle, next)) = (&pair[0], &pair[1]);
            let rejected: Vec<u64> = tried.iter().filter(|a| !a.1).map(|a| a.0).collect();
            if rejected.is_empty() {
                continue;
            }
            assert_eq!(
                *next_cycle,
                cycle + 1,
                "case {case}: a reject leaves work ready"
            );
            let largest = next.last().map_or(0, |a| a.0);
            for id in rejected {
                let retried = next.iter().any(|a| a.0 == id);
                assert!(
                    retried || (next.len() == budget && id > largest),
                    "case {case}, cycle {cycle}: rejected {id} lost its place"
                );
            }
        }
    }
}
