//! One `SchedulerWorkspace` serves both node stores. Reusing it across a
//! mix of prepared and streamed runs — including runs cut off mid-flight
//! that leave its buffers dirty — must give the same schedule and the
//! same scratchpad statistics as a fresh workspace per run.

use aladdin_accel::{
    trace_node_stream, try_schedule_prepared, try_schedule_windowed, DatapathConfig, LaneSync,
    PreparedDddg, ScheduleResult, SchedulerWorkspace, SpadMemory, SpadStats,
};
use aladdin_faults::Watchdog;
use aladdin_ir::{ArrayKind, Opcode, Trace, Tracer};

/// Nodes per loop iteration of [`kernel`].
const NODES_PER_ITER: usize = 5;

/// `iters` iterations of two loads, a multiply, an add chained to the
/// previous iteration's product, and a store.
fn kernel(iters: usize) -> Trace {
    let mut t = Tracer::new("reuse");
    let a = t.array_f64("a", &vec![1.5; iters], ArrayKind::Input);
    let b = t.array_f64("b", &vec![2.0; iters], ArrayKind::Input);
    let mut c = t.array_f64("c", &vec![0.0; iters], ArrayKind::Output);
    let mut prev = None;
    for i in 0..iters {
        t.begin_iteration(i as u32);
        let x = t.load(&a, i);
        let y = t.load(&b, i);
        let p = t.binop(Opcode::FMul, x, y);
        let q = t.binop(Opcode::FAdd, p, prev.unwrap_or(p));
        t.store(&mut c, i, q);
        prev = Some(p);
    }
    t.finish()
}

/// Which store a run uses: prepared, or streamed with a window of that
/// many nodes.
#[derive(Debug, Clone, Copy)]
enum Store {
    Prepared,
    Streamed(usize),
}

/// Schedule `trace` on a fresh scratchpad with `ws`'s buffers; the
/// schedule and the scratchpad's statistics, or the error code.
fn spad_run(
    trace: &Trace,
    cfg: &DatapathConfig,
    store: Store,
    ws: &mut SchedulerWorkspace,
    watchdog: &Watchdog,
) -> Result<(ScheduleResult, SpadStats), &'static str> {
    let mut mem = SpadMemory::new(trace, cfg);
    let result = match store {
        Store::Prepared => {
            let prepared = PreparedDddg::new(trace, cfg);
            try_schedule_prepared(trace, cfg, &prepared, ws, &mut mem, 3, watchdog)
        }
        Store::Streamed(window) => {
            let nodes = trace_node_stream(trace);
            try_schedule_windowed(nodes, cfg, ws, &mut mem, 3, watchdog, window).map(|o| o.result)
        }
    };
    Ok((result.map_err(|e| e.code())?, mem.stats()))
}

#[test]
fn one_workspace_across_both_stores_matches_fresh_workspaces() {
    let trace = kernel(24);
    // Expires with loads, compute and barrier rounds all in flight.
    let cut_short = Watchdog {
        max_cycles: Some(4),
        ..Watchdog::default()
    };
    let mut shared = SchedulerWorkspace::new();
    // Lanes alternate between growing and shrinking, so the shared
    // workspace holds more ready heaps than some runs use.
    for lanes in [1u32, 8, 2, 4] {
        let round = NODES_PER_ITER * lanes as usize;
        let stores = [
            Store::Prepared,
            Store::Streamed(round),
            Store::Streamed(trace.nodes().len()),
        ];
        for partition in [1u32, 8] {
            for sync in [LaneSync::Barrier, LaneSync::Free] {
                let cfg = DatapathConfig {
                    lanes,
                    partition,
                    sync,
                    ..DatapathConfig::default()
                };
                for store in stores {
                    // Leave the shared workspace dirty before every run.
                    let cut = spad_run(&trace, &cfg, store, &mut shared, &cut_short);
                    assert_eq!(cut, Err("L0233"), "{store:?}");

                    let full = Watchdog::default();
                    let reused = spad_run(&trace, &cfg, store, &mut shared, &full);
                    let fresh =
                        spad_run(&trace, &cfg, store, &mut SchedulerWorkspace::new(), &full);
                    assert!(reused.is_ok(), "{store:?}");
                    assert_eq!(
                        reused, fresh,
                        "lanes={lanes} partition={partition} sync={sync:?} {store:?}"
                    );
                }
            }
        }
    }
}
