//! One `SchedulerWorkspace` serves both node stores. Reusing it across a
//! mix of prepared and streamed runs — including runs cut off mid-flight
//! that leave its buffers dirty — must give the same schedule and the
//! same scratchpad statistics as a fresh workspace per run, and a warm
//! workspace streams without allocating per node.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aladdin_accel::{
    trace_node_stream, try_schedule_prepared, try_schedule_windowed, DatapathConfig, LaneSync,
    PreparedDddg, ScheduleResult, SchedulerWorkspace, SpadMemory, SpadStats,
};
use aladdin_faults::Watchdog;
use aladdin_ir::{encode_trace, ArrayKind, AtrcTrace, Opcode, Trace, Tracer};
use aladdin_mem::IntervalSet;

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

/// Streamed runs from `.atrc` bytes on one reused workspace, with windows
/// that grow and shrink between runs and a run cut short before each:
/// the whole outcome — schedule, resident peak and trace statistics —
/// equals a fresh workspace's.
#[test]
fn streamed_atrc_runs_on_a_reused_workspace_match_fresh_ones() {
    let trace = kernel(40);
    let atrc = AtrcTrace::from_bytes(encode_trace(&trace)).expect("valid bytes");
    let stream =
        |cfg: &DatapathConfig, ws: &mut SchedulerWorkspace, watchdog: &Watchdog, window| {
            let mut mem = SpadMemory::new(&trace, cfg);
            try_schedule_windowed(atrc.nodes(), cfg, ws, &mut mem, 0, watchdog, window)
                .map(|out| (out, mem.stats()))
                .map_err(|e| e.code())
        };
    let cut_short = Watchdog {
        max_cycles: Some(6),
        ..Watchdog::default()
    };
    let mut shared = SchedulerWorkspace::new();
    for sync in [LaneSync::Barrier, LaneSync::Free] {
        for (lanes, window) in [(4u32, 200usize), (1, 3), (8, NODES_PER_ITER * 8), (2, 1)] {
            let cfg = DatapathConfig {
                lanes,
                partition: 4,
                sync,
                ..DatapathConfig::default()
            };
            let ctx = format!("lanes={lanes} window={window} sync={sync:?}");
            let cut = stream(&cfg, &mut shared, &cut_short, window);
            assert_eq!(cut.map(|_| ()), Err("L0233"), "{ctx}");
            let full = Watchdog::default();
            let reused = stream(&cfg, &mut shared, &full, window).expect("streams");
            let fresh = stream(&cfg, &mut SchedulerWorkspace::new(), &full, window);
            assert_eq!(Ok(&reused), fresh.as_ref(), "{ctx}");
            assert_eq!(reused.0.stats, trace.stats(), "{ctx}");
        }
    }
}

/// Counts the calling thread's allocations (and reallocations).
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // Ignore the count during thread teardown rather than panic in the
    // allocator.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so each call meets `System`'s contract exactly when the
// caller meets `GlobalAlloc`'s; counting touches only a thread-local
// `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; see the impl's comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations one streamed run of `trace` makes on `ws` (the node
/// stream's own buffers are not counted: its first block is decoded
/// before counting starts), and how many of them building the result's
/// busy-interval set takes on its own.
fn streamed_allocs(
    trace: &Trace,
    cfg: &DatapathConfig,
    ws: &mut SchedulerWorkspace,
) -> (usize, usize) {
    let atrc = AtrcTrace::from_bytes(encode_trace(trace)).expect("valid bytes");
    let mut mem = SpadMemory::new(trace, cfg);
    let mut nodes = atrc.nodes();
    let first = nodes.next();
    let before = ALLOCS.with(Cell::get);
    let out = try_schedule_windowed(
        first.into_iter().chain(nodes),
        cfg,
        ws,
        &mut mem,
        0,
        &Watchdog::default(),
        64,
    );
    let allocs = ALLOCS.with(Cell::get) - before;
    let busy = out.expect("streams").result.busy;
    let before = ALLOCS.with(Cell::get);
    let mut rebuilt = IntervalSet::new();
    for &(start, end) in busy.as_slice() {
        rebuilt.push(start, end);
    }
    (allocs, ALLOCS.with(Cell::get) - before)
}

/// A workspace keeps the streamed store's slot ring and every other
/// buffer: once a run has warmed it, a streamed run allocates only its
/// result's busy-interval set, whether the trace has 40 iterations or
/// 4,000.
#[test]
fn a_warm_workspace_streams_without_allocating_per_node() {
    for sync in [LaneSync::Barrier, LaneSync::Free] {
        let cfg = DatapathConfig {
            lanes: 2,
            partition: 4,
            sync,
            ..DatapathConfig::default()
        };
        let mut ws = SchedulerWorkspace::new();
        let (cold, _) = streamed_allocs(&kernel(4000), &cfg, &mut ws);
        for iters in [40, 4000] {
            let (warm, busy) = streamed_allocs(&kernel(iters), &cfg, &mut ws);
            assert_eq!(warm, busy, "{sync:?} {iters} iterations (cold: {cold})");
        }
    }
}
