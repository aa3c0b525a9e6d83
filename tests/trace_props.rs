//! Streaming-trace properties: `.atrc` round-trips, fingerprint parity,
//! and windowed-vs-materialized schedule equivalence.
//!
//! The `.atrc` codec's contract is that a file-backed trace is the *same
//! trace*: decoding reproduces every node, array, and the content
//! fingerprint, and re-encoding reproduces the exact bytes (the encoding
//! is canonical). The windowed scheduler's contract is that a window
//! covering the whole trace is bit-exact with the materialized path —
//! full `FlowResult` equality across every bundled kernel and every
//! memory-system kind — while any smaller window still completes with a
//! bounded resident set. Under the lane barrier only the barrier frontier
//! is admitted, so the resident set stays within two rounds whatever the
//! window; without the barrier admission fills the window. Decoding an `.atrc` source ahead on a second
//! thread (the one-shot `simulate_source`) or inline (the sweep path)
//! gives the same run, and a run that fails mid-stream leaves no decoder
//! behind.

use aladdin_accel::{
    DatapathConfig, LaneSync, PreparedDddg, SchedulerWorkspace, DEFAULT_WINDOW_NODES,
};
use aladdin_core::{
    simulate, simulate_source, simulate_source_prepared, DmaOptLevel, FaultPlan, FlowSpec, MemKind,
    SimHarness, SocConfig, TraceSource, Watchdog,
};
use aladdin_ir::{encode_trace, ArrayKind, AtrcTrace, Opcode, TVal, Trace, Tracer};
use aladdin_rng::SmallRng;
use aladdin_workloads::{all_kernels, by_name};

const KINDS: [MemKind; 3] = [
    MemKind::Isolated,
    MemKind::Dma(DmaOptLevel::Full),
    MemKind::Cache,
];

fn assert_traces_equal(a: &Trace, b: &Trace, ctx: &str) {
    assert_eq!(a.name(), b.name(), "{ctx}: name");
    assert_eq!(a.arrays(), b.arrays(), "{ctx}: arrays");
    assert_eq!(a.nodes().len(), b.nodes().len(), "{ctx}: node count");
    for (x, y) in a.nodes().iter().zip(b.nodes()) {
        assert_eq!(x, y, "{ctx}: node {:?}", x.id);
    }
}

/// Every bundled kernel encodes, decodes back to an identical trace, and
/// re-encodes to identical bytes.
#[test]
fn atrc_round_trips_every_bundled_kernel() {
    for k in all_kernels() {
        let trace = k.run().trace;
        let bytes = encode_trace(&trace);
        let atrc = AtrcTrace::from_bytes(bytes.clone()).expect("valid bytes");
        let decoded = atrc.decode().expect("decodes");
        assert_traces_equal(&trace, &decoded, k.name());
        assert_eq!(encode_trace(&decoded), bytes, "{}: re-encode", k.name());
    }
}

/// The fingerprint streamed over encoded bytes (the `.atrc` footer) equals
/// the in-memory [`Trace::fingerprint`] for every bundled kernel — the
/// property the DSE result cache keys rely on.
#[test]
fn streamed_fingerprint_matches_in_memory_for_every_kernel() {
    for k in all_kernels() {
        let trace = k.run().trace;
        let atrc = AtrcTrace::from_bytes(encode_trace(&trace)).expect("valid bytes");
        assert_eq!(atrc.fingerprint(), trace.fingerprint(), "{}", k.name());
        assert_eq!(
            atrc.decode().expect("decodes").fingerprint(),
            trace.fingerprint(),
            "{}: decode fingerprint",
            k.name()
        );
    }
}

/// A kernel whose `raw_op` nodes combine 4 to 9 distinct producers (plus
/// repeats and literals), so their dependence lists outgrow the inline
/// slots. No bundled kernel has more than three dependences per node.
fn wide_kernel(t: &mut Tracer) {
    let n = 12;
    let input: Vec<f64> = (0..n).map(|i| i as f64 + 0.25).collect();
    let a = t.array_f64("a", &input, ArrayKind::Input);
    let mut o = t.array_f64("o", &vec![0.0; n], ArrayKind::Output);
    let loads: Vec<TVal<f64>> = (0..n).map(|i| t.load(&a, i)).collect();
    for (i, width) in [4, 5, 9, 3, 6].into_iter().enumerate() {
        t.begin_iteration(i as u32);
        let mut srcs: Vec<Option<aladdin_ir::NodeId>> =
            loads[i..i + width].iter().rev().map(|v| v.src).collect();
        srcs.push(loads[i].src);
        srcs.push(None);
        let sum = loads[i..i + width].iter().map(|v| v.v).sum();
        let v = t.raw_op(Opcode::FAdd, sum, &srcs);
        t.store(&mut o, i, v);
    }
}

/// Dependence lists longer than the inline capacity survive the `.atrc`
/// codec, in memory and streamed to a file, with one fingerprint.
#[test]
fn wide_dependence_lists_round_trip_through_atrc() {
    let mut t = Tracer::new("wide-deps");
    wide_kernel(&mut t);
    let trace = t.finish();
    let widths: Vec<usize> = trace.nodes().iter().map(|n| n.deps.len()).collect();
    assert_eq!(widths.iter().max(), Some(&9));
    assert!(widths.contains(&4) && widths.contains(&5));
    for node in trace.nodes() {
        assert!(node.deps.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
    }

    let bytes = encode_trace(&trace);
    let atrc = AtrcTrace::from_bytes(bytes.clone()).expect("valid bytes");
    let decoded = atrc.decode().expect("decodes");
    assert_traces_equal(&trace, &decoded, "in memory");
    assert_eq!(atrc.fingerprint(), trace.fingerprint());
    assert_eq!(decoded.fingerprint(), trace.fingerprint());

    let path = std::env::temp_dir().join(format!("aladdin-wide-deps-{}.atrc", std::process::id()));
    let mut streamed = Tracer::new("wide-deps");
    let file = std::fs::File::create(&path).expect("temp file");
    streamed
        .stream_to(Box::new(std::io::BufWriter::new(file)))
        .expect("header");
    wide_kernel(&mut streamed);
    let summary = streamed.finish_streaming().expect("streams");
    assert_eq!(summary.fingerprint, trace.fingerprint());
    let on_disk = AtrcTrace::open(&path).expect("opens");
    let _ = std::fs::remove_file(&path);
    assert_eq!(on_disk.fingerprint(), trace.fingerprint());
    let from_file = on_disk.decode().expect("decodes");
    assert_traces_equal(&trace, &from_file, "streamed");
    assert_eq!(from_file.fingerprint(), trace.fingerprint());
    assert_eq!(encode_trace(&from_file), bytes, "canonical bytes");
}

/// No two bundled kernels share a fingerprint, so none can be served
/// another's cached results.
#[test]
fn bundled_kernel_fingerprints_are_pairwise_distinct() {
    let kernels = all_kernels();
    let mut prints: Vec<(u128, &str)> = kernels
        .iter()
        .map(|k| (k.run().trace.fingerprint(), k.name()))
        .collect();
    assert_eq!(prints.len(), 16);
    prints.sort_unstable();
    for w in prints.windows(2) {
        assert_ne!(w[0].0, w[1].0, "{} and {} collide", w[0].1, w[1].1);
    }
}

/// A randomized kernel exercising every record shape the codec has:
/// direct and indirect loads, stores (RAW/WAW chains), float and integer
/// compute, square roots, and scattered iteration labels.
fn random_trace(seed: u64) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = Tracer::new(format!("rand-{seed}"));
    let len = rng.gen_range(1..=64usize);
    let input: Vec<f64> = (0..len).map(|i| i as f64 * 0.5 + 1.0).collect();
    let idx_data: Vec<i64> = (0..len as i64).collect();
    let a = t.array_f64("a", &input, ArrayKind::Input);
    let idx_arr = t.array_i32("idx", &idx_data, ArrayKind::Input);
    let mut b = t.array_f64("b", &vec![0.0; len], ArrayKind::Output);
    let ops = rng.gen_range(1..=256usize);
    let mut last: Option<TVal<f64>> = None;
    for _ in 0..ops {
        t.begin_iteration(rng.gen_range(0..8u32));
        match rng.gen_range(0..6u32) {
            0 => last = Some(t.load(&a, rng.gen_range(0..len))),
            1 => {
                let v = last.take().unwrap_or(TVal::lit(1.0));
                t.store(&mut b, rng.gen_range(0..len), v);
            }
            2 => {
                let x = last.unwrap_or(TVal::lit(2.0));
                last = Some(t.binop(Opcode::FMul, x, TVal::lit(1.5)));
            }
            3 => {
                let x = last.unwrap_or(TVal::lit(2.0));
                last = Some(t.binop(Opcode::FAdd, x, TVal::lit(0.5)));
            }
            4 => {
                let j = t.load(&idx_arr, rng.gen_range(0..len));
                let at = usize::try_from(j.v).expect("non-negative") % len;
                last = Some(t.load_indexed(&a, at, j.src));
            }
            _ => {
                let x = last.unwrap_or(TVal::lit(4.0));
                last = Some(t.fsqrt(x));
            }
        }
    }
    t.finish()
}

/// One hundred randomized traces round-trip in both directions:
/// decode(encode(t)) == t and encode(decode(bytes)) == bytes.
#[test]
fn atrc_round_trips_randomized_traces() {
    for seed in 0..100u64 {
        let trace = random_trace(seed);
        let bytes = encode_trace(&trace);
        let atrc =
            AtrcTrace::from_bytes(bytes.clone()).unwrap_or_else(|d| panic!("seed {seed}: {d}"));
        let decoded = atrc.decode().unwrap_or_else(|d| panic!("seed {seed}: {d}"));
        assert_traces_equal(&trace, &decoded, &format!("seed {seed}"));
        assert_eq!(encode_trace(&decoded), bytes, "seed {seed}: re-encode");
        assert_eq!(
            atrc.fingerprint(),
            trace.fingerprint(),
            "seed {seed}: fingerprint"
        );
    }
}

/// Every kernel × {isolated, dma, cache}: the windowed scheduler with a
/// trace-covering window reproduces the materialized `FlowResult`
/// bit-for-bit — both streaming from memory and from encoded `.atrc`
/// bytes — and reports a resident high-water mark within the window.
#[test]
fn windowed_schedule_is_bit_exact_across_kernels_and_flows() {
    let soc = SocConfig::default();
    let dp = DatapathConfig {
        lanes: 4,
        partition: 4,
        ..DatapathConfig::default()
    };
    for k in all_kernels() {
        let trace = k.run().trace;
        let atrc = AtrcTrace::from_bytes(encode_trace(&trace)).expect("valid bytes");
        let window = trace.nodes().len().max(1);
        for kind in KINDS {
            let ctx = format!("{} {kind:?}", k.name());
            let base = simulate(&trace, &dp, &soc, &FlowSpec::new(kind)).expect("materialized");
            let spec = FlowSpec::new(kind).with_window(window);
            let mem = simulate_source(&TraceSource::Memory(&trace), &dp, &soc, &spec)
                .expect("windowed from memory");
            assert_eq!(mem.result, base, "{ctx}: memory-streamed");
            let file = simulate_source(&TraceSource::Atrc(&atrc), &dp, &soc, &spec)
                .expect("windowed from atrc");
            assert_eq!(file.result, base, "{ctx}: atrc-streamed");
            for run in [&mem, &file] {
                let peak = run.peak_resident_nodes.expect("windowed runs report peak");
                assert!(
                    peak <= window as u64,
                    "{ctx}: peak {peak} > window {window}"
                );
            }
        }
    }
}

/// Windows far below the trace size still complete every flow with the
/// resident set bounded by the window — the sound (bounded-memory) mode
/// paper-scale++ traces run in.
#[test]
fn small_windows_bound_memory_across_flows() {
    let soc = SocConfig::default();
    let dp = DatapathConfig {
        lanes: 4,
        partition: 4,
        ..DatapathConfig::default()
    };
    let trace = by_name("fft-transpose").expect("kernel").run().trace;
    let atrc = AtrcTrace::from_bytes(encode_trace(&trace)).expect("valid bytes");
    for window in [1usize, 64, 1024] {
        for kind in KINDS {
            let spec = FlowSpec::new(kind).with_window(window);
            let run = simulate_source(&TraceSource::Atrc(&atrc), &dp, &soc, &spec)
                .unwrap_or_else(|e| panic!("window {window} {kind:?}: {e:?}"));
            let peak = run.peak_resident_nodes.expect("windowed runs report peak");
            assert!(
                peak <= window as u64,
                "window {window} {kind:?}: peak {peak}"
            );
            assert!(run.result.total_cycles > 0);
        }
    }
}

/// Every kernel at lanes 1, 2, 8 and 16 under the lane barrier, streamed
/// from its `.atrc` bytes with the default window and with a window of
/// exactly its largest round, reproduces the prepared `FlowResult`
/// (stepped cycles and events included) for every memory-system kind.
/// Admission stops at the barrier frontier, so no more than the two
/// largest consecutive rounds plus one node are ever resident.
#[test]
fn barrier_streams_admit_only_the_frontier_and_stay_bit_exact() {
    let soc = SocConfig::default();
    let mut ws = SchedulerWorkspace::new();
    for k in all_kernels() {
        let trace = k.run().trace;
        let atrc = AtrcTrace::from_bytes(encode_trace(&trace)).expect("valid bytes");
        let graph = PreparedDddg::new(&trace, &DatapathConfig::default());
        for lanes in [1u32, 2, 8, 16] {
            let dp = DatapathConfig {
                lanes,
                partition: lanes,
                ..DatapathConfig::default()
            };
            assert_eq!(dp.sync, LaneSync::Barrier);
            let rounds: Vec<usize> = graph.round_totals(lanes).collect();
            let largest = rounds.iter().copied().max().unwrap_or(0).max(1);
            let two_rounds = rounds.windows(2).map(|w| w[0] + w[1]).max();
            let bound = two_rounds.unwrap_or(largest) + 1;
            for kind in KINDS {
                let ctx = format!("{} lanes={lanes} {kind:?}", k.name());
                let spec = FlowSpec::new(kind);
                let base = simulate(&trace, &dp, &soc, &spec).expect("prepared");
                let default = simulate_source(&TraceSource::Atrc(&atrc), &dp, &soc, &spec)
                    .expect("default window");
                let tight = simulate_source_prepared(
                    &TraceSource::Atrc(&atrc),
                    &dp,
                    &soc,
                    &spec.with_window(largest),
                    &mut ws,
                )
                .expect("largest-round window");
                for (window, run) in [("default", &default), ("largest-round", &tight)] {
                    assert_eq!(run.result, base, "{ctx}: {window} window");
                    let peak = run.peak_resident_nodes.expect("streamed runs report peak");
                    assert!(
                        peak <= bound as u64,
                        "{ctx}: {window} window held {peak} nodes, bound {bound}"
                    );
                }
            }
        }
    }
}

/// Without the lane barrier admission stays eager: gemm-ncubed at four
/// free-running lanes fills the default window, and its schedule is the
/// one eager admission has always produced (pinned), equal to the
/// prepared store's.
#[test]
fn free_lanes_admit_eagerly_up_to_the_window() {
    let soc = SocConfig::default();
    let dp = DatapathConfig {
        lanes: 4,
        sync: LaneSync::Free,
        ..DatapathConfig::default()
    };
    let trace = by_name("gemm-ncubed").expect("kernel").run().trace;
    assert!(trace.nodes().len() > DEFAULT_WINDOW_NODES);
    let atrc = AtrcTrace::from_bytes(encode_trace(&trace)).expect("valid bytes");
    // (total cycles, stepped cycles, events)
    let pinned = [
        (MemKind::Isolated, (32_838, 32_809, 264_192)),
        (MemKind::Cache, (48_370, 48_354, 264_192)),
    ];
    for (kind, counts) in pinned {
        let spec = FlowSpec::new(kind);
        let run = simulate_source(&TraceSource::Atrc(&atrc), &dp, &soc, &spec).expect("streams");
        assert_eq!(
            run.peak_resident_nodes,
            Some(DEFAULT_WINDOW_NODES as u64),
            "{kind:?}"
        );
        let r = &run.result;
        assert_eq!(
            (r.total_cycles, r.sched_stepped_cycles, r.sched_events),
            counts,
            "{kind:?}"
        );
        assert_eq!(
            run.result,
            simulate(&trace, &dp, &soc, &spec).expect("prepared")
        );
    }
}

/// The one-shot `simulate_source` decodes an `.atrc` source ahead on a
/// second thread; the sweep path, `simulate_source_prepared`, decodes it
/// inline. Both return the same `SourceFlowRun`, equal to streaming the
/// in-memory trace through the same window, for every kernel and flow.
#[test]
fn decode_ahead_and_inline_runs_are_identical() {
    let soc = SocConfig::default();
    let dp = DatapathConfig {
        lanes: 4,
        partition: 4,
        ..DatapathConfig::default()
    };
    let mut ws = SchedulerWorkspace::new();
    for k in all_kernels() {
        let trace = k.run().trace;
        let atrc = AtrcTrace::from_bytes(encode_trace(&trace)).expect("valid bytes");
        for kind in KINDS {
            let ctx = format!("{} {kind:?}", k.name());
            let spec = FlowSpec::new(kind);
            let windowed = spec.with_window(DEFAULT_WINDOW_NODES);
            let mem = simulate_source(&TraceSource::Memory(&trace), &dp, &soc, &windowed)
                .expect("in memory");
            let ahead =
                simulate_source(&TraceSource::Atrc(&atrc), &dp, &soc, &spec).expect("ahead");
            let inline =
                simulate_source_prepared(&TraceSource::Atrc(&atrc), &dp, &soc, &spec, &mut ws)
                    .expect("inline");
            assert_eq!(ahead, inline, "{ctx}: decode ahead vs inline");
            assert_eq!(ahead, mem, "{ctx}: decode ahead vs in memory");
        }
    }
}

/// Whether this process holds a descriptor open on `path`. Linux lists
/// them in `/proc/self/fd`; elsewhere this reads `false`.
fn holds_open(path: &std::path::Path) -> bool {
    let Ok(fds) = std::fs::read_dir("/proc/self/fd") else {
        return false;
    };
    let path = std::fs::canonicalize(path).expect("the file exists");
    fds.filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
        .any(|target| target == path)
}

/// A run that ends mid-stream, by watchdog expiry or by deadlock, returns
/// its `SimError` with the decoder thread already joined: once the trace
/// is dropped, nothing holds its file open.
#[test]
fn a_failed_streamed_run_joins_its_decoder() {
    let dp = DatapathConfig::default();
    let soc = SocConfig::default();
    let trace = by_name("gemm-ncubed").expect("kernel").run().trace;
    assert!(
        trace.nodes().len() > 19 * 4096,
        "more batches than are decoded ahead"
    );
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("failed-run.atrc");
    std::fs::write(&path, encode_trace(&trace)).expect("write trace");
    let cases = [
        (
            "watchdog",
            MemKind::Isolated,
            Watchdog {
                max_cycles: Some(200),
                ..Watchdog::default()
            },
            "L0233",
        ),
        (
            "deadlock",
            MemKind::Cache,
            Watchdog {
                max_cycles: None,
                no_progress_cycles: 1,
            },
            "L0232",
        ),
    ];
    for (what, kind, watchdog, code) in cases {
        let atrc = AtrcTrace::open(&path).expect("opens");
        let harness = SimHarness {
            plan: FaultPlan::none(),
            watchdog,
        };
        let spec = FlowSpec::new(kind).with_harness(&harness);
        let err = simulate_source(&TraceSource::Atrc(&atrc), &dp, &soc, &spec).expect_err(what);
        assert_eq!(err.code(), code, "{what}: {err}");
        assert!(holds_open(&path), "{what}: the trace is still open");
        drop(atrc);
        assert!(!holds_open(&path), "{what}: a decoder outlived its run");
    }
}
