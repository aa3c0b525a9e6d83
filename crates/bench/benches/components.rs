//! Microbenchmarks of the simulator's own components: how fast the
//! substrate simulates, which bounds how large a design space can be
//! swept. These are ablation-style benchmarks of the engineering choices
//! DESIGN.md calls out (cycle-stepped bus, list scheduler, HashMap-based
//! ready bits).
//!
//! The workspace builds hermetically (no crate registry), so this harness
//! is self-contained: each benchmark runs a closure repeatedly for a fixed
//! wall-time budget and reports the median ns/iteration.

use std::hint::black_box;
use std::time::Instant;

use aladdin_accel::{schedule, DatapathConfig, FuTiming, PreparedDddg, SpadMemory};
use aladdin_ir::{ArrayKind, Opcode, Tracer};
use aladdin_mem::{
    AccessKind, BusConfig, Cache, CacheConfig, DmaConfig, DmaDirection, DmaEngine, DmaTransfer,
    DramConfig, Fabric, MasterId, Tlb, TlbConfig, TopologyConfig,
};

/// Time `f` until ~0.2 s has elapsed (at least 3 runs) and report the
/// median nanoseconds per iteration.
fn bench<R>(group: &str, name: &str, mut f: impl FnMut() -> R) {
    let mut samples = Vec::new();
    let budget = std::time::Duration::from_millis(200);
    let start = Instant::now();
    while samples.len() < 3 || (start.elapsed() < budget && samples.len() < 10_000) {
        let t0 = Instant::now();
        black_box(f());
        samples.push(t0.elapsed().as_nanos());
    }
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    println!("{group}/{name}: {median} ns/iter ({} runs)", samples.len());
}

fn streaming_trace(iters: usize) -> aladdin_ir::Trace {
    let mut t = Tracer::new("bench-stream");
    let a = t.array_f64("a", &vec![1.0; iters], ArrayKind::Input);
    let b = t.array_f64("b", &vec![2.0; iters], ArrayKind::Input);
    let mut c = t.array_f64("c", &vec![0.0; iters], ArrayKind::Output);
    for i in 0..iters {
        t.begin_iteration(i as u32);
        let x = t.load(&a, i);
        let y = t.load(&b, i);
        let p = t.binop(Opcode::FMul, x, y);
        let s = t.binop(Opcode::FAdd, p, p);
        t.store(&mut c, i, s);
    }
    t.finish()
}

fn bench_tracer() {
    bench("tracer", "record_20k_nodes", || {
        streaming_trace(4096).nodes().len()
    });
}

fn bench_dddg() {
    let trace = streaming_trace(4096);
    let cfg = DatapathConfig {
        lanes: 4,
        ..DatapathConfig::default()
    };
    bench("dddg", "build", || {
        PreparedDddg::new(black_box(&trace), &cfg)
    });
    let graph = PreparedDddg::new(&trace, &cfg);
    bench("dddg", "critical_path", || {
        graph.critical_path_cycles(black_box(&trace), &FuTiming::default())
    });
}

fn bench_scheduler() {
    let trace = streaming_trace(4096);
    for (label, lanes, partition) in [("1x1", 1u32, 1u32), ("4x4", 4, 4), ("16x16", 16, 16)] {
        let cfg = DatapathConfig {
            lanes,
            partition,
            ..DatapathConfig::default()
        };
        bench("scheduler", &format!("spad_{label}"), || {
            let mut mem = SpadMemory::new(&trace, &cfg);
            schedule(black_box(&trace), &cfg, &mut mem, 0).end
        });
    }
}

fn bench_cache() {
    let mut cache = Cache::new(CacheConfig::default());
    // Warm one line.
    cache.begin_cycle(0);
    cache.access(0, 0, AccessKind::Read, 0);
    let reqs: Vec<_> = cache.take_bus_requests().collect();
    for req in reqs {
        cache.bus_completed(req.line_addr, 0);
    }
    let _ = cache.drain_completions();
    bench("cache", "hits_10k", || {
        let mut sum = 0u64;
        for i in 0..10_000u64 {
            cache.begin_cycle(i + 1);
            if let aladdin_mem::CacheOutcome::Hit { at } =
                cache.access(i, 8, AccessKind::Read, i + 1)
            {
                sum += at;
            }
        }
        sum
    });
    bench("cache", "miss_fill_cycle", || {
        let mut cache = Cache::new(CacheConfig::default());
        for i in 0..200u64 {
            cache.begin_cycle(i);
            let _ = cache.access(i, i * 64, AccessKind::Read, i);
            let reqs: Vec<_> = cache.take_bus_requests().collect();
            for req in reqs {
                if !req.write {
                    cache.bus_completed(req.line_addr, i);
                }
            }
            let _ = cache.drain_completions();
        }
    });
}

fn shared_bus() -> Fabric {
    Fabric::try_new(
        BusConfig::default(),
        DramConfig::default(),
        TopologyConfig::default(),
    )
    .expect("the default bus configuration is valid")
}

fn bench_bus() {
    bench("bus", "stream_16kb", || {
        let mut bus = shared_bus();
        for i in 0..256u64 {
            bus.try_request(MasterId::DMA, i * 64, 64, false)
                .expect("a 64-byte request from the DMA master");
        }
        let mut cycle = 0;
        while !bus.is_idle() {
            bus.tick(cycle);
            let _ = bus.drain_completions();
            cycle += 1;
        }
        cycle
    });
}

fn bench_dma() {
    for (label, pipelined) in [("baseline", false), ("pipelined", true)] {
        bench("dma", &format!("64kb_{label}"), || {
            let cfg = DmaConfig {
                pipelined,
                ..DmaConfig::default()
            };
            let t = [DmaTransfer {
                base: 0,
                bytes: 64 * 1024,
                direction: DmaDirection::In,
            }];
            let n = cfg.chunk_sizes(&t).len();
            let mut dma = DmaEngine::new(cfg, &t, &vec![0; n]);
            let mut bus = shared_bus();
            let mut cycle = 0;
            while !dma.is_done() {
                dma.tick(cycle, &mut bus)
                    .expect("the shared bus hosts the DMA master");
                bus.tick(cycle);
                for c in bus.drain_completions() {
                    dma.on_bus_completion(c.token, c.at);
                }
                cycle += 1;
            }
            cycle
        });
    }
}

fn bench_tlb() {
    let mut tlb = Tlb::new(TlbConfig::default());
    bench("tlb", "translate_10k", || {
        let mut acc = 0u64;
        for i in 0..10_000u64 {
            acc += tlb.translate((i % 6) * 4096, i);
        }
        acc
    });
}

fn main() {
    bench_tracer();
    bench_dddg();
    bench_scheduler();
    bench_cache();
    bench_bus();
    bench_dma();
    bench_tlb();
}
