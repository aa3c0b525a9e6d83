//! A fabric, and a DMA engine on one, in steady state make no heap
//! allocation.
//!
//! Each fabric runs a closed-loop pattern: four masters each keep four
//! 64-byte requests outstanding, issuing a new one as soon as one
//! completes, and the test drains completions every cycle. A warm-up
//! with that pattern grows every queue, heap and completion buffer to
//! its working size; the steady phase that follows must then allocate
//! nothing, on all four topologies, bare and under a burst-splitting,
//! outstanding-capped protocol. The DMA case streams one long inbound
//! descriptor, draining its line arrivals every cycle as the SoC world
//! does. The cache case keeps missing over a shared bus, forwarding its
//! fills and writebacks and draining its completions every cycle as the
//! cache client does.
//!
//! The counting allocator counts per thread, so tests running on other
//! threads of this binary do not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aladdin_mem::{
    AccessKind, BusConfig, Cache, CacheConfig, CacheOutcome, DmaConfig, DmaDirection, DmaEngine,
    DmaTransfer, DramConfig, Fabric, FillTracker, MasterId, ProtocolConfig, Topology,
    TopologyConfig,
};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // Ignore the count during thread teardown rather than panic in the
    // allocator.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
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

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const MASTERS: usize = 4;
const OUTSTANDING: u32 = 4;

/// The closed-loop traffic of every master.
struct Pattern {
    outstanding: [u32; MASTERS],
    issued: [u64; MASTERS],
}

impl Pattern {
    fn new() -> Self {
        Pattern {
            outstanding: [0; MASTERS],
            issued: [0; MASTERS],
        }
    }

    /// Step `fabric` through `cycles`; how many completions it saw.
    fn run(&mut self, fabric: &mut Fabric, cycles: std::ops::Range<u64>) -> u64 {
        let mut completed = 0;
        for cycle in cycles {
            for m in 0..MASTERS {
                while self.outstanding[m] < OUTSTANDING {
                    // Sixteen DRAM rows per master, so crossbar slaves
                    // and DRAM banks all see traffic.
                    let addr = ((m as u64) << 24) | ((self.issued[m] * 64) % (16 * 4096));
                    fabric
                        .try_request(MasterId(m as u8), addr, 64, false)
                        .expect("every fabric here hosts four masters");
                    self.outstanding[m] += 1;
                    self.issued[m] += 1;
                }
            }
            fabric.tick(cycle);
            for c in fabric.drain_completions() {
                self.outstanding[c.master.0 as usize] -= 1;
                completed += 1;
            }
        }
        completed
    }
}

#[test]
fn steady_state_fabrics_make_no_heap_allocation() {
    let topologies = [
        Topology::SharedBus,
        Topology::Crossbar { radix: 4 },
        Topology::TwoLevelBus {
            clusters: 2,
            bridge_cycles: 3,
        },
        Topology::MeshNoc {
            cols: 3,
            rows: 3,
            hop_cycles: 1,
            link_bits: 32,
        },
    ];
    let protocols = [
        ProtocolConfig::default(),
        ProtocolConfig {
            max_burst_bytes: 32,
            max_outstanding: 2,
        },
    ];
    for topology in topologies {
        for protocol in protocols {
            let mut fabric = Fabric::try_new(
                BusConfig::default(),
                DramConfig::default(),
                TopologyConfig { topology, protocol },
            )
            .expect("a valid fabric");
            let mut pattern = Pattern::new();
            let warm = pattern.run(&mut fabric, 0..20_000);
            assert!(warm > 1_000, "{topology:?} {protocol:?}: warm-up stalled");
            let before = allocations();
            let steady = pattern.run(&mut fabric, 20_000..30_000);
            let allocated = allocations() - before;
            assert!(
                steady > 500,
                "{topology:?} {protocol:?}: steady phase stalled"
            );
            assert_eq!(
                allocated, 0,
                "{topology:?} {protocol:?}: {allocated} allocation(s) in {steady} completions"
            );
        }
    }
}

/// Step a DMA engine and its fabric through `cycles`, draining line
/// arrivals every cycle; the bytes that arrived.
fn run_dma(engine: &mut DmaEngine, fabric: &mut Fabric, cycles: std::ops::Range<u64>) -> u64 {
    let mut arrived = 0;
    for cycle in cycles {
        engine
            .tick(cycle, fabric)
            .expect("the DMA master is in range");
        fabric.tick(cycle);
        for c in fabric.drain_completions() {
            engine.on_bus_completion(c.token, c.at);
        }
        arrived += engine
            .drain_arrivals()
            .map(|a| u64::from(a.bytes))
            .sum::<u64>();
    }
    arrived
}

#[test]
fn steady_state_dma_makes_no_heap_allocation() {
    let transfers = [DmaTransfer {
        base: 0x10_0000,
        bytes: 16 << 20,
        direction: DmaDirection::In,
    }];
    let mut engine = DmaEngine::try_new(
        DmaConfig {
            max_outstanding: 4,
            ..DmaConfig::default()
        },
        false,
        &transfers,
        &[0],
    )
    .expect("valid DMA engine");
    let mut fabric = Fabric::try_new(
        BusConfig::default(),
        DramConfig::default(),
        TopologyConfig::default(),
    )
    .expect("a valid fabric");
    let warm = run_dma(&mut engine, &mut fabric, 0..20_000);
    assert!(warm > 64 * 1_000, "warm-up stalled: {warm} B arrived");
    let before = allocations();
    let steady = run_dma(&mut engine, &mut fabric, 20_000..30_000);
    let allocated = allocations() - before;
    assert!(
        steady > 64 * 500,
        "steady phase stalled: {steady} B arrived"
    );
    assert!(!engine.is_done(), "the descriptor must outlast the test");
    assert_eq!(
        allocated, 0,
        "{allocated} allocation(s) while {steady} B arrived"
    );
}

/// A cache streaming through memory: loads and every fourth a store,
/// each to the next word, so lines miss, merge into outstanding fills and
/// evict dirty victims.
struct Streaming {
    next: u64,
    fills: FillTracker,
}

impl Streaming {
    /// Step `cache` and its fabric through `cycles`; the accesses that
    /// completed.
    fn run(&mut self, cache: &mut Cache, fabric: &mut Fabric, cycles: std::ops::Range<u64>) -> u64 {
        let mut completed = 0;
        for cycle in cycles {
            cache.begin_cycle(cycle);
            loop {
                let addr = 0x10_0000 + (self.next * 8) % (4 << 20);
                let kind = if self.next % 4 == 3 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                match cache.access(self.next, addr, kind, cycle) {
                    CacheOutcome::Hit { .. } => completed += 1,
                    CacheOutcome::Miss => {}
                    CacheOutcome::NoPort | CacheOutcome::NoMshr => break,
                }
                self.next += 1;
            }
            for req in cache.take_bus_requests() {
                let token = fabric
                    .try_request(MasterId::ACCEL_CACHE, req.line_addr, req.bytes, req.write)
                    .expect("the cache master is in range");
                if !req.write {
                    self.fills.insert(token, req.line_addr);
                }
            }
            fabric.tick(cycle);
            for c in fabric.drain_completions() {
                if let Some(line_addr) = self.fills.remove(c.token) {
                    cache.bus_completed(line_addr, c.at);
                }
            }
            completed += cache.drain_completions().count() as u64;
        }
        completed
    }
}

#[test]
fn steady_state_cache_makes_no_heap_allocation() {
    let mut cache = Cache::try_new(CacheConfig::default()).expect("valid cache");
    let mut fabric = Fabric::try_new(
        BusConfig::default(),
        DramConfig::default(),
        TopologyConfig::default(),
    )
    .expect("a valid fabric");
    let mut stream = Streaming {
        next: 0,
        fills: FillTracker::new(),
    };
    let warm = stream.run(&mut cache, &mut fabric, 0..20_000);
    assert!(warm > 1_000, "warm-up stalled: {warm} accesses");
    let before = allocations();
    let misses = cache.stats().misses;
    let steady = stream.run(&mut cache, &mut fabric, 20_000..30_000);
    let allocated = allocations() - before;
    assert!(steady > 500, "steady phase stalled: {steady} accesses");
    assert!(
        cache.stats().misses > misses + 100,
        "the cache must keep missing"
    );
    assert!(
        cache.stats().writebacks > 0,
        "dirty victims must be written back"
    );
    assert_eq!(
        allocated, 0,
        "{allocated} allocation(s) in {steady} accesses"
    );
}
