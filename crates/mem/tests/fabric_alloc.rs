//! A fabric in steady state makes no heap allocation.
//!
//! Each fabric runs a closed-loop pattern: four masters each keep four
//! 64-byte requests outstanding, issuing a new one as soon as one
//! completes, and the test drains completions every cycle. A warm-up
//! with that pattern grows every queue, heap and completion buffer to
//! its working size; the steady phase that follows must then allocate
//! nothing, on all four topologies, bare and under a burst-splitting,
//! outstanding-capped protocol.
//!
//! The counting allocator counts per thread, so tests running on other
//! threads of this binary do not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aladdin_mem::{
    BusConfig, DramConfig, Fabric, MasterId, ProtocolConfig, Topology, TopologyConfig,
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
