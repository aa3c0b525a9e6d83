//! Descriptor-based DMA engine.
//!
//! The engine services a chain of transfer descriptors, one chunk at a
//! time, issuing fixed-size bursts onto the system [`Fabric`]. Two
//! properties of real DMA that drive the paper's results are modeled
//! faithfully:
//!
//! * **Serial data arrival** (Section IV-C2): bursts are issued in address
//!   order, so the first byte arrives before the last no matter how
//!   parallel the datapath is.
//! * **Per-transaction overhead**: every descriptor pays a fixed setup
//!   delay (40 cycles at 100 MHz, characterized on the Zedboard) covering
//!   metadata fetch and CPU-side housekeeping (Section IV-B1).
//!
//! Pipelined DMA is expressed through per-chunk *eligibility times*
//! supplied by the caller (the completion times of the corresponding cache
//! flush chunks); the baseline flow passes the same eligibility (end of all
//! flushing) for every chunk.
//!
//! Each completed burst yields [`LineArrival`] records, which the
//! DMA-triggered-compute flow feeds into the scratchpad's full/empty bits.

use std::collections::VecDeque;

use aladdin_ir::Diagnostic;

use crate::bus::{MasterId, Token};
use crate::interconnect::Fabric;
use crate::intervals::IntervalSet;

/// Transfer direction, from the accelerator's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaDirection {
    /// Main memory → accelerator scratchpad (`dmaLoad`).
    In,
    /// Accelerator scratchpad → main memory (`dmaStore`).
    Out,
}

/// One logical transfer (typically one traced array).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaTransfer {
    /// Start address in the shared address space.
    pub base: u64,
    /// Length in bytes.
    pub bytes: u64,
    /// Direction.
    pub direction: DmaDirection,
}

/// DMA engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaConfig {
    /// Fixed per-descriptor setup delay in cycles.
    pub setup_cycles: u64,
    /// Chunk (descriptor) size in bytes when pipelining; page-sized in the
    /// paper to maximize DRAM row-buffer hits.
    pub chunk_bytes: u64,
    /// Bus burst size in bytes.
    pub burst_bytes: u32,
    /// Split transfers into `chunk_bytes` descriptors (pipelined DMA);
    /// otherwise one descriptor per transfer.
    pub pipelined: bool,
    /// Maximum bursts in flight on the bus.
    pub max_outstanding: usize,
}

impl Default for DmaConfig {
    fn default() -> Self {
        DmaConfig {
            setup_cycles: 40,
            chunk_bytes: 4096,
            burst_bytes: 64,
            pipelined: false,
            max_outstanding: 2,
        }
    }
}

impl DmaConfig {
    /// The chunk sizes the given transfers split into under this
    /// configuration — one entry per descriptor, in service order.
    #[must_use]
    pub fn chunk_sizes(&self, transfers: &[DmaTransfer]) -> Vec<u64> {
        let mut out = Vec::new();
        for t in transfers {
            if self.pipelined {
                let mut left = t.bytes;
                while left > 0 {
                    let c = left.min(self.chunk_bytes);
                    out.push(c);
                    left -= c;
                }
            } else {
                out.push(t.bytes);
            }
        }
        out
    }
}

/// A line of data delivered into the scratchpad by DMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineArrival {
    /// First byte of the delivered range.
    pub addr: u64,
    /// Number of bytes delivered.
    pub bytes: u32,
    /// Cycle at which the data became usable.
    pub at: u64,
}

/// DMA engine statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmaStats {
    /// Descriptors (chunks) serviced.
    pub descriptors: u64,
    /// Bursts placed on the bus.
    pub bursts: u64,
    /// Bytes moved.
    pub bytes: u64,
}

#[derive(Debug, Clone, Copy)]
struct Chunk {
    base: u64,
    bytes: u64,
    direction: DmaDirection,
    eligible: u64,
}

#[derive(Debug)]
struct ActiveChunk {
    chunk: Chunk,
    setup_done: u64,
    next_offset: u64,
    outstanding: Vec<(Token, u64, u32)>,
    started: u64,
}

/// The DMA engine. Construct with [`DmaEngine::new`], then call
/// [`tick`](DmaEngine::tick) each cycle (before the bus tick) and feed bus
/// completions back via [`on_bus_completion`](DmaEngine::on_bus_completion).
#[derive(Debug)]
pub struct DmaEngine {
    cfg: DmaConfig,
    master: MasterId,
    queue: VecDeque<Chunk>,
    active: Option<ActiveChunk>,
    arrivals: Vec<LineArrival>,
    busy: IntervalSet,
    stats: DmaStats,
    done_at: Option<u64>,
    total_chunks: usize,
    finished_chunks: usize,
}

impl DmaEngine {
    /// Create an engine servicing `transfers` in order.
    ///
    /// `eligibility` gives, per chunk (see [`DmaConfig::chunk_sizes`]), the
    /// earliest cycle its descriptor may be serviced — the flush-completion
    /// times for pipelined input DMA, a constant for everything else.
    ///
    /// # Errors
    ///
    /// Returns an `L0217` diagnostic if `eligibility.len()` does not match
    /// the number of chunks the transfers split into.
    pub fn try_new(
        cfg: DmaConfig,
        transfers: &[DmaTransfer],
        eligibility: &[u64],
    ) -> Result<Self, Diagnostic> {
        let sizes = cfg.chunk_sizes(transfers);
        if sizes.len() != eligibility.len() {
            return Err(Diagnostic::error(
                "L0217",
                format!(
                    "one eligibility time per chunk required: {} chunk(s), {} eligibility time(s)",
                    sizes.len(),
                    eligibility.len()
                ),
            ));
        }
        let mut queue = VecDeque::with_capacity(sizes.len());
        let mut k = 0;
        for t in transfers {
            let mut offset = 0;
            while offset < t.bytes {
                let c = if cfg.pipelined {
                    (t.bytes - offset).min(cfg.chunk_bytes)
                } else {
                    t.bytes
                };
                queue.push_back(Chunk {
                    base: t.base + offset,
                    bytes: c,
                    direction: t.direction,
                    eligible: eligibility[k],
                });
                offset += c;
                k += 1;
            }
        }
        let total_chunks = queue.len();
        Ok(DmaEngine {
            cfg,
            master: MasterId::DMA,
            queue,
            active: None,
            arrivals: Vec::new(),
            busy: IntervalSet::new(),
            stats: DmaStats::default(),
            done_at: if total_chunks == 0 { Some(0) } else { None },
            total_chunks,
            finished_chunks: 0,
        })
    }

    /// Create an engine servicing `transfers` in order.
    ///
    /// # Panics
    ///
    /// Panics if `eligibility.len()` does not match the number of chunks;
    /// use [`try_new`](DmaEngine::try_new) to handle that as a typed
    /// diagnostic instead.
    #[must_use]
    pub fn new(cfg: DmaConfig, transfers: &[DmaTransfer], eligibility: &[u64]) -> Self {
        DmaEngine::try_new(cfg, transfers, eligibility).unwrap_or_else(|d| panic!("{d}"))
    }

    /// Issue bus requests as `master` instead of [`MasterId::DMA`] — used
    /// when several DMA engines (one per accelerator) share the bus and
    /// must arbitrate fairly against each other.
    pub fn set_master(&mut self, master: MasterId) {
        self.master = master;
    }

    /// The bus master this engine requests as.
    #[must_use]
    pub fn master(&self) -> MasterId {
        self.master
    }

    /// Whether every descriptor has completed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.done_at.is_some()
    }

    /// Cycle at which the last burst completed (once [`is_done`](Self::is_done)).
    #[must_use]
    pub fn done_at(&self) -> Option<u64> {
        self.done_at
    }

    /// Advance the engine: start eligible descriptors and issue bursts
    /// onto `bus`. Call once per cycle before `bus.tick(cycle)`.
    ///
    /// # Errors
    ///
    /// The fabric's diagnostic for a burst it refuses (`L0311` for a
    /// master beyond the topology's capacity).
    pub fn tick(&mut self, cycle: u64, bus: &mut Fabric) -> Result<(), Diagnostic> {
        if self.active.is_none() {
            if let Some(&next) = self.queue.front() {
                if cycle >= next.eligible {
                    self.queue.pop_front();
                    self.active = Some(ActiveChunk {
                        chunk: next,
                        setup_done: cycle + self.cfg.setup_cycles,
                        next_offset: 0,
                        outstanding: Vec::new(),
                        started: cycle,
                    });
                    self.stats.descriptors += 1;
                }
            }
        }
        let Some(active) = self.active.as_mut() else {
            return Ok(());
        };
        if cycle < active.setup_done {
            return Ok(());
        }
        while active.next_offset < active.chunk.bytes
            && active.outstanding.len() < self.cfg.max_outstanding
        {
            let addr = active.chunk.base + active.next_offset;
            // A burst never exceeds burst_bytes (a u32), so the remaining
            // length only needs a fallible narrowing when it is smaller.
            let bytes = match u32::try_from(active.chunk.bytes - active.next_offset) {
                Ok(remaining) => remaining.min(self.cfg.burst_bytes),
                Err(_) => self.cfg.burst_bytes,
            };
            let write = active.chunk.direction == DmaDirection::Out;
            let token = bus.try_request(self.master, addr, bytes, write)?;
            active.outstanding.push((token, addr, bytes));
            active.next_offset += u64::from(bytes);
            self.stats.bursts += 1;
            self.stats.bytes += u64::from(bytes);
        }
        Ok(())
    }

    /// Deliver a bus completion (only tokens from [`MasterId::DMA`]).
    pub fn on_bus_completion(&mut self, token: Token, at: u64) {
        let Some(active) = self.active.as_mut() else {
            return;
        };
        let Some(pos) = active.outstanding.iter().position(|&(t, _, _)| t == token) else {
            return;
        };
        let (_, addr, bytes) = active.outstanding.swap_remove(pos);
        if active.chunk.direction == DmaDirection::In {
            self.arrivals.push(LineArrival { addr, bytes, at });
        }
        if active.outstanding.is_empty() && active.next_offset >= active.chunk.bytes {
            self.busy.push(active.started, at);
            self.active = None;
            self.finished_chunks += 1;
            if self.finished_chunks == self.total_chunks {
                self.done_at = Some(at);
            }
        }
    }

    /// Take the data-arrival records accumulated so far.
    pub fn drain_arrivals(&mut self) -> Vec<LineArrival> {
        std::mem::take(&mut self.arrivals)
    }

    /// Cycles during which the engine was actively servicing a descriptor.
    #[must_use]
    pub fn busy(&self) -> &IntervalSet {
        &self.busy
    }

    /// Engine statistics so far.
    #[must_use]
    pub fn stats(&self) -> DmaStats {
        self.stats
    }

    /// One-line forensic description of descriptor progress, for deadlock
    /// snapshots.
    #[must_use]
    pub fn describe_state(&self) -> String {
        match &self.active {
            Some(a) => format!(
                "dma: descriptor {}/{} active at {:#x} ({}/{} bytes posted, \
                 {} burst(s) outstanding)",
                self.finished_chunks + 1,
                self.total_chunks,
                a.chunk.base,
                a.next_offset,
                a.chunk.bytes,
                a.outstanding.len()
            ),
            None => format!(
                "dma: {}/{} descriptor(s) done, {} queued",
                self.finished_chunks,
                self.total_chunks,
                self.queue.len()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::BusConfig;
    use crate::dram::DramConfig;
    use crate::interconnect::TopologyConfig;

    fn bus() -> Fabric {
        Fabric::try_new(
            BusConfig::default(),
            DramConfig::default(),
            TopologyConfig::default(),
        )
        .unwrap()
    }

    fn run(engine: &mut DmaEngine, bus: &mut Fabric, max: u64) -> u64 {
        for cycle in 0..max {
            engine.tick(cycle, bus).unwrap();
            bus.tick(cycle);
            for c in bus.drain_completions() {
                if c.master == MasterId::DMA {
                    engine.on_bus_completion(c.token, c.at);
                }
            }
            if engine.is_done() {
                return engine.done_at().unwrap();
            }
        }
        panic!("DMA did not finish in {max} cycles");
    }

    #[test]
    fn empty_engine_is_immediately_done() {
        let e = DmaEngine::new(DmaConfig::default(), &[], &[]);
        assert!(e.is_done());
    }

    #[test]
    fn single_transfer_time_matches_bandwidth() {
        let cfg = DmaConfig::default();
        let transfers = [DmaTransfer {
            base: 0,
            bytes: 4096,
            direction: DmaDirection::In,
        }];
        let mut e = DmaEngine::new(cfg, &transfers, &[0]);
        let mut b = bus();
        let done = run(&mut e, &mut b, 100_000);
        // 40 setup + ~1024 transfer cycles (4 B/cycle) + initial latency.
        assert!(done >= 40 + 1024, "done={done}");
        assert!(done <= 40 + 1024 + 60, "done={done}");
        assert_eq!(e.stats().bytes, 4096);
        assert_eq!(e.stats().descriptors, 1);
    }

    #[test]
    fn pipelined_splits_into_page_descriptors() {
        let cfg = DmaConfig {
            pipelined: true,
            ..DmaConfig::default()
        };
        let transfers = [DmaTransfer {
            base: 0,
            bytes: 10 * 1024,
            direction: DmaDirection::In,
        }];
        assert_eq!(cfg.chunk_sizes(&transfers), vec![4096, 4096, 2048]);
        let mut e = DmaEngine::new(cfg, &transfers, &[0, 0, 0]);
        let mut b = bus();
        let _ = run(&mut e, &mut b, 100_000);
        assert_eq!(e.stats().descriptors, 3);
    }

    #[test]
    fn eligibility_delays_service() {
        let transfers = [DmaTransfer {
            base: 0,
            bytes: 256,
            direction: DmaDirection::In,
        }];
        let mut e = DmaEngine::new(DmaConfig::default(), &transfers, &[500]);
        let mut b = bus();
        let done = run(&mut e, &mut b, 10_000);
        assert!(done >= 500 + 40 + 64, "done={done}");
        assert_eq!(e.busy().start().unwrap(), 500);
    }

    #[test]
    fn arrivals_are_in_address_order() {
        let transfers = [DmaTransfer {
            base: 0x1000,
            bytes: 1024,
            direction: DmaDirection::In,
        }];
        let mut e = DmaEngine::new(DmaConfig::default(), &transfers, &[0]);
        let mut b = bus();
        let _ = run(&mut e, &mut b, 100_000);
        let arrivals = e.drain_arrivals();
        assert_eq!(arrivals.len(), 16); // 1024 / 64 B bursts
        for w in arrivals.windows(2) {
            assert!(w[0].addr < w[1].addr, "serial data arrival");
            assert!(w[0].at <= w[1].at);
        }
        let total: u64 = arrivals.iter().map(|a| u64::from(a.bytes)).sum();
        assert_eq!(total, 1024);
    }

    #[test]
    fn out_transfers_produce_no_arrivals() {
        let transfers = [DmaTransfer {
            base: 0,
            bytes: 256,
            direction: DmaDirection::Out,
        }];
        let mut e = DmaEngine::new(DmaConfig::default(), &transfers, &[0]);
        let mut b = bus();
        let _ = run(&mut e, &mut b, 10_000);
        assert!(e.drain_arrivals().is_empty());
    }

    #[test]
    fn per_descriptor_setup_cost_accumulates() {
        // Same bytes, chunked vs not: chunked pays 3 setups instead of 1.
        let t = [DmaTransfer {
            base: 0,
            bytes: 12 * 1024,
            direction: DmaDirection::In,
        }];
        let mut base_engine = DmaEngine::new(DmaConfig::default(), &t, &[0]);
        let mut base_bus = bus();
        let base_done = run(&mut base_engine, &mut base_bus, 100_000);

        let pcfg = DmaConfig {
            pipelined: true,
            ..DmaConfig::default()
        };
        let mut pipe_engine = DmaEngine::new(pcfg, &t, &[0, 0, 0]);
        let mut pipe_bus = bus();
        let pipe_done = run(&mut pipe_engine, &mut pipe_bus, 100_000);
        assert!(
            pipe_done > base_done,
            "with no flush to hide, chunking is pure overhead: {base_done} vs {pipe_done}"
        );
        assert!(pipe_done < base_done + 3 * 40 + 120);
    }

    #[test]
    #[should_panic(expected = "one eligibility time per chunk")]
    fn eligibility_length_checked() {
        let t = [DmaTransfer {
            base: 0,
            bytes: 100,
            direction: DmaDirection::In,
        }];
        let _ = DmaEngine::new(DmaConfig::default(), &t, &[]);
    }

    #[test]
    fn eligibility_mismatch_is_a_typed_diagnostic() {
        let t = [DmaTransfer {
            base: 0,
            bytes: 100,
            direction: DmaDirection::In,
        }];
        let err = DmaEngine::try_new(DmaConfig::default(), &t, &[]).unwrap_err();
        assert_eq!(err.code, "L0217");
        assert!(err.message.contains("one eligibility time per chunk"));
    }

    #[test]
    fn state_description_tracks_progress() {
        let t = [DmaTransfer {
            base: 0x1000,
            bytes: 256,
            direction: DmaDirection::In,
        }];
        let mut e = DmaEngine::new(DmaConfig::default(), &t, &[0]);
        assert!(e.describe_state().contains("0/1 descriptor(s) done"));
        let mut b = bus();
        e.tick(0, &mut b).unwrap();
        assert!(e.describe_state().contains("descriptor 1/1 active"));
        let _ = run(&mut e, &mut b, 10_000);
        assert!(e.describe_state().contains("1/1 descriptor(s) done"));
    }
}
