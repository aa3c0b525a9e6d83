//! The datapath ↔ local-memory interface, and the scratchpad implementation.
//!
//! The scheduler is agnostic to what services loads and stores: anything
//! implementing [`DatapathMemory`] can back the datapath. This crate ships
//! the scratchpad ([`SpadMemory`]), optionally gated by DMA full/empty bits;
//! `aladdin-core` adds the cache+TLB implementation that co-simulates with
//! the system bus.

use std::collections::HashMap;

use aladdin_ir::{ArrayInfo, Diagnostic, Locus, Trace};

use crate::config::DatapathConfig;

/// Outcome of issuing a memory operation this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueResult {
    /// Accepted; completes at the contained cycle.
    Done {
        /// Completion cycle.
        at: u64,
    },
    /// Accepted; completion will be reported by
    /// [`DatapathMemory::drain_completions`].
    Pending,
    /// Structural reject (port conflict, MSHR exhaustion); retry later.
    Reject,
}

/// A local memory system as seen by the datapath scheduler.
///
/// Call order per cycle: [`begin_cycle`](DatapathMemory::begin_cycle),
/// [`drain_completions`](DatapathMemory::drain_completions), any number
/// of [`issue`](DatapathMemory::issue) attempts, then
/// [`end_cycle`](DatapathMemory::end_cycle) (which advances any backing
/// simulation such as the system bus).
pub trait DatapathMemory {
    /// Start a cycle: reset per-cycle port budgets.
    fn begin_cycle(&mut self, cycle: u64);

    /// Try to issue the access of datapath operation `id`.
    fn issue(&mut self, id: u64, addr: u64, bytes: u32, write: bool, cycle: u64) -> IssueResult;

    /// Append completions of previously [`IssueResult::Pending`]
    /// accesses to `out`, as `(id, completion cycle)` pairs.
    fn drain_completions(&mut self, out: &mut Vec<(u64, u64)>);

    /// Finish a cycle: advance backing components (bus, DMA, DRAM).
    fn end_cycle(&mut self, cycle: u64);

    /// Whether this memory is *passive*: it never makes progress on its own
    /// between cycles. For a passive memory, `begin_cycle`/`end_cycle` only
    /// reset per-cycle bookkeeping, and completions can only appear as a
    /// direct consequence of an `issue` or an external `push`-style call —
    /// so if no operation is in flight, skipping cycles cannot change its
    /// behavior. Memories with autonomous activity (a ticking bus, DMA
    /// engine, or cache fill pipeline) must leave this `false` (the
    /// default); claiming passivity while ticking state in `end_cycle`
    /// breaks the scheduler's idle fast-forward.
    fn is_passive(&self) -> bool {
        false
    }
}

/// Scratchpad statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpadStats {
    /// Loads serviced.
    pub reads: u64,
    /// Stores serviced.
    pub writes: u64,
    /// Issue attempts rejected on bank-port conflicts.
    pub bank_conflicts: u64,
    /// Loads that had to wait on a full/empty bit.
    pub ready_stalls: u64,
    /// Total cycles loads spent waiting on full/empty bits.
    pub ready_stall_cycles: u64,
}

#[derive(Debug, Clone, Copy)]
struct ArrayRange {
    base: u64,
    end: u64,
    elem_bytes: u64,
    gated: bool,
}

/// A partitioned scratchpad, optionally gated by DMA full/empty bits.
///
/// Every traced array is cyclically partitioned into `cfg.partition` banks
/// (element `e` → bank `e % partition`), each accepting
/// `cfg.ports_per_bank` accesses per cycle — Aladdin's array-partitioning
/// model, which is how local memory bandwidth scales in the paper's sweeps.
///
/// With [`enable_ready_bits`](SpadMemory::enable_ready_bits), loads to
/// *input* arrays additionally wait until the DMA engine has delivered
/// their granule ([`push_arrival`](SpadMemory::push_arrival)), implementing
/// DMA-triggered computation (Section IV-B2). Internal and output arrays
/// are never gated.
#[derive(Debug)]
pub struct SpadMemory {
    ranges: Vec<ArrayRange>,
    partition: u64,
    ports_per_bank: u32,
    /// Ports used per `(array, bank)`, at `array * partition + bank`, as
    /// `(cycle stamp, count)`; a count is stale unless its stamp is `epoch`.
    ports_used: Vec<(u64, u32)>,
    /// Incremented by every `begin_cycle`.
    epoch: u64,
    ready_bits: bool,
    granule_bytes: u64,
    ready: HashMap<u64, u64>,
    covered: HashMap<u64, u64>,
    waiters: HashMap<u64, Vec<(u64, u64)>>,
    completions: Vec<(u64, u64)>,
    stats: SpadStats,
}

impl SpadMemory {
    /// Granularity at which full/empty bits track arrivals: one CPU cache
    /// line, "to be consistent with the preceding flush operations"
    /// (Section IV-B2).
    pub const READY_GRANULE_BYTES: u64 = 32;

    /// Arrays are placed at multiples of this many bytes.
    const ARRAY_ALIGN_BYTES: u64 = 4096;

    /// `L0214`, as `SocConfig::check` reports it: a full/empty-bit granule
    /// must divide the 4 KiB array alignment, so no granule spans two
    /// arrays.
    ///
    /// # Errors
    ///
    /// The `L0214` diagnostic for a zero granule or one that does not
    /// divide 4096 bytes.
    pub fn check_ready_granule(bytes: u64) -> Result<(), Diagnostic> {
        let message = if bytes == 0 {
            "ready_bits_granule must be positive".to_owned()
        } else if !Self::ARRAY_ALIGN_BYTES.is_multiple_of(bytes) {
            format!(
                "ready_bits_granule {bytes} B does not divide the {} B array alignment, \
                 so a granule could span two arrays",
                Self::ARRAY_ALIGN_BYTES
            )
        } else {
            return Ok(());
        };
        Err(Diagnostic::error("L0214", message).at(Locus::Field("soc.ready_bits_granule")))
    }

    /// A scratchpad holding all of `trace`'s arrays, ungated (all data
    /// assumed pre-loaded — the isolated-Aladdin assumption).
    #[must_use]
    pub fn new(trace: &Trace, cfg: &DatapathConfig) -> Self {
        Self::from_arrays(trace.arrays(), cfg)
    }

    /// A scratchpad built from array metadata alone — what a streamed
    /// `.atrc` trace provides without materializing any nodes. Identical
    /// to [`new`](SpadMemory::new) on the same arrays.
    #[must_use]
    pub fn from_arrays(arrays: &[ArrayInfo], cfg: &DatapathConfig) -> Self {
        let ranges: Vec<ArrayRange> = arrays
            .iter()
            .map(|a| ArrayRange {
                base: a.base_addr,
                end: a.base_addr + a.size_bytes(),
                elem_bytes: u64::from(a.elem_bytes),
                gated: a.kind.is_input(),
            })
            .collect();
        let partition = u64::from(cfg.partition.max(1));
        SpadMemory {
            ports_used: vec![(0, 0); ranges.len() * partition as usize],
            epoch: 0,
            ranges,
            partition,
            ports_per_bank: cfg.ports_per_bank.max(1),
            ready_bits: false,
            granule_bytes: Self::READY_GRANULE_BYTES,
            ready: HashMap::new(),
            covered: HashMap::new(),
            waiters: HashMap::new(),
            completions: Vec::new(),
            stats: SpadStats::default(),
        }
    }

    /// Gate loads of input arrays on DMA arrivals (full/empty bits).
    pub fn enable_ready_bits(&mut self) {
        self.ready_bits = true;
    }

    /// Change the granularity at which full/empty bits track arrivals.
    ///
    /// The paper tracks one CPU cache line (the default) but notes that
    /// "double-buffering could be implemented in this scheme by tracking
    /// the granularity of data transfer at half the array size instead of
    /// cache line size" (Section IV-B2). A granule's bit is set only once
    /// *all* of its bytes (clamped to the containing array) have arrived,
    /// so coarser granules delay the first loads longer.
    ///
    /// # Errors
    ///
    /// The [`check_ready_granule`](SpadMemory::check_ready_granule)
    /// diagnostic (`L0214`) for a granule that does not divide 4 KiB.
    ///
    /// # Panics
    ///
    /// Panics if arrivals were already recorded.
    pub fn set_ready_granularity(&mut self, bytes: u64) -> Result<(), Diagnostic> {
        Self::check_ready_granule(bytes)?;
        assert!(
            self.ready.is_empty() && self.waiters.is_empty() && self.covered.is_empty(),
            "cannot change granularity mid-simulation"
        );
        self.granule_bytes = bytes;
        Ok(())
    }

    /// The addressable extent of granule `g`: its nominal range clamped to
    /// the array containing it (a granule never spans arrays because
    /// arrays are page-aligned and page size is a granule multiple for
    /// every granularity the flows use).
    fn granule_extent(&self, g: u64) -> (u64, u64) {
        let start = g * self.granule_bytes;
        let end = start + self.granule_bytes;
        match self.ranges.iter().find(|r| start < r.end && end > r.base) {
            Some(r) => (start.max(r.base), end.min(r.end)),
            None => (start, end),
        }
    }

    /// Record that DMA delivered `[addr, addr+bytes)` at cycle `at`:
    /// accumulates coverage, sets completed full/empty bits and wakes any
    /// waiting loads.
    pub fn push_arrival(&mut self, addr: u64, bytes: u32, at: u64) {
        let end = addr + u64::from(bytes);
        let first = addr / self.granule_bytes;
        let last = (end - 1) / self.granule_bytes;
        for g in first..=last {
            if self.ready.contains_key(&g) {
                continue;
            }
            let (g_start, g_end) = self.granule_extent(g);
            let delivered = end.min(g_end).saturating_sub(addr.max(g_start));
            let covered = self.covered.entry(g).or_insert(0);
            *covered += delivered;
            if *covered >= g_end - g_start {
                self.covered.remove(&g);
                self.ready.insert(g, at);
                if let Some(ws) = self.waiters.remove(&g) {
                    for (id, issued) in ws {
                        self.stats.ready_stall_cycles += at.saturating_sub(issued);
                        self.completions.push((id, at + 1));
                    }
                }
            }
        }
    }

    fn locate(&self, addr: u64) -> Option<(u32, &ArrayRange)> {
        self.ranges
            .iter()
            .enumerate()
            .find(|(_, r)| addr >= r.base && addr < r.end)
            .map(|(i, r)| (i as u32, r))
    }

    /// Access statistics so far.
    #[must_use]
    pub fn stats(&self) -> SpadStats {
        self.stats
    }
}

impl DatapathMemory for SpadMemory {
    fn begin_cycle(&mut self, _cycle: u64) {
        self.epoch += 1;
    }

    fn issue(&mut self, id: u64, addr: u64, bytes: u32, write: bool, cycle: u64) -> IssueResult {
        let (arr_idx, range) = self
            .locate(addr)
            .unwrap_or_else(|| panic!("scratchpad access at {addr:#x} maps to no array"));
        let elem = (addr - range.base) / range.elem_bytes;
        let bank = elem % self.partition;
        let gated = self.ready_bits && !write && range.gated;
        let port = &mut self.ports_used[arr_idx as usize * self.partition as usize + bank as usize];
        if port.0 != self.epoch {
            *port = (self.epoch, 0);
        }
        if port.1 >= self.ports_per_bank {
            self.stats.bank_conflicts += 1;
            return IssueResult::Reject;
        }

        if gated {
            let first = addr / self.granule_bytes;
            let last = (addr + u64::from(bytes) - 1) / self.granule_bytes;
            let arrival = (first..=last)
                .map(|g| self.ready.get(&g).copied())
                .try_fold(0u64, |acc, r| r.map(|a| acc.max(a)));
            match arrival {
                // Data known to arrive in the future (pre-computed arrival
                // schedules): the load waits for it without holding a port.
                Some(at) if at > cycle => {
                    self.stats.ready_stalls += 1;
                    self.stats.ready_stall_cycles += at - cycle;
                    self.completions.push((id, at + 1));
                    return IssueResult::Pending;
                }
                Some(_) => {}
                None => {
                    // Data not here yet: the lane stalls; no port consumed
                    // while waiting (the check is the full/empty bit read).
                    self.stats.ready_stalls += 1;
                    for g in first..=last {
                        if !self.ready.contains_key(&g) {
                            self.waiters.entry(g).or_default().push((id, cycle));
                            // Wait on the *first* missing granule; accesses
                            // span at most two granules and DMA delivers in
                            // order, so later granules arrive no earlier.
                            break;
                        }
                    }
                    return IssueResult::Pending;
                }
            }
        }

        port.1 += 1;
        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        IssueResult::Done { at: cycle + 1 }
    }

    fn drain_completions(&mut self, out: &mut Vec<(u64, u64)>) {
        out.append(&mut self.completions);
    }

    fn end_cycle(&mut self, _cycle: u64) {}

    // The scratchpad never acts between cycles: completions arise only from
    // `issue` and `push_arrival`, so idle windows are safe to skip.
    fn is_passive(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aladdin_ir::{ArrayKind, Tracer};

    fn trace_with_arrays() -> Trace {
        let mut t = Tracer::new("m");
        let _a = t.array_f64("a", &[0.0; 64], ArrayKind::Input);
        let _b = t.array_f64("b", &[0.0; 64], ArrayKind::Output);
        t.finish()
    }

    fn spad(partition: u32, ports: u32) -> (Trace, SpadMemory) {
        let trace = trace_with_arrays();
        let cfg = DatapathConfig {
            partition,
            ports_per_bank: ports,
            ..DatapathConfig::default()
        };
        let mem = SpadMemory::new(&trace, &cfg);
        (trace, mem)
    }

    #[test]
    fn single_bank_serializes() {
        let (trace, mut mem) = spad(1, 1);
        let base = trace.arrays()[0].base_addr;
        mem.begin_cycle(0);
        assert_eq!(mem.issue(1, base, 8, false, 0), IssueResult::Done { at: 1 });
        assert_eq!(mem.issue(2, base + 8, 8, false, 0), IssueResult::Reject);
        mem.begin_cycle(1);
        assert_eq!(
            mem.issue(2, base + 8, 8, false, 1),
            IssueResult::Done { at: 2 }
        );
        assert_eq!(mem.stats().bank_conflicts, 1);
    }

    #[test]
    fn partitioned_banks_service_in_parallel() {
        let (trace, mut mem) = spad(4, 1);
        let base = trace.arrays()[0].base_addr;
        mem.begin_cycle(0);
        // Elements 0..4 land in distinct banks.
        for e in 0..4u64 {
            assert_eq!(
                mem.issue(e, base + e * 8, 8, false, 0),
                IssueResult::Done { at: 1 },
                "element {e}"
            );
        }
        // Element 4 wraps to bank 0 — conflicts with element 0.
        assert_eq!(mem.issue(9, base + 4 * 8, 8, false, 0), IssueResult::Reject);
    }

    #[test]
    fn different_arrays_have_independent_banks() {
        let (trace, mut mem) = spad(1, 1);
        let a = trace.arrays()[0].base_addr;
        let b = trace.arrays()[1].base_addr;
        mem.begin_cycle(0);
        assert_eq!(mem.issue(1, a, 8, false, 0), IssueResult::Done { at: 1 });
        assert_eq!(mem.issue(2, b, 8, true, 0), IssueResult::Done { at: 1 });
        assert_eq!(mem.stats().reads, 1);
        assert_eq!(mem.stats().writes, 1);
    }

    #[test]
    fn ready_bits_gate_input_loads() {
        let (trace, mut mem) = spad(4, 2);
        mem.enable_ready_bits();
        let base = trace.arrays()[0].base_addr;
        mem.begin_cycle(5);
        assert_eq!(mem.issue(1, base, 8, false, 5), IssueResult::Pending);
        let mut done = Vec::new();
        mem.drain_completions(&mut done);
        assert!(done.is_empty());
        // DMA delivers the first 64 bytes at cycle 100.
        mem.push_arrival(base, 64, 100);
        mem.drain_completions(&mut done);
        assert_eq!(done, vec![(1, 101)]);
        // Subsequent loads to the delivered region proceed immediately.
        mem.begin_cycle(102);
        assert_eq!(
            mem.issue(2, base + 8, 8, false, 102),
            IssueResult::Done { at: 103 }
        );
        assert_eq!(mem.stats().ready_stalls, 1);
        assert_eq!(mem.stats().ready_stall_cycles, 95);
    }

    #[test]
    fn output_stores_never_gate() {
        let (trace, mut mem) = spad(1, 1);
        mem.enable_ready_bits();
        let out = trace.arrays()[1].base_addr;
        mem.begin_cycle(0);
        assert_eq!(mem.issue(1, out, 8, true, 0), IssueResult::Done { at: 1 });
    }

    #[test]
    fn arrival_granularity_is_cpu_line() {
        let (trace, mut mem) = spad(8, 8);
        mem.enable_ready_bits();
        let base = trace.arrays()[0].base_addr;
        // Deliver only the first 32-byte granule.
        mem.push_arrival(base, 32, 50);
        mem.begin_cycle(60);
        assert_eq!(
            mem.issue(1, base + 24, 8, false, 60),
            IssueResult::Done { at: 61 }
        );
        assert_eq!(mem.issue(2, base + 32, 8, false, 60), IssueResult::Pending);
    }

    #[test]
    #[should_panic(expected = "maps to no array")]
    fn unknown_address_panics() {
        let (_trace, mut mem) = spad(1, 1);
        mem.begin_cycle(0);
        let _ = mem.issue(1, 0x42, 8, false, 0);
    }
}
