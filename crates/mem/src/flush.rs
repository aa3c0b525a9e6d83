//! Analytical CPU cache flush/invalidate cost model.
//!
//! DMA engines can only access main memory or the LLC, so before a DMA
//! transfer the CPU must flush every input line out of its private caches
//! and invalidate the region that will hold return data (Section II-B). The
//! paper models this analytically with constants characterized on the Zynq
//! Zedboard's Cortex-A9: one line flushed per 56 CPU cycles at 667 MHz
//! (84 ns) and one line invalidated per 71 ns. This module reproduces that
//! model and produces the per-chunk completion times that pipelined DMA
//! synchronizes against.

use aladdin_faults::FaultInjector;
use aladdin_ir::Report;

use crate::clock::Clock;
use crate::intervals::IntervalSet;

/// Flush/invalidate cost constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlushConfig {
    /// Nanoseconds to flush one CPU cache line.
    pub flush_ns_per_line: f64,
    /// Nanoseconds to invalidate one CPU cache line.
    pub invalidate_ns_per_line: f64,
    /// CPU cache line size in bytes (Cortex-A9: 32 B).
    pub line_bytes: u32,
}

impl Default for FlushConfig {
    fn default() -> Self {
        FlushConfig {
            flush_ns_per_line: 84.0,
            invalidate_ns_per_line: 71.0,
            line_bytes: 32,
        }
    }
}

impl FlushConfig {
    /// `L0210` validation, as `SocConfig::check` reports it: costs are
    /// charged per line, so a line must hold at least one byte.
    #[must_use]
    pub fn check(&self) -> Report {
        let mut report = Report::new();
        crate::require_positive(
            &mut report,
            "soc.flush.line_bytes",
            u64::from(self.line_bytes),
        );
        report
    }

    /// Cycles to flush `bytes` of data, at the accelerator clock.
    #[must_use]
    pub fn flush_cycles(&self, clock: Clock, bytes: u64) -> u64 {
        let lines = bytes.div_ceil(u64::from(self.line_bytes));
        clock.cycles_from_ns(lines as f64 * self.flush_ns_per_line)
    }

    /// Cycles to invalidate `bytes` of data, at the accelerator clock.
    #[must_use]
    pub fn invalidate_cycles(&self, clock: Clock, bytes: u64) -> u64 {
        let lines = bytes.div_ceil(u64::from(self.line_bytes));
        clock.cycles_from_ns(lines as f64 * self.invalidate_ns_per_line)
    }
}

/// The timed schedule of one pre-DMA coherence-management phase.
///
/// The CPU flushes the input chunks in order, then invalidates the output
/// region. `chunk_done(k)` gates chunk `k`'s DMA in the pipelined flow;
/// the baseline flow waits for [`flush_end`](FlushSchedule::flush_end).
/// # Example
///
/// ```
/// use aladdin_mem::{Clock, FlushConfig, FlushSchedule};
///
/// // Two 4 KB chunks of input, 4 KB of output region to invalidate.
/// let s = FlushSchedule::new(
///     FlushConfig::default(),
///     Clock::default(),
///     0,
///     &[4096, 4096],
///     4096,
/// );
/// assert_eq!(s.chunk_done(0), 1076); // 128 lines x 84 ns at 10 ns/cycle
/// assert!(s.end() > s.flush_end());
/// ```
#[derive(Debug, Clone)]
pub struct FlushSchedule {
    chunk_done: Vec<u64>,
    flush_end: u64,
    end: u64,
    busy: IntervalSet,
}

impl FlushSchedule {
    /// Build the schedule: flushing starts at `start`, chunk sizes are the
    /// DMA chunk sizes (bytes), and `invalidate_bytes` of output region are
    /// invalidated after the last flush.
    #[must_use]
    pub fn new(
        cfg: FlushConfig,
        clock: Clock,
        start: u64,
        chunk_bytes: &[u64],
        invalidate_bytes: u64,
    ) -> Self {
        FlushSchedule::new_with_faults(cfg, clock, start, chunk_bytes, invalidate_bytes, None)
    }

    /// Like [`new`](FlushSchedule::new), with an optional flush-contention
    /// injector: each chunk's flush may stall a bounded number of extra
    /// cycles (the CPU contending for its own cache ports). `None` gives
    /// the exact unperturbed schedule.
    #[must_use]
    pub fn new_with_faults(
        cfg: FlushConfig,
        clock: Clock,
        start: u64,
        chunk_bytes: &[u64],
        invalidate_bytes: u64,
        mut faults: Option<FaultInjector>,
    ) -> Self {
        let mut t = start;
        let mut chunk_done = Vec::with_capacity(chunk_bytes.len());
        for &bytes in chunk_bytes {
            let stall = faults.as_mut().map_or(0, FaultInjector::extra_cycles);
            t += cfg.flush_cycles(clock, bytes) + stall;
            chunk_done.push(t);
        }
        let flush_end = t;
        let end = flush_end + cfg.invalidate_cycles(clock, invalidate_bytes);
        let mut busy = IntervalSet::new();
        busy.push(start, end);
        FlushSchedule {
            chunk_done,
            flush_end,
            end,
            busy,
        }
    }

    /// Cycle at which the flush of chunk `k` completes.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn chunk_done(&self, k: usize) -> u64 {
        self.chunk_done[k]
    }

    /// Per-chunk completion times.
    #[must_use]
    pub fn chunk_times(&self) -> &[u64] {
        &self.chunk_done
    }

    /// Cycle at which all input flushing is complete.
    #[must_use]
    pub fn flush_end(&self) -> u64 {
        self.flush_end
    }

    /// Cycle at which the whole coherence phase (flush + invalidate) ends.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Cycles the CPU spends on coherence management.
    #[must_use]
    pub fn busy(&self) -> &IntervalSet {
        &self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_at_100mhz() {
        // 4 KB = 128 lines of 32 B; 128 × 84 ns = 10.752 µs = 1076 cycles.
        let cfg = FlushConfig::default();
        let clock = Clock::default();
        assert_eq!(cfg.flush_cycles(clock, 4096), 1076);
        // 128 × 71 ns = 9.088 µs = 909 cycles.
        assert_eq!(cfg.invalidate_cycles(clock, 4096), 909);
    }

    #[test]
    fn flush_and_dma_of_a_page_are_matched() {
        // The paper picks 100 MHz so a 4 KB flush (~1076 cycles) roughly
        // matches a 4 KB DMA over the 32-bit bus (1024 transfer cycles):
        // pipelined DMA then has no bubbles.
        let cfg = FlushConfig::default();
        let clock = Clock::default();
        let flush = cfg.flush_cycles(clock, 4096) as f64;
        let dma = 4096.0 / 4.0;
        assert!((flush - dma).abs() / dma < 0.10);
    }

    #[test]
    fn schedule_is_cumulative() {
        let s = FlushSchedule::new(
            FlushConfig::default(),
            Clock::default(),
            100,
            &[4096, 4096, 1024],
            2048,
        );
        assert_eq!(s.chunk_done(0), 100 + 1076);
        assert_eq!(s.chunk_done(1), 100 + 2 * 1076);
        assert_eq!(s.chunk_done(2), 100 + 2 * 1076 + 269);
        assert_eq!(s.flush_end(), s.chunk_done(2));
        assert_eq!(s.end(), s.flush_end() + 455);
        assert_eq!(s.busy().total(), s.end() - 100);
    }

    #[test]
    fn empty_schedule() {
        let s = FlushSchedule::new(FlushConfig::default(), Clock::default(), 5, &[], 0);
        assert_eq!(s.flush_end(), 5);
        assert_eq!(s.end(), 5);
        assert!(s.busy().is_empty());
        assert!(s.chunk_times().is_empty());
    }

    #[test]
    fn faulted_schedule_stalls_but_stays_ordered() {
        use aladdin_faults::{salt, FaultSpec};
        let chunks = [4096u64, 4096, 4096];
        let plain = FlushSchedule::new(FlushConfig::default(), Clock::default(), 0, &chunks, 4096);
        let inj = FaultInjector::new(
            FaultSpec {
                rate: 1.0,
                max_extra: 10,
            },
            5,
            salt::FLUSH,
        );
        let faulted = FlushSchedule::new_with_faults(
            FlushConfig::default(),
            Clock::default(),
            0,
            &chunks,
            4096,
            Some(inj),
        );
        for k in 0..chunks.len() {
            assert!(faulted.chunk_done(k) > plain.chunk_done(k));
            assert!(faulted.chunk_done(k) <= plain.chunk_done(k) + 10 * (k as u64 + 1));
        }
        assert_eq!(
            faulted.end() - faulted.flush_end(),
            plain.end() - plain.flush_end(),
            "invalidate phase is not an injection site"
        );
        // None restores bit-identical schedules.
        let off = FlushSchedule::new_with_faults(
            FlushConfig::default(),
            Clock::default(),
            0,
            &chunks,
            4096,
            None,
        );
        assert_eq!(off.chunk_times(), plain.chunk_times());
        assert_eq!(off.end(), plain.end());
    }

    #[test]
    fn partial_lines_round_up() {
        let cfg = FlushConfig::default();
        let clock = Clock::default();
        assert_eq!(cfg.flush_cycles(clock, 1), cfg.flush_cycles(clock, 32));
        assert_eq!(cfg.flush_cycles(clock, 33), cfg.flush_cycles(clock, 64));
    }
}
