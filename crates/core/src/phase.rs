//! Runtime phase attribution (Section IV-C).
//!
//! "From execution traces, we break down the runtime into four parts based
//! on how cycles are spent: flush-only time, DMA/flush time, compute/DMA
//! time, and compute-only time."

use aladdin_mem::IntervalSet;

/// Cycle counts of one run, partitioned into the paper's four phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Only the CPU-side flush/invalidate is running.
    pub flush_only: u64,
    /// DMA is running (possibly with flush), but no compute.
    pub dma_flush: u64,
    /// Compute and DMA overlap.
    pub compute_dma: u64,
    /// Only compute is running.
    pub compute_only: u64,
    /// Nothing is attributed (invocation latency, drain gaps, stalls with
    /// no component active).
    pub other: u64,
    /// Total cycles (`start` to `end` of the run).
    pub total: u64,
}

impl PhaseBreakdown {
    /// Classify every cycle of `[start, end)` by which activities cover it.
    #[must_use]
    pub fn classify(
        flush: &IntervalSet,
        dma: &IntervalSet,
        compute: &IntervalSet,
        start: u64,
        end: u64,
    ) -> Self {
        let mut b = PhaseBreakdown {
            total: end.saturating_sub(start),
            ..PhaseBreakdown::default()
        };
        for (s, e, (f, d, c)) in IntervalSet::classify_runs([flush, dma, compute], end) {
            if e <= start {
                continue;
            }
            let run = e - s.max(start);
            match (f, d, c) {
                // Compute overlapped with any data movement (DMA or, in
                // the triggered flow, the tail of a flush) — the paper
                // groups all movement-overlap as compute/DMA time.
                (_, true, true) | (true, false, true) => b.compute_dma += run,
                (_, true, false) => b.dma_flush += run,
                (true, false, false) => b.flush_only += run,
                (false, false, true) => b.compute_only += run,
                (false, false, false) => b.other += run,
            }
        }
        debug_assert_eq!(
            b.flush_only + b.dma_flush + b.compute_dma + b.compute_only + b.other,
            b.total
        );
        b
    }

    /// The phase-attribution epilogue shared by the single-accelerator DMA
    /// flow and the multi-accelerator engine: merge the inbound and
    /// outbound DMA busy sets, then classify `[0, end)` against the flush
    /// and compute activity.
    #[must_use]
    pub fn for_dma_run(
        flush: &IntervalSet,
        dma_in: &IntervalSet,
        dma_out: &IntervalSet,
        compute: &IntervalSet,
        end: u64,
    ) -> Self {
        let mut dma_busy = dma_in.clone();
        dma_busy.extend(dma_out.as_slice().iter().copied());
        Self::classify(flush, &dma_busy, compute, 0, end)
    }

    /// Fraction of total time in each phase, in the order
    /// (flush-only, DMA/flush, compute/DMA, compute-only, other).
    #[must_use]
    pub fn fractions(&self) -> [f64; 5] {
        let t = self.total.max(1) as f64;
        [
            self.flush_only as f64 / t,
            self.dma_flush as f64 / t,
            self.compute_dma as f64 / t,
            self.compute_only as f64 / t,
            self.other as f64 / t,
        ]
    }

    /// Whether the run is data-movement bound (more than half the cycles
    /// involve no exclusive compute) — the paper's Figure 2b split.
    #[must_use]
    pub fn is_data_movement_bound(&self) -> bool {
        self.flush_only + self.dma_flush + self.other > self.total / 2
    }
}

impl std::fmt::Display for PhaseBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fr = self.fractions();
        write!(
            f,
            "flush {:.1}% | dma/flush {:.1}% | compute/dma {:.1}% | compute {:.1}% | other {:.1}% ({} cycles)",
            fr[0] * 100.0,
            fr[1] * 100.0,
            fr[2] * 100.0,
            fr[3] * 100.0,
            fr[4] * 100.0,
            self.total
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(ranges: &[(u64, u64)]) -> IntervalSet {
        ranges.iter().copied().collect()
    }

    #[test]
    fn sequential_baseline_layout() {
        // flush [0,100), dma [100,300), compute [300,600).
        let b = PhaseBreakdown::classify(
            &iv(&[(0, 100)]),
            &iv(&[(100, 300)]),
            &iv(&[(300, 600)]),
            0,
            600,
        );
        assert_eq!(b.flush_only, 100);
        assert_eq!(b.dma_flush, 200);
        assert_eq!(b.compute_dma, 0);
        assert_eq!(b.compute_only, 300);
        assert_eq!(b.other, 0);
        assert_eq!(b.total, 600);
    }

    #[test]
    fn pipelined_overlap_layout() {
        // flush [0,200) overlapping dma [100,400); compute [150,500).
        let b = PhaseBreakdown::classify(
            &iv(&[(0, 200)]),
            &iv(&[(100, 400)]),
            &iv(&[(150, 500)]),
            0,
            500,
        );
        assert_eq!(b.flush_only, 100); // [0,100)
        assert_eq!(b.dma_flush, 50); // [100,150): dma+flush, no compute
        assert_eq!(b.compute_dma, 250); // [150,400)
        assert_eq!(b.compute_only, 100); // [400,500)
        assert_eq!(b.total, 500);
    }

    #[test]
    fn gaps_are_other() {
        let b = PhaseBreakdown::classify(&iv(&[]), &iv(&[(0, 10)]), &iv(&[(20, 30)]), 0, 40);
        assert_eq!(b.other, 20); // [10,20) and [30,40)
        assert_eq!(b.dma_flush, 10);
        assert_eq!(b.compute_only, 10);
    }

    #[test]
    fn fractions_sum_to_one() {
        let b = PhaseBreakdown::classify(
            &iv(&[(0, 50)]),
            &iv(&[(25, 100)]),
            &iv(&[(60, 200)]),
            0,
            200,
        );
        let sum: f64 = b.fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn movement_bound_detection() {
        let bound = PhaseBreakdown {
            flush_only: 40,
            dma_flush: 30,
            compute_only: 30,
            total: 100,
            ..PhaseBreakdown::default()
        };
        assert!(bound.is_data_movement_bound());
        let compute = PhaseBreakdown {
            flush_only: 10,
            compute_only: 90,
            total: 100,
            ..PhaseBreakdown::default()
        };
        assert!(!compute.is_data_movement_bound());
    }

    #[test]
    fn display_is_informative() {
        let b = PhaseBreakdown {
            compute_only: 10,
            total: 10,
            ..PhaseBreakdown::default()
        };
        assert!(b.to_string().contains("compute 100.0%"));
    }
}
