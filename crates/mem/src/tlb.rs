//! Accelerator TLB model.
//!
//! gem5-Aladdin implements a custom TLB because accelerators have no ISA and
//! trace addresses must be remapped into the simulated address space
//! (Section III-D). We model the timing-relevant part: a small
//! fully-associative translation cache with LRU replacement and a
//! pre-characterized miss penalty covering the page-table walk.

use aladdin_faults::FaultInjector;
use aladdin_ir::{Diagnostic, Locus};

/// TLB configuration.
///
/// Defaults are the paper's: 8 entries, 200 ns miss penalty (20 cycles at
/// the 100 MHz accelerator clock), 4 KB pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries.
    pub entries: usize,
    /// Page size in bytes (power of two).
    pub page_bytes: u64,
    /// Miss penalty in accelerator cycles.
    pub miss_cycles: u64,
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig {
            entries: 8,
            page_bytes: 4096,
            miss_cycles: 20,
        }
    }
}

/// TLB access counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Translations that hit.
    pub hits: u64,
    /// Translations that missed and paid the walk penalty.
    pub misses: u64,
}

/// A fully-associative, LRU translation lookaside buffer.
///
/// # Example
///
/// ```
/// use aladdin_mem::{Tlb, TlbConfig};
///
/// let mut tlb = Tlb::new(TlbConfig::default());
/// assert_eq!(tlb.translate(0x4000, 100), 120); // cold: 200 ns walk
/// assert_eq!(tlb.translate(0x4008, 121), 121); // same page: hit
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    cfg: TlbConfig,
    /// `log2(page_bytes)`: a page index is `addr >> page_shift`.
    page_shift: u32,
    /// Resident `(page number, use stamp)` pairs. A use writes the current
    /// `clock`, so the least recently used page has the smallest stamp.
    pages: Vec<(u64, u64)>,
    /// Index in `pages` of the last page used, checked first.
    mru: usize,
    clock: u64,
    stats: TlbStats,
    faults: Option<FaultInjector>,
}

impl Tlb {
    /// An empty TLB.
    ///
    /// # Errors
    ///
    /// Returns an `L0212` diagnostic if the configuration has zero entries
    /// or a non-power-of-two page size.
    pub fn try_new(cfg: TlbConfig) -> Result<Self, Diagnostic> {
        if cfg.entries == 0 {
            return Err(Diagnostic::error("L0212", "TLB needs at least one entry")
                .at(Locus::Field("tlb.entries")));
        }
        if !cfg.page_bytes.is_power_of_two() {
            return Err(Diagnostic::error(
                "L0212",
                format!("page size must be a power of two, got {}", cfg.page_bytes),
            )
            .at(Locus::Field("tlb.page_bytes")));
        }
        Ok(Tlb {
            cfg,
            page_shift: cfg.page_bytes.trailing_zeros(),
            pages: Vec::with_capacity(cfg.entries),
            mru: 0,
            clock: 0,
            stats: TlbStats::default(),
            faults: None,
        })
    }

    /// An empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero entries or a non-power-of-two
    /// page size; use [`try_new`](Tlb::try_new) to handle that as a typed
    /// diagnostic instead.
    #[must_use]
    pub fn new(cfg: TlbConfig) -> Self {
        Tlb::try_new(cfg).unwrap_or_else(|d| panic!("{d}"))
    }

    /// Arm page-fault-walk injection: an occasional miss pays a bounded
    /// extra walk penalty (a fault requiring a retried long walk). `None`
    /// restores the exact unperturbed timing.
    pub fn set_faults(&mut self, faults: Option<FaultInjector>) {
        self.faults = faults;
    }

    /// Configuration this TLB was built with.
    #[must_use]
    pub fn config(&self) -> TlbConfig {
        self.cfg
    }

    /// Translate the access at `addr` issued at `cycle`; returns the cycle
    /// at which the translation is available (equal to `cycle` on a hit).
    #[inline]
    pub fn translate(&mut self, addr: u64, cycle: u64) -> u64 {
        let page = addr >> self.page_shift;
        self.clock += 1;
        let hit = if self.pages.get(self.mru).is_some_and(|e| e.0 == page) {
            Some(self.mru)
        } else {
            self.pages.iter().position(|e| e.0 == page)
        };
        let Some(pos) = hit else {
            return self.miss(page, cycle);
        };
        self.mru = pos;
        self.pages[pos].1 = self.clock;
        self.stats.hits += 1;
        cycle
    }

    /// Fill `page`, evicting the least recently used entry if full, and
    /// return when the walk completes.
    fn miss(&mut self, page: u64, cycle: u64) -> u64 {
        self.mru = if self.pages.len() < self.cfg.entries {
            self.pages.push((page, self.clock));
            self.pages.len() - 1
        } else {
            let lru = (0..self.pages.len())
                .min_by_key(|&i| self.pages[i].1)
                .unwrap_or(0);
            self.pages[lru] = (page, self.clock);
            lru
        };
        self.stats.misses += 1;
        let walk = self.faults.as_mut().map_or(0, FaultInjector::extra_cycles);
        cycle + self.cfg.miss_cycles + walk
    }

    /// Access statistics so far.
    #[must_use]
    pub fn stats(&self) -> TlbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_misses_then_hits() {
        let mut tlb = Tlb::new(TlbConfig::default());
        assert_eq!(tlb.translate(0x1000, 100), 120);
        assert_eq!(tlb.translate(0x1800, 121), 121); // same page
        assert_eq!(tlb.stats().hits, 1);
        assert_eq!(tlb.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let cfg = TlbConfig {
            entries: 2,
            ..TlbConfig::default()
        };
        let mut tlb = Tlb::new(cfg);
        tlb.translate(0x0000, 0); // page 0 (miss)
        tlb.translate(0x1000, 0); // page 1 (miss)
        tlb.translate(0x0000, 0); // page 0 hit, refreshes LRU
        tlb.translate(0x2000, 0); // page 2 evicts page 1
        assert_eq!(tlb.translate(0x0000, 0), 0); // page 0 still resident
        assert_eq!(tlb.translate(0x1000, 0), 20); // page 1 was evicted
    }

    #[test]
    fn strided_working_set_larger_than_tlb_thrashes() {
        let cfg = TlbConfig::default();
        let mut tlb = Tlb::new(cfg);
        // Touch 16 pages round-robin twice: with 8 entries and LRU, every
        // access misses.
        for _ in 0..2 {
            for p in 0..16u64 {
                tlb.translate(p * cfg.page_bytes, 0);
            }
        }
        assert_eq!(tlb.stats().misses, 32);
        assert_eq!(tlb.stats().hits, 0);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_rejected() {
        let _ = Tlb::new(TlbConfig {
            entries: 0,
            ..TlbConfig::default()
        });
    }

    #[test]
    fn bad_tlb_config_is_a_typed_diagnostic() {
        let no_entries = TlbConfig {
            entries: 0,
            ..TlbConfig::default()
        };
        assert_eq!(Tlb::try_new(no_entries).unwrap_err().code, "L0212");
        let odd_page = TlbConfig {
            page_bytes: 3000,
            ..TlbConfig::default()
        };
        assert_eq!(Tlb::try_new(odd_page).unwrap_err().code, "L0212");
    }

    #[test]
    fn fault_walks_only_lengthen_misses() {
        use aladdin_faults::{salt, FaultSpec};
        let mut tlb = Tlb::new(TlbConfig::default());
        tlb.set_faults(Some(FaultInjector::new(
            FaultSpec {
                rate: 1.0,
                max_extra: 30,
            },
            7,
            salt::TLB,
        )));
        let miss = tlb.translate(0x1000, 100);
        assert!(miss > 120, "a certain fault lengthens the walk: {miss}");
        assert!(miss <= 150, "walk penalty is bounded: {miss}");
        // A hit never consults the injector.
        assert_eq!(tlb.translate(0x1800, 200), 200);
    }
}
