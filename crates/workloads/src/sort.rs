//! `sort-merge`: bottom-up merge sort.
//!
//! Streaming reads of two runs with a data-dependent interleave, plus a
//! ping-pong temporary buffer — part of the Figure 2b breadth sweep.

use aladdin_ir::{ArrayKind, Tracer};
use aladdin_rng::SmallRng;

use crate::kernel::Kernel;

/// The `sort-merge` kernel over `len` 4-byte integers.
#[derive(Debug, Clone)]
pub struct SortMerge {
    /// Element count (power of two).
    pub len: usize,
    /// Input-generation seed.
    pub seed: u64,
}

impl Default for SortMerge {
    fn default() -> Self {
        // MachSuite sorts 2048 integers; 512 preserves the pattern.
        SortMerge { len: 512, seed: 43 }
    }
}

impl SortMerge {
    fn inputs(&self) -> Vec<i64> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        (0..self.len).map(|_| rng.gen_range(0..1 << 20)).collect()
    }
}

impl Kernel for SortMerge {
    fn name(&self) -> &'static str {
        "sort-merge"
    }

    fn description(&self) -> &'static str {
        "bottom-up merge sort; streaming runs with data-dependent interleave"
    }

    fn trace(&self, t: &mut Tracer) -> Vec<f64> {
        assert!(self.len.is_power_of_two(), "len must be a power of two");
        let data = self.inputs();
        let mut a = t.array_i32("a", &data, ArrayKind::InOut);
        let mut tmp = t.array_i32("temp", &vec![0i64; self.len], ArrayKind::Internal);

        let mut iter = 0u32;
        let mut width = 1;
        while width < self.len {
            let mut lo = 0;
            while lo < self.len {
                t.begin_iteration(iter % 4096);
                iter += 1;
                let mid = (lo + width).min(self.len);
                let hi = (lo + 2 * width).min(self.len);
                // Merge a[lo..mid] and a[mid..hi] into tmp[lo..hi].
                let (mut i, mut j) = (lo, mid);
                for k in lo..hi {
                    if i < mid && (j >= hi || a.peek(i) <= a.peek(j)) {
                        let x = t.load(&a, i);
                        if j < hi {
                            // The comparison actually performed in HW.
                            let y = t.load(&a, j);
                            let _ = t.icmp_lt(y, x);
                        }
                        t.store(&mut tmp, k, x);
                        i += 1;
                    } else {
                        let y = t.load(&a, j);
                        t.store(&mut tmp, k, y);
                        j += 1;
                    }
                }
                for k in lo..hi {
                    let v = t.load(&tmp, k);
                    t.store(&mut a, k, v);
                }
                lo += 2 * width;
            }
            width *= 2;
        }

        a.data().iter().map(|&v| v as f64).collect()
    }

    fn reference(&self) -> Vec<f64> {
        let mut data = self.inputs();
        data.sort_unstable();
        data.iter().map(|&v| v as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_matches_reference() {
        let k = SortMerge { len: 64, seed: 2 };
        assert_eq!(k.run().outputs, k.reference());
    }

    #[test]
    fn default_sorts() {
        let k = SortMerge::default();
        let out = k.run().outputs;
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let k = SortMerge { len: 100, seed: 2 };
        let _ = k.run();
    }
}
