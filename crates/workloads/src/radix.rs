//! `sort-radix`: least-significant-digit radix sort.
//!
//! Histogram build, prefix-sum, and a data-dependent scatter per digit —
//! MachSuite's other sort, with a very different memory profile from
//! `sort-merge` (indirect stores instead of streaming merges).

use aladdin_ir::{ArrayKind, Opcode, TVal, Tracer};
use aladdin_rng::SmallRng;

use crate::kernel::Kernel;

const RADIX_BITS: u32 = 4;
const BUCKETS: usize = 1 << RADIX_BITS;

/// The `sort-radix` kernel over `len` integers of `key_bits` significant
/// bits.
#[derive(Debug, Clone)]
pub struct SortRadix {
    /// Element count.
    pub len: usize,
    /// Significant key bits (decides the number of digit passes).
    pub key_bits: u32,
    /// Input-generation seed.
    pub seed: u64,
}

impl Default for SortRadix {
    fn default() -> Self {
        // MachSuite sorts 2048 integers; 512 with 16-bit keys preserves
        // the histogram/scan/scatter structure over 4 passes.
        SortRadix {
            len: 512,
            key_bits: 16,
            seed: 61,
        }
    }
}

impl SortRadix {
    fn inputs(&self) -> Vec<i64> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        (0..self.len)
            .map(|_| rng.gen_range(0..1i64 << self.key_bits))
            .collect()
    }
}

impl Kernel for SortRadix {
    fn name(&self) -> &'static str {
        "sort-radix"
    }

    fn description(&self) -> &'static str {
        "LSD radix sort; histogram + prefix sum + data-dependent scatter"
    }

    fn trace(&self, t: &mut Tracer) -> Vec<f64> {
        let data = self.inputs();
        let mut a = t.array_i32("a", &data, ArrayKind::InOut);
        let mut buf = t.array_i32("buffer", &vec![0i64; self.len], ArrayKind::Internal);
        let mut bucket = t.array_i32("bucket", &[0i64; BUCKETS], ArrayKind::Internal);

        let passes = self.key_bits.div_ceil(RADIX_BITS);
        let mut iter = 0u32;
        for pass in 0..passes {
            let shift = pass * RADIX_BITS;
            // 1. Clear histogram.
            for bkt in 0..BUCKETS {
                t.begin_iteration(iter % 4096);
                iter += 1;
                t.store(&mut bucket, bkt, TVal::lit(0));
            }
            // 2. Histogram.
            for i in 0..self.len {
                t.begin_iteration(iter % 4096);
                iter += 1;
                let v = t.load(&a, i);
                let sh = t.ibinop(Opcode::Shift, TVal::lit(1), TVal::lit(i64::from(shift)));
                let div = t.ibinop(Opcode::Div, v, sh);
                let digit = t.and(div, TVal::lit((BUCKETS - 1) as i64));
                let d = usize::try_from(digit.v).expect("digit");
                let count = t.load_indexed(&bucket, d, digit.src);
                let inc = t.ibinop(Opcode::Add, count, TVal::lit(1));
                t.store_indexed(&mut bucket, d, inc, digit.src);
            }
            // 3. Exclusive prefix sum (serial chain, as in MachSuite's
            // local scan).
            let mut running = TVal::lit(0i64);
            for bkt in 0..BUCKETS {
                t.begin_iteration(iter % 4096);
                iter += 1;
                let c = t.load(&bucket, bkt);
                t.store(&mut bucket, bkt, running);
                running = t.ibinop(Opcode::Add, running, c);
            }
            // 4. Scatter into the ping-pong buffer.
            for i in 0..self.len {
                t.begin_iteration(iter % 4096);
                iter += 1;
                let v = t.load(&a, i);
                let sh = t.ibinop(Opcode::Shift, TVal::lit(1), TVal::lit(i64::from(shift)));
                let div = t.ibinop(Opcode::Div, v, sh);
                let digit = t.and(div, TVal::lit((BUCKETS - 1) as i64));
                let d = usize::try_from(digit.v).expect("digit");
                let pos = t.load_indexed(&bucket, d, digit.src);
                let p = usize::try_from(pos.v).expect("position");
                t.store_indexed(&mut buf, p, v, pos.src);
                let inc = t.ibinop(Opcode::Add, pos, TVal::lit(1));
                t.store_indexed(&mut bucket, d, inc, digit.src);
            }
            // 5. Copy back.
            for i in 0..self.len {
                t.begin_iteration(iter % 4096);
                iter += 1;
                let v = t.load(&buf, i);
                t.store(&mut a, i, v);
            }
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
        let k = SortRadix {
            len: 64,
            key_bits: 8,
            seed: 3,
        };
        assert_eq!(k.run().outputs, k.reference());
    }

    #[test]
    fn default_sorts() {
        let k = SortRadix::default();
        let out = k.run().outputs;
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(out, k.reference());
    }

    #[test]
    fn scatter_is_indirect() {
        // Most stores into the ping-pong buffer must carry an address
        // dependence (the prefix-sum position).
        let k = SortRadix {
            len: 32,
            key_bits: 8,
            seed: 3,
        };
        let run = k.run();
        let buf_id = run
            .trace
            .arrays()
            .iter()
            .find(|a| a.name == "buffer")
            .unwrap()
            .id;
        let scatters = run
            .trace
            .nodes()
            .iter()
            .filter(|n| {
                n.mem.is_some_and(|m| {
                    m.array == buf_id && m.kind == aladdin_ir::MemAccessKind::Write
                })
            })
            .count();
        assert_eq!(scatters, 32 * 2); // one scatter per element per pass
        assert!(
            run.trace.check().is_clean(),
            "{}",
            run.trace.check().to_human()
        );
    }
}
