//! `gemm-ncubed`: dense matrix-matrix multiply, naïve O(n³) loop nest.
//!
//! MachSuite multiplies 64×64 matrices; we use 32×32 (scaled for sweep
//! tractability) which preserves the pattern: streaming row/column reads,
//! a serial accumulation chain per output element, and a large
//! compute-to-memory ratio — the paper's example of a kernel that matches
//! DMA performance with a cache but pays extra power for it (Section V-A).

use aladdin_ir::{ArrayKind, Opcode, TVal, Tracer};
use aladdin_rng::SmallRng;

use crate::kernel::Kernel;

/// The `gemm-ncubed` kernel: `C = A × B` over `n × n` f64 matrices.
#[derive(Debug, Clone)]
pub struct GemmNCubed {
    /// Matrix dimension.
    pub n: usize,
    /// Input-generation seed.
    pub seed: u64,
}

impl Default for GemmNCubed {
    fn default() -> Self {
        GemmNCubed { n: 32, seed: 7 }
    }
}

impl GemmNCubed {
    fn inputs(&self) -> (Vec<f64>, Vec<f64>) {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let gen = |rng: &mut SmallRng| {
            (0..self.n * self.n)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect()
        };
        (gen(&mut rng), gen(&mut rng))
    }
}

impl Kernel for GemmNCubed {
    fn name(&self) -> &'static str {
        "gemm-ncubed"
    }

    fn description(&self) -> &'static str {
        "dense n^3 matrix multiply; streaming reads, serial per-element accumulation"
    }

    fn trace(&self, t: &mut Tracer) -> Vec<f64> {
        let n = self.n;
        let (a_data, b_data) = self.inputs();
        let a = t.array_f64("m1", &a_data, ArrayKind::Input);
        let b = t.array_f64("m2", &b_data, ArrayKind::Input);
        let mut c = t.array_f64("prod", &vec![0.0; n * n], ArrayKind::Output);
        for i in 0..n {
            for j in 0..n {
                // Each output element is one unit of parallel work.
                t.begin_iteration((i * n + j) as u32);
                let mut sum = TVal::lit(0.0);
                for k in 0..n {
                    let x = t.load(&a, i * n + k);
                    let y = t.load(&b, k * n + j);
                    let p = t.binop(Opcode::FMul, x, y);
                    sum = t.binop(Opcode::FAdd, sum, p);
                }
                t.store(&mut c, i * n + j, sum);
            }
        }
        c.data().to_vec()
    }

    fn reference(&self) -> Vec<f64> {
        let n = self.n;
        let (a, b) = self.inputs();
        let mut c = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut sum = 0.0;
                for k in 0..n {
                    sum += a[i * n + k] * b[k * n + j];
                }
                c[i * n + j] = sum;
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_matches_reference() {
        let k = GemmNCubed { n: 8, seed: 3 };
        assert_eq!(k.run().outputs, k.reference());
    }

    #[test]
    fn trace_shape() {
        let k = GemmNCubed { n: 4, seed: 3 };
        let run = k.run();
        let s = run.trace.stats();
        // Per (i,j): 2n loads, n muls, n adds, 1 store.
        assert_eq!(s.loads, 2 * 4 * 4 * 4);
        assert_eq!(s.stores, 16);
        assert_eq!(s.iterations, 16);
        assert!(
            run.trace.check().is_clean(),
            "{}",
            run.trace.check().to_human()
        );
    }

    #[test]
    fn default_size_is_paper_scale() {
        let k = GemmNCubed::default();
        let run = k.run();
        assert_eq!(run.trace.input_bytes(), 2 * 32 * 32 * 8);
        assert_eq!(run.trace.output_bytes(), 32 * 32 * 8);
    }
}
