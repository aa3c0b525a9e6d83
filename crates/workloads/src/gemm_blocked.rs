//! `gemm-blocked`: blocked (tiled) matrix multiply.
//!
//! MachSuite's second gemm variant: the loop nest is tiled so the working
//! set of each phase fits in a small buffer. Compared with `gemm-ncubed`
//! the dynamic compute is identical but the *access locality* differs —
//! which is exactly the property that separates cache- from DMA-based
//! designs, making the pair a useful A/B for the Figure 8 methodology.

use aladdin_ir::{ArrayKind, Opcode, Tracer};
use aladdin_rng::SmallRng;

use crate::kernel::Kernel;

/// The `gemm-blocked` kernel: `C = A × B` tiled into `block`-sized tiles.
#[derive(Debug, Clone)]
pub struct GemmBlocked {
    /// Matrix dimension (multiple of `block`).
    pub n: usize,
    /// Tile edge length.
    pub block: usize,
    /// Input-generation seed.
    pub seed: u64,
}

impl Default for GemmBlocked {
    fn default() -> Self {
        // MachSuite uses 64×64 with 8×8 tiles; 32×32 with 8×8 tiles keeps
        // the same tiling structure at sweep-friendly cost.
        GemmBlocked {
            n: 32,
            block: 8,
            seed: 59,
        }
    }
}

impl GemmBlocked {
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

impl Kernel for GemmBlocked {
    fn name(&self) -> &'static str {
        "gemm-blocked"
    }

    fn description(&self) -> &'static str {
        "tiled matrix multiply; same FLOPs as gemm-ncubed, tighter locality"
    }

    fn trace(&self, t: &mut Tracer) -> Vec<f64> {
        assert_eq!(self.n % self.block, 0, "n must be a multiple of block");
        let (n, b) = (self.n, self.block);
        let (a_data, b_data) = self.inputs();
        let a = t.array_f64("m1", &a_data, ArrayKind::Input);
        let bm = t.array_f64("m2", &b_data, ArrayKind::Input);
        let mut c = t.array_f64("prod", &vec![0.0; n * n], ArrayKind::Output);
        let mut iter = 0u32;
        // MachSuite's loop order: tile row (jj), tile col (kk), then the
        // i/k/j nest accumulating partial products into C.
        for jj in (0..n).step_by(b) {
            for kk in (0..n).step_by(b) {
                for i in 0..n {
                    t.begin_iteration(iter);
                    iter += 1;
                    for k in kk..kk + b {
                        let ai = t.load(&a, i * n + k);
                        for j in jj..jj + b {
                            let bk = t.load(&bm, k * n + j);
                            let prev = t.load(&c, i * n + j);
                            let mul = t.binop(Opcode::FMul, ai, bk);
                            let sum = t.binop(Opcode::FAdd, prev, mul);
                            t.store(&mut c, i * n + j, sum);
                        }
                    }
                }
            }
        }
        c.data().to_vec()
    }

    fn reference(&self) -> Vec<f64> {
        let (n, b) = (self.n, self.block);
        let (a, bm) = self.inputs();
        let mut c = vec![0.0; n * n];
        for jj in (0..n).step_by(b) {
            for kk in (0..n).step_by(b) {
                for i in 0..n {
                    for k in kk..kk + b {
                        for j in jj..jj + b {
                            c[i * n + j] += a[i * n + k] * bm[k * n + j];
                        }
                    }
                }
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GemmNCubed;

    #[test]
    fn traced_matches_reference() {
        let k = GemmBlocked {
            n: 16,
            block: 4,
            seed: 5,
        };
        assert_eq!(k.run().outputs, k.reference());
    }

    #[test]
    fn agrees_with_ncubed_up_to_fp_ordering() {
        // Same seed → same inputs; blocked accumulation reorders FP adds,
        // so compare with a tolerance.
        let blocked = GemmBlocked {
            n: 16,
            block: 4,
            seed: 7,
        };
        let naive = GemmNCubed { n: 16, seed: 7 };
        let x = blocked.reference();
        let y = naive.reference();
        for (a, b) in x.iter().zip(&y) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "multiple of block")]
    fn bad_tiling_rejected() {
        let k = GemmBlocked {
            n: 10,
            block: 4,
            seed: 1,
        };
        let _ = k.run();
    }
}
