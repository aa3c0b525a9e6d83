//! `stencil-stencil2d`: 2-D convolution with a 3×3 filter.
//!
//! Row-major sweep over the grid with a 3×3 window: strongly streaming
//! (only the first three rows must arrive before computation can start),
//! which is why DMA-triggered computation recovers most of the data-
//! movement time on this kernel (Section IV-C1).

use aladdin_ir::{ArrayKind, Opcode, TVal, Tracer};
use aladdin_rng::SmallRng;

use crate::kernel::Kernel;

/// The `stencil-stencil2d` kernel on a `rows × cols` f64 grid.
#[derive(Debug, Clone)]
pub struct Stencil2d {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Input-generation seed.
    pub seed: u64,
}

impl Default for Stencil2d {
    fn default() -> Self {
        // MachSuite uses 64×128; 64×64 keeps sweeps fast with the same
        // access pattern.
        Stencil2d {
            rows: 64,
            cols: 64,
            seed: 11,
        }
    }
}

impl Stencil2d {
    fn inputs(&self) -> (Vec<f64>, Vec<f64>) {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let orig = (0..self.rows * self.cols)
            .map(|_| rng.gen_range(0.0..10.0))
            .collect();
        let filter = (0..9).map(|_| rng.gen_range(-1.0..1.0)).collect();
        (orig, filter)
    }
}

impl Kernel for Stencil2d {
    fn name(&self) -> &'static str {
        "stencil-stencil2d"
    }

    fn description(&self) -> &'static str {
        "3x3 convolution over a 2-D grid; streaming row-major access"
    }

    fn trace(&self, t: &mut Tracer) -> Vec<f64> {
        let (r, c) = (self.rows, self.cols);
        let (orig_data, filter_data) = self.inputs();
        // The filter is registered (and hence DMA-delivered) first: its 9
        // taps gate every iteration, so a programmer issues its `dmaLoad`
        // before the bulk grid.
        let filt = t.array_f64("filter", &filter_data, ArrayKind::Input);
        let orig = t.array_f64("orig", &orig_data, ArrayKind::Input);
        let mut sol = t.array_f64("sol", &vec![0.0; r * c], ArrayKind::Output);
        for i in 0..r - 2 {
            for j in 0..c - 2 {
                t.begin_iteration((i * (c - 2) + j) as u32);
                let mut sum = TVal::lit(0.0);
                for k1 in 0..3 {
                    for k2 in 0..3 {
                        let f = t.load(&filt, k1 * 3 + k2);
                        let x = t.load(&orig, (i + k1) * c + j + k2);
                        let m = t.binop(Opcode::FMul, f, x);
                        sum = t.binop(Opcode::FAdd, sum, m);
                    }
                }
                t.store(&mut sol, i * c + j, sum);
            }
        }
        sol.data().to_vec()
    }

    fn reference(&self) -> Vec<f64> {
        let (r, c) = (self.rows, self.cols);
        let (orig, filter) = self.inputs();
        let mut sol = vec![0.0; r * c];
        for i in 0..r - 2 {
            for j in 0..c - 2 {
                let mut sum = 0.0;
                for k1 in 0..3 {
                    for k2 in 0..3 {
                        sum += filter[k1 * 3 + k2] * orig[(i + k1) * c + j + k2];
                    }
                }
                sol[i * c + j] = sum;
            }
        }
        sol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_matches_reference() {
        let k = Stencil2d {
            rows: 8,
            cols: 8,
            seed: 1,
        };
        assert_eq!(k.run().outputs, k.reference());
    }

    #[test]
    fn trace_shape() {
        let k = Stencil2d {
            rows: 6,
            cols: 6,
            seed: 1,
        };
        let run = k.run();
        let s = run.trace.stats();
        // 4×4 interior outputs, each 18 loads + 9 muls + 9 adds + 1 store.
        assert_eq!(s.stores, 16);
        assert_eq!(s.loads, 16 * 18);
        assert_eq!(s.iterations, 16);
        assert!(
            run.trace.check().is_clean(),
            "{}",
            run.trace.check().to_human()
        );
    }
}
