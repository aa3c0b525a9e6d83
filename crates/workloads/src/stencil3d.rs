//! `stencil-stencil3d`: 3-D 7-point stencil.
//!
//! The three-dimensional sweep touches neighbors at strides of 1, `cols`,
//! and `rows×cols` elements — the "nonuniform stride lengths" that a
//! pull-based cache handles gracefully but DMA cannot (Section V-A). This
//! is the paper's motivating kernel (Figure 1).

use aladdin_ir::{ArrayKind, Opcode, TVal, Tracer};
use aladdin_rng::SmallRng;

use crate::kernel::Kernel;

/// The `stencil-stencil3d` kernel on a `height × rows × cols` f64 grid.
#[derive(Debug, Clone)]
pub struct Stencil3d {
    /// Grid height (slowest dimension).
    pub height: usize,
    /// Grid rows.
    pub rows: usize,
    /// Grid columns (fastest dimension).
    pub cols: usize,
    /// Input-generation seed.
    pub seed: u64,
}

impl Default for Stencil3d {
    fn default() -> Self {
        // MachSuite uses 32×32×16; 16×16×16 keeps sweeps fast with the
        // same three-stride pattern.
        Stencil3d {
            height: 16,
            rows: 16,
            cols: 16,
            seed: 13,
        }
    }
}

impl Stencil3d {
    const C0: f64 = 0.5;
    const C1: f64 = 0.25;

    fn inputs(&self) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        (0..self.height * self.rows * self.cols)
            .map(|_| rng.gen_range(0.0..10.0))
            .collect()
    }

    fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        (i * self.rows + j) * self.cols + k
    }
}

impl Kernel for Stencil3d {
    fn name(&self) -> &'static str {
        "stencil-stencil3d"
    }

    fn description(&self) -> &'static str {
        "7-point 3-D stencil; nonuniform strides across three dimensions"
    }

    fn trace(&self, t: &mut Tracer) -> Vec<f64> {
        let (h, r, c) = (self.height, self.rows, self.cols);
        let orig_data = self.inputs();
        let orig = t.array_f64("orig", &orig_data, ArrayKind::Input);
        let mut sol = t.array_f64("sol", &orig_data, ArrayKind::Output);
        let mut iter = 0u32;
        for i in 1..h - 1 {
            for j in 1..r - 1 {
                for k in 1..c - 1 {
                    t.begin_iteration(iter);
                    iter += 1;
                    let center = t.load(&orig, self.idx(i, j, k));
                    let mut acc = TVal::lit(0.0);
                    for (di, dj, dk) in [
                        (-1i64, 0i64, 0i64),
                        (1, 0, 0),
                        (0, -1, 0),
                        (0, 1, 0),
                        (0, 0, -1),
                        (0, 0, 1),
                    ] {
                        let n = t.load(
                            &orig,
                            self.idx(
                                (i as i64 + di) as usize,
                                (j as i64 + dj) as usize,
                                (k as i64 + dk) as usize,
                            ),
                        );
                        acc = t.binop(Opcode::FAdd, acc, n);
                    }
                    let c0 = t.binop(Opcode::FMul, TVal::lit(Self::C0), center);
                    let c1 = t.binop(Opcode::FMul, TVal::lit(Self::C1), acc);
                    let v = t.binop(Opcode::FAdd, c0, c1);
                    t.store(&mut sol, self.idx(i, j, k), v);
                }
            }
        }
        sol.data().to_vec()
    }

    fn reference(&self) -> Vec<f64> {
        let (h, r, c) = (self.height, self.rows, self.cols);
        let orig = self.inputs();
        let mut sol = orig.clone();
        for i in 1..h - 1 {
            for j in 1..r - 1 {
                for k in 1..c - 1 {
                    let acc = orig[self.idx(i - 1, j, k)]
                        + orig[self.idx(i + 1, j, k)]
                        + orig[self.idx(i, j - 1, k)]
                        + orig[self.idx(i, j + 1, k)]
                        + orig[self.idx(i, j, k - 1)]
                        + orig[self.idx(i, j, k + 1)];
                    sol[self.idx(i, j, k)] = Self::C0 * orig[self.idx(i, j, k)] + Self::C1 * acc;
                }
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
        let k = Stencil3d {
            height: 6,
            rows: 6,
            cols: 6,
            seed: 2,
        };
        assert_eq!(k.run().outputs, k.reference());
    }

    #[test]
    fn trace_shape() {
        let k = Stencil3d {
            height: 4,
            rows: 4,
            cols: 4,
            seed: 2,
        };
        let run = k.run();
        let s = run.trace.stats();
        // 2×2×2 interior points, each 7 loads + 8 compute + 1 store.
        assert_eq!(s.stores, 8);
        assert_eq!(s.loads, 8 * 7);
        assert_eq!(s.iterations, 8);
        assert!(
            run.trace.check().is_clean(),
            "{}",
            run.trace.check().to_human()
        );
    }

    #[test]
    fn boundary_preserved() {
        let k = Stencil3d {
            height: 4,
            rows: 4,
            cols: 4,
            seed: 2,
        };
        let inp = k.inputs();
        let out = k.reference();
        // Boundary cells copied through (the InOut-style initialization).
        assert_eq!(inp[0], out[0]);
        assert_eq!(inp[63], out[63]);
    }
}
