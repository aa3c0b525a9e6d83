//! `spmv-crs`: sparse matrix-vector multiply, compressed-row-storage.
//!
//! The defining feature is the *indirect* access `vec[cols[j]]`: the first
//! set of loads provides the addresses for the second. DMA full/empty bits
//! are ineffective (the referenced element may not have arrived yet, since
//! DMA delivers sequentially) while a cache can fetch arbitrary locations
//! on demand — the paper's clearest cache win (Section V-A).

use aladdin_ir::{ArrayKind, Opcode, TVal, Tracer};
use aladdin_rng::SmallRng;

use crate::kernel::Kernel;

/// The `spmv-crs` kernel: `n × n` sparse matrix, ~`nnz_per_row` nonzeros
/// per row, times a dense vector.
#[derive(Debug, Clone)]
pub struct SpmvCrs {
    /// Matrix dimension.
    pub n: usize,
    /// Nonzeros per row.
    pub nnz_per_row: usize,
    /// Input-generation seed.
    pub seed: u64,
}

impl Default for SpmvCrs {
    fn default() -> Self {
        // MachSuite uses 494×494 with 1666 nonzeros; 128×128 with ~10/row
        // (1280 nonzeros) preserves density and the indirection pattern.
        SpmvCrs {
            n: 128,
            nnz_per_row: 10,
            seed: 23,
        }
    }
}

impl SpmvCrs {
    #[allow(clippy::type_complexity)]
    fn inputs(&self) -> (Vec<f64>, Vec<i64>, Vec<i64>, Vec<f64>) {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut vals = Vec::new();
        let mut cols = Vec::new();
        let mut row_delim = vec![0i64];
        for _ in 0..self.n {
            let mut row_cols: Vec<i64> = (0..self.nnz_per_row)
                .map(|_| rng.gen_range(0..self.n as i64))
                .collect();
            row_cols.sort_unstable();
            row_cols.dedup();
            for c in row_cols {
                cols.push(c);
                vals.push(rng.gen_range(-1.0..1.0));
            }
            row_delim.push(cols.len() as i64);
        }
        let vec: Vec<f64> = (0..self.n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        (vals, cols, row_delim, vec)
    }
}

impl Kernel for SpmvCrs {
    fn name(&self) -> &'static str {
        "spmv-crs"
    }

    fn description(&self) -> &'static str {
        "sparse matrix-vector product in CRS form; indirect vec[cols[j]] gathers"
    }

    fn trace(&self, t: &mut Tracer) -> Vec<f64> {
        let (vals_d, cols_d, delim_d, vec_d) = self.inputs();
        let val = t.array_f64("val", &vals_d, ArrayKind::Input);
        let cols = t.array_i32("cols", &cols_d, ArrayKind::Input);
        let delim = t.array_i32("rowDelimiters", &delim_d, ArrayKind::Input);
        let vec = t.array_f64("vec", &vec_d, ArrayKind::Input);
        let mut out = t.array_f64("out", &vec![0.0; self.n], ArrayKind::Output);

        for i in 0..self.n {
            t.begin_iteration(i as u32);
            let start = t.load(&delim, i);
            let end = t.load(&delim, i + 1);
            let mut sum = TVal::lit(0.0);
            for j in start.v as usize..end.v as usize {
                let si = t.load_indexed(&val, j, start.src);
                let ci = t.load_indexed(&cols, j, start.src);
                let xi = t.load_indexed(&vec, usize::try_from(ci.v).unwrap(), ci.src);
                let p = t.binop(Opcode::FMul, si, xi);
                sum = t.binop(Opcode::FAdd, sum, p);
            }
            t.store(&mut out, i, sum);
        }
        out.data().to_vec()
    }

    fn reference(&self) -> Vec<f64> {
        let (vals, cols, delim, vec) = self.inputs();
        let mut out = vec![0.0; self.n];
        for i in 0..self.n {
            let mut sum = 0.0;
            for j in delim[i] as usize..delim[i + 1] as usize {
                sum += vals[j] * vec[usize::try_from(cols[j]).unwrap()];
            }
            out[i] = sum;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_matches_reference() {
        let k = SpmvCrs {
            n: 16,
            nnz_per_row: 4,
            seed: 9,
        };
        assert_eq!(k.run().outputs, k.reference());
    }

    #[test]
    fn gathers_are_scattered() {
        // The vec[] accesses must span a wide address range (not
        // streaming): check that consecutive vec loads are far apart on
        // average.
        let k = SpmvCrs::default();
        let run = k.run();
        let vec_id = run.trace.arrays()[3].id;
        let addrs: Vec<u64> = run
            .trace
            .nodes()
            .iter()
            .filter_map(|n| n.mem.filter(|m| m.array == vec_id).map(|m| m.addr))
            .collect();
        assert!(addrs.len() > 500);
        let jumps = addrs
            .windows(2)
            .filter(|w| w[0].abs_diff(w[1]) > 64)
            .count();
        assert!(
            jumps * 2 > addrs.len(),
            "most consecutive gathers should be >64B apart ({jumps}/{})",
            addrs.len()
        );
    }

    #[test]
    fn rows_have_bounded_nnz() {
        let k = SpmvCrs::default();
        let (_, _, delim, _) = k.inputs();
        for w in delim.windows(2) {
            let nnz = w[1] - w[0];
            assert!(nnz >= 1 && nnz <= k.nnz_per_row as i64);
        }
    }
}
