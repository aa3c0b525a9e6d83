//! `spmv-ellpack`: sparse matrix-vector multiply, ELLPACK format.
//!
//! MachSuite's second spmv variant: the matrix is stored as dense
//! `n × L` value/column arrays (rows padded to the maximum row length),
//! so the val/cols streams are perfectly regular while the `vec[cols[j]]`
//! gathers stay irregular — a useful contrast with `spmv-crs`, whose row
//! pointers make even the streams data-dependent.

use aladdin_ir::{ArrayKind, Opcode, TVal, Tracer};
use aladdin_rng::SmallRng;

use crate::kernel::Kernel;

/// The `spmv-ellpack` kernel: `n × n` sparse matrix with exactly `l`
/// stored entries per row (zero-padded).
#[derive(Debug, Clone)]
pub struct SpmvEllpack {
    /// Matrix dimension.
    pub n: usize,
    /// Stored entries per row (the ELLPACK width).
    pub l: usize,
    /// Input-generation seed.
    pub seed: u64,
}

impl Default for SpmvEllpack {
    fn default() -> Self {
        // MachSuite uses 494×494 with L=10; 128×128 with L=10 preserves
        // the padded-row structure.
        SpmvEllpack {
            n: 128,
            l: 10,
            seed: 67,
        }
    }
}

impl SpmvEllpack {
    #[allow(clippy::type_complexity)]
    fn inputs(&self) -> (Vec<f64>, Vec<i64>, Vec<f64>) {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut nzval = Vec::with_capacity(self.n * self.l);
        let mut cols = Vec::with_capacity(self.n * self.l);
        for _ in 0..self.n {
            // Random, sorted column picks; duplicates act as padding.
            let mut row: Vec<i64> = (0..self.l)
                .map(|_| rng.gen_range(0..self.n as i64))
                .collect();
            row.sort_unstable();
            for c in row {
                cols.push(c);
                nzval.push(rng.gen_range(-1.0..1.0));
            }
        }
        let vec: Vec<f64> = (0..self.n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        (nzval, cols, vec)
    }
}

impl Kernel for SpmvEllpack {
    fn name(&self) -> &'static str {
        "spmv-ellpack"
    }

    fn description(&self) -> &'static str {
        "ELLPACK sparse matrix-vector product; regular streams, irregular gathers"
    }

    fn trace(&self, t: &mut Tracer) -> Vec<f64> {
        let (nzval_d, cols_d, vec_d) = self.inputs();
        let nzval = t.array_f64("nzval", &nzval_d, ArrayKind::Input);
        let cols = t.array_i32("cols", &cols_d, ArrayKind::Input);
        let vec = t.array_f64("vec", &vec_d, ArrayKind::Input);
        let mut out = t.array_f64("out", &vec![0.0; self.n], ArrayKind::Output);
        for i in 0..self.n {
            t.begin_iteration(i as u32);
            let mut sum = TVal::lit(0.0);
            for j in 0..self.l {
                let si = t.load(&nzval, i * self.l + j);
                let ci = t.load(&cols, i * self.l + j);
                let xi = t.load_indexed(&vec, usize::try_from(ci.v).expect("col"), ci.src);
                let p = t.binop(Opcode::FMul, si, xi);
                sum = t.binop(Opcode::FAdd, sum, p);
            }
            t.store(&mut out, i, sum);
        }
        out.data().to_vec()
    }

    fn reference(&self) -> Vec<f64> {
        let (nzval, cols, vec) = self.inputs();
        let mut out = vec![0.0; self.n];
        for i in 0..self.n {
            let mut sum = 0.0;
            for j in 0..self.l {
                sum += nzval[i * self.l + j] * vec[usize::try_from(cols[i * self.l + j]).unwrap()];
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
        let k = SpmvEllpack {
            n: 16,
            l: 4,
            seed: 9,
        };
        assert_eq!(k.run().outputs, k.reference());
    }

    #[test]
    fn streams_are_regular_but_gathers_are_not() {
        let k = SpmvEllpack::default();
        let run = k.run();
        // nzval loads are strictly sequential (the ELLPACK property).
        let nzval_id = run.trace.arrays()[0].id;
        let addrs: Vec<u64> = run
            .trace
            .nodes()
            .iter()
            .filter_map(|n| n.mem.filter(|m| m.array == nzval_id).map(|m| m.addr))
            .collect();
        assert_eq!(addrs.len(), k.n * k.l);
        assert!(addrs.windows(2).all(|w| w[1] == w[0] + 8));
        assert!(
            run.trace.check().is_clean(),
            "{}",
            run.trace.check().to_human()
        );
    }
}
