//! `fft-transpose`: one radix-8 stage of a 512-point FFT.
//!
//! The transposed formulation gives each work unit eight loads *strided by
//! 64 elements (512 bytes)* across the whole input array — not streaming
//! at all. Even with full/empty bits, DMA must deliver nearly the entire
//! array before the first work unit can run, whereas a cache fetches the
//! eight lines it needs; this is the paper's strongest case for caches
//! without any indirection (Section V-A).

use aladdin_ir::{ArrayKind, Opcode, TVal, Tracer};
use aladdin_rng::SmallRng;

use crate::kernel::Kernel;

/// The `fft-transpose` kernel: `units` work units, each an 8-point FFT
/// over elements strided by `units`.
#[derive(Debug, Clone)]
pub struct FftTranspose {
    /// Number of work units (the stride, in elements). Total points =
    /// `8 × units`.
    pub units: usize,
    /// Input-generation seed.
    pub seed: u64,
}

impl Default for FftTranspose {
    fn default() -> Self {
        // 64 units × 8 points = 512 points, stride 64 × 8 B = 512 B:
        // MachSuite's exact geometry.
        FftTranspose {
            units: 64,
            seed: 29,
        }
    }
}

/// Twiddle factors `exp(-2πi·j/len)` for the DIF stages of an 8-point FFT.
const W8: [(f64, f64); 4] = [
    (1.0, 0.0),
    (
        std::f64::consts::FRAC_1_SQRT_2,
        -std::f64::consts::FRAC_1_SQRT_2,
    ),
    (0.0, -1.0),
    (
        -std::f64::consts::FRAC_1_SQRT_2,
        -std::f64::consts::FRAC_1_SQRT_2,
    ),
];
const W4: [(f64, f64); 2] = [(1.0, 0.0), (0.0, -1.0)];

impl FftTranspose {
    fn inputs(&self) -> (Vec<f64>, Vec<f64>) {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let n = self.units * 8;
        let re = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let im = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        (re, im)
    }

    /// Untraced 8-point DIF FFT (output bit-reversed, consistent with the
    /// traced version).
    fn fft8(re: &mut [f64; 8], im: &mut [f64; 8]) {
        for (len, tw) in [(8usize, &W8[..]), (4, &W4[..]), (2, &W4[..1])] {
            let half = len / 2;
            for start in (0..8).step_by(len) {
                for j in 0..half {
                    let (wr, wi) = tw[j];
                    let (ur, ui) = (re[start + j], im[start + j]);
                    let (vr, vi) = (re[start + j + half], im[start + j + half]);
                    re[start + j] = ur + vr;
                    im[start + j] = ui + vi;
                    let (dr, di) = (ur - vr, ui - vi);
                    re[start + j + half] = dr * wr - di * wi;
                    im[start + j + half] = dr * wi + di * wr;
                }
            }
        }
    }

    /// Traced 8-point DIF FFT over traced values.
    fn fft8_traced(t: &mut Tracer, re: &mut [TVal<f64>; 8], im: &mut [TVal<f64>; 8]) {
        for (len, tw) in [(8usize, &W8[..]), (4, &W4[..]), (2, &W4[..1])] {
            let half = len / 2;
            for start in (0..8).step_by(len) {
                for j in 0..half {
                    let (wr, wi) = tw[j];
                    let (ur, ui) = (re[start + j], im[start + j]);
                    let (vr, vi) = (re[start + j + half], im[start + j + half]);
                    re[start + j] = t.binop(Opcode::FAdd, ur, vr);
                    im[start + j] = t.binop(Opcode::FAdd, ui, vi);
                    let dr = t.binop(Opcode::FSub, ur, vr);
                    let di = t.binop(Opcode::FSub, ui, vi);
                    if (wr, wi) == (1.0, 0.0) {
                        re[start + j + half] = dr;
                        im[start + j + half] = di;
                    } else {
                        let a = t.binop(Opcode::FMul, dr, TVal::lit(wr));
                        let b = t.binop(Opcode::FMul, di, TVal::lit(wi));
                        let c = t.binop(Opcode::FMul, dr, TVal::lit(wi));
                        let d = t.binop(Opcode::FMul, di, TVal::lit(wr));
                        re[start + j + half] = t.binop(Opcode::FSub, a, b);
                        im[start + j + half] = t.binop(Opcode::FAdd, c, d);
                    }
                }
            }
        }
    }
}

impl Kernel for FftTranspose {
    fn name(&self) -> &'static str {
        "fft-transpose"
    }

    fn description(&self) -> &'static str {
        "radix-8 FFT stage; eight 512-byte-strided loads per work unit"
    }

    fn trace(&self, t: &mut Tracer) -> Vec<f64> {
        let (re_d, im_d) = self.inputs();
        let mut xr = t.array_f64("work_x", &re_d, ArrayKind::InOut);
        let mut xi = t.array_f64("work_y", &im_d, ArrayKind::InOut);
        for u in 0..self.units {
            t.begin_iteration(u as u32);
            let mut re: [TVal<f64>; 8] = [TVal::lit(0.0); 8];
            let mut im: [TVal<f64>; 8] = [TVal::lit(0.0); 8];
            for k in 0..8 {
                re[k] = t.load(&xr, u + k * self.units);
                im[k] = t.load(&xi, u + k * self.units);
            }
            Self::fft8_traced(t, &mut re, &mut im);
            for k in 0..8 {
                t.store(&mut xr, u + k * self.units, re[k]);
                t.store(&mut xi, u + k * self.units, im[k]);
            }
        }
        let mut outputs = xr.data().to_vec();
        outputs.extend_from_slice(xi.data());
        outputs
    }

    fn reference(&self) -> Vec<f64> {
        let (mut re_all, mut im_all) = self.inputs();
        for u in 0..self.units {
            let mut re = [0.0; 8];
            let mut im = [0.0; 8];
            for k in 0..8 {
                re[k] = re_all[u + k * self.units];
                im[k] = im_all[u + k * self.units];
            }
            Self::fft8(&mut re, &mut im);
            for k in 0..8 {
                re_all[u + k * self.units] = re[k];
                im_all[u + k * self.units] = im[k];
            }
        }
        let mut out = re_all;
        out.extend_from_slice(&im_all);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_matches_reference() {
        let k = FftTranspose { units: 8, seed: 4 };
        assert_eq!(k.run().outputs, k.reference());
    }

    #[test]
    fn fft8_against_naive_dft() {
        // Validate the butterfly network against a direct DFT.
        let mut re = [1.0, 2.0, -1.0, 0.5, 0.0, -2.0, 3.0, 1.5];
        let mut im = [0.0, 1.0, 0.5, -0.5, 2.0, 0.0, -1.0, 0.25];
        let (re0, im0) = (re, im);
        FftTranspose::fft8(&mut re, &mut im);
        // DIF without reordering leaves results bit-reversed.
        let bitrev = [0usize, 4, 2, 6, 1, 5, 3, 7];
        for (k, &kk) in bitrev.iter().enumerate() {
            let mut sr = 0.0;
            let mut si = 0.0;
            for n in 0..8 {
                let ang = -2.0 * std::f64::consts::PI * (k * n) as f64 / 8.0;
                sr += re0[n] * ang.cos() - im0[n] * ang.sin();
                si += re0[n] * ang.sin() + im0[n] * ang.cos();
            }
            assert!((re[kk] - sr).abs() < 1e-9, "re[{k}]: {} vs {sr}", re[kk]);
            assert!((im[kk] - si).abs() < 1e-9, "im[{k}]: {} vs {si}", im[kk]);
        }
    }

    #[test]
    fn loads_are_512_byte_strided() {
        let k = FftTranspose::default();
        let run = k.run();
        let xr_id = run.trace.arrays()[0].id;
        // Within one iteration, successive work_x loads are 512 B apart.
        let first_iter_loads: Vec<u64> = run
            .trace
            .nodes()
            .iter()
            .filter(|n| n.iteration == 0)
            .filter_map(|n| n.mem.filter(|m| m.array == xr_id))
            .filter(|m| m.kind == aladdin_ir::MemAccessKind::Read)
            .map(|m| m.addr)
            .collect();
        assert_eq!(first_iter_loads.len(), 8);
        for w in first_iter_loads.windows(2) {
            assert_eq!(w[1] - w[0], 512);
        }
    }
}
