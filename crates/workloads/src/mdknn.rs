//! `md-knn`: molecular dynamics, k-nearest-neighbor force computation.
//!
//! For each atom, forces are accumulated over a fixed-size neighbor list
//! (indirect accesses into the position arrays). With ~12 FP multiplies
//! per interaction the kernel is compute-dominated, and its neighbor
//! lists are built from spatially-local atoms, so DMA full/empty bits are
//! extremely effective — the paper reaches 99% compute/DMA overlap with
//! only four lanes (Section IV-C1).

use aladdin_ir::{ArrayKind, Opcode, TVal, Tracer};
use aladdin_rng::SmallRng;

use crate::kernel::Kernel;

/// The `md-knn` kernel: `atoms` atoms × `neighbors` neighbors each.
#[derive(Debug, Clone)]
pub struct MdKnn {
    /// Number of atoms.
    pub atoms: usize,
    /// Neighbors per atom.
    pub neighbors: usize,
    /// Input-generation seed.
    pub seed: u64,
}

impl Default for MdKnn {
    fn default() -> Self {
        // MachSuite uses 256 atoms × 16 neighbors; 64×16 preserves the
        // indirect-but-local access pattern.
        MdKnn {
            atoms: 64,
            neighbors: 16,
            seed: 17,
        }
    }
}

const LJ1: f64 = 1.5;
const LJ2: f64 = 2.0;

impl MdKnn {
    #[allow(clippy::type_complexity)]
    fn inputs(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<i64>) {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let coords = |rng: &mut SmallRng| {
            (0..self.atoms)
                .map(|_| rng.gen_range(-10.0..10.0))
                .collect::<Vec<f64>>()
        };
        let (x, y, z) = (coords(&mut rng), coords(&mut rng), coords(&mut rng));
        // Neighbor lists pick nearby indices (mod atoms), mimicking the
        // spatial locality MachSuite's input generator produces.
        let mut nl = Vec::with_capacity(self.atoms * self.neighbors);
        for i in 0..self.atoms {
            for _ in 0..self.neighbors {
                let delta = rng.gen_range(1..=(self.atoms / 4).max(2)) as i64;
                nl.push(((i as i64 + delta) % self.atoms as i64).abs());
            }
        }
        (x, y, z, nl)
    }

    fn force(xi: f64, yi: f64, zi: f64, xj: f64, yj: f64, zj: f64) -> (f64, f64, f64) {
        let delx = xi - xj;
        let dely = yi - yj;
        let delz = zi - zj;
        let r2 = delx * delx + dely * dely + delz * delz;
        let r2inv = 1.0 / r2;
        let r6inv = r2inv * r2inv * r2inv;
        let potential = r6inv * (LJ1 * r6inv - LJ2);
        let force = r2inv * potential;
        (delx * force, dely * force, delz * force)
    }
}

impl Kernel for MdKnn {
    fn name(&self) -> &'static str {
        "md-knn"
    }

    fn description(&self) -> &'static str {
        "Lennard-Jones forces over per-atom neighbor lists; FP-multiply dominated"
    }

    fn trace(&self, t: &mut Tracer) -> Vec<f64> {
        let (xd, yd, zd, nld) = self.inputs();
        let x = t.array_f64("position_x", &xd, ArrayKind::Input);
        let y = t.array_f64("position_y", &yd, ArrayKind::Input);
        let z = t.array_f64("position_z", &zd, ArrayKind::Input);
        let nl = t.array_i32("NL", &nld, ArrayKind::Input);
        let mut fx = t.array_f64("force_x", &vec![0.0; self.atoms], ArrayKind::Output);
        let mut fy = t.array_f64("force_y", &vec![0.0; self.atoms], ArrayKind::Output);
        let mut fz = t.array_f64("force_z", &vec![0.0; self.atoms], ArrayKind::Output);

        let mut iter = 0u32;
        for i in 0..self.atoms {
            t.begin_iteration(iter);
            let xi = t.load(&x, i);
            let yi = t.load(&y, i);
            let zi = t.load(&z, i);
            let mut afx = TVal::lit(0.0);
            let mut afy = TVal::lit(0.0);
            let mut afz = TVal::lit(0.0);
            for jj in 0..self.neighbors {
                t.begin_iteration(iter);
                iter += 1;
                let jv = t.load(&nl, i * self.neighbors + jj);
                let j = usize::try_from(jv.v).expect("valid neighbor index");
                let xj = t.load_indexed(&x, j, jv.src);
                let yj = t.load_indexed(&y, j, jv.src);
                let zj = t.load_indexed(&z, j, jv.src);
                let delx = t.binop(Opcode::FSub, xi, xj);
                let dely = t.binop(Opcode::FSub, yi, yj);
                let delz = t.binop(Opcode::FSub, zi, zj);
                let dx2 = t.binop(Opcode::FMul, delx, delx);
                let dy2 = t.binop(Opcode::FMul, dely, dely);
                let dz2 = t.binop(Opcode::FMul, delz, delz);
                let s = t.binop(Opcode::FAdd, dx2, dy2);
                let r2 = t.binop(Opcode::FAdd, s, dz2);
                let r2inv = t.binop(Opcode::FDiv, TVal::lit(1.0), r2);
                let r4 = t.binop(Opcode::FMul, r2inv, r2inv);
                let r6inv = t.binop(Opcode::FMul, r4, r2inv);
                let lj = t.binop(Opcode::FMul, TVal::lit(LJ1), r6inv);
                let inner = t.binop(Opcode::FSub, lj, TVal::lit(LJ2));
                let potential = t.binop(Opcode::FMul, r6inv, inner);
                let force = t.binop(Opcode::FMul, r2inv, potential);
                let px = t.binop(Opcode::FMul, delx, force);
                let py = t.binop(Opcode::FMul, dely, force);
                let pz = t.binop(Opcode::FMul, delz, force);
                afx = t.binop(Opcode::FAdd, afx, px);
                afy = t.binop(Opcode::FAdd, afy, py);
                afz = t.binop(Opcode::FAdd, afz, pz);
            }
            t.store(&mut fx, i, afx);
            t.store(&mut fy, i, afy);
            t.store(&mut fz, i, afz);
        }
        let mut outputs = fx.data().to_vec();
        outputs.extend_from_slice(fy.data());
        outputs.extend_from_slice(fz.data());
        outputs
    }

    fn reference(&self) -> Vec<f64> {
        let (x, y, z, nl) = self.inputs();
        let mut fx = vec![0.0; self.atoms];
        let mut fy = vec![0.0; self.atoms];
        let mut fz = vec![0.0; self.atoms];
        for i in 0..self.atoms {
            for jj in 0..self.neighbors {
                let j = usize::try_from(nl[i * self.neighbors + jj]).unwrap();
                let (px, py, pz) = Self::force(x[i], y[i], z[i], x[j], y[j], z[j]);
                fx[i] += px;
                fy[i] += py;
                fz[i] += pz;
            }
        }
        let mut out = fx;
        out.extend_from_slice(&fy);
        out.extend_from_slice(&fz);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_matches_reference() {
        let k = MdKnn {
            atoms: 8,
            neighbors: 4,
            seed: 5,
        };
        assert_eq!(k.run().outputs, k.reference());
    }

    #[test]
    fn trace_is_fp_multiply_dominated() {
        let k = MdKnn::default();
        let run = k.run();
        let s = run.trace.stats();
        use aladdin_ir::FuClass;
        assert!(
            s.class(FuClass::FpMul) > s.loads,
            "md-knn should be compute-bound: {} muls vs {} loads",
            s.class(FuClass::FpMul),
            s.loads
        );
        assert!(
            run.trace.check().is_clean(),
            "{}",
            run.trace.check().to_human()
        );
    }

    #[test]
    fn indirect_loads_depend_on_neighbor_index() {
        let k = MdKnn {
            atoms: 8,
            neighbors: 2,
            seed: 5,
        };
        let run = k.run();
        // Find a load into position_x that carries a dependence on an NL
        // load (array index 3 is NL, 0 is position_x).
        let nl_id = run.trace.arrays()[3].id;
        let x_id = run.trace.arrays()[0].id;
        let has_indirect = run.trace.nodes().iter().any(|n| {
            n.mem.is_some_and(|m| m.array == x_id)
                && n.deps
                    .iter()
                    .any(|d| run.trace.node(*d).mem.is_some_and(|m| m.array == nl_id))
        });
        assert!(has_indirect, "position loads must depend on NL loads");
    }
}
