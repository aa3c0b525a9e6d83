//! `md-grid`: molecular dynamics with cell lists.
//!
//! MachSuite's second MD variant: space is partitioned into a 3-D grid of
//! cells holding up to `density` particles each; forces are computed
//! between particles in neighboring cells. Compared with `md-knn` the
//! access pattern is blocked (cell-local arrays indexed by a counter
//! array) rather than gather-by-neighbor-list.

use aladdin_ir::{ArrayKind, Opcode, TVal, Tracer};
use aladdin_rng::SmallRng;

use crate::kernel::Kernel;

const LJ1: f64 = 1.5;
const LJ2: f64 = 2.0;

/// The `md-grid` kernel: a `b × b × b` cell grid with up to `density`
/// particles per cell.
#[derive(Debug, Clone)]
pub struct MdGrid {
    /// Grid edge length in cells.
    pub b: usize,
    /// Particle slots per cell.
    pub density: usize,
    /// Input-generation seed.
    pub seed: u64,
}

impl Default for MdGrid {
    fn default() -> Self {
        // MachSuite uses 4^3 cells × 10 slots; 4^3 × 4 preserves the
        // neighbor-cell sweep at lower interaction count.
        MdGrid {
            b: 4,
            density: 4,
            seed: 71,
        }
    }
}

impl MdGrid {
    fn cells(&self) -> usize {
        self.b * self.b * self.b
    }

    fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        (x * self.b + y) * self.b + z
    }

    /// (n_points per cell, positions[cell][slot][xyz] flattened)
    fn inputs(&self) -> (Vec<i64>, Vec<f64>) {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let n_points: Vec<i64> = (0..self.cells())
            .map(|_| rng.gen_range(1..=self.density as i64))
            .collect();
        let pos: Vec<f64> = (0..self.cells() * self.density * 3)
            .map(|_| rng.gen_range(0.5..3.5))
            .collect();
        (n_points, pos)
    }

    fn force(d: [f64; 3]) -> f64 {
        let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        let r2inv = 1.0 / r2;
        let r6inv = r2inv * r2inv * r2inv;
        r2inv * (r6inv * (LJ1 * r6inv - LJ2))
    }
}

impl Kernel for MdGrid {
    fn name(&self) -> &'static str {
        "md-grid"
    }

    fn description(&self) -> &'static str {
        "cell-list molecular dynamics; blocked neighbor-cell sweeps"
    }

    #[allow(clippy::too_many_lines)]
    fn trace(&self, t: &mut Tracer) -> Vec<f64> {
        let (np_d, pos_d) = self.inputs();
        let b = self.b;
        let d = self.density;
        let n_points = t.array_i32("n_points", &np_d, ArrayKind::Input);
        let pos = t.array_f64("position", &pos_d, ArrayKind::Input);
        let mut force = t.array_f64("force", &vec![0.0; self.cells() * d * 3], ArrayKind::Output);

        let mut iter = 0u32;
        for x in 0..b {
            for y in 0..b {
                for z in 0..b {
                    let home = self.idx(x, y, z);
                    let np_home = t.load(&n_points, home);
                    for slot in 0..np_d[home] as usize {
                        t.begin_iteration(iter);
                        iter += 1;
                        let base = (home * d + slot) * 3;
                        let px = t.load(&pos, base);
                        let py = t.load(&pos, base + 1);
                        let pz = t.load(&pos, base + 2);
                        let mut acc = TVal::lit(0.0);
                        // Sweep face-adjacent neighbor cells (±1 in each
                        // axis, clamped at the boundary) plus home.
                        for (dx, dy, dz) in [
                            (0i64, 0i64, 0i64),
                            (-1, 0, 0),
                            (1, 0, 0),
                            (0, -1, 0),
                            (0, 1, 0),
                            (0, 0, -1),
                            (0, 0, 1),
                        ] {
                            let nx = x as i64 + dx;
                            let ny = y as i64 + dy;
                            let nz = z as i64 + dz;
                            if !(0..b as i64).contains(&nx)
                                || !(0..b as i64).contains(&ny)
                                || !(0..b as i64).contains(&nz)
                            {
                                continue;
                            }
                            let ncell = self.idx(nx as usize, ny as usize, nz as usize);
                            let np_n = t.load(&n_points, ncell);
                            for oslot in 0..np_d[ncell] as usize {
                                if ncell == home && oslot == slot {
                                    continue;
                                }
                                let obase = (ncell * d + oslot) * 3;
                                let qx = t.load_indexed(&pos, obase, np_n.src);
                                let qy = t.load_indexed(&pos, obase + 1, np_n.src);
                                let qz = t.load_indexed(&pos, obase + 2, np_n.src);
                                let ddx = t.binop(Opcode::FSub, px, qx);
                                let ddy = t.binop(Opcode::FSub, py, qy);
                                let ddz = t.binop(Opcode::FSub, pz, qz);
                                let x2 = t.binop(Opcode::FMul, ddx, ddx);
                                let y2 = t.binop(Opcode::FMul, ddy, ddy);
                                let z2 = t.binop(Opcode::FMul, ddz, ddz);
                                let s = t.binop(Opcode::FAdd, x2, y2);
                                let r2 = t.binop(Opcode::FAdd, s, z2);
                                let r2inv = t.binop(Opcode::FDiv, TVal::lit(1.0), r2);
                                let r4 = t.binop(Opcode::FMul, r2inv, r2inv);
                                let r6 = t.binop(Opcode::FMul, r4, r2inv);
                                let lj = t.binop(Opcode::FMul, TVal::lit(LJ1), r6);
                                let inner = t.binop(Opcode::FSub, lj, TVal::lit(LJ2));
                                let pot = t.binop(Opcode::FMul, r6, inner);
                                let f = t.binop(Opcode::FMul, r2inv, pot);
                                acc = t.binop(Opcode::FAdd, acc, f);
                            }
                        }
                        let _ = np_home;
                        t.store(&mut force, base, acc);
                    }
                }
            }
        }
        force.data().to_vec()
    }

    fn reference(&self) -> Vec<f64> {
        let (np, pos) = self.inputs();
        let b = self.b;
        let d = self.density;
        let mut force = vec![0.0; self.cells() * d * 3];
        for x in 0..b {
            for y in 0..b {
                for z in 0..b {
                    let home = self.idx(x, y, z);
                    for slot in 0..np[home] as usize {
                        let base = (home * d + slot) * 3;
                        let p = [pos[base], pos[base + 1], pos[base + 2]];
                        let mut acc = 0.0;
                        for (dx, dy, dz) in [
                            (0i64, 0i64, 0i64),
                            (-1, 0, 0),
                            (1, 0, 0),
                            (0, -1, 0),
                            (0, 1, 0),
                            (0, 0, -1),
                            (0, 0, 1),
                        ] {
                            let nx = x as i64 + dx;
                            let ny = y as i64 + dy;
                            let nz = z as i64 + dz;
                            if !(0..b as i64).contains(&nx)
                                || !(0..b as i64).contains(&ny)
                                || !(0..b as i64).contains(&nz)
                            {
                                continue;
                            }
                            let ncell = self.idx(nx as usize, ny as usize, nz as usize);
                            for oslot in 0..np[ncell] as usize {
                                if ncell == home && oslot == slot {
                                    continue;
                                }
                                let obase = (ncell * d + oslot) * 3;
                                let q = [pos[obase], pos[obase + 1], pos[obase + 2]];
                                acc += Self::force([p[0] - q[0], p[1] - q[1], p[2] - q[2]]);
                            }
                        }
                        force[base] = acc;
                    }
                }
            }
        }
        force
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_matches_reference() {
        let k = MdGrid {
            b: 2,
            density: 3,
            seed: 4,
        };
        assert_eq!(k.run().outputs, k.reference());
    }

    #[test]
    fn default_runs_and_is_fp_heavy() {
        let k = MdGrid::default();
        let run = k.run();
        assert_eq!(run.outputs, k.reference());
        let s = run.trace.stats();
        use aladdin_ir::FuClass;
        assert!(s.class(FuClass::FpMul) > s.loads / 2);
        assert!(
            run.trace.check().is_clean(),
            "{}",
            run.trace.check().to_human()
        );
    }

    #[test]
    fn interior_cells_have_seven_neighbor_sweeps() {
        // Sanity on geometry: corner cells see 4 cells (home + 3), interior
        // see 7. With b=4, cell (1,1,1) is interior.
        let k = MdGrid::default();
        assert_eq!(k.idx(1, 1, 1), 21);
        assert_eq!(k.cells(), 64);
    }
}
