//! `bfs-bulk`: level-synchronized breadth-first search over a CSR graph.
//!
//! Irregular, data-dependent edge gathers — part of the Figure 2b breadth
//! sweep of MachSuite.

use aladdin_ir::{ArrayKind, TVal, Tracer};
use aladdin_rng::SmallRng;

use crate::kernel::Kernel;

const MAX_LEVEL: i64 = 127;

/// The `bfs-bulk` kernel over `nodes` vertices with ~`degree` edges each.
#[derive(Debug, Clone)]
pub struct BfsBulk {
    /// Vertex count.
    pub nodes: usize,
    /// Average out-degree.
    pub degree: usize,
    /// Input-generation seed.
    pub seed: u64,
}

impl Default for BfsBulk {
    fn default() -> Self {
        // MachSuite uses 256 nodes / 4096 edges; 256 × 4 preserves the
        // irregular gather pattern at lower edge count.
        BfsBulk {
            nodes: 256,
            degree: 4,
            seed: 41,
        }
    }
}

impl BfsBulk {
    /// CSR arrays: (edge_begin[n+1], edge_dst[e]).
    fn graph(&self) -> (Vec<i64>, Vec<i64>) {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut begin = vec![0i64];
        let mut dst = Vec::new();
        for _ in 0..self.nodes {
            let d = rng.gen_range(1..=self.degree * 2);
            for _ in 0..d {
                dst.push(rng.gen_range(0..self.nodes as i64));
            }
            begin.push(dst.len() as i64);
        }
        (begin, dst)
    }

    fn bfs(&self, begin: &[i64], dst: &[i64]) -> Vec<i64> {
        let mut level = vec![MAX_LEVEL; self.nodes];
        level[0] = 0;
        for horizon in 0..self.nodes as i64 {
            let mut changed = false;
            for v in 0..self.nodes {
                if level[v] == horizon {
                    #[allow(clippy::needless_range_loop)] // mirrors the CSR C loop
                    for e in begin[v] as usize..begin[v + 1] as usize {
                        let w = dst[e] as usize;
                        if level[w] == MAX_LEVEL {
                            level[w] = horizon + 1;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        level
    }
}

impl Kernel for BfsBulk {
    fn name(&self) -> &'static str {
        "bfs-bulk"
    }

    fn description(&self) -> &'static str {
        "level-synchronized BFS on a CSR graph; data-dependent gathers"
    }

    fn trace(&self, t: &mut Tracer) -> Vec<f64> {
        let (begin_d, dst_d) = self.graph();
        let ref_levels = self.bfs(&begin_d, &dst_d);
        let begin = t.array_i32("nodes", &begin_d, ArrayKind::Input);
        let dst = t.array_i32("edges", &dst_d, ArrayKind::Input);
        let mut level = t.array_i32("level", &vec![MAX_LEVEL; self.nodes], ArrayKind::Output);
        t.store(&mut level, 0, TVal::lit(0));

        let mut iter = 0u32;
        for horizon in 0..self.nodes as i64 {
            let mut changed = false;
            for v in 0..self.nodes {
                t.begin_iteration(iter % 4096);
                iter += 1;
                let lv = t.load(&level, v);
                let at_horizon = t.icmp_eq(lv, TVal::lit(horizon));
                if !at_horizon.v {
                    continue;
                }
                let b = t.load(&begin, v);
                let e = t.load(&begin, v + 1);
                for ei in b.v as usize..e.v as usize {
                    let w = t.load_indexed(&dst, ei, b.src);
                    let wi = usize::try_from(w.v).expect("vertex");
                    let lw = t.load_indexed(&level, wi, w.src);
                    let unvisited = t.icmp_eq(lw, TVal::lit(MAX_LEVEL));
                    if unvisited.v {
                        let nl = t.select(
                            unvisited,
                            TVal::lit(horizon + 1),
                            TVal {
                                v: lw.v,
                                src: lw.src,
                            },
                        );
                        t.store_indexed(&mut level, wi, nl, w.src);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        debug_assert_eq!(level.data(), &ref_levels);
        level.data().iter().map(|&v| v as f64).collect()
    }

    fn reference(&self) -> Vec<f64> {
        let (begin, dst) = self.graph();
        self.bfs(&begin, &dst).iter().map(|&v| v as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_matches_reference() {
        let k = BfsBulk {
            nodes: 32,
            degree: 3,
            seed: 8,
        };
        assert_eq!(k.run().outputs, k.reference());
    }

    #[test]
    fn all_reachable_from_dense_graph() {
        let k = BfsBulk::default();
        let out = k.reference();
        let reached = out
            .iter()
            .filter(|&&l| l < f64::from(MAX_LEVEL as i32))
            .count();
        assert!(reached > k.nodes / 2, "most vertices reachable: {reached}");
    }
}
