//! `viterbi`: Viterbi decoding of a hidden Markov model.
//!
//! Dense per-step state updates (FP add + min reductions) with a serial
//! time recurrence — part of the Figure 2b breadth sweep.

use aladdin_ir::{ArrayKind, Opcode, TVal, Tracer};
use aladdin_rng::SmallRng;

use crate::kernel::Kernel;

/// The `viterbi` kernel: `states` HMM states over `steps` observations,
/// in negative-log-likelihood space (min-plus algebra).
#[derive(Debug, Clone)]
pub struct Viterbi {
    /// Number of hidden states.
    pub states: usize,
    /// Number of observation steps.
    pub steps: usize,
    /// Input-generation seed.
    pub seed: u64,
}

impl Default for Viterbi {
    fn default() -> Self {
        // MachSuite uses 64 states × 140 steps; 32 × 24 preserves the
        // dense inner product structure.
        Viterbi {
            states: 32,
            steps: 24,
            seed: 53,
        }
    }
}

impl Viterbi {
    #[allow(clippy::type_complexity)]
    fn inputs(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<i64>) {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let n = self.states;
        let init: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..5.0)).collect();
        let transition: Vec<f64> = (0..n * n).map(|_| rng.gen_range(0.1..5.0)).collect();
        let emission: Vec<f64> = (0..n * 64).map(|_| rng.gen_range(0.1..5.0)).collect();
        let obs: Vec<i64> = (0..self.steps).map(|_| rng.gen_range(0..64)).collect();
        (init, transition, emission, obs)
    }

    fn decode(&self) -> Vec<f64> {
        let (init, trans, emit, obs) = self.inputs();
        let n = self.states;
        let mut llike = vec![vec![0.0f64; n]; self.steps];
        for s in 0..n {
            llike[0][s] = init[s] + emit[s * 64 + obs[0] as usize];
        }
        for t in 1..self.steps {
            for curr in 0..n {
                let mut min = f64::INFINITY;
                for prev in 0..n {
                    let p = llike[t - 1][prev] + trans[prev * n + curr];
                    if p < min {
                        min = p;
                    }
                }
                llike[t][curr] = min + emit[curr * 64 + obs[t] as usize];
            }
        }
        // Final-step likelihoods are the output.
        llike[self.steps - 1].clone()
    }
}

impl Kernel for Viterbi {
    fn name(&self) -> &'static str {
        "viterbi"
    }

    fn description(&self) -> &'static str {
        "Viterbi HMM decoding in min-plus space; serial time recurrence"
    }

    fn trace(&self, t: &mut Tracer) -> Vec<f64> {
        let (init_d, trans_d, emit_d, obs_d) = self.inputs();
        let n = self.states;
        let init = t.array_f64("init", &init_d, ArrayKind::Input);
        let trans = t.array_f64("transition", &trans_d, ArrayKind::Input);
        let emit = t.array_f64("emission", &emit_d, ArrayKind::Input);
        let obs = t.array_i32("obs", &obs_d, ArrayKind::Input);
        let mut llike = t.array_f64("llike", &vec![0.0; self.steps * n], ArrayKind::Internal);
        let mut out = t.array_f64("out", &vec![0.0; n], ArrayKind::Output);

        let o0 = t.load(&obs, 0);
        for s in 0..n {
            t.begin_iteration(s as u32);
            let i = t.load(&init, s);
            let e = t.load_indexed(&emit, s * 64 + o0.v as usize, o0.src);
            let v = t.binop(Opcode::FAdd, i, e);
            t.store(&mut llike, s, v);
        }
        for step in 1..self.steps {
            let ot = t.load(&obs, step);
            for curr in 0..n {
                t.begin_iteration(curr as u32);
                let mut min: Option<TVal<f64>> = None;
                for prev in 0..n {
                    let l = t.load(&llike, (step - 1) * n + prev);
                    let tr = t.load(&trans, prev * n + curr);
                    let p = t.binop(Opcode::FAdd, l, tr);
                    min = Some(match min {
                        None => p,
                        Some(m) => {
                            let lt = t.fcmp_lt(p, m);
                            t.select(lt, p, m)
                        }
                    });
                }
                let e = t.load_indexed(&emit, curr * 64 + ot.v as usize, ot.src);
                let v = t.binop(Opcode::FAdd, min.expect("states > 0"), e);
                t.store(&mut llike, step * n + curr, v);
            }
        }
        for s in 0..n {
            t.begin_iteration(s as u32);
            let v = t.load(&llike, (self.steps - 1) * n + s);
            t.store(&mut out, s, v);
        }

        out.data().to_vec()
    }

    fn reference(&self) -> Vec<f64> {
        self.decode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_matches_reference() {
        let k = Viterbi {
            states: 8,
            steps: 5,
            seed: 3,
        };
        assert_eq!(k.run().outputs, k.reference());
    }

    #[test]
    fn likelihoods_grow_with_steps() {
        // In min-plus space, accumulating positive costs grows the result.
        let short = Viterbi {
            steps: 4,
            ..Viterbi::default()
        };
        let long = Viterbi {
            steps: 20,
            ..Viterbi::default()
        };
        let s: f64 = short.reference().iter().sum();
        let l: f64 = long.reference().iter().sum();
        assert!(l > s);
    }
}
