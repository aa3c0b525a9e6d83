//! `nw-nw`: Needleman-Wunsch global sequence alignment.
//!
//! Row-major dynamic-programming fill with left/up/diagonal dependences —
//! effectively serial, so added datapath lanes buy nothing (the paper's
//! example of a kernel "so serial [it doesn't] benefit from data
//! parallelism", Section IV-C2). The score matrix is private intermediate
//! state and stays in a local scratchpad even for cache-based designs
//! (Section IV-D).

use aladdin_ir::{ArrayKind, Opcode, TVal, Tracer};
use aladdin_rng::SmallRng;

use crate::kernel::Kernel;

const MATCH: i64 = 1;
const MISMATCH: i64 = -1;
const GAP: i64 = -1;
const GAP_CHAR: i64 = b'-' as i64;

/// The `nw-nw` kernel aligning two length-`seq_len` sequences.
#[derive(Debug, Clone)]
pub struct NeedlemanWunsch {
    /// Sequence length.
    pub seq_len: usize,
    /// Input-generation seed.
    pub seed: u64,
}

impl Default for NeedlemanWunsch {
    fn default() -> Self {
        // MachSuite aligns 128-char sequences; 64 keeps the (len+1)²
        // scratchpad matrix sweep-friendly.
        NeedlemanWunsch {
            seq_len: 64,
            seed: 31,
        }
    }
}

impl NeedlemanWunsch {
    fn inputs(&self) -> (Vec<i64>, Vec<i64>) {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let bases = [b'A' as i64, b'C' as i64, b'G' as i64, b'T' as i64];
        let gen = |rng: &mut SmallRng| {
            (0..self.seq_len)
                .map(|_| bases[rng.gen_range(0..4usize)])
                .collect::<Vec<i64>>()
        };
        (gen(&mut rng), gen(&mut rng))
    }

    /// Untraced fill + traceback; returns (alignedA, alignedB).
    fn align(&self, a: &[i64], b: &[i64]) -> (Vec<i64>, Vec<i64>) {
        let l = self.seq_len;
        let w = l + 1;
        let mut m = vec![0i64; w * w];
        for i in 0..=l {
            m[i * w] = GAP * i as i64;
            m[i] = GAP * i as i64;
        }
        for i in 1..=l {
            for j in 1..=l {
                let s = if a[i - 1] == b[j - 1] {
                    MATCH
                } else {
                    MISMATCH
                };
                let diag = m[(i - 1) * w + j - 1] + s;
                let up = m[(i - 1) * w + j] + GAP;
                let left = m[i * w + j - 1] + GAP;
                m[i * w + j] = diag.max(up).max(left);
            }
        }
        let mut aa = vec![0i64; 2 * l];
        let mut ab = vec![0i64; 2 * l];
        let (mut i, mut j) = (l, l);
        let mut pos = 0;
        while i > 0 && j > 0 {
            let s = if a[i - 1] == b[j - 1] {
                MATCH
            } else {
                MISMATCH
            };
            if m[i * w + j] == m[(i - 1) * w + j - 1] + s {
                aa[pos] = a[i - 1];
                ab[pos] = b[j - 1];
                i -= 1;
                j -= 1;
            } else if m[i * w + j] == m[(i - 1) * w + j] + GAP {
                aa[pos] = a[i - 1];
                ab[pos] = GAP_CHAR;
                i -= 1;
            } else {
                aa[pos] = GAP_CHAR;
                ab[pos] = b[j - 1];
                j -= 1;
            }
            pos += 1;
        }
        while i > 0 {
            aa[pos] = a[i - 1];
            ab[pos] = GAP_CHAR;
            i -= 1;
            pos += 1;
        }
        while j > 0 {
            aa[pos] = GAP_CHAR;
            ab[pos] = b[j - 1];
            j -= 1;
            pos += 1;
        }
        (aa, ab)
    }
}

impl Kernel for NeedlemanWunsch {
    fn name(&self) -> &'static str {
        "nw-nw"
    }

    fn description(&self) -> &'static str {
        "DP sequence alignment; serial row-major fill, scratchpad-resident matrix"
    }

    fn trace(&self, t: &mut Tracer) -> Vec<f64> {
        let l = self.seq_len;
        let w = l + 1;
        let (seqa_d, seqb_d) = self.inputs();
        let seqa = t.array_i32("seqA", &seqa_d, ArrayKind::Input);
        let seqb = t.array_i32("seqB", &seqb_d, ArrayKind::Input);
        // The score matrix is private intermediate data → Internal.
        let mut m = t.array_i32("M", &vec![0i64; w * w], ArrayKind::Internal);
        let mut aa = t.array_i32("alignedA", &vec![0i64; 2 * l], ArrayKind::Output);
        let mut ab = t.array_i32("alignedB", &vec![0i64; 2 * l], ArrayKind::Output);

        // Boundary initialization.
        for i in 0..=l {
            t.begin_iteration(0);
            let v = TVal::lit(GAP * i as i64);
            t.store(&mut m, i * w, v);
            if i > 0 {
                t.store(&mut m, i, v);
            }
        }

        // Fill (row-major, as in MachSuite).
        let mut iter = 0u32;
        let imax = |t: &mut Tracer, x: TVal<i64>, y: TVal<i64>| {
            let c = t.icmp_lt(x, y);
            t.select(c, y, x)
        };
        for i in 1..=l {
            for j in 1..=l {
                t.begin_iteration(iter);
                iter += 1;
                let ai = t.load(&seqa, i - 1);
                let bj = t.load(&seqb, j - 1);
                let eq = t.icmp_eq(ai, bj);
                let s = t.select(eq, TVal::lit(MATCH), TVal::lit(MISMATCH));
                let md = t.load(&m, (i - 1) * w + j - 1);
                let mu = t.load(&m, (i - 1) * w + j);
                let ml = t.load(&m, i * w + j - 1);
                let diag = t.ibinop(Opcode::Add, md, s);
                let up = t.ibinop(Opcode::Add, mu, TVal::lit(GAP));
                let left = t.ibinop(Opcode::Add, ml, TVal::lit(GAP));
                let best = imax(t, diag, up);
                let best = imax(t, best, left);
                t.store(&mut m, i * w + j, best);
            }
        }

        // Traceback (serial pointer chase through the matrix).
        let (mut i, mut j) = (l, l);
        let mut pos = 0usize;
        while i > 0 && j > 0 {
            t.begin_iteration(iter);
            let ai = t.load(&seqa, i - 1);
            let bj = t.load(&seqb, j - 1);
            let eq = t.icmp_eq(ai, bj);
            let s = t.select(eq, TVal::lit(MATCH), TVal::lit(MISMATCH));
            let here = t.load(&m, i * w + j);
            let diag = t.load(&m, (i - 1) * w + j - 1);
            let up = t.load(&m, (i - 1) * w + j);
            let dscore = t.ibinop(Opcode::Add, diag, s);
            let uscore = t.ibinop(Opcode::Add, up, TVal::lit(GAP));
            let take_d = t.icmp_eq(here, dscore);
            let take_u = t.icmp_eq(here, uscore);
            // Trace follows the actually-taken path; the compares above
            // model the selection hardware.
            if take_d.v {
                let va = TVal {
                    v: ai.v,
                    src: take_d.src,
                };
                let vb = TVal {
                    v: bj.v,
                    src: take_d.src,
                };
                t.store(&mut aa, pos, va);
                t.store(&mut ab, pos, vb);
                i -= 1;
                j -= 1;
            } else if take_u.v {
                let va = TVal {
                    v: ai.v,
                    src: take_u.src,
                };
                t.store(&mut aa, pos, va);
                t.store(&mut ab, pos, TVal::lit(GAP_CHAR));
                i -= 1;
            } else {
                let vb = TVal {
                    v: bj.v,
                    src: take_u.src,
                };
                t.store(&mut aa, pos, TVal::lit(GAP_CHAR));
                t.store(&mut ab, pos, vb);
                j -= 1;
            }
            pos += 1;
        }
        while i > 0 {
            let ai = t.load(&seqa, i - 1);
            t.store(&mut aa, pos, ai);
            t.store(&mut ab, pos, TVal::lit(GAP_CHAR));
            i -= 1;
            pos += 1;
        }
        while j > 0 {
            let bj = t.load(&seqb, j - 1);
            t.store(&mut aa, pos, TVal::lit(GAP_CHAR));
            t.store(&mut ab, pos, bj);
            j -= 1;
            pos += 1;
        }

        let mut outputs: Vec<f64> = aa.data().iter().map(|&v| v as f64).collect();
        outputs.extend(ab.data().iter().map(|&v| v as f64));
        outputs
    }

    fn reference(&self) -> Vec<f64> {
        let (a, b) = self.inputs();
        let (aa, ab) = self.align(&a, &b);
        let mut out: Vec<f64> = aa.iter().map(|&v| v as f64).collect();
        out.extend(ab.iter().map(|&v| v as f64));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_matches_reference() {
        let k = NeedlemanWunsch {
            seq_len: 12,
            seed: 6,
        };
        assert_eq!(k.run().outputs, k.reference());
    }

    #[test]
    fn alignment_is_consistent() {
        let k = NeedlemanWunsch {
            seq_len: 16,
            seed: 6,
        };
        let (a, b) = k.inputs();
        let (aa, ab) = k.align(&a, &b);
        // Stripping gaps from the aligned strings recovers the reversed
        // input sequences.
        let sa: Vec<i64> = aa
            .iter()
            .copied()
            .filter(|&c| c != GAP_CHAR && c != 0)
            .collect();
        let sb: Vec<i64> = ab
            .iter()
            .copied()
            .filter(|&c| c != GAP_CHAR && c != 0)
            .collect();
        let mut ra = a.clone();
        ra.reverse();
        let mut rb = b.clone();
        rb.reverse();
        assert_eq!(sa, ra);
        assert_eq!(sb, rb);
    }

    #[test]
    fn matrix_stays_internal() {
        let k = NeedlemanWunsch {
            seq_len: 8,
            seed: 6,
        };
        let run = k.run();
        let m = run
            .trace
            .arrays()
            .iter()
            .find(|a| a.name == "M")
            .expect("score matrix");
        assert_eq!(m.kind, ArrayKind::Internal);
        // Internal bytes are not part of the DMA/coherence traffic.
        assert!(run.trace.input_bytes() < m.size_bytes());
    }

    #[test]
    fn fill_is_serial() {
        // M[i][j] depends on M[i][j-1]: the DDDG must chain stores.
        let k = NeedlemanWunsch {
            seq_len: 8,
            seed: 6,
        };
        let run = k.run();
        assert!(
            run.trace.check().is_clean(),
            "{}",
            run.trace.check().to_human()
        );
        let m_id = run
            .trace
            .arrays()
            .iter()
            .find(|a| a.name == "M")
            .unwrap()
            .id;
        // Every interior M load must have a dependence (the producing
        // store), i.e. no interior cell is computed from thin air.
        let loads_with_deps = run
            .trace
            .nodes()
            .iter()
            .filter(|n| {
                n.mem.is_some_and(|mr| {
                    mr.array == m_id && mr.kind == aladdin_ir::MemAccessKind::Read
                })
            })
            .all(|n| !n.deps.is_empty());
        assert!(loads_with_deps);
    }
}
