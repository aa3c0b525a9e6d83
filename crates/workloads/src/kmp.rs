//! `kmp`: Knuth-Morris-Pratt substring search.
//!
//! Sequential text streaming with a tiny private failure table — part of
//! the Figure 2b breadth sweep.

use aladdin_ir::{ArrayKind, TVal, Tracer};
use aladdin_rng::SmallRng;

use crate::kernel::Kernel;

/// The `kmp` kernel: count occurrences of a 4-char pattern in a text.
#[derive(Debug, Clone)]
pub struct Kmp {
    /// Text length in bytes.
    pub text_len: usize,
    /// Input-generation seed.
    pub seed: u64,
}

impl Default for Kmp {
    fn default() -> Self {
        // MachSuite searches a 32 KB text with a 4-char pattern; 1 KB of
        // a 4-letter alphabet preserves match density.
        Kmp {
            text_len: 1024,
            seed: 47,
        }
    }
}

const PATTERN: [u8; 4] = *b"abab";

impl Kmp {
    fn text(&self) -> Vec<u8> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        (0..self.text_len)
            .map(|_| b'a' + rng.gen_range(0..4u8))
            .collect()
    }

    fn failure_table() -> [i64; 4] {
        let mut kmp_next = [0i64; 4];
        let mut k = 0i64;
        for q in 1..4 {
            while k > 0 && PATTERN[k as usize] != PATTERN[q] {
                k = kmp_next[(k - 1) as usize];
            }
            if PATTERN[k as usize] == PATTERN[q] {
                k += 1;
            }
            kmp_next[q] = k;
        }
        kmp_next
    }

    fn count(&self, text: &[u8]) -> i64 {
        let next = Self::failure_table();
        let mut q = 0i64;
        let mut matches = 0i64;
        for &c in text {
            while q > 0 && PATTERN[q as usize] != c {
                q = next[(q - 1) as usize];
            }
            if PATTERN[q as usize] == c {
                q += 1;
            }
            if q == 4 {
                matches += 1;
                q = next[3];
            }
        }
        matches
    }
}

impl Kernel for Kmp {
    fn name(&self) -> &'static str {
        "kmp"
    }

    fn description(&self) -> &'static str {
        "KMP substring search; sequential text stream, private failure table"
    }

    fn trace(&self, t: &mut Tracer) -> Vec<f64> {
        let text_d = self.text();
        let pattern_d: Vec<u8> = PATTERN.to_vec();
        let next_d = Self::failure_table();
        let text = t.array_u8("input", &text_d, ArrayKind::Input);
        let pattern = t.array_u8("pattern", &pattern_d, ArrayKind::Input);
        let next = t.array_i32("kmp_next", &next_d, ArrayKind::Internal);
        let mut n_matches = t.array_i32("n_matches", &[0], ArrayKind::Output);

        let mut q = 0i64;
        let mut matches = TVal::lit(0i64);
        for (i, &c) in text_d.iter().enumerate() {
            t.begin_iteration((i % 4096) as u32);
            let tc = t.load(&text, i);
            let tc = TVal {
                v: i64::from(tc.v),
                src: tc.src,
            };
            while q > 0 && PATTERN[q as usize] != c {
                let pq = t.load(&pattern, q as usize);
                let pq = TVal {
                    v: i64::from(pq.v),
                    src: pq.src,
                };
                let _ = t.icmp_eq(pq, tc);
                let nq = t.load(&next, (q - 1) as usize);
                q = nq.v;
            }
            let pq = t.load(&pattern, q as usize);
            let pq = TVal {
                v: i64::from(pq.v),
                src: pq.src,
            };
            let eq = t.icmp_eq(pq, tc);
            if eq.v {
                q += 1;
            }
            if q == 4 {
                let one = t.select(eq, TVal::lit(1i64), TVal::lit(0i64));
                matches = t.ibinop(aladdin_ir::Opcode::Add, matches, one);
                let nq = t.load(&next, 3);
                q = nq.v;
            }
        }
        t.store(&mut n_matches, 0, matches);

        vec![n_matches.peek(0) as f64]
    }

    fn reference(&self) -> Vec<f64> {
        vec![self.count(&self.text()) as f64]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_matches_reference() {
        let k = Kmp::default();
        assert_eq!(k.run().outputs, k.reference());
    }

    #[test]
    fn counts_known_string() {
        // "ababab" contains "abab" twice (overlapping).
        let k = Kmp {
            text_len: 6,
            seed: 0,
        };
        assert_eq!(k.count(b"ababab"), 2);
        assert_eq!(k.count(b"xxxxxx"), 0);
    }

    #[test]
    fn failure_table_correct() {
        assert_eq!(Kmp::failure_table(), [0, 0, 1, 2]);
    }
}
