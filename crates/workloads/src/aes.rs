//! `aes-aes`: AES-256 ECB encryption of one block.
//!
//! Byte-granularity integer work (S-box gathers, XOR networks) over a tiny
//! footprint: 32 B of key and 16 B of state. With almost no data to move,
//! DMA overheads are negligible and a cache's cold TLB/tag misses only
//! hurt — the paper's clearest DMA win (Section V-A). The S-box lives in
//! an internal ROM-like array.

use aladdin_ir::{ArrayKind, Opcode, TArray, TVal, Tracer};
use aladdin_rng::SmallRng;

use crate::kernel::Kernel;

/// AES S-box (FIPS-197).
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const ROUNDS: usize = 14; // AES-256
const NK: usize = 8; // key words
const RK_WORDS: usize = 4 * (ROUNDS + 1); // 60

/// The `aes-aes` kernel: AES-256 ECB over `blocks` 16-byte blocks.
#[derive(Debug, Clone)]
pub struct Aes {
    /// Number of 16-byte blocks to encrypt (MachSuite uses 1).
    pub blocks: usize,
    /// Input-generation seed.
    pub seed: u64,
}

impl Default for Aes {
    fn default() -> Self {
        Aes {
            blocks: 1,
            seed: 37,
        }
    }
}

fn xtime(b: u8) -> u8 {
    let s = b << 1;
    if b & 0x80 != 0 {
        s ^ 0x1b
    } else {
        s
    }
}

/// Untraced AES-256 key expansion.
fn expand_key(key: &[u8; 32]) -> [u32; RK_WORDS] {
    let mut w = [0u32; RK_WORDS];
    for (i, wi) in w.iter_mut().take(NK).enumerate() {
        *wi = u32::from_be_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
    }
    let mut rcon: u8 = 1;
    for i in NK..RK_WORDS {
        let mut temp = w[i - 1];
        if i % NK == 0 {
            temp = temp.rotate_left(8);
            temp = subword(temp) ^ (u32::from(rcon) << 24);
            rcon = xtime(rcon);
        } else if i % NK == 4 {
            temp = subword(temp);
        }
        w[i] = w[i - NK] ^ temp;
    }
    w
}

fn subword(w: u32) -> u32 {
    let b = w.to_be_bytes();
    u32::from_be_bytes([
        SBOX[b[0] as usize],
        SBOX[b[1] as usize],
        SBOX[b[2] as usize],
        SBOX[b[3] as usize],
    ])
}

/// Untraced single-block AES-256 encryption.
fn encrypt_block(rk: &[u32; RK_WORDS], block: &mut [u8; 16]) {
    let add_round_key = |state: &mut [u8; 16], round: usize| {
        for c in 0..4 {
            let w = rk[4 * round + c].to_be_bytes();
            for r in 0..4 {
                state[4 * c + r] ^= w[r];
            }
        }
    };
    add_round_key(block, 0);
    for round in 1..=ROUNDS {
        // SubBytes.
        for b in block.iter_mut() {
            *b = SBOX[*b as usize];
        }
        // ShiftRows (state is column-major: byte (r, c) at 4c + r).
        let mut tmp = *block;
        for r in 1..4 {
            for c in 0..4 {
                tmp[4 * c + r] = block[4 * ((c + r) % 4) + r];
            }
        }
        *block = tmp;
        // MixColumns (skipped in the final round).
        if round != ROUNDS {
            for c in 0..4 {
                let col = [
                    block[4 * c],
                    block[4 * c + 1],
                    block[4 * c + 2],
                    block[4 * c + 3],
                ];
                let t = col[0] ^ col[1] ^ col[2] ^ col[3];
                for r in 0..4 {
                    let x = xtime(col[r] ^ col[(r + 1) % 4]);
                    block[4 * c + r] = col[r] ^ x ^ t;
                }
            }
        }
        add_round_key(block, round);
    }
}

impl Aes {
    fn inputs(&self) -> ([u8; 32], Vec<u8>) {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut key = [0u8; 32];
        rng.fill(&mut key);
        let buf: Vec<u8> = (0..16 * self.blocks).map(|_| rng.gen()).collect();
        (key, buf)
    }
}

/// Traced byte value.
type TByte = TVal<i64>;

/// Traced helpers mirroring the untraced primitives.
struct TracedAes<'a> {
    t: &'a mut Tracer,
    sbox: TArray<i64>,
}

impl TracedAes<'_> {
    fn sub(&mut self, b: TByte) -> TByte {
        self.t
            .load_indexed(&self.sbox, usize::try_from(b.v).expect("byte"), b.src)
    }

    fn xor(&mut self, a: TByte, b: TByte) -> TByte {
        // `ibinop(BitOp)` computes XOR.
        self.t.ibinop(Opcode::BitOp, a, b)
    }

    fn xtime(&mut self, b: TByte) -> TByte {
        // shift, mask test, conditional reduction: 3 traced ops.
        let s = self.t.ibinop(Opcode::Shift, b, TVal::lit(1));
        let hi = self.t.and(b, TVal::lit(0x80));
        let cond = self.t.icmp_eq(hi, TVal::lit(0x80));
        let red = self.t.select(cond, TVal::lit(0x1b), TVal::lit(0x00));
        let v = xtime(u8::try_from(b.v & 0xff).expect("byte"));
        let r = self.xor(s, red);
        TVal {
            v: i64::from(v),
            src: r.src,
        }
    }
}

impl Kernel for Aes {
    fn name(&self) -> &'static str {
        "aes-aes"
    }

    fn description(&self) -> &'static str {
        "AES-256 ECB; byte-wise S-box gathers and XOR networks over 48 B of data"
    }

    #[allow(clippy::too_many_lines)]
    fn trace(&self, t: &mut Tracer) -> Vec<f64> {
        let (key_d, buf_d) = self.inputs();
        let key_i: Vec<i64> = key_d.iter().map(|&b| i64::from(b)).collect();
        let buf_i: Vec<i64> = buf_d.iter().map(|&b| i64::from(b)).collect();
        let sbox_i: Vec<i64> = SBOX.iter().map(|&b| i64::from(b)).collect();

        let key = t.array_u8("k", &key_d, ArrayKind::Input);
        let _ = key_i; // key bytes traced through `key` loads below
        let mut buf = t.array_i32("buf", &buf_i, ArrayKind::InOut);
        let sbox = t.array_i32("sbox", &sbox_i, ArrayKind::Internal);
        // Expanded key schedule, byte-granular, private to the accelerator.
        let mut rk = t.array_i32("rk", &vec![0i64; RK_WORDS * 4], ArrayKind::Internal);

        let mut ta = TracedAes { t, sbox };

        // --- Key expansion (traced) ---
        let rk_ref = expand_key(&key_d);
        for i in 0..NK {
            ta.t.begin_iteration((i % 16) as u32);
            for b in 0..4 {
                let kb = ta.t.load(&key, 4 * i + b);
                let kb = TVal {
                    v: i64::from(kb.v),
                    src: kb.src,
                };
                ta.t.store_indexed(&mut rk, 4 * i + b, kb, None);
            }
        }
        let mut rcon: u8 = 1;
        for i in NK..RK_WORDS {
            ta.t.begin_iteration((i % 16) as u32);
            // temp = w[i-1], possibly rotated/substituted.
            let mut temp: Vec<TByte> = (0..4).map(|b| ta.t.load(&rk, 4 * (i - 1) + b)).collect();
            if i % NK == 0 {
                temp.rotate_left(1);
                temp = temp.iter().map(|&b| ta.sub(b)).collect();
                let r = ta.xor(temp[0], TVal::lit(i64::from(rcon)));
                temp[0] = r;
                rcon = xtime(rcon);
            } else if i % NK == 4 {
                temp = temp.iter().map(|&b| ta.sub(b)).collect();
            }
            #[allow(clippy::needless_range_loop)]
            for b in 0..4 {
                let prev = ta.t.load(&rk, 4 * (i - NK) + b);
                let w = ta.xor(prev, temp[b]);
                ta.t.store(&mut rk, 4 * i + b, w);
            }
        }
        // Cross-check the traced key schedule against the reference.
        for (i, &w) in rk_ref.iter().enumerate() {
            let bytes = w.to_be_bytes();
            #[allow(clippy::needless_range_loop)]
            for b in 0..4 {
                debug_assert_eq!(rk.peek(4 * i + b), i64::from(bytes[b]));
            }
        }

        // --- Per-block encryption (traced) ---
        for blk in 0..self.blocks {
            let mut state: Vec<TByte> = (0..16).map(|b| ta.t.load(&buf, 16 * blk + b)).collect();
            let add_round_key = |ta: &mut TracedAes, state: &mut Vec<TByte>, round: usize| {
                for c in 0..4 {
                    for r in 0..4 {
                        ta.t.begin_iteration((4 * c + r) as u32);
                        let kb = ta.t.load(&rk, 4 * (4 * round + c) + r);
                        state[4 * c + r] = ta.xor(state[4 * c + r], kb);
                    }
                }
            };
            add_round_key(&mut ta, &mut state, 0);
            for round in 1..=ROUNDS {
                for (b, s) in state.iter_mut().enumerate() {
                    ta.t.begin_iteration(b as u32);
                    *s = ta.sub(*s);
                }
                let mut shifted = state.clone();
                for r in 1..4 {
                    for c in 0..4 {
                        shifted[4 * c + r] = state[4 * ((c + r) % 4) + r];
                    }
                }
                state = shifted;
                if round != ROUNDS {
                    for c in 0..4 {
                        ta.t.begin_iteration((4 * c) as u32);
                        let col = [
                            state[4 * c],
                            state[4 * c + 1],
                            state[4 * c + 2],
                            state[4 * c + 3],
                        ];
                        let t01 = ta.xor(col[0], col[1]);
                        let t23 = ta.xor(col[2], col[3]);
                        let tall = ta.xor(t01, t23);
                        for r in 0..4 {
                            let x = ta.xor(col[r], col[(r + 1) % 4]);
                            let x = ta.xtime(x);
                            let y = ta.xor(col[r], x);
                            state[4 * c + r] = ta.xor(y, tall);
                        }
                    }
                }
                add_round_key(&mut ta, &mut state, round);
            }
            for (b, s) in state.iter().enumerate() {
                ta.t.begin_iteration(b as u32);
                ta.t.store(&mut buf, 16 * blk + b, *s);
            }
        }

        buf.data().iter().map(|&v| v as f64).collect()
    }

    fn reference(&self) -> Vec<f64> {
        let (key, buf) = self.inputs();
        let rk = expand_key(&key);
        let mut out = Vec::with_capacity(buf.len());
        for blk in buf.chunks_exact(16) {
            let mut block: [u8; 16] = blk.try_into().expect("16-byte block");
            encrypt_block(&rk, &mut block);
            out.extend(block.iter().map(|&b| f64::from(b)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips197_aes256_test_vector() {
        // FIPS-197 appendix C.3.
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let mut block: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let rk = expand_key(&key);
        encrypt_block(&rk, &mut block);
        assert_eq!(
            block,
            [
                0x8e, 0xa2, 0xb7, 0xca, 0x51, 0x67, 0x45, 0xbf, 0xea, 0xfc, 0x49, 0x90, 0x4b, 0x49,
                0x60, 0x89
            ]
        );
    }

    #[test]
    fn traced_matches_reference() {
        let k = Aes::default();
        assert_eq!(k.run().outputs, k.reference());
    }

    #[test]
    fn multiple_blocks() {
        let k = Aes { blocks: 3, seed: 1 };
        assert_eq!(k.run().outputs, k.reference());
    }

    #[test]
    fn footprint_is_tiny() {
        let k = Aes::default();
        let run = k.run();
        // Shared data: 32 B key + one block of state (in and out).
        assert!(run.trace.input_bytes() <= 96);
        assert!(run.trace.output_bytes() <= 64);
        // But the integer work is substantial relative to the data.
        assert!(run.trace.stats().compute_to_memory_ratio() > 0.5);
        assert!(
            run.trace.check().is_clean(),
            "{}",
            run.trace.check().to_human()
        );
    }

    #[test]
    fn sbox_gathers_depend_on_state() {
        let k = Aes::default();
        let run = k.run();
        let sbox_id = run
            .trace
            .arrays()
            .iter()
            .find(|a| a.name == "sbox")
            .unwrap()
            .id;
        let gathers = run
            .trace
            .nodes()
            .iter()
            .filter(|n| n.mem.is_some_and(|m| m.array == sbox_id))
            .count();
        // 16 SubBytes per round × 14 rounds + key-schedule subwords.
        assert!(gathers > 200, "expected many S-box gathers, got {gathers}");
    }
}
