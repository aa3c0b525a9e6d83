//! The word-at-a-time content hasher behind trace fingerprints, the `.atrc`
//! whole-file checksum and the DSE result cache's file names.
//!
//! Two independent 64-bit lanes each absorb one `u64` per step. A step xors
//! the word in, multiplies by an odd constant and xor-shifts the product
//! down. Each of the three is a bijection of the lane state for a fixed
//! word, so no input word can erase what came before it: two streams that
//! differ in exactly one word always end in different states. The value is
//! stable across processes, runs and platforms (no pointer or hash-seed
//! dependence), because it is persisted in `.atrc` footers and cache file
//! names.

/// Lane multipliers (odd, so multiplication is invertible mod 2^64).
const K_LO: u64 = 0x9e37_79b9_7f4a_7c15;
const K_HI: u64 = 0xc2b2_ae3d_27d4_eb4f;
/// Lane xor-shifts, folding the product's well-mixed high bits down.
const R_LO: u32 = 29;
const R_HI: u32 = 32;

/// A 128-bit content hasher that absorbs one `u64` per step.
///
/// Callers define their own word stream; [`str`](ContentHasher::str)
/// absorbs a string's length before its bytes, so adjacent strings cannot
/// trade bytes.
#[derive(Debug, Clone)]
pub struct ContentHasher {
    lo: u64,
    hi: u64,
}

impl Default for ContentHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentHasher {
    /// A hasher in its fixed initial state.
    #[must_use]
    pub fn new() -> Self {
        ContentHasher {
            lo: 0x243f_6a88_85a3_08d3,
            hi: 0x1319_8a2e_0370_7344,
        }
    }

    /// Absorb one word into both lanes.
    #[inline]
    pub fn word(&mut self, w: u64) {
        let lo = (self.lo ^ w).wrapping_mul(K_LO);
        self.lo = lo ^ (lo >> R_LO);
        let hi = (self.hi ^ w).wrapping_mul(K_HI);
        self.hi = hi ^ (hi >> R_HI);
    }

    /// Absorb a string: its byte length, then its bytes as 8-byte
    /// little-endian words, the last one zero-padded.
    pub fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        let rest = self.whole_words(s.as_bytes());
        if !rest.is_empty() {
            self.word(padded(rest));
        }
    }

    /// Absorb `bytes` as whole 8-byte little-endian words and return the
    /// tail shorter than a word.
    fn whole_words<'a>(&mut self, bytes: &'a [u8]) -> &'a [u8] {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        chunks.remainder()
    }

    /// The 128-bit digest: the high lane above the low lane.
    #[must_use]
    pub fn finish(&self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }
}

/// Up to 8 bytes as a little-endian word, zero-padded.
fn padded(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(w)
}

/// A byte-stream hasher over [`ContentHasher`]: 8-byte little-endian words,
/// a zero-padded tail word, then the total length. Bytes may arrive in
/// pieces of any size; a partial word is carried to the next
/// [`write`](ByteHasher::write), so the digest depends only on the
/// concatenation.
#[derive(Debug, Clone, Default)]
pub(crate) struct ByteHasher {
    h: ContentHasher,
    tail: [u8; 8],
    len: u64,
}

impl ByteHasher {
    pub(crate) fn write(&mut self, mut bytes: &[u8]) {
        let fill = (self.len % 8) as usize;
        self.len += bytes.len() as u64;
        if fill > 0 {
            let take = (8 - fill).min(bytes.len());
            self.tail[fill..fill + take].copy_from_slice(&bytes[..take]);
            if fill + take < 8 {
                return;
            }
            self.h.word(u64::from_le_bytes(self.tail));
            bytes = &bytes[take..];
        }
        let rest = self.h.whole_words(bytes);
        self.tail[..rest.len()].copy_from_slice(rest);
    }

    /// The 64-bit digest: both lanes folded together.
    pub(crate) fn finish(mut self) -> u64 {
        let fill = (self.len % 8) as usize;
        if fill > 0 {
            self.h.word(padded(&self.tail[..fill]));
        }
        self.h.word(self.len);
        let v = self.h.finish();
        (v as u64) ^ ((v >> 64) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_shot(bytes: &[u8]) -> u64 {
        let mut h = ByteHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn split_writes_match_one_shot() {
        let data: Vec<u8> = (0..=200u8).collect();
        let whole = one_shot(&data);
        for split in [0, 1, 3, 7, 8, 9, 15, 16, 17, 100, 200, 201] {
            for second in [0, 1, 5, 8, 13] {
                let (a, rest) = data.split_at(split);
                let (b, c) = rest.split_at(second.min(rest.len()));
                let mut h = ByteHasher::default();
                h.write(a);
                h.write(b);
                h.write(c);
                assert_eq!(h.finish(), whole, "split at {split}+{second}");
            }
        }
    }

    #[test]
    fn trailing_zeros_and_lengths_are_distinguished() {
        // The tail is zero-padded, so the length must separate these.
        let digests = [
            one_shot(b""),
            one_shot(b"\0"),
            one_shot(b"\0\0\0\0\0\0\0\0"),
            one_shot(b"a"),
            one_shot(b"a\0"),
        ];
        for (i, a) in digests.iter().enumerate() {
            for b in &digests[i + 1..] {
                assert_ne!(a, b);
            }
        }
        let mut x = ContentHasher::new();
        x.str("ab");
        x.str("c");
        let mut y = ContentHasher::new();
        y.str("a");
        y.str("bc");
        assert_ne!(x.finish(), y.finish());
    }

    /// Invert one lane step: undo the xor-shift, multiply by the
    /// multiplier's inverse mod 2^64, xor the word back out.
    fn unstep(s: u64, w: u64, k: u64, r: u32) -> u64 {
        let (mut x, mut t) = (s, s >> r);
        while t != 0 {
            x ^= t;
            t >>= r;
        }
        // Newton's iteration: `k` is its own inverse mod 8, and each
        // round doubles the correct low bits (3 → 96).
        let mut inv = k;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(k.wrapping_mul(inv)));
        }
        x.wrapping_mul(inv) ^ w
    }

    /// Every step is invertible for a fixed word, so no word can erase
    /// history. A folding step such as `mum(state ^ w, K)` is not: it
    /// maps `state == w` and other states alike to one value.
    #[test]
    fn each_step_is_a_bijection_of_the_lane_state() {
        let mut gen = ContentHasher::new();
        for i in 0..1000u64 {
            gen.word(i);
            // Every fourth word equals the state it is absorbed into.
            let (s, w) = (gen.lo, if i % 4 == 0 { gen.lo } else { gen.hi });
            let mut h = ContentHasher { lo: s, hi: s };
            h.word(w);
            assert_eq!(unstep(h.lo, w, K_LO, R_LO), s, "low lane, word {i}");
            assert_eq!(unstep(h.hi, w, K_HI, R_HI), s, "high lane, word {i}");
        }
    }
}
