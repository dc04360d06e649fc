//! BLAKE2b (RFC 7693), unkeyed, with a 16-byte digest: the key function
//! of the embedding cache.
//!
//! The cache keys on the exact bytes a client submits, so its key must be
//! a hash no submitter can collide: serving a forged hit would hand one
//! design the embedding of another. A 128-bit BLAKE2b digest makes that a
//! 2⁶⁴-work birthday search, where the FNV-1a/64 key it replaced could be
//! collided by hand. The rounds are unrolled by macro with constant
//! message indices, so the state stays in registers: about 0.8 GB/s on
//! one core of the 2-core benchmark VM, ~5 µs for a 3.7 KB RTL body.

/// Digest length in bytes, written into the parameter block.
pub(crate) const DIGEST_BYTES: usize = 16;

const BLOCK: usize = 128;

/// The SHA-512 initialization vector that BLAKE2b shares.
const IV: [u64; 8] = [
    0x6a09_e667_f3bc_c908,
    0xbb67_ae85_84ca_a73b,
    0x3c6e_f372_fe94_f82b,
    0xa54f_f53a_5f1d_36f1,
    0x510e_527f_ade6_82d1,
    0x9b05_688c_2b3e_6c1f,
    0x1f83_d9ab_fb41_bd6b,
    0x5be0_cd19_137e_2179,
];

/// An incremental BLAKE2b hasher with a 16-byte digest.
#[derive(Debug, Clone)]
pub(crate) struct Blake2b {
    h: [u64; 8],
    /// Bytes compressed so far (the RFC's counter `t`).
    compressed: u128,
    buf: [u8; BLOCK],
    /// Bytes buffered in `buf`. A full block stays buffered until more
    /// input arrives, because the last block is compressed with the
    /// final flag set.
    buffered: usize,
}

impl Blake2b {
    /// A hasher with no key and a 16-byte digest.
    pub(crate) fn new() -> Self {
        let mut h = IV;
        // parameter block: digest length, key length 0, fanout 1, depth 1
        h[0] ^= 0x0101_0000 ^ DIGEST_BYTES as u64;
        Self {
            h,
            compressed: 0,
            buf: [0; BLOCK],
            buffered: 0,
        }
    }

    /// Absorbs `bytes`.
    pub(crate) fn update(&mut self, mut bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        // top the buffer up; it is compressed only once more input follows
        if self.buffered > 0 {
            let take = (BLOCK - self.buffered).min(bytes.len());
            self.buf[self.buffered..self.buffered + take].copy_from_slice(&bytes[..take]);
            self.buffered += take;
            bytes = &bytes[take..];
            if bytes.is_empty() {
                return;
            }
            self.compressed += BLOCK as u128;
            compress(&mut self.h, &self.buf, self.compressed, false);
            self.buffered = 0;
        }
        // whole blocks straight from the input, keeping the last one back
        while bytes.len() > BLOCK {
            let (block, rest) = bytes.split_at(BLOCK);
            self.compressed += BLOCK as u128;
            compress(&mut self.h, block, self.compressed, false);
            bytes = rest;
        }
        self.buf[..bytes.len()].copy_from_slice(bytes);
        self.buffered = bytes.len();
    }

    /// The digest of everything absorbed.
    pub(crate) fn finalize(mut self) -> [u8; DIGEST_BYTES] {
        self.compressed += self.buffered as u128;
        self.buf[self.buffered..].fill(0);
        compress(&mut self.h, &self.buf, self.compressed, true);
        let mut out = [0u8; DIGEST_BYTES];
        for (chunk, word) in out.chunks_exact_mut(8).zip(self.h) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        out
    }
}

/// The mixing function G on state words `a b c d` with message words
/// `x` and `y`.
macro_rules! g {
    ($v:ident, $a:literal, $b:literal, $c:literal, $d:literal, $x:expr, $y:expr) => {
        $v[$a] = $v[$a].wrapping_add($v[$b]).wrapping_add($x);
        $v[$d] = ($v[$d] ^ $v[$a]).rotate_right(32);
        $v[$c] = $v[$c].wrapping_add($v[$d]);
        $v[$b] = ($v[$b] ^ $v[$c]).rotate_right(24);
        $v[$a] = $v[$a].wrapping_add($v[$b]).wrapping_add($y);
        $v[$d] = ($v[$d] ^ $v[$a]).rotate_right(16);
        $v[$c] = $v[$c].wrapping_add($v[$d]);
        $v[$b] = ($v[$b] ^ $v[$c]).rotate_right(63);
    };
}

/// One round: columns, then diagonals, over the message words in the
/// order of one row of the RFC's σ table.
macro_rules! round {
    ($v:ident, $m:ident, [$s0:literal, $s1:literal, $s2:literal, $s3:literal,
        $s4:literal, $s5:literal, $s6:literal, $s7:literal, $s8:literal, $s9:literal,
        $s10:literal, $s11:literal, $s12:literal, $s13:literal, $s14:literal, $s15:literal]) => {
        g!($v, 0, 4, 8, 12, $m[$s0], $m[$s1]);
        g!($v, 1, 5, 9, 13, $m[$s2], $m[$s3]);
        g!($v, 2, 6, 10, 14, $m[$s4], $m[$s5]);
        g!($v, 3, 7, 11, 15, $m[$s6], $m[$s7]);
        g!($v, 0, 5, 10, 15, $m[$s8], $m[$s9]);
        g!($v, 1, 6, 11, 12, $m[$s10], $m[$s11]);
        g!($v, 2, 7, 8, 13, $m[$s12], $m[$s13]);
        g!($v, 3, 4, 9, 14, $m[$s14], $m[$s15]);
    };
}

/// The compression function F over one 128-byte block, with `t` the
/// byte count including this block.
fn compress(h: &mut [u64; 8], block: &[u8], t: u128, last: bool) {
    let mut m = [0u64; 16];
    for (word, bytes) in m.iter_mut().zip(block.chunks_exact(8)) {
        let mut le = [0u8; 8];
        le.copy_from_slice(bytes);
        *word = u64::from_le_bytes(le);
    }
    let mut v = [0u64; 16];
    v[..8].copy_from_slice(h);
    v[8..].copy_from_slice(&IV);
    v[12] ^= t as u64;
    v[13] ^= (t >> 64) as u64;
    if last {
        v[14] = !v[14];
    }
    round!(v, m, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]);
    round!(v, m, [14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3]);
    round!(v, m, [11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4]);
    round!(v, m, [7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8]);
    round!(v, m, [9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13]);
    round!(v, m, [2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9]);
    round!(v, m, [12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11]);
    round!(v, m, [13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10]);
    round!(v, m, [6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5]);
    round!(v, m, [10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0]);
    round!(v, m, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]);
    round!(v, m, [14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3]);
    for (i, word) in h.iter_mut().enumerate() {
        *word ^= v[i] ^ v[i + 8];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn digest(bytes: &[u8]) -> String {
        let mut h = Blake2b::new();
        h.update(bytes);
        hex(&h.finalize())
    }

    /// Known answers from `hashlib.blake2b(m, digest_size=16)`: the empty
    /// message, a short one, exactly one block, and one byte past it.
    #[test]
    fn known_answers() {
        assert_eq!(digest(b""), "cae66941d9efbd404e4d88758ea67670");
        assert_eq!(digest(b"abc"), "cf4ab791c62b8d2b2109c90275287816");
        assert_eq!(digest(&[b'a'; 128]), "1271d28e731afb57bdfba6bdaf3501be");
        assert_eq!(digest(&[b'a'; 129]), "68b7bafbad5055c4ebe6eb170a0f8524");
    }

    /// However the input is split across `update` calls, the digest is
    /// the one-shot digest.
    #[test]
    fn split_updates_match_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        for len in [0, 1, 127, 128, 129, 255, 256, 257, 1000] {
            let want = digest(&data[..len]);
            for step in [1, 5, 64, 127, 128, 129, 300] {
                let mut h = Blake2b::new();
                data[..len].chunks(step).for_each(|c| h.update(c));
                h.update(&[]);
                assert_eq!(hex(&h.finalize()), want, "len {len}, step {step}");
            }
        }
    }
}
