//! Hash units.
//!
//! Tofino's match units and stateful components compute CRC-family hashes
//! over selected PHV fields.  The reproduction provides CRC-32 (two
//! polynomial variants, so cuckoo hashing gets two independent functions)
//! and CRC-16, computed over the big-endian bytes of the field values.
//!
//! The CRC-32 variants fold eight bytes per step (slice-by-8): the
//! false-positive precompute of Fig. 17 hashes tens of millions of `u64`
//! key words, so each word is one table-driven fold instead of eight
//! byte-serial rounds.  The output is bit-identical to the byte-at-a-time
//! computation (the unit tests pin both against known vectors and against
//! a byte-serial reference).

/// The hash algorithms the pipeline can instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HashAlgo {
    /// CRC-32 (IEEE 802.3 polynomial, reflected).
    Crc32,
    /// CRC-32C (Castagnoli polynomial, reflected) — the customary "second
    /// hash" for cuckoo/dual-hash schemes on Tofino.
    Crc32c,
    /// CRC-16 (IBM polynomial, reflected) — used for 16-bit digests.
    Crc16,
    /// Identity over the low 64 bits of the key — handy in tests.
    Identity,
}

/// Computes `algo` over a key given as a sequence of `u64` words (each
/// contributed as 8 big-endian bytes).
pub fn hash_words(algo: HashAlgo, words: &[u64]) -> u64 {
    match algo {
        HashAlgo::Crc32 => {
            let mut c = Crc32Fold::ieee();
            for w in words {
                c.fold8(w.to_be_bytes());
            }
            u64::from(c.finish())
        }
        HashAlgo::Crc32c => {
            let mut c = Crc32Fold::castagnoli();
            for w in words {
                c.fold8(w.to_be_bytes());
            }
            u64::from(c.finish())
        }
        HashAlgo::Crc16 => {
            let mut c = Crc16::new();
            for w in words {
                c.update(&w.to_be_bytes());
            }
            u64::from(c.finish())
        }
        HashAlgo::Identity => words.last().copied().unwrap_or(0),
    }
}

/// Builds the 256-entry lookup table for a reflected CRC-32 polynomial at
/// compile time.
const fn crc32_table(poly: u32) -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut b = 0;
        while b < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ poly } else { c >> 1 };
            b += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Extends the byte-serial table to the eight slice-by-8 tables:
/// `tables[k]` advances a byte through `k` additional zero bytes, so one
/// lookup per input byte folds eight bytes at a time.
const fn crc32_tables8(poly: u32) -> [[u32; 256]; 8] {
    let t0 = crc32_table(poly);
    let mut t = [[0u32; 256]; 8];
    t[0] = t0;
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t0[(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32_IEEE8: [[u32; 256]; 8] = crc32_tables8(0xedb8_8320);
static CRC32_CASTAGNOLI8: [[u32; 256]; 8] = crc32_tables8(0x82f6_3b78);

/// An incremental reflected CRC-32 that folds eight bytes per table step.
///
/// The fused key-hash path (`HashConfig::triple`) drives this directly —
/// one [`fold8`](Self::fold8) per `u64` key word — while
/// [`update`](Self::update) handles arbitrary byte slices (8-byte chunks,
/// then a byte-serial tail).
#[derive(Debug, Clone)]
pub struct Crc32Fold {
    tables: &'static [[u32; 256]; 8],
    state: u32,
}

impl Crc32Fold {
    /// A fresh CRC-32 (IEEE 802.3) computation.
    pub fn ieee() -> Self {
        Crc32Fold { tables: &CRC32_IEEE8, state: 0xffff_ffff }
    }

    /// A fresh CRC-32C (Castagnoli) computation.
    pub fn castagnoli() -> Self {
        Crc32Fold { tables: &CRC32_CASTAGNOLI8, state: 0xffff_ffff }
    }

    /// Folds exactly eight bytes into the state with eight table lookups.
    #[inline]
    pub fn fold8(&mut self, b: [u8; 8]) {
        let t = self.tables;
        let x = self.state ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        self.state = t[7][(x & 0xff) as usize]
            ^ t[6][((x >> 8) & 0xff) as usize]
            ^ t[5][((x >> 16) & 0xff) as usize]
            ^ t[4][(x >> 24) as usize]
            ^ t[3][b[4] as usize]
            ^ t[2][b[5] as usize]
            ^ t[1][b[6] as usize]
            ^ t[0][b[7] as usize];
    }

    /// Folds an arbitrary byte slice (8-byte chunks, byte-serial tail).
    pub fn update(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.fold8(c.try_into().expect("8-byte chunk"));
        }
        for &b in chunks.remainder() {
            let idx = (self.state ^ u32::from(b)) & 0xff;
            self.state = (self.state >> 8) ^ self.tables[0][idx as usize];
        }
    }

    /// The finished (inverted) CRC value.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// Four independent CRC-32 streams folded in lockstep.
///
/// Each [`fold8`](Self::fold8) advances all four states with interleaved
/// table lookups, so the loads of one stream hide the latency of the
/// others (the scalar fold is a serial dependency chain; four chains keep
/// the load ports busy).  Bit-identical to four separate [`Crc32Fold`]s.
/// The vector executor hashes four PHV lanes at a time through this; the
/// false-positive precompute uses the wider [`Crc32FoldX8`].
#[derive(Debug, Clone)]
pub struct Crc32FoldX4 {
    tables: &'static [[u32; 256]; 8],
    state: [u32; 4],
}

impl Crc32FoldX4 {
    /// Four fresh CRC-32 (IEEE 802.3) computations.
    pub fn ieee() -> Self {
        Crc32FoldX4 { tables: &CRC32_IEEE8, state: [0xffff_ffff; 4] }
    }

    /// Four fresh CRC-32C (Castagnoli) computations.
    pub fn castagnoli() -> Self {
        Crc32FoldX4 { tables: &CRC32_CASTAGNOLI8, state: [0xffff_ffff; 4] }
    }

    /// Folds eight bytes into each of the four states.
    #[inline]
    pub fn fold8(&mut self, b: [[u8; 8]; 4]) {
        let t = self.tables;
        for lane in 0..4 {
            let b = b[lane];
            let x = self.state[lane] ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            self.state[lane] = t[7][(x & 0xff) as usize]
                ^ t[6][((x >> 8) & 0xff) as usize]
                ^ t[5][((x >> 16) & 0xff) as usize]
                ^ t[4][(x >> 24) as usize]
                ^ t[3][b[4] as usize]
                ^ t[2][b[5] as usize]
                ^ t[1][b[6] as usize]
                ^ t[0][b[7] as usize];
        }
    }

    /// The four finished (inverted) CRC values.
    pub fn finish(&self) -> [u32; 4] {
        [!self.state[0], !self.state[1], !self.state[2], !self.state[3]]
    }
}

/// CRC-32 (IEEE) of four equal-length `u64` keys in one interleaved pass.
///
/// # Panics
/// If the four slices have differing lengths.
pub fn crc32_words_x4(keys: [&[u64]; 4]) -> [u32; 4] {
    let w = keys[0].len();
    assert!(keys.iter().all(|k| k.len() == w), "x4 keys must share a width");
    let mut c = Crc32FoldX4::ieee();
    for (i, w0) in keys[0].iter().enumerate() {
        c.fold8([
            w0.to_be_bytes(),
            keys[1][i].to_be_bytes(),
            keys[2][i].to_be_bytes(),
            keys[3][i].to_be_bytes(),
        ]);
    }
    c.finish()
}

/// Eight independent CRC-32 streams folded in lockstep.
///
/// The widened sibling of [`Crc32FoldX4`]: eight serial dependency chains
/// give the out-of-order core even more independent loads to overlap.  On
/// the false-positive precompute's key volumes (tens of millions of
/// `u64` words) the x8 fold measurably beats x4 — the chains are short
/// (one XOR plus eight table loads per word) so four of them still leave
/// load-port slack.  Bit-identical to eight separate [`Crc32Fold`]s.
#[derive(Debug, Clone)]
pub struct Crc32FoldX8 {
    tables: &'static [[u32; 256]; 8],
    state: [u32; 8],
}

impl Crc32FoldX8 {
    /// Eight fresh CRC-32 (IEEE 802.3) computations.
    pub fn ieee() -> Self {
        Crc32FoldX8 { tables: &CRC32_IEEE8, state: [0xffff_ffff; 8] }
    }

    /// Eight fresh CRC-32C (Castagnoli) computations.
    pub fn castagnoli() -> Self {
        Crc32FoldX8 { tables: &CRC32_CASTAGNOLI8, state: [0xffff_ffff; 8] }
    }

    /// Folds eight bytes into each of the eight states.
    #[inline]
    pub fn fold8(&mut self, b: [[u8; 8]; 8]) {
        let t = self.tables;
        for lane in 0..8 {
            let b = b[lane];
            let x = self.state[lane] ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            self.state[lane] = t[7][(x & 0xff) as usize]
                ^ t[6][((x >> 8) & 0xff) as usize]
                ^ t[5][((x >> 16) & 0xff) as usize]
                ^ t[4][(x >> 24) as usize]
                ^ t[3][b[4] as usize]
                ^ t[2][b[5] as usize]
                ^ t[1][b[6] as usize]
                ^ t[0][b[7] as usize];
        }
    }

    /// The eight finished (inverted) CRC values.
    pub fn finish(&self) -> [u32; 8] {
        self.state.map(|s| !s)
    }
}

/// CRC-32 (IEEE) of eight equal-length `u64` keys in one interleaved pass.
///
/// # Panics
/// If the eight slices have differing lengths.
pub fn crc32_words_x8(keys: [&[u64]; 8]) -> [u32; 8] {
    let w = keys[0].len();
    assert!(keys.iter().all(|k| k.len() == w), "x8 keys must share a width");
    let mut c = Crc32FoldX8::ieee();
    for (i, w0) in keys[0].iter().enumerate() {
        c.fold8([
            w0.to_be_bytes(),
            keys[1][i].to_be_bytes(),
            keys[2][i].to_be_bytes(),
            keys[3][i].to_be_bytes(),
            keys[4][i].to_be_bytes(),
            keys[5][i].to_be_bytes(),
            keys[6][i].to_be_bytes(),
            keys[7][i].to_be_bytes(),
        ]);
    }
    c.finish()
}

struct Crc16 {
    state: u16,
}

impl Crc16 {
    fn new() -> Self {
        Crc16 { state: 0 }
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u16::from(b);
            for _ in 0..8 {
                let lsb = self.state & 1;
                self.state >>= 1;
                if lsb != 0 {
                    self.state ^= 0xa001; // reflected 0x8005
                }
            }
        }
    }

    fn finish(&self) -> u16 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Byte-serial reference (the pre-slice-by-8 implementation).
    fn crc32_byte_serial(poly: u32, bytes: &[u8]) -> u32 {
        let table = crc32_table(poly);
        let mut state = 0xffff_ffffu32;
        for &b in bytes {
            let idx = (state ^ u32::from(b)) & 0xff;
            state = (state >> 8) ^ table[idx as usize];
        }
        !state
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32("123456789") = 0xcbf43926 — one 8-byte fold plus a
        // byte-serial tail, so both paths of `update` are exercised.
        let mut c = Crc32Fold::ieee();
        c.update(b"123456789");
        assert_eq!(c.finish(), 0xcbf4_3926);
    }

    #[test]
    fn crc32c_known_vector() {
        let mut c = Crc32Fold::castagnoli();
        c.update(b"123456789");
        assert_eq!(c.finish(), 0xe306_9283);
    }

    #[test]
    fn crc16_known_vector() {
        // CRC-16/ARC("123456789") = 0xbb3d.
        let mut c = Crc16::new();
        c.update(b"123456789");
        assert_eq!(c.finish(), 0xbb3d);
    }

    #[test]
    fn algorithms_disagree() {
        let words = [0xdead_beef_u64, 42];
        let h1 = hash_words(HashAlgo::Crc32, &words);
        let h2 = hash_words(HashAlgo::Crc32c, &words);
        let h3 = hash_words(HashAlgo::Crc16, &words);
        assert_ne!(h1, h2);
        assert_ne!(h1, h3);
        assert!(h3 <= u64::from(u16::MAX));
    }

    #[test]
    fn identity_returns_last_word() {
        assert_eq!(hash_words(HashAlgo::Identity, &[1, 2, 3]), 3);
        assert_eq!(hash_words(HashAlgo::Identity, &[]), 0);
    }

    #[test]
    fn hash_is_deterministic_and_input_sensitive() {
        let a = hash_words(HashAlgo::Crc32, &[1, 2]);
        let b = hash_words(HashAlgo::Crc32, &[1, 2]);
        let c = hash_words(HashAlgo::Crc32, &[2, 1]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    proptest! {
        /// Slice-by-8 equals the byte-serial reference for every input
        /// length (covering the chunk path, the tail path, and both
        /// polynomials).
        #[test]
        fn slice_by_8_matches_byte_serial(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
            for poly in [0xedb8_8320u32, 0x82f6_3b78] {
                let mut c = if poly == 0xedb8_8320 {
                    Crc32Fold::ieee()
                } else {
                    Crc32Fold::castagnoli()
                };
                c.update(&bytes);
                prop_assert_eq!(c.finish(), crc32_byte_serial(poly, &bytes));
            }
        }

        /// The four-lane interleaved fold is bit-identical to four scalar
        /// computations, for both polynomials and any stream content.
        #[test]
        fn x4_matches_four_scalar_folds(
            keys in prop::collection::vec(prop::collection::vec(any::<u64>(), 3), 4)
        ) {
            let refs: [&[u64]; 4] = [&keys[0], &keys[1], &keys[2], &keys[3]];
            let batch = crc32_words_x4(refs);
            for lane in 0..4 {
                prop_assert_eq!(
                    u64::from(batch[lane]),
                    hash_words(HashAlgo::Crc32, refs[lane]),
                    "lane {} diverged", lane
                );
            }

            let mut c4 = Crc32FoldX4::castagnoli();
            for (((a, b), c), d) in keys[0].iter().zip(&keys[1]).zip(&keys[2]).zip(&keys[3]) {
                c4.fold8([
                    a.to_be_bytes(),
                    b.to_be_bytes(),
                    c.to_be_bytes(),
                    d.to_be_bytes(),
                ]);
            }
            let batch_c = c4.finish();
            for lane in 0..4 {
                prop_assert_eq!(
                    u64::from(batch_c[lane]),
                    hash_words(HashAlgo::Crc32c, refs[lane]),
                    "castagnoli lane {} diverged", lane
                );
            }
        }

        /// The eight-lane interleaved fold is bit-identical to eight
        /// scalar computations, for both polynomials and any stream
        /// content.
        #[test]
        fn x8_matches_eight_scalar_folds(
            keys in prop::collection::vec(prop::collection::vec(any::<u64>(), 3), 8)
        ) {
            let refs: [&[u64]; 8] = std::array::from_fn(|i| keys[i].as_slice());
            let batch = crc32_words_x8(refs);
            for lane in 0..8 {
                prop_assert_eq!(
                    u64::from(batch[lane]),
                    hash_words(HashAlgo::Crc32, refs[lane]),
                    "lane {} diverged", lane
                );
            }

            let mut c8 = Crc32FoldX8::castagnoli();
            // One eight-lane column of big-endian bytes per key word.
            let columns = (0..keys[0].len())
                .map(|i| std::array::from_fn(|lane| keys[lane][i].to_be_bytes()));
            for column in columns {
                c8.fold8(column);
            }
            let batch_c = c8.finish();
            for lane in 0..8 {
                prop_assert_eq!(
                    u64::from(batch_c[lane]),
                    hash_words(HashAlgo::Crc32c, refs[lane]),
                    "castagnoli lane {} diverged", lane
                );
            }
        }

        /// `hash_words` (one fold per word) equals the byte-serial
        /// reference over the concatenated big-endian bytes.
        #[test]
        fn hash_words_matches_byte_serial(words in prop::collection::vec(any::<u64>(), 0..8)) {
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
            prop_assert_eq!(
                hash_words(HashAlgo::Crc32, &words),
                u64::from(crc32_byte_serial(0xedb8_8320, &bytes))
            );
            prop_assert_eq!(
                hash_words(HashAlgo::Crc32c, &words),
                u64::from(crc32_byte_serial(0x82f6_3b78, &bytes))
            );
        }
    }
}
