//! Hash configuration of the counter-based query engine (§5.2).
//!
//! [`HashConfig`] is carried by the IR (`FpConfig`) because every backend
//! needs it: the sim builder programs the cuckoo externs from it, the P4
//! backend sizes its register arrays from it, and the compiler's
//! false-positive precompute (`ht-ntapi`'s `fp` module) enumerates
//! colliding key pairs with it.
//!
//! The scalar hashes ([`HashConfig::digest`], [`HashConfig::h1`],
//! [`HashConfig::h2`], and the fused [`HashConfig::triple`]) are the data
//! plane's definition.  The precompute hashes a whole space through
//! [`HashConfig::digest_h1_batch`] instead: one packed `(digest, h1)` word
//! per key, with `h2` left to be derived once per digest group from
//! `h2 = h1 ^ alt_bucket(0, digest)`.

use crate::KeySpace;
use ht_asic::hash::{crc32_words_x8, hash_words, Crc32Fold, HashAlgo};

/// FNV-1a 64-bit offset basis and prime (the digest hash).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hash configuration of one compiled query's cuckoo engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashConfig {
    /// Each of the two cuckoo arrays has `2^array_bits` slots.
    pub array_bits: u32,
    /// Stored digest width in bits (16 or 32 in the paper's Fig. 17).
    pub digest_bits: u32,
}

impl Default for HashConfig {
    fn default() -> Self {
        HashConfig { array_bits: 16, digest_bits: 16 }
    }
}

impl HashConfig {
    /// First cuckoo bucket of a key.
    pub fn h1(&self, key: &[u64]) -> u64 {
        hash_words(HashAlgo::Crc32, key) & ((1 << self.array_bits) - 1)
    }

    /// Second cuckoo bucket of a key: partial-key cuckoo hashing,
    /// `h2 = h1 XOR H(digest)` (Cuckoo Filter, the paper's reference \[70\]).  Storing
    /// only the digest still lets an eviction compute the alternate bucket,
    /// which full-key cuckoo hashing could not do on the data plane.
    ///
    /// Invariant: `h2(key) == alt_bucket(h1(key), digest(key))` — this is
    /// the relation the data plane relies on during evictions, and
    /// [`triple`](Self::triple) preserves it while hashing the key only
    /// once.
    pub fn h2(&self, key: &[u64]) -> u64 {
        self.triple(key).2
    }

    /// Computes `(digest, h1, h2)` of a key in one pass.
    ///
    /// `digest`, `h1`, and `h2` called separately walk the key bytes five
    /// times (`h2` recomputes both of the others internally); this fuses
    /// the FNV-1a digest and the CRC-32 bucket into a single byte walk
    /// and derives `h2` from the invariant
    /// `h2 = alt_bucket(h1, digest)` — one extra 8-byte CRC-32C over the
    /// digest instead of a third pass over the key.
    pub fn triple(&self, key: &[u64]) -> (u64, u64, u64) {
        let (digest, h1) = self.digest_h1(key);
        (digest, h1, self.alt_bucket(h1, digest))
    }

    /// `(digest, h1)` of a key in one walk over its bytes.
    fn digest_h1(&self, key: &[u64]) -> (u64, u64) {
        let mut crc = Crc32Fold::ieee();
        let mut fnv: u64 = FNV_OFFSET;
        for w in key {
            let bytes = w.to_be_bytes();
            crc.fold8(bytes);
            for b in bytes {
                fnv = (fnv ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
        }
        (fnv & self.digest_mask(), u64::from(crc.finish()) & self.bucket_mask())
    }

    /// The packed `(digest, h1)` word of every key of a space, in index
    /// order: `digest << 32 | h1`.
    ///
    /// This is the false-positive precompute's only pass over the keys.
    /// `h2` is left out: within one digest group it is `h1` XOR a
    /// per-digest constant (`alt_bucket(0, digest)`), so the precompute
    /// derives it once per group instead of once per key.  Keys go eight
    /// at a time through the interleaved CRC fold
    /// ([`Crc32FoldX8`](ht_asic::hash::Crc32FoldX8)), and eight FNV-1a
    /// accumulators advance in lockstep per key word so the digest
    /// multiply latency overlaps across lanes; the remainder goes through
    /// the scalar fold.  Identical to packing `(digest(k), h1(k))`.
    ///
    /// # Panics
    /// If `digest_bits > 32` (the packed word has 32 bits for each half;
    /// `h1` is a CRC-32 and always fits).
    pub fn digest_h1_batch(&self, space: &KeySpace) -> Vec<u64> {
        assert!(self.digest_bits <= 32, "packed (digest, h1) words need digest_bits <= 32");
        let pack = |(digest, h1): (u64, u64)| digest << 32 | h1;
        let (digest_mask, bucket_mask) = (self.digest_mask(), self.bucket_mask());
        let mut keys = space.iter();
        let mut out = Vec::with_capacity(space.len());
        for _ in 0..space.len() / 8 {
            let lanes: [&[u64]; 8] = std::array::from_fn(|_| keys.next().expect("eight keys"));
            let crcs = crc32_words_x8(lanes);
            let mut fnv = [FNV_OFFSET; 8];
            for w in 0..space.width() {
                let bytes = lanes.map(|key| key[w].to_be_bytes());
                for b in 0..8 {
                    for (acc, lane) in fnv.iter_mut().zip(&bytes) {
                        *acc = (*acc ^ u64::from(lane[b])).wrapping_mul(FNV_PRIME);
                    }
                }
            }
            for (acc, crc) in fnv.into_iter().zip(crcs) {
                out.push(pack((acc & digest_mask, u64::from(crc) & bucket_mask)));
            }
        }
        out.extend(keys.map(|key| pack(self.digest_h1(key))));
        out
    }

    /// The alternate bucket of a stored `(bucket, digest)` pair — usable
    /// during eviction without knowing the full key.
    pub fn alt_bucket(&self, bucket: u64, digest: u64) -> u64 {
        let mask = self.bucket_mask();
        let off = hash_words(HashAlgo::Crc32c, &[digest]) & mask;
        // A zero offset would make h2 == h1 (one candidate bucket); force a
        // non-zero offset the way cuckoo-filter implementations do.
        (bucket ^ off.max(1)) & mask
    }

    /// Stored digest of a key.
    ///
    /// Must be *independent* of the bucket hashes: CRCs over the same data
    /// are linear maps, so deriving the digest from the same polynomial
    /// (even with a different seed or prefix) makes every same-digest pair
    /// also share a bucket, defeating the scheme.  Real deployments use a
    /// CRC with a custom polynomial; the reproduction stands in FNV-1a,
    /// which is non-linear in the key bytes.
    pub fn digest(&self, key: &[u64]) -> u64 {
        let mut h: u64 = FNV_OFFSET;
        for w in key {
            for b in w.to_be_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
        }
        h & self.digest_mask()
    }

    fn digest_mask(&self) -> u64 {
        (1u64 << self.digest_bits) - 1
    }

    fn bucket_mask(&self) -> u64 {
        (1u64 << self.array_bits) - 1
    }

    /// Memory of one exact-match entry in bits: full key + action.
    pub fn exact_entry_bits(&self, key_fields: usize) -> u64 {
        key_fields as u64 * 32 + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_independent_of_buckets() {
        let cfg = HashConfig::default();
        let k = vec![1234u64, 80];
        assert_ne!(cfg.digest(&k), cfg.h1(&k));
        assert!(cfg.digest(&k) < 1 << 16);
        assert!(cfg.h1(&k) < 1 << 16);
        assert_ne!(cfg.h1(&k), cfg.h2(&k));
    }

    #[test]
    fn triple_agrees_with_individual_hashes() {
        for cfg in [
            HashConfig::default(),
            HashConfig { array_bits: 14, digest_bits: 32 },
            HashConfig { array_bits: 20, digest_bits: 8 },
        ] {
            for key in [vec![], vec![7u64], vec![1234, 80], vec![u64::MAX, 0, 42]] {
                let (d, h1, h2) = cfg.triple(&key);
                assert_eq!(d, cfg.digest(&key));
                assert_eq!(h1, cfg.h1(&key));
                assert_eq!(h2, cfg.h2(&key));
                assert_eq!(h2, cfg.alt_bucket(h1, d), "h2 = alt_bucket(h1, digest)");
            }
        }
    }

    #[test]
    fn alt_bucket_is_the_bucket_xor_a_per_digest_offset() {
        // The precompute derives h2 once per digest group from this.
        for cfg in [HashConfig::default(), HashConfig { array_bits: 4, digest_bits: 32 }] {
            for digest in [0u64, 1, 77, (1 << cfg.digest_bits) - 1] {
                let offset = cfg.alt_bucket(0, digest);
                assert_ne!(offset, 0, "two distinct candidate buckets");
                for bucket in [0u64, 5, (1 << cfg.array_bits) - 1] {
                    assert_eq!(cfg.alt_bucket(bucket, digest), bucket ^ offset);
                }
            }
        }
    }

    /// `(digest, h1)` packed the way `digest_h1_batch` packs it.
    fn packed(cfg: &HashConfig, key: &[u64]) -> u64 {
        cfg.digest(key) << 32 | cfg.h1(key)
    }

    #[test]
    fn digest_h1_batch_matches_scalar_hashes() {
        // 19 keys: two full x8 blocks plus a 3-key scalar tail.
        for cfg in [
            HashConfig::default(),
            HashConfig { array_bits: 14, digest_bits: 10 },
            HashConfig { array_bits: 20, digest_bits: 32 },
        ] {
            let mut space = KeySpace::new(2);
            for i in 0..19u64 {
                space.push(&[i.wrapping_mul(0x9e37_79b9_7f4a_7c15), 80 + i]);
            }
            let batch = cfg.digest_h1_batch(&space);
            let scalar: Vec<u64> = space.iter().map(|k| packed(&cfg, k)).collect();
            assert_eq!(batch, scalar);
        }
    }

    #[test]
    fn digest_h1_batch_handles_tiny_spaces() {
        let cfg = HashConfig::default();
        for n in 0..8u64 {
            let mut space = KeySpace::new(1);
            for i in 0..n {
                space.push(&[i]);
            }
            let batch = cfg.digest_h1_batch(&space);
            let scalar: Vec<u64> = space.iter().map(|k| packed(&cfg, k)).collect();
            assert_eq!(batch, scalar);
        }
    }

    #[test]
    #[should_panic(expected = "digest_bits <= 32")]
    fn digest_h1_batch_rejects_wide_digests() {
        HashConfig { array_bits: 16, digest_bits: 33 }.digest_h1_batch(&KeySpace::new(1));
    }
}
