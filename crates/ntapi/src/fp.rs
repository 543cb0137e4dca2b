//! False-positive precompute for the counter-based query engine (§5.2,
//! Fig. 4 and Fig. 17).
//!
//! The data-plane `distinct`/`reduce` store a hashed *digest* of the key in
//! a cuckoo slot instead of the full key.  Two distinct keys collide — a
//! false positive — when they share a digest **and** at least one candidate
//! bucket, so a packet of one key could match the stored digest of the
//! other.  Because the tester's header space is enumerable, every such pair
//! is found before the task starts; one key of each colliding pair is
//! diverted to the *exact key matching* table, making the engine
//! false-positive-free.
//!
//! [`compute_fp_indices`] implements the precompute over a flat
//! [`KeySpace`] as three sequential passes over compact words:
//!
//! 1. **Hash.** `HashConfig::digest_h1_batch` walks the keys once (eight
//!    at a time through the interleaved CRC fold) and writes one packed
//!    `digest << 32 | h1` word per key.
//! 2. **Group.** A stable sort by digest places `h1 << 32 | index`
//!    records in digest order, index order within a digest: a counting
//!    sort for digests of up to 20 bits, a
//!    comparison sort of `digest << 32 | index` keys above that (keeping
//!    records only for digests shared by two or more keys).
//! 3. **Scan.** Each digest group is read in order.  Its alternate-bucket
//!    offset is computed once, since `h2 = h1 ^ alt_bucket(0, digest)`,
//!    and a bitset of the buckets the group's kept keys claim decides each
//!    key; the bits are cleared through a list of the words touched.
//!
//! No hash map, no per-key allocation, no random reads into per-key
//! state: 8 bytes per key for the packed words, 8 for the records, plus
//! the keys themselves (8 bytes per key field).  [`compute_fp_entries`] is the row-cloning
//! compatibility wrapper.  The Fig. 17 experiment measures the
//! diverted-entry count against the flow count, array size and digest
//! width.

use std::ops::Range;

// `HashConfig` moved to `ht-ir` (it is carried by the IR's `FpConfig` and
// consumed by every backend); re-exported here under its original path,
// alongside the flat key-space representation.
pub use ht_ir::{HashConfig, KeySpace};

/// Digest widths up to this many bits group via counting sort (a 2^20
/// counter array is 4 MB); wider digests fall back to a comparison sort.
const COUNTING_SORT_MAX_BITS: u32 = 20;

/// Low 32 bits of a packed word.
const LOW: u64 = 0xffff_ffff;

/// Computes the exact-key-matching entries for a key space, returned as
/// sorted indices into `space`: for every pair of distinct keys with equal
/// digests and overlapping candidate buckets, one key is diverted to the
/// exact table.
///
/// Within a digest group, keys are taken in index order; a key is diverted
/// when one of its two buckets is already claimed by a key kept earlier in
/// the group (the paper: "puts either tcp.dp=80 or tcp.dp=81 in the exact
/// key matching table"), and kept — claiming both buckets — otherwise.
/// Runs in `O(n)` time for digests of up to 20 bits (`O(n log n)`
/// above); false-positive pairs are rare by construction, so groups are
/// tiny.
///
/// # Panics
/// If `cfg.digest_bits > 32` or the space has `2^32` keys or more.
pub fn compute_fp_indices(space: &KeySpace, cfg: &HashConfig) -> Vec<usize> {
    let n = space.len();
    ht_asic::sim::metrics::record_fp_keys(n as u64);
    assert!(u32::try_from(n).is_ok(), "key indices must fit the 32-bit record half");
    let words = cfg.digest_h1_batch(space);
    if cfg.digest_bits <= COUNTING_SORT_MAX_BITS {
        let (recs, ends) = counting_group(&words, cfg.digest_bits);
        let mut start = 0;
        let groups = ends.iter().enumerate().map(|(digest, &end)| {
            let range = start..end as usize;
            start = end as usize;
            (digest as u64, range)
        });
        divert(&recs, groups, cfg)
    } else {
        let (recs, groups) = comparison_group(&words);
        divert(&recs, groups.into_iter(), cfg)
    }
}

/// Counting sort of the packed words by digest: `h1 << 32 | index`
/// records in digest order (index order within a digest), and the end of
/// each digest's run of records, indexed by digest.
fn counting_group(words: &[u64], digest_bits: u32) -> (Vec<u64>, Vec<u32>) {
    let mut next = vec![0u32; 1 << digest_bits];
    for &w in words {
        next[(w >> 32) as usize] += 1;
    }
    let mut sum = 0;
    for slot in &mut next {
        let count = *slot;
        *slot = sum;
        sum += count;
    }
    let mut recs = vec![0u64; words.len()];
    for (i, &w) in words.iter().enumerate() {
        let slot = &mut next[(w >> 32) as usize];
        recs[*slot as usize] = (w & LOW) << 32 | i as u64;
        *slot += 1;
    }
    // Each digest's cursor now sits at the end of its run.
    (recs, next)
}

/// Comparison sort of the packed words by digest: `h1 << 32 | index`
/// records of every digest shared by two or more keys (index order within
/// a digest), and each such digest with its range of records.
fn comparison_group(words: &[u64]) -> (Vec<u64>, Vec<(u64, Range<usize>)>) {
    // Sorting `digest << 32 | index` orders by digest, then index.
    let mut keyed: Vec<u64> = words.iter().enumerate().map(|(i, &w)| w & !LOW | i as u64).collect();
    keyed.sort_unstable();
    let mut recs = Vec::new();
    let mut groups = Vec::new();
    for run in keyed.chunk_by(|a, b| a >> 32 == b >> 32).filter(|run| run.len() >= 2) {
        let start = recs.len();
        recs.extend(run.iter().map(|&k| (words[(k & LOW) as usize] & LOW) << 32 | k & LOW));
        groups.push((run[0] >> 32, start..recs.len()));
    }
    (recs, groups)
}

/// The greedy diversion over digest groups of `h1 << 32 | index` records:
/// returns the diverted indices, sorted.
///
/// `claimed` holds one bit per bucket (`2^array_bits` bits, 1/256 of the
/// cuckoo registers the same configuration allocates); it is exact, so a
/// key collides precisely when `{h1, h2}` meets the buckets of the keys
/// its group has kept.
fn divert(
    recs: &[u64],
    groups: impl Iterator<Item = (u64, Range<usize>)>,
    cfg: &HashConfig,
) -> Vec<usize> {
    let mut claimed = vec![0u64; (1usize << cfg.array_bits).div_ceil(64)];
    let mut touched: Vec<usize> = Vec::new();
    let mut diverted = Vec::new();
    for (digest, range) in groups.filter(|(_, range)| range.len() >= 2) {
        // h2 = alt_bucket(h1, digest) = h1 ^ alt_bucket(0, digest).
        let offset = cfg.alt_bucket(0, digest);
        for &r in &recs[range] {
            let h1 = r >> 32;
            let buckets = [h1 as usize, (h1 ^ offset) as usize];
            if buckets.iter().any(|&b| (claimed[b / 64] >> (b % 64)) & 1 == 1) {
                diverted.push((r & LOW) as usize);
            } else {
                for b in buckets {
                    claimed[b / 64] |= 1 << (b % 64);
                    touched.push(b / 64);
                }
            }
        }
        for w in touched.drain(..) {
            claimed[w] = 0;
        }
    }
    diverted.sort_unstable();
    diverted
}

/// Compatibility wrapper over [`compute_fp_indices`] for row-based callers:
/// clones the diverted keys out of the space.
pub fn compute_fp_entries(space: &[Vec<u64>], cfg: &HashConfig) -> Vec<Vec<u64>> {
    if space.is_empty() {
        return Vec::new();
    }
    let flat = KeySpace::from_rows(space);
    compute_fp_indices(&flat, cfg).into_iter().map(|i| flat.key(i).to_vec()).collect()
}

/// True when `key` would be ambiguous against `other` under `cfg` — the
/// property the precompute guarantees never survives into the cuckoo path.
pub fn is_false_positive_pair(a: &[u64], b: &[u64], cfg: &HashConfig) -> bool {
    a != b
        && cfg.digest(a) == cfg.digest(b)
        && (cfg.h1(a) == cfg.h1(b)
            || cfg.h1(a) == cfg.h2(b)
            || cfg.h2(a) == cfg.h1(b)
            || cfg.h2(a) == cfg.h2(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};

    /// The precompute in its original formulation, as the differential
    /// oracle: per-digest groups in index order, each key hashed to its
    /// full `(digest, h1, h2)` triple and diverted when `{h1, h2}` meets a
    /// bucket of a key already kept in its group (a linear `kept` scan).
    fn reference_indices(space: &KeySpace, cfg: &HashConfig) -> Vec<usize> {
        let mut groups: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, key) in space.iter().enumerate() {
            groups.entry(cfg.digest(key)).or_default().push(i);
        }
        let mut diverted = Vec::new();
        for members in groups.values() {
            let mut kept: Vec<(u64, u64)> = Vec::new();
            for &i in members {
                let (_, h1, h2) = cfg.triple(space.key(i));
                if kept.iter().any(|&(k1, k2)| h1 == k1 || h1 == k2 || h2 == k1 || h2 == k2) {
                    diverted.push(i);
                } else {
                    kept.push((h1, h2));
                }
            }
        }
        diverted.sort_unstable();
        diverted
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `compute_fp_indices` diverts exactly the keys the original
        /// formulation diverts, through both grouping sorts (digests of
        /// 8–20 bits count, 21 and 32 compare), bucket arrays from 16 to
        /// 2^20 slots, and key counts that leave a scalar hashing tail.
        /// Narrow field domains repeat keys, so every digest width sees
        /// multi-key groups.
        #[test]
        fn matches_the_original_formulation(
            digest_bits in prop::sample::select(vec![8u32, 16, 20, 21, 32]),
            array_bits in prop::sample::select(vec![4u32, 10, 16, 20]),
            width in 1usize..=3,
            (blocks, tail) in (0usize..300, 1usize..8),
            domain_bits in prop::sample::select(vec![4u32, 12, 64]),
            seed in any::<u64>(),
        ) {
            let cfg = HashConfig { array_bits, digest_bits };
            let mask = if domain_bits == 64 { u64::MAX } else { (1 << domain_bits) - 1 };
            let mut x = seed;
            let mut space = KeySpace::new(width);
            for _ in 0..8 * blocks + tail {
                let key: Vec<u64> = (0..width)
                    .map(|_| {
                        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                        let z = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                        (z ^ (z >> 27)) & mask
                    })
                    .collect();
                space.push(&key);
            }
            prop_assert_eq!(compute_fp_indices(&space, &cfg), reference_indices(&space, &cfg));
        }
    }

    fn space(n: u64) -> Vec<Vec<u64>> {
        (0..n).map(|i| vec![i, 80]).collect()
    }

    #[test]
    fn small_spaces_have_no_false_positives() {
        let cfg = HashConfig { array_bits: 16, digest_bits: 16 };
        // 1000 keys over a 2^16 × 2^16 (bucket × digest) space: collision
        // probability per pair ≈ 4/2^28 — effectively zero.
        let entries = compute_fp_entries(&space(1_000), &cfg);
        assert!(entries.is_empty(), "unexpected fp entries: {}", entries.len());
    }

    #[test]
    fn large_spaces_yield_few_entries() {
        let cfg = HashConfig { array_bits: 16, digest_bits: 16 };
        let n = 200_000;
        let entries = compute_fp_entries(&space(n), &cfg);
        // Expected pairs ≈ C(n,2) · 4 / (2^16 · 2^16) ≈ 18.6 for n = 200k.
        assert!(!entries.is_empty(), "expected a handful of collisions");
        assert!(entries.len() < 200, "too many entries: {}", entries.len());
    }

    #[test]
    fn wider_digest_reduces_entries() {
        let n = 300_000;
        let narrow = compute_fp_entries(&space(n), &HashConfig { array_bits: 16, digest_bits: 16 });
        let wide = compute_fp_entries(&space(n), &HashConfig { array_bits: 16, digest_bits: 32 });
        assert!(wide.len() < narrow.len().max(1), "wide {} narrow {}", wide.len(), narrow.len());
    }

    #[test]
    fn indices_match_cloning_wrapper() {
        // A digest just past `COUNTING_SORT_MAX_BITS` exercises the
        // comparison-sort grouping path (with a tiny bucket array so digest
        // groups still collide); a narrow digest the counting sort.  Both
        // must agree with the wrapper.  Pseudorandom keys, not sequential:
        // FNV over sequential values is nearly injective in its low ~21
        // bits, so sequential spaces produce no wide-digest collisions.
        let mut x = 0x243f_6a88_85a3_08d3u64; // splitmix64 stream
        let rows: Vec<Vec<u64>> = (0..40_000)
            .map(|_| {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                vec![z ^ (z >> 31), 80]
            })
            .collect();
        for cfg in [
            HashConfig { array_bits: 10, digest_bits: 8 },
            HashConfig { array_bits: 4, digest_bits: COUNTING_SORT_MAX_BITS + 1 },
        ] {
            let flat = KeySpace::from_rows(&rows);
            let idx = compute_fp_indices(&flat, &cfg);
            let entries = compute_fp_entries(&rows, &cfg);
            assert!(!idx.is_empty(), "want collisions for {cfg:?}");
            assert_eq!(idx.len(), entries.len());
            for (i, e) in idx.iter().zip(&entries) {
                assert_eq!(flat.key(*i), &e[..]);
            }
            assert!(idx.windows(2).all(|w| w[0] < w[1]), "indices sorted & distinct");
        }
    }

    #[test]
    fn empty_space_yields_nothing() {
        let cfg = HashConfig::default();
        assert!(compute_fp_entries(&[], &cfg).is_empty());
        assert!(compute_fp_indices(&KeySpace::new(0), &cfg).is_empty());
    }

    #[test]
    fn diverted_keys_really_collide_with_a_kept_key() {
        let cfg = HashConfig { array_bits: 10, digest_bits: 8 }; // tiny → lots of collisions
        let s = space(2_000);
        let entries = compute_fp_entries(&s, &cfg);
        assert!(!entries.is_empty());
        for e in entries.iter().take(20) {
            let collides = s.iter().any(|k| is_false_positive_pair(e, k, &cfg));
            assert!(collides, "diverted key {e:?} collides with nothing");
        }
    }

    #[test]
    fn after_diversion_no_fp_pair_survives() {
        let cfg = HashConfig { array_bits: 10, digest_bits: 8 };
        let s = space(2_000);
        let entries = compute_fp_entries(&s, &cfg);
        let diverted: std::collections::HashSet<&Vec<u64>> = entries.iter().collect();
        let kept: Vec<&Vec<u64>> = s.iter().filter(|k| !diverted.contains(k)).collect();
        // Group kept keys by digest and verify pairwise within groups.
        let mut by_digest: HashMap<u64, Vec<&Vec<u64>>> = HashMap::new();
        for k in kept {
            by_digest.entry(cfg.digest(k)).or_default().push(k);
        }
        for group in by_digest.values() {
            for (i, a) in group.iter().enumerate() {
                for b in &group[i + 1..] {
                    assert!(!is_false_positive_pair(a, b, &cfg), "surviving fp pair {a:?} / {b:?}");
                }
            }
        }
    }
}
