//! Flat key spaces for the false-positive precompute (§5.2).
//!
//! The precompute and the Fig. 17 experiment enumerate millions of keys,
//! each a fixed-width tuple of `u64` field values.  Representing that as
//! `Vec<Vec<u64>>` costs one heap allocation per key; [`KeySpace`] stores
//! all keys in a single contiguous buffer with the width factored out, so
//! building and iterating a two-million-key space touches exactly one
//! allocation and rows are handed out as `&[u64]` slices.
//!
//! Header spaces are built ascending and duplicate-free, so their union
//! ([`KeySpace::union_sorted`]) is a merge that copies whole runs of rows
//! rather than a sort: a part that sorts entirely before the other costs
//! one `memcpy`, and a single part is returned as is.

use std::cmp::Ordering;

/// A set of fixed-width keys in one contiguous `u64` buffer.
///
/// Row `i` occupies `buf[i*width .. (i+1)*width]`.  The key count is
/// tracked explicitly so zero-width keys (an empty `distinct(keys=[])`
/// list is expressible in the surface syntax) still have a well-defined
/// length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeySpace {
    width: usize,
    len: usize,
    buf: Vec<u64>,
}

impl KeySpace {
    /// An empty key space whose keys will have `width` fields each.
    pub fn new(width: usize) -> Self {
        KeySpace { width, len: 0, buf: Vec::new() }
    }

    /// An empty key space with room for `keys` keys pre-allocated.
    pub fn with_capacity(width: usize, keys: usize) -> Self {
        KeySpace { width, len: 0, buf: Vec::with_capacity(width * keys) }
    }

    /// A space over an existing flat buffer of `buf.len() / width` keys.
    ///
    /// # Panics
    /// If `width` is zero or does not divide `buf.len()`.
    pub fn from_flat(width: usize, buf: Vec<u64>) -> Self {
        assert!(width > 0 && buf.len().is_multiple_of(width), "flat buffer is not whole keys");
        KeySpace { width, len: buf.len() / width, buf }
    }

    /// Appends one key.
    ///
    /// # Panics
    /// If `key.len()` differs from the space's width.
    pub fn push(&mut self, key: &[u64]) {
        assert_eq!(key.len(), self.width, "key width mismatch");
        self.buf.extend_from_slice(key);
        self.len += 1;
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the space holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Fields per key.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The `i`-th key as a slice.
    ///
    /// # Panics
    /// If `i` is out of bounds.
    pub fn key(&self, i: usize) -> &[u64] {
        assert!(i < self.len, "key index {i} out of bounds (len {})", self.len);
        &self.buf[i * self.width..(i + 1) * self.width]
    }

    /// Iterates over the keys in index order.
    pub fn iter(&self) -> impl Iterator<Item = &[u64]> + '_ {
        let w = self.width;
        (0..self.len).map(move |i| &self.buf[i * w..(i + 1) * w])
    }

    /// Builds a space from cloned rows (all rows must share one width).
    ///
    /// # Panics
    /// If the rows have differing lengths.
    pub fn from_rows(rows: &[Vec<u64>]) -> Self {
        let width = rows.first().map_or(0, Vec::len);
        let mut s = KeySpace::with_capacity(width, rows.len());
        for r in rows {
            s.push(r);
        }
        s
    }

    /// Clones the keys back out as rows (compat with `Vec<Vec<u64>>` APIs).
    pub fn to_rows(&self) -> Vec<Vec<u64>> {
        self.iter().map(<[u64]>::to_vec).collect()
    }

    /// The union of spaces whose keys each ascend strictly
    /// (lexicographically, without duplicates); the result ascends
    /// strictly too — the same rows, in the same order, as concatenating
    /// the parts, sorting and deduplicating.
    ///
    /// Parts merge pairwise in a balanced tree, so `k` parts of `n` keys in
    /// total cost `O(n log k)` row copies.  Each pairwise merge copies
    /// whole runs: it gallops to the end of the run of one side that sorts
    /// below the other side's head and appends those rows in one slice
    /// copy.  A lone part is returned without copying.
    ///
    /// # Panics
    /// If a part's width differs from `width`.  An unsorted part is a logic
    /// error caught only by debug assertions.
    pub fn union_sorted(width: usize, parts: Vec<KeySpace>) -> KeySpace {
        let mut parts: Vec<KeySpace> = parts.into_iter().filter(|p| !p.is_empty()).collect();
        for p in &parts {
            assert_eq!(p.width, width, "key width mismatch");
            debug_assert!(p.is_strictly_ascending(), "union_sorted needs ascending parts");
        }
        while parts.len() > 1 {
            let mut next = Vec::with_capacity(parts.len().div_ceil(2));
            let mut it = parts.into_iter();
            while let Some(a) = it.next() {
                next.push(match it.next() {
                    Some(b) => union2(&a, &b),
                    None => a,
                });
            }
            parts = next;
        }
        parts.pop().unwrap_or_else(|| KeySpace::new(width))
    }

    /// Whether every key is strictly greater than the one before it.
    pub fn is_strictly_ascending(&self) -> bool {
        (1..self.len).all(|i| self.key(i - 1) < self.key(i))
    }

    /// Appends keys `from..to` of `other` in one slice copy.
    fn extend_rows(&mut self, other: &KeySpace, from: usize, to: usize) {
        self.buf.extend_from_slice(&other.buf[from * other.width..to * other.width]);
        self.len += to - from;
    }

    /// The first index at or after `from` whose key is not below `bound`,
    /// given that the keys ascend and `key(from) < bound`.  Gallops, so a
    /// run of `r` keys costs `O(log r)` comparisons.
    fn run_end(&self, from: usize, bound: &[u64]) -> usize {
        // Invariant: row(lo) < bound, and hi == len or row(hi) >= bound.
        let (mut lo, mut step) = (from, 1);
        let mut hi = loop {
            let probe = lo + step;
            if probe >= self.len {
                break self.len;
            }
            if self.key(probe) >= bound {
                break probe;
            }
            lo = probe;
            step *= 2;
        };
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.key(mid) < bound {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }
}

/// The union of two strictly ascending spaces of one width.
fn union2(a: &KeySpace, b: &KeySpace) -> KeySpace {
    let mut out = KeySpace::with_capacity(a.width, a.len + b.len);
    let (mut i, mut j) = (0, 0);
    while i < a.len && j < b.len {
        match a.key(i).cmp(b.key(j)) {
            Ordering::Less => {
                let end = a.run_end(i, b.key(j));
                out.extend_rows(a, i, end);
                i = end;
            }
            Ordering::Greater => {
                let end = b.run_end(j, a.key(i));
                out.extend_rows(b, j, end);
                j = end;
            }
            Ordering::Equal => {
                out.extend_rows(a, i, i + 1);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_rows(a, i, a.len);
    out.extend_rows(b, j, b.len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_iterate() {
        let mut s = KeySpace::new(2);
        s.push(&[1, 2]);
        s.push(&[3, 4]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.width(), 2);
        assert_eq!(s.key(0), &[1, 2]);
        assert_eq!(s.key(1), &[3, 4]);
        let rows: Vec<&[u64]> = s.iter().collect();
        assert_eq!(rows, vec![&[1u64, 2][..], &[3, 4]]);
    }

    #[test]
    fn round_trips_rows() {
        let rows = vec![vec![5u64, 6], vec![7, 8], vec![1, 2]];
        let s = KeySpace::from_rows(&rows);
        assert_eq!(s.to_rows(), rows);
    }

    /// Sorted, deduplicated rows: the reference `union_sorted` must match.
    fn sorted_union(parts: &[Vec<Vec<u64>>]) -> Vec<Vec<u64>> {
        let mut all: Vec<Vec<u64>> = parts.concat();
        all.sort_unstable();
        all.dedup();
        all
    }

    fn ascending(mut rows: Vec<Vec<u64>>) -> KeySpace {
        rows.sort_unstable();
        rows.dedup();
        KeySpace::from_rows(&rows)
    }

    #[test]
    fn union_sorted_matches_sort_dedup_of_rows() {
        let parts = vec![
            vec![vec![1u64, 2], vec![3, 1], vec![5, 0]],
            vec![vec![1, 1], vec![1, 2], vec![3, 1], vec![9, 9]],
            vec![vec![0, 0]],
            vec![],
            vec![vec![2, 0], vec![4, 0], vec![5, 0], vec![6, 0]],
        ];
        let spaces: Vec<KeySpace> = parts.iter().map(|p| ascending(p.clone())).collect();
        let u = KeySpace::union_sorted(2, spaces);
        assert_eq!(u.to_rows(), sorted_union(&parts));
        assert!(u.is_strictly_ascending());
    }

    #[test]
    fn union_sorted_copies_long_runs_and_interleaves() {
        // One part entirely below the other, one interleaved row by row,
        // and one sharing a single key with a long run.
        let evens: Vec<Vec<u64>> = (0..500).map(|i| vec![2 * i]).collect();
        let odds: Vec<Vec<u64>> = (0..500).map(|i| vec![2 * i + 1]).collect();
        let high: Vec<Vec<u64>> = (1000..3000).map(|i| vec![i]).collect();
        let probe = vec![vec![1500u64]];
        let parts = vec![evens, odds, high, probe];
        let spaces: Vec<KeySpace> = parts.iter().map(|p| KeySpace::from_rows(p)).collect();
        let u = KeySpace::union_sorted(1, spaces);
        assert_eq!(u.to_rows(), sorted_union(&parts));
        assert_eq!(u.len(), 3000);
    }

    #[test]
    fn union_sorted_of_nothing_is_empty() {
        let u = KeySpace::union_sorted(3, vec![]);
        assert!(u.is_empty());
        assert_eq!(u.width(), 3);
        let lone = KeySpace::from_rows(&[vec![4u64], vec![7]]);
        assert_eq!(KeySpace::union_sorted(1, vec![KeySpace::new(1), lone.clone()]), lone);
    }

    #[test]
    fn from_flat_splits_whole_keys() {
        let s = KeySpace::from_flat(2, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.key(2), &[5, 6]);
    }

    #[test]
    fn zero_width_keys_are_supported() {
        let mut s = KeySpace::new(0);
        s.push(&[]);
        s.push(&[]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.key(1), &[] as &[u64]);
        assert_eq!(s.iter().count(), 2);
        let mut one = KeySpace::new(0);
        one.push(&[]);
        let u = KeySpace::union_sorted(0, vec![one.clone(), one]);
        assert_eq!(u.len(), 1, "zero-width keys are all duplicates");
    }

    #[test]
    #[should_panic(expected = "key width mismatch")]
    fn push_rejects_wrong_width() {
        let mut s = KeySpace::new(2);
        s.push(&[1]);
    }
}
