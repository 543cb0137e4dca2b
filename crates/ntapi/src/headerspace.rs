//! Header-space extraction (§5.2).
//!
//! "The global header space of packets under querying in HyperTester is
//! predictable, and the test packet headers are enumerable.  As sent packets
//! are proactively generated by HyperTester, we can enumerate the packet
//! headers that will appear in HyperTester before the testing tasks start."
//!
//! This module enumerates, for a set of key fields, every key tuple a
//! compiled template can produce — the input to the false-positive
//! precompute of [`crate::fp`].  For queries over *received* traffic the
//! space additionally includes the source/destination-swapped orientation,
//! since responses mirror the sent packets' addresses and ports.
//!
//! Spaces are returned as flat [`KeySpace`]s (one contiguous buffer, no
//! per-key allocation).  Every template's space comes out ascending and
//! duplicate-free: each field's value list is sorted and deduplicated, and
//! the odometer varies the last field fastest.  [`global_space`] therefore
//! merges the templates' spaces ([`KeySpace::union_sorted`]) instead of
//! concatenating and sorting them.

use crate::ast::HeaderField;
use crate::compile::{EditSpec, TemplateSpec};
use ht_asic::phv::mask_for;
use ht_ir::KeySpace;

/// Hard cap on enumerated key tuples; larger spaces are rejected at compile
/// time (the paper evaluates up to ~2M flows in Fig. 17).
pub const MAX_SPACE: usize = 4_000_000;

/// Errors from header-space extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpaceError {
    /// The cross product of per-field value sets exceeds [`MAX_SPACE`].
    TooLarge {
        /// The size that was attempted (saturating).
        attempted: usize,
    },
}

impl std::fmt::Display for SpaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpaceError::TooLarge { attempted } => {
                write!(
                    f,
                    "header space too large to enumerate: {attempted} tuples (max {MAX_SPACE})"
                )
            }
        }
    }
}

impl std::error::Error for SpaceError {}

/// The set of values one field can take in packets of one template,
/// ascending and duplicate-free.
fn field_values(tpl: &TemplateSpec, field: HeaderField) -> Vec<u64> {
    // Editor edits take precedence over the base constant.
    for e in &tpl.edits {
        match e {
            EditSpec::ValueList { field: f, values } if *f == field => {
                let mut v = values.clone();
                v.sort_unstable();
                v.dedup();
                return v;
            }
            EditSpec::Progression { field: f, start, end, step } if *f == field => {
                let mut v = Vec::new();
                let mut x = *start;
                while x <= *end && v.len() <= MAX_SPACE {
                    v.push(x);
                    // Stops at overflow, and after one value for a zero
                    // step (which the compiler rejects) so the list ascends.
                    x = match x.checked_add(*step).filter(|&next| next > x) {
                        Some(n) => n,
                        None => break,
                    };
                }
                return v;
            }
            EditSpec::RandomUniform { field: f, bits, offset } if *f == field => {
                // The switch stores `(draw + offset) & field_mask`, so a
                // span that runs past the field width wraps to low values.
                let mask = mask_for(field.width());
                let n = 1u64 << bits.min(&22);
                let mut v: Vec<u64> = (0..n).map(|i| offset.wrapping_add(i) & mask).collect();
                v.sort_unstable();
                v.dedup();
                return v;
            }
            EditSpec::RandomTable { field: f, values, .. } if *f == field => {
                let mut v = values.clone();
                v.sort_unstable();
                v.dedup();
                return v;
            }
            _ => {}
        }
    }
    // Base constant, or 0 when the template never touches the field.
    vec![tpl.base.iter().find(|(f, _)| *f == field).map(|&(_, v)| v).unwrap_or(0)]
}

fn mirror(field: HeaderField) -> HeaderField {
    match field {
        HeaderField::Sip => HeaderField::Dip,
        HeaderField::Dip => HeaderField::Sip,
        HeaderField::Sport => HeaderField::Dport,
        HeaderField::Dport => HeaderField::Sport,
        HeaderField::EthSrc => HeaderField::EthDst,
        HeaderField::EthDst => HeaderField::EthSrc,
        other => other,
    }
}

/// Enumerates the key tuples of one template over `keys`, ascending and
/// duplicate-free (the postcondition [`global_space`]'s merge relies on).
///
/// With `mirrored`, the tuple is built from each field's *mirror* (src/dst
/// swapped) — the orientation response packets arrive with.
pub fn template_space(
    tpl: &TemplateSpec,
    keys: &[HeaderField],
    mirrored: bool,
) -> Result<KeySpace, SpaceError> {
    let mut per_field: Vec<Vec<u64>> =
        keys.iter().map(|&k| field_values(tpl, if mirrored { mirror(k) } else { k })).collect();
    let mut size: usize = 1;
    for v in &per_field {
        size = size.saturating_mul(v.len());
        if size > MAX_SPACE {
            return Err(SpaceError::TooLarge { attempted: size });
        }
    }
    // The last field varies fastest: its whole value list is one run per
    // combination of the leading fields (an odometer over those).
    let Some(last) = per_field.pop() else {
        let mut out = KeySpace::new(0);
        out.push(&[]);
        return Ok(out);
    };
    if size == 0 {
        return Ok(KeySpace::new(keys.len()));
    }
    let mut buf = Vec::with_capacity(size * keys.len());
    let mut idx = vec![0usize; per_field.len()];
    let mut prefix: Vec<u64> = per_field.iter().map(|v| v[0]).collect();
    loop {
        for &v in &last {
            buf.extend_from_slice(&prefix);
            buf.push(v);
        }
        let mut pos = per_field.len();
        loop {
            if pos == 0 {
                return Ok(KeySpace::from_flat(keys.len(), buf));
            }
            pos -= 1;
            idx[pos] += 1;
            if idx[pos] < per_field[pos].len() {
                prefix[pos] = per_field[pos][idx[pos]];
                break;
            }
            idx[pos] = 0;
            prefix[pos] = per_field[pos][0];
        }
    }
}

/// Enumerates the global key space over a set of templates: the union of
/// their spaces, ascending and deduplicated.  `include_mirror` adds the
/// response orientation (for received-traffic queries).
pub fn global_space(
    templates: &[TemplateSpec],
    keys: &[HeaderField],
    include_mirror: bool,
) -> Result<KeySpace, SpaceError> {
    let orientations: &[bool] = if include_mirror { &[false, true] } else { &[false] };
    let mut parts = Vec::new();
    let mut total = 0usize;
    for tpl in templates {
        for &mirrored in orientations {
            let part = template_space(tpl, keys, mirrored)?;
            total += part.len();
            parts.push(part);
        }
        if total > 2 * MAX_SPACE {
            return Err(SpaceError::TooLarge { attempted: total });
        }
    }
    let all = KeySpace::union_sorted(keys.len(), parts);
    if all.len() > MAX_SPACE {
        return Err(SpaceError::TooLarge { attempted: all.len() });
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::L4Proto;
    use proptest::prelude::*;

    fn tpl(base: Vec<(HeaderField, u64)>, edits: Vec<EditSpec>) -> TemplateSpec {
        TemplateSpec {
            id: 1,
            trigger_name: "T".into(),
            frame_len: 64,
            payload: Vec::new(),
            protocol: L4Proto::Udp,
            base,
            interval: None,
            interval_dist: None,
            ports: vec![0],
            loop_count: 0,
            edits,
            source_query: None,
            response_copies: Vec::new(),
        }
    }

    #[test]
    fn constant_fields_give_singleton_space() {
        let t = tpl(vec![(HeaderField::Dip, 42), (HeaderField::Dport, 80)], vec![]);
        let s = template_space(&t, &[HeaderField::Dip, HeaderField::Dport], false).unwrap();
        assert_eq!(s.to_rows(), vec![vec![42, 80]]);
    }

    #[test]
    fn progression_cross_list() {
        let t = tpl(
            vec![(HeaderField::Dip, 1)],
            vec![
                EditSpec::Progression { field: HeaderField::Sport, start: 10, end: 12, step: 1 },
                EditSpec::ValueList { field: HeaderField::Dport, values: vec![80, 443] },
            ],
        );
        let s = template_space(&t, &[HeaderField::Sport, HeaderField::Dport], false).unwrap();
        assert_eq!(s.len(), 6);
        assert!(s.iter().any(|k| k == [11, 443]));
    }

    #[test]
    fn mirrored_space_swaps_src_dst() {
        let t = tpl(vec![(HeaderField::Sip, 7), (HeaderField::Dip, 9)], vec![]);
        let sent = template_space(&t, &[HeaderField::Sip, HeaderField::Dip], false).unwrap();
        let resp = template_space(&t, &[HeaderField::Sip, HeaderField::Dip], true).unwrap();
        assert_eq!(sent.to_rows(), vec![vec![7, 9]]);
        assert_eq!(resp.to_rows(), vec![vec![9, 7]]);
    }

    #[test]
    fn untouched_field_defaults_to_zero() {
        let t = tpl(vec![], vec![]);
        let s = template_space(&t, &[HeaderField::Ttl], false).unwrap();
        assert_eq!(s.to_rows(), vec![vec![0]]);
    }

    #[test]
    fn global_space_dedups_across_templates() {
        let a = tpl(vec![(HeaderField::Dip, 1)], vec![]);
        let b = tpl(vec![(HeaderField::Dip, 1)], vec![]);
        let s = global_space(&[a, b], &[HeaderField::Dip], false).unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn oversized_space_is_rejected() {
        let t = tpl(
            vec![],
            vec![
                EditSpec::Progression { field: HeaderField::Sip, start: 0, end: 3_000, step: 1 },
                EditSpec::Progression { field: HeaderField::Dip, start: 0, end: 3_000, step: 1 },
            ],
        );
        match template_space(&t, &[HeaderField::Sip, HeaderField::Dip], false) {
            Err(SpaceError::TooLarge { .. }) => {}
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn uniform_random_enumerates_power_of_two() {
        let t = tpl(
            vec![],
            vec![EditSpec::RandomUniform { field: HeaderField::Sport, bits: 4, offset: 100 }],
        );
        let s = template_space(&t, &[HeaderField::Sport], false).unwrap();
        assert_eq!(s.len(), 16);
        assert_eq!(s.key(0), &[100]);
        assert_eq!(s.key(15), &[115]);
    }

    #[test]
    fn uniform_random_wraps_at_the_field_width() {
        // random(uniform, 60000, 65535): 8192 draws from 60000 run past
        // 65535, and the switch stores them masked to 16 bits.
        let t = tpl(
            vec![],
            vec![EditSpec::RandomUniform { field: HeaderField::Sport, bits: 13, offset: 60_000 }],
        );
        let s = template_space(&t, &[HeaderField::Sport], false).unwrap();
        let wire: Vec<Vec<u64>> = (0..=2655).chain(60_000..=65_535).map(|v| vec![v]).collect();
        assert_eq!(s.to_rows(), wire);
    }

    /// A small deterministic stream (splitmix64) for building random
    /// templates inside a property.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    const FIELDS: [HeaderField; 6] = [
        HeaderField::Sip,
        HeaderField::Dip,
        HeaderField::Sport,
        HeaderField::Dport,
        HeaderField::Ttl,
        HeaderField::Ident,
    ];

    /// A template whose fields get, at random, no edit (base constant or
    /// zero), a progression (step 0 included), a value list with
    /// duplicates, a uniform draw (some wrapping past the field width) or
    /// a random table.  Values cluster near zero and near the field
    /// maximum so that templates overlap.
    fn random_template(r: &mut Stream) -> TemplateSpec {
        let mut base = Vec::new();
        let mut edits = Vec::new();
        for field in FIELDS {
            let max = mask_for(field.width());
            let value = |r: &mut Stream| {
                let v = r.below(40);
                if r.below(2) == 0 {
                    v
                } else {
                    max - v
                }
            };
            match r.below(6) {
                0 => {}
                1 => base.push((field, value(r))),
                2 => {
                    let start = r.below(30);
                    let step = r.below(4);
                    let end = start + step * r.below(12);
                    edits.push(EditSpec::Progression { field, start, end, step });
                }
                3 => {
                    let values = (0..1 + r.below(6)).map(|_| value(r)).collect();
                    edits.push(EditSpec::ValueList { field, values });
                }
                4 => {
                    let bits = 1 + r.below(5) as u32;
                    edits.push(EditSpec::RandomUniform { field, bits, offset: value(r) });
                }
                _ => {
                    let values = (0..4).map(|_| value(r)).collect();
                    edits.push(EditSpec::RandomTable { field, values, bits: 2 });
                }
            }
        }
        tpl(base, edits)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The merged global space equals collecting every template's
        /// rows (both orientations when mirrored), sorting and
        /// deduplicating.
        #[test]
        fn global_space_is_the_sorted_union_of_template_rows(
            seed in any::<u64>(),
            templates in 0usize..5,
            width in 1usize..=3,
            mirrored in any::<bool>(),
        ) {
            let mut r = Stream(seed);
            let tpls: Vec<TemplateSpec> = (0..templates).map(|_| random_template(&mut r)).collect();
            let keys: Vec<HeaderField> =
                (0..width).map(|_| FIELDS[r.below(FIELDS.len() as u64) as usize]).collect();
            let mut rows = Vec::new();
            for t in &tpls {
                rows.extend(template_space(t, &keys, false).unwrap().to_rows());
                if mirrored {
                    rows.extend(template_space(t, &keys, true).unwrap().to_rows());
                }
            }
            rows.sort_unstable();
            rows.dedup();
            let space = global_space(&tpls, &keys, mirrored).unwrap();
            prop_assert_eq!(space.width(), width);
            prop_assert_eq!(space.to_rows(), rows);
        }

        /// Every template space ascends strictly — the postcondition
        /// `global_space`'s merge relies on — and holds one row per
        /// combination of its fields' values.
        #[test]
        fn template_space_ascends_without_duplicates(
            seed in any::<u64>(),
            width in 1usize..=3,
            mirrored in any::<bool>(),
        ) {
            let mut r = Stream(seed);
            let t = random_template(&mut r);
            let keys: Vec<HeaderField> =
                (0..width).map(|_| FIELDS[r.below(FIELDS.len() as u64) as usize]).collect();
            let space = template_space(&t, &keys, mirrored).unwrap();
            prop_assert!(space.is_strictly_ascending(), "{:?}", space.to_rows());
            let product: usize = keys
                .iter()
                .map(|&k| field_values(&t, if mirrored { mirror(k) } else { k }).len())
                .product();
            prop_assert_eq!(space.len(), product);
        }
    }
}
