//! The compiled pipeline executor: threaded-code programs for a switch.
//!
//! [`Pipeline::execute`] interprets the pipeline one stage at a time,
//! cloning each matched [`crate::action::ActionSet`] out of its table and
//! re-resolving every field width through the [`FieldTable`] per op.  For
//! the event-bound experiments that interpretation loop is the floor on
//! events/sec, so [`compile`] lowers a fully-programmed pipeline into a
//! flat threaded-code program once at build time:
//!
//! * one linear step list — per-stage table/extern iteration disappears;
//! * match → action fusion — every table entry's action is lowered to a
//!   dense op array (`COp`) with the field mask baked into each op, so
//!   execution never touches the [`FieldTable`] and never clones;
//! * branchless gateway evaluation — gateway predicates are pure (they
//!   only read the PHV), so all predicates of a table are evaluated with
//!   a non-short-circuit AND fold; the common gateway-free table skips
//!   the check entirely;
//! * constant folding — adjacent constant edits of the same destination
//!   collapse into a single pre-masked store, and runs of constant
//!   stores fuse into one `COp::SetBatch` (the compiled analogue of
//!   [`Phv::set_batch`]).
//!
//! Semantics are *bit-identical* to the interpreter: lookup order, hit and
//! miss counters (mirrored back into the live [`crate::table::Table`]s),
//! RNG draw order,
//! digest order and SALU effects are all preserved, which the fuzz
//! oracle's invariant E and the `exec_differential` suite enforce.  The
//! interpreter stays as the reference semantics (`--exec interp`); this
//! program is the one fast executor.
//!
//! A compiled program is a snapshot: it must be (re)built after the last
//! table entry is installed ([`crate::Switch::set_exec_mode`] does this at
//! the end of `ht-core`'s build), and entries must not change afterwards.

use crate::action::{ExecCtx, IndexSource, PrimitiveOp};
use crate::digest::{DigestId, DigestRecord};
use crate::hash::{hash_words, HashAlgo};
use crate::phv::{mask_for, FieldId, FieldTable, Phv};
use crate::pipeline::Pipeline;
use crate::register::{RegId, SaluProgram};
use crate::table::{Gateway, MatchKey, MatchKind};
use std::sync::atomic::{AtomicU8, Ordering};

/// Which executor a switch (or the whole process, via
/// [`set_default_mode`]) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The original per-stage interpreter — kept as the differential
    /// oracle (`--exec interp`).
    Interp,
    /// The flattened threaded-code program built by [`compile`].
    #[default]
    Compiled,
}

impl ExecMode {
    /// Parses the `--exec` CLI value.
    pub fn parse(s: &str) -> Option<ExecMode> {
        match s {
            "interp" => Some(ExecMode::Interp),
            "compiled" => Some(ExecMode::Compiled),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ExecMode::Interp => "interp",
            ExecMode::Compiled => "compiled",
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Process-wide default executor consulted by builders that do not take an
/// explicit mode (`ht-core`'s `build`, the bench harness).  Compiled by
/// default; `htctl --exec interp` flips it before any switch is built,
/// mirroring how `--sim-threads` funds [`crate::parallel::budget`].
static DEFAULT_MODE: AtomicU8 = AtomicU8::new(1);

/// Sets the process-wide default executor.
pub fn set_default_mode(mode: ExecMode) {
    DEFAULT_MODE.store(mode as u8, Ordering::Relaxed);
}

/// The process-wide default executor.
pub fn default_mode() -> ExecMode {
    match DEFAULT_MODE.load(Ordering::Relaxed) {
        0 => ExecMode::Interp,
        _ => ExecMode::Compiled,
    }
}

/// Pre-resolved register/hash index of a compiled SALU op.
#[derive(Debug, Clone)]
enum CIndex {
    Const(u64),
    Field(FieldId),
    Hash { algo: HashAlgo, fields: Box<[FieldId]>, mask: u64 },
}

/// One decoded op of a compiled action.  Every destination write is
/// pre-masked at compile time, so execution stores raw `u64`s.
#[derive(Debug, Clone)]
enum COp {
    /// `dst = value` (value already masked to the field width).
    Set { dst: FieldId, value: u64 },
    /// A fused run of constant stores (all values pre-masked).
    SetBatch(Box<[(FieldId, u64)]>),
    /// `dst = src & mask`.
    Copy { dst: FieldId, src: FieldId, mask: u64 },
    /// `dst = (dst + value) & mask`.
    Add { dst: FieldId, value: u64, mask: u64 },
    /// `dst = (dst + src) & mask`.
    AddF { dst: FieldId, src: FieldId, mask: u64 },
    /// `dst = (dst − src) & mask`.
    SubF { dst: FieldId, src: FieldId, mask: u64 },
    /// `dst = dst & value` (an in-range value stays in range).
    And { dst: FieldId, value: u64 },
    /// `dst = dst | value` (value pre-masked).
    Or { dst: FieldId, value: u64 },
    /// `dst = dst >> bits` (`bits < 64`; larger shifts compile to `Set 0`).
    Shr { dst: FieldId, bits: u32 },
    /// `dst = hash(fields) & mask` (mask combines `mask_bits` and width).
    Hash { dst: FieldId, algo: HashAlgo, fields: Box<[FieldId]>, mask: u64 },
    /// `dst = (uniform[0, 2^bits) + offset) & mask`.
    Rng { dst: FieldId, bits: u32, offset: u64, mask: u64 },
    /// One SALU read-modify-write.
    Salu { reg: RegId, index: CIndex, program: SaluProgram },
    /// Emit a digest record.
    Digest { id: DigestId, fields: Box<[FieldId]> },
}

/// Ternary or linear-range entries: one `(value, mask)` / `(lo, hi)` pair
/// per key field, plus the action index.
type PairEntries = Box<[(Box<[(u64, u64)]>, u32)]>;

/// Exact-match lookup map keyed by the concatenated key-field values,
/// hashed with the hot-path [`crate::fxhash`] scheme (SipHash's setup
/// cost is measurable here and DoS resistance buys nothing — table keys
/// come from the task spec, not the wire).
type ExactMap = crate::fxhash::FxHashMap<Vec<u64>, u32>;

/// Match structure of a compiled table, mirroring [`crate::table::Table`]
/// lookup semantics exactly.  Values are indices into the owning
/// [`CTable::actions`].
#[derive(Debug, Clone)]
enum CMatcher {
    Exact(ExactMap),
    /// Single-field exact tables whose keys span a small dense range
    /// (e.g. template ids 0..n): direct indexing replaces hashing.
    /// `NO_ACTION` marks holes in the span.
    ExactDense {
        base: u64,
        slots: Box<[u32]>,
    },
    /// Entries in stored (priority-descending) order; first match wins.
    Ternary(PairEntries),
    /// Sorted non-overlapping single-key ranges: binary search on `lo`.
    RangeSorted(Box<[(u64, u64, u32)]>),
    /// General ranges in stored (priority-descending) order.
    RangeLinear(PairEntries),
    /// Direct-indexed slots; [`CTable::NO_ACTION`] marks an empty slot.
    Index {
        slots: Box<[u32]>,
    },
}

/// One compiled match→action step.
#[derive(Debug, Clone)]
struct CTable {
    /// `(stage, table)` of the live table, for hit/miss mirroring.
    loc: (u32, u32),
    gateways: Box<[Gateway]>,
    key_fields: Box<[FieldId]>,
    matcher: CMatcher,
    /// Index of the compiled default action in [`Self::actions`].
    default_action: u32,
    actions: Box<[Box<[COp]>]>,
    /// Retired-op weight per action, parallel to [`Self::actions`].
    weights: Box<[u32]>,
}

impl CTable {
    const NO_ACTION: u32 = u32::MAX;
}

/// One step of the flattened program.
#[derive(Debug, Clone)]
enum CStep {
    Table(CTable),
    /// Externs stay behind their trait object — they are rare on the hot
    /// experiments and carry internal state the snapshot cannot own.
    Extern {
        stage: u32,
        idx: u32,
    },
}

/// Lowering statistics, for `--profile` reports and the IR exec plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Compiled match→action steps.
    pub table_steps: usize,
    /// Extern dispatch steps.
    pub extern_steps: usize,
    /// Total compiled ops across all actions (after folding).
    pub ops: usize,
    /// Ops eliminated by constant folding and `NoOp` elision.
    pub folded_ops: usize,
    /// Constant stores fused into `SetBatch` runs.
    pub fused_sets: usize,
    /// Tables that compiled without any gateway check.
    pub gateway_free: usize,
}

/// A flattened threaded-code program for one pipeline.
#[derive(Debug, Clone, Default)]
pub struct CompiledPipeline {
    steps: Vec<CStep>,
    stats: CompileStats,
}

impl CompiledPipeline {
    /// Lowering statistics of this program.
    pub fn stats(&self) -> CompileStats {
        self.stats
    }

    /// Number of steps in the flattened program.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the program has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Lowers one primitive op; `None` elides `NoOp`.
fn lower_op(op: &PrimitiveOp, ft: &FieldTable) -> Option<COp> {
    Some(match op {
        PrimitiveOp::SetConst { dst, value } => {
            COp::Set { dst: *dst, value: value & ft.mask(*dst) }
        }
        PrimitiveOp::CopyField { dst, src } => {
            COp::Copy { dst: *dst, src: *src, mask: ft.mask(*dst) }
        }
        PrimitiveOp::AddConst { dst, value } => {
            // (old + v) mod 2^64 ≡ (old + (v mod 2^w)) (mod 2^w): the
            // addend can be pre-masked because 2^w divides 2^64.
            let mask = ft.mask(*dst);
            COp::Add { dst: *dst, value: value & mask, mask }
        }
        PrimitiveOp::AddField { dst, src } => {
            COp::AddF { dst: *dst, src: *src, mask: ft.mask(*dst) }
        }
        PrimitiveOp::SubField { dst, src } => {
            COp::SubF { dst: *dst, src: *src, mask: ft.mask(*dst) }
        }
        PrimitiveOp::AndConst { dst, value } => COp::And { dst: *dst, value: *value },
        PrimitiveOp::OrConst { dst, value } => COp::Or { dst: *dst, value: value & ft.mask(*dst) },
        PrimitiveOp::ShiftRight { dst, bits } if *bits >= 64 => COp::Set { dst: *dst, value: 0 },
        PrimitiveOp::ShiftRight { dst, bits } => COp::Shr { dst: *dst, bits: *bits },
        PrimitiveOp::Hash { dst, algo, fields, mask_bits } => COp::Hash {
            dst: *dst,
            algo: *algo,
            fields: fields.clone().into_boxed_slice(),
            mask: mask_for(*mask_bits) & ft.mask(*dst),
        },
        PrimitiveOp::RngUniform { dst, bits, offset } => {
            COp::Rng { dst: *dst, bits: *bits, offset: *offset, mask: ft.mask(*dst) }
        }
        PrimitiveOp::Salu { reg, index, program } => COp::Salu {
            reg: *reg,
            index: match index {
                IndexSource::Const(c) => CIndex::Const(*c),
                IndexSource::Field(f) => CIndex::Field(*f),
                IndexSource::Hash { algo, fields, mask_bits } => CIndex::Hash {
                    algo: *algo,
                    fields: fields.clone().into_boxed_slice(),
                    mask: mask_for(*mask_bits),
                },
            },
            program: *program,
        },
        PrimitiveOp::SetEgressPort(p) => {
            COp::Set { dst: crate::phv::fields::EG_PORT, value: u64::from(*p) }
        }
        PrimitiveOp::SetMcastGroup(g) => {
            COp::Set { dst: crate::phv::fields::MCAST_GRP, value: u64::from(*g) }
        }
        PrimitiveOp::Recirculate => COp::Set { dst: crate::phv::fields::RECIRC_FLAG, value: 1 },
        PrimitiveOp::Drop => COp::Set { dst: crate::phv::fields::DROP_FLAG, value: 1 },
        PrimitiveOp::Digest { id, fields } => {
            COp::Digest { id: *id, fields: fields.clone().into_boxed_slice() }
        }
        PrimitiveOp::NoOp => return None,
    })
}

/// Folds adjacent constant edits of the same destination into one
/// pre-masked store.  Sound because the pair is adjacent: no op between
/// them can observe the intermediate value.
fn fold_consts(ops: &mut Vec<COp>, folded: &mut usize) {
    let mut i = 0;
    while i + 1 < ops.len() {
        let new_value = match (&ops[i], &ops[i + 1]) {
            (COp::Set { dst, value }, COp::Set { dst: d2, value: v2 }) if dst == d2 => Some(*v2),
            (COp::Set { dst, value }, COp::Add { dst: d2, value: v2, mask }) if dst == d2 => {
                Some(value.wrapping_add(*v2) & mask)
            }
            (COp::Set { dst, value }, COp::And { dst: d2, value: v2 }) if dst == d2 => {
                Some(value & v2)
            }
            (COp::Set { dst, value }, COp::Or { dst: d2, value: v2 }) if dst == d2 => {
                Some(value | v2)
            }
            (COp::Set { dst, value }, COp::Shr { dst: d2, bits }) if dst == d2 => {
                Some(value >> bits)
            }
            _ => None,
        };
        if let Some(value) = new_value {
            let dst = match &ops[i] {
                COp::Set { dst, .. } => *dst,
                _ => unreachable!(),
            };
            ops[i] = COp::Set { dst, value };
            ops.remove(i + 1);
            *folded += 1;
            // Re-examine from the previous op: the collapsed store may
            // continue an earlier chain.
            i = i.saturating_sub(1);
        } else {
            i += 1;
        }
    }
}

/// Fuses runs of two or more consecutive `Set`s (any destinations) into a
/// single `SetBatch` — one decode for the whole run.
fn fuse_sets(ops: Vec<COp>, fused: &mut usize) -> Vec<COp> {
    let mut out = Vec::with_capacity(ops.len());
    let mut run: Vec<(FieldId, u64)> = Vec::new();
    for op in ops {
        match op {
            COp::Set { dst, value } => run.push((dst, value)),
            other => {
                flush_run(&mut out, &mut run, fused);
                out.push(other);
            }
        }
    }
    flush_run(&mut out, &mut run, fused);
    out
}

fn flush_run(out: &mut Vec<COp>, run: &mut Vec<(FieldId, u64)>, fused: &mut usize) {
    match run.len() {
        0 => {}
        1 => out.push(COp::Set { dst: run[0].0, value: run[0].1 }),
        _ => {
            *fused += run.len();
            out.push(COp::SetBatch(std::mem::take(run).into_boxed_slice()));
        }
    }
    run.clear();
}

fn compile_action(
    action: &crate::action::ActionSet,
    ft: &FieldTable,
    stats: &mut CompileStats,
) -> Box<[COp]> {
    let raw_len = action.ops.len();
    let mut ops: Vec<COp> = action.ops.iter().filter_map(|op| lower_op(op, ft)).collect();
    let mut folded = raw_len - ops.len(); // elided NoOps
    fold_consts(&mut ops, &mut folded);
    let ops = fuse_sets(ops, &mut stats.fused_sets);
    stats.folded_ops += folded;
    stats.ops += ops.iter().map(op_weight).sum::<usize>();
    ops.into_boxed_slice()
}

/// Retired-op weight of a compiled op (a fused batch counts its stores).
fn op_weight(op: &COp) -> usize {
    match op {
        COp::SetBatch(edits) => edits.len(),
        _ => 1,
    }
}

/// Widest key span a single-field exact table may cover and still compile
/// to a direct-indexed dense array instead of a hash map.
const DENSE_SPAN: u64 = 4096;

/// Picks the exact-match representation: single-field tables whose keys
/// fall in a dense range become direct-indexed slot arrays; everything
/// else hashes.  Duplicate keys keep last-insert-wins semantics in both
/// forms, mirroring the live table.
fn compile_exact(entries: Vec<(Vec<u64>, u32)>) -> CMatcher {
    let single = !entries.is_empty() && entries.iter().all(|(k, _)| k.len() == 1);
    if single {
        let min = entries.iter().map(|(k, _)| k[0]).min().unwrap_or(0);
        let max = entries.iter().map(|(k, _)| k[0]).max().unwrap_or(0);
        if max - min < DENSE_SPAN {
            let mut slots = vec![CTable::NO_ACTION; (max - min) as usize + 1];
            for (k, a) in &entries {
                slots[(k[0] - min) as usize] = *a;
            }
            return CMatcher::ExactDense { base: min, slots: slots.into_boxed_slice() };
        }
    }
    CMatcher::Exact(entries.into_iter().collect())
}

fn compile_table(
    table: &crate::table::Table,
    ft: &FieldTable,
    loc: (u32, u32),
    stats: &mut CompileStats,
) -> CTable {
    let mut actions: Vec<Box<[COp]>> = vec![compile_action(table.default_action(), ft, stats)];
    let mut push_action = |a: &crate::action::ActionSet, stats: &mut CompileStats| -> u32 {
        actions.push(compile_action(a, ft, stats));
        (actions.len() - 1) as u32
    };

    let matcher = match table.kind() {
        MatchKind::Exact => {
            let mut entries = Vec::with_capacity(table.entry_count());
            for (key, _, action) in table.entries() {
                let MatchKey::Exact(k) = key else { unreachable!("exact table entry") };
                let idx = push_action(action, stats);
                entries.push((k, idx));
            }
            compile_exact(entries)
        }
        MatchKind::Ternary => CMatcher::Ternary(
            table
                .entries()
                .into_iter()
                .map(|(key, _, action)| {
                    let MatchKey::Ternary(k) = key else { unreachable!("ternary table entry") };
                    (k.into_boxed_slice(), push_action(action, stats))
                })
                .collect(),
        ),
        MatchKind::Range if table.range_fast_path() => CMatcher::RangeSorted(
            table
                .entries()
                .into_iter()
                .map(|(key, _, action)| {
                    let MatchKey::Range(k) = key else { unreachable!("range table entry") };
                    (k[0].0, k[0].1, push_action(action, stats))
                })
                .collect(),
        ),
        MatchKind::Range => CMatcher::RangeLinear(
            table
                .entries()
                .into_iter()
                .map(|(key, _, action)| {
                    let MatchKey::Range(k) = key else { unreachable!("range table entry") };
                    (k.into_boxed_slice(), push_action(action, stats))
                })
                .collect(),
        ),
        MatchKind::Index => {
            let mut slots = vec![CTable::NO_ACTION; table.capacity()];
            for (key, _, action) in table.entries() {
                let MatchKey::Index(i) = key else { unreachable!("index table entry") };
                slots[i as usize] = push_action(action, stats);
            }
            CMatcher::Index { slots: slots.into_boxed_slice() }
        }
    };

    if table.gateways().is_empty() {
        stats.gateway_free += 1;
    }
    stats.table_steps += 1;
    let weights = actions.iter().map(|a| a.iter().map(op_weight).sum::<usize>() as u32).collect();
    CTable {
        loc,
        gateways: table.gateways().to_vec().into_boxed_slice(),
        key_fields: table.key_fields().to_vec().into_boxed_slice(),
        matcher,
        default_action: 0,
        actions: actions.into_boxed_slice(),
        weights,
    }
}

/// Lowers a fully-programmed pipeline into a flat threaded-code program.
///
/// The snapshot captures gateways, keys, entries and actions; the live
/// [`Pipeline`] remains the owner of externs and hit/miss counters, which
/// [`run`] dispatches to and mirrors into.
pub fn compile(pipeline: &Pipeline, ft: &FieldTable) -> CompiledPipeline {
    let mut steps = Vec::new();
    let mut stats = CompileStats::default();
    for (si, stage) in pipeline.stages.iter().enumerate() {
        for (ti, table) in stage.tables.iter().enumerate() {
            steps.push(CStep::Table(compile_table(table, ft, (si as u32, ti as u32), &mut stats)));
        }
        for ei in 0..stage.externs.len() {
            stats.extern_steps += 1;
            steps.push(CStep::Extern { stage: si as u32, idx: ei as u32 });
        }
    }
    CompiledPipeline { steps, stats }
}

/// Streams PHV fields through the slice-by-8 CRC kernel without the
/// interpreter's per-op `Vec<u64>` — bit-identical to
/// [`hash_words`] over the collected values.
#[inline]
fn hash_fields(algo: HashAlgo, fields: &[FieldId], phv: &Phv) -> u64 {
    let mut buf = [0u64; 8];
    if fields.len() <= buf.len() {
        for (slot, f) in buf.iter_mut().zip(fields) {
            *slot = phv.get(*f);
        }
        hash_words(algo, &buf[..fields.len()])
    } else {
        let words: Vec<u64> = fields.iter().map(|f| phv.get(*f)).collect();
        hash_words(algo, &words)
    }
}

#[inline]
fn run_ops(ops: &[COp], phv: &mut Phv, ctx: &mut ExecCtx<'_>) {
    for op in ops {
        match op {
            COp::Set { dst, value } => phv.set_premasked(*dst, *value),
            COp::SetBatch(edits) => {
                for &(dst, value) in edits.iter() {
                    phv.set_premasked(dst, value);
                }
            }
            COp::Copy { dst, src, mask } => phv.set_premasked(*dst, phv.get(*src) & mask),
            COp::Add { dst, value, mask } => {
                phv.set_premasked(*dst, phv.get(*dst).wrapping_add(*value) & mask)
            }
            COp::AddF { dst, src, mask } => {
                phv.set_premasked(*dst, phv.get(*dst).wrapping_add(phv.get(*src)) & mask)
            }
            COp::SubF { dst, src, mask } => {
                phv.set_premasked(*dst, phv.get(*dst).wrapping_sub(phv.get(*src)) & mask)
            }
            COp::And { dst, value } => phv.set_premasked(*dst, phv.get(*dst) & value),
            COp::Or { dst, value } => phv.set_premasked(*dst, phv.get(*dst) | value),
            COp::Shr { dst, bits } => phv.set_premasked(*dst, phv.get(*dst) >> bits),
            COp::Hash { dst, algo, fields, mask } => {
                phv.set_premasked(*dst, hash_fields(*algo, fields, phv) & mask)
            }
            COp::Rng { dst, bits, offset, mask } => {
                use rand::Rng;
                let range = 1u64 << (*bits).min(63);
                let v = ctx.rng.gen_range(0..range).wrapping_add(*offset);
                phv.set_premasked(*dst, v & mask);
            }
            COp::Salu { reg, index, program } => {
                let idx = match index {
                    CIndex::Const(c) => *c,
                    CIndex::Field(f) => phv.get(*f),
                    CIndex::Hash { algo, fields, mask } => hash_fields(*algo, fields, phv) & mask,
                };
                ctx.regs.execute(*reg, idx, program, phv, ctx.table);
            }
            COp::Digest { id, fields } => {
                let values: Vec<u64> = fields.iter().map(|f| phv.get(*f)).collect();
                ctx.digests.push(DigestRecord { id: *id, values, at: ctx.now });
            }
        }
    }
}

/// One matcher probe for one key.
#[inline]
fn lookup(matcher: &CMatcher, key: &[u64]) -> Option<u32> {
    match matcher {
        CMatcher::Exact(map) => map.get(key).copied(),
        CMatcher::ExactDense { base, slots } => key
            .first()
            .and_then(|k| k.checked_sub(*base))
            .and_then(|i| slots.get(i as usize))
            .copied()
            .filter(|&a| a != CTable::NO_ACTION),
        CMatcher::Ternary(entries) => entries
            .iter()
            .find(|(e, _)| e.iter().zip(key).all(|(&(v, m), &k)| k & m == v & m))
            .map(|&(_, a)| a),
        CMatcher::RangeSorted(entries) => {
            let k = key[0];
            let idx = entries.partition_point(|e| e.0 <= k);
            idx.checked_sub(1).map(|i| entries[i]).filter(|e| k <= e.1).map(|e| e.2)
        }
        CMatcher::RangeLinear(entries) => entries
            .iter()
            .find(|(e, _)| e.iter().zip(key).all(|(&(lo, hi), &k)| lo <= k && k <= hi))
            .map(|&(_, a)| a),
        CMatcher::Index { slots } => {
            let slot = slots[key[0] as usize % slots.len()];
            (slot != CTable::NO_ACTION).then_some(slot)
        }
    }
}

/// Executes a compiled program for one packet.  `pipeline` must be the
/// pipeline the program was compiled from: externs dispatch through it and
/// hit/miss counters are mirrored into its tables.  Returns the number of
/// ops retired (for the `--profile` histogram).
pub fn run(
    prog: &CompiledPipeline,
    pipeline: &mut Pipeline,
    phv: &mut Phv,
    ctx: &mut ExecCtx<'_>,
) -> u64 {
    let mut retired = 0u64;
    for step in &prog.steps {
        match step {
            CStep::Table(t) => {
                if !t.gateways.is_empty() {
                    // Predicates are pure, so a non-short-circuit AND fold
                    // is safe and keeps the loop branch-free.
                    let mut pass = true;
                    for g in t.gateways.iter() {
                        pass &= g.eval(phv);
                    }
                    if !pass {
                        continue;
                    }
                }
                let mut key_buf = [0u64; 8];
                let n = t.key_fields.len().min(8);
                for (slot, f) in key_buf.iter_mut().zip(t.key_fields.iter()) {
                    *slot = phv.get(*f);
                }
                let key = &key_buf[..n];
                let hit = lookup(&t.matcher, key);
                let live = &mut pipeline.stages[t.loc.0 as usize].tables[t.loc.1 as usize];
                let action = match hit {
                    Some(a) => {
                        live.hits += 1;
                        a
                    }
                    None => {
                        live.misses += 1;
                        t.default_action
                    }
                };
                retired += u64::from(t.weights[action as usize]);
                run_ops(&t.actions[action as usize], phv, ctx);
            }
            CStep::Extern { stage, idx } => {
                retired += 1;
                pipeline.stages[*stage as usize].externs[*idx as usize].execute(phv, ctx);
            }
        }
    }
    retired
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionSet, PrimitiveOp};
    use crate::phv::fields;
    use crate::register::RegisterFile;
    use crate::table::Table;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Runs `packets` PHVs, in order, through the interpreter and through
    /// the compiled program of the same pipeline, asserting identical
    /// PHVs, digests, register contents and hit/miss counters.
    fn exec_both(
        build: impl Fn(&mut RegisterFile) -> Pipeline,
        packets: usize,
        phv_fn: impl Fn(&FieldTable, usize) -> Phv,
    ) {
        let ft = FieldTable::new();
        let side = |compiled: bool| {
            let mut regs = RegisterFile::new();
            let mut pipe = build(&mut regs);
            let prog = compiled.then(|| compile(&pipe, &ft));
            let mut rng = StdRng::seed_from_u64(9);
            let mut digests = Vec::new();
            let mut phvs: Vec<Phv> = (0..packets).map(|i| phv_fn(&ft, i)).collect();
            for phv in phvs.iter_mut() {
                let mut ctx = ExecCtx {
                    table: &ft,
                    regs: &mut regs,
                    rng: &mut rng,
                    digests: &mut digests,
                    now: 5,
                };
                match &prog {
                    Some(prog) => {
                        run(prog, &mut pipe, phv, &mut ctx);
                    }
                    None => pipe.execute(phv, &mut ctx),
                }
            }
            (pipe, regs, digests, phvs)
        };
        let (p1, regs1, dg1, phvs1) = side(false);
        let (p2, regs2, dg2, phvs2) = side(true);
        assert_eq!(phvs1, phvs2, "PHVs diverged");
        assert_eq!(dg1, dg2, "digests diverged");
        for (a1, a2) in regs1.iter().zip(regs2.iter()) {
            for i in 0..a1.depth() {
                assert_eq!(a1.cp_read(i), a2.cp_read(i), "register {} slot {i}", a1.name());
            }
        }
        for (s1, s2) in p1.stages.iter().zip(&p2.stages) {
            for (t1, t2) in s1.tables.iter().zip(&s2.tables) {
                assert_eq!((t1.hits, t1.misses), (t2.hits, t2.misses), "counters diverged");
            }
        }
    }

    #[test]
    fn compiled_matches_interpreter_across_match_kinds() {
        use crate::register::Cmp;
        use crate::table::MatchKey;
        let build = |_: &mut RegisterFile| {
            let mut pipe = Pipeline::new();
            let mut exact =
                Table::new("exact", MatchKind::Exact, vec![fields::IPV4_DST], 8, ActionSet::nop());
            exact
                .insert(
                    MatchKey::Exact(vec![42]),
                    ActionSet::new(
                        "hit",
                        vec![
                            PrimitiveOp::SetConst { dst: fields::TCP_SPORT, value: 0x1_0001 },
                            PrimitiveOp::AddConst { dst: fields::TCP_SPORT, value: 0xffff },
                            PrimitiveOp::SetConst { dst: fields::TCP_DPORT, value: 7 },
                        ],
                    ),
                    0,
                )
                .unwrap();
            pipe.push_table(exact);
            let mut rng_tbl =
                Table::new("range", MatchKind::Range, vec![fields::TCP_SPORT], 8, ActionSet::nop());
            rng_tbl
                .insert(
                    MatchKey::Range(vec![(0, 100)]),
                    ActionSet::new(
                        "low",
                        vec![PrimitiveOp::Hash {
                            dst: fields::TCP_WINDOW,
                            algo: HashAlgo::Crc32,
                            fields: vec![fields::IPV4_DST, fields::TCP_SPORT],
                            mask_bits: 12,
                        }],
                    ),
                    0,
                )
                .unwrap();
            pipe.push_table(rng_tbl.with_gateway(Gateway {
                field: fields::IPV4_VALID,
                cmp: Cmp::Eq,
                value: 0,
            }));
            let mut tern = Table::new(
                "tern",
                MatchKind::Ternary,
                vec![fields::TCP_DPORT],
                8,
                ActionSet::new(
                    "df",
                    vec![PrimitiveOp::RngUniform { dst: fields::IPV4_IDENT, bits: 4, offset: 16 }],
                ),
            );
            tern.insert(
                MatchKey::Ternary(vec![(7, 0xffff)]),
                ActionSet::new(
                    "dig",
                    vec![PrimitiveOp::Digest {
                        id: DigestId(3),
                        fields: vec![fields::TCP_SPORT, fields::TCP_WINDOW],
                    }],
                ),
                5,
            )
            .unwrap();
            pipe.push_table(tern);
            pipe
        };
        exec_both(build, 1, |ft, _| {
            let mut phv = ft.new_phv();
            phv.set(ft, fields::IPV4_DST, 42);
            phv
        });
        // Miss path.
        exec_both(build, 1, |ft, _| {
            let mut phv = ft.new_phv();
            phv.set(ft, fields::IPV4_DST, 43);
            phv
        });
    }

    #[test]
    fn compiled_matches_interpreter_on_dense_and_two_field_exact_tables() {
        use crate::register::Cmp;
        use crate::table::MatchKey;
        let build = |_: &mut RegisterFile| {
            let mut pipe = Pipeline::new();
            // Single-field exact with a dense key span → `ExactDense`.
            let mut dense =
                Table::new("dense", MatchKind::Exact, vec![fields::IPV4_DST], 8, ActionSet::nop());
            for k in 40..44u64 {
                dense
                    .insert(
                        MatchKey::Exact(vec![k]),
                        ActionSet::new(
                            "hit",
                            vec![
                                PrimitiveOp::SetConst { dst: fields::TCP_SPORT, value: k + 1 },
                                PrimitiveOp::AddField {
                                    dst: fields::TCP_SPORT,
                                    src: fields::TCP_DPORT,
                                },
                            ],
                        ),
                        0,
                    )
                    .unwrap();
            }
            pipe.push_table(dense);
            // Two-field exact → hashed `Exact` map.
            let mut wide = Table::new(
                "wide",
                MatchKind::Exact,
                vec![fields::IPV4_DST, fields::TCP_DPORT],
                8,
                ActionSet::new(
                    "df",
                    vec![PrimitiveOp::SetConst { dst: fields::IPV4_TTL, value: 1 }],
                ),
            );
            for k in [41u64, 43, 60] {
                wide.insert(
                    MatchKey::Exact(vec![k, 7]),
                    ActionSet::new(
                        "hash",
                        vec![PrimitiveOp::Hash {
                            dst: fields::TCP_WINDOW,
                            algo: HashAlgo::Crc32,
                            fields: vec![fields::IPV4_DST, fields::TCP_SPORT],
                            mask_bits: 12,
                        }],
                    ),
                    0,
                )
                .unwrap();
            }
            pipe.push_table(wide);
            // Ternary behind a `Lt` gateway.
            let mut tern = Table::new(
                "tern",
                MatchKind::Ternary,
                vec![fields::TCP_SPORT],
                8,
                ActionSet::nop(),
            );
            tern.insert(
                MatchKey::Ternary(vec![(0x2a, 0xff)]),
                ActionSet::new(
                    "low",
                    vec![
                        PrimitiveOp::CopyField { dst: fields::IPV4_IDENT, src: fields::TCP_SPORT },
                        PrimitiveOp::ShiftRight { dst: fields::IPV4_IDENT, bits: 1 },
                        PrimitiveOp::OrConst { dst: fields::IPV4_IDENT, value: 0x8000 },
                    ],
                ),
                5,
            )
            .unwrap();
            pipe.push_table(tern.with_gateway(Gateway {
                field: fields::TCP_DPORT,
                cmp: Cmp::Lt,
                value: 9,
            }));
            pipe
        };
        exec_both(build, 11, |ft, i| {
            let mut phv = ft.new_phv();
            // Mix of dense hits (40..44), misses, two-field hits (dport 7
            // on 41/43), and gated-out packets (dport ≥ 9).
            phv.set(ft, fields::IPV4_DST, 38 + i as u64);
            phv.set(ft, fields::TCP_DPORT, if i % 3 == 0 { 7 } else { 4 + i as u64 });
            phv
        });
    }

    #[test]
    fn compiled_salu_fetch_add_matches_interpreter_across_packets() {
        use crate::action::IndexSource;
        use crate::register::SaluProgram;
        use crate::table::MatchKey;
        let build = |regs: &mut RegisterFile| {
            let reg = regs.alloc("seq", 32, 4);
            let mut pipe = Pipeline::new();
            // Per-slot sequence numbers: packets landing on the same slot
            // must observe the serial fetch-and-add order.  The SALU lives
            // in the default action; hitting packets run a plain edit.
            let mut t = Table::new(
                "seq",
                MatchKind::Exact,
                vec![fields::IPV4_DST],
                8,
                ActionSet::new(
                    "count",
                    vec![PrimitiveOp::Salu {
                        reg,
                        index: IndexSource::Field(fields::TCP_DPORT),
                        program: SaluProgram::fetch_add(fields::TCP_WINDOW),
                    }],
                ),
            );
            t.insert(
                MatchKey::Exact(vec![1]),
                ActionSet::new(
                    "tag",
                    vec![PrimitiveOp::SetConst { dst: fields::TCP_WINDOW, value: 0xbeef }],
                ),
                0,
            )
            .unwrap();
            pipe.push_table(t);
            pipe
        };
        exec_both(build, 9, |ft, i| {
            let mut phv = ft.new_phv();
            phv.set(ft, fields::IPV4_DST, (i % 2) as u64);
            phv.set(ft, fields::TCP_DPORT, (i % 3) as u64);
            phv
        });
    }

    #[test]
    fn constant_folding_collapses_adjacent_edits() {
        let ft = FieldTable::new();
        let action = ActionSet::new(
            "fold",
            vec![
                PrimitiveOp::SetConst { dst: fields::TCP_SPORT, value: 100 },
                PrimitiveOp::AddConst { dst: fields::TCP_SPORT, value: 0xffff_0001 },
                PrimitiveOp::OrConst { dst: fields::TCP_SPORT, value: 2 },
                PrimitiveOp::SetConst { dst: fields::TCP_DPORT, value: 9 },
                PrimitiveOp::NoOp,
            ],
        );
        let mut stats = CompileStats::default();
        let ops = compile_action(&action, &ft, &mut stats);
        // Everything collapses into one fused batch of two stores.
        assert_eq!(ops.len(), 1, "ops: {ops:?}");
        match &ops[0] {
            COp::SetBatch(edits) => {
                assert_eq!(edits.len(), 2);
                assert_eq!(edits[0], (fields::TCP_SPORT, 103)); // (100+1)|2 masked to 16 bits
                assert_eq!(edits[1], (fields::TCP_DPORT, 9));
            }
            other => panic!("expected SetBatch, got {other:?}"),
        }
        assert!(stats.folded_ops >= 3);
        assert_eq!(stats.fused_sets, 2);
    }

    #[test]
    fn default_mode_round_trips() {
        assert_eq!(ExecMode::parse("interp"), Some(ExecMode::Interp));
        assert_eq!(ExecMode::parse("compiled"), Some(ExecMode::Compiled));
        assert_eq!(ExecMode::parse("weird"), None);
        let before = default_mode();
        set_default_mode(ExecMode::Interp);
        assert_eq!(default_mode(), ExecMode::Interp);
        set_default_mode(before);
    }
}
