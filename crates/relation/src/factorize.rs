//! Factorized signature-group construction.
//!
//! JIM's engine treats product tuples with equal equality-atom signatures as
//! indistinguishable, yet naive construction enumerates the whole cartesian
//! product just to discover those groups. This module computes the
//! signature-group partition **directly from the base relations**:
//!
//! 1. Every value of a *distinguishing* column (one that takes part in some
//!    joinable pair) is interned once to a dense `u32` code. The rows of each
//!    relation occurrence are then partitioned into **value-equivalence
//!    blocks**: two rows land in one block iff their codes agree on every
//!    distinguishing column — after *collapsing* values that appear in no
//!    partner column (such values can never satisfy a cross atom, so only
//!    their within-row equality pattern matters, kept by per-row sentinel
//!    codes). Occurrences of one shared relation with the same columns and
//!    collapse sets share one code set and one block partition.
//! 2. Every product tuple's signature is a function of its block vector
//!    alone, so the distinct signatures of the product are exactly the
//!    distinct patterns over block combinations. One sweep serves any number
//!    of occurrences. It walks the block combinations of the first n−1
//!    occurrences in mixed radix and computes each one's pattern once. An
//!    inverted code index over the last occurrence's blocks yields the
//!    blocks that share a value with that prefix; only those are paired
//!    with it one by one. Every other block can hold no atom with the
//!    prefix, so it joins the prefix's pattern by subtraction, one
//!    intra-pattern class at a time. Per pattern (a bitmask over the
//!    joinable pairs) the sweep aggregates a **count**, the **minimum**
//!    [`ProductId`] and a bounded sample of witness ids.
//!
//! The sweep never materializes the product. Its cost is the relations'
//! rows plus, per prefix combination, the matched blocks and one walk per
//! class: Π_{i<n} bᵢ · (classes + matches) for bᵢ blocks per occurrence,
//! not `Product::size()`. [`FactorizeOptions::max_sweep`] bounds that work.

use crate::product::{Product, ProductId};
use crate::schema::{GlobalAttr, JoinSchema};
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Tuning knobs for [`factorize`].
#[derive(Debug, Clone, Copy)]
pub struct FactorizeOptions {
    /// Only consider atoms between *different* relation occurrences
    /// (mirrors the engine's default atom scope).
    pub cross_only: bool,
    /// Upper bound on sweep work: per block combination of the first n−1
    /// occurrences, the last occurrence's blocks that share a value with it
    /// plus one walk per intra-pattern class. The sweep counts as it goes
    /// and returns [`FactorizeError::SweepTooLarge`] as soon as the count
    /// passes the bound, so refusing an instance costs at most the bound.
    pub max_sweep: u64,
}

impl Default for FactorizeOptions {
    fn default() -> Self {
        FactorizeOptions {
            cross_only: true,
            max_sweep: 4_000_000,
        }
    }
}

/// Witness ids carried per signature group: the group's smallest ranks,
/// the minimum id first.
pub const MAX_WITNESSES: usize = 8;

/// Failure modes of [`factorize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactorizeError {
    /// No pair of attributes is joinable under the requested scope, so there
    /// is no signature structure to factorize.
    NoJoinablePairs,
    /// The block structure is too rich: sweeping it would cost more than
    /// `max_sweep`.
    SweepTooLarge {
        /// The sweep work counted when the bound was passed (a lower bound
        /// on the whole sweep's cost).
        cost: u64,
        /// The configured bound.
        limit: u64,
    },
}

impl fmt::Display for FactorizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FactorizeError::NoJoinablePairs => {
                write!(f, "factorization failed: no joinable attribute pairs")
            }
            FactorizeError::SweepTooLarge { cost, limit } => write!(
                f,
                "factorization too large: sweep cost {cost} exceeds limit {limit}"
            ),
        }
    }
}

impl std::error::Error for FactorizeError {}

/// One signature group of the product, represented without its members.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SigGroup {
    /// The joinable attribute pairs that hold (with equal values) in every
    /// member of the group, as `(a, b)` with `a < b` in global-attr order.
    pub pattern: Vec<(GlobalAttr, GlobalAttr)>,
    /// Exact number of product tuples in the group.
    pub count: u64,
    /// The smallest member id (the group's canonical representative).
    pub min_id: ProductId,
    /// Up to [`MAX_WITNESSES`] member ids, ascending; `witnesses[0] == min_id`.
    pub witnesses: Vec<ProductId>,
}

/// The result of [`factorize`]: the full signature-group partition plus
/// sweep statistics.
#[derive(Debug, Clone)]
pub struct Factorized {
    /// Signature groups sorted by `min_id` (i.e. first-seen rank order).
    pub groups: Vec<SigGroup>,
    /// Number of value-equivalence blocks per relation occurrence.
    pub blocks_per_occurrence: Vec<usize>,
    /// Sweep work done, counted as [`FactorizeOptions::max_sweep`] counts it.
    pub swept: u64,
}

/// Code of the `j`-th distinct collapsed value of a row: counted down from
/// `u32::MAX`, far above every interned value's code, so a sentinel matches
/// another only within one row's key.
fn sentinel(j: usize) -> u32 {
    u32::MAX - j as u32
}

/// A joinable attribute pair resolved to occurrence + key positions.
struct PairInfo {
    a: GlobalAttr,
    b: GlobalAttr,
    occ_a: usize,
    occ_b: usize,
    pos_a: usize,
    pos_b: usize,
}

/// The value-equivalence blocks of one relation occurrence.
struct Partition {
    /// Codes per block key (the occurrence's distinguishing columns).
    width: usize,
    /// Block keys, `width` codes per block, in one flat arena.
    keys: Vec<u32>,
    /// `rows[starts[b]..starts[b + 1]]` are block `b`'s rows, ascending.
    starts: Vec<u32>,
    rows: Vec<u32>,
}

impl Partition {
    /// Group rows into blocks by their interned keys. `columns[k]` holds
    /// the codes of key position `k` in row order; `live[k]` the codes that
    /// some partner column holds (all others collapse to sentinels).
    fn new(columns: &[&[u32]], live: &[Vec<u64>], rows: usize) -> Partition {
        let width = columns.len();
        let mut by_key: HashMap<Vec<u32>, u32> = HashMap::new();
        let mut keys: Vec<u32> = Vec::new();
        let mut sizes: Vec<u32> = Vec::new();
        let mut block_of: Vec<u32> = Vec::with_capacity(rows);
        let mut key: Vec<u32> = Vec::with_capacity(width);
        let mut collapsed: Vec<u32> = Vec::new();
        for row in 0..rows {
            key.clear();
            collapsed.clear();
            for (codes, live) in columns.iter().zip(live) {
                let code = codes[row];
                if has_bit(live, code as usize) {
                    key.push(code);
                } else {
                    let j = collapsed
                        .iter()
                        .position(|&c| c == code)
                        .unwrap_or_else(|| {
                            collapsed.push(code);
                            collapsed.len() - 1
                        });
                    key.push(sentinel(j));
                }
            }
            let block = match by_key.get(key.as_slice()) {
                Some(&block) => block,
                None => {
                    let block = sizes.len() as u32;
                    by_key.insert(key.clone(), block);
                    keys.extend_from_slice(&key);
                    sizes.push(0);
                    block
                }
            };
            sizes[block as usize] += 1;
            block_of.push(block);
        }
        // Counting sort by block; rows stay ascending within each block.
        let mut starts = Vec::with_capacity(sizes.len() + 1);
        let mut end = 0u32;
        starts.push(end);
        for &size in &sizes {
            end += size;
            starts.push(end);
        }
        let mut next: Vec<u32> = starts[..sizes.len()].to_vec();
        let mut grouped = vec![0u32; rows];
        for (row, &block) in block_of.iter().enumerate() {
            grouped[next[block as usize] as usize] = row as u32;
            next[block as usize] += 1;
        }
        Partition {
            width,
            keys,
            starts,
            rows: grouped,
        }
    }

    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    fn key(&self, block: usize) -> &[u32] {
        &self.keys[block * self.width..(block + 1) * self.width]
    }

    fn rows_of(&self, block: usize) -> &[u32] {
        &self.rows[self.starts[block] as usize..self.starts[block + 1] as usize]
    }

    fn count(&self, block: usize) -> u64 {
        u64::from(self.starts[block + 1] - self.starts[block])
    }

    fn min_row(&self, block: usize) -> u64 {
        u64::from(self.rows[self.starts[block] as usize])
    }
}

fn has_bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

fn or_into(into: &mut [u64], from: &[u64]) {
    for (x, y) in into.iter_mut().zip(from) {
        *x |= y;
    }
}

/// Last-occurrence blocks with one intra-occurrence pattern.
struct Class {
    /// The intra pairs that hold, as pattern bits.
    bits: Vec<u64>,
    /// Rows across the member blocks.
    rows: u64,
    /// Member blocks, ascending (so by minimum row).
    members: Vec<u32>,
}

/// Per-pattern aggregation during the sweep.
#[derive(Default)]
struct Acc {
    count: u64,
    /// The [`MAX_WITNESSES`] smallest block combinations seen, as
    /// (combination's minimum id, its last-occurrence block), ascending.
    entries: Vec<(u64, u32)>,
}

impl Acc {
    /// Keep a combination if it is among the [`MAX_WITNESSES`] smallest so
    /// far.
    fn offer(&mut self, min_id: u64, last_block: u32) -> bool {
        if self.entries.len() == MAX_WITNESSES {
            if self.entries[MAX_WITNESSES - 1].0 < min_id {
                return false;
            }
            self.entries.pop();
        }
        let pos = self.entries.partition_point(|&(id, _)| id < min_id);
        self.entries.insert(pos, (min_id, last_block));
        true
    }
}

/// Entries of [`Accumulators`]' direct-mapped pattern cache.
const CACHE_SLOTS: usize = 256;

/// The accumulators keyed by pattern. A visited combination probes a small
/// direct-mapped cache of recent patterns first, and the map (the standard
/// hasher) only on a miss; a pattern is copied only when it opens a group.
struct Accumulators {
    words: usize,
    slots: HashMap<Vec<u64>, usize>,
    accs: Vec<Acc>,
    /// `CACHE_SLOTS` patterns of `words` words each, with their slots
    /// (`usize::MAX` while a cache entry is empty).
    cached: Vec<u64>,
    cached_slot: Vec<usize>,
}

impl Accumulators {
    fn new(words: usize) -> Self {
        Accumulators {
            words,
            slots: HashMap::new(),
            accs: Vec::new(),
            cached: vec![0; CACHE_SLOTS * words],
            cached_slot: vec![usize::MAX; CACHE_SLOTS],
        }
    }

    fn get(&mut self, pattern: &[u64]) -> &mut Acc {
        let fold = pattern
            .iter()
            .fold(0u64, |h, &w| (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let line = (fold >> 56) as usize % CACHE_SLOTS;
        let cached = &mut self.cached[line * self.words..(line + 1) * self.words];
        let slot = match self.cached_slot[line] {
            slot if slot != usize::MAX && cached == pattern => slot,
            _ => {
                let slot = match self.slots.get(pattern) {
                    Some(&slot) => slot,
                    None => {
                        self.slots.insert(pattern.to_vec(), self.accs.len());
                        self.accs.push(Acc::default());
                        self.accs.len() - 1
                    }
                };
                cached.copy_from_slice(pattern);
                self.cached_slot[line] = slot;
                slot
            }
        };
        &mut self.accs[slot]
    }
}

/// Enumerate the joinable attribute pairs of `schema`, mirroring the atom
/// universe's enumeration: `a < b`, equal declared types, and (under
/// `cross_only`) different relation occurrences.
pub fn joinable_pairs(schema: &JoinSchema, cross_only: bool) -> Vec<(GlobalAttr, GlobalAttr)> {
    let attrs: Vec<GlobalAttr> = schema.attrs().collect();
    let mut out = Vec::new();
    for (i, &a) in attrs.iter().enumerate() {
        for &b in &attrs[i + 1..] {
            let cross = schema.cross_relation(a, b).expect("attrs in range");
            if cross_only && !cross {
                continue;
            }
            let ta = schema.dtype(a).expect("attr in range");
            let tb = schema.dtype(b).expect("attr in range");
            if ta == tb {
                out.push((a, b));
            }
        }
    }
    out
}

/// Compute the signature-group partition of `product` without materializing
/// it. See the module docs for the algorithm.
pub fn factorize(
    product: &Product,
    options: &FactorizeOptions,
) -> Result<Factorized, FactorizeError> {
    let schema = product.schema();
    let relations = product.relations();
    let n = relations.len();
    let pair_attrs = joinable_pairs(schema, options.cross_only);
    if pair_attrs.is_empty() {
        return Err(FactorizeError::NoJoinablePairs);
    }

    // Distinguishing columns per occurrence (relation locals, ascending:
    // the block key layout), and each pair's occurrences and key positions.
    let mut locals: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in &pair_attrs {
        for attr in [a, b] {
            let (occ, local) = schema.locate(attr).expect("attr in range");
            if !locals[occ].contains(&local) {
                locals[occ].push(local);
            }
        }
    }
    for l in &mut locals {
        l.sort_unstable();
    }
    let position = |attr: GlobalAttr| {
        let (occ, local) = schema.locate(attr).expect("attr in range");
        let pos = locals[occ].binary_search(&local).expect("distinguishing");
        (occ, pos)
    };
    let pairs: Vec<PairInfo> = pair_attrs
        .iter()
        .map(|&(a, b)| {
            let ((occ_a, pos_a), (occ_b, pos_b)) = (position(a), position(b));
            PairInfo {
                a,
                b,
                occ_a,
                occ_b,
                pos_a,
                pos_b,
            }
        })
        .collect();

    // Rows, codes and sentinels share one `u32` space; keep them apart.
    let cells: u64 = (0..n)
        .map(|occ| relations[occ].len() as u64 * (locals[occ].len() as u64 + 1))
        .sum();
    if cells > u64::from(u32::MAX / 2) {
        return Err(FactorizeError::SweepTooLarge {
            cost: cells,
            limit: options.max_sweep,
        });
    }

    // Intern every distinguishing column once per shared relation: equal
    // values (by `Value`'s own `Eq`) get one dense code across columns.
    let source: Vec<usize> = (0..n)
        .map(|occ| {
            (0..occ)
                .find(|&j| Arc::ptr_eq(&relations[j], &relations[occ]))
                .unwrap_or(occ)
        })
        .collect();
    let mut by_value: HashMap<&Value, u32> = HashMap::new();
    let mut columns: Vec<Vec<u32>> = Vec::new();
    let mut interned: Vec<((usize, usize), usize)> = Vec::new();
    let mut column_at: Vec<Vec<usize>> = vec![Vec::new(); n];
    for occ in 0..n {
        for &local in &locals[occ] {
            let id = (source[occ], local);
            let column = match interned.iter().find(|(k, _)| *k == id) {
                Some(&(_, column)) => column,
                None => {
                    let codes = relations[occ]
                        .rows()
                        .iter()
                        .map(|row| {
                            let next = by_value.len() as u32;
                            *by_value.entry(&row[local]).or_insert(next)
                        })
                        .collect();
                    columns.push(codes);
                    interned.push((id, columns.len() - 1));
                    columns.len() - 1
                }
            };
            column_at[occ].push(column);
        }
    }
    let n_codes = by_value.len();
    drop(by_value);
    let real = |code: u32| (code as usize) < n_codes;

    // A value stays live at a position iff some partner column holds it.
    let code_words = n_codes.div_ceil(64);
    let present: Vec<Vec<u64>> = columns
        .iter()
        .map(|codes| {
            let mut bits = vec![0u64; code_words];
            for &code in codes {
                set_bit(&mut bits, code as usize);
            }
            bits
        })
        .collect();
    let mut live: Vec<Vec<Vec<u64>>> = locals
        .iter()
        .map(|l| vec![vec![0u64; code_words]; l.len()])
        .collect();
    for p in &pairs {
        or_into(
            &mut live[p.occ_a][p.pos_a],
            &present[column_at[p.occ_b][p.pos_b]],
        );
        or_into(
            &mut live[p.occ_b][p.pos_b],
            &present[column_at[p.occ_a][p.pos_a]],
        );
    }

    // Block partitions, one per distinct (relation, columns, live sets).
    let mut partitions: Vec<Partition> = Vec::new();
    let mut part_of: Vec<usize> = Vec::with_capacity(n);
    for occ in 0..n {
        let shared = (0..occ).find(|&j| {
            source[j] == source[occ] && locals[j] == locals[occ] && live[j] == live[occ]
        });
        match shared {
            Some(j) => part_of.push(part_of[j]),
            None => {
                let cols: Vec<&[u32]> = column_at[occ]
                    .iter()
                    .map(|&c| columns[c].as_slice())
                    .collect();
                partitions.push(Partition::new(&cols, &live[occ], relations[occ].len()));
                part_of.push(partitions.len() - 1);
            }
        }
    }
    let blocks_per_occurrence: Vec<usize> = part_of.iter().map(|&p| partitions[p].len()).collect();
    if product.size() == 0 {
        return Ok(Factorized {
            groups: Vec::new(),
            blocks_per_occurrence,
            swept: 0,
        });
    }
    let part = |occ: usize| &partitions[part_of[occ]];

    // Pairs by where they live: inside the prefix (the first n−1
    // occurrences), inside the last occurrence, or across the two.
    let last = n - 1;
    let words = pairs.len().div_ceil(64);
    let (mut prefix_pairs, mut intra_last, mut cross_last) = (Vec::new(), Vec::new(), Vec::new());
    for (bit, p) in pairs.iter().enumerate() {
        if p.occ_b < last {
            prefix_pairs.push(bit);
        } else if p.occ_a == last {
            intra_last.push(bit);
        } else {
            cross_last.push(bit);
        }
    }

    // The last occurrence's blocks by intra pattern (one class under
    // cross-only scope).
    let lp = part(last);
    let mut classes: Vec<Class> = Vec::new();
    let mut class_of: Vec<usize> = Vec::with_capacity(lp.len());
    let mut class_slots: HashMap<Vec<u64>, usize> = HashMap::new();
    let mut bits = vec![0u64; words];
    for block in 0..lp.len() {
        bits.fill(0);
        let key = lp.key(block);
        for &bit in &intra_last {
            let p = &pairs[bit];
            if key[p.pos_a] == key[p.pos_b] {
                set_bit(&mut bits, bit);
            }
        }
        let class = match class_slots.get(bits.as_slice()) {
            Some(&class) => class,
            None => {
                class_slots.insert(bits.clone(), classes.len());
                classes.push(Class {
                    bits: bits.clone(),
                    rows: 0,
                    members: Vec::new(),
                });
                classes.len() - 1
            }
        };
        classes[class].rows += lp.count(block);
        classes[class].members.push(block as u32);
        class_of.push(class);
    }

    // Every prefix combination walks each class at least once: refuse an
    // instance whose prefix alone passes the bound before sweeping it.
    let floor = (0..last)
        .fold(1u64, |acc, occ| acc.saturating_mul(part(occ).len() as u64))
        .saturating_mul(classes.len() as u64);
    if floor > options.max_sweep {
        return Err(FactorizeError::SweepTooLarge {
            cost: floor,
            limit: options.max_sweep,
        });
    }

    // Inverted index: real code -> last-occurrence blocks holding it.
    let mut index_starts = vec![0u32; n_codes + 1];
    for block in 0..lp.len() {
        let key = lp.key(block);
        for (i, &code) in key.iter().enumerate() {
            if real(code) && !key[..i].contains(&code) {
                index_starts[code as usize + 1] += 1;
            }
        }
    }
    for i in 1..index_starts.len() {
        index_starts[i] += index_starts[i - 1];
    }
    let mut index = vec![0u32; index_starts[n_codes] as usize];
    let mut fill = index_starts.clone();
    for block in 0..lp.len() {
        let key = lp.key(block);
        for (i, &code) in key.iter().enumerate() {
            if real(code) && !key[..i].contains(&code) {
                index[fill[code as usize] as usize] = block as u32;
                fill[code as usize] += 1;
            }
        }
    }
    let blocks_with = |code: u32| {
        &index[index_starts[code as usize] as usize..index_starts[code as usize + 1] as usize]
    };

    // Rank strides (last occurrence fastest); they fit because the
    // product's size does.
    let mut stride = vec![1u64; n];
    for occ in (0..last).rev() {
        stride[occ] = stride[occ + 1] * relations[occ + 1].len() as u64;
    }

    let mut accs = Accumulators::new(words);
    let mut sel = vec![0usize; last];
    let mut prefix_bits = vec![0u64; words];
    let mut pattern = vec![0u64; words];
    // Per class: the prefix's pattern plus the class's intra pairs.
    let mut bases = vec![0u64; classes.len() * words];
    let mut code_stamp = vec![0u64; n_codes];
    let mut block_stamp = vec![0u64; lp.len()];
    let mut matched: Vec<u32> = Vec::new();
    let mut matched_rows = vec![0u64; classes.len()];
    // (pattern word, bit mask, last-occurrence key position, prefix code)
    // per cross pair whose prefix side holds a real code — the only ones
    // that can hold.
    let mut probes: Vec<(usize, u64, usize, u32)> = Vec::new();
    let mut swept: u64 = 0;
    let mut stamp = 0u64;
    loop {
        stamp += 1;
        let key = |occ: usize| part(occ).key(sel[occ]);
        prefix_bits.fill(0);
        for &bit in &prefix_pairs {
            let p = &pairs[bit];
            let (ka, kb) = (key(p.occ_a)[p.pos_a], key(p.occ_b)[p.pos_b]);
            if ka == kb && (p.occ_a == p.occ_b || real(ka)) {
                set_bit(&mut prefix_bits, bit);
            }
        }
        let (mut count, mut rank) = (1u64, 0u64);
        for occ in 0..last {
            count *= part(occ).count(sel[occ]);
            rank += part(occ).min_row(sel[occ]) * stride[occ];
        }
        probes.clear();
        for &bit in &cross_last {
            let p = &pairs[bit];
            let code = key(p.occ_a)[p.pos_a];
            if real(code) {
                probes.push((bit / 64, 1 << (bit % 64), p.pos_b, code));
            }
        }
        matched.clear();
        for occ in 0..last {
            for &code in key(occ) {
                if !real(code) || code_stamp[code as usize] == stamp {
                    continue;
                }
                code_stamp[code as usize] = stamp;
                for &block in blocks_with(code) {
                    if block_stamp[block as usize] != stamp {
                        block_stamp[block as usize] = stamp;
                        matched.push(block);
                    }
                }
            }
        }
        swept += (matched.len() + classes.len()) as u64;
        if swept > options.max_sweep {
            return Err(FactorizeError::SweepTooLarge {
                cost: swept,
                limit: options.max_sweep,
            });
        }

        // Blocks sharing a value with the prefix: their own patterns.
        for (c, class) in classes.iter().enumerate() {
            let base = &mut bases[c * words..(c + 1) * words];
            base.copy_from_slice(&prefix_bits);
            or_into(base, &class.bits);
        }
        matched_rows.fill(0);
        for &block in &matched {
            let b = block as usize;
            let class = class_of[b];
            pattern.copy_from_slice(&bases[class * words..(class + 1) * words]);
            let key_b = lp.key(b);
            for &(word, mask, pos, code) in &probes {
                if key_b[pos] == code {
                    pattern[word] |= mask;
                }
            }
            let rows = lp.count(b);
            let acc = accs.get(&pattern);
            acc.count += count * rows;
            acc.offer(rank + lp.min_row(b), block);
            matched_rows[class] += rows;
        }
        // Every other block holds no atom with the prefix: the prefix
        // pattern plus its class's, by subtraction. For a fixed prefix a
        // combination's minimum id grows with its block's minimum row, so
        // the class's first MAX_WITNESSES unmatched blocks are the only
        // candidates for the pattern's smallest.
        for (c, class) in classes.iter().enumerate() {
            let unmatched = class.rows - matched_rows[c];
            if unmatched == 0 {
                continue;
            }
            let acc = accs.get(&bases[c * words..(c + 1) * words]);
            acc.count += count * unmatched;
            let mut offered = 0usize;
            for &block in &class.members {
                if block_stamp[block as usize] == stamp {
                    continue;
                }
                offered += 1;
                if !acc.offer(rank + lp.min_row(block as usize), block) || offered >= MAX_WITNESSES
                {
                    break;
                }
            }
        }

        // Mixed-radix increment over the prefix, last prefix occurrence
        // fastest.
        let mut k = last;
        loop {
            if k == 0 {
                return Ok(finish(
                    product,
                    &pairs,
                    lp,
                    accs,
                    blocks_per_occurrence,
                    swept,
                ));
            }
            k -= 1;
            sel[k] += 1;
            if sel[k] < part(k).len() {
                break;
            }
            sel[k] = 0;
        }
    }
}

/// Expand each pattern's smallest combinations into witness ids (the
/// combination's minimum rows, then its last block's first rows — exactly
/// its smallest ranks) and sort the groups by minimum id.
fn finish(
    product: &Product,
    pairs: &[PairInfo],
    lp: &Partition,
    accs: Accumulators,
    blocks_per_occurrence: Vec<usize>,
    swept: u64,
) -> Factorized {
    let Accumulators { slots, accs, .. } = accs;
    let mut groups: Vec<SigGroup> = slots
        .into_iter()
        .filter_map(|(bits, slot)| {
            let acc = &accs[slot];
            let &(min_id, _) = acc.entries.first()?;
            let mut witnesses: Vec<ProductId> = Vec::new();
            for &(id, block) in &acc.entries {
                let rows = lp.rows_of(block as usize);
                let base = id - u64::from(rows[0]);
                witnesses.extend(
                    rows.iter()
                        .take(MAX_WITNESSES)
                        .map(|&row| ProductId(base + u64::from(row))),
                );
            }
            witnesses.sort_unstable();
            witnesses.dedup();
            witnesses.truncate(MAX_WITNESSES);
            Some(SigGroup {
                pattern: (0..pairs.len())
                    .filter(|&bit| has_bit(&bits, bit))
                    .map(|bit| (pairs[bit].a, pairs[bit].b))
                    .collect(),
                count: acc.count,
                min_id: ProductId(min_id),
                witnesses,
            })
        })
        .collect();
    groups.sort_unstable_by_key(|g| g.min_id);
    debug_assert_eq!(
        groups.iter().map(|g| g.count).sum::<u64>(),
        product.size(),
        "groups must exactly cover the product"
    );
    Factorized {
        groups,
        blocks_per_occurrence,
        swept,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;
    use crate::schema::RelationSchema;
    use crate::tup;
    use crate::tuple::Tuple;
    use crate::value::DataType;
    use crate::IntoSharedRelation;
    use proptest::prelude::*;

    /// Count and tuple ids of one brute-forced signature group.
    type PatternEntry = (u64, Vec<ProductId>);

    /// Brute force: group product tuples by their joinable-pair pattern.
    fn brute(product: &Product, cross_only: bool) -> Vec<SigGroup> {
        let pairs = joinable_pairs(product.schema(), cross_only);
        let mut by_pattern: HashMap<Vec<(GlobalAttr, GlobalAttr)>, PatternEntry> = HashMap::new();
        for (id, t) in product.iter() {
            let pattern: Vec<_> = pairs
                .iter()
                .copied()
                .filter(|&(a, b)| t[a.index()] == t[b.index()])
                .collect();
            let e = by_pattern.entry(pattern).or_insert((0, Vec::new()));
            e.0 += 1;
            e.1.push(id);
        }
        let mut out: Vec<SigGroup> = by_pattern
            .into_iter()
            .map(|(pattern, (count, ids))| SigGroup {
                pattern,
                count,
                min_id: ids[0],
                witnesses: ids,
            })
            .collect();
        out.sort_unstable_by_key(|g| g.min_id);
        out
    }

    fn check(product: &Product, options: &FactorizeOptions) {
        let expect = brute(product, options.cross_only);
        let got = factorize(product, options).expect("factorize succeeds");
        assert_eq!(got.groups.len(), expect.len(), "group count");
        for (g, e) in got.groups.iter().zip(&expect) {
            let mut gp = g.pattern.clone();
            let mut ep = e.pattern.clone();
            gp.sort_unstable();
            ep.sort_unstable();
            assert_eq!(gp, ep, "pattern at {:?}", g.min_id);
            assert_eq!(g.count, e.count, "count at {:?}", g.min_id);
            assert_eq!(g.min_id, e.min_id, "min id");
            assert!(!g.witnesses.is_empty());
            assert_eq!(g.witnesses[0], g.min_id, "min id is first witness");
            let expected_len = (e.count as usize).min(MAX_WITNESSES);
            assert!(
                g.witnesses.len() <= MAX_WITNESSES
                    && !g.witnesses.is_empty()
                    && g.witnesses.len() <= expected_len,
                "witness count {} vs count {}",
                g.witnesses.len(),
                e.count
            );
            let mut sorted = g.witnesses.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted, g.witnesses, "witnesses ascending and distinct");
            for w in &g.witnesses {
                assert!(e.witnesses.contains(w), "witness {w} is a member");
            }
        }
    }

    /// [`check`] in both atom scopes.
    fn check_both_scopes(product: &Product) {
        for cross_only in [true, false] {
            check(
                product,
                &FactorizeOptions {
                    cross_only,
                    ..Default::default()
                },
            );
        }
    }

    fn ints(name: &str, arity: usize, rows: &[Vec<i64>]) -> Relation {
        let cols: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
        let attrs: Vec<(&str, DataType)> =
            cols.iter().map(|c| (c.as_str(), DataType::Int)).collect();
        Relation::new(
            RelationSchema::of(name, &attrs).unwrap(),
            rows.iter()
                .map(|r| Tuple::new(r.iter().map(|&v| Value::Int(v)).collect()))
                .collect(),
        )
        .unwrap()
    }

    fn flights() -> Relation {
        Relation::new(
            RelationSchema::of(
                "flights",
                &[
                    ("From", DataType::Text),
                    ("To", DataType::Text),
                    ("Airline", DataType::Text),
                ],
            )
            .unwrap(),
            vec![
                tup!["Paris", "Lille", "AF"],
                tup!["Paris", "NYC", "AA"],
                tup!["NYC", "Paris", "AA"],
                tup!["Lille", "NYC", "AF"],
            ],
        )
        .unwrap()
    }

    fn hotels() -> Relation {
        Relation::new(
            RelationSchema::of(
                "hotels",
                &[("City", DataType::Text), ("Discount", DataType::Text)],
            )
            .unwrap(),
            vec![tup!["Lille", "AF"], tup!["NYC", "AA"], tup!["Paris", "SPG"]],
        )
        .unwrap()
    }

    #[test]
    fn matches_brute_force_on_the_paper_instance() {
        let p = Product::new(vec![&flights(), &hotels()]).unwrap();
        check_both_scopes(&p);
    }

    #[test]
    fn self_join_with_duplicate_rows() {
        let rel = ints(
            "e",
            2,
            &[
                vec![1, 2],
                vec![2, 3],
                vec![1, 2],
                vec![3, 1],
                vec![2, 3],
                vec![2, 3],
            ],
        );
        let shared = rel.into_shared();
        let p = Product::new(vec![shared.clone(), shared]).unwrap();
        check_both_scopes(&p);
    }

    #[test]
    fn empty_relation_yields_no_groups() {
        let empty = Relation::empty(RelationSchema::of("a", &[("x", DataType::Int)]).unwrap());
        let other = ints("b", 1, &[vec![1], vec![2]]);
        for p in [
            Product::new(vec![&empty, &other]).unwrap(),
            Product::new(vec![&other, &empty]).unwrap(),
            Product::new(vec![&other, &empty, &other]).unwrap(),
        ] {
            let f = factorize(&p, &FactorizeOptions::default()).unwrap();
            assert!(f.groups.is_empty());
            assert_eq!(f.swept, 0);
        }
    }

    #[test]
    fn all_rows_in_one_block_when_values_never_join() {
        // Every From/To value is disjoint from every City value, so all
        // flight rows collapse into one block per distinct sentinel layout.
        let a = ints("a", 1, &[vec![100], vec![200], vec![300]]);
        let b = ints("b", 1, &[vec![1], vec![2]]);
        let p = Product::new(vec![&a, &b]).unwrap();
        let f = factorize(&p, &FactorizeOptions::default()).unwrap();
        assert_eq!(f.blocks_per_occurrence, vec![1, 1]);
        assert_eq!(f.groups.len(), 1);
        assert_eq!(f.groups[0].count, 6);
        assert!(f.groups[0].pattern.is_empty());
        check(&p, &FactorizeOptions::default());
    }

    #[test]
    fn three_way_products_match_brute_force() {
        let a = ints("a", 1, &[vec![1], vec![2], vec![1]]);
        let b = ints("b", 1, &[vec![1], vec![3]]);
        let c = ints("c", 1, &[vec![2], vec![1], vec![3]]);
        let p = Product::new(vec![&a, &b, &c]).unwrap();
        check_both_scopes(&p);
    }

    #[test]
    fn ternary_products_with_intra_pairs_and_duplicate_rows() {
        // Two int columns per relation: under all-pairs scope every
        // occurrence has an intra pair, so the last occurrence splits into
        // several classes; duplicate rows fold into shared blocks.
        let a = ints("a", 2, &[vec![1, 1], vec![1, 2], vec![1, 1], vec![3, 3]]);
        let b = ints("b", 2, &[vec![2, 2], vec![1, 3], vec![2, 2]]);
        let c = ints(
            "c",
            2,
            &[vec![3, 1], vec![4, 4], vec![1, 1], vec![4, 4], vec![5, 6]],
        );
        for rels in [[&a, &b, &c], [&c, &a, &b], [&b, &c, &a]] {
            let p = Product::new(rels.to_vec()).unwrap();
            check_both_scopes(&p);
        }
    }

    #[test]
    fn self_joins_of_one_relation_share_their_blocks() {
        // The shape `Database::join_view` produces for a self-join: every
        // occurrence is the same `Arc`.
        let rel = ints(
            "e",
            2,
            &[vec![1, 2], vec![2, 3], vec![1, 2], vec![3, 1], vec![2, 2]],
        )
        .into_shared();
        for n in [3, 4] {
            let p = Product::new(vec![rel.clone(); n]).unwrap();
            let f = factorize(&p, &FactorizeOptions::default()).unwrap();
            assert_eq!(f.blocks_per_occurrence, vec![4; n]);
            check_both_scopes(&p);
        }
    }

    #[test]
    fn nulls_match_only_nulls_of_the_same_declared_type() {
        let a = Relation::new(
            RelationSchema::of("a", &[("x", DataType::Int), ("s", DataType::Text)]).unwrap(),
            vec![
                Tuple::new(vec![Value::Null, Value::text("k")]),
                Tuple::new(vec![Value::Int(7), Value::Null]),
            ],
        )
        .unwrap();
        let b = Relation::new(
            RelationSchema::of("b", &[("y", DataType::Int), ("t", DataType::Text)]).unwrap(),
            vec![
                Tuple::new(vec![Value::Null, Value::Null]),
                Tuple::new(vec![Value::Int(7), Value::text("k")]),
            ],
        )
        .unwrap();
        let p = Product::new(vec![&a, &b]).unwrap();
        check_both_scopes(&p);
    }

    #[test]
    fn sweep_guard_trips_and_reports_cost() {
        let p = Product::new(vec![&flights(), &hotels()]).unwrap();
        let err = factorize(
            &p,
            &FactorizeOptions {
                max_sweep: 1,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, FactorizeError::SweepTooLarge { .. }));
        assert!(err.to_string().contains("factorization too large"));
    }

    #[test]
    fn sweep_guard_stops_at_the_bound() {
        // `x` distinct, `y` constant and outside `x`'s values: every block
        // of the second occurrence shares `y` with every block of the
        // first, so the sweep visits 200 · (200 + 1) combinations.
        let rows: Vec<Vec<i64>> = (0..200).map(|i| vec![i, 1_000]).collect();
        let rel = ints("t", 2, &rows).into_shared();
        let p = Product::new(vec![rel.clone(), rel]).unwrap();
        let full = factorize(&p, &FactorizeOptions::default()).unwrap();
        assert_eq!(full.swept, 200 * 201);
        let limit = 1_000;
        let err = factorize(
            &p,
            &FactorizeOptions {
                max_sweep: limit,
                ..Default::default()
            },
        )
        .unwrap_err();
        // Refused within one prefix's work past the bound.
        match err {
            FactorizeError::SweepTooLarge { cost, limit: l } => {
                assert_eq!(l, limit);
                assert!(cost > limit && cost <= limit + 201, "cost {cost}");
            }
            other => panic!("expected SweepTooLarge, got {other:?}"),
        }
        // A prefix that alone passes the bound is refused before the sweep.
        let err = factorize(
            &p,
            &FactorizeOptions {
                max_sweep: 100,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            FactorizeError::SweepTooLarge {
                cost: 200,
                limit: 100
            }
        );
    }

    #[test]
    fn no_joinable_pairs_is_an_error() {
        let a = ints("a", 1, &[vec![1]]);
        let b = Relation::new(
            RelationSchema::of("b", &[("y", DataType::Text)]).unwrap(),
            vec![tup!["z"]],
        )
        .unwrap();
        let p = Product::new(vec![&a, &b]).unwrap();
        assert_eq!(
            factorize(&p, &FactorizeOptions::default()).unwrap_err(),
            FactorizeError::NoJoinablePairs
        );
    }

    #[test]
    fn duplicate_heavy_log_compresses_to_few_blocks() {
        // An event-log-shaped relation: many duplicate edges over a tiny
        // domain. Blocks (and sweep cost) depend on distinct rows only.
        let rows: Vec<Vec<i64>> = (0..500).map(|i| vec![i % 4, (i / 4) % 3]).collect();
        let shared = ints("e", 2, &rows).into_shared();
        let p = Product::new(vec![shared.clone(), shared]).unwrap();
        assert_eq!(p.size(), 250_000);
        let f = factorize(&p, &FactorizeOptions::default()).unwrap();
        assert!(f.blocks_per_occurrence[0] <= 12);
        assert_eq!(f.groups.iter().map(|g| g.count).sum::<u64>(), 250_000);
        check(&p, &FactorizeOptions::default());
    }

    /// 2–4 occurrences; each either reuses an earlier occurrence's relation
    /// (a self-join over one `Arc`) or brings its own rows.
    fn occurrences() -> impl Strategy<Value = (Vec<usize>, Vec<Vec<Vec<i64>>>)> {
        (2usize..=4).prop_flat_map(|n| {
            (
                proptest::collection::vec(0usize..4, n),
                proptest::collection::vec(
                    proptest::collection::vec(proptest::collection::vec(0i64..3, 2), 0..4),
                    n,
                ),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random 2–4-occurrence products, shared relations and duplicate
        /// rows included, match brute force in both scopes.
        #[test]
        fn random_products_match_brute_force(instance in occurrences()) {
            let (reuse, rows) = instance;
            let mut relations: Vec<Arc<Relation>> = Vec::new();
            for (occ, rows) in rows.iter().enumerate() {
                let relation = match reuse[occ] {
                    j if j < occ => relations[j].clone(),
                    _ => ints(&format!("r{occ}"), 2, rows).into_shared(),
                };
                relations.push(relation);
            }
            let p = Product::new(relations).unwrap();
            check_both_scopes(&p);
        }
    }
}
