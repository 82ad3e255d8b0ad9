//! Factorized signature-group construction.
//!
//! JIM's engine treats product tuples with equal equality-atom signatures as
//! indistinguishable, yet naive construction enumerates the whole cartesian
//! product just to discover those groups. This module computes the
//! signature-group partition **directly from the base relations**:
//!
//! 1. Rows of each component relation are partitioned into
//!    **value-equivalence blocks**: two rows land in one block iff they agree
//!    on every attribute that participates in a joinable pair — after
//!    *collapsing* values that appear in no partner attribute (such values
//!    can never satisfy a cross atom, so only their within-row equality
//!    pattern matters, captured by per-row sentinels).
//! 2. Every product tuple's signature is a function of its block vector
//!    alone, so the distinct signatures of the product are exactly the
//!    distinct patterns over block combinations. The sweep enumerates block
//!    combinations — densely (mixed-radix, any arity) or sparsely for binary
//!    products (an inverted value index yields only block pairs that share a
//!    value; all remaining pairs take the no-cross-atom default pattern) —
//!    and aggregates per pattern a **count**, the **minimum** [`ProductId`]
//!    and a bounded sample of witness ids.
//!
//! The sweep never materializes the product: cost scales with the number of
//! blocks and their value overlap (for event-log-shaped data, the number of
//! *distinct* rows), not with `Product::size()`. A [`FactorizeOptions::max_sweep`]
//! guard rejects instances whose block structure is no smaller than the
//! product, so callers can fall back to sampling.

use crate::product::{Product, ProductId};
use crate::schema::{GlobalAttr, JoinSchema};
use crate::value::Value;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Tuning knobs for [`factorize`].
#[derive(Debug, Clone, Copy)]
pub struct FactorizeOptions {
    /// Only consider atoms between *different* relation occurrences
    /// (mirrors the engine's default atom scope).
    pub cross_only: bool,
    /// Upper bound on sweep work (dense: number of block combinations;
    /// sparse: candidate block pairs sharing a value). Exceeding it returns
    /// [`FactorizeError::SweepTooLarge`] so the caller can fall back.
    pub max_sweep: u64,
    /// Maximum number of witness ids carried per signature group (at least
    /// one — the minimum id is always a witness).
    pub max_witnesses: usize,
}

impl Default for FactorizeOptions {
    fn default() -> Self {
        FactorizeOptions {
            cross_only: true,
            max_sweep: 4_000_000,
            max_witnesses: 8,
        }
    }
}

/// Failure modes of [`factorize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactorizeError {
    /// No pair of attributes is joinable under the requested scope, so there
    /// is no signature structure to factorize.
    NoJoinablePairs,
    /// The block structure is too rich: sweeping it would cost more than
    /// `max_sweep`. Callers should fall back to sampling.
    SweepTooLarge {
        /// The estimated sweep cost.
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
    /// Up to `max_witnesses` member ids, ascending; `witnesses[0] == min_id`.
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
    /// Block combinations (dense) or candidate block pairs (sparse) visited.
    pub swept: u64,
}

/// A collapsed block-key entry: either a value that can participate in some
/// joinable pair, or a per-row sentinel for values that cannot (numbered by
/// first appearance within the row so within-row equality is preserved).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum KeyVal {
    Val(Value),
    Bot(u32),
}

/// One value-equivalence block of a relation occurrence.
struct Block {
    key: Vec<KeyVal>,
    count: u64,
    min_row: usize,
    witness_rows: Vec<usize>,
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

/// Per-pattern aggregation during the sweep.
#[derive(Default)]
struct Acc {
    count: u64,
    /// The `max_witnesses` smallest block combinations, as
    /// `(combo minimum id, block index per occurrence)`, ascending.
    entries: Vec<(u64, Vec<u32>)>,
}

impl Acc {
    fn add(&mut self, count: u64, min_id: u64, combo: &[u32], cap: usize) {
        self.count += count;
        let pos = self.entries.partition_point(|(id, _)| *id < min_id);
        if pos < cap {
            self.entries.insert(pos, (min_id, combo.to_vec()));
            self.entries.truncate(cap);
        }
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
    factorize_with(product, options, false)
}

/// [`factorize`], taking the dense sweep for binary products too when
/// `always_dense` is set, so tests can pin both sweeps to brute force.
fn factorize_with(
    product: &Product,
    options: &FactorizeOptions,
    always_dense: bool,
) -> Result<Factorized, FactorizeError> {
    let schema = product.schema();
    let n = schema.num_relations();
    let pair_attrs = joinable_pairs(schema, options.cross_only);
    if pair_attrs.is_empty() {
        return Err(FactorizeError::NoJoinablePairs);
    }
    let cap = options.max_witnesses.max(1);

    // Distinguishing attributes per occurrence: locals that appear in some
    // joinable pair, with their position in the block key.
    let mut distinguishing: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut pos_of: HashMap<GlobalAttr, (usize, usize)> = HashMap::new();
    for &(a, b) in &pair_attrs {
        for attr in [a, b] {
            let (occ, local) = schema.locate(attr).expect("attr in range");
            if !distinguishing[occ].contains(&local) {
                distinguishing[occ].push(local);
            }
        }
    }
    for (occ, locals) in distinguishing.iter_mut().enumerate() {
        locals.sort_unstable();
        for (pos, &local) in locals.iter().enumerate() {
            let attr = schema.global(occ, local).expect("local in range");
            pos_of.insert(attr, (occ, pos));
        }
    }
    let pairs: Vec<PairInfo> = pair_attrs
        .iter()
        .map(|&(a, b)| {
            let (occ_a, pos_a) = pos_of[&a];
            let (occ_b, pos_b) = pos_of[&b];
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

    // Value sets per distinguishing attribute, then partner attrs per attr:
    // a value collapses iff no joinable partner attribute ever holds it.
    let mut value_sets: HashMap<GlobalAttr, HashSet<Value>> = HashMap::new();
    for (occ, locals) in distinguishing.iter().enumerate() {
        let rel = &product.relations()[occ];
        for &local in locals {
            let attr = schema.global(occ, local).expect("local in range");
            let set = value_sets.entry(attr).or_default();
            for row in rel.rows() {
                set.insert(row[local].clone());
            }
        }
    }
    let mut partners: HashMap<GlobalAttr, Vec<GlobalAttr>> = HashMap::new();
    for &(a, b) in &pair_attrs {
        partners.entry(a).or_default().push(b);
        partners.entry(b).or_default().push(a);
    }

    // Block partition per occurrence.
    let mut blocks: Vec<Vec<Block>> = Vec::with_capacity(n);
    for (occ, locals) in distinguishing.iter().enumerate() {
        let rel = &product.relations()[occ];
        let mut by_key: HashMap<Vec<KeyVal>, u32> = HashMap::new();
        let mut occ_blocks: Vec<Block> = Vec::new();
        let mut bots: Vec<&Value> = Vec::new();
        for (row_idx, row) in rel.rows().iter().enumerate() {
            bots.clear();
            let mut key = Vec::with_capacity(locals.len());
            for &local in locals {
                let attr = schema.global(occ, local).expect("local in range");
                let v = &row[local];
                let joins = partners[&attr].iter().any(|p| value_sets[p].contains(v));
                if joins {
                    key.push(KeyVal::Val(v.clone()));
                } else {
                    let j = bots.iter().position(|w| *w == v).unwrap_or_else(|| {
                        bots.push(v);
                        bots.len() - 1
                    });
                    key.push(KeyVal::Bot(j as u32));
                }
            }
            if let Some(&i) = by_key.get(&key) {
                let b = &mut occ_blocks[i as usize];
                b.count += 1;
                if b.witness_rows.len() < cap {
                    b.witness_rows.push(row_idx);
                }
            } else {
                by_key.insert(key.clone(), occ_blocks.len() as u32);
                occ_blocks.push(Block {
                    key,
                    count: 1,
                    min_row: row_idx,
                    witness_rows: vec![row_idx],
                });
            }
        }
        blocks.push(occ_blocks);
    }
    let blocks_per_occurrence: Vec<usize> = blocks.iter().map(Vec::len).collect();

    let mut accs: HashMap<Vec<u32>, Acc> = HashMap::new();
    let swept = if n == 2 && !always_dense {
        sweep_sparse(product, &pairs, &blocks, options.max_sweep, cap, &mut accs)?
    } else {
        sweep_dense(product, &pairs, &blocks, options.max_sweep, cap, &mut accs)?
    };

    // Finalize: expand witness entries and sort groups by minimum id.
    let mut groups: Vec<SigGroup> = accs
        .into_iter()
        .map(|(pattern, acc)| {
            let mut witnesses: Vec<ProductId> = Vec::new();
            for (_, combo) in &acc.entries {
                witnesses.extend(expand_combo(product, &blocks, combo, cap));
            }
            witnesses.sort_unstable();
            witnesses.dedup();
            witnesses.truncate(cap);
            SigGroup {
                pattern: pattern
                    .iter()
                    .map(|&i| (pairs[i as usize].a, pairs[i as usize].b))
                    .collect(),
                count: acc.count,
                min_id: ProductId(acc.entries[0].0),
                witnesses,
            }
        })
        .collect();
    groups.sort_unstable_by_key(|g| g.min_id);
    debug_assert_eq!(
        groups.iter().map(|g| g.count).sum::<u64>(),
        product.size(),
        "groups must exactly cover the product"
    );
    Ok(Factorized {
        groups,
        blocks_per_occurrence,
        swept,
    })
}

/// The smallest member ids of one block combination: the per-block minimum
/// rows, then varying the last (fastest-varying) occurrence over its block's
/// witness rows — those are exactly the combination's smallest ranks.
fn expand_combo(
    product: &Product,
    blocks: &[Vec<Block>],
    combo: &[u32],
    cap: usize,
) -> Vec<ProductId> {
    let mut rows: Vec<usize> = combo
        .iter()
        .zip(blocks)
        .map(|(&i, occ)| occ[i as usize].min_row)
        .collect();
    let last_block = &blocks[blocks.len() - 1][combo[combo.len() - 1] as usize];
    let mut out = Vec::with_capacity(last_block.witness_rows.len().min(cap));
    for &w in last_block.witness_rows.iter().take(cap) {
        *rows.last_mut().expect("non-empty combo") = w;
        out.push(product.encode(&rows).expect("block rows in range"));
    }
    out
}

/// Does the joinable pair hold between the given block keys?
fn pair_holds(p: &PairInfo, keys: &[&Vec<KeyVal>]) -> bool {
    let ka = &keys[p.occ_a][p.pos_a];
    let kb = &keys[p.occ_b][p.pos_b];
    if p.occ_a == p.occ_b {
        // Within one row sentinels compare meaningfully.
        ka == kb
    } else {
        // Across occurrences only real (partner-domain) values can match.
        matches!((ka, kb), (KeyVal::Val(x), KeyVal::Val(y)) if x == y)
    }
}

/// Dense sweep: enumerate every block combination in mixed-radix order
/// (last occurrence fastest) and evaluate all pairs per combination.
fn sweep_dense(
    product: &Product,
    pairs: &[PairInfo],
    blocks: &[Vec<Block>],
    max_sweep: u64,
    cap: usize,
    accs: &mut HashMap<Vec<u32>, Acc>,
) -> Result<u64, FactorizeError> {
    let mut combos: u64 = 1;
    for occ in blocks {
        combos = combos
            .checked_mul(occ.len() as u64)
            .ok_or(FactorizeError::SweepTooLarge {
                cost: u64::MAX,
                limit: max_sweep,
            })?;
    }
    if combos == 0 {
        return Ok(0);
    }
    if combos > max_sweep {
        return Err(FactorizeError::SweepTooLarge {
            cost: combos,
            limit: max_sweep,
        });
    }
    let n = blocks.len();
    let mut sel = vec![0u32; n];
    let mut rows = vec![0usize; n];
    loop {
        let keys: Vec<&Vec<KeyVal>> = sel
            .iter()
            .zip(blocks)
            .map(|(&i, occ)| &occ[i as usize].key)
            .collect();
        let pattern: Vec<u32> = pairs
            .iter()
            .enumerate()
            .filter_map(|(i, p)| pair_holds(p, &keys).then_some(i as u32))
            .collect();
        let mut count: u64 = 1;
        for (slot, (&i, occ)) in rows.iter_mut().zip(sel.iter().zip(blocks)) {
            let b = &occ[i as usize];
            count *= b.count;
            *slot = b.min_row;
        }
        let min_id = product.encode(&rows).expect("block rows in range");
        accs.entry(pattern)
            .or_default()
            .add(count, min_id.rank(), &sel, cap);
        // Mixed-radix increment, last occurrence fastest.
        let mut k = n;
        loop {
            if k == 0 {
                return Ok(combos);
            }
            k -= 1;
            sel[k] += 1;
            if (sel[k] as usize) < blocks[k].len() {
                break;
            }
            sel[k] = 0;
        }
    }
}

/// Sparse sweep for binary products: an inverted value index over the second
/// occurrence's blocks yields, per first-occurrence block, exactly the
/// partner blocks that share a value (the only ones where any cross atom can
/// hold); every remaining partner block contributes to the no-cross-atom
/// default pattern by subtraction, per intra-pattern class.
fn sweep_sparse(
    product: &Product,
    pairs: &[PairInfo],
    blocks: &[Vec<Block>],
    max_sweep: u64,
    cap: usize,
    accs: &mut HashMap<Vec<u32>, Acc>,
) -> Result<u64, FactorizeError> {
    debug_assert_eq!(blocks.len(), 2);
    let (a_blocks, b_blocks) = (&blocks[0], &blocks[1]);

    // Inverted index: real value -> B blocks containing it (dedup per block).
    let mut index: HashMap<&Value, Vec<u32>> = HashMap::new();
    for (i, b) in b_blocks.iter().enumerate() {
        let mut seen: Vec<&Value> = Vec::new();
        for kv in &b.key {
            if let KeyVal::Val(v) = kv {
                if !seen.contains(&v) {
                    seen.push(v);
                    index.entry(v).or_default().push(i as u32);
                }
            }
        }
    }

    // Intra-pattern classes of B blocks (a single class under cross-only
    // scope, where no intra pair exists).
    let intra_of = |occ: usize, key: &Vec<KeyVal>| -> Vec<u32> {
        pairs
            .iter()
            .enumerate()
            .filter_map(|(i, p)| {
                (p.occ_a == occ && p.occ_b == occ && pair_holds(p, &[key, key])).then_some(i as u32)
            })
            .collect()
    };
    let mut class_of: Vec<u32> = Vec::with_capacity(b_blocks.len());
    let mut class_index: HashMap<Vec<u32>, u32> = HashMap::new();
    // Per class: (intra pattern, total rows, member blocks ascending by min_row).
    let mut classes: Vec<(Vec<u32>, u64, Vec<u32>)> = Vec::new();
    for (i, b) in b_blocks.iter().enumerate() {
        let pattern = intra_of(1, &b.key);
        let c = *class_index.entry(pattern.clone()).or_insert_with(|| {
            classes.push((pattern, 0, Vec::new()));
            (classes.len() - 1) as u32
        });
        classes[c as usize].1 += b.count;
        classes[c as usize].2.push(i as u32);
        class_of.push(c);
    }

    // Cost guard: candidate pairs sharing a value, plus the per-A-block
    // class walks (one class under cross-only scope).
    let mut cost: u64 = 0;
    for a in a_blocks {
        let mut seen: Vec<&Value> = Vec::new();
        for kv in &a.key {
            if let KeyVal::Val(v) = kv {
                if !seen.contains(&v) {
                    seen.push(v);
                    cost = cost.saturating_add(index.get(v).map_or(0, |l| l.len() as u64));
                }
            }
        }
        cost = cost.saturating_add(classes.len() as u64);
    }
    if cost > max_sweep {
        return Err(FactorizeError::SweepTooLarge {
            cost,
            limit: max_sweep,
        });
    }

    let cross: Vec<(usize, &PairInfo)> = pairs
        .iter()
        .enumerate()
        .filter(|(_, p)| p.occ_a != p.occ_b)
        .collect();
    let mut swept: u64 = 0;
    let mut candidates: Vec<u32> = Vec::new();
    let mut matched: HashSet<u32> = HashSet::new();
    let mut matched_rows: Vec<u64> = Vec::new();
    for (ai, a) in a_blocks.iter().enumerate() {
        let intra_a = intra_of(0, &a.key);
        candidates.clear();
        for kv in &a.key {
            if let KeyVal::Val(v) = kv {
                if let Some(l) = index.get(v) {
                    candidates.extend_from_slice(l);
                }
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        matched.clear();
        matched_rows.clear();
        matched_rows.resize(classes.len(), 0);
        for &bi in &candidates {
            let b = &b_blocks[bi as usize];
            let keys = [&a.key, &b.key];
            let mut pattern = intra_a.clone();
            pattern.extend(classes[class_of[bi as usize] as usize].0.iter().copied());
            for &(i, p) in &cross {
                if pair_holds(p, &keys) {
                    pattern.push(i as u32);
                }
            }
            pattern.sort_unstable();
            let min_id = product
                .encode(&[a.min_row, b.min_row])
                .expect("block rows in range");
            accs.entry(pattern).or_default().add(
                a.count * b.count,
                min_id.rank(),
                &[ai as u32, bi],
                cap,
            );
            matched.insert(bi);
            matched_rows[class_of[bi as usize] as usize] += b.count;
            swept += 1;
        }
        // Unmatched B blocks take the default (no cross atom) pattern.
        for (c, (intra_b, total, members)) in classes.iter().enumerate() {
            let unmatched = total - matched_rows[c];
            if unmatched == 0 {
                continue;
            }
            let mut pattern = intra_a.clone();
            pattern.extend(intra_b.iter().copied());
            pattern.sort_unstable();
            let acc = accs.entry(pattern).or_default();
            acc.count += a.count * unmatched;
            // Witness entries: the first `cap` unmatched blocks (ascending
            // min_row) under this A block. Earlier A blocks dominate the
            // rank order, so per-A candidates suffice for the global K-min.
            let mut offered = 0usize;
            for &bi in members {
                if matched.contains(&bi) {
                    continue;
                }
                let b = &b_blocks[bi as usize];
                let min_id = product
                    .encode(&[a.min_row, b.min_row])
                    .expect("block rows in range");
                let pos = acc.entries.partition_point(|(id, _)| *id < min_id.rank());
                if pos < cap {
                    acc.entries
                        .insert(pos, (min_id.rank(), vec![ai as u32, bi]));
                    acc.entries.truncate(cap);
                } else {
                    break;
                }
                offered += 1;
                if offered >= cap {
                    break;
                }
            }
        }
    }
    Ok(swept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;
    use crate::schema::RelationSchema;
    use crate::tup;
    use crate::value::DataType;
    use crate::IntoSharedRelation;

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
        for always_dense in [false, true] {
            let got = factorize_with(product, options, always_dense).expect("factorize succeeds");
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
                let expected_len = (e.count as usize).min(options.max_witnesses.max(1));
                assert!(
                    g.witnesses.len() <= options.max_witnesses.max(1)
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
        check(&p, &FactorizeOptions::default());
        check(
            &p,
            &FactorizeOptions {
                cross_only: false,
                ..Default::default()
            },
        );
    }

    #[test]
    fn self_join_with_duplicate_rows() {
        let rel = Relation::new(
            RelationSchema::of("e", &[("src", DataType::Int), ("dst", DataType::Int)]).unwrap(),
            vec![
                tup![1, 2],
                tup![2, 3],
                tup![1, 2],
                tup![3, 1],
                tup![2, 3],
                tup![2, 3],
            ],
        )
        .unwrap();
        let shared = rel.into_shared();
        let p = Product::new(vec![shared.clone(), shared]).unwrap();
        check(&p, &FactorizeOptions::default());
        check(
            &p,
            &FactorizeOptions {
                cross_only: false,
                ..Default::default()
            },
        );
    }

    #[test]
    fn empty_relation_yields_no_groups() {
        let empty = Relation::empty(RelationSchema::of("a", &[("x", DataType::Int)]).unwrap());
        let other = Relation::new(
            RelationSchema::of("b", &[("y", DataType::Int)]).unwrap(),
            vec![tup![1], tup![2]],
        )
        .unwrap();
        let p = Product::new(vec![&empty, &other]).unwrap();
        let f = factorize(&p, &FactorizeOptions::default()).unwrap();
        assert!(f.groups.is_empty());
        let dense = factorize_with(&p, &FactorizeOptions::default(), true).unwrap();
        assert!(dense.groups.is_empty());
    }

    #[test]
    fn all_rows_in_one_block_when_values_never_join() {
        // Every From/To value is disjoint from every City value, so all
        // flight rows collapse into one block per distinct sentinel layout.
        let a = Relation::new(
            RelationSchema::of("a", &[("x", DataType::Int)]).unwrap(),
            vec![tup![100], tup![200], tup![300]],
        )
        .unwrap();
        let b = Relation::new(
            RelationSchema::of("b", &[("y", DataType::Int)]).unwrap(),
            vec![tup![1], tup![2]],
        )
        .unwrap();
        let p = Product::new(vec![&a, &b]).unwrap();
        let f = factorize(&p, &FactorizeOptions::default()).unwrap();
        assert_eq!(f.blocks_per_occurrence, vec![1, 1]);
        assert_eq!(f.groups.len(), 1);
        assert_eq!(f.groups[0].count, 6);
        assert!(f.groups[0].pattern.is_empty());
        check(&p, &FactorizeOptions::default());
    }

    #[test]
    fn three_way_products_use_the_dense_sweep() {
        let a = Relation::new(
            RelationSchema::of("a", &[("x", DataType::Int)]).unwrap(),
            vec![tup![1], tup![2], tup![1]],
        )
        .unwrap();
        let b = Relation::new(
            RelationSchema::of("b", &[("y", DataType::Int)]).unwrap(),
            vec![tup![1], tup![3]],
        )
        .unwrap();
        let c = Relation::new(
            RelationSchema::of("c", &[("z", DataType::Int)]).unwrap(),
            vec![tup![2], tup![1], tup![3]],
        )
        .unwrap();
        let p = Product::new(vec![&a, &b, &c]).unwrap();
        check(&p, &FactorizeOptions::default());
        check(
            &p,
            &FactorizeOptions {
                cross_only: false,
                ..Default::default()
            },
        );
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
        check(&p, &FactorizeOptions::default());
        check(
            &p,
            &FactorizeOptions {
                cross_only: false,
                ..Default::default()
            },
        );
    }

    use crate::tuple::Tuple;

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
    fn no_joinable_pairs_is_an_error() {
        let a = Relation::new(
            RelationSchema::of("a", &[("x", DataType::Int)]).unwrap(),
            vec![tup![1]],
        )
        .unwrap();
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
        let rows: Vec<Tuple> = (0..500)
            .map(|i| tup![(i % 4) as i64, ((i / 4) % 3) as i64])
            .collect();
        let rel = Relation::new(
            RelationSchema::of("e", &[("src", DataType::Int), ("dst", DataType::Int)]).unwrap(),
            rows,
        )
        .unwrap();
        let shared = rel.into_shared();
        let p = Product::new(vec![shared.clone(), shared]).unwrap();
        assert_eq!(p.size(), 250_000);
        let f = factorize(&p, &FactorizeOptions::default()).unwrap();
        assert!(f.blocks_per_occurrence[0] <= 12);
        assert_eq!(f.groups.iter().map(|g| g.count).sum::<u64>(), 250_000);
        check(&p, &FactorizeOptions::default());
    }
}
