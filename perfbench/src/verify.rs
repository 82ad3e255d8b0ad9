//! Checking inferred predicates against goals over the **full** product.
//!
//! Two join predicates are instance-equivalent when they select the same
//! tuples. Only the occurrences either predicate mentions matter, so small
//! products are checked by enumerating the mentioned occurrences' row
//! combinations; products too large for that are checked over the exact
//! signature-group partition of `jim_relation::factorize`, where a
//! predicate selects a group iff all its pairs are in the group's pattern.

use crate::driver::Resolved;
use crate::workload::Workload;
use jim_relation::{factorize, FactorizeOptions, GlobalAttr, Product, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Products up to this many tuples are checked by enumeration.
const ENUMERATE_LIMIT: u64 = 20_000_000;

/// Normalized column pairs of a predicate.
type Pairs = Vec<(usize, usize)>;

/// A column as (slot among the mentioned occurrences, local column).
type Side = (usize, usize);

/// Caches per-instance partitions and per-(script, predicate) verdicts, so
/// repeated cycles cost one check per distinct outcome.
#[derive(Default)]
pub struct Verifier {
    patterns: HashMap<usize, Vec<Pairs>>,
    verdicts: HashMap<(usize, String), bool>,
}

/// Parse the server's rendering of a predicate (`a ≍ b ∧ …` over qualified
/// column names, or `TRUE`) into column pairs.
pub fn parse_predicate(text: &str, columns: &[String]) -> Result<Pairs, String> {
    if text == "TRUE" {
        return Ok(Vec::new());
    }
    let index = |name: &str| {
        columns
            .iter()
            .position(|c| c == name.trim())
            .ok_or_else(|| format!("predicate names unknown column `{name}`"))
    };
    text.split(" ∧ ")
        .map(|atom| {
            let (a, b) = atom
                .split_once(" ≍ ")
                .ok_or_else(|| format!("malformed atom `{atom}`"))?;
            Ok(normalize(index(a)?, index(b)?))
        })
        .collect()
}

fn normalize(a: usize, b: usize) -> (usize, usize) {
    (a.min(b), a.max(b))
}

impl Verifier {
    /// Whether the resolved session's predicate is instance-equivalent to
    /// its script's goal over the full product.
    pub fn check(&mut self, w: &Workload, r: &Resolved) -> Result<bool, String> {
        if let Some(&verdict) = self.verdicts.get(&(r.spec, r.predicate.clone())) {
            return Ok(verdict);
        }
        let script = &w.sessions[r.spec];
        let inferred = parse_predicate(&r.predicate, &r.columns)?;
        let goal: Pairs = script.goal.iter().map(|&(a, b)| normalize(a, b)).collect();
        let product = &w.instances[script.instance].product;
        let verdict = if product.size() <= ENUMERATE_LIMIT {
            enumerate_equivalent(product, &inferred, &goal)?
        } else {
            let patterns = match self.patterns.entry(script.instance) {
                Entry::Occupied(known) => known.into_mut(),
                Entry::Vacant(slot) => {
                    let options = FactorizeOptions {
                        max_sweep: u64::MAX,
                        ..FactorizeOptions::default()
                    };
                    let groups = factorize(product, &options).map_err(|e| e.to_string())?;
                    slot.insert(
                        groups
                            .groups
                            .into_iter()
                            .map(|g| {
                                g.pattern
                                    .iter()
                                    .map(|&(a, b)| normalize(a.index(), b.index()))
                                    .collect()
                            })
                            .collect(),
                    )
                }
            };
            patterns.iter().all(|pattern: &Pairs| {
                let selects = |p: &Pairs| p.iter().all(|pair| pattern.contains(pair));
                selects(&inferred) == selects(&goal)
            })
        };
        self.verdicts.insert((r.spec, r.predicate.clone()), verdict);
        Ok(verdict)
    }
}

/// Enumerate the row combinations of the occurrences the predicates
/// mention and compare what each selects.
fn enumerate_equivalent(product: &Product, p: &Pairs, g: &Pairs) -> Result<bool, String> {
    let schema = product.schema();
    let locate = |c: usize| {
        schema
            .locate(GlobalAttr(c as u32))
            .map_err(|e| e.to_string())
    };
    let mut occurrences: Vec<usize> = Vec::new();
    for &(a, b) in p.iter().chain(g) {
        for c in [a, b] {
            let (occ, _) = locate(c)?;
            if !occurrences.contains(&occ) {
                occurrences.push(occ);
            }
        }
    }
    // Each pair as (slot of occurrence, local column) on both sides.
    let resolve = |pairs: &Pairs| -> Result<Vec<(Side, Side)>, String> {
        pairs
            .iter()
            .map(|&(a, b)| {
                let side = |c: usize| -> Result<Side, String> {
                    let (occ, local) = locate(c)?;
                    let slot = occurrences
                        .iter()
                        .position(|&o| o == occ)
                        .expect("collected above");
                    Ok((slot, local))
                };
                Ok((side(a)?, side(b)?))
            })
            .collect()
    };
    let (p, g) = (resolve(p)?, resolve(g)?);
    let rows: Vec<&[jim_relation::Tuple]> = occurrences
        .iter()
        .map(|&occ| product.relations()[occ].rows())
        .collect();
    if rows.iter().any(|r| r.is_empty()) {
        return Ok(true);
    }
    let mut index = vec![0usize; rows.len()];
    let value = |index: &[usize], (slot, local): Side| -> &Value {
        &rows[slot][index[slot]].values()[local]
    };
    loop {
        let holds = |pairs: &[(Side, Side)]| {
            pairs
                .iter()
                .all(|&(x, y)| value(&index, x) == value(&index, y))
        };
        if holds(&p) != holds(&g) {
            return Ok(false);
        }
        // Advance the odometer, last occurrence fastest.
        let mut slot = rows.len();
        loop {
            if slot == 0 {
                return Ok(true);
            }
            slot -= 1;
            index[slot] += 1;
            if index[slot] < rows[slot].len() {
                break;
            }
            index[slot] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_server_rendering() {
        let columns: Vec<String> = ["a#1.x", "a#1.y", "a#2.x", "a#2.y"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_predicate("TRUE", &columns), Ok(vec![]));
        assert_eq!(
            parse_predicate("a#1.y ≍ a#2.x ∧ a#1.x ≍ a#2.y", &columns),
            Ok(vec![(1, 2), (0, 3)])
        );
        assert!(parse_predicate("a#1.z ≍ a#2.x", &columns).is_err());
    }
}
