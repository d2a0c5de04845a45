//! Generic constant palettes.
//!
//! Several proofs in the paper (Claim 1 of Proposition 2, the bounded-model
//! construction of Lemma 2, the domain restriction of Proposition 5) rest on
//! *genericity*: queries cannot distinguish fresh constants, so witness
//! instances may be normalized to use canonical fresh constants. A
//! [`Palette`] packages "the constants a search may use": a *base* pool
//! (active domains, query constants) plus a supply of canonical *fresh*
//! constants, and enforces first-use symmetry breaking during enumeration.

use dx_relation::ConstId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, PoisonError};

/// The canonical fresh constants `⋆{prefix}{i}` interned so far, by
/// prefix: each name is formatted and interned once per process.
static FRESH_NAMES: Mutex<BTreeMap<String, Vec<ConstId>>> = Mutex::new(BTreeMap::new());

/// A pool of constants for witness search.
#[derive(Clone, Debug)]
pub struct Palette {
    base: Vec<ConstId>,
    fresh: Vec<ConstId>,
}

impl Palette {
    /// Build a palette from a base pool and `n_fresh` canonical fresh
    /// constants named `⋆{prefix}{i}`. Fresh constants colliding with base
    /// constants are skipped (they would not be fresh).
    pub fn new(base: impl IntoIterator<Item = ConstId>, n_fresh: usize, prefix: &str) -> Self {
        let base_set: BTreeSet<ConstId> = base.into_iter().collect();
        let mut fresh = Vec::with_capacity(n_fresh);
        if n_fresh > 0 {
            // Every update pushes one interned name, so the cache stays
            // valid even if a holder panicked.
            let mut names = FRESH_NAMES.lock().unwrap_or_else(PoisonError::into_inner);
            if !names.contains_key(prefix) {
                names.insert(prefix.to_owned(), Vec::new());
            }
            let names = names.get_mut(prefix).expect("inserted above");
            let mut i = 0usize;
            while fresh.len() < n_fresh {
                if i == names.len() {
                    names.push(ConstId::new(&format!("⋆{prefix}{i}")));
                }
                if !base_set.contains(&names[i]) {
                    fresh.push(names[i]);
                }
                i += 1;
            }
        }
        Palette {
            base: base_set.into_iter().collect(),
            fresh,
        }
    }

    /// The base constants (deterministic order).
    pub fn base(&self) -> &[ConstId] {
        &self.base
    }

    /// The fresh constants (canonical order).
    pub fn fresh(&self) -> &[ConstId] {
        &self.fresh
    }

    /// Total number of constants.
    pub fn len(&self) -> usize {
        self.base.len() + self.fresh.len()
    }

    /// Is the palette empty?
    pub fn is_empty(&self) -> bool {
        self.base.is_empty() && self.fresh.is_empty()
    }

    /// The choices available at a search node, under first-use symmetry
    /// breaking: all base constants, plus the already-used fresh constants,
    /// plus *one* unused fresh constant (the next canonical one).
    ///
    /// `fresh_used` is how many fresh constants the search has already
    /// committed to (they must have been taken in canonical order).
    pub fn choices(&self, fresh_used: usize) -> impl Iterator<Item = ConstId> + '_ {
        let fresh_avail = (fresh_used + 1).min(self.fresh.len());
        self.base
            .iter()
            .copied()
            .chain(self.fresh[..fresh_avail].iter().copied())
    }

    /// Is `c` the next unused fresh constant (so choosing it increments the
    /// `fresh_used` counter)?
    pub fn is_next_fresh(&self, c: ConstId, fresh_used: usize) -> bool {
        fresh_used < self.fresh.len() && self.fresh[fresh_used] == c
    }

    /// All constants, base then fresh.
    pub fn all(&self) -> impl Iterator<Item = ConstId> + '_ {
        self.base.iter().copied().chain(self.fresh.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_names_avoid_base() {
        // If a base constant happens to equal a canonical fresh name, the
        // palette skips it.
        let clash = ConstId::new("⋆t0");
        let p = Palette::new([clash], 2, "t");
        assert_eq!(p.fresh().len(), 2);
        assert!(!p.fresh().contains(&clash));
    }

    #[test]
    fn symmetry_breaking_choices() {
        let a = ConstId::new("base-a");
        let p = Palette::new([a], 3, "s");
        // With 0 fresh used: base + first fresh only.
        let c0: Vec<_> = p.choices(0).collect();
        assert_eq!(c0.len(), 2);
        assert!(c0.contains(&a));
        assert!(c0.contains(&p.fresh()[0]));
        // With 2 fresh used: base + fresh[0..3].
        let c2: Vec<_> = p.choices(2).collect();
        assert_eq!(c2.len(), 4);
    }

    #[test]
    fn next_fresh_detection() {
        let p = Palette::new([], 2, "u");
        assert!(p.is_next_fresh(p.fresh()[0], 0));
        assert!(!p.is_next_fresh(p.fresh()[0], 1));
        assert!(p.is_next_fresh(p.fresh()[1], 1));
        assert!(!p.is_next_fresh(p.fresh()[1], 2));
    }

    #[test]
    fn deterministic_base_order() {
        let x = ConstId::new("pal-x");
        let y = ConstId::new("pal-y");
        let p1 = Palette::new([y, x], 0, "v");
        let p2 = Palette::new([x, y], 0, "v");
        assert_eq!(p1.base(), p2.base());
    }
}
