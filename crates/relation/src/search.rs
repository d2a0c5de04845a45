//! The one search for maps on nulls.
//!
//! §3 of the paper builds every solution notion on one object: a map on the
//! nulls of an instance, constrained tuple by tuple. Homomorphisms and
//! presolutions, Proposition 1's homomorphism into an expansion, the
//! `Rep_A` valuations behind Theorem 1(4) and Theorem 2 and the `|=_cl`
//! satisfaction of annotated facts all ask for a map under which every
//! *item* (a tuple, an atom) lands on one of its *candidates*. [`find_map`]
//! is the one backtracking search behind all of them; each caller only
//! builds its candidate lists and states its leaf test.

use std::collections::BTreeMap;

/// One candidate of an item: the bindings `key ↦ image` choosing it forces.
pub type Bindings<K, V> = Vec<(K, V)>;

/// Search for a map `K → V` that picks one candidate of every item with
/// all picked bindings agreeing, and that passes `leaf`.
///
/// The search binds consistently, undoes on backtrack, and always branches
/// next on the item with the fewest candidates consistent with the bindings
/// so far (an item with none fails the branch; one with a single candidate
/// is taken without looking further). Each complete map — one candidate
/// picked for every item — goes to `leaf`; the first it accepts is
/// returned. A candidate that binds one key to two images can never be
/// picked. With no items the empty map goes to `leaf`.
pub fn find_map<K: Ord + Copy, V: Eq + Copy>(
    mut items: Vec<Vec<Bindings<K, V>>>,
    leaf: impl FnMut(&BTreeMap<K, V>) -> bool,
) -> Option<BTreeMap<K, V>> {
    for candidates in &mut items {
        candidates.retain(|c| {
            c.iter()
                .enumerate()
                .all(|(i, (k, v))| c[..i].iter().all(|(k2, v2)| k2 != k || v2 == v))
        });
    }
    let mut search = Search {
        open: (0..items.len()).collect(),
        items,
        map: BTreeMap::new(),
        leaf,
    };
    search.run().then_some(search.map)
}

struct Search<K, V, F> {
    items: Vec<Vec<Bindings<K, V>>>,
    /// The items no candidate has been picked for yet.
    open: Vec<usize>,
    map: BTreeMap<K, V>,
    leaf: F,
}

impl<K: Ord + Copy, V: Eq + Copy, F: FnMut(&BTreeMap<K, V>) -> bool> Search<K, V, F> {
    fn consistent(&self, c: &[(K, V)]) -> bool {
        c.iter()
            .all(|(k, v)| self.map.get(k).is_none_or(|w| w == v))
    }

    fn run(&mut self) -> bool {
        let mut best: Option<(usize, usize)> = None;
        for (pos, &item) in self.open.iter().enumerate() {
            let n = self.items[item]
                .iter()
                .filter(|c| self.consistent(c))
                .count();
            if best.is_none_or(|(_, m)| n < m) {
                best = Some((pos, n));
                match n {
                    0 => return false,
                    1 => break,
                    _ => {}
                }
            }
        }
        let Some((pos, _)) = best else {
            return (self.leaf)(&self.map);
        };
        let item = self.open.swap_remove(pos);
        for ci in 0..self.items[item].len() {
            if !self.consistent(&self.items[item][ci]) {
                continue;
            }
            let fresh: Vec<K> = self.items[item][ci]
                .iter()
                .filter_map(|&(k, v)| self.map.insert(k, v).is_none().then_some(k))
                .collect();
            if self.run() {
                return true;
            }
            for k in fresh {
                self.map.remove(&k);
            }
        }
        // Put the item back where it was, so sibling branches see the same
        // order.
        self.open.push(item);
        let last = self.open.len() - 1;
        self.open.swap(pos, last);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every candidate of the most constrained item is tried, and the leaf
    /// test can reject a complete map the bindings allow.
    #[test]
    fn leaf_test_backtracks_past_rejected_maps() {
        // Two items over keys 0 and 1, each landing on image 7 or 8.
        let items = vec![
            vec![vec![(0, 7)], vec![(0, 8)]],
            vec![vec![(1, 7)], vec![(1, 8)]],
        ];
        let all = find_map(items.clone(), |_| true).expect("a map exists");
        assert_eq!(all.len(), 2);
        // Injective maps only: the first complete map (0, 1 ↦ 7) is rejected.
        let inj = find_map(items, |m| m[&0] != m[&1]).expect("an injective map exists");
        assert_ne!(inj[&0], inj[&1]);
    }

    #[test]
    fn conflicting_bindings_fail() {
        // Key 0 must be 1 (first item) and 2 (second item).
        assert!(find_map(vec![vec![vec![(0, 1)]], vec![vec![(0, 2)]]], |_| true).is_none());
        // A candidate binding one key twice is never picked.
        assert!(find_map(vec![vec![vec![(0, 1), (0, 2)]]], |_| true).is_none());
        // An item without candidates fails; no items accept the empty map.
        assert!(find_map::<u8, u8>(vec![vec![]], |_| true).is_none());
        assert_eq!(find_map::<u8, u8>(vec![], |_| true), Some(BTreeMap::new()));
    }
}
