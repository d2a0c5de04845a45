//! [`IndexedInstance`] as a live [`dx_query::QueryStore`].
//!
//! The delta-driven chase already maintains per-relation, per-column hash
//! indexes over the annotated store; this adapter exposes its *relational
//! part* (annotations stripped, nulls as atomic values) to the `dx-query`
//! executor, so compiled plans run directly against chase output — no
//! snapshot re-index.
//!
//! One annotated subtlety: the same underlying tuple can be live under two
//! different annotations. The adapter surfaces it once per annotated
//! occurrence; the executor's set semantics (scan dedup, final projection)
//! absorb the duplicates, which the parity test below pins down.

use crate::store::IndexedInstance;
use dx_query::QueryStore;
use dx_relation::{RelSym, Tuple, Value};
use std::ops::ControlFlow;

impl QueryStore for IndexedInstance {
    fn rel_arity(&self, rel: RelSym) -> Option<usize> {
        self.arity(rel)
    }

    fn rel_len(&self, rel: RelSym) -> usize {
        self.ids_of(rel).count()
    }

    fn selectivity(&self, rel: RelSym, pattern: &[Option<Value>]) -> usize {
        IndexedInstance::selectivity(self, rel, pattern)
    }

    fn for_each_matching(
        &self,
        rel: RelSym,
        pattern: &[Option<Value>],
        f: &mut dyn FnMut(&Tuple) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        for id in self.matching(rel, pattern) {
            let (_, at) = self.get(id).expect("matching ids are live");
            f(&at.tuple)?;
        }
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_logic::Query;
    use dx_query::CompiledQuery;
    use dx_relation::{Ann, AnnInstance, AnnTuple, Annotation};

    #[test]
    fn plans_run_on_the_live_store() {
        let r = RelSym::new("QstE");
        let mut ann = AnnInstance::new();
        for (a, b) in [("a", "b"), ("b", "c"), ("a", "c")] {
            ann.insert(
                r,
                AnnTuple::new(Tuple::from_names(&[a, b]), Annotation::all_closed(2)),
            );
        }
        // Same tuple under a second annotation: must not duplicate answers.
        ann.insert(
            r,
            AnnTuple::new(
                Tuple::from_names(&["a", "b"]),
                Annotation::new(vec![Ann::Open, Ann::Open]),
            ),
        );
        let store = IndexedInstance::from_ann(&ann);
        let q = Query::parse(&["x", "z"], "exists y. QstE(x, y) & QstE(y, z)").unwrap();
        let cq = CompiledQuery::compile(&q).unwrap();
        let via_store = cq.answers_store(&store);
        let via_instance = q.answers(&ann.rel_part());
        assert_eq!(via_store, via_instance);
        assert_eq!(via_store.len(), 1, "a→b→c is the only 2-hop");
    }
}
