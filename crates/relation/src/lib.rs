//! # dx-relation — relational substrate for `oc-exchange`
//!
//! This crate implements the data model underlying the reproduction of
//! *“Data exchange and schema mappings in open and closed worlds”*
//! (Libkin & Sirangelo, PODS 2008 / JCSS 2011):
//!
//! * interned **symbols** ([`ConstId`], [`RelSym`], [`FuncSym`], [`Var`]) backed
//!   by a process-wide string table,
//! * **values** over the two disjoint countable domains `Const` and `Null`
//!   ([`Value`], [`NullId`], [`NullGen`]),
//! * **tuples**, **relations** and **instances** ([`Tuple`], [`Relation`],
//!   [`Instance`], [`Schema`]) with deterministic (`BTree`-based) iteration,
//! * **open/closed annotations** ([`Ann`], [`Annotation`]) and annotated
//!   instances ([`AnnTuple`], [`AnnRelation`], [`AnnInstance`]) including the
//!   paper's *empty annotated tuples* `(_, α)`,
//! * **valuations** of nulls ([`Valuation`]) used to define the semantics
//!   `Rep(T)` and `Rep_A(T)`,
//! * the **relational index** [`DeltaIndex`]: per-column postings over
//!   refcounted tuples — the one store that compiled plans, the `Rep_A`
//!   search, the union walk and streaming maintenance probe.
//!
//! Everything in this crate is purely structural; semantics (`Rep_A`
//! membership, solutions, certain answers) live in `dx-solver` and `dx-core`.

#![deny(missing_docs)]

pub mod annotation;
pub mod delta;
pub mod fxmap;
pub mod instance;
pub mod intern;
pub mod relation;
pub mod tuple;
pub mod update;
pub mod valuation;
pub mod value;

pub use annotation::{Ann, AnnInstance, AnnRelation, AnnTuple, Annotation};
pub use delta::{DeltaIndex, DeltaMemStats};
pub use fxmap::{FastMap, FastSet};
pub use instance::{Instance, Schema};
pub use intern::{ConstId, FuncSym, RelSym, Var};
pub use relation::Relation;
pub use tuple::Tuple;
pub use update::{AppliedUpdate, Update};
pub use valuation::Valuation;
pub use value::{NullGen, NullId, Value};
