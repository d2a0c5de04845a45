//! Typed validation of a raw scenario against its declared schemas.
//!
//! Every check reports a [`TextError`] anchored at the span of the offending
//! declaration, rule, fact, or query — this is where "unknown relation",
//! "arity mismatch", and "unsafe tgd" diagnostics come from.

use crate::ast::{NamedQuery, NamedUpdate, Scenario, Span, TextError};
use crate::parser::{RawScenario, RawValue};
use dx_chase::{is_weakly_acyclic, Mapping, Std, TargetAtom, TargetDep};
use dx_logic::{Formula, Query, Term};
use dx_relation::{Annotation, Instance, RelSym, Schema, Tuple, Update, Value, Var};
use std::collections::{BTreeMap, BTreeSet};

/// Variables guaranteed a binding by a *positive* atom whenever the formula
/// holds — the safety analysis for tgd bodies and query heads. Disjunction
/// takes the intersection of its branches, negation binds nothing, and
/// quantifiers shadow their bound variables.
fn positively_bound(f: &Formula) -> BTreeSet<Var> {
    match f {
        Formula::Atom(_, args) => args.iter().flat_map(|t| t.vars()).collect(),
        Formula::And(fs) => fs.iter().flat_map(positively_bound).collect(),
        Formula::Or(fs) => {
            let mut it = fs.iter().map(positively_bound);
            let first = it.next().unwrap_or_default();
            it.fold(first, |acc, s| acc.intersection(&s).copied().collect())
        }
        Formula::Exists(vs, b) | Formula::Forall(vs, b) => {
            let mut inner = positively_bound(b);
            for v in vs {
                inner.remove(v);
            }
            inner
        }
        Formula::True | Formula::False | Formula::Eq(..) | Formula::Not(..) => BTreeSet::new(),
    }
}

fn build_schema(decls: &[(String, usize, Span)], block: &str) -> Result<Schema, TextError> {
    let mut schema = Schema::new();
    for (name, arity, span) in decls {
        let rel = RelSym::new(name);
        if schema.contains(rel) {
            return Err(TextError::new(
                format!("duplicate declaration of `{name}` in `{block}`"),
                *span,
            ));
        }
        schema.add(rel, *arity);
    }
    Ok(schema)
}

fn check_rels(
    formula: &Formula,
    schema: &Schema,
    schema_name: &str,
    span: Span,
) -> Result<(), TextError> {
    for (rel, arity) in formula.relations() {
        match schema.arity(rel) {
            None => {
                return Err(TextError::new(
                    format!("unknown relation `{rel}` (not declared in the {schema_name} schema)"),
                    span,
                ));
            }
            Some(declared) if declared != arity => {
                return Err(TextError::new(
                    format!(
                        "arity mismatch: `{rel}` is declared with arity {declared} \
                         but used with {arity} arguments"
                    ),
                    span,
                ));
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// Validate a raw scenario into a typed [`Scenario`].
pub fn validate(raw: &RawScenario) -> Result<Scenario, TextError> {
    let source_schema = build_schema(&raw.source_decls, "source")?;
    let target_schema = build_schema(&raw.target_decls, "target")?;
    for (name, _, span) in &raw.target_decls {
        if source_schema.contains(RelSym::new(name)) {
            return Err(TextError::new(
                format!("relation `{name}` is declared in both source and target"),
                *span,
            ));
        }
    }
    if raw.rules.is_empty() {
        return Err(TextError::new(
            "scenario has no `mapping` block (at least one STD is required)",
            raw.header,
        ));
    }

    // STDs: heads over the target schema, bodies over the source schema,
    // body free variables safely bound.
    let mut stds = Vec::with_capacity(raw.rules.len());
    for (rule, span) in &raw.rules {
        let mut head = Vec::with_capacity(rule.head.len());
        for atom in &rule.head {
            match target_schema.arity(atom.rel) {
                None => {
                    return Err(TextError::new(
                        format!(
                            "unknown relation `{}` (not declared in the target schema)",
                            atom.rel
                        ),
                        *span,
                    ));
                }
                Some(declared) if declared != atom.args.len() => {
                    return Err(TextError::new(
                        format!(
                            "arity mismatch: `{}` is declared with arity {declared} \
                             but used with {} arguments",
                            atom.rel,
                            atom.args.len()
                        ),
                        *span,
                    ));
                }
                Some(_) => {}
            }
            if atom.args.iter().any(|t| t.has_funcs()) {
                return Err(TextError::new(
                    "function terms are not allowed in scenario rule heads",
                    *span,
                ));
            }
            head.push(TargetAtom::new(
                atom.rel,
                atom.args.clone(),
                Annotation::new(atom.anns.clone()),
            ));
        }
        check_rels(&rule.body, &source_schema, "source", *span)?;
        let bound = positively_bound(&rule.body);
        for v in rule.body.free_vars() {
            if !bound.contains(&v) {
                return Err(TextError::new(
                    format!("unsafe tgd: variable `{v}` is not bound by a positive body atom"),
                    *span,
                ));
            }
        }
        stds.push(Std::new(head, rule.body.clone()));
    }

    // Constraints: entirely over the target schema, the whole set weakly
    // acyclic so the chase terminates.
    let check_atoms = |atoms: &[(RelSym, Vec<Term>)], span: Span| -> Result<(), TextError> {
        for (rel, args) in atoms {
            match target_schema.arity(*rel) {
                None => {
                    return Err(TextError::new(
                        format!("unknown relation `{rel}` (not declared in the target schema)"),
                        span,
                    ));
                }
                Some(declared) if declared != args.len() => {
                    return Err(TextError::new(
                        format!(
                            "arity mismatch: `{rel}` is declared with arity {declared} \
                             but used with {} arguments",
                            args.len()
                        ),
                        span,
                    ));
                }
                Some(_) => {}
            }
        }
        Ok(())
    };
    let mut constraints = Vec::with_capacity(raw.constraints.len());
    for (dep, span) in &raw.constraints {
        match dep {
            TargetDep::Tgd(tgd) => {
                check_atoms(&tgd.body, *span)?;
                for atom in &tgd.head {
                    check_atoms(&[(atom.rel, atom.args.clone())], *span)?;
                }
            }
            // `Egd::parse` has refused unsafe egds already.
            TargetDep::Egd(egd) => check_atoms(&egd.body, *span)?,
        }
        constraints.push(dep.clone());
    }
    if !constraints.is_empty() && !is_weakly_acyclic(&constraints) {
        let span = raw
            .constraints
            .first()
            .map(|(_, s)| *s)
            .unwrap_or(raw.header);
        return Err(TextError::new(
            "constraints are not weakly acyclic (the chase may not terminate)",
            span,
        ));
    }

    // Source instance: facts over the source schema; named nulls numbered by
    // first occurrence, skipping ids claimed by explicit `?N` values.
    let mut source = Instance::new();
    for (rel, arity) in source_schema.iter() {
        source.declare(rel, arity);
    }
    let used_ids: BTreeSet<u32> = raw
        .facts
        .iter()
        .flat_map(|(_, vs, _)| vs.iter())
        .filter_map(|v| match v {
            RawValue::NullNum(n) => Some(*n),
            _ => None,
        })
        .collect();
    let mut labels: BTreeMap<&str, u32> = BTreeMap::new();
    let mut next_id = 0u32;
    for (rel_name, values, span) in &raw.facts {
        let rel = RelSym::new(rel_name);
        match source_schema.arity(rel) {
            None => {
                return Err(TextError::new(
                    format!("unknown relation `{rel_name}` (not declared in the source schema)"),
                    *span,
                ));
            }
            Some(declared) if declared != values.len() => {
                return Err(TextError::new(
                    format!(
                        "arity mismatch: `{rel_name}` is declared with arity {declared} \
                         but used with {} arguments",
                        values.len()
                    ),
                    *span,
                ));
            }
            Some(_) => {}
        }
        let tuple: Vec<Value> = values
            .iter()
            .map(|v| match v {
                RawValue::Const(name) => Value::c(name),
                RawValue::NullNum(n) => Value::null(*n),
                RawValue::NullLabel(label) => {
                    let id = *labels.entry(label.as_str()).or_insert_with(|| {
                        while used_ids.contains(&next_id) {
                            next_id += 1;
                        }
                        let id = next_id;
                        next_id += 1;
                        id
                    });
                    Value::null(id)
                }
            })
            .collect();
        source.insert(rel, dx_relation::Tuple::new(tuple));
    }

    // Queries: over the target schema, head variables positively bound, no
    // free variables outside the head.
    let mut queries: Vec<NamedQuery> = Vec::with_capacity(raw.queries.len());
    for (name, head, formula, span) in &raw.queries {
        if queries.iter().any(|q| &q.name == name) {
            return Err(TextError::new(
                format!("duplicate query name `{name}`"),
                *span,
            ));
        }
        let mut head_vars = Vec::with_capacity(head.len());
        for v in head {
            let var = Var::new(v);
            if head_vars.contains(&var) {
                return Err(TextError::new(
                    format!("duplicate head variable `{v}` in query `{name}`"),
                    *span,
                ));
            }
            head_vars.push(var);
        }
        check_rels(formula, &target_schema, "target", *span)?;
        let free = formula.free_vars();
        for v in &free {
            if !head_vars.contains(v) {
                return Err(TextError::new(
                    format!("free variable `{v}` of query `{name}` is not in the query head"),
                    *span,
                ));
            }
        }
        let bound = positively_bound(formula);
        for v in &head_vars {
            if !free.contains(v) || !bound.contains(v) {
                return Err(TextError::new(
                    format!(
                        "unsafe query: head variable `{v}` of `{name}` is not bound by a \
                         positive atom of the body"
                    ),
                    *span,
                ));
            }
        }
        queries.push(NamedQuery {
            name: name.clone(),
            query: Query::new(head_vars, formula.clone()),
        });
    }

    // Update batches: ground facts over the source schema; the incremental
    // pipeline ([`dx_engine::IncrementalExchange`]) requires ground sources,
    // so labeled nulls are rejected here rather than at run time.
    let mut updates: Vec<NamedUpdate> = Vec::with_capacity(raw.updates.len());
    for ru in &raw.updates {
        if updates.iter().any(|u| u.name == ru.name) {
            return Err(TextError::new(
                format!("duplicate update name `{}`", ru.name),
                ru.span,
            ));
        }
        let mut up = Update::new();
        for (is_insert, rel_name, values, span) in &ru.ops {
            let rel = RelSym::new(rel_name);
            match source_schema.arity(rel) {
                None => {
                    return Err(TextError::new(
                        format!(
                            "unknown relation `{rel_name}` (not declared in the source schema)"
                        ),
                        *span,
                    ));
                }
                Some(declared) if declared != values.len() => {
                    return Err(TextError::new(
                        format!(
                            "arity mismatch: `{rel_name}` is declared with arity {declared} \
                             but used with {} arguments",
                            values.len()
                        ),
                        *span,
                    ));
                }
                Some(_) => {}
            }
            let mut tuple = Vec::with_capacity(values.len());
            for v in values {
                match v {
                    RawValue::Const(name) => tuple.push(Value::c(name)),
                    RawValue::NullNum(_) | RawValue::NullLabel(_) => {
                        return Err(TextError::new(
                            "update batches must be ground (labeled nulls are not allowed)",
                            *span,
                        ));
                    }
                }
            }
            let t = Tuple::new(tuple);
            if *is_insert {
                up.insert(rel, t);
            } else {
                up.retract(rel, t);
            }
        }
        updates.push(NamedUpdate {
            name: ru.name.clone(),
            update: up,
        });
    }

    Ok(Scenario {
        name: raw.name.clone(),
        mapping: Mapping::new(source_schema, target_schema, stds),
        constraints,
        source,
        queries,
        updates,
    })
}
