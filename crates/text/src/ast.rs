//! The typed scenario AST and span-carrying errors.
//!
//! A [`Scenario`] is the fully validated form of a `.dx` file: an annotated
//! schema mapping, optional target constraints, a source instance, a set
//! of named queries over the target schema, and optional named source
//! update batches (the scenario's streaming workload). Everything downstream (chase,
//! certain answers, GCWA\*, approximation) consumes these exact types, so a
//! parsed scenario is indistinguishable from a hand-built one.

use dx_chase::{Mapping, TargetDep};
use dx_logic::Query;
use dx_relation::{Instance, Update};
use std::fmt;

/// A half-open byte range `[start, end)` into the source text.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Span {
    /// Byte offset of the first character covered.
    pub start: usize,
    /// Byte offset one past the last character covered.
    pub end: usize,
}

impl Span {
    /// A span covering `[start, end)`.
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }

    /// A zero-width span at `pos` (used for "expected X here" errors).
    pub fn point(pos: usize) -> Span {
        Span {
            start: pos,
            end: pos,
        }
    }
}

/// A parse or validation error carrying the byte span it refers to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TextError {
    /// Human-readable description of what went wrong.
    pub msg: String,
    /// Where in the source text it went wrong.
    pub span: Span,
}

impl TextError {
    /// Build an error at `span`.
    pub fn new(msg: impl Into<String>, span: Span) -> TextError {
        TextError {
            msg: msg.into(),
            span,
        }
    }

    /// Render a `file:line:col`-style diagnostic with the offending line and
    /// a caret marking the span start.
    ///
    /// `src` must be the exact text the scenario was parsed from; the span is
    /// resolved against it to recover line and column numbers (1-based).
    pub fn render(&self, src: &str) -> String {
        let start = self.span.start.min(src.len());
        let line_no = src[..start].bytes().filter(|&b| b == b'\n').count() + 1;
        let line_start = src[..start].rfind('\n').map(|i| i + 1).unwrap_or(0);
        let line_end = src[start..]
            .find('\n')
            .map(|i| start + i)
            .unwrap_or(src.len());
        let col = start - line_start + 1;
        let line = &src[line_start..line_end];
        let caret = " ".repeat(col - 1) + "^";
        format!(
            "error at {line_no}:{col}: {}\n  | {line}\n  | {caret}",
            self.msg
        )
    }
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error at byte {}: {}", self.span.start, self.msg)
    }
}

impl std::error::Error for TextError {}

/// A query with the name it was declared under in the `.dx` file.
#[derive(Clone, Debug, PartialEq)]
pub struct NamedQuery {
    /// Declared name (`query name(x) <- …`).
    pub name: String,
    /// The validated query over the target schema.
    pub query: Query,
}

/// An update batch with the name it was declared under in the `.dx` file.
#[derive(Clone, Debug, PartialEq)]
pub struct NamedUpdate {
    /// Declared name (`update "name" { … }`).
    pub name: String,
    /// The validated ground source-delta batch.
    pub update: Update,
}

/// A fully validated scenario: everything the pipelines need to run.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Scenario name from the `scenario "…"` header.
    pub name: String,
    /// The annotated schema mapping (source schema, target schema, STDs).
    pub mapping: Mapping,
    /// Target constraints (tgds/egds) chased after the STDs.
    pub constraints: Vec<TargetDep>,
    /// The source instance. The parser accepts labeled nulls here, but the
    /// exchange needs a ground source: [`Scenario::parse_ground`] refuses
    /// them.
    pub source: Instance,
    /// Named queries over the target schema, in declaration order.
    pub queries: Vec<NamedQuery>,
    /// Named source update batches, in declaration order — the streaming
    /// workload the scenario ships with (`dx run --updates`).
    pub updates: Vec<NamedUpdate>,
}

impl Scenario {
    /// Parse and validate a `.dx` scenario from text.
    pub fn parse(src: &str) -> Result<Scenario, TextError> {
        let raw = crate::parser::parse_scenario(src)?;
        crate::validate::validate(&raw)
    }

    /// [`Scenario::parse`], refusing a source that is not ground: the
    /// exchange (`CSol_A(S)`, streaming, every answer regime) is defined
    /// over a source of constants only. The error spans the first source
    /// fact holding a labeled null.
    pub fn parse_ground(src: &str) -> Result<Scenario, TextError> {
        let raw = crate::parser::parse_scenario(src)?;
        let scenario = crate::validate::validate(&raw)?;
        let with_null = raw.facts.iter().find(|(_, values, _)| {
            (values.iter()).any(|v| !matches!(v, crate::parser::RawValue::Const(_)))
        });
        match with_null {
            Some((_, _, span)) => Err(TextError::new(
                format!(
                    "source fact `{}` holds a labeled null; the exchange needs a ground source",
                    &src[span.start..span.end]
                ),
                *span,
            )),
            None => Ok(scenario),
        }
    }

    /// Pretty-print to canonical `.dx` text (see [`crate::printer::print`]).
    pub fn to_text(&self) -> String {
        crate::printer::print(self)
    }

    /// Look up a query by declared name.
    pub fn query(&self, name: &str) -> Option<&Query> {
        self.queries
            .iter()
            .find(|q| q.name == name)
            .map(|q| &q.query)
    }

    /// Look up an update batch by declared name.
    pub fn update(&self, name: &str) -> Option<&Update> {
        self.updates
            .iter()
            .find(|u| u.name == name)
            .map(|u| &u.update)
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}
