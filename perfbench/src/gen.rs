//! Seeded `.dx` text for the benchmark's three conference-domain families,
//! scaled up from `examples/conference.dx`.
//!
//! * [`exchange_text`] — papers with known and unknown authors, review
//!   assignments and affiliations, the one-author egd, the
//!   conflict-of-interest tgd, and positive queries;
//! * [`decide_text`] — a tiny scenario with per-scenario open/closed
//!   positions, a few nulls, and one query per certain-answer regime;
//! * [`stream_text`] plus [`StreamTrace`] — a large exchange-shaped
//!   scenario and the update batches (as `.dx` `update` blocks) replayed
//!   against it.
//!
//! Everything is drawn from one splitmix64 stream in a fixed order, so the same
//! `(seed, size)` yields byte-identical text.

use std::collections::VecDeque;
use std::fmt::Write;

/// splitmix64 — the generators' only entropy.
#[derive(Clone, Debug)]
struct Rng(u64);

impl Rng {
    /// A stream keyed by `seed` and a sub-stream index (one per op).
    fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// True with probability `num / den`.
    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }
}

/// Source schema shared by the `exchange` and `stream` families (and by
/// the update-batch carrier text).
const CONF_SOURCE: &str = "  source { Papers/2; Wrote/2; Assign/2; Affil/2; }\n";

/// Target schema, st-tgds (the §1 negated-body rule included) and target
/// constraints of the `exchange` and `stream` families. Every paper gets
/// an open author null; the one-author egd merges it into the paper's
/// known author, and the tgd flags reviewers sharing an institution with
/// the author. Sources carry at most one known author per paper, so the
/// egd never equates two constants.
const CONF_MAPPING: &str = "  target { Sub/2; Rev/2; Aff/2; Coi/3; }
  mapping {
    Sub(p:cl, a:op) <- Papers(p, t);
    Sub(p:cl, a:cl) <- Wrote(p, a);
    Rev(p:cl, r:cl) <- Assign(p, r);
    Rev(p:cl, r:op) <- Papers(p, t) & !exists s. Assign(p, s);
    Aff(x:cl, u:cl) <- Affil(x, u);
  }
  constraints {
    egd a = b <- Sub(p, a) & Sub(p, b);
    tgd Coi(p:cl, r:cl, u:cl) <- Rev(p, r) & Aff(r, u) & Sub(p, a) & Aff(a, u);
  }
";

/// One paper's source facts.
#[derive(Clone, Debug, PartialEq, Eq)]
struct PaperFacts {
    /// Paper index (`p{id}`, title `t{id}`).
    id: usize,
    /// Known author index (`a{k}`), if any.
    author: Option<usize>,
    /// Assigned reviewer indices (`r{k}`), distinct.
    reviewers: Vec<usize>,
}

impl PaperFacts {
    /// Draw one paper: a known author with probability 3/5, and 0–2
    /// reviewers (none with probability 1/5).
    fn draw(rng: &mut Rng, id: usize, authors: usize, reviewers: usize) -> PaperFacts {
        let author = rng.chance(3, 5).then(|| rng.below(authors));
        let k = if rng.chance(1, 5) {
            0
        } else {
            1 + rng.below(2)
        };
        let mut revs: Vec<usize> = Vec::with_capacity(k);
        while revs.len() < k.min(reviewers) {
            let r = rng.below(reviewers);
            if !revs.contains(&r) {
                revs.push(r);
            }
        }
        PaperFacts {
            id,
            author,
            reviewers: revs,
        }
    }

    /// The paper's facts as `.dx` fact lines, each prefixed by `op`
    /// (`""`, `"insert "` or `"retract "`).
    fn write(&self, out: &mut String, op: &str) {
        let p = self.id;
        let _ = writeln!(out, "    {op}Papers(p{p}, t{p});");
        if let Some(a) = self.author {
            let _ = writeln!(out, "    {op}Wrote(p{p}, a{a});");
        }
        for r in &self.reviewers {
            let _ = writeln!(out, "    {op}Assign(p{p}, r{r});");
        }
    }
}

/// People pools of a conference with `papers` papers: known authors,
/// reviewers, institutions.
fn pools(papers: usize) -> (usize, usize, usize) {
    (
        (papers / 2).max(2),
        (papers / 4).max(2),
        (papers / 20).max(2),
    )
}

/// The affiliation facts: every author and reviewer at one institution.
fn write_affiliations(
    rng: &mut Rng,
    out: &mut String,
    authors: usize,
    reviewers: usize,
    insts: usize,
) {
    for a in 0..authors {
        let _ = writeln!(out, "    Affil(a{a}, u{});", rng.below(insts));
    }
    for r in 0..reviewers {
        let _ = writeln!(out, "    Affil(r{r}, u{});", rng.below(insts));
    }
}

/// The conference scenario text shared by `exchange` and `stream`.
fn conference_text(
    name: &str,
    papers: &[PaperFacts],
    affil_seed: &mut Rng,
    size: usize,
    queries: &str,
) -> String {
    let (authors, reviewers, insts) = pools(size);
    let mut out = String::with_capacity(64 * papers.len() + 1024);
    let _ = writeln!(out, "scenario \"{name}\" {{");
    out.push_str(CONF_SOURCE);
    out.push_str(CONF_MAPPING);
    out.push_str("  instance {\n");
    for p in papers {
        p.write(&mut out, "");
    }
    write_affiliations(affil_seed, &mut out, authors, reviewers, insts);
    out.push_str("  }\n");
    out.push_str(queries);
    out.push_str("}\n");
    out
}

/// Positive queries of the `exchange` family, answered on the chased
/// target. Every one is a conjunctive query, so the tree-walking oracle
/// can evaluate its body with all variables free and project.
const EXCHANGE_QUERIES: &str = "  query reviewed(p) <- exists r. Rev(p, r);
  query authored(p, a) <- Sub(p, a);
  query conflicted(p, r) <- exists u. Coi(p, r, u);
  query colleagues(p, r) <- exists a u. Sub(p, a) & Aff(a, u) & Aff(r, u);
  query colleague_reviewed() <- exists p r a u. Rev(p, r) & Sub(p, a) & Aff(a, u) & Aff(r, u);
";

/// A fresh `exchange` scenario with `papers` papers.
pub fn exchange_text(seed: u64, papers: usize) -> String {
    let mut rng = Rng::new(seed, 0xE1);
    let (authors, reviewers, _) = pools(papers);
    let facts: Vec<PaperFacts> = (0..papers)
        .map(|i| PaperFacts::draw(&mut rng, i, authors, reviewers))
        .collect();
    conference_text("exchange", &facts, &mut rng, papers, EXCHANGE_QUERIES)
}

/// Queries registered on the `stream` session: the positive ones are
/// maintained by delta plans, `one_author` (the §1 anomaly, a `∀*`
/// query) is recomputed whenever a batch reaches it.
const STREAM_QUERIES: &str = "  query reviewed(p) <- exists r. Rev(p, r);
  query authored(p, a) <- Sub(p, a);
  query colleagues(p, r) <- exists a u. Sub(p, a) & Aff(a, u) & Aff(r, u);
  query one_author() <- forall p a1 a2. (Sub(p, a1) & Sub(p, a2) -> a1 = a2);
";

/// The `stream` family's base scenario: `papers` papers `p0..`.
pub fn stream_text(seed: u64, papers: usize) -> String {
    StreamTrace::new(seed, papers).base_text()
}

/// Papers inserted by one insert-only batch.
pub const INSERT_PAPERS: usize = 4;
/// Oldest papers retracted by one retracting batch; with one retracting
/// batch in four this balances the inserts, so the scenario size stays
/// near its initial value however many batches a run applies.
pub const RETRACT_PAPERS: usize = 12;

/// The `stream` family: a base conference scenario and a deterministic
/// sequence of update batches over it. Insert batches add
/// [`INSERT_PAPERS`] new papers; every fourth batch instead retracts the
/// [`RETRACT_PAPERS`] oldest live papers with all their facts, plus one
/// assignment of a surviving paper. The fixed schedule keeps the live
/// size on the same saw-tooth in every run; the seed draws the facts.
pub struct StreamTrace {
    seed: u64,
    size: usize,
    live: VecDeque<PaperFacts>,
    next_id: usize,
    batch: u64,
    base: Vec<PaperFacts>,
}

impl StreamTrace {
    /// The trace over a base scenario of `papers` papers.
    pub fn new(seed: u64, papers: usize) -> StreamTrace {
        let mut rng = Rng::new(seed, 0x57);
        let (authors, reviewers, _) = pools(papers);
        let base: Vec<PaperFacts> = (0..papers)
            .map(|i| PaperFacts::draw(&mut rng, i, authors, reviewers))
            .collect();
        StreamTrace {
            seed,
            size: papers,
            live: base.iter().cloned().collect(),
            next_id: papers,
            batch: 0,
            base,
        }
    }

    /// The base scenario text (the session's initial source).
    pub fn base_text(&self) -> String {
        let mut rng = Rng::new(self.seed, 0x5A);
        conference_text("stream", &self.base, &mut rng, self.size, STREAM_QUERIES)
    }

    /// The next batch as a `.dx` carrier scenario holding one `update`
    /// block over the conference source schema, and whether it retracts.
    pub fn next_batch(&mut self) -> (String, bool) {
        let b = self.batch;
        self.batch += 1;
        let mut rng = Rng::new(self.seed, 0x1000 + b);
        let (authors, reviewers, _) = pools(self.size);
        let retract = b % 4 == 3 && self.live.len() > RETRACT_PAPERS + 1;
        let mut body = String::new();
        if retract {
            for _ in 0..RETRACT_PAPERS {
                let p = self.live.pop_front().expect("live papers remain");
                p.write(&mut body, "retract ");
            }
            // One surviving paper loses an assignment; if it was its only
            // one, the §1 rule now invents a reviewer null for it.
            let k = rng.below(self.live.len());
            let p = &mut self.live[k];
            if let Some(r) = p.reviewers.pop() {
                let _ = writeln!(body, "    retract Assign(p{}, r{r});", p.id);
            }
        } else {
            for _ in 0..INSERT_PAPERS {
                let p = PaperFacts::draw(&mut rng, self.next_id, authors, reviewers);
                self.next_id += 1;
                p.write(&mut body, "insert ");
                self.live.push_back(p);
            }
        }
        let mut out = String::with_capacity(body.len() + 256);
        out.push_str("scenario \"batch\" {\n");
        out.push_str(CONF_SOURCE);
        out.push_str("  target { T/1; }\n  mapping { T(p:cl) <- Papers(p, t); }\n");
        let _ = writeln!(out, "  update \"b{b}\" {{");
        out.push_str(&body);
        out.push_str("  }\n}\n");
        (out, retract)
    }
}

/// A fresh `decide` scenario: `papers` papers over small people pools and
/// four queries covering the certain-answer regimes — positive
/// (Proposition 3), monotone CQ≠ (Proposition 4), `∀*∃*` (Proposition 5)
/// and FO with negation (closed-world search, or bounded when open).
///
/// The low three bits of `seed` pick the scenario's stratum — whether the
/// author and reviewer null positions are open or closed, and whether the
/// third paper has a known author (two or three nulls) — so consecutive
/// seeds cycle through every stratum and a run's cost mix does not depend
/// on which seeds it drew. The remaining facts come from the seeded stream.
pub fn decide_text(seed: u64, papers: usize) -> String {
    let mut rng = Rng::new(seed, 0xDE);
    let ann = |bit: u64| if seed >> bit & 1 == 1 { "op" } else { "cl" };
    let (a_ann, r_ann) = (ann(0), ann(1));
    let third_known = seed >> 2 & 1 == 1;
    let (authors, reviewers) = (2, 3);
    let mut out = String::with_capacity(2048);
    out.push_str("scenario \"decide\" {\n");
    out.push_str("  source { Papers/1; Wrote/2; Assign/2; }\n");
    out.push_str("  target { Sub/2; Rev/2; }\n");
    out.push_str("  mapping {\n");
    let _ = writeln!(
        out,
        "    Sub(p:cl, a:{a_ann}) <- Papers(p) & !exists b. Wrote(p, b);"
    );
    out.push_str("    Sub(p:cl, a:cl) <- Wrote(p, a);\n");
    out.push_str("    Rev(p:cl, r:cl) <- Assign(p, r);\n");
    let _ = writeln!(
        out,
        "    Rev(p:cl, r:{r_ann}) <- Papers(p) & !exists s. Assign(p, s);"
    );
    out.push_str("  }\n");
    out.push_str("  constraints {\n    egd a = b <- Sub(p, a) & Sub(p, b);\n  }\n");
    out.push_str("  instance {\n");
    // Paper 0 has a known author, paper 1 none; the last paper has no
    // reviewer. Papers in between draw freely.
    for i in 0..papers {
        let last = i + 1 == papers;
        let known = match i {
            0 => true,
            1 => false,
            _ if last => third_known,
            _ => rng.chance(1, 2),
        };
        let _ = writeln!(out, "    Papers(p{i});");
        if known {
            let _ = writeln!(out, "    Wrote(p{i}, a{});", rng.below(authors));
        }
        if !last {
            let first = rng.below(reviewers);
            let _ = writeln!(out, "    Assign(p{i}, r{first});");
            if rng.chance(1, 2) {
                let _ = writeln!(
                    out,
                    "    Assign(p{i}, r{});",
                    (first + 1 + rng.below(reviewers - 1)) % reviewers
                );
            }
        }
    }
    out.push_str("  }\n");
    out.push_str("  query reviewed(p) <- exists r. Rev(p, r);\n");
    out.push_str("  query two_reviewers(p) <- exists r1 r2. Rev(p, r1) & Rev(p, r2) & r1 != r2;\n");
    out.push_str("  query one_author() <- forall p a1 a2. (Sub(p, a1) & Sub(p, a2) -> a1 = a2);\n");
    out.push_str(
        "  query sole_reviewer(p) <- exists r. Rev(p, r) & !exists s. (Rev(p, s) & s != r);\n",
    );
    out.push_str("}\n");
    out
}
