//! Membership formulas: `t ∈ Q(D')` as a boolean combination of base-fact
//! literals.
//!
//! Because the supported fragment has no existential quantifiers, whether a
//! candidate tuple `t` belongs to `Q(D')` depends only on the membership of
//! finitely many *base facts whose values are slices of `t`*:
//!
//! * relation leaf → one literal,
//! * selection → a guard evaluable on `t` directly,
//! * product → split `t`,
//! * union → disjunction, difference → `… ∧ ¬…`,
//! * permutation → inverse image (plus consistency guards for duplicated
//!   columns).
//!
//! The *template* ([`FormulaTemplate`]) is built once per query; it is
//! instantiated per candidate tuple into a ground [`Formula`], which the
//! prover negates and converts to DNF. Since formula size is bounded by
//! query size, DNF conversion costs a constant per tuple — this is the
//! core of the paper's polynomial data complexity argument.

use crate::hypergraph::Fact;
use crate::pred::Pred;
use crate::query::SjudQuery;
use hippo_engine::{Catalog, EngineError, Row};

/// A literal template: a base fact whose values are the candidate tuple's
/// columns at `cols`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LitTemplate {
    /// Relation name.
    pub rel: String,
    /// For each column of the relation, the candidate-tuple column that
    /// supplies its value.
    pub cols: Vec<usize>,
}

impl LitTemplate {
    /// Instantiate against a candidate tuple.
    pub fn instantiate(&self, tuple: &Row) -> Fact {
        Fact::new(
            self.rel.clone(),
            self.cols.iter().map(|&c| tuple[c].clone()).collect(),
        )
    }
}

/// The membership-formula template of a query.
#[derive(Debug, Clone, PartialEq)]
pub enum FormulaTemplate {
    /// Constant true.
    True,
    /// Constant false.
    False,
    /// A base-fact literal (index into the template's literal table).
    Lit(usize),
    /// A guard over the candidate tuple (from selections / permutation
    /// consistency).
    Guard(Pred),
    /// Conjunction.
    And(Box<FormulaTemplate>, Box<FormulaTemplate>),
    /// Disjunction.
    Or(Box<FormulaTemplate>, Box<FormulaTemplate>),
    /// Negation.
    Not(Box<FormulaTemplate>),
}

/// A compiled membership template: the structure plus the literal table.
#[derive(Debug, Clone)]
pub struct MembershipTemplate {
    /// Formula structure.
    pub formula: FormulaTemplate,
    /// Distinct literal templates, referenced by index from
    /// [`FormulaTemplate::Lit`].
    pub literals: Vec<LitTemplate>,
    /// `witnessed[li]`: every row of the query's envelope carries literal
    /// `li`'s fact with the relation's own values, because the row was
    /// read from that relation. Its membership then needs no lookup (see
    /// [`crate::kg`]).
    pub witnessed: Vec<bool>,
}

impl MembershipTemplate {
    /// Build the membership template for `query` (validated against the
    /// catalog; the query must be within the supported fragment).
    pub fn build(query: &SjudQuery, catalog: &Catalog) -> Result<MembershipTemplate, EngineError> {
        let arity = query.validate(catalog)?;
        let mut literals = Vec::new();
        let mapping: Vec<usize> = (0..arity).collect();
        let (formula, carried) = build_rec(query, catalog, &mapping, &mut literals)?;
        let witnessed = (0..literals.len())
            .map(|li| carried.contains(&li))
            .collect();
        Ok(MembershipTemplate {
            formula,
            literals,
            witnessed,
        })
    }

    /// Instantiate for a candidate tuple: guards are decided immediately,
    /// literals become ground facts.
    pub fn instantiate(&self, tuple: &Row) -> Formula {
        instantiate_rec(&self.formula, tuple, &self.literals)
    }

    /// All guard predicates of the template, in deterministic pre-order.
    /// The instantiated formula — and therefore the prover's verdict —
    /// is fully determined by the truth of these guards on the candidate
    /// plus the per-literal membership/conflict state, which is what
    /// makes the closure-signature cache (see [`crate::hippo`]) sound.
    pub fn guards(&self) -> Vec<&Pred> {
        fn walk<'a>(t: &'a FormulaTemplate, out: &mut Vec<&'a Pred>) {
            match t {
                FormulaTemplate::True | FormulaTemplate::False | FormulaTemplate::Lit(_) => {}
                FormulaTemplate::Guard(p) => out.push(p),
                FormulaTemplate::And(a, b) | FormulaTemplate::Or(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                FormulaTemplate::Not(inner) => walk(inner, out),
            }
        }
        let mut out = Vec::new();
        walk(&self.formula, &mut out);
        out
    }
}

/// The formula of `q` under `mapping`, plus the literals every envelope
/// row of `q` carries: a relation its own, a selection or permutation its
/// input's, a product both sides', a union those both branches carry, a
/// difference its left side's (the envelope drops the subtrahend).
fn build_rec(
    q: &SjudQuery,
    catalog: &Catalog,
    mapping: &[usize],
    literals: &mut Vec<LitTemplate>,
) -> Result<(FormulaTemplate, Vec<usize>), EngineError> {
    match q {
        SjudQuery::Rel(rel) => {
            let lit = LitTemplate {
                rel: rel.clone(),
                cols: mapping.to_vec(),
            };
            let idx = match literals.iter().position(|l| *l == lit) {
                Some(i) => i,
                None => {
                    literals.push(lit);
                    literals.len() - 1
                }
            };
            Ok((FormulaTemplate::Lit(idx), vec![idx]))
        }
        SjudQuery::Select { input, pred } => {
            // The predicate speaks about the input's columns, which under
            // `mapping` live at candidate positions mapping[i].
            let guard = pred.map_cols(&|i| mapping[i]);
            let (inner, carried) = build_rec(input, catalog, mapping, literals)?;
            Ok((and(FormulaTemplate::Guard(guard), inner), carried))
        }
        SjudQuery::Product(l, r) => {
            let la = l.validate(catalog)?;
            let (ml, mr) = mapping.split_at(la);
            let (fl, mut carried) = build_rec(l, catalog, ml, literals)?;
            let (fr, cr) = build_rec(r, catalog, mr, literals)?;
            carried.extend(cr);
            Ok((and(fl, fr), carried))
        }
        SjudQuery::Union(l, r) => {
            let (fl, mut carried) = build_rec(l, catalog, mapping, literals)?;
            let (fr, cr) = build_rec(r, catalog, mapping, literals)?;
            carried.retain(|li| cr.contains(li));
            Ok((or(fl, fr), carried))
        }
        SjudQuery::Diff(l, r) => {
            let (fl, carried) = build_rec(l, catalog, mapping, literals)?;
            let (fr, _) = build_rec(r, catalog, mapping, literals)?;
            Ok((and(fl, FormulaTemplate::Not(Box::new(fr))), carried))
        }
        SjudQuery::Permute { input, perm } => {
            // Output column i = input column perm[i]; candidate position of
            // output column i is mapping[i]. For the inverse image, input
            // column j gets the candidate position of any i with perm[i]=j;
            // duplicated occurrences must agree (consistency guards).
            let in_arity = input.validate(catalog)?;
            let mut inv: Vec<Option<usize>> = vec![None; in_arity];
            let mut guards = Pred::True;
            for (i, &j) in perm.iter().enumerate() {
                match inv[j] {
                    None => inv[j] = Some(mapping[i]),
                    Some(first) => {
                        guards =
                            guards.and(Pred::cmp_cols(first, crate::pred::CmpOp::Eq, mapping[i]));
                    }
                }
            }
            let inner_mapping: Vec<usize> = inv
                .into_iter()
                .map(|o| o.expect("validate() guarantees surjectivity"))
                .collect();
            let (inner, carried) = build_rec(input, catalog, &inner_mapping, literals)?;
            Ok((and(FormulaTemplate::Guard(guards), inner), carried))
        }
    }
}

fn and(a: FormulaTemplate, b: FormulaTemplate) -> FormulaTemplate {
    match (a, b) {
        (FormulaTemplate::True, x) | (x, FormulaTemplate::True) => x,
        (FormulaTemplate::False, _) | (_, FormulaTemplate::False) => FormulaTemplate::False,
        (FormulaTemplate::Guard(Pred::True), x) | (x, FormulaTemplate::Guard(Pred::True)) => x,
        (a, b) => FormulaTemplate::And(Box::new(a), Box::new(b)),
    }
}

fn or(a: FormulaTemplate, b: FormulaTemplate) -> FormulaTemplate {
    match (a, b) {
        (FormulaTemplate::False, x) | (x, FormulaTemplate::False) => x,
        (FormulaTemplate::True, _) | (_, FormulaTemplate::True) => FormulaTemplate::True,
        (a, b) => FormulaTemplate::Or(Box::new(a), Box::new(b)),
    }
}

/// A ground membership formula over literal indices.
#[derive(Debug, Clone, PartialEq)]
pub enum Formula {
    /// Constant.
    Const(bool),
    /// Literal `lit_index ∈ D'` (possibly negated).
    Lit {
        /// Index into the template's literal table.
        index: usize,
        /// Negated occurrence.
        negated: bool,
    },
    /// Conjunction.
    And(Vec<Formula>),
    /// Disjunction.
    Or(Vec<Formula>),
}

fn instantiate_rec(t: &FormulaTemplate, tuple: &Row, _literals: &[LitTemplate]) -> Formula {
    match t {
        FormulaTemplate::True => Formula::Const(true),
        FormulaTemplate::False => Formula::Const(false),
        FormulaTemplate::Lit(i) => Formula::Lit {
            index: *i,
            negated: false,
        },
        FormulaTemplate::Guard(p) => Formula::Const(p.eval(tuple)),
        FormulaTemplate::And(a, b) => {
            let fa = instantiate_rec(a, tuple, _literals);
            let fb = instantiate_rec(b, tuple, _literals);
            match (fa, fb) {
                (Formula::Const(false), _) | (_, Formula::Const(false)) => Formula::Const(false),
                (Formula::Const(true), x) | (x, Formula::Const(true)) => x,
                (x, y) => Formula::And(vec![x, y]),
            }
        }
        FormulaTemplate::Or(a, b) => {
            let fa = instantiate_rec(a, tuple, _literals);
            let fb = instantiate_rec(b, tuple, _literals);
            match (fa, fb) {
                (Formula::Const(true), _) | (_, Formula::Const(true)) => Formula::Const(true),
                (Formula::Const(false), x) | (x, Formula::Const(false)) => x,
                (x, y) => Formula::Or(vec![x, y]),
            }
        }
        FormulaTemplate::Not(inner) => negate(instantiate_rec(inner, tuple, _literals)),
    }
}

/// Negate a ground formula (push negation to literals, NNF).
pub fn negate(f: Formula) -> Formula {
    match f {
        Formula::Const(b) => Formula::Const(!b),
        Formula::Lit { index, negated } => Formula::Lit {
            index,
            negated: !negated,
        },
        Formula::And(parts) => Formula::Or(parts.into_iter().map(negate).collect()),
        Formula::Or(parts) => Formula::And(parts.into_iter().map(negate).collect()),
    }
}

/// One DNF disjunct: positive and negative literal indices.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Disjunct {
    /// Literals that must be **in** the repair.
    pub positive: Vec<usize>,
    /// Literals that must be **out** of the repair.
    pub negative: Vec<usize>,
}

impl Disjunct {
    /// Contradictory disjunct (same literal both polarities)?
    pub fn contradictory(&self) -> bool {
        self.positive.iter().any(|p| self.negative.contains(p))
    }
}

/// Convert a ground NNF formula to DNF. Formula size is bounded by query
/// size, so the blow-up is a query constant, not data-dependent.
pub fn to_dnf(f: &Formula) -> Vec<Disjunct> {
    match f {
        Formula::Const(true) => vec![Disjunct::default()],
        Formula::Const(false) => vec![],
        Formula::Lit { index, negated } => {
            let mut d = Disjunct::default();
            if *negated {
                d.negative.push(*index);
            } else {
                d.positive.push(*index);
            }
            vec![d]
        }
        Formula::Or(parts) => parts.iter().flat_map(to_dnf).collect(),
        Formula::And(parts) => {
            let mut acc = vec![Disjunct::default()];
            for p in parts {
                let ds = to_dnf(p);
                let mut next = Vec::with_capacity(acc.len() * ds.len());
                for a in &acc {
                    for d in &ds {
                        let mut m = a.clone();
                        m.positive.extend(d.positive.iter().copied());
                        m.negative.extend(d.negative.iter().copied());
                        m.positive.sort_unstable();
                        m.positive.dedup();
                        m.negative.sort_unstable();
                        m.negative.dedup();
                        if !m.contradictory() {
                            next.push(m);
                        }
                    }
                }
                acc = next;
                if acc.is_empty() {
                    break;
                }
            }
            acc
        }
    }
}

/// Evaluate a ground formula under an assignment of literal truth values.
pub fn eval_formula(f: &Formula, truth: &impl Fn(usize) -> bool) -> bool {
    match f {
        Formula::Const(b) => *b,
        Formula::Lit { index, negated } => truth(*index) != *negated,
        Formula::And(parts) => parts.iter().all(|p| eval_formula(p, truth)),
        Formula::Or(parts) => parts.iter().any(|p| eval_formula(p, truth)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::CmpOp;
    use hippo_engine::{Column, DataType, Database, TableSchema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        for name in ["r", "s"] {
            db.catalog_mut()
                .create_table(
                    TableSchema::new(
                        name,
                        vec![
                            Column::new("a", DataType::Int),
                            Column::new("b", DataType::Int),
                        ],
                        &[],
                    )
                    .unwrap(),
                )
                .unwrap();
        }
        db
    }

    fn row(vals: &[i64]) -> Row {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn relation_leaf_is_single_literal() {
        let db = db();
        let t = MembershipTemplate::build(&SjudQuery::rel("r"), db.catalog()).unwrap();
        assert_eq!(
            t.literals,
            vec![LitTemplate {
                rel: "r".into(),
                cols: vec![0, 1]
            }]
        );
        let f = t.instantiate(&row(&[1, 2]));
        assert_eq!(
            f,
            Formula::Lit {
                index: 0,
                negated: false
            }
        );
        assert_eq!(
            t.literals[0].instantiate(&row(&[1, 2])),
            Fact::new("r", row(&[1, 2]))
        );
    }

    #[test]
    fn selection_becomes_guard() {
        let db = db();
        let q = SjudQuery::rel("r").select(Pred::cmp_const(0, CmpOp::Gt, 5i64));
        let t = MembershipTemplate::build(&q, db.catalog()).unwrap();
        // Guard true: formula is the literal; guard false: formula is false.
        assert_eq!(
            t.instantiate(&row(&[9, 0])),
            Formula::Lit {
                index: 0,
                negated: false
            }
        );
        assert_eq!(t.instantiate(&row(&[1, 0])), Formula::Const(false));
    }

    #[test]
    fn product_splits_columns() {
        let db = db();
        let q = SjudQuery::rel("r").product(SjudQuery::rel("s"));
        let t = MembershipTemplate::build(&q, db.catalog()).unwrap();
        assert_eq!(t.literals.len(), 2);
        assert_eq!(t.literals[0].cols, vec![0, 1]);
        assert_eq!(t.literals[1].cols, vec![2, 3]);
        let f = t.instantiate(&row(&[1, 2, 3, 4]));
        let Formula::And(parts) = f else {
            panic!("{f:?}")
        };
        assert_eq!(parts.len(), 2);
        assert_eq!(
            t.literals[1].instantiate(&row(&[1, 2, 3, 4])),
            Fact::new("s", row(&[3, 4]))
        );
    }

    #[test]
    fn union_and_diff_structure() {
        let db = db();
        let q = SjudQuery::rel("r").union(SjudQuery::rel("s"));
        let t = MembershipTemplate::build(&q, db.catalog()).unwrap();
        assert!(matches!(t.instantiate(&row(&[1, 2])), Formula::Or(_)));
        let q = SjudQuery::rel("r").diff(SjudQuery::rel("s"));
        let t = MembershipTemplate::build(&q, db.catalog()).unwrap();
        let Formula::And(parts) = t.instantiate(&row(&[1, 2])) else {
            panic!()
        };
        assert_eq!(
            parts[1],
            Formula::Lit {
                index: 1,
                negated: true
            }
        );
    }

    #[test]
    fn identical_leaves_share_a_literal() {
        let db = db();
        // r − σ(r): both leaves have the same (rel, cols) template.
        let q = SjudQuery::rel("r").diff(SjudQuery::rel("r").select(Pred::cmp_const(
            0,
            CmpOp::Lt,
            0i64,
        )));
        let t = MembershipTemplate::build(&q, db.catalog()).unwrap();
        assert_eq!(t.literals.len(), 1);
    }

    #[test]
    fn permute_inverse_image() {
        let db = db();
        let q = SjudQuery::rel("r").permute(vec![1, 0]);
        let t = MembershipTemplate::build(&q, db.catalog()).unwrap();
        // candidate (x, y) corresponds to base fact r(y, x)
        assert_eq!(t.literals[0].cols, vec![1, 0]);
        assert_eq!(
            t.literals[0].instantiate(&row(&[10, 20])),
            Fact::new("r", row(&[20, 10]))
        );
    }

    #[test]
    fn permute_duplicate_columns_add_consistency_guard() {
        let db = db();
        let q = SjudQuery::rel("r").permute(vec![0, 1, 0]);
        let t = MembershipTemplate::build(&q, db.catalog()).unwrap();
        // candidate (x, y, z): requires x = z
        assert_eq!(t.instantiate(&row(&[1, 2, 3])), Formula::Const(false));
        assert!(matches!(
            t.instantiate(&row(&[1, 2, 1])),
            Formula::Lit { .. }
        ));
    }

    #[test]
    fn witnessed_literals_follow_the_envelope() {
        let db = db();
        let r = || SjudQuery::rel("r");
        let s = || SjudQuery::rel("s");
        let sel = |q: SjudQuery, c: i64| q.select(Pred::cmp_const(0, CmpOp::Gt, c));
        let witnessed = |q: &SjudQuery| {
            MembershipTemplate::build(q, db.catalog())
                .unwrap()
                .witnessed
        };
        assert_eq!(witnessed(&sel(r(), 0)), vec![true]);
        assert_eq!(witnessed(&r().product(s())), vec![true, true]);
        assert_eq!(witnessed(&r().union(s())), vec![false, false]);
        assert_eq!(witnessed(&sel(r(), 0).union(sel(r(), 5))), vec![true]);
        assert_eq!(witnessed(&r().diff(s())), vec![true, false]);
        assert_eq!(witnessed(&r().permute(vec![1, 0, 1])), vec![true]);
        // (r × s) ∪ (r × r): only the left factor `r` is read by both
        // branches at the same columns.
        let q = r().product(s()).union(r().product(r()));
        let t = MembershipTemplate::build(&q, db.catalog()).unwrap();
        assert_eq!(t.literals.len(), 3);
        assert_eq!(t.witnessed, vec![true, false, false]);
    }

    #[test]
    fn negate_flips_polarity_in_nnf() {
        let f = Formula::And(vec![
            Formula::Lit {
                index: 0,
                negated: false,
            },
            Formula::Lit {
                index: 1,
                negated: true,
            },
        ]);
        let n = negate(f);
        assert_eq!(
            n,
            Formula::Or(vec![
                Formula::Lit {
                    index: 0,
                    negated: true
                },
                Formula::Lit {
                    index: 1,
                    negated: false
                },
            ])
        );
    }

    #[test]
    fn dnf_of_and_over_or() {
        // (a ∨ b) ∧ ¬c → {a,¬c}, {b,¬c}
        let f = Formula::And(vec![
            Formula::Or(vec![
                Formula::Lit {
                    index: 0,
                    negated: false,
                },
                Formula::Lit {
                    index: 1,
                    negated: false,
                },
            ]),
            Formula::Lit {
                index: 2,
                negated: true,
            },
        ]);
        let dnf = to_dnf(&f);
        assert_eq!(dnf.len(), 2);
        assert_eq!(
            dnf[0],
            Disjunct {
                positive: vec![0],
                negative: vec![2]
            }
        );
        assert_eq!(
            dnf[1],
            Disjunct {
                positive: vec![1],
                negative: vec![2]
            }
        );
    }

    #[test]
    fn dnf_drops_contradictions() {
        // a ∧ ¬a → empty DNF (unsatisfiable)
        let f = Formula::And(vec![
            Formula::Lit {
                index: 0,
                negated: false,
            },
            Formula::Lit {
                index: 0,
                negated: true,
            },
        ]);
        assert!(to_dnf(&f).is_empty());
    }

    #[test]
    fn dnf_constants() {
        assert_eq!(to_dnf(&Formula::Const(true)), vec![Disjunct::default()]);
        assert!(to_dnf(&Formula::Const(false)).is_empty());
    }

    #[test]
    fn eval_formula_matches_dnf() {
        // random-ish spot check: f = (l0 ∧ ¬l1) ∨ l2
        let f = Formula::Or(vec![
            Formula::And(vec![
                Formula::Lit {
                    index: 0,
                    negated: false,
                },
                Formula::Lit {
                    index: 1,
                    negated: true,
                },
            ]),
            Formula::Lit {
                index: 2,
                negated: false,
            },
        ]);
        let dnf = to_dnf(&f);
        for bits in 0u8..8 {
            let truth = |i: usize| bits & (1 << i) != 0;
            let direct = eval_formula(&f, &truth);
            let via_dnf = dnf.iter().any(|d| {
                d.positive.iter().all(|&i| truth(i)) && d.negative.iter().all(|&i| !truth(i))
            });
            assert_eq!(direct, via_dnf, "bits {bits:03b}");
        }
    }
}
