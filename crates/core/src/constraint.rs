//! Denial constraints.
//!
//! A *denial constraint* forbids a combination of tuples:
//!
//! ```text
//! ∀ t1 ∈ R1, …, tk ∈ Rk :  ¬( φ(t1, …, tk) )
//! ```
//!
//! where `φ` is a conjunction/boolean combination of comparisons between
//! the tuples' attributes and constants. Functional dependencies and
//! exclusion constraints are the common special cases; single-atom denials
//! express CHECK-style conditions. The class matters because every
//! violation involves at most `k` tuples, so all violations form a
//! polynomial-size **conflict hypergraph** with hyperedges of bounded size.

use crate::pred::{CmpOp, Operand, Pred};
use hippo_engine::{Catalog, EngineError, Value};
use std::fmt;

/// A reference to an attribute of one of the constraint's atoms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttrRef {
    /// Which atom (index into [`DenialConstraint::atoms`]).
    pub atom: usize,
    /// Column within that atom's relation.
    pub col: usize,
}

/// One side of a constraint comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// Attribute of an atom.
    Attr(AttrRef),
    /// Constant.
    Const(Value),
}

/// A comparison inside a denial constraint's condition.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Operator.
    pub op: CmpOp,
    /// Left term.
    pub left: Term,
    /// Right term.
    pub right: Term,
}

impl Comparison {
    /// Attribute-to-attribute equality shorthand.
    pub fn attr_eq(a: AttrRef, b: AttrRef) -> Comparison {
        Comparison {
            op: CmpOp::Eq,
            left: Term::Attr(a),
            right: Term::Attr(b),
        }
    }
}

/// A denial constraint: `¬(R_0(t_0) ∧ … ∧ R_{k-1}(t_{k-1}) ∧ condition)`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenialConstraint {
    /// Human-readable name (used in diagnostics and experiment output).
    pub name: String,
    /// The relations quantified over (with multiplicity — an FD mentions
    /// the same relation twice).
    pub atoms: Vec<String>,
    /// The forbidden condition: all comparisons must hold simultaneously
    /// for a violation.
    pub condition: Vec<Comparison>,
}

impl DenialConstraint {
    /// General constructor.
    pub fn new(
        name: impl Into<String>,
        atoms: Vec<String>,
        condition: Vec<Comparison>,
    ) -> DenialConstraint {
        DenialConstraint {
            name: name.into(),
            atoms,
            condition,
        }
    }

    /// A functional dependency `lhs → rhs` on `rel`: two tuples agreeing on
    /// all `lhs` columns must not differ on the `rhs` column.
    pub fn functional_dependency(rel: impl Into<String>, lhs: &[usize], rhs: usize) -> Self {
        let rel = rel.into();
        let mut condition: Vec<Comparison> = lhs
            .iter()
            .map(|&c| Comparison::attr_eq(AttrRef { atom: 0, col: c }, AttrRef { atom: 1, col: c }))
            .collect();
        condition.push(Comparison {
            op: CmpOp::Neq,
            left: Term::Attr(AttrRef { atom: 0, col: rhs }),
            right: Term::Attr(AttrRef { atom: 1, col: rhs }),
        });
        let name = format!(
            "fd:{rel}:{}->{rhs}",
            lhs.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        );
        DenialConstraint {
            name,
            atoms: vec![rel.clone(), rel],
            condition,
        }
    }

    /// An exclusion constraint between `rel_a` and `rel_b`: no pair of
    /// tuples may agree on the listed column pairs.
    pub fn exclusion(
        rel_a: impl Into<String>,
        rel_b: impl Into<String>,
        on: &[(usize, usize)],
    ) -> Self {
        let rel_a = rel_a.into();
        let rel_b = rel_b.into();
        let condition = on
            .iter()
            .map(|&(ca, cb)| {
                Comparison::attr_eq(AttrRef { atom: 0, col: ca }, AttrRef { atom: 1, col: cb })
            })
            .collect();
        let name = format!("excl:{rel_a}/{rel_b}");
        DenialConstraint {
            name,
            atoms: vec![rel_a, rel_b],
            condition,
        }
    }

    /// A single-atom CHECK-style denial: tuples of `rel` satisfying `pred`
    /// (over the relation's own columns) are forbidden.
    pub fn check(rel: impl Into<String>, pred_comparisons: Vec<Comparison>) -> Self {
        let rel = rel.into();
        DenialConstraint {
            name: format!("check:{rel}"),
            atoms: vec![rel],
            condition: pred_comparisons,
        }
    }

    /// Number of atoms (the maximum hyperedge size this constraint can
    /// produce).
    #[cfg(test)]
    fn arity(&self) -> usize {
        self.atoms.len()
    }

    /// Is this a binary constraint (at most two atoms)? The query-rewriting
    /// baseline only supports these.
    pub(crate) fn is_binary(&self) -> bool {
        self.atoms.len() <= 2
    }

    /// Validate against a catalog: relations exist and attribute references
    /// are within arity.
    pub(crate) fn validate(&self, catalog: &Catalog) -> Result<(), EngineError> {
        if self.atoms.is_empty() {
            return Err(EngineError::new(format!(
                "constraint {:?} has no atoms",
                self.name
            )));
        }
        let arities: Vec<usize> = self
            .atoms
            .iter()
            .map(|r| Ok(catalog.table(r)?.schema.arity()))
            .collect::<Result<_, EngineError>>()?;
        let check_term = |t: &Term| -> Result<(), EngineError> {
            if let Term::Attr(a) = t {
                if a.atom >= self.atoms.len() {
                    return Err(EngineError::new(format!(
                        "constraint {:?}: atom index {} out of range",
                        self.name, a.atom
                    )));
                }
                if a.col >= arities[a.atom] {
                    return Err(EngineError::new(format!(
                        "constraint {:?}: column {} out of range for {:?}",
                        self.name, a.col, self.atoms[a.atom]
                    )));
                }
            }
            Ok(())
        };
        for c in &self.condition {
            check_term(&c.left)?;
            check_term(&c.right)?;
        }
        Ok(())
    }

    /// Does the condition hold on a full assignment of rows to atoms?
    pub(crate) fn condition_holds(&self, rows: &[&[Value]]) -> bool {
        debug_assert_eq!(rows.len(), self.atoms.len());
        self.condition.iter().all(|c| {
            let val = |t: &Term| -> Option<Value> {
                match t {
                    Term::Attr(a) => rows[a.atom].get(a.col).cloned(),
                    Term::Const(v) => Some(v.clone()),
                }
            };
            match (val(&c.left), val(&c.right)) {
                (Some(l), Some(r)) => match l.sql_cmp(&r) {
                    Some(ord) => c.op.test(ord),
                    None => false,
                },
                _ => false,
            }
        })
    }

    /// The condition as a [`Pred`] over the concatenation of the atoms'
    /// rows (atom 0's columns first, then atom 1's, ...), given the atom
    /// arities. Used for SQL rendering and the rewriting baseline.
    pub(crate) fn condition_as_pred(&self, arities: &[usize]) -> Pred {
        let offset = |atom: usize| -> usize { arities[..atom].iter().sum() };
        let term = |t: &Term| match t {
            Term::Attr(a) => Operand::Col(offset(a.atom) + a.col),
            Term::Const(v) => Operand::Const(v.clone()),
        };
        Pred::conjoin(self.condition.iter().map(|c| Pred::Cmp {
            op: c.op,
            left: term(&c.left),
            right: term(&c.right),
        }))
    }

    /// Equality pairs `(left attr, right attr)` between two given atoms —
    /// the hash-join keys conflict detection uses.
    pub(crate) fn equalities_between(&self, atom_a: usize, atom_b: usize) -> Vec<(usize, usize)> {
        self.condition
            .iter()
            .filter_map(|c| {
                if c.op != CmpOp::Eq {
                    return None;
                }
                match (&c.left, &c.right) {
                    (Term::Attr(x), Term::Attr(y)) if x.atom == atom_a && y.atom == atom_b => {
                        Some((x.col, y.col))
                    }
                    (Term::Attr(x), Term::Attr(y)) if x.atom == atom_b && y.atom == atom_a => {
                        Some((y.col, x.col))
                    }
                    _ => None,
                }
            })
            .collect()
    }
}

impl fmt::Display for DenialConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "¬(")?;
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{a}(t{i})")?;
        }
        for c in &self.condition {
            let t = |t: &Term| match t {
                Term::Attr(a) => format!("t{}.{}", a.atom, a.col),
                Term::Const(v) => format!("{v}"),
            };
            write!(f, " ∧ {} {} {}", t(&c.left), c.op, t(&c.right))?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hippo_engine::{Column, DataType, Database, TableSchema};

    fn db() -> Database {
        let mut db = Database::new();
        db.catalog_mut()
            .create_table(
                TableSchema::new(
                    "emp",
                    vec![
                        Column::new("name", DataType::Text),
                        Column::new("salary", DataType::Int),
                    ],
                    &[],
                )
                .unwrap(),
            )
            .unwrap();
        db
    }

    #[test]
    fn fd_shape() {
        let fd = DenialConstraint::functional_dependency("emp", &[0], 1);
        assert_eq!(fd.atoms, vec!["emp", "emp"]);
        assert_eq!(fd.condition.len(), 2);
        assert!(fd.is_binary());
        let db = db();
        fd.validate(db.catalog()).unwrap();
    }

    #[test]
    fn fd_condition_semantics() {
        let fd = DenialConstraint::functional_dependency("emp", &[0], 1);
        let a: Vec<Value> = vec![Value::text("ann"), Value::Int(100)];
        let b: Vec<Value> = vec![Value::text("ann"), Value::Int(200)];
        let c: Vec<Value> = vec![Value::text("bob"), Value::Int(100)];
        assert!(fd.condition_holds(&[&a, &b]), "same name, different salary");
        assert!(
            !fd.condition_holds(&[&a, &a]),
            "identical tuples never violate an FD"
        );
        assert!(!fd.condition_holds(&[&a, &c]), "different names");
    }

    #[test]
    fn exclusion_semantics() {
        let ex = DenialConstraint::exclusion("emp", "emp", &[(0, 0)]);
        let a: Vec<Value> = vec![Value::text("ann"), Value::Int(1)];
        let b: Vec<Value> = vec![Value::text("ann"), Value::Int(2)];
        assert!(ex.condition_holds(&[&a, &b]));
        assert!(
            ex.condition_holds(&[&a, &a]),
            "exclusion can be violated by one tuple twice"
        );
    }

    #[test]
    fn check_constraint() {
        let chk = DenialConstraint::check(
            "emp",
            vec![Comparison {
                op: CmpOp::Lt,
                left: Term::Attr(AttrRef { atom: 0, col: 1 }),
                right: Term::Const(Value::Int(0)),
            }],
        );
        let neg: Vec<Value> = vec![Value::text("x"), Value::Int(-5)];
        let pos: Vec<Value> = vec![Value::text("x"), Value::Int(5)];
        assert!(chk.condition_holds(&[&neg]));
        assert!(!chk.condition_holds(&[&pos]));
        assert_eq!(chk.arity(), 1);
    }

    #[test]
    fn validate_rejects_bad_refs() {
        let db = db();
        let bad = DenialConstraint::functional_dependency("emp", &[0], 7);
        assert!(bad.validate(db.catalog()).is_err());
        let bad = DenialConstraint::functional_dependency("ghost", &[0], 1);
        assert!(bad.validate(db.catalog()).is_err());
        let none = DenialConstraint::new("empty", vec![], vec![]);
        assert!(none.validate(db.catalog()).is_err());
    }

    #[test]
    fn condition_as_pred_offsets() {
        let fd = DenialConstraint::functional_dependency("emp", &[0], 1);
        let pred = fd.condition_as_pred(&[2, 2]);
        // t0 = (ann, 100), t1 = (ann, 200) concatenated
        let row: Vec<Value> = vec![
            Value::text("ann"),
            Value::Int(100),
            Value::text("ann"),
            Value::Int(200),
        ];
        assert!(pred.eval(&row));
        let same: Vec<Value> = vec![
            Value::text("ann"),
            Value::Int(100),
            Value::text("ann"),
            Value::Int(100),
        ];
        assert!(!pred.eval(&same));
    }

    #[test]
    fn equalities_between_extracts_join_keys() {
        let fd = DenialConstraint::functional_dependency("emp", &[0], 1);
        assert_eq!(fd.equalities_between(0, 1), vec![(0, 0)]);
        let ex = DenialConstraint::exclusion("a", "b", &[(1, 2)]);
        assert_eq!(ex.equalities_between(0, 1), vec![(1, 2)]);
    }

    #[test]
    fn display_is_informative() {
        let fd = DenialConstraint::functional_dependency("emp", &[0], 1);
        let s = fd.to_string();
        assert!(s.contains("emp(t0)"), "{s}");
        assert!(s.contains("<>"), "{s}");
    }
}
