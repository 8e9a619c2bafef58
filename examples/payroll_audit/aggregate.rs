//! Range-consistent scalar aggregation — the extension described in the
//! paper's reference \[3\] (Arenas, Bertossi, Chomicki, He, Raghavan,
//! Spinrad: *Scalar Aggregation in Inconsistent Databases*, TCS 296(3)).
//!
//! An aggregate query has no single consistent answer under
//! inconsistency; the natural semantics is the **range** `[glb, lub]` of
//! the aggregate's value over all repairs. For a relation with a single
//! functional dependency `X → A`, repairs have special structure — each
//! FD group keeps exactly one *value class* (all its tuples agreeing on
//! `A`), independently across groups — which yields polynomial (here
//! linear) algorithms for `COUNT(*)`, `SUM`, `MIN` and `MAX`:
//!
//! * `COUNT(*)`: sum per group of the smallest / largest class size;
//! * `SUM(B)`:   sum per group of the smallest / largest class sum;
//! * `MIN(B)`:   glb is the global minimum (some repair keeps that class);
//!   lub maximises the minimum: per group pick the class with the largest
//!   class-minimum, then take the smallest of those and the conflict-free
//!   part;
//! * `MAX(B)`:   symmetric.
//!
//! [`range_aggregate_naive`] computes the same ranges by repair
//! enumeration (exponential; the test oracle).
//!
//! The module lives beside the `payroll_audit` example that prints its
//! ranges; `tests/prop_cqa.rs` includes the same file by `#[path]`, so
//! its unit tests and the enumeration property run with the root suites.

use hippo::cqa::constraint::DenialConstraint;
use hippo::cqa::detect::detect_conflicts;
use hippo::engine::{Catalog, EngineError, Value};
use hippo_testkit::{enumerate_repairs, repair_instance};
use std::collections::HashMap;

/// Aggregates supported by range-consistent answering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggOp {
    /// `COUNT(*)`
    Count,
    /// `SUM(attr)`
    Sum,
    /// `MIN(attr)`
    Min,
    /// `MAX(attr)`
    Max,
}

/// A closed interval of aggregate values over all repairs.
#[derive(Debug, Clone, PartialEq)]
pub struct AggRange {
    /// Greatest lower bound (the aggregate's value in some repair).
    pub glb: Value,
    /// Least upper bound.
    pub lub: Value,
}

/// Per-class accumulators within one FD group.
#[derive(Debug, Clone)]
struct ClassStats {
    count: i64,
    sum: f64,
    min: Option<f64>,
    max: Option<f64>,
}

/// Range-consistent aggregate over `rel.agg_col` under the single FD
/// `lhs → rhs` (polynomial algorithm). `agg_col` is ignored for `Count`.
///
/// Tuples whose group satisfies the FD (a single value class) are in every
/// repair; conflicting groups contribute one class per repair.
pub fn range_aggregate_fd(
    catalog: &Catalog,
    rel: &str,
    lhs: &[usize],
    rhs: usize,
    agg_col: usize,
    op: AggOp,
) -> Result<AggRange, EngineError> {
    let table = catalog.table(rel)?;
    if op != AggOp::Count && agg_col >= table.schema.arity() {
        return Err(EngineError::new(format!(
            "aggregate column {agg_col} out of range for {rel:?}"
        )));
    }
    // group key -> class key (rhs value) -> stats
    let mut groups: HashMap<Vec<Value>, HashMap<Value, ClassStats>> = HashMap::new();
    for (_, row) in table.iter() {
        let gkey: Vec<Value> = lhs.iter().map(|&c| row[c].clone()).collect();
        let ckey = row[rhs].clone();
        let b = row.get(agg_col).and_then(Value::as_f64);
        let entry = groups
            .entry(gkey)
            .or_default()
            .entry(ckey)
            .or_insert(ClassStats {
                count: 0,
                sum: 0.0,
                min: None,
                max: None,
            });
        entry.count += 1;
        if let Some(b) = b {
            entry.sum += b;
            entry.min = Some(entry.min.map_or(b, |m| m.min(b)));
            entry.max = Some(entry.max.map_or(b, |m| m.max(b)));
        }
    }

    match op {
        AggOp::Count => {
            let (mut glb, mut lub) = (0i64, 0i64);
            for classes in groups.values() {
                let min = classes.values().map(|c| c.count).min().unwrap_or(0);
                let max = classes.values().map(|c| c.count).max().unwrap_or(0);
                if classes.len() == 1 {
                    glb += max;
                    lub += max;
                } else {
                    glb += min;
                    lub += max;
                }
            }
            Ok(AggRange {
                glb: Value::Int(glb),
                lub: Value::Int(lub),
            })
        }
        AggOp::Sum => {
            let (mut glb, mut lub) = (0.0f64, 0.0f64);
            for classes in groups.values() {
                let sums: Vec<f64> = classes.values().map(|c| c.sum).collect();
                let min = sums.iter().copied().fold(f64::INFINITY, f64::min);
                let max = sums.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                if classes.len() == 1 {
                    glb += max;
                    lub += max;
                } else {
                    glb += min;
                    lub += max;
                }
            }
            Ok(AggRange {
                glb: Value::Float(glb),
                lub: Value::Float(lub),
            })
        }
        AggOp::Min => {
            // glb: some repair keeps the class holding the global minimum.
            let glb = groups
                .values()
                .flat_map(|cs| cs.values().filter_map(|c| c.min))
                .fold(f64::INFINITY, f64::min);
            // lub: per conflicting group choose the class with the largest
            // class-min; single-class groups are fixed.
            let mut lub = f64::INFINITY;
            for classes in groups.values() {
                let choice = if classes.len() == 1 {
                    classes.values().next().and_then(|c| c.min)
                } else {
                    classes
                        .values()
                        .filter_map(|c| c.min)
                        .fold(None, |acc: Option<f64>, m| {
                            Some(acc.map_or(m, |a| a.max(m)))
                        })
                };
                if let Some(c) = choice {
                    lub = lub.min(c);
                }
            }
            if glb.is_infinite() {
                return Ok(AggRange {
                    glb: Value::Null,
                    lub: Value::Null,
                });
            }
            Ok(AggRange {
                glb: Value::Float(glb),
                lub: Value::Float(lub),
            })
        }
        AggOp::Max => {
            let lub = groups
                .values()
                .flat_map(|cs| cs.values().filter_map(|c| c.max))
                .fold(f64::NEG_INFINITY, f64::max);
            let mut glb = f64::NEG_INFINITY;
            for classes in groups.values() {
                let choice = if classes.len() == 1 {
                    classes.values().next().and_then(|c| c.max)
                } else {
                    classes
                        .values()
                        .filter_map(|c| c.max)
                        .fold(None, |acc: Option<f64>, m| {
                            Some(acc.map_or(m, |a| a.min(m)))
                        })
                };
                if let Some(c) = choice {
                    glb = glb.max(c);
                }
            }
            if lub.is_infinite() {
                return Ok(AggRange {
                    glb: Value::Null,
                    lub: Value::Null,
                });
            }
            Ok(AggRange {
                glb: Value::Float(glb),
                lub: Value::Float(lub),
            })
        }
    }
}

/// Range-consistent aggregate by repair enumeration (exponential; the
/// oracle the polynomial algorithm is tested against).
pub fn range_aggregate_naive(
    catalog: &Catalog,
    rel: &str,
    constraints: &[DenialConstraint],
    agg_col: usize,
    op: AggOp,
) -> Result<AggRange, EngineError> {
    let (g, _) = detect_conflicts(catalog, constraints)?;
    let repairs = enumerate_repairs(&g, None);
    let mut glb: Option<f64> = None;
    let mut lub: Option<f64> = None;
    let mut any_empty = false;
    for kept in &repairs {
        let inst = repair_instance(catalog, &g, kept);
        let rows = inst(rel);
        let v: Option<f64> = match op {
            AggOp::Count => Some(rows.len() as f64),
            AggOp::Sum => Some(rows.iter().filter_map(|r| r[agg_col].as_f64()).sum()),
            AggOp::Min => rows
                .iter()
                .filter_map(|r| r[agg_col].as_f64())
                .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.min(x)))),
            AggOp::Max => rows
                .iter()
                .filter_map(|r| r[agg_col].as_f64())
                .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x)))),
        };
        match v {
            None => any_empty = true,
            Some(v) => {
                glb = Some(glb.map_or(v, |a| a.min(v)));
                lub = Some(lub.map_or(v, |a| a.max(v)));
            }
        }
    }
    let _ = any_empty; // MIN/MAX over an empty repair is NULL; ranges ignore it
    match (glb, lub, op) {
        (Some(g_), Some(l), AggOp::Count) => Ok(AggRange {
            glb: Value::Int(g_ as i64),
            lub: Value::Int(l as i64),
        }),
        (Some(g_), Some(l), _) => Ok(AggRange {
            glb: Value::Float(g_),
            lub: Value::Float(l),
        }),
        _ => Ok(AggRange {
            glb: Value::Null,
            lub: Value::Null,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hippo::engine::Database;

    fn db(rows: &[(i64, i64, i64)]) -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (k INT, v INT, b INT)").unwrap();
        db.insert_rows(
            "t",
            rows.iter()
                .map(|&(k, v, b)| vec![Value::Int(k), Value::Int(v), Value::Int(b)])
                .collect(),
        )
        .unwrap();
        db
    }

    fn fd() -> Vec<DenialConstraint> {
        vec![DenialConstraint::functional_dependency("t", &[0], 1)]
    }

    fn check_all_ops(rows: &[(i64, i64, i64)]) {
        let db = db(rows);
        for op in [AggOp::Count, AggOp::Sum, AggOp::Min, AggOp::Max] {
            let fast = range_aggregate_fd(db.catalog(), "t", &[0], 1, 2, op).unwrap();
            let slow = range_aggregate_naive(db.catalog(), "t", &fd(), 2, op).unwrap();
            // Compare numerically (Int vs Float tolerated by Value's eq).
            assert_eq!(
                fast.glb.as_f64(),
                slow.glb.as_f64(),
                "glb mismatch for {op:?} on {rows:?}"
            );
            assert_eq!(
                fast.lub.as_f64(),
                slow.lub.as_f64(),
                "lub mismatch for {op:?} on {rows:?}"
            );
        }
    }

    #[test]
    fn consistent_relation_has_point_ranges() {
        let db = db(&[(1, 10, 5), (2, 20, 7)]);
        let r = range_aggregate_fd(db.catalog(), "t", &[0], 1, 2, AggOp::Count).unwrap();
        assert_eq!(
            r,
            AggRange {
                glb: Value::Int(2),
                lub: Value::Int(2)
            }
        );
        let r = range_aggregate_fd(db.catalog(), "t", &[0], 1, 2, AggOp::Sum).unwrap();
        assert_eq!(r.glb.as_f64(), Some(12.0));
        assert_eq!(r.lub.as_f64(), Some(12.0));
    }

    #[test]
    fn count_range_with_unequal_classes() {
        // key 1: class v=10 has two tuples, class v=11 has one.
        let db = db(&[(1, 10, 1), (1, 10, 2), (1, 11, 3), (2, 20, 4)]);
        let r = range_aggregate_fd(db.catalog(), "t", &[0], 1, 2, AggOp::Count).unwrap();
        assert_eq!(
            r,
            AggRange {
                glb: Value::Int(2),
                lub: Value::Int(3)
            }
        );
    }

    #[test]
    fn matches_naive_on_handcrafted_cases() {
        check_all_ops(&[(1, 10, 5), (1, 20, 9), (2, 30, 1)]);
        check_all_ops(&[
            (1, 10, 5),
            (1, 10, 6),
            (1, 20, -3),
            (2, 30, 0),
            (2, 31, 100),
        ]);
        check_all_ops(&[(1, 1, 1)]);
        check_all_ops(&[]);
        check_all_ops(&[(1, 1, -5), (1, 2, -9), (1, 3, 7)]);
    }

    #[test]
    fn matches_naive_on_seeded_random_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..25 {
            let n = rng.gen_range(0..10);
            let rows: Vec<(i64, i64, i64)> = (0..n)
                .map(|_| {
                    (
                        rng.gen_range(0..4),
                        rng.gen_range(0..3),
                        rng.gen_range(-10..10),
                    )
                })
                .collect();
            // Deduplicate (set semantics).
            let mut rows = rows;
            rows.sort_unstable();
            rows.dedup();
            check_all_ops(&rows);
        }
    }

    #[test]
    fn empty_relation_yields_null_minmax() {
        let db = db(&[]);
        let r = range_aggregate_fd(db.catalog(), "t", &[0], 1, 2, AggOp::Min).unwrap();
        assert_eq!(
            r,
            AggRange {
                glb: Value::Null,
                lub: Value::Null
            }
        );
        let r = range_aggregate_fd(db.catalog(), "t", &[0], 1, 2, AggOp::Count).unwrap();
        assert_eq!(
            r,
            AggRange {
                glb: Value::Int(0),
                lub: Value::Int(0)
            }
        );
    }
}
