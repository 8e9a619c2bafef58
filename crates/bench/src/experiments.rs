//! The paper-reproduction tables: one function per table (D1–D2, E1–E7;
//! the root README.md says what each reproduces and where every other
//! number in the repository comes from).
//!
//! Each experiment returns a [`Table`] — a header plus rows of cells —
//! which the `harness` binary prints. All workloads are seeded;
//! re-running reproduces identical inputs.

use hippo_cqa::detect::detect_conflicts;
use hippo_cqa::naive::{conflict_free_answers, naive_consistent_answers, plain_answers};
use hippo_cqa::prelude::*;
use hippo_engine::{Database, Value};
use std::time::{Duration, Instant};

/// A printable result table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id, e.g. "E1".
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (shape expectations, caveats).
    pub notes: Vec<String>,
}

impl Table {
    fn new(id: &'static str, title: impl Into<String>, header: &[&str]) -> Table {
        Table {
            id,
            title: title.into(),
            header: header.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut all = vec![self.header.clone()];
        all.extend(self.rows.clone());
        let cols = self.header.len();
        let widths: Vec<usize> = (0..cols)
            .map(|c| {
                all.iter()
                    .map(|r| r.get(c).map(String::len).unwrap_or(0))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let mut out = format!("## {} — {}\n\n", self.id, self.title);
        let fmt_row = |r: &[String]| {
            r.iter()
                .enumerate()
                .map(|(c, cell)| format!("{cell:>width$}", width = widths[c]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }
}

fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// The standard selection-over-join query used by E1/E2:
/// `σ(r.k = s.k ∧ r.payload ≥ p)(r × s)`.
fn join_query(payload_min: i64) -> SjudQuery {
    SjudQuery::rel("r")
        .product(SjudQuery::rel("s"))
        .select(Pred::cmp_cols(0, CmpOp::Eq, 3).and(Pred::cmp_const(2, CmpOp::Ge, payload_min)))
}

/// One measured row comparing the strategies on a join workload.
struct StrategyTimes {
    plain_sql: Duration,
    rewriting: Option<Duration>,
    hippo_base: Duration,
    hippo_kg: Duration,
    hippo_full: Duration,
    answers: usize,
}

fn measure_strategies(
    workload: &JoinWorkload,
    q: &SjudQuery,
) -> Result<StrategyTimes, Box<dyn std::error::Error>> {
    // Plain SQL evaluation of the query itself (ignore inconsistency).
    let db = workload.build()?;
    let sql = q.to_sql(db.catalog())?;
    let t = Instant::now();
    let _plain = db.query(&sql)?;
    let plain_sql = t.elapsed();

    // Query rewriting.
    let rewriting = match rewritten_answers(q, &workload.constraints(), &db) {
        Ok(_rows) => {
            let t = Instant::now();
            let _ = rewritten_answers(q, &workload.constraints(), &db)?;
            Some(t.elapsed())
        }
        Err(RewriteError::Unsupported(_)) => None,
        Err(e) => return Err(Box::new(e)),
    };

    // Hippo at three optimization levels (conflict detection excluded: it
    // is a once-per-instance cost, reported separately in E4).
    let run = |opts: HippoOptions| -> Result<(Duration, usize), Box<dyn std::error::Error>> {
        let hippo = Hippo::with_options(workload.build()?, workload.constraints(), opts)?;
        let t = Instant::now();
        let answers = hippo.consistent_answers(q)?;
        Ok((t.elapsed(), answers.len()))
    };
    let (hippo_base, _) = run(HippoOptions::base())?;
    let (hippo_kg, _) = run(HippoOptions::kg())?;
    let (hippo_full, n) = run(HippoOptions::full())?;

    Ok(StrategyTimes {
        plain_sql,
        rewriting,
        hippo_base,
        hippo_kg,
        hippo_full,
        answers: n,
    })
}

/// D1 — information extracted: CQA vs conflict-free strawman vs plain SQL,
/// varying conflict rate.
///
/// Workload: sensor-style readings with an FD `k → v` plus a CHECK denial
/// banning out-of-range values. Each conflict is a corrupted retransmission
/// whose value is *also* impossible — so the corrupted copy is in **no**
/// repair and the clean copy is in **every** repair. CQA proves the clean
/// copies consistent; the "delete everything that conflicts" strawman
/// throws both copies away. The gain column counts the rescued tuples.
pub fn d1_information(quick: bool) -> Result<Table, Box<dyn std::error::Error>> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut t = Table::new(
        "D1",
        "information extracted: consistent answers vs deleting conflicting tuples",
        &[
            "conflict%",
            "rows",
            "plain",
            "conflict-free",
            "consistent(CQA)",
            "CQA-gain",
        ],
    );
    let base_rows = if quick { 400 } else { 2000 };
    for rate in [0.0, 0.02, 0.05, 0.10, 0.20] {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (k INT, v INT, payload INT)")?;
        let mut rng = StdRng::seed_from_u64(11);
        let mut rows = Vec::new();
        for i in 0..base_rows {
            rows.push(vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range(0..1000)),
                Value::Int(rng.gen_range(0..1000)),
            ]);
        }
        let n_conflicts = (base_rows as f64 * rate).round() as usize;
        for c in 0..n_conflicts {
            // Corrupted duplicate: same key, impossible value (≥ 5000).
            rows.push(vec![
                Value::Int(c as i64),
                Value::Int(5000 + rng.gen_range(0..1000)),
                Value::Int(rng.gen_range(0..1000)),
            ]);
        }
        db.insert_rows("t", rows)?;
        let constraints = vec![
            DenialConstraint::functional_dependency("t", &[0], 1),
            DenialConstraint::check(
                "t",
                vec![Comparison {
                    op: CmpOp::Ge,
                    left: Term::Attr(AttrRef { atom: 0, col: 1 }),
                    right: Term::Const(Value::Int(5000)),
                }],
            ),
        ];
        let (g, _) = detect_conflicts(db.catalog(), &constraints)?;
        // Query: the physically valid readings.
        let q = SjudQuery::rel("t").select(Pred::cmp_const(1, CmpOp::Lt, 1000i64));
        let plain = plain_answers(&q, db.catalog()).len();
        let straw = conflict_free_answers(&q, db.catalog(), &g).len();
        let total_rows = db.catalog().table("t")?.len();
        let hippo = Hippo::new(db, constraints)?;
        let cqa = hippo.consistent_answers(&q)?.len();
        let gain = cqa as i64 - straw as i64;
        t.rows.push(vec![
            format!("{:.0}%", rate * 100.0),
            total_rows.to_string(),
            plain.to_string(),
            straw.to_string(),
            cqa.to_string(),
            format!("{gain:+}"),
        ]);
    }
    t.notes.push(
        "every conflicting pair consists of a clean copy (in every repair: its corrupted \
         partner is impossible, hence in no repair) and a corrupted copy; CQA rescues all \
         clean copies, the strawman deletes them — the gain equals the conflict count"
            .into(),
    );
    Ok(t)
}

/// D2 — expressiveness matrix: which (query class, constraint class)
/// combinations each approach supports, with agreement checks vs ground
/// truth where both run.
pub fn d2_expressiveness() -> Result<Table, Box<dyn std::error::Error>> {
    let mut t = Table::new(
        "D2",
        "expressiveness: Hippo vs query rewriting (✓ = supported & matches ground truth)",
        &["query class", "constraints", "Hippo", "rewriting"],
    );

    let fresh_db = || -> Result<Database, Box<dyn std::error::Error>> {
        let mut d = Database::new();
        d.execute("CREATE TABLE a (x INT, y INT)")?;
        d.execute("CREATE TABLE b (x INT, y INT)")?;
        d.execute("INSERT INTO a VALUES (1,1), (1,2), (2,1), (3,5), (3,6), (3,7)")?;
        d.execute("INSERT INTO b VALUES (1,1), (2,9), (4,4)")?;
        Ok(d)
    };
    let db = fresh_db()?;

    let fd = DenialConstraint::functional_dependency("a", &[0], 1);
    let excl = DenialConstraint::exclusion("a", "b", &[(0, 0)]);
    let ternary = DenialConstraint::new(
        "ternary",
        vec!["a".into(), "a".into(), "a".into()],
        vec![
            Comparison::attr_eq(AttrRef { atom: 0, col: 0 }, AttrRef { atom: 1, col: 0 }),
            Comparison::attr_eq(AttrRef { atom: 1, col: 0 }, AttrRef { atom: 2, col: 0 }),
            Comparison {
                op: CmpOp::Lt,
                left: Term::Attr(AttrRef { atom: 0, col: 1 }),
                right: Term::Attr(AttrRef { atom: 1, col: 1 }),
            },
            Comparison {
                op: CmpOp::Lt,
                left: Term::Attr(AttrRef { atom: 1, col: 1 }),
                right: Term::Attr(AttrRef { atom: 2, col: 1 }),
            },
        ],
    );

    let s_query = SjudQuery::rel("a").select(Pred::cmp_const(1, CmpOp::Ge, 1i64));
    let sj_query = SjudQuery::rel("a")
        .product(SjudQuery::rel("b"))
        .select(Pred::cmp_cols(0, CmpOp::Eq, 2));
    let sud_query = SjudQuery::rel("a")
        .select(Pred::cmp_const(1, CmpOp::Le, 2i64))
        .union(SjudQuery::rel("b"))
        .diff(SjudQuery::rel("b").select(Pred::cmp_const(1, CmpOp::Gt, 5i64)));
    let sd_query =
        SjudQuery::rel("a").diff(SjudQuery::rel("b").select(Pred::cmp_const(1, CmpOp::Lt, 5i64)));

    let cases: Vec<(&str, SjudQuery, &str, Vec<DenialConstraint>)> = vec![
        ("S", s_query.clone(), "FD", vec![fd.clone()]),
        ("SJ", sj_query.clone(), "FD", vec![fd.clone()]),
        ("SD", sd_query.clone(), "FD", vec![fd.clone()]),
        ("SUD", sud_query.clone(), "FD", vec![fd.clone()]),
        (
            "S",
            s_query.clone(),
            "FD+exclusion",
            vec![fd.clone(), excl.clone()],
        ),
        ("S", s_query, "ternary denial", vec![ternary.clone()]),
        ("SJ", sj_query, "ternary denial", vec![ternary]),
    ];

    for (qclass, q, cclass, constraints) in cases {
        let (g, _) = detect_conflicts(db.catalog(), &constraints)?;
        let truth = naive_consistent_answers(&q, db.catalog(), &g);

        let hippo = Hippo::new(fresh_db()?, constraints.clone())?;
        let hippo_cell = if hippo.consistent_answers(&q)? == truth {
            "✓"
        } else {
            "✗ WRONG"
        };

        let rw_cell = match rewritten_answers(&q, &constraints, &db) {
            Ok(rows) => {
                if rows == truth {
                    "✓"
                } else {
                    "✗ WRONG"
                }
            }
            Err(RewriteError::Unsupported(_)) => "n/a",
            Err(_) => "error",
        };
        t.rows.push(vec![
            qclass.to_string(),
            cclass.to_string(),
            hippo_cell.to_string(),
            rw_cell.to_string(),
        ]);
    }
    t.notes.push(
        "rewriting is n/a for unions and for non-binary constraints — the gap the demo \
         highlights; Hippo covers the full SJUD class under arbitrary denial constraints"
            .into(),
    );
    Ok(t)
}

/// E1 — running time vs database size (join query, 2% conflicts).
pub fn e1_scaling(quick: bool) -> Result<Table, Box<dyn std::error::Error>> {
    let mut t = Table::new(
        "E1",
        "running time vs relation size (σ+join query, 2% conflicts; ms)",
        &[
            "|r|=|s|",
            "plain SQL",
            "rewriting",
            "Hippo base",
            "Hippo+KG",
            "Hippo full",
            "answers",
        ],
    );
    let sizes: &[usize] = if quick {
        &[500, 1000, 2000]
    } else {
        &[1000, 2000, 4000, 8000, 16000]
    };
    for &n in sizes {
        let w = JoinWorkload::new(n, 0.02, 77);
        let q = join_query(500);
        let m = measure_strategies(&w, &q)?;
        t.rows.push(vec![
            n.to_string(),
            ms(m.plain_sql),
            m.rewriting.map(ms).unwrap_or_else(|| "n/a".into()),
            ms(m.hippo_base),
            ms(m.hippo_kg),
            ms(m.hippo_full),
            m.answers.to_string(),
        ]);
    }
    t.notes.push(
        "expected shape: Hippo tracks plain SQL within a small constant factor; \
         rewriting's correlated NOT EXISTS residues grow faster on joins"
            .into(),
    );
    Ok(t)
}

/// E2 — running time vs conflict percentage at fixed size.
pub fn e2_conflicts(quick: bool) -> Result<Table, Box<dyn std::error::Error>> {
    let n = if quick { 1000 } else { 8000 };
    let mut t = Table::new(
        "E2",
        format!("running time vs conflict rate (|r|=|s|={n}; ms)"),
        &[
            "conflict%",
            "plain SQL",
            "rewriting",
            "Hippo base",
            "Hippo+KG",
            "Hippo full",
            "answers",
        ],
    );
    for rate in [0.0, 0.01, 0.02, 0.05, 0.10] {
        let w = JoinWorkload::new(n, rate, 78);
        let q = join_query(500);
        let m = measure_strategies(&w, &q)?;
        t.rows.push(vec![
            format!("{:.0}%", rate * 100.0),
            ms(m.plain_sql),
            m.rewriting.map(ms).unwrap_or_else(|| "n/a".into()),
            ms(m.hippo_base),
            ms(m.hippo_kg),
            ms(m.hippo_full),
            m.answers.to_string(),
        ]);
    }
    t.notes.push(
        "Hippo's cost is driven by envelope size, not conflict count: only conflicting \
         candidates reach the prover, so times stay nearly flat as conflicts grow"
            .into(),
    );
    Ok(t)
}

/// E3 — running time by query class (S, SJ, SUD, SJUD).
pub fn e3_query_classes(quick: bool) -> Result<Table, Box<dyn std::error::Error>> {
    let n = if quick { 1000 } else { 8000 };
    let mut t = Table::new(
        "E3",
        format!("running time by query class (|r|=|s|={n}, 2% conflicts; ms)"),
        &["class", "plain SQL", "rewriting", "Hippo full", "answers"],
    );
    let w = JoinWorkload::new(n, 0.02, 79);

    let s_q = SjudQuery::rel("r").select(Pred::cmp_const(2, CmpOp::Ge, 500i64));
    let sj_q = join_query(500);
    let sud_q = SjudQuery::rel("r")
        .select(Pred::cmp_const(2, CmpOp::Ge, 800i64))
        .union(SjudQuery::rel("s").select(Pred::cmp_const(2, CmpOp::Lt, 100i64)))
        .diff(SjudQuery::rel("r").select(Pred::cmp_const(1, CmpOp::Lt, 1000i64)));
    let sjud_q =
        SjudQuery::rel("r")
            .product(SjudQuery::rel("s"))
            .select(Pred::cmp_cols(0, CmpOp::Eq, 3).and(Pred::cmp_const(2, CmpOp::Ge, 800i64)))
            .diff(SjudQuery::rel("r").product(SjudQuery::rel("s")).select(
                Pred::cmp_cols(0, CmpOp::Eq, 3).and(Pred::cmp_const(5, CmpOp::Lt, 100i64)),
            ));

    for (class, q) in [("S", s_q), ("SJ", sj_q), ("SUD", sud_q), ("SJUD", sjud_q)] {
        let db = w.build()?;
        let sql = q.to_sql(db.catalog())?;
        let t0 = Instant::now();
        let _ = db.query(&sql)?;
        let plain = t0.elapsed();

        let rw = match rewritten_answers(&q, &w.constraints(), &db) {
            Ok(_) => {
                let t0 = Instant::now();
                let _ = rewritten_answers(&q, &w.constraints(), &db)?;
                Some(t0.elapsed())
            }
            Err(RewriteError::Unsupported(_)) => None,
            Err(e) => return Err(Box::new(e)),
        };

        let hippo = Hippo::with_options(w.build()?, w.constraints(), HippoOptions::full())?;
        let t0 = Instant::now();
        let answers = hippo.consistent_answers(&q)?;
        let full = t0.elapsed();

        t.rows.push(vec![
            class.to_string(),
            ms(plain),
            rw.map(ms).unwrap_or_else(|| "n/a".into()),
            ms(full),
            answers.len().to_string(),
        ]);
    }
    t.notes
        .push("rewriting cannot run the union classes at all (n/a)".into());
    Ok(t)
}

/// E4 — conflict detection / hypergraph construction time vs size.
pub fn e4_detection(quick: bool) -> Result<Table, Box<dyn std::error::Error>> {
    let mut t = Table::new(
        "E4",
        "conflict detection and hypergraph size vs relation size (2% conflicts)",
        &[
            "rows",
            "detect ms",
            "edges",
            "conflicting tuples",
            "combinations checked",
        ],
    );
    let sizes: &[usize] = if quick {
        &[1000, 4000, 16000]
    } else {
        &[1000, 4000, 16000, 64000, 128000]
    };
    for &n in sizes {
        let spec = FdTableSpec::new("t", n, 0.02, 80);
        let mut db = Database::new();
        spec.populate(&mut db)?;
        let (g, stats) = detect_conflicts(db.catalog(), &[spec.fd()])?;
        t.rows.push(vec![
            db.catalog().table("t")?.len().to_string(),
            ms(stats.elapsed),
            g.edge_count().to_string(),
            g.conflicting_vertex_count().to_string(),
            stats.combinations_checked.to_string(),
        ]);
    }
    t.notes
        .push("FD fast path: one hash pass, near-linear scaling".into());
    Ok(t)
}

/// E5 — ablation: membership checks and time across optimization levels.
pub fn e5_ablation(quick: bool) -> Result<Table, Box<dyn std::error::Error>> {
    let n = if quick { 1000 } else { 8000 };
    let mut t = Table::new(
        "E5",
        format!("optimization ablation on a difference query (|t|={n}, 5% conflicts)"),
        &[
            "variant",
            "time ms",
            "DB membership queries",
            "prover calls",
            "filtered",
            "answers",
        ],
    );
    let spec = FdTableSpec::new("t", n, 0.05, 81);
    let constraints = vec![spec.fd()];
    let q =
        SjudQuery::rel("t").diff(SjudQuery::rel("t").select(Pred::cmp_const(2, CmpOp::Ge, 900i64)));
    for (label, opts) in [
        ("base", HippoOptions::base()),
        ("+KG", HippoOptions::kg()),
        ("+KG +core-filter", HippoOptions::full()),
    ] {
        let mut db = Database::new();
        spec.populate(&mut db)?;
        let hippo = Hippo::with_options(db, constraints.clone(), opts)?;
        let t0 = Instant::now();
        let (answers, stats) = hippo.consistent_answers_with_stats(&q)?;
        let elapsed = t0.elapsed();
        t.rows.push(vec![
            label.to_string(),
            ms(elapsed),
            stats.membership_queries.to_string(),
            stats.prover_calls.to_string(),
            stats.filtered_consistent.to_string(),
            answers.len().to_string(),
        ]);
    }
    t.notes.push(
        "KG eliminates every per-tuple membership query; the core filter removes \
         prover calls for non-conflicting candidates"
            .into(),
    );
    Ok(t)
}

/// E6 — envelope tightness: candidates vs consistent answers vs filter.
pub fn e6_envelope(quick: bool) -> Result<Table, Box<dyn std::error::Error>> {
    let n = if quick { 1000 } else { 8000 };
    let mut t = Table::new(
        "E6",
        format!("envelope tightness vs conflict rate (|t|={n}, difference query)"),
        &[
            "conflict%",
            "candidates",
            "core-filtered",
            "prover calls",
            "consistent",
        ],
    );
    for rate in [0.0, 0.02, 0.05, 0.10, 0.20] {
        let spec = FdTableSpec::new("t", n, rate, 82);
        let mut db = Database::new();
        spec.populate(&mut db)?;
        let constraints = vec![spec.fd()];
        let q = SjudQuery::rel("t").diff(SjudQuery::rel("t").select(Pred::cmp_const(
            2,
            CmpOp::Ge,
            900i64,
        )));
        let hippo = Hippo::with_options(db, constraints, HippoOptions::full())?;
        let (answers, stats) = hippo.consistent_answers_with_stats(&q)?;
        t.rows.push(vec![
            format!("{:.0}%", rate * 100.0),
            stats.candidates.to_string(),
            stats.filtered_consistent.to_string(),
            stats.prover_calls.to_string(),
            answers.len().to_string(),
        ]);
    }
    t.notes
        .push("prover work grows only with the number of conflicting candidates".into());
    Ok(t)
}

/// E7 — why not repairs: repair count and naive CQA time vs number of
/// conflicts (exponential), against Hippo (polynomial).
pub fn e7_repair_blowup(quick: bool) -> Result<Table, Box<dyn std::error::Error>> {
    let mut t = Table::new(
        "E7",
        "repair enumeration blow-up vs Hippo (3 copies per conflicting key → 3^k repairs)",
        &["conflicts", "repairs", "naive ms", "Hippo full ms", "agree"],
    );
    let counts: &[usize] = if quick {
        &[2, 4, 6, 8]
    } else {
        &[2, 4, 6, 8, 10, 12]
    };
    for &k in counts {
        // k independent FD conflicts of 3 tuples each: 3^k repairs.
        let mut db = Database::new();
        db.execute("CREATE TABLE t (k INT, v INT, payload INT)")?;
        let mut rows = Vec::new();
        for i in 0..k {
            for copy in 0..3 {
                rows.push(vec![
                    Value::Int(i as i64),
                    Value::Int(copy as i64),
                    Value::Int((i * 3 + copy) as i64),
                ]);
            }
        }
        db.insert_rows("t", rows)?;
        let constraints = vec![DenialConstraint::functional_dependency("t", &[0], 1)];
        let (g, _) = detect_conflicts(db.catalog(), &constraints)?;
        let q = SjudQuery::rel("t").diff(SjudQuery::rel("t").select(Pred::cmp_const(
            1,
            CmpOp::Ge,
            2i64,
        )));

        let t0 = Instant::now();
        let repairs = enumerate_repairs(&g, None).len();
        let truth = naive_consistent_answers(&q, db.catalog(), &g);
        let naive_time = t0.elapsed();

        let hippo = Hippo::with_options(db, constraints, HippoOptions::full())?;
        let t0 = Instant::now();
        let answers = hippo.consistent_answers(&q)?;
        let hippo_time = t0.elapsed();

        t.rows.push(vec![
            k.to_string(),
            repairs.to_string(),
            ms(naive_time),
            ms(hippo_time),
            (answers == truth).to_string(),
        ]);
    }
    t.notes.push(
        "repairs grow as 3^conflicts (the exponential the LP-based comparators pay); \
         Hippo's time stays flat — the paper's headline claim"
            .into(),
    );
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d2_matrix_has_no_wrong_cells() {
        let t = d2_expressiveness().unwrap();
        for row in &t.rows {
            assert_ne!(row[2], "✗ WRONG", "{row:?}");
            assert_ne!(row[3], "✗ WRONG", "{row:?}");
        }
        // rewriting must be n/a for the union row and ternary rows
        let sud = t.rows.iter().find(|r| r[0] == "SUD").unwrap();
        assert_eq!(sud[3], "n/a");
        let tern = t.rows.iter().find(|r| r[1] == "ternary denial").unwrap();
        assert_eq!(tern[3], "n/a");
    }

    #[test]
    fn e7_hippo_agrees_with_naive_everywhere() {
        let t = e7_repair_blowup(true).unwrap();
        for row in &t.rows {
            assert_eq!(row[4], "true", "{row:?}");
        }
        // Repair counts are 3^k.
        assert_eq!(t.rows[0][1], "9");
        assert_eq!(t.rows[1][1], "81");
    }

    #[test]
    fn e5_kg_kills_membership_queries() {
        let t = e5_ablation(true).unwrap();
        let base = &t.rows[0];
        let kg = &t.rows[1];
        assert!(base[2].parse::<usize>().unwrap() > 0);
        assert_eq!(kg[2], "0");
        // Answers identical across variants.
        assert_eq!(base[5], kg[5]);
        assert_eq!(kg[5], t.rows[2][5]);
    }

    #[test]
    fn e6_candidate_counts_consistent() {
        let t = e6_envelope(true).unwrap();
        for row in &t.rows {
            let candidates: usize = row[1].parse().unwrap();
            let filtered: usize = row[2].parse().unwrap();
            let prover: usize = row[3].parse().unwrap();
            let consistent: usize = row[4].parse().unwrap();
            assert_eq!(filtered + prover, candidates, "{row:?}");
            assert!(consistent <= candidates);
            assert!(filtered <= consistent);
        }
    }

    #[test]
    fn table_renders() {
        let t = d1_information(true).unwrap();
        let s = t.render();
        assert!(s.contains("D1"));
        assert!(s.lines().count() > 5);
    }
}
