//! Seeded synthetic workload generators for the experiments and examples.
//!
//! The demonstration's measurements parameterise two knobs: **relation
//! cardinality** and **conflict rate**. [`FdTableSpec`] generates a
//! relation with an FD `key → value` and a controlled fraction of
//! key-colliding, value-disagreeing tuple pairs; [`JoinWorkload`] builds
//! the two-relation join scenario; [`IntegrationWorkload`] mimics the data
//! integration motivation (two autonomous sources merged into one
//! relation, producing conflicts).

use crate::constraint::DenialConstraint;
use hippo_engine::{Column, DataType, Database, EngineError, TableSchema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Spec for a single relation `name(k INT, v INT, payload INT)` with an FD
/// `k → v` and a controlled number of conflicting pairs.
#[derive(Debug, Clone)]
pub struct FdTableSpec {
    /// Table name.
    pub name: String,
    /// Number of base tuples.
    pub rows: usize,
    /// Fraction of base tuples that receive a conflicting duplicate
    /// (0.0–1.0). Each conflict adds one extra tuple sharing `k` with a
    /// base tuple but carrying a different `v`.
    pub conflict_rate: f64,
    /// RNG seed (generation is fully deterministic given the spec).
    pub seed: u64,
}

impl FdTableSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, rows: usize, conflict_rate: f64, seed: u64) -> Self {
        FdTableSpec {
            name: name.into(),
            rows,
            conflict_rate,
            seed,
        }
    }

    /// The relation's FD constraint (`k → v`, i.e. column 0 → column 1).
    pub fn fd(&self) -> DenialConstraint {
        DenialConstraint::functional_dependency(self.name.clone(), &[0], 1)
    }

    /// Create the table and populate it; returns the number of rows
    /// inserted (base + conflicting extras).
    pub fn populate(&self, db: &mut Database) -> Result<usize, EngineError> {
        // `k` is declared as the (violated) primary key: the engine
        // auto-builds a hash index on key columns, which is what lets
        // the envelope's membership mark joins probe an index. Key
        // uniqueness is *not* enforced — conflicting pairs share a key,
        // exactly the paper's inconsistent-database setting.
        db.catalog_mut().create_table(TableSchema::new(
            self.name.clone(),
            vec![
                Column::new("k", DataType::Int),
                Column::new("v", DataType::Int),
                Column::new("payload", DataType::Int),
            ],
            &["k"],
        )?)?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut rows = Vec::with_capacity(self.rows + self.rows / 10);
        for i in 0..self.rows {
            let k = i as i64;
            let v = rng.gen_range(0..1_000_000);
            let payload = rng.gen_range(0..1_000);
            rows.push(vec![Value::Int(k), Value::Int(v), Value::Int(payload)]);
        }
        let n_conflicts = (self.rows as f64 * self.conflict_rate).round() as usize;
        for c in 0..n_conflicts {
            // Conflict with base tuple c: same key, different value.
            let base_v = match &rows[c][1] {
                Value::Int(v) => *v,
                _ => unreachable!(),
            };
            let v = base_v + 1 + rng.gen_range(0..1000);
            let payload = rng.gen_range(0..1_000);
            rows.push(vec![
                Value::Int(c as i64),
                Value::Int(v),
                Value::Int(payload),
            ]);
        }
        let n = rows.len();
        db.insert_rows(&self.name, rows)?;
        Ok(n)
    }
}

/// The two-relation join workload: `r(k, v, payload)` and `s(k, v,
/// payload)` with FDs on both, joinable on `k`.
#[derive(Debug, Clone)]
pub struct JoinWorkload {
    /// Spec for relation `r`.
    pub r: FdTableSpec,
    /// Spec for relation `s`.
    pub s: FdTableSpec,
}

impl JoinWorkload {
    /// Build with equal sizes and a common conflict rate.
    pub fn new(rows: usize, conflict_rate: f64, seed: u64) -> Self {
        JoinWorkload {
            r: FdTableSpec::new("r", rows, conflict_rate, seed),
            s: FdTableSpec::new("s", rows, conflict_rate, seed.wrapping_add(1)),
        }
    }

    /// Populate both relations; returns the Database.
    pub fn build(&self) -> Result<Database, EngineError> {
        let mut db = Database::new();
        self.r.populate(&mut db)?;
        self.s.populate(&mut db)?;
        Ok(db)
    }

    /// Both FD constraints.
    pub fn constraints(&self) -> Vec<DenialConstraint> {
        vec![self.r.fd(), self.s.fd()]
    }
}

/// Data-integration workload: two sources report `(account, balance)`
/// pairs; the integrated relation `ledger` holds the union, with an FD
/// `account → balance`. Overlapping accounts with disagreeing balances
/// produce conflicts — the paper's opening motivation.
#[derive(Debug, Clone)]
pub struct IntegrationWorkload {
    /// Accounts per source.
    pub accounts_per_source: usize,
    /// Fraction of accounts present in both sources (0.0–1.0).
    pub overlap: f64,
    /// Probability that an overlapping account disagrees between sources.
    pub disagreement: f64,
    /// RNG seed.
    pub seed: u64,
}

impl IntegrationWorkload {
    /// Build the integrated database: relation `ledger(account, balance,
    /// source)`.
    pub fn build(&self) -> Result<Database, EngineError> {
        let mut db = Database::new();
        db.catalog_mut().create_table(TableSchema::new(
            "ledger",
            vec![
                Column::new("account", DataType::Int),
                Column::new("balance", DataType::Int),
                Column::new("source", DataType::Int),
            ],
            &[],
        )?)?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n = self.accounts_per_source;
        let n_overlap = (n as f64 * self.overlap).round() as usize;
        let mut rows = Vec::new();
        // Source 1: accounts 0..n
        let mut balances = Vec::with_capacity(n);
        for acct in 0..n {
            let b = rng.gen_range(0..100_000);
            balances.push(b);
            rows.push(vec![Value::Int(acct as i64), Value::Int(b), Value::Int(1)]);
        }
        // Source 2: overlapping accounts 0..n_overlap plus fresh n..(2n - n_overlap)
        for (acct, &balance) in balances.iter().enumerate().take(n_overlap) {
            let disagree = rng.gen_bool(self.disagreement);
            let b = if disagree {
                balance + 1 + rng.gen_range(0..10_000)
            } else {
                balance
            };
            rows.push(vec![Value::Int(acct as i64), Value::Int(b), Value::Int(2)]);
        }
        for acct in n..(2 * n - n_overlap) {
            let b = rng.gen_range(0..100_000);
            rows.push(vec![Value::Int(acct as i64), Value::Int(b), Value::Int(2)]);
        }
        db.insert_rows("ledger", rows)?;
        Ok(db)
    }

    /// The integration constraint: one balance per account.
    pub fn constraint(&self) -> DenialConstraint {
        DenialConstraint::functional_dependency("ledger", &[0], 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::detect_conflicts;

    #[test]
    fn fd_table_row_counts() {
        let spec = FdTableSpec::new("t", 100, 0.1, 42);
        let mut db = Database::new();
        let n = spec.populate(&mut db).unwrap();
        assert_eq!(n, 110);
        assert_eq!(db.catalog().table("t").unwrap().len(), 110);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = FdTableSpec::new("t", 50, 0.2, 7);
        let mut db1 = Database::new();
        let mut db2 = Database::new();
        spec.populate(&mut db1).unwrap();
        spec.populate(&mut db2).unwrap();
        assert_eq!(
            db1.catalog().table("t").unwrap().rows(),
            db2.catalog().table("t").unwrap().rows()
        );
    }

    #[test]
    fn conflict_rate_translates_to_edges() {
        let spec = FdTableSpec::new("t", 200, 0.05, 3);
        let mut db = Database::new();
        spec.populate(&mut db).unwrap();
        let (g, _) = detect_conflicts(db.catalog(), &[spec.fd()]).unwrap();
        assert_eq!(
            g.edge_count(),
            10,
            "each conflicting extra pairs with exactly one base row"
        );
        assert_eq!(g.conflicting_vertex_count(), 20);
    }

    #[test]
    fn zero_conflict_rate_is_consistent() {
        let spec = FdTableSpec::new("t", 100, 0.0, 5);
        let mut db = Database::new();
        spec.populate(&mut db).unwrap();
        let (g, _) = detect_conflicts(db.catalog(), &[spec.fd()]).unwrap();
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn join_workload_builds_both_tables() {
        let w = JoinWorkload::new(50, 0.1, 11);
        let db = w.build().unwrap();
        assert!(db.catalog().contains("r"));
        assert!(db.catalog().contains("s"));
        assert_eq!(w.constraints().len(), 2);
    }

    #[test]
    fn integration_workload_overlap_conflicts() {
        let w = IntegrationWorkload {
            accounts_per_source: 100,
            overlap: 0.5,
            disagreement: 1.0,
            seed: 9,
        };
        let db = w.build().unwrap();
        let (g, _) = detect_conflicts(db.catalog(), &[w.constraint()]).unwrap();
        assert_eq!(g.edge_count(), 50, "all overlapping accounts disagree");
        let w2 = IntegrationWorkload {
            disagreement: 0.0,
            ..w
        };
        let db2 = w2.build().unwrap();
        let (g2, _) = detect_conflicts(db2.catalog(), &[w2.constraint()]).unwrap();
        assert_eq!(g2.edge_count(), 0, "agreeing sources are consistent");
    }
}
