//! Seeded input generator and the oracle.
//!
//! Nothing here calls into the program: the generator keeps its own model
//! (table → key → live tuples) and derives every expected answer in closed
//! form. Both relations are `(k, v, payload)` with the FD `k → v`, and every
//! tuple of a table carries a distinct `v`, so two tuples conflict iff they
//! share a key. A tuple is then in every repair iff its key is unshared
//! ("clean"), and because the queries project nothing away, an output row is
//! a consistent answer iff the tuples that produce it are clean — with the
//! two refinements spelled out at [`Query::expected`] for rows that occur in
//! both relations.

pub const TABLES: [&str; 2] = ["r", "s"];
/// Payloads are uniform in `0..PAYLOADS`; query constants are cut-offs on it.
pub const PAYLOADS: i64 = 1000;
/// Width of the band the union-difference query keeps (see [`Query`]).
const UD_BAND: i64 = 100;

/// SplitMix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is < 2^-40 at our sizes.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn payload(&mut self) -> i64 {
        self.below(PAYLOADS as usize) as i64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of one row given as integers, position-sensitive.
pub fn row_hash(vals: impl IntoIterator<Item = i64>) -> u64 {
    vals.into_iter()
        .fold(0x1234_5678_9ABC_DEF0, |h, v| mix(h ^ mix(v as u64)))
}

/// A result set reduced to what the oracle compares: row count plus an
/// order-independent 64-bit hash (wrapping sum of row hashes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Answer {
    pub rows: u64,
    pub hash: u64,
}

impl Answer {
    pub fn add(&mut self, vals: impl IntoIterator<Item = i64>) {
        self.rows += 1;
        self.hash = self.hash.wrapping_add(row_hash(vals));
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tuple {
    /// The program's tuple id (learned from it, never guessed).
    pub tid: u32,
    pub v: i64,
    pub payload: i64,
}

/// Shape of one dataset; both tables get the same shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub keys: usize,
    /// Share of keys whose cluster has more than one tuple.
    pub conflict_frac: f64,
    /// Inclusive range of a conflicting cluster's size.
    pub cluster: (usize, usize),
}

/// Share of keys whose base `s` tuple is an exact copy of the `r` one, so
/// that `r − s` and the union have rows present in both relations.
const COPY_FRAC: f64 = 0.10;

impl Spec {
    pub fn clean(keys: usize) -> Spec {
        Spec {
            name: "clean",
            keys,
            conflict_frac: 0.02,
            cluster: (2, 2),
        }
    }

    pub fn dirty(keys: usize) -> Spec {
        Spec {
            name: "dirty",
            keys,
            conflict_frac: 0.30,
            cluster: (2, 6),
        }
    }
}

/// One table of the model: `clusters[k]` holds the live tuples with key `k`.
#[derive(Debug, Clone, Default)]
pub struct Table {
    pub clusters: Vec<Vec<Tuple>>,
}

impl Table {
    pub fn rows(&self) -> usize {
        self.clusters.iter().map(Vec::len).sum()
    }

    /// Conflict edges under `k → v` with distinct `v`s: every pair in a cluster.
    pub fn edges(&self) -> usize {
        self.clusters
            .iter()
            .map(|c| c.len() * c.len().saturating_sub(1) / 2)
            .sum()
    }

    /// Count + hash over `(tid, k, v, payload)`: what the program's table must
    /// equal after recovery and on the replica.
    pub fn contents(&self) -> Answer {
        let mut a = Answer::default();
        for (k, c) in self.clusters.iter().enumerate() {
            for t in c {
                a.add([t.tid as i64, k as i64, t.v, t.payload]);
            }
        }
        a
    }
}

#[derive(Debug, Clone)]
pub struct Model {
    pub tables: [Table; 2],
    next_v: i64,
}

/// One single-row mutation, in the generator's own terms.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Insert {
        table: usize,
        k: usize,
        v: i64,
        payload: i64,
    },
    Update {
        table: usize,
        k: usize,
        tid: u32,
        v: i64,
        payload: i64,
    },
    Delete {
        table: usize,
        k: usize,
        tid: u32,
    },
}

impl Op {
    pub fn table(&self) -> usize {
        match *self {
            Op::Insert { table, .. } | Op::Update { table, .. } | Op::Delete { table, .. } => table,
        }
    }

    pub fn key(&self) -> usize {
        match *self {
            Op::Insert { k, .. } | Op::Update { k, .. } | Op::Delete { k, .. } => k,
        }
    }
}

impl Model {
    /// Generate both tables. Returns the model (tuple ids still unknown, set
    /// to `u32::MAX`) and, per table, the rows in load order.
    pub fn generate(spec: &Spec, rng: &mut Rng) -> (Model, [Vec<[i64; 3]>; 2]) {
        let mut model = Model {
            tables: [Table::default(), Table::default()],
            next_v: 1,
        };
        let mut rows: [Vec<[i64; 3]>; 2] = [Vec::new(), Vec::new()];
        let n_conflict = (spec.keys as f64 * spec.conflict_frac).round() as usize;
        let n_copy = (spec.keys as f64 * COPY_FRAC).round() as usize;
        for (table, table_rows) in rows.iter_mut().enumerate() {
            // Exactly `n_conflict` keys conflict: a partial Fisher–Yates pick.
            let mut order: Vec<usize> = (0..spec.keys).collect();
            let mut size = vec![1usize; spec.keys];
            for i in 0..n_conflict {
                let j = i + rng.below(spec.keys - i);
                order.swap(i, j);
                size[order[i]] = spec.cluster.0 + rng.below(spec.cluster.1 - spec.cluster.0 + 1);
            }
            let mut clusters = Vec::with_capacity(spec.keys);
            for (k, &n) in size.iter().enumerate() {
                let mut cluster = Vec::with_capacity(n);
                for i in 0..n {
                    // Keys `0..n_copy` of `s` start with a copy of r's base tuple.
                    let copied = table == 1 && i == 0 && k < n_copy;
                    let (v, payload) = if copied {
                        let t = model.tables[0].clusters[k][0];
                        (t.v, t.payload)
                    } else {
                        (model.fresh_v(), rng.payload())
                    };
                    table_rows.push([k as i64, v, payload]);
                    cluster.push(Tuple {
                        tid: u32::MAX,
                        v,
                        payload,
                    });
                }
                clusters.push(cluster);
            }
            model.tables[table].clusters = clusters;
        }
        (model, rows)
    }

    fn fresh_v(&mut self) -> i64 {
        self.next_v += 1;
        self.next_v
    }

    /// The next single-row write: 60 % insert under a fresh key, 20 % insert
    /// a conflicting duplicate, 10 % update, 10 % delete. `taken` lists the
    /// (table, key) pairs other transactions of the same commit group already
    /// touch; the op avoids them so a group can be generated before any of it
    /// is applied.
    pub fn next_op(&mut self, rng: &mut Rng, taken: &[(usize, usize)]) -> Op {
        let table = rng.below(2);
        let kind = rng.below(10);
        if kind < 6 {
            // Fresh keys are handed out past the end, skipping reserved ones.
            let mut k = self.tables[table].clusters.len();
            while taken.contains(&(table, k)) {
                k += 1;
            }
            return Op::Insert {
                table,
                k,
                v: self.fresh_v(),
                payload: rng.payload(),
            };
        }
        // The other kinds need a live key; a handful of deletes cannot empty
        // the table, so this terminates.
        let (k, pick) = loop {
            let k = rng.below(self.tables[table].clusters.len());
            let cluster = &self.tables[table].clusters[k];
            if !cluster.is_empty() && !taken.contains(&(table, k)) {
                break (k, cluster[rng.below(cluster.len())]);
            }
        };
        match kind {
            6 | 7 => Op::Insert {
                table,
                k,
                v: self.fresh_v(),
                payload: rng.payload(),
            },
            8 => Op::Update {
                table,
                k,
                tid: pick.tid,
                v: self.fresh_v(),
                payload: rng.payload(),
            },
            _ => Op::Delete {
                table,
                k,
                tid: pick.tid,
            },
        }
    }

    /// Fold an acknowledged write into the model. `inserted` is the tuple id
    /// the program reported for an insert.
    pub fn apply(&mut self, op: &Op, inserted: Option<u32>) {
        match *op {
            Op::Insert {
                table,
                k,
                v,
                payload,
            } => {
                let clusters = &mut self.tables[table].clusters;
                if clusters.len() <= k {
                    clusters.resize(k + 1, Vec::new());
                }
                clusters[k].push(Tuple {
                    tid: inserted.expect("an acknowledged insert reports its tuple id"),
                    v,
                    payload,
                });
            }
            Op::Update {
                table,
                k,
                tid,
                v,
                payload,
            } => {
                let t = self.tables[table].clusters[k]
                    .iter_mut()
                    .find(|t| t.tid == tid)
                    .expect("updates target a live tuple");
                t.v = v;
                t.payload = payload;
            }
            Op::Delete { table, k, tid } => {
                self.tables[table].clusters[k].retain(|t| t.tid != tid);
            }
        }
    }
}

/// The query classes the workloads issue, each with one integer constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// `σ_{r.k = s.k ∧ r.payload ≥ c}(r × s)`
    Join(i64),
    /// `σ_{payload ≥ c}(r)`
    Select(i64),
    /// `(σ_{payload ≥ c}(r) ∪ σ_{payload ≥ c}(s)) − σ_{payload ≥ c+100}(s)`
    UnionDiff(i64),
    /// `σ_{payload ≥ c}(r) − s`
    Diff(i64),
}

impl Query {
    pub fn sql(&self) -> String {
        match *self {
            Query::Join(c) => {
                format!("SELECT * FROM r, s WHERE r.k = s.k AND r.payload >= {c}")
            }
            Query::Select(c) => format!("SELECT * FROM r WHERE payload >= {c}"),
            Query::UnionDiff(c) => format!(
                "SELECT * FROM r WHERE payload >= {c} UNION SELECT * FROM s WHERE payload >= {c} \
                 EXCEPT SELECT * FROM s WHERE payload >= {}",
                c + UD_BAND
            ),
            Query::Diff(c) => {
                format!("SELECT * FROM r WHERE payload >= {c} EXCEPT SELECT * FROM s")
            }
        }
    }

    /// The consistent answers in closed form. Write `clean_x(t)` for "t's key
    /// is unshared in x" and `in_s(t)` for "the identical row is live in s".
    ///
    /// * `Select`: t ∈ r, clean_r(t), predicate holds.
    /// * `Join`: the pair's two tuples are both clean.
    /// * `Diff`: as `Select`, and not `in_s(t)` — a row of s is in *some*
    ///   repair of s, and there it cancels t.
    /// * `UnionDiff`: t is always in the union iff it is clean in a relation
    ///   whose branch selects it (the two relations repair independently, so
    ///   a row dirty in both is missing from both in some repair); and the
    ///   subtrahend removes exactly the rows of s in the upper band.
    pub fn expected(&self, m: &Model) -> Answer {
        let [r, s] = &m.tables;
        let mut a = Answer::default();
        let no_s: Vec<Tuple> = Vec::new();
        for (k, rc) in r.clusters.iter().enumerate() {
            let sc = s.clusters.get(k).unwrap_or(&no_s);
            let ki = k as i64;
            match *self {
                Query::Join(c) => {
                    if let ([t], [u]) = (rc.as_slice(), sc.as_slice()) {
                        if t.payload >= c {
                            a.add([ki, t.v, t.payload, ki, u.v, u.payload]);
                        }
                    }
                }
                Query::Select(c) => {
                    if let [t] = rc.as_slice() {
                        if t.payload >= c {
                            a.add([ki, t.v, t.payload]);
                        }
                    }
                }
                Query::Diff(c) => {
                    if let [t] = rc.as_slice() {
                        if t.payload >= c && !same_row_in(sc, t) {
                            a.add([ki, t.v, t.payload]);
                        }
                    }
                }
                Query::UnionDiff(c) => {
                    for t in rc {
                        let in_s = same_row_in(sc, t);
                        let always = rc.len() == 1 || (in_s && sc.len() == 1);
                        let cancelled = in_s && t.payload >= c + UD_BAND;
                        if t.payload >= c && always && !cancelled {
                            a.add([ki, t.v, t.payload]);
                        }
                    }
                }
            }
        }
        if let Query::UnionDiff(c) = *self {
            // Rows only s holds: clean in s and inside the band.
            for (k, sc) in s.clusters.iter().enumerate() {
                if let [u] = sc.as_slice() {
                    let rc = r.clusters.get(k).unwrap_or(&no_s);
                    if u.payload >= c && u.payload < c + UD_BAND && !same_row_in(rc, u) {
                        a.add([k as i64, u.v, u.payload]);
                    }
                }
            }
        }
        a
    }
}

fn same_row_in(cluster: &[Tuple], t: &Tuple) -> bool {
    cluster.iter().any(|u| u.v == t.v && u.payload == t.payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The closed forms against brute-force repair enumeration on a tiny model.
    #[test]
    fn closed_form_matches_repair_enumeration() {
        let spec = Spec {
            name: "tiny",
            keys: 5,
            conflict_frac: 0.4,
            cluster: (2, 2),
        };
        for seed in 0..40 {
            let mut rng = Rng::new(seed);
            let (mut m, _) = Model::generate(&spec, &mut rng);
            // Force overlaps of every kind: copies for all keys of s.
            for k in 0..spec.keys {
                if seed % 2 == 0 {
                    let t = m.tables[0].clusters[k][0];
                    m.tables[1].clusters[k][0] = t;
                }
            }
            for q in [
                Query::Select(300),
                Query::Join(300),
                Query::Diff(300),
                Query::UnionDiff(300),
            ] {
                assert_eq!(q.expected(&m), brute(&q, &m), "{q:?} seed {seed}");
            }
        }
    }

    type Inst = Vec<(usize, Tuple)>;

    fn repairs(t: &Table) -> Vec<Inst> {
        let mut out: Vec<Inst> = vec![Vec::new()];
        for (k, c) in t.clusters.iter().enumerate() {
            out = out
                .into_iter()
                .flat_map(|base| {
                    c.iter().map(move |t| {
                        let mut b = base.clone();
                        b.push((k, *t));
                        b
                    })
                })
                .collect();
        }
        out
    }

    fn eval(q: &Query, r: &Inst, s: &Inst) -> Vec<Vec<i64>> {
        let row = |(k, t): &(usize, Tuple)| vec![*k as i64, t.v, t.payload];
        let mut out: Vec<Vec<i64>> = match *q {
            Query::Select(c) => r.iter().filter(|x| x.1.payload >= c).map(row).collect(),
            Query::Join(c) => r
                .iter()
                .filter(|x| x.1.payload >= c)
                .flat_map(|x| {
                    s.iter()
                        .filter(move |y| y.0 == x.0)
                        .map(move |y| [row(x), row(y)].concat())
                })
                .collect(),
            Query::Diff(c) => {
                let sub: Vec<Vec<i64>> = s.iter().map(row).collect();
                r.iter()
                    .filter(|x| x.1.payload >= c)
                    .map(row)
                    .filter(|x| !sub.contains(x))
                    .collect()
            }
            Query::UnionDiff(c) => {
                let sub: Vec<Vec<i64>> = s
                    .iter()
                    .filter(|x| x.1.payload >= c + UD_BAND)
                    .map(row)
                    .collect();
                r.iter()
                    .chain(s.iter())
                    .filter(|x| x.1.payload >= c)
                    .map(row)
                    .filter(|x| !sub.contains(x))
                    .collect()
            }
        };
        out.sort();
        out.dedup();
        out
    }

    fn brute(q: &Query, m: &Model) -> Answer {
        let (rr, sr) = (repairs(&m.tables[0]), repairs(&m.tables[1]));
        let mut common: Option<Vec<Vec<i64>>> = None;
        for r in &rr {
            for s in &sr {
                let rows = eval(q, r, s);
                common = Some(match common {
                    None => rows,
                    Some(c) => c.into_iter().filter(|x| rows.contains(x)).collect(),
                });
            }
        }
        let mut a = Answer::default();
        for row in common.unwrap_or_default() {
            a.add(row);
        }
        a
    }
}
