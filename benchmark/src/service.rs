//! The program under test, as the benchmark drives it: set-up, writes,
//! reading results back for the oracle, recovery. Every public item of the
//! program the benchmark touches is listed in `API.md`.

use crate::gen::{Answer, Model, Op, Rng, Spec, TABLES};
use hippo_cqa::constraint::DenialConstraint;
use hippo_cqa::hippo::{Hippo, HippoOptions};
use hippo_engine::{Catalog, Database, Row, TupleId, Value};
use hippo_server::{
    ChannelTransport, DurabilityConfig, Engine, EngineConfig, Replica, ReplicaConfig, WriteOp,
    WriteReceipt,
};
use std::error::Error;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub type Res<T> = Result<T, Box<dyn Error + Send + Sync>>;

/// What the engine does to make a commit durable; printed in the run stamp.
pub const FLUSH_POLICY: &str =
    "one fsync (File::sync_data) per commit group before publish; checkpoint every 64 frames";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Base,
    Kg,
    Full,
}

impl Mode {
    pub fn options(self) -> HippoOptions {
        match self {
            Mode::Base => HippoOptions::base(),
            Mode::Kg => HippoOptions::kg(),
            Mode::Full => HippoOptions::full(),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Mode::Base => "base",
            Mode::Kg => "kg",
            Mode::Full => "full",
        }
    }
}

/// `k → v` on both tables.
pub fn constraints() -> Vec<DenialConstraint> {
    TABLES
        .iter()
        .map(|t| DenialConstraint::functional_dependency(*t, &[0], 1))
        .collect()
}

pub fn int_row(vals: &[i64]) -> Row {
    vals.iter().map(|&v| Value::Int(v)).collect()
}

/// Load the generated rows. `k` is declared the (violated) key so that the
/// engine indexes it and membership probes plan as index lookups.
fn build_database(rows: &[Vec<[i64; 3]>; 2]) -> Res<Database> {
    let mut db = Database::new();
    for (name, rows) in TABLES.iter().zip(rows) {
        db.execute(&format!(
            "CREATE TABLE {name} (k INT, v INT, payload INT, PRIMARY KEY (k))"
        ))?;
        db.insert_rows(name, rows.iter().map(|r| int_row(r)).collect())?;
    }
    Ok(db)
}

/// Read the tuple ids the program assigned at load. Also the first oracle
/// check: the table must hold the generated rows, in load order.
fn learn_tids(model: &mut Model, catalog: &Catalog) -> Res<()> {
    for (ti, name) in TABLES.iter().enumerate() {
        let table = catalog.table(name)?;
        let mut stored = table.iter();
        for (k, cluster) in model.tables[ti].clusters.iter_mut().enumerate() {
            for t in cluster {
                let (tid, row) = stored
                    .next()
                    .ok_or("table holds fewer rows than generated")?;
                if ints(row)? != [k as i64, t.v, t.payload] {
                    return Err(format!("{name}: loaded row differs from the generated one").into());
                }
                t.tid = tid.0;
            }
        }
        if stored.next().is_some() {
            return Err(format!("{name}: table holds more rows than generated").into());
        }
    }
    Ok(())
}

pub fn ints(row: &Row) -> Res<Vec<i64>> {
    row.iter()
        .map(|v| match v {
            Value::Int(i) => Ok(*i),
            other => Err(format!("non-integer value {other:?} in a result row").into()),
        })
        .collect()
}

/// Reduce the program's result rows to the oracle's count + hash.
pub fn answer_of(rows: &[Row]) -> Res<Answer> {
    let mut a = Answer::default();
    for row in rows {
        a.add(ints(row)?);
    }
    Ok(a)
}

/// Count + hash of `(tid, k, v, payload)` per table, to compare with
/// [`crate::gen::Table::contents`].
pub fn table_contents(catalog: &Catalog) -> Res<[Answer; 2]> {
    let mut out = [Answer::default(); 2];
    for (ti, name) in TABLES.iter().enumerate() {
        for (tid, row) in catalog.table(name)?.iter() {
            let mut vals = vec![i64::from(tid.0)];
            vals.extend(ints(row)?);
            out[ti].add(vals);
        }
    }
    Ok(out)
}

pub fn to_write_op(op: &Op) -> WriteOp {
    let table = TABLES[op.table()].to_string();
    match *op {
        Op::Insert { k, v, payload, .. } => WriteOp::Insert {
            table,
            rows: vec![int_row(&[k as i64, v, payload])],
        },
        Op::Update {
            k, tid, v, payload, ..
        } => WriteOp::Update {
            table,
            updates: vec![(TupleId(tid), int_row(&[k as i64, v, payload]))],
        },
        Op::Delete { tid, .. } => WriteOp::Delete {
            table,
            tids: vec![TupleId(tid)],
        },
    }
}

/// A second, unpublished copy of the data with the same mode: the traced run
/// replays writes on it to time the layers one at a time.
pub fn scratch_hippo(rows: &[Vec<[i64; 3]>; 2], mode: Mode) -> Res<Hippo> {
    Ok(Hippo::with_options(
        build_database(rows)?,
        constraints(),
        mode.options(),
    )?)
}

/// A running durable engine (optionally with one in-process replica), the
/// model of what it should hold, and the generator state for more writes.
pub struct Service {
    /// `None` only between stop and recovery inside [`Service::restart`].
    engine: Option<Engine>,
    pub replica: Option<Replica>,
    pub dir: PathBuf,
    pub mode: Mode,
    pub model: Model,
    pub rng: Rng,
    /// The generated rows, kept only when a scratch copy will be built.
    pub rows: Option<[Vec<[i64; 3]>; 2]>,
    /// Transactions acknowledged so far (= the published epoch's
    /// `writes_applied`).
    pub acked: u64,
}

impl Service {
    pub fn engine(&self) -> &Engine {
        self.engine
            .as_ref()
            .expect("the engine runs except inside restart()")
    }

    /// Set-up as the `setup_s` metric times it: generate the data, load it,
    /// build the `Hippo` (initial conflict detection), start the durable
    /// engine (birth checkpoint, fsync'd) and, if asked, a replica that has
    /// finished its initial sync.
    pub fn start(
        spec: &Spec,
        mode: Mode,
        seed: u64,
        dir: &Path,
        with_replica: bool,
        keep_rows: bool,
    ) -> Res<Service> {
        let mut rng = Rng::new(seed);
        let (mut model, rows) = Model::generate(spec, &mut rng);
        let db = build_database(&rows)?;
        learn_tids(&mut model, db.catalog())?;
        let hippo = Hippo::with_options(db, constraints(), mode.options())?;
        let _ = std::fs::remove_dir_all(dir);
        let engine =
            Engine::new_durable(hippo, EngineConfig::default(), DurabilityConfig::new(dir))?;
        let mut svc = Service {
            engine: Some(engine),
            replica: None,
            dir: dir.to_path_buf(),
            mode,
            model,
            rng,
            rows: keep_rows.then_some(rows),
            acked: 0,
        };
        if with_replica {
            let (ours, theirs) = ChannelTransport::pair();
            let mut config = ReplicaConfig::new(constraints());
            config.options = mode.options();
            let replica = Replica::start(Box::new(theirs), config);
            svc.engine().attach_replica(Box::new(ours))?;
            svc.replica = Some(replica);
            svc.wait_replica(Duration::from_secs(60))?;
        }
        Ok(svc)
    }

    /// Block until the replica has applied everything the primary committed.
    /// Returns how long that took.
    pub fn wait_replica(&self, limit: Duration) -> Res<Duration> {
        let Some(replica) = &self.replica else {
            return Ok(Duration::ZERO);
        };
        let start = Instant::now();
        loop {
            let want = self.engine().replication_stats().last_lsn;
            let st = replica.stats();
            if st.has_state && st.applied_lsn >= want {
                return Ok(start.elapsed());
            }
            if let Some(e) = replica.broken() {
                return Err(format!("replica broke: {e}").into());
            }
            if start.elapsed() > limit {
                return Err("replica did not catch up in time".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Fold acknowledged receipts into the model.
    pub fn acknowledge(&mut self, op: &Op, receipt: &WriteReceipt) {
        self.model.apply(op, receipt.inserted.first().map(|t| t.0));
        self.acked += 1;
    }

    /// Generate one commit group of `n` single-row transactions on distinct
    /// keys (so it can be generated before any of it is applied).
    pub fn next_group(&mut self, n: usize) -> Vec<Op> {
        let mut taken = Vec::with_capacity(n);
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            let op = self.model.next_op(&mut self.rng, &taken);
            taken.push((op.table(), op.key()));
            ops.push(op);
        }
        ops
    }

    /// Do the published tables (and the replica's, once caught up) equal the
    /// model? Returns the number of (table, copy) comparisons that failed.
    pub fn verify_contents(&self) -> Res<(u64, u64)> {
        let want = [
            self.model.tables[0].contents(),
            self.model.tables[1].contents(),
        ];
        let mut checked = 0;
        let mut bad = 0;
        let mut compare = |got: [Answer; 2]| {
            for ti in 0..2 {
                checked += 1;
                if got[ti] != want[ti] {
                    bad += 1;
                }
            }
        };
        compare(table_contents(
            self.engine().current_epoch().frozen().catalog(),
        )?);
        if let Some(replica) = &self.replica {
            self.wait_replica(Duration::from_secs(60))?;
            let epoch = replica.current_epoch().ok_or("replica has no state")?;
            compare(table_contents(epoch.frozen().catalog())?);
        }
        Ok((checked, bad))
    }

    /// Stop the replica and the engine: joins their threads and releases the
    /// directory lock.
    pub fn stop(&mut self) {
        self.replica = None;
        self.engine = None;
    }

    /// Stop, then reopen the directory with `Engine::recover`. Returns the
    /// recovery's wall time.
    pub fn restart(&mut self) -> Res<Duration> {
        self.stop();
        let t0 = Instant::now();
        let engine = Engine::recover(
            EngineConfig::default(),
            DurabilityConfig::new(&self.dir),
            constraints(),
            Vec::new(),
            self.mode.options(),
        )?;
        if engine.current_epoch().id() != 1 {
            return Err("recovered engine did not publish epoch 1".into());
        }
        let dt = t0.elapsed();
        self.engine = Some(engine);
        Ok(dt)
    }
}
