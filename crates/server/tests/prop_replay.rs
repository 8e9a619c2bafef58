//! Differential property test for the one replay path.
//!
//! Random multi-op transactions — inserts that collide on the FD key,
//! updates, and deletes of live, unknown, repeated and just-deleted
//! tuple ids — run on a durable primary that streams to a replica. The
//! commit applies them, the replica replays the shipped frames, and
//! `Engine::recover` replays the checkpoint plus log tail; all three
//! must end in the identical state: the same rows under the same tuple
//! ids, and the same conflict-graph edge count.

use hippo_cqa::hippo::FrozenHippo;
use hippo_cqa::prelude::*;
use hippo_engine::{Database, Row, TupleId, Value};
use hippo_server::{
    ChannelTransport, DurabilityConfig, Engine, EngineConfig, Replica, ReplicaConfig, WriteOp,
};
use hippo_testkit::FdTableSpec;
use proptest::prelude::*;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "hippo-propreplay-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Which tuple an op targets, resolved against the primary's state when
/// the transaction is built.
#[derive(Debug, Clone)]
enum Pick {
    /// A live tuple (index modulo the live count).
    Live(u32),
    /// An id no tuple ever had.
    Unknown(u32),
    /// An id deleted earlier — in this transaction or a previous one.
    Gone(u32),
}

#[derive(Debug, Clone)]
enum OpSpec {
    /// Rows `(k, v, 0)`; small keys collide with the base data.
    Insert(Vec<(i64, i64)>),
    /// Delete the picks; `true` repeats the whole id list.
    Delete(Vec<Pick>, bool),
    /// Rewrite one tuple to `(k, v, 1)`.
    Update(Pick, i64, i64),
}

fn arb_pick() -> BoxedStrategy<Pick> {
    prop_oneof![
        any::<u32>().prop_map(Pick::Live),
        any::<u32>().prop_map(Pick::Live),
        (0u32..8).prop_map(Pick::Unknown),
        any::<u32>().prop_map(Pick::Gone),
    ]
    .boxed()
}

fn arb_op() -> BoxedStrategy<OpSpec> {
    prop_oneof![
        prop::collection::vec((0i64..12, 0i64..3), 1..4).prop_map(OpSpec::Insert),
        (prop::collection::vec(arb_pick(), 1..4), any::<bool>())
            .prop_map(|(picks, repeat)| OpSpec::Delete(picks, repeat)),
        (arb_pick(), 0i64..12, 0i64..3).prop_map(|(p, k, v)| OpSpec::Update(p, k, v)),
    ]
    .boxed()
}

fn row(k: i64, v: i64, payload: i64) -> Row {
    vec![Value::Int(k), Value::Int(v), Value::Int(payload)]
}

/// Turn one transaction's specs into ops against the live ids of `t`,
/// moving deleted ids to `gone` as it goes so later picks can target
/// them.
fn resolve(specs: &[OpSpec], mut live: Vec<TupleId>, gone: &mut Vec<TupleId>) -> Vec<WriteOp> {
    let pick = |p: &Pick, live: &[TupleId], gone: &[TupleId]| match p {
        Pick::Live(i) if !live.is_empty() => live[*i as usize % live.len()],
        Pick::Gone(i) if !gone.is_empty() => gone[*i as usize % gone.len()],
        Pick::Live(i) | Pick::Gone(i) | Pick::Unknown(i) => TupleId(1_000_000 + i % 8),
    };
    specs
        .iter()
        .map(|spec| match spec {
            OpSpec::Insert(rows) => WriteOp::Insert {
                table: "t".into(),
                rows: rows.iter().map(|&(k, v)| row(k, v, 0)).collect(),
            },
            OpSpec::Delete(picks, repeat) => {
                let mut tids: Vec<TupleId> = picks.iter().map(|p| pick(p, &live, gone)).collect();
                if *repeat {
                    tids.extend(tids.clone());
                }
                live.retain(|id| !tids.contains(id));
                gone.extend(tids.iter().copied());
                WriteOp::Delete {
                    table: "t".into(),
                    tids,
                }
            }
            OpSpec::Update(p, k, v) => WriteOp::Update {
                table: "t".into(),
                updates: vec![(pick(p, &live, gone), row(*k, *v, 1))],
            },
        })
        .collect()
}

/// Rows by tuple id, and the conflict-graph edge count.
fn state(frozen: &FrozenHippo) -> (Vec<(TupleId, Row)>, usize) {
    let t = frozen.catalog().table("t").unwrap();
    let rows = t.iter().map(|(id, r)| (id, r.clone())).collect();
    (rows, frozen.graph().edge_count())
}

fn live_ids(eng: &Engine) -> Vec<TupleId> {
    let epoch = eng.current_epoch();
    let t = epoch.frozen().catalog().table("t").unwrap();
    t.iter().map(|(id, _)| id).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn primary_replica_and_recovery_end_in_one_state(
        seed in 0u64..1_000,
        txns in prop::collection::vec(prop::collection::vec(arb_op(), 1..5), 1..8),
    ) {
        let dir = tmp_dir("diff");
        let spec = FdTableSpec::new("t", 16, 0.25, seed);
        let mut db = Database::new();
        spec.populate(&mut db).unwrap();
        let cons = vec![spec.fd()];
        let durability = DurabilityConfig {
            dir: dir.clone(),
            checkpoint_every_frames: 3,
        };
        let hippo = Hippo::with_options(db, cons.clone(), HippoOptions::full()).unwrap();
        let eng = Engine::new_durable(hippo, EngineConfig::default(), durability.clone()).unwrap();
        let (a, b) = ChannelTransport::pair();
        let mut config = ReplicaConfig::new(cons.clone());
        config.resync_after = Duration::from_millis(30);
        let replica = Replica::start(Box::new(b), config);
        eng.attach_replica(Box::new(a)).unwrap();

        let mut gone = Vec::new();
        for specs in &txns {
            let ops = resolve(specs, live_ids(&eng), &mut gone);
            // Updates of unknown or deleted ids fail the transaction;
            // the writer resets and nothing of it is published.
            let _ = eng.write(ops);
        }
        let primary = state(eng.current_epoch().frozen());

        let target = eng.replication_stats().last_lsn;
        let start = Instant::now();
        while replica.current_epoch().is_none() || replica.staleness().applied_lsn < target {
            if let Some(e) = replica.broken() {
                panic!("replica broke: {e}");
            }
            assert!(start.elapsed() < Duration::from_secs(10), "{}", replica.stats());
            std::thread::sleep(Duration::from_millis(2));
        }
        let replicated = state(replica.current_epoch().unwrap().frozen());
        drop(replica);
        drop(eng);

        let recovered = Engine::recover(
            EngineConfig::default(),
            durability,
            cons,
            Vec::new(),
            HippoOptions::full(),
        )
        .unwrap_or_else(|e| panic!("recovery refused the log: {e}"));
        let recovered_state = state(recovered.current_epoch().frozen());
        drop(recovered);
        std::fs::remove_dir_all(&dir).unwrap();

        prop_assert_eq!(&replicated, &primary, "replica differs from the primary");
        prop_assert_eq!(&recovered_state, &primary, "recovery differs from the primary");
    }
}
