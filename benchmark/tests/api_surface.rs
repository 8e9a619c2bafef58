//! Compile-only: names every public item of the program that the benchmark
//! calls (the list in `API.md`), with the argument and result types the
//! benchmark relies on. Nothing here runs; if the program drops or reshapes
//! one of these, this file stops compiling and says which.

#![allow(dead_code, clippy::too_many_arguments, clippy::type_complexity)]

use hippo_cqa::budget::{Completeness, ConsistentAnswer, Governance};
use hippo_cqa::constraint::DenialConstraint;
use hippo_cqa::detect::DetectStats;
use hippo_cqa::formula::MembershipTemplate;
use hippo_cqa::hippo::{AnswerStats, FrozenHippo, Hippo, HippoOptions};
use hippo_cqa::query::SjudQuery;
use hippo_engine::{Catalog, Database, EngineError, Row, TupleId, Value};
use hippo_server::wal::{Frame, FrameKind, Wal, WalOp};
use hippo_server::{
    ChannelTransport, DurabilityConfig, Engine, EngineConfig, Replica, ReplicaConfig, Session,
    WriteOp, WriteReceipt,
};
use std::path::Path;
use std::time::Duration;

fn sql(text: &str, q: &hippo_sql::Query) -> Result<String, hippo_sql::ParseError> {
    let hippo_sql::Statement::Select(_) = hippo_sql::parse_statement(text)? else {
        unreachable!()
    };
    Ok(hippo_sql::print_query(q))
}

fn engine_crate(
    db: &mut Database,
    catalog: &Catalog,
    frozen: &FrozenHippo,
) -> Result<(), EngineError> {
    let _: Database = Database::new();
    db.execute("CREATE TABLE t (k INT, PRIMARY KEY (k))")?;
    let _: usize = db.insert_rows("t", vec![vec![Value::Int(1)]])?;
    let _: &Catalog = db.catalog();
    for (tid, row) in catalog.table("t")?.iter() {
        let _: (u32, &Row) = (TupleId(tid.0).0, row);
    }
    let stats = frozen.snapshot().stats();
    let _: (usize, usize) = (stats.rowmode_rows, stats.vectorized_rows);
    let _: Vec<Row> = frozen.query("SELECT * FROM t")?.rows;
    let _: Box<dyn std::error::Error + Send + Sync> =
        Box::new(EngineError::clone(&EngineError::new("x")));
    Ok(())
}

fn cqa_crate(
    db: Database,
    hippo: &mut Hippo,
    frozen: &FrozenHippo,
    parsed: &hippo_sql::Query,
    answer: &ConsistentAnswer,
    detect: &DetectStats,
) -> Result<(), Box<dyn std::error::Error>> {
    let fd: DenialConstraint = DenialConstraint::functional_dependency("t", &[0], 1);
    let options: [HippoOptions; 3] = [
        HippoOptions::base(),
        HippoOptions::kg(),
        HippoOptions::full(),
    ];
    let _: Hippo = Hippo::with_options(db, vec![fd], options[0].clone())?;
    let _: Vec<TupleId> = hippo.insert_tuples("t", vec![vec![Value::Int(1)]])?;
    let _: usize = hippo.update_tuples("t", vec![(TupleId(0), vec![Value::Int(2)])])?;
    let _: usize = hippo.delete_tuples("t", &[TupleId(0)])?;
    let _: DetectStats = hippo.redetect()?;
    let _: DetectStats = hippo.redetect_full()?;
    let _: FrozenHippo = hippo.freeze()?;
    let _: &Catalog = hippo.db().catalog();
    let _: (Duration, bool, usize) = (
        detect.elapsed,
        detect.incremental,
        detect.combinations_checked,
    );

    let catalog: &Catalog = frozen.catalog();
    let _: usize = frozen.graph().edge_count();
    let query: SjudQuery = hippo_cqa::sql_front::sjud_from_sql("SELECT * FROM t", catalog)?;
    let _: SjudQuery = hippo_cqa::sql_front::sjud_from_query(parsed, catalog)?;
    let _: usize = query.validate(catalog)?;
    let _: String = query.to_sql(catalog)?;
    let env: SjudQuery = hippo_cqa::envelope::envelope(&query);
    let template: MembershipTemplate = MembershipTemplate::build(&query, catalog)?;
    let _: hippo_sql::Query = hippo_cqa::kg::extended_envelope_sql(&env, &template, catalog)?;
    let _: usize = hippo_cqa::corefilter::core_filter_set(&query, catalog, frozen.graph()).len();

    let _: &Vec<Row> = &answer.rows;
    let _: bool = answer.completeness == Completeness::Complete;
    let s: &AnswerStats = &answer.stats;
    let _: [Duration; 4] = [s.t_envelope, s.t_filter, s.t_prover, s.t_total];
    let _: [usize; 6] = [
        s.prover_calls,
        s.prover_cache_hits,
        s.prover_cache_cross_hits,
        s.membership_queries,
        s.membership_memo_hits,
        s.index_probes,
    ];
    let _: Governance = Governance::default();
    Ok(())
}

fn server_crate(
    hippo: Hippo,
    engine: &Engine,
    session: &mut Session,
    query: &SjudQuery,
    receipt: &WriteReceipt,
    dir: &Path,
    catalog: &Catalog,
) -> Result<(), EngineError> {
    let _: Engine =
        Engine::new_durable(hippo, EngineConfig::default(), DurabilityConfig::new(dir))?;
    let recovered: Engine = Engine::recover(
        EngineConfig::default(),
        DurabilityConfig::new(dir),
        Vec::<DenialConstraint>::new(),
        Vec::new(),
        HippoOptions::full(),
    )?;
    let _: Option<u64> = recovered.recovery_report().map(|r| r.frames_replayed);
    let _: Engine = engine.clone();
    let _: Session = engine.session();

    let ops = vec![
        WriteOp::Insert {
            table: "t".into(),
            rows: vec![vec![Value::Int(1)]],
        },
        WriteOp::Update {
            table: "t".into(),
            updates: vec![(TupleId(0), vec![Value::Int(2)])],
        },
        WriteOp::Delete {
            table: "t".into(),
            tids: vec![TupleId(0)],
        },
    ];
    let _: WriteReceipt = engine.write(ops.clone())?;
    let _: Vec<Result<WriteReceipt, EngineError>> = engine.write_group(vec![ops])?;
    let _: (&Vec<TupleId>, &DetectStats) = (&receipt.inserted, &receipt.detect);
    engine.checkpoint()?;

    let epoch = engine.current_epoch();
    let _: (u64, u64, &FrozenHippo) = (epoch.id(), epoch.writes_applied(), epoch.frozen());
    let st = engine.stats();
    let _: [u64; 5] = [
        st.writes_applied,
        st.wal_fsyncs,
        st.epochs_published,
        st.requests_shed,
        st.requests_admitted,
    ];
    let _: u64 = engine.replication_stats().last_lsn;

    session.refresh();
    let _: u64 = session.epoch().writes_applied();
    *session.options_mut() = HippoOptions::base();
    let _: ConsistentAnswer = session.consistent_answers_governed(query)?;

    let (ours, theirs) = ChannelTransport::pair();
    let mut config: ReplicaConfig = ReplicaConfig::new(Vec::<DenialConstraint>::new());
    config.options = HippoOptions::kg();
    let replica: Replica = Replica::start(Box::new(theirs), config);
    engine.attach_replica(Box::new(ours))?;
    let rs = replica.stats();
    let _: (bool, u64, u64) = (rs.has_state, rs.applied_lsn, rs.resync_requests);
    let _: u64 = replica.staleness().lsn_lag;
    let _: Option<EngineError> = replica.broken();
    let _: Option<u64> = replica.current_epoch().map(|e| e.id());

    let (mut wal, _scan): (Wal, _) = Wal::open(dir)?;
    let walop = WalOp::Insert {
        table: "t".into(),
        rows: vec![vec![Value::Int(1)]],
        tids: vec![TupleId(0)],
    };
    let _ = WalOp::Update {
        table: "t".into(),
        updates: vec![(TupleId(0), vec![Value::Int(2)])],
    };
    let _ = WalOp::Delete {
        table: "t".into(),
        tids: vec![TupleId(0)],
    };
    let frame = Frame {
        lsn: wal.next_lsn(),
        kind: FrameKind::Commit,
        ops: vec![walop.clone()],
    };
    let _: Vec<u8> = hippo_server::wal::encode_frame_payload(&frame);
    let _: Vec<u64> = wal.append(&[(FrameKind::Commit, vec![walop])], &Governance::default())?;
    let _: u64 = wal.len();
    wal.truncate_all()?;
    hippo_server::checkpoint::write_checkpoint(dir, catalog, 1, &Governance::default())?;
    let _: &str = hippo_server::checkpoint::CHECKPOINT_FILE;
    let (_catalog, _wal, report): (Catalog, Wal, _) = hippo_server::recover::recover_dir(dir)?;
    let _: u64 = report.frames_replayed;
    Ok(())
}

#[test]
fn api_surface_compiles() {
    // Reaching this line is the test: the functions above type-checked.
}
