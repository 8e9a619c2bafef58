//! The read path: one request as a client sees it, the same request with
//! spans, the layer-by-layer replay, and the reader that rotates queries.

use crate::gen::Query;
use crate::obs::{ms, Obs, ReadObs};
use crate::service::{answer_of, Mode, Res};
use crate::trace::Tracer;
use crate::workloads::Workload;
use hippo_cqa::budget::{Completeness, ConsistentAnswer};
use hippo_cqa::corefilter::core_filter_set;
use hippo_cqa::envelope::envelope;
use hippo_cqa::formula::MembershipTemplate;
use hippo_cqa::hippo::FrozenHippo;
use hippo_cqa::kg::extended_envelope_sql;
use hippo_cqa::query::SjudQuery;
use hippo_cqa::sql_front::{sjud_from_query, sjud_from_sql};
use hippo_server::{Engine, Session};
use std::time::{Duration, Instant};

/// One request as a client sees it: SQL text in, consistent rows out.
pub fn request(
    session: &mut Session,
    sql: &str,
    refresh: bool,
) -> Res<(ConsistentAnswer, Duration)> {
    let t0 = Instant::now();
    if refresh {
        session.refresh();
    }
    let query = sjud_from_sql(sql, session.epoch().frozen().catalog())?;
    let answer = session.consistent_answers_governed(&query)?;
    Ok((answer, t0.elapsed()))
}

/// One traced response.
struct Traced {
    answer: ConsistentAnswer,
    query: SjudQuery,
    /// Wall of the whole request, and of the `Session` call inside it.
    wall: Duration,
    session_wall: Duration,
}

/// The same request with a span around each layer entered on the way:
/// `sjud_from_sql`'s two steps (parse, classify) are taken one at a time, and
/// the stage times `AnswerStats` reports become derived child spans.
fn traced_request(tr: &mut Tracer, session: &mut Session, sql: &str, refresh: bool) -> Res<Traced> {
    tr.begin_request();
    let (out, wall) = tr.span(
        "request",
        |tr| -> Res<(ConsistentAnswer, SjudQuery, Duration)> {
            if refresh {
                tr.span("server.pin", |_| session.refresh());
            }
            let (stmt, _) = tr.span("sql.parse", |_| hippo_sql::parse_statement(sql));
            let hippo_sql::Statement::Select(parsed) = stmt? else {
                return Err("not a SELECT".into());
            };
            let (query, _) = tr.span("sql_front.classify", |_| -> Res<SjudQuery> {
                let catalog = session.epoch().frozen().catalog();
                let query = sjud_from_query(&parsed, catalog)?;
                query.validate(catalog)?;
                Ok(query)
            });
            let query = query?;
            let (answer, session_wall) = tr.span("session.cqa", |tr| {
                let answer = session.consistent_answers_governed(&query);
                if let Ok(a) = &answer {
                    tr.derived(&[
                        ("hippo.envelope", a.stats.t_envelope),
                        ("hippo.filter", a.stats.t_filter),
                        ("hippo.prover", a.stats.t_prover),
                    ]);
                }
                answer
            });
            Ok((answer?, query, session_wall))
        },
    );
    let (answer, query, session_wall) = out?;
    Ok(Traced {
        answer,
        query,
        wall,
        session_wall,
    })
}

/// Call the read layers one by one on the pinned epoch, outside the request:
/// envelope construction + SQL rendering, the envelope query on the engine,
/// and the core filter.
fn replay_read_layers(
    tr: &mut Tracer,
    frozen: &FrozenHippo,
    query: &SjudQuery,
    mode: Mode,
    obs: &mut Obs,
) -> Res<()> {
    let catalog = frozen.catalog();
    let (out, _) = tr.span("replay.read", |tr| -> Res<(usize, usize)> {
        let (sql, _) = tr.span("envelope.build", |_| -> Res<String> {
            let env = envelope(query);
            if mode == Mode::Base {
                return Ok(env.to_sql(catalog)?);
            }
            let template = MembershipTemplate::build(query, catalog)?;
            let extended = extended_envelope_sql(&env, &template, catalog)?;
            Ok(hippo_sql::print_query(&extended))
        });
        let sql = sql?;
        let before = frozen.snapshot().stats();
        let (rows, _) = tr.span("engine.envelope", |_| frozen.query(&sql));
        let after = frozen.snapshot().stats();
        obs.add(
            "engine.rowmode_rows",
            (after.rowmode_rows - before.rowmode_rows) as f64,
        );
        obs.add(
            "engine.vectorized_rows",
            (after.vectorized_rows - before.vectorized_rows) as f64,
        );
        let (core, _) = tr.span("corefilter", |_| {
            core_filter_set(query, catalog, frozen.graph())
        });
        Ok((rows?.rows.len(), core.len()))
    });
    let (envelope_rows, accepted) = out?;
    obs.sample("engine.envelope_rows", envelope_rows as f64);
    obs.add("corefilter.accepted", accepted as f64);
    obs.add("corefilter.candidates", envelope_rows as f64);
    Ok(())
}

/// Fold one traced response's `AnswerStats` and engine counters into `obs`.
fn record_answer_stats(obs: &mut Obs, a: &ConsistentAnswer, session_wall: Duration) {
    let s = &a.stats;
    obs.sample(
        "session.overhead_us",
        (session_wall.as_secs_f64() - s.t_total.as_secs_f64()) * 1e6,
    );
    obs.sample("hippo.t_envelope_ms", ms(s.t_envelope));
    obs.sample("hippo.t_filter_ms", ms(s.t_filter));
    obs.sample("hippo.t_prover_ms", ms(s.t_prover));
    obs.sample("hippo.answer_ms", ms(s.t_total));
    obs.sample("prover.calls", s.prover_calls as f64);
    obs.add("prover.calls", s.prover_calls as f64);
    obs.add("prover.seconds", s.t_prover.as_secs_f64());
    obs.add("prover.cache_hits", s.prover_cache_hits as f64);
    obs.add("prover.cross_hits", s.prover_cache_cross_hits as f64);
    let probes = s.membership_queries + s.membership_memo_hits;
    obs.sample("kg.probe_count", probes as f64);
    obs.add("kg.probes", probes as f64);
    obs.add("kg.memo_hits", s.membership_memo_hits as f64);
    obs.add("kg.executed", s.membership_queries as f64);
    obs.add("kg.index_probes", s.index_probes as f64);
}

pub struct Reader<'a> {
    wl: &'a Workload,
    sqls: Vec<String>,
    session: Session,
    next: usize,
}

impl<'a> Reader<'a> {
    pub fn new(wl: &'a Workload, engine: &Engine) -> Reader<'a> {
        Reader {
            wl,
            sqls: wl.queries.iter().map(Query::sql).collect(),
            session: engine.session(),
            next: 0,
        }
    }

    /// Issue the next query of the rotation: untraced always, and with a
    /// tracer also traced (order alternating, so neither systematically gets
    /// the verdict cache the other warmed) plus the layer replays.
    pub fn step(&mut self, obs: &mut Obs, mut tracer: Option<&mut Tracer>, timed: bool) {
        let qi = self.next % self.sqls.len();
        let traced_first = self.next % 2 == 1;
        self.next += 1;
        let refresh = self.wl.concurrent;
        if let (Some(tr), true) = (tracer.as_deref_mut(), traced_first) {
            self.traced(qi, tr, obs);
        }
        obs.attempted += 1;
        match request(&mut self.session, &self.sqls[qi], refresh) {
            Ok((answer, wall)) => {
                if timed {
                    obs.cqa_ms.push(ms(wall));
                }
                self.observe(qi, &answer, obs);
            }
            Err(e) => obs.fail(format!("read {qi}: {e}")),
        }
        if let (Some(tr), false) = (tracer, traced_first) {
            self.traced(qi, tr, obs);
        }
    }

    fn traced(&mut self, qi: usize, tr: &mut Tracer, obs: &mut Obs) {
        obs.attempted += 1;
        let refresh = self.wl.concurrent;
        if !refresh {
            // The pinned reader never re-pins inside a request; time one
            // outside it (same epoch: nothing is written during the phase).
            let t0 = Instant::now();
            self.session.refresh();
            obs.sample("server.pin_us", t0.elapsed().as_secs_f64() * 1e6);
        }
        match traced_request(tr, &mut self.session, &self.sqls[qi], refresh) {
            Ok(t) => {
                obs.traced_cqa_ms.push(ms(t.wall));
                record_answer_stats(obs, &t.answer, t.session_wall);
                self.observe(qi, &t.answer, obs);
                let epoch = self.session.epoch().clone();
                if let Err(e) = replay_read_layers(tr, epoch.frozen(), &t.query, self.wl.mode, obs)
                {
                    obs.fail(format!("layer replay {qi}: {e}"));
                }
            }
            Err(e) => obs.fail(format!("traced read {qi}: {e}")),
        }
    }

    fn observe(&mut self, qi: usize, answer: &ConsistentAnswer, obs: &mut Obs) {
        if answer.completeness != Completeness::Complete {
            obs.fail(format!("read {qi}: truncated answer"));
            return;
        }
        match answer_of(&answer.rows) {
            Ok(a) => obs.reads.push(ReadObs {
                query: qi,
                writes_applied: self.session.epoch().writes_applied(),
                answer: a,
            }),
            Err(e) => obs.fail(format!("read {qi}: {e}")),
        }
    }
}
