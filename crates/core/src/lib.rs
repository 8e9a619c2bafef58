//! # hippo-cqa
//!
//! The core of the **Hippo** consistent-query-answering system — a Rust
//! reproduction of *"Hippo: A System for Computing Consistent Answers to a
//! Class of SQL Queries"* (Chomicki, Marcinkowski, Staworko; EDBT 2004) and
//! the conflict-hypergraph algorithms of its companion reports.
//!
//! Given a database instance that violates its integrity constraints, a
//! **consistent answer** to a query is an answer obtained in *every
//! repair* (maximal consistent subset) of the instance. Hippo computes
//! consistent answers to **SJUD** queries under **denial constraints**
//! (functional dependencies, exclusion constraints, CHECK-style denials)
//! in polynomial time, without materialising any repair:
//!
//! 1. [`detect::detect_conflicts`] builds the in-memory
//!    [`hypergraph::ConflictHypergraph`] whose maximal independent sets
//!    are exactly the repairs;
//! 2. [`envelope::envelope`] widens the query into a candidate-producing
//!    SQL query shipped to the RDBMS backend;
//! 3. `prover::Prover` (HProver) decides, per candidate, whether some
//!    repair falsifies membership — via DNF over the
//!    [`formula::MembershipTemplate`] and blocking-edge search on the
//!    hypergraph;
//! 4. optimizations: [`kg`] (knowledge gathering — prefetch all membership
//!    facts in the envelope query) and [`corefilter`] (a per-candidate
//!    test that accepts provably-consistent tuples without the prover).
//!
//! # Resource governance: strict vs. degraded mode
//!
//! There is one consistent-answer call, [`hippo::FrozenHippo::answer`]
//! (a live [`hippo::Hippo`] answers by freezing first — O(1), `Arc`
//! clones), and its [`hippo::HippoOptions`] argument carries the
//! governance. Each call can be bounded by a per-call
//! [`budget::Budget`] — a wall-clock deadline
//! ([`hippo::HippoOptions::with_deadline`]), a row budget
//! ([`hippo::HippoOptions::with_row_budget`]), and/or a cooperative
//! cancellation flag ([`hippo::HippoOptions::cancel_handle`]) trippable
//! from another thread. Each pipeline stage (detection, envelope
//! evaluation, the prover shards) checks the
//! budget cooperatively at shard-loop granularity, so a governed call
//! never hangs and never panics on exhaustion.
//!
//! What happens when the budget trips depends on the mode:
//!
//! * **Strict** (default): the call returns
//!   `Err(`[`hippo_engine::EngineError`]`)` with a structured kind —
//!   [`hippo_engine::ErrorKind::Budget`]`{stage, spent, limit}` or
//!   [`hippo_engine::ErrorKind::Cancelled`]`{stage}` — naming the stage
//!   that hit the wall. Nothing partial is returned.
//! * **Degraded** ([`hippo::HippoOptions::degraded`]): the call returns
//!   `Ok(`[`budget::ConsistentAnswer`]`)` carrying the **sound subset**
//!   proved before the trip plus
//!   [`budget::Completeness::TruncatedAt`]`(stage)`. Degradation is
//!   always *sound*: every returned row is a true consistent answer
//!   (a shard only accepts candidates it fully decided; a trip during
//!   envelope evaluation yields the empty — trivially sound — set).
//!   Conflict detection is the one stage that stays strict even in
//!   degraded mode: an incomplete conflict hypergraph would make the
//!   prover *unsound*, not merely incomplete.
//!
//! The error taxonomy ([`hippo_engine::ErrorKind`]):
//!
//! * `General` — ordinary engine/validation errors (unknown relation,
//!   arity mismatch, …);
//! * `Budget { stage, spent, limit }` — deadline or row budget
//!   exhausted, or exhaustion forced by fault injection;
//! * `Cancelled { stage }` — the call's [`budget::CancelHandle`] was
//!   tripped;
//! * `WorkerPanic { stage, shard }` — a worker panicked; the panic is
//!   contained to that call (sibling shards drain, caches stay valid,
//!   the [`hippo::FrozenHippo`] view remains usable).
//!
//! Deterministic fault injection for tests and CI lives in
//! [`budget::FaultPlan`] (`HIPPO_FAULT=stage:shard:kind`).
//!
//! Baselines for the paper's comparisons: [`rewrite`] (the
//! Arenas–Bertossi–Chomicki query-rewriting method), [`naive`] (repair
//! enumeration — the definitional semantics, exponential) and the
//! "delete all conflicting tuples" strawman.
//!
//! ```
//! use hippo_cqa::prelude::*;
//! use hippo_engine::{Database, Value};
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE emp (name TEXT, salary INT)").unwrap();
//! db.execute("INSERT INTO emp VALUES ('ann', 100), ('ann', 200), ('bob', 300)").unwrap();
//!
//! let fd = DenialConstraint::functional_dependency("emp", &[0], 1);
//! let hippo = Hippo::new(db, vec![fd]).unwrap();
//!
//! let answer = hippo.freeze().unwrap().answer(&SjudQuery::rel("emp"), &hippo.options).unwrap();
//! // ann's salary is in doubt; only bob's row is consistently true.
//! assert_eq!(answer.rows, vec![vec![Value::text("bob"), Value::Int(300)]]);
//! ```

pub mod budget;
pub mod constraint;
pub mod corefilter;
pub mod detect;
pub mod envelope;
pub mod formula;
pub mod hippo;
pub mod hypergraph;
pub mod inclusion;
pub mod kg;
pub mod naive;
pub mod parallel;
pub mod pred;
mod prover;
pub mod query;
pub mod repair;
pub mod rewrite;
pub mod sql_front;
mod workload;

/// Convenient re-exports of the main API surface.
pub mod prelude {
    pub use crate::budget::{
        Budget, CancelHandle, Completeness, ConsistentAnswer, FaultKind, FaultPlan,
    };
    pub use crate::constraint::{AttrRef, Comparison, DenialConstraint, Term};
    pub use crate::detect::{detect_conflicts, detect_conflicts_with, DetectOptions, DetectStats};
    pub use crate::envelope::envelope;
    pub use crate::hippo::{AnswerStats, FrozenHippo, Hippo, HippoOptions};
    pub use crate::hypergraph::{ConflictHypergraph, Fact, Vertex};
    pub use crate::inclusion::ForeignKey;
    pub use crate::naive::{conflict_free_answers, naive_consistent_answers, plain_answers};
    pub use crate::pred::{CmpOp, Operand, Pred};
    pub use crate::query::SjudQuery;
    pub use crate::repair::{enumerate_repairs, is_repair};
    pub use crate::rewrite::{rewrite_query, rewritten_answers, RewriteError};
    pub use crate::sql_front::sjud_from_sql;
    pub use crate::workload::{FdTableSpec, IntegrationWorkload, JoinWorkload};
}

pub use prelude::*;
