//! Answer-mode switches, per-call governance and the statistics of one
//! answer run: [`HippoOptions`] (with its [`GovernanceOptions`]) is the
//! argument of [`FrozenHippo::answer`](super::FrozenHippo::answer), and
//! [`AnswerStats`] rides back on its [`ConsistentAnswer`](crate::budget::ConsistentAnswer).

use crate::budget::{Budget, CancelHandle, Governance};
use crate::prover::ProverRunStats;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Optimization switches plus per-call resource governance.
#[derive(Debug, Clone, Default)]
pub struct GovernanceOptions {
    /// Wall-clock deadline per governed call.
    pub deadline: Option<Duration>,
    /// Row budget per governed call (rows materialised/visited across
    /// all stages).
    pub row_budget: Option<u64>,
    /// Degraded mode: on budget exhaustion return the sound subset
    /// proved so far (with [`crate::budget::Completeness::TruncatedAt`])
    /// instead of an error. Detection stays strict regardless — an
    /// incomplete conflict hypergraph would make the prover unsound.
    pub degraded: bool,
    /// Cancellation flag shared with callers via
    /// [`HippoOptions::cancel_handle`]; only armed (and only then does
    /// it create a budget) once that handle has been taken.
    cancel: CancelHandle,
    cancel_armed: bool,
    /// Deterministic fault injection (tests / CI only).
    faults: Option<Arc<crate::budget::FaultPlan>>,
}

/// Optimization switches.
#[derive(Debug, Clone)]
pub struct HippoOptions {
    /// Per-call resource governance (deadline, row budget, cancellation,
    /// degraded mode, fault injection). Default: ungoverned — no budget
    /// object is created and every stage runs exactly the ungoverned
    /// code path, so answers *and stats* are bit-identical to a build
    /// without governance.
    pub governance: GovernanceOptions,
    /// Skip the prover for tuples caught by the core filter.
    pub core_filter: bool,
    /// Worker threads for the answer pipeline's prover stage; `0` =
    /// auto (the `HIPPO_PROVER_THREADS` environment variable if set,
    /// else available parallelism). The thread count never affects
    /// answers or stats, only wall-clock.
    pub prover_threads: usize,
    /// Memoize prover verdicts by conflict-closure signature (see
    /// `crate::prover::Prover::closure_signature`); candidates whose
    /// signatures match an already-proved candidate in the same shard
    /// are decided without running the prover.
    pub prover_cache: bool,
}

impl HippoOptions {
    /// The paper's base system. Every mode reads its membership flags
    /// from the extended envelope's mark joins, so this equals
    /// [`HippoOptions::kg`]: flags from the envelope, no core filter.
    /// Kept because `benchmark/API.md` pins it.
    pub fn base() -> Self {
        HippoOptions::kg()
    }

    /// Knowledge gathering: membership flags from the extended
    /// envelope, every candidate proved (no core filter).
    pub fn kg() -> Self {
        HippoOptions {
            governance: GovernanceOptions::default(),
            core_filter: false,
            prover_threads: 0,
            prover_cache: true,
        }
    }

    /// Knowledge gathering + core filter (the fully optimized system).
    pub fn full() -> Self {
        HippoOptions {
            core_filter: true,
            ..HippoOptions::kg()
        }
    }

    /// Explicit prover worker count (`0` = auto).
    pub fn with_prover_threads(mut self, threads: usize) -> Self {
        self.prover_threads = threads;
        self
    }

    /// Disable the closure-signature verdict cache (every candidate
    /// reaching the prover stage is proved from scratch). Only the
    /// differential tests use it, to check that the cache changes no
    /// answer.
    pub fn without_prover_cache(mut self) -> Self {
        self.prover_cache = false;
        self
    }

    /// Bound every governed call's wall-clock time. On exhaustion the
    /// call returns a structured `Budget` error (strict, the default)
    /// or the sound subset proved so far ([`HippoOptions::degraded`]).
    pub fn with_deadline(mut self, limit: Duration) -> Self {
        self.governance.deadline = Some(limit);
        self
    }

    /// Bound the rows a governed call may materialise/visit across all
    /// stages (envelope evaluation, prover loops).
    ///
    /// With more than one prover thread, the point where the budget
    /// trips in the prover stage depends on how the shards interleave,
    /// and so does whether a call whose budget is close to its need
    /// completes at all; at one prover thread both repeat exactly (see
    /// the determinism notes on [`hippo_engine::Budget`]).
    pub fn with_row_budget(mut self, rows: u64) -> Self {
        self.governance.row_budget = Some(rows);
        self
    }

    /// Degraded mode: a budget trip in the answer pipeline yields
    /// `Ok` with the sound subset proved so far and
    /// [`crate::budget::Completeness::TruncatedAt`] naming the stage,
    /// instead of an error. Conflict detection stays strict even here.
    pub fn degraded(mut self) -> Self {
        self.governance.degraded = true;
        self
    }

    /// Install a deterministic fault plan (tests / CI): the plan's
    /// fault fires **once** at its stage/shard checkpoint, then the
    /// plan is spent — later calls run clean.
    pub fn with_faults(mut self, plan: crate::budget::FaultPlan) -> Self {
        self.governance.faults = Some(Arc::new(plan));
        self
    }

    /// A handle that cancels any in-flight (or future) governed call on
    /// these options from another thread. Taking the handle arms
    /// cancellation: subsequent calls create a budget and check the
    /// flag cooperatively. The flag is sticky until
    /// [`CancelHandle::reset`].
    pub fn cancel_handle(&mut self) -> CancelHandle {
        self.governance.cancel_armed = true;
        self.governance.cancel.clone()
    }

    /// Whether the installed fault plan (if any) has fired. A plan
    /// pinned to a stage/shard checkpoint that a call never reaches
    /// stays unfired — tests use this to tell "the fault degraded the
    /// answer" apart from "the fault was never hit".
    pub fn governance_faults_fired(&self) -> bool {
        self.governance
            .faults
            .as_ref()
            .is_some_and(|p| p.has_fired())
    }

    /// Materialise the per-call [`Governance`]. Ungoverned options
    /// (no deadline, row budget, armed cancellation or fault plan)
    /// return an inactive governance whose checks compile to no-ops —
    /// that call takes exactly the pre-governance code path. Public so
    /// service layers can hand the same budget to engine calls that take
    /// a raw [`Budget`].
    pub fn governance(&self) -> Governance {
        let g = &self.governance;
        let governed =
            g.deadline.is_some() || g.row_budget.is_some() || g.cancel_armed || g.faults.is_some();
        if !governed {
            return Governance::default();
        }
        let mut budget = Budget::new();
        if let Some(limit) = g.deadline {
            budget = budget.with_deadline(limit);
        }
        if let Some(rows) = g.row_budget {
            budget = budget.with_row_limit(rows);
        }
        if g.cancel_armed {
            budget = budget.with_cancel_flag(g.cancel.clone());
        }
        Governance {
            budget: Some(Arc::new(budget)),
            faults: g.faults.clone(),
            degraded: g.degraded,
        }
    }
}

impl Default for HippoOptions {
    fn default() -> Self {
        HippoOptions::full()
    }
}

/// Statistics of one consistent-query-answering run. Every counter is
/// an exact sum over the answer pipeline's shards, independent of the
/// prover worker count.
#[derive(Debug, Clone, Default)]
pub struct AnswerStats {
    /// Candidate tuples returned by the envelope.
    pub candidates: usize,
    /// Tuples accepted without the prover by the core filter.
    pub filtered_consistent: usize,
    /// Candidates reaching the prover stage (each is decided either by
    /// a prover run or by a closure-signature cache hit).
    pub prover_calls: usize,
    /// Prover-stage candidates decided from a closure-signature cache
    /// (shard-local or persistent) without running the prover.
    pub prover_cache_hits: usize,
    /// Subset of [`AnswerStats::prover_cache_hits`] served by the
    /// persistent cross-call verdict cache (signatures proved by an
    /// earlier `answer` run on the same graph).
    pub prover_cache_cross_hits: usize,
    /// Prover shards the candidate list was decomposed into (`0` when
    /// there were no candidates).
    pub shards_used: usize,
    /// Prover-internal counters.
    pub prover: ProverRunStats,
    /// Always zero: every mode reads its membership flags from the
    /// extended envelope, so no membership query reaches the backend.
    /// The field is kept because `benchmark/API.md` pins it.
    pub membership_queries: usize,
    /// Always zero, as [`AnswerStats::membership_queries`]. The field
    /// is kept because `benchmark/API.md` pins it.
    pub membership_memo_hits: usize,
    /// Always zero, as [`AnswerStats::membership_queries`]. The field
    /// is kept because `benchmark/API.md` pins it.
    pub index_probes: usize,
    /// Consistent answers produced.
    pub answers: usize,
    /// Full budget checks performed across every governed stage and
    /// shard (`0` on ungoverned calls — no budget object exists).
    pub budget_checks: u64,
    /// Prover shards that stopped early on a budget trip (degraded
    /// mode); their accepted-so-far prefix is still sound.
    pub cancelled_shards: usize,
    /// The call ran in degraded mode (whether or not it truncated).
    pub degraded: bool,
    /// Time enveloping (template and envelope construction included) +
    /// evaluating candidates.
    pub t_envelope: Duration,
    /// Always zero: the core-filter test runs inside the prover shards
    /// and is counted in [`AnswerStats::t_prover`]. The field is kept
    /// because `benchmark/API.md` pins it.
    pub t_filter: Duration,
    /// Time in the sharded answer stage: flags, core-filter test,
    /// prover, merge and the final ordering of the answers.
    pub t_prover: Duration,
    /// Total wall-clock for the run.
    pub t_total: Duration,
}

impl fmt::Display for AnswerStats {
    /// One-line report, the same in every mode: shard count and cache
    /// hit rate (with the cross-call share) are always printed.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hit_rate = if self.prover_calls > 0 {
            100.0 * self.prover_cache_hits as f64 / self.prover_calls as f64
        } else {
            0.0
        };
        write!(
            f,
            "answers={} candidates={} filtered={} prover_calls={} shards={} \
             cache_hits={} ({hit_rate:.1}% hit rate, {} cross-call) \
             t_total={:.3}ms",
            self.answers,
            self.candidates,
            self.filtered_consistent,
            self.prover_calls,
            self.shards_used,
            self.prover_cache_hits,
            self.prover_cache_cross_hits,
            self.t_total.as_secs_f64() * 1e3,
        )?;
        if self.budget_checks > 0 || self.degraded {
            write!(
                f,
                " budget_checks={} cancelled_shards={}{}",
                self.budget_checks,
                self.cancelled_shards,
                if self.degraded { " degraded" } else { "" },
            )?;
        }
        Ok(())
    }
}
