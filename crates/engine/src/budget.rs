//! Per-call resource governance: deadlines, row budgets, cooperative
//! cancellation.
//!
//! A [`Budget`] is created once per top-level call (one `Database` query,
//! one consistent-answer computation) and threaded — by shared reference —
//! through every stage that can run long: the physical executor's
//! streaming loops, membership probing, conflict detection and the prover
//! shards. Stages *cooperate*: nothing is preempted; instead each hot
//! loop calls [`Budget::tick`] with a local stride counter and bails out
//! with a structured [`EngineError`] (kind [`crate::schema::ErrorKind::Budget`]
//! or [`crate::schema::ErrorKind::Cancelled`]) when the budget is gone.
//!
//! # Costs and strides
//!
//! A full [`Budget::check`] reads the monotonic clock, which is far too
//! expensive per row (a prover candidate costs ~150ns; `Instant::now`
//! alone is ~25ns). [`Budget::tick`] therefore only performs the full
//! check every [`CHECK_STRIDE`] calls — one well-predicted branch and a
//! local increment otherwise — which keeps the measured governance
//! overhead on the hot benchmark stages under 2% while still bounding
//! the reaction latency to a deadline or cancellation by a few thousand
//! row visits.
//!
//! Row accounting ([`Budget::charge_rows`]) is exact at the points that
//! charge, but because checks are strided a stage may overrun a row
//! budget by up to `CHECK_STRIDE` rows before it notices. That slack is
//! deliberate: budgets bound resource usage, they are not cursors.
//!
//! # Determinism
//!
//! All counters are relaxed atomics summed over deterministic per-shard
//! loops, so when no budget trips, [`Budget::checks`] is identical for
//! any worker-thread count. Where a budget trips is not always
//! repeatable:
//!
//! * a *deadline* trip point is wall-clock dependent by nature;
//! * a *row budget* trip point in the prover stage depends, with more
//!   than one prover thread, on how the shards interleave: each shard
//!   charges its pending rows to the one shared budget every
//!   [`CHECK_STRIDE`] candidates, so the total seen by the check that
//!   trips differs from run to run, and so does whether a call whose
//!   budget is near its need completes at all. At one prover thread a
//!   row budget trips at the same point every run.
//!
//! Callers must only rely on the soundness of whatever partial result
//! they assemble, never on where exactly the cut happened.
//!
//! # Cancellation
//!
//! [`Budget::with_cancel_flag`] wires in a cheap cloneable
//! [`CancelHandle`] that another thread can [`CancelHandle::cancel`] at
//! any time; the next
//! strided check in any stage observes the flag and unwinds with an
//! [`crate::schema::ErrorKind::Cancelled`] error. The flag is sticky
//! until [`CancelHandle::reset`].

use crate::schema::EngineError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stride of [`Budget::tick`]: one full check (clock read + flag loads)
/// every this many ticks. Power of two so the stride test is a mask.
/// At ~150ns per prover candidate (the slowest governed unit of work),
/// 256 bounds deadline/cancellation reaction latency to ~40µs while
/// keeping the full check off the hot path entirely.
pub const CHECK_STRIDE: u32 = 256;

/// A cloneable cancellation flag for a [`Budget`].
///
/// Wired into a budget by [`Budget::with_cancel_flag`]; tripping it makes every
/// stage sharing the budget unwind with a `Cancelled` error at its next
/// cooperative check.
#[derive(Debug, Clone, Default)]
pub struct CancelHandle(Arc<AtomicBool>);

impl CancelHandle {
    /// A fresh, untripped flag (for wiring into [`Budget::with_cancel_flag`]).
    pub(crate) fn new() -> CancelHandle {
        CancelHandle::default()
    }

    /// Trip the flag: the owning call unwinds at its next check.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has the flag been tripped?
    pub(crate) fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    /// Untrip the flag so the same handle can govern a later call.
    pub fn reset(&self) {
        self.0.store(false, Ordering::Relaxed);
    }
}

/// Per-call resource budget: optional deadline, optional row budget,
/// a cancellation flag, and exact check/row accounting.
///
/// Shared by reference (or `Arc`) across every stage of one call; all
/// state is atomic, so shards on different threads check and charge
/// concurrently without locks.
#[derive(Debug)]
pub struct Budget {
    start: Instant,
    deadline: Option<Instant>,
    time_limit: Option<Duration>,
    row_limit: Option<u64>,
    rows: AtomicU64,
    checks: AtomicU64,
    cancel: CancelHandle,
    /// Forced exhaustion (deterministic fault injection).
    forced: AtomicBool,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::new()
    }
}

impl Budget {
    /// An unlimited budget (useful as a base for the builders below; it
    /// never trips unless cancelled or force-tripped).
    pub fn new() -> Budget {
        Budget {
            start: Instant::now(),
            deadline: None,
            time_limit: None,
            row_limit: None,
            rows: AtomicU64::new(0),
            checks: AtomicU64::new(0),
            cancel: CancelHandle::new(),
            forced: AtomicBool::new(false),
        }
    }

    /// Bound the call's wall-clock time, measured from *now*.
    pub fn with_deadline(mut self, limit: Duration) -> Budget {
        self.start = Instant::now();
        self.deadline = Some(self.start + limit);
        self.time_limit = Some(limit);
        self
    }

    /// Bound the number of rows the call may materialise/visit.
    pub fn with_row_limit(mut self, rows: u64) -> Budget {
        self.row_limit = Some(rows);
        self
    }

    /// Share an existing cancellation flag (e.g. one handle governing a
    /// sequence of calls).
    pub fn with_cancel_flag(mut self, handle: CancelHandle) -> Budget {
        self.cancel = handle;
        self
    }

    /// A handle another thread can use to cancel this budget's call.
    #[cfg(test)]
    fn cancel_handle(&self) -> CancelHandle {
        self.cancel.clone()
    }

    /// Force the next check to report exhaustion (fault injection).
    pub fn force_trip(&self) {
        self.forced.store(true, Ordering::Relaxed);
    }

    /// Charge `n` rows against the row budget (checked at the next
    /// [`Budget::check`], not here).
    #[inline]
    pub fn charge_rows(&self, n: u64) {
        if self.row_limit.is_some() {
            self.rows.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Rows charged so far.
    pub fn rows_charged(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// Full checks performed so far (every stage, every shard).
    pub fn checks(&self) -> u64 {
        self.checks.load(Ordering::Relaxed)
    }

    /// One full cooperative check: counted, then cancellation, forced
    /// trip, deadline and row budget — in that order. `stage` names the
    /// pipeline stage for the structured error.
    pub fn check(&self, stage: &'static str) -> Result<(), EngineError> {
        self.checks.fetch_add(1, Ordering::Relaxed);
        if self.cancel.is_cancelled() {
            return Err(EngineError::cancelled(stage));
        }
        if self.forced.load(Ordering::Relaxed) {
            return Err(EngineError::budget(
                stage,
                self.rows.load(Ordering::Relaxed),
                0,
            ));
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                let spent = self.start.elapsed().as_micros() as u64;
                let limit = self.time_limit.unwrap_or_default().as_micros() as u64;
                return Err(EngineError::budget(stage, spent, limit));
            }
        }
        if let Some(limit) = self.row_limit {
            let spent = self.rows.load(Ordering::Relaxed);
            if spent > limit {
                return Err(EngineError::budget(stage, spent, limit));
            }
        }
        Ok(())
    }

    /// Strided check for hot loops: bumps the caller's local `counter`
    /// and runs a full [`Budget::check`] every [`CHECK_STRIDE`] ticks.
    #[inline]
    pub fn tick(&self, counter: &mut u32, stage: &'static str) -> Result<(), EngineError> {
        *counter = counter.wrapping_add(1);
        if *counter & (CHECK_STRIDE - 1) == 0 {
            self.check(stage)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ErrorKind;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::new();
        for _ in 0..1000 {
            b.check("t").unwrap();
        }
        assert_eq!(b.checks(), 1000);
    }

    #[test]
    fn deadline_trips_with_structured_error() {
        let b = Budget::new().with_deadline(Duration::ZERO);
        let err = b.check("prover").unwrap_err();
        match err.kind {
            ErrorKind::Budget { stage, limit, .. } => {
                assert_eq!(stage, "prover");
                assert_eq!(limit, 0);
            }
            ref k => panic!("expected Budget, got {k:?}"),
        }
        assert!(err.is_budget(), "{err}");
        assert!(err.is_governance());
    }

    #[test]
    fn row_budget_trips_after_limit() {
        let b = Budget::new().with_row_limit(10);
        b.charge_rows(10);
        b.check("engine").unwrap();
        b.charge_rows(1);
        let err = b.check("engine").unwrap_err();
        assert_eq!(
            err.kind,
            ErrorKind::Budget {
                stage: "engine",
                spent: 11,
                limit: 10
            }
        );
    }

    #[test]
    fn rows_not_counted_without_a_limit() {
        let b = Budget::new();
        b.charge_rows(5);
        assert_eq!(b.rows_charged(), 0, "no limit, no accounting");
    }

    #[test]
    fn cancellation_is_sticky_until_reset() {
        let b = Budget::new();
        let h = b.cancel_handle();
        b.check("t").unwrap();
        h.cancel();
        let err = b.check("detect").unwrap_err();
        assert_eq!(err.kind, ErrorKind::Cancelled { stage: "detect" });
        assert!(err.is_cancelled());
        h.reset();
        b.check("t").unwrap();
    }

    #[test]
    fn cancel_handle_works_across_threads() {
        let b = Budget::new();
        let h = b.cancel_handle();
        std::thread::scope(|s| {
            s.spawn(move || h.cancel());
        });
        assert!(b.check("t").is_err());
    }

    #[test]
    fn forced_trip_reports_budget_kind() {
        let b = Budget::new();
        b.force_trip();
        assert!(b.check("envelope").unwrap_err().is_budget());
    }

    #[test]
    fn tick_checks_only_on_the_stride() {
        let b = Budget::new().with_row_limit(0);
        b.charge_rows(1);
        let mut c = 0u32;
        for i in 1..CHECK_STRIDE {
            assert!(b.tick(&mut c, "t").is_ok(), "tick {i} below stride");
        }
        assert!(b.tick(&mut c, "t").is_err(), "stride boundary checks");
        assert_eq!(b.checks(), 1);
    }
}
