//! Client-side retry with jittered exponential backoff.
//!
//! Only **transient** service errors are retried —
//! [`EngineError::is_retryable`] is `Overloaded` (shed at admission)
//! or `Cancelled` — because retrying a `Budget` trip would trip the
//! same budget again and a `WorkerPanic` needs investigation, not a
//! resend. The backoff doubles per attempt, is capped, and is
//! multiplied by a seeded random factor in `[0.5, 1.0]` so a herd of
//! shed clients does not re-arrive in lockstep; an explicit
//! `retry_after` hint from the server acts as a floor.

use hippo_engine::EngineError;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::Duration;

/// Retry policy for one logical request. Deterministic for a given
/// seed, so a test replays identical schedules.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (`1` = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base: Duration,
    /// Upper bound on any single backoff sleep.
    pub cap: Duration,
    /// Jitter seed (vendored xoshiro256++; same seed → same jitter).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(50),
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (0-based: the sleep after
    /// the first failure is `backoff(0)`), pre-jitter.
    fn backoff(&self, attempt: u32) -> Duration {
        let exp = self.base.saturating_mul(1u32 << attempt.min(16));
        exp.min(self.cap)
    }

    /// Run `op` until it succeeds, fails non-retryably, or exhausts
    /// `max_attempts`. The closure receives the 0-based attempt
    /// number. Returns the last error on exhaustion.
    pub fn run<T>(
        &self,
        mut op: impl FnMut(u32) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut attempt = 0;
        loop {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_retryable() && attempt + 1 < self.max_attempts => {
                    // Jitter in [0.5, 1.0]: late enough to back off,
                    // spread enough to break up retry herds.
                    let jitter_permille = rng.gen_range(500u64..=1000);
                    let mut sleep = self
                        .backoff(attempt)
                        .mul_f64(jitter_permille as f64 / 1000.0);
                    if let Some(hint) = e.retry_after() {
                        // The server told us when capacity might free
                        // up; don't come back sooner.
                        sleep = sleep.max(hint);
                    }
                    std::thread::sleep(sleep);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hippo_engine::EngineError as E;
    use std::time::Instant;

    #[test]
    fn retries_overloaded_until_success() {
        let policy = RetryPolicy {
            base: Duration::from_millis(1),
            ..RetryPolicy::default()
        };
        let mut calls = 0;
        let out = policy.run(|attempt| {
            calls += 1;
            if attempt < 2 {
                Err(E::overloaded(Duration::from_millis(1)))
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out.unwrap(), 2);
        assert_eq!(calls, 3);
    }

    #[test]
    fn does_not_retry_budget_or_panic_errors() {
        let policy = RetryPolicy::default();
        let mut calls = 0;
        let err = policy
            .run::<()>(|_| {
                calls += 1;
                Err(E::budget("prover", 1, 1))
            })
            .unwrap_err();
        assert!(err.is_budget());
        assert_eq!(calls, 1, "budget trips are not transient");

        let mut calls = 0;
        let err = policy
            .run::<()>(|_| {
                calls += 1;
                Err(E::worker_panic("prover", 3, "boom"))
            })
            .unwrap_err();
        assert!(err.is_worker_panic());
        assert_eq!(calls, 1);
    }

    #[test]
    fn exhaustion_returns_the_last_error() {
        let policy = RetryPolicy {
            max_attempts: 3,
            base: Duration::from_micros(100),
            cap: Duration::from_micros(200),
            seed: 9,
        };
        let mut calls = 0;
        let err = policy
            .run::<()>(|_| {
                calls += 1;
                Err(E::cancelled("prover"))
            })
            .unwrap_err();
        assert!(err.is_cancelled());
        assert_eq!(calls, 3);
    }

    #[test]
    fn honors_the_retry_after_floor() {
        let policy = RetryPolicy {
            max_attempts: 2,
            base: Duration::from_micros(1),
            cap: Duration::from_micros(2),
            seed: 1,
        };
        let t0 = Instant::now();
        let _ = policy.run::<()>(|attempt| {
            if attempt == 0 {
                Err(E::overloaded(Duration::from_millis(20)))
            } else {
                Err(E::cancelled("prover"))
            }
        });
        assert!(
            t0.elapsed() >= Duration::from_millis(20),
            "slept at least the hint: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn same_seed_same_schedule() {
        let p = RetryPolicy::default();
        let mut a = StdRng::seed_from_u64(p.seed);
        let mut b = StdRng::seed_from_u64(p.seed);
        for _ in 0..16 {
            assert_eq!(a.gen_range(500u64..=1000), b.gen_range(500u64..=1000));
        }
    }
}
