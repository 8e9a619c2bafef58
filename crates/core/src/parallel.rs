//! Scoped worker pools for sharded conflict detection and the parallel
//! answer pipeline (every answer mode).
//!
//! Work is decomposed into **shards** — deterministic units (index
//! shards, outer-atom tuple ranges, candidate-slice ranges)
//! whose outputs are merged in shard order, so the result never depends
//! on *which thread* ran a shard or in what order shards finished. This
//! module only supplies the execution side of that contract:
//!
//! * `run_indexed` runs one closure per task index across a
//!   [`std::thread::scope`] and returns the results **in task order**.
//!   Workers pull indices from a shared atomic counter (dynamic load
//!   balancing — shard sizes are data-dependent), and with one thread
//!   (or one task) everything runs inline on the caller's stack, so the
//!   sequential path pays no synchronization or spawn cost.
//! * `detect_threads` / `prover_threads` resolve worker counts from
//!   the `HIPPO_DETECT_THREADS` / `HIPPO_PROVER_THREADS` environment
//!   variables when set (≥ 1), else the machine's available
//!   parallelism, capped at `MAX_THREADS`.
//!
//! Nothing here is specific to detection or proving; the pools are
//! generic fork-joins over indexed task lists. Determinism is the
//! *caller's* obligation: each task closure must depend only on its
//! index.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the detection worker count.
pub(crate) const THREADS_ENV: &str = "HIPPO_DETECT_THREADS";

/// Environment variable overriding the prover worker count.
pub(crate) const PROVER_THREADS_ENV: &str = "HIPPO_PROVER_THREADS";

/// Upper bound on auto-detected workers (an override may exceed it).
pub(crate) const MAX_THREADS: usize = 16;

fn threads_from_env(var: &str) -> usize {
    if let Ok(s) = std::env::var(var) {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_THREADS)
}

/// Number of detection worker threads: `HIPPO_DETECT_THREADS` if set to
/// a positive integer, otherwise available parallelism capped at
/// [`MAX_THREADS`]. Always ≥ 1.
pub(crate) fn detect_threads() -> usize {
    threads_from_env(THREADS_ENV)
}

/// Number of prover worker threads: `HIPPO_PROVER_THREADS` if set to a
/// positive integer, otherwise available parallelism capped at
/// [`MAX_THREADS`]. Always ≥ 1.
pub(crate) fn prover_threads() -> usize {
    threads_from_env(PROVER_THREADS_ENV)
}

/// Run `f(0), f(1), …, f(tasks - 1)` across at most `threads` scoped
/// workers and return the results in task-index order. `threads ≤ 1`
/// (or `tasks ≤ 1`) runs inline with no thread machinery at all.
pub(crate) fn run_indexed<T, F>(tasks: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.max(1).min(tasks);
    if workers <= 1 {
        return (0..tasks).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(tasks));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= tasks {
                        break;
                    }
                    local.push((i, f(i)));
                }
                if !local.is_empty() {
                    collected.lock().unwrap().extend(local);
                }
            });
        }
    });
    let mut pairs = collected.into_inner().unwrap();
    debug_assert_eq!(pairs.len(), tasks);
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, t)| t).collect()
}

/// A panic caught from one task of [`run_indexed_isolated`]: the task
/// index plus the panic payload's message (when it was a string).
#[derive(Debug, Clone)]
pub(crate) struct TaskPanic {
    /// Index of the task whose closure panicked.
    pub task: usize,
    /// The panic message, or `"non-string panic payload"`.
    pub message: String,
}

/// Extract a human-readable message from a caught panic payload.
///
/// Public so service layers that `catch_unwind` around a whole write
/// transaction (not just one worker task) can produce the same
/// structured panic messages as the in-crate isolation wrappers.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Like [`run_indexed`], but a panicking task poisons **only its own
/// slot**: every other task still runs to completion, and the caller
/// receives `Err(TaskPanic)` in the panicked task's position instead of
/// an unwinding thread. The inline (`threads ≤ 1`) path catches
/// identically, so behaviour does not depend on the worker count.
///
/// This is the prover-shard contract: one bad candidate must not
/// destroy the other 15 shards' work or leave the caller's state
/// half-merged — the caller inspects the results, drains everything,
/// and surfaces the first panic as a structured error.
pub(crate) fn run_indexed_isolated<T, F>(
    tasks: usize,
    threads: usize,
    f: F,
) -> Vec<Result<T, TaskPanic>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let run_one = |i: usize| -> Result<T, TaskPanic> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))).map_err(|payload| {
            TaskPanic {
                task: i,
                message: panic_message(payload.as_ref()),
            }
        })
    };
    let workers = threads.max(1).min(tasks);
    if workers <= 1 {
        return (0..tasks).map(run_one).collect();
    }
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, Result<T, TaskPanic>)>> =
        Mutex::new(Vec::with_capacity(tasks));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local: Vec<(usize, Result<T, TaskPanic>)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= tasks {
                        break;
                    }
                    local.push((i, run_one(i)));
                }
                if !local.is_empty() {
                    collected.lock().unwrap().extend(local);
                }
            });
        }
    });
    let mut pairs = collected.into_inner().unwrap();
    debug_assert_eq!(pairs.len(), tasks);
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, t)| t).collect()
}

/// Split `0..len` into at most `parts` contiguous ranges of near-equal
/// size (never returns empty ranges; fewer parts when `len < parts`).
/// The decomposition depends only on `len` and `parts`, making it a
/// deterministic sharding unit for slot-range partitioning.
pub fn split_ranges(len: usize, parts: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, len);
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut lo = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        out.push((lo, lo + size));
        lo += size;
    }
    debug_assert_eq!(lo, len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_task_order() {
        for threads in [1, 2, 4, 7] {
            let got = run_indexed(20, threads, |i| i * i);
            let want: Vec<usize> = (0..20).map(|i| i * i).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn zero_and_one_tasks() {
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn isolated_matches_run_indexed_when_nothing_panics() {
        for threads in [1, 2, 4, 7] {
            let got: Vec<usize> = run_indexed_isolated(20, threads, |i| i * i)
                .into_iter()
                .map(|r| r.unwrap())
                .collect();
            let want: Vec<usize> = (0..20).map(|i| i * i).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn isolated_panic_poisons_only_its_slot() {
        for threads in [1, 2, 4] {
            let got = run_indexed_isolated(16, threads, |i| {
                if i == 7 {
                    panic!("shard 7 failure");
                }
                i * 10
            });
            assert_eq!(got.len(), 16, "threads={threads}: every slot drained");
            for (i, r) in got.iter().enumerate() {
                if i == 7 {
                    let p = r.as_ref().unwrap_err();
                    assert_eq!(p.task, 7);
                    assert!(p.message.contains("shard 7 failure"), "{}", p.message);
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 10, "sibling {i} completed");
                }
            }
        }
    }

    #[test]
    fn isolated_reports_every_panicking_task() {
        let got = run_indexed_isolated(8, 4, |i| {
            if i % 2 == 0 {
                panic!("task {i}");
            }
            i
        });
        let failed: Vec<usize> = got
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_err())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(failed, vec![0, 2, 4, 6]);
    }

    #[test]
    fn split_ranges_cover_exactly() {
        for len in [0usize, 1, 5, 16, 17, 1000] {
            for parts in [1usize, 2, 3, 8, 40] {
                let ranges = split_ranges(len, parts);
                let mut expect_lo = 0;
                for &(lo, hi) in &ranges {
                    assert_eq!(lo, expect_lo);
                    assert!(hi > lo, "no empty ranges");
                    expect_lo = hi;
                }
                assert_eq!(expect_lo, len, "ranges cover 0..{len}");
                assert!(ranges.len() <= parts.max(1));
            }
        }
    }

    #[test]
    fn detect_threads_is_positive() {
        assert!(detect_threads() >= 1);
        assert!(prover_threads() >= 1);
    }
}
