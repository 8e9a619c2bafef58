//! What one thread of a run observes: timings, responses to check, the
//! traced run's per-layer samples, and the failure count.

use crate::gen::Answer;
use crate::service::Res;
use crate::stats::median;
use std::collections::BTreeMap;
use std::time::Duration;

/// One checked response: which query, against how many applied transactions.
pub struct ReadObs {
    pub query: usize,
    pub writes_applied: u64,
    pub answer: Answer,
}

/// Everything one thread of a run observes.
#[derive(Default)]
pub struct Obs {
    pub cqa_ms: Vec<f64>,
    pub traced_cqa_ms: Vec<f64>,
    pub write_ms: Vec<f64>,
    pub write_txns: u64,
    /// Wall time of the timed read phase and of the timed write phase: the
    /// denominators of `cqa_qps` and `write_tps`.
    pub read_wall_s: f64,
    pub write_wall_s: f64,
    pub late_ms: Vec<f64>,
    pub reads: Vec<ReadObs>,
    /// Per-layer samples and running sums from the traced run, by name.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub sums: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Obs {
    pub fn sample(&mut self, name: &'static str, x: f64) {
        self.samples.entry(name).or_default().push(x);
    }

    pub fn add(&mut self, name: &'static str, x: f64) {
        *self.sums.entry(name).or_default() += x;
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    pub fn med(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| median(v))
    }

    pub fn fail(&mut self, note: impl Into<String>) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note.into());
        }
    }

    /// Count one checked operation; `Err` or `Ok(false)` is a failure.
    pub fn check(&mut self, what: &str, outcome: Res<bool>) {
        self.attempted += 1;
        match outcome {
            Ok(true) => {}
            Ok(false) => self.fail(format!("{what}: oracle mismatch")),
            Err(e) => self.fail(format!("{what}: {e}")),
        }
    }

    pub fn merge(&mut self, other: Obs) {
        self.cqa_ms.extend(other.cqa_ms);
        self.traced_cqa_ms.extend(other.traced_cqa_ms);
        self.write_ms.extend(other.write_ms);
        self.write_txns += other.write_txns;
        self.read_wall_s += other.read_wall_s;
        self.write_wall_s += other.write_wall_s;
        self.late_ms.extend(other.late_ms);
        self.reads.extend(other.reads);
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
        for (k, v) in other.sums {
            *self.sums.entry(k).or_default() += v;
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
