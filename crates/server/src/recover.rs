//! Crash recovery: checkpoint + committed log suffix → the exact
//! pre-crash published state.
//!
//! ```text
//! recover(dir):
//!   1. read checkpoint.bin        → catalog image, last_lsn
//!   2. scan wal.bin               → committed frames, torn tail gone
//!   3. replay frames lsn > last_lsn onto an unreconciled Hippo over
//!      the catalog, in LSN order, through the commit path's own apply
//!   4. (caller) one full conflict re-detection
//!   5. (caller) publish epoch 1
//! ```
//!
//! Replay is self-verifying: each logged op carries the tuple ids the
//! live engine produced, and replaying it through the same `apply` must
//! produce them again (inserts equal, deletes equal as a set).
//! Abandoned-audit frames are counted but never replayed.
//!
//! Conflict state is *not* logged: the hypergraph is derived data, so
//! step 4 recomputes it from scratch — recovery can never resurrect a
//! stale conflict verdict.

use crate::apply::restore;
use crate::checkpoint::read_checkpoint;
use crate::wal::{Frame, FrameKind, Wal};
use hippo_cqa::hippo::HippoOptions;
use hippo_engine::{Catalog, EngineError};
use std::path::Path;

/// What a recovery pass found and did (exposed via
/// [`crate::Engine::recovery_report`]).
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// The WAL position the checkpoint already covered.
    pub checkpoint_lsn: u64,
    /// Committed frames replayed on top of it.
    pub frames_replayed: u64,
    /// Individual ops inside those frames.
    pub ops_replayed: u64,
    /// Abandoned-audit frames seen (and skipped).
    pub abandoned_skipped: u64,
    /// Whether a torn/corrupt log tail was truncated.
    pub torn_tail_truncated: bool,
    /// Bytes discarded with that tail.
    pub truncated_bytes: u64,
    /// Committed log size after the scan.
    pub wal_bytes: u64,
}

impl std::fmt::Display for RecoveryReport {
    /// One-line report in the `DetectStats`/`ServiceStats` family
    /// style: counters first, sizes after, flags last.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "checkpoint_lsn={} frames_replayed={} ops_replayed={} \
             abandoned_skipped={} wal_bytes={}",
            self.checkpoint_lsn,
            self.frames_replayed,
            self.ops_replayed,
            self.abandoned_skipped,
            self.wal_bytes,
        )?;
        if self.torn_tail_truncated {
            write!(f, " torn_tail_truncated={}B", self.truncated_bytes)?;
        }
        Ok(())
    }
}

/// Load the directory's checkpoint, scan its log, and replay the
/// committed suffix. Returns the recovered catalog, the open log
/// (positioned for further appends), and a report. The caller owns
/// re-running conflict detection and publishing.
///
/// Errors if no checkpoint exists — a durability directory is always
/// born with one (see [`crate::Engine::new_durable`]), so its absence
/// means this was never a durability directory.
pub fn recover_dir(dir: &Path) -> Result<(Catalog, Wal, RecoveryReport), EngineError> {
    let (catalog, wal, tail, report) = read_dir(dir)?;
    // With no constraints the restore's detection has nothing to do.
    let mut hippo = restore(
        catalog,
        Vec::new(),
        Vec::new(),
        HippoOptions::default(),
        tail,
    )?;
    let catalog = std::mem::take(hippo.db_mut().catalog_mut());
    Ok((catalog, wal, report))
}

/// Load the checkpoint and scan the log: the checkpoint's catalog, the
/// open log, the committed frames past the checkpoint (the tail to
/// replay), and the report counting them. Replays nothing.
pub(crate) fn read_dir(
    dir: &Path,
) -> Result<(Catalog, Wal, Vec<Frame>, RecoveryReport), EngineError> {
    let ck = read_checkpoint(dir)?.ok_or_else(|| {
        EngineError::new(format!(
            "recover: no checkpoint in {} — not a durability directory \
             (Engine::new_durable creates one at birth)",
            dir.display()
        ))
    })?;
    let (mut wal, scan) = Wal::open(dir)?;
    // Re-teach the log the checkpoint's position: an empty (truncated)
    // log must keep assigning LSNs *past* the checkpoint, or the next
    // recovery would skip the new frames as already-covered.
    wal.set_floor(ck.last_lsn);
    let mut report = RecoveryReport {
        checkpoint_lsn: ck.last_lsn,
        torn_tail_truncated: scan.torn_tail,
        truncated_bytes: scan.truncated_bytes,
        wal_bytes: wal.len(),
        ..RecoveryReport::default()
    };
    let mut tail = Vec::new();
    for frame in scan.frames {
        if frame.kind == FrameKind::Abandoned {
            report.abandoned_skipped += 1;
        } else if frame.lsn > ck.last_lsn {
            // (Frames at or below it were already folded into the
            // checkpoint: the crash landed between the checkpoint
            // rename and the log truncation.)
            report.frames_replayed += 1;
            report.ops_replayed += frame.ops.len() as u64;
            tail.push(frame);
        }
    }
    Ok((ck.catalog, wal, tail, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::write_checkpoint;
    use crate::wal::WalOp;
    use hippo_cqa::budget::Governance;
    use hippo_engine::{Database, TupleId, Value};
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "hippo-rec-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn seed_catalog() -> Catalog {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INT PRIMARY KEY, b TEXT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
            .unwrap();
        db.catalog().clone()
    }

    #[test]
    fn replays_committed_suffix_and_skips_covered_and_abandoned() {
        let dir = tmp_dir("replay");
        let gov = Governance::default();
        write_checkpoint(&dir, &seed_catalog(), 0, &gov).unwrap();
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            wal.append(
                &[
                    (
                        FrameKind::Commit,
                        vec![WalOp::Insert {
                            table: "t".into(),
                            rows: vec![vec![Value::Int(3), Value::text("z")]],
                            tids: vec![TupleId(2)],
                        }],
                    ),
                    (
                        FrameKind::Abandoned,
                        vec![WalOp::Delete {
                            table: "t".into(),
                            tids: vec![TupleId(0)],
                        }],
                    ),
                    (
                        FrameKind::Commit,
                        vec![WalOp::Delete {
                            table: "t".into(),
                            tids: vec![TupleId(1)],
                        }],
                    ),
                ],
                &gov,
            )
            .unwrap();
        }
        let (catalog, _wal, report) = recover_dir(&dir).unwrap();
        assert_eq!(report.frames_replayed, 2);
        assert_eq!(report.abandoned_skipped, 1);
        assert_eq!(report.ops_replayed, 2);
        let t = catalog.table("t").unwrap();
        assert!(t.get(TupleId(0)).is_some(), "abandoned delete not applied");
        assert!(t.get(TupleId(1)).is_none(), "committed delete applied");
        assert_eq!(
            t.get(TupleId(2)).unwrap()[0],
            Value::Int(3),
            "insert replayed at the recorded tid"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tid_mismatch_is_a_loud_corruption_error() {
        let dir = tmp_dir("tidmismatch");
        let gov = Governance::default();
        write_checkpoint(&dir, &seed_catalog(), 0, &gov).unwrap();
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            // The live engine would have assigned tid 2; the log lies.
            wal.append(
                &[(
                    FrameKind::Commit,
                    vec![WalOp::Insert {
                        table: "t".into(),
                        rows: vec![vec![Value::Int(3), Value::text("z")]],
                        tids: vec![TupleId(9)],
                    }],
                )],
                &gov,
            )
            .unwrap();
        }
        let err = recover_dir(&dir).unwrap_err();
        assert!(err.message.contains("diverged"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_display_is_one_line() {
        let r = RecoveryReport {
            checkpoint_lsn: 5,
            frames_replayed: 3,
            ops_replayed: 7,
            abandoned_skipped: 1,
            torn_tail_truncated: false,
            truncated_bytes: 0,
            wal_bytes: 480,
        };
        let line = r.to_string();
        assert!(line.contains("checkpoint_lsn=5"), "{line}");
        assert!(line.contains("frames_replayed=3"), "{line}");
        assert!(!line.contains("torn_tail"), "{line}");
        let torn = RecoveryReport {
            torn_tail_truncated: true,
            truncated_bytes: 12,
            ..r
        };
        assert!(torn.to_string().ends_with("torn_tail_truncated=12B"));
    }

    #[test]
    fn recovered_wal_continues_lsns_past_the_checkpoint() {
        let dir = tmp_dir("lsncont");
        let gov = Governance::default();
        // A checkpoint at lsn 40 whose log was already truncated.
        write_checkpoint(&dir, &seed_catalog(), 40, &gov).unwrap();
        let (_, wal, report) = recover_dir(&dir).unwrap();
        assert_eq!(report.checkpoint_lsn, 40);
        assert_eq!(
            wal.next_lsn(),
            41,
            "an empty recovered log must not reuse checkpointed LSNs"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_checkpoint_is_refused() {
        let dir = tmp_dir("nockp");
        let err = recover_dir(&dir).unwrap_err();
        assert!(err.message.contains("no checkpoint"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
