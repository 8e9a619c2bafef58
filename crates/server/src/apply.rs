//! The one path from an op to state. A commit [`apply`]s each
//! [`WriteOp`] and logs the [`WalOp`] it returns; recovery and replicas
//! [`replay`] that op through the same `apply`. Every rebuild of a
//! [`Hippo`] from a stored catalog (recovery, writer reset, replica
//! snapshot) is one [`restore`]. Checkpoints keep slot structure
//! exactly and inserts always append, so a replay that does not give
//! back the logged ids means the base image and the log disagree about
//! history: a corruption that is refused, never papered over.

use crate::wal::{Frame, WalOp};
use crate::WriteOp;
use hippo_cqa::constraint::DenialConstraint;
use hippo_cqa::hippo::{Hippo, HippoOptions};
use hippo_cqa::inclusion::ForeignKey;
use hippo_engine::{Catalog, Database, EngineError, TupleId};
use std::collections::HashSet;

/// Apply one op to `hippo` (recorded, so the next `redetect` reconciles
/// it) and return the tuple ids it assigned (inserts) or actually
/// removed (deletes); an update returns none. Inserts and updates are
/// validated up front, so `Err` means nothing landed.
pub(crate) fn apply(hippo: &mut Hippo, op: &WriteOp) -> Result<Vec<TupleId>, EngineError> {
    match op {
        WriteOp::Insert { table, rows } => hippo.insert_tuples(table, rows.clone()),
        WriteOp::Delete { table, tids } => {
            // Unknown, already-deleted and repeated ids are skipped, so
            // the log holds each deleted id once, in first-seen order.
            let t = hippo.db().catalog().table(table)?;
            let mut seen = HashSet::new();
            let live: Vec<TupleId> = tids
                .iter()
                .copied()
                .filter(|&id| t.get(id).is_some() && seen.insert(id))
                .collect();
            hippo.delete_tuples(table, &live)?;
            Ok(live)
        }
        WriteOp::Update { table, updates } => {
            hippo.update_tuples(table, updates.clone())?;
            Ok(Vec::new())
        }
    }
}

/// What the log records for `op` once [`apply`] returned `ids`. A
/// delete logs `ids`, so its requested tid list is not copied.
pub(crate) fn logged(op: &WriteOp, ids: Vec<TupleId>) -> WalOp {
    match op {
        WriteOp::Insert { table, rows } => WalOp::Insert {
            table: table.clone(),
            rows: rows.clone(),
            tids: ids,
        },
        WriteOp::Delete { table, .. } => WalOp::Delete {
            table: table.clone(),
            tids: ids,
        },
        WriteOp::Update { table, updates } => WalOp::Update {
            table: table.clone(),
            updates: updates.clone(),
        },
    }
}

/// Replay the logged `op` of frame `lsn` through [`apply`] and verify
/// it: insert ids must be equal, delete ids equal as sets (so a frame
/// logged with a repeated id still replays). A mismatch or an error
/// from `apply` is a [`diverged`] error.
pub(crate) fn replay(hippo: &mut Hippo, lsn: u64, op: WalOp) -> Result<(), EngineError> {
    let (write, want) = match op {
        WalOp::Insert { table, rows, tids } => (WriteOp::Insert { table, rows }, tids),
        WalOp::Delete { table, tids } => (
            WriteOp::Delete {
                table,
                tids: tids.clone(),
            },
            tids,
        ),
        WalOp::Update { table, updates } => (WriteOp::Update { table, updates }, Vec::new()),
    };
    let got = apply(hippo, &write).map_err(|e| diverged(format!("frame {lsn}: {}", e.message)))?;
    let set = |v: &[TupleId]| v.iter().copied().collect::<HashSet<_>>();
    let same = match write {
        WriteOp::Delete { .. } => set(&want) == set(&got),
        _ => want == got,
    };
    if !same {
        return Err(diverged(format!(
            "frame {lsn}: the log recorded {want:?}, replay produced {got:?}"
        )));
    }
    Ok(())
}

pub(crate) fn diverged(what: impl std::fmt::Display) -> EngineError {
    EngineError::new(format!(
        "replay diverged from the log ({what}) — the base image and the log \
         disagree about history, so one of them is corrupt"
    ))
}

/// Rebuild a reconciled [`Hippo`] from a stored `catalog` and the
/// committed `tail` past it: an unreconciled system over the catalog,
/// every op of the tail [`replay`]ed in order, then one full conflict
/// detection. Detection runs ungoverned; `options` (fault plans
/// included) apply to later calls only.
pub(crate) fn restore(
    catalog: Catalog,
    constraints: Vec<DenialConstraint>,
    foreign_keys: Vec<ForeignKey>,
    options: HippoOptions,
    tail: Vec<Frame>,
) -> Result<Hippo, EngineError> {
    let mut hippo =
        Hippo::unreconciled(Database::from_catalog(catalog), constraints, foreign_keys)?;
    for frame in tail {
        for op in frame.ops {
            replay(&mut hippo, frame.lsn, op)?;
        }
    }
    hippo.redetect()?;
    hippo.options = options;
    Ok(hippo)
}
