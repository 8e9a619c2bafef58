//! The write path: commits through the engine, the traced run's scratch
//! replay of each commit, and the closed- and open-loop writers.

use crate::gen::{Op, TABLES};
use crate::obs::{ms, Obs};
use crate::service::{int_row, scratch_hippo, to_write_op, Res, Service};
use crate::trace::Tracer;
use crate::workloads::{History, Workload};
use hippo_cqa::budget::Governance;
use hippo_cqa::hippo::{FrozenHippo, Hippo};
use hippo_engine::TupleId;
use hippo_server::checkpoint::{write_checkpoint, CHECKPOINT_FILE};
use hippo_server::wal::{encode_frame_payload, Frame, FrameKind, Wal, WalOp};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// `mixed_rw`'s open-loop writer: one `write_group` of this many single-row
/// transactions every period, whatever the engine's speed.
pub const GROUP_SIZE: usize = 4;
const GROUP_PERIOD: Duration = Duration::from_micros(62_500);
/// The scratch replay re-runs full detection / a checkpoint this often.
const FULL_DETECT_EVERY: u64 = 50;
const CHECKPOINT_EVERY: u64 = 64;

/// The traced run's second copy of the system: a `Hippo` that receives the
/// same operations as the engine, and a WAL + checkpoint directory of its
/// own, so each write-path layer can be called — and timed — by itself.
pub struct Scratch {
    hippo: Hippo,
    /// The latest frozen view, held like the engine holds its published
    /// epoch: while it lives, the next mutation copies the touched table
    /// (copy-on-write), and that cost belongs to `hippo.apply`.
    published: FrozenHippo,
    /// A reader has the published epoch pinned whenever the next one replaces
    /// it (`mixed_rw`), so the reader, not the writer, drops it last.
    reader_pins: bool,
    wal: Wal,
    dir: PathBuf,
    txns: u64,
    txns_at_checkpoint: u64,
}

impl Scratch {
    pub fn new(svc: &Service, reader_pins: bool) -> Res<Scratch> {
        let rows = svc.rows.as_ref().ok_or("traced run keeps its rows")?;
        let dir = svc.dir.with_extension("scratch");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        let (wal, _) = Wal::open(&dir)?;
        let hippo = scratch_hippo(rows, svc.mode)?;
        Ok(Scratch {
            published: hippo.freeze()?,
            hippo,
            reader_pins,
            wal,
            dir,
            txns: 0,
            txns_at_checkpoint: 0,
        })
    }

    /// Replay one commit group layer by layer. `tids` are the ids the engine
    /// assigned to the group's inserts; the scratch copy must assign the same.
    fn replay(
        &mut self,
        tr: &mut Tracer,
        ops: &[Op],
        tids: &[Option<u32>],
        obs: &mut Obs,
    ) -> Res<()> {
        let gov = Governance::default();
        let (out, _) = tr.span("replay.write", |tr| -> Res<()> {
            let hippo = &mut self.hippo;
            let (walops, _) = tr.span("hippo.apply", |_| -> Res<Vec<WalOp>> {
                ops.iter().map(|op| apply_to(hippo, op)).collect()
            });
            let walops = walops?;
            for (walop, want) in walops.iter().zip(tids) {
                if let WalOp::Insert { tids: got, .. } = walop {
                    if got.first().map(|t| t.0) != *want {
                        return Err("scratch copy assigned a different tuple id".into());
                    }
                }
            }
            // Only to keep the copy in step: the reported redetect time is the
            // engine's own, from the write receipt (see `commit`).
            let (detect, _) = tr.span("scratch.redetect", |_| hippo.redetect());
            detect?;
            let (frozen, _) = tr.span("hippo.freeze", |_| hippo.freeze());
            let frozen = frozen?;
            obs.sample("hypergraph.edges", frozen.graph().edge_count() as f64);

            let first_lsn = self.wal.next_lsn();
            let batch: Vec<(FrameKind, Vec<WalOp>)> = walops
                .into_iter()
                .map(|op| (FrameKind::Commit, vec![op]))
                .collect();
            let len_before = self.wal.len();
            let (lsns, _) = tr.span("wal.append_fsync", |_| self.wal.append(&batch, &gov));
            let last_lsn = *lsns?.last().ok_or("empty commit group")?;
            obs.add("wal.bytes", (self.wal.len() - len_before) as f64);
            obs.add("wal.txns", ops.len() as f64);
            // Publishing swaps the epoch pointer; the cost is retiring the
            // previous epoch (its table copy and graph), and whoever holds it
            // last pays: the writer here, unless a reader has it pinned.
            let mut pinned = None;
            tr.span("server.publish", |_| {
                let previous = std::mem::replace(&mut self.published, frozen);
                if self.reader_pins {
                    pinned = Some(previous);
                }
            });
            drop(pinned);
            // `append` encodes the frames itself; encoding them once more here
            // times that step alone (off the path, so that the stages above run
            // in the engine's order: apply, redetect, freeze, append, publish).
            tr.span("wal.encode", |_| {
                for (i, (kind, ops)) in batch.iter().enumerate() {
                    std::hint::black_box(encode_frame_payload(&Frame {
                        lsn: first_lsn + i as u64,
                        kind: *kind,
                        ops: ops.clone(),
                    }));
                }
            });

            let before = self.txns;
            self.txns += ops.len() as u64;
            if before == 0 || before / FULL_DETECT_EVERY != self.txns / FULL_DETECT_EVERY {
                let (full, _) = tr.span("detect.full", |_| self.hippo.redetect_full());
                full?;
            }
            if before == 0 || before / CHECKPOINT_EVERY != self.txns / CHECKPOINT_EVERY {
                let catalog = self.hippo.db().catalog();
                let (written, _) = tr.span("checkpoint.write", |_| {
                    write_checkpoint(&self.dir, catalog, last_lsn, &gov)
                });
                written?;
                self.wal.truncate_all()?;
                let bytes = std::fs::metadata(self.dir.join(CHECKPOINT_FILE))?.len();
                // Amortised over the transactions the checkpoint absorbed (the
                // very first one absorbs a single group; use the cadence).
                let absorbed = (self.txns - self.txns_at_checkpoint).max(CHECKPOINT_EVERY);
                obs.sample("checkpoint.bytes_per_txn", bytes as f64 / absorbed as f64);
                self.txns_at_checkpoint = self.txns;
            }
            Ok(())
        });
        out
    }
}

/// Apply one generated op to the scratch `Hippo` through the same recorded
/// mutators the engine's writer uses; returns the op as the WAL would log it.
fn apply_to(hippo: &mut Hippo, op: &Op) -> Res<WalOp> {
    let table = TABLES[op.table()].to_string();
    Ok(match *op {
        Op::Insert { k, v, payload, .. } => {
            let rows = vec![int_row(&[k as i64, v, payload])];
            let tids = hippo.insert_tuples(&table, rows.clone())?;
            WalOp::Insert { table, rows, tids }
        }
        Op::Update {
            k, tid, v, payload, ..
        } => {
            let updates = vec![(TupleId(tid), int_row(&[k as i64, v, payload]))];
            hippo.update_tuples(&table, updates.clone())?;
            WalOp::Update { table, updates }
        }
        Op::Delete { tid, .. } => {
            let tids = vec![TupleId(tid)];
            hippo.delete_tuples(&table, &tids)?;
            WalOp::Delete { table, tids }
        }
    })
}

/// The tracing state the writer carries in a traced run.
pub struct WriteTrace<'a> {
    pub tracer: &'a mut Tracer,
    pub scratch: &'a mut Scratch,
}

/// What one commit group cost: the engine call's wall, and the time of its
/// one reconciliation as the receipts report it.
pub struct Committed {
    pub wall: Duration,
    pub redetect: Duration,
}

/// Commit one group through the engine (`write` for a single transaction,
/// `write_group` otherwise), fold it into the model, and — traced — replay it
/// on the scratch copy and sample the replica's lag.
pub fn commit(
    svc: &mut Service,
    ops: &[Op],
    obs: &mut Obs,
    mut wt: Option<&mut WriteTrace<'_>>,
) -> Res<Committed> {
    obs.attempted += ops.len() as u64;
    let txns: Vec<_> = ops.iter().map(|op| vec![to_write_op(op)]).collect();
    let engine = svc.engine().clone();
    let call = move || match <[_; 1]>::try_from(txns) {
        Ok([only]) => Ok(vec![engine.write(only)]),
        Err(txns) => engine.write_group(txns),
    };
    let (receipts, wall) = match wt.as_mut() {
        Some(wt) => {
            wt.tracer.begin_request();
            wt.tracer.span("server.write", |tr| {
                let receipts = call();
                // One reconciliation serves the whole group; every receipt
                // carries its stats.
                if let Ok(Some(Ok(first))) = receipts.as_ref().map(|r| r.first()) {
                    tr.derived(&[("detect.redetect", first.detect.elapsed)]);
                    obs.add("detect.runs", 1.0);
                    obs.add(
                        "detect.incremental",
                        f64::from(u8::from(first.detect.incremental)),
                    );
                    obs.add(
                        "detect.combinations",
                        first.detect.combinations_checked as f64,
                    );
                }
                receipts
            })
        }
        None => {
            let t0 = Instant::now();
            let receipts = call();
            (receipts, t0.elapsed())
        }
    };
    let mut tids = Vec::with_capacity(ops.len());
    let mut redetect = Duration::ZERO;
    for (op, receipt) in ops.iter().zip(receipts?) {
        match receipt {
            Ok(receipt) => {
                redetect = receipt.detect.elapsed;
                tids.push(receipt.inserted.first().map(|t| t.0));
                svc.acknowledge(op, &receipt);
            }
            Err(e) => obs.fail(format!("write: {e}")),
        }
    }
    if let Some(wt) = wt {
        // A refused transaction leaves the two copies out of step; nothing
        // later on the scratch copy would mean anything.
        if tids.len() != ops.len() {
            return Err("a write failed in the traced run".into());
        }
        // How far behind the replica is at the acknowledgement, and how long
        // it takes to apply what it lacks. Waiting also keeps its work from
        // competing with the replay below for the two cores.
        if let Some(replica) = &svc.replica {
            obs.sample("replicate.lag_frames", replica.staleness().lsn_lag as f64);
            let catchup = svc.wait_replica(Duration::from_secs(60))?;
            obs.sample("replicate.catchup_ms", ms(catchup));
        }
        wt.scratch.replay(wt.tracer, ops, &tids, obs)?;
    }
    Ok(Committed { wall, redetect })
}

/// Closed-loop single-row writes until `deadline`.
pub fn write_phase(
    svc: &mut Service,
    deadline: Instant,
    obs: &mut Obs,
    wt: &mut Option<WriteTrace<'_>>,
) -> Res<()> {
    let start = Instant::now();
    while Instant::now() < deadline {
        // Closed loop: a request is due when the previous one is done.
        let due = Instant::now();
        let ops = svc.next_group(1);
        obs.late_ms.push(ms(due.elapsed()));
        let wall = commit(svc, &ops, obs, wt.as_mut())?.wall;
        obs.write_ms.push(ms(wall));
        obs.write_txns += 1;
    }
    obs.write_wall_s += start.elapsed().as_secs_f64();
    Ok(())
}

/// `mixed_rw`'s writer: one group every [`GROUP_PERIOD`] on a fixed schedule,
/// latency counted from the due time. After every group the expected answers
/// of all queries are recorded under the new `writes_applied`.
pub fn open_loop_writer(
    svc: &mut Service,
    wl: &Workload,
    deadline: Instant,
    obs: &mut Obs,
    history: &mut History,
    wt: &mut Option<WriteTrace<'_>>,
) -> Res<()> {
    let start = Instant::now();
    for i in 0.. {
        let due = start + GROUP_PERIOD * i;
        if due >= deadline {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let ops = svc.next_group(GROUP_SIZE);
        obs.late_ms.push(ms(due.elapsed()));
        commit(svc, &ops, obs, wt.as_mut())?;
        obs.write_ms.push(ms(due.elapsed()));
        obs.write_txns += ops.len() as u64;
        history.record(svc, wl);
    }
    // The schedule's span, or longer if the writer fell behind it.
    obs.write_wall_s += start.elapsed().max(deadline - start).as_secs_f64();
    Ok(())
}
