//! Service-level counters, mirroring the one-line `Display` style of
//! the core crate's `DetectStats` / `AnswerStats`.

use hippo_engine::CopyStats;
use std::fmt;
use std::time::Duration;

/// A point-in-time snapshot of one [`crate::Engine`]'s service
/// counters (all monotonic except the occupancy gauges).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Epochs published so far, including the initial one.
    pub epochs_published: u64,
    /// Write transactions applied and published.
    pub writes_applied: u64,
    /// Requests admitted (immediately or after queueing).
    pub requests_admitted: u64,
    /// Requests shed at admission with `Overloaded`.
    pub requests_shed: u64,
    /// Writes that failed (panic, injected fault or budget trip)
    /// without publishing — the writer recovered and the previous
    /// epoch stayed live.
    pub writer_recoveries: u64,
    /// WAL frames durably committed (commit + abandoned-audit).
    pub wal_frames: u64,
    /// WAL fsyncs issued; `wal_frames / wal_fsyncs` is the realized
    /// group-commit batch factor.
    pub wal_fsyncs: u64,
    /// Snapshot checkpoints written (each truncates the absorbed log).
    pub checkpoints: u64,
    /// Checkpoint attempts that failed (non-fatal: the log survives).
    pub checkpoint_failures: u64,
    /// Commit groups holding more than one transaction.
    pub group_commits: u64,
    /// Transactions that committed inside such groups.
    pub grouped_writes: u64,
    /// Writes refused at the admission gate during drain.
    pub writes_abandoned: u64,
    /// What copy-on-write copied while commits applied their ops,
    /// summed over every commit: the row chunks and index shards a
    /// write had to copy because a published epoch still shared them.
    /// A one-row write copies at most one chunk and one shard per index
    /// (two for an update that changes the key).
    pub write_copies: CopyStats,
    /// Requests executing right now.
    pub active: usize,
    /// Requests waiting in the admission queue right now.
    pub queued: usize,
    /// Age of the currently published epoch.
    pub epoch_age: Duration,
    /// The service is draining: new requests get `Shutdown`.
    pub draining: bool,
    /// The engine writes a WAL (durability attached).
    pub durable: bool,
}

impl fmt::Display for ServiceStats {
    /// One-line report in the `DetectStats`/`AnswerStats` family
    /// style: counters first, gauges after, flags last.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "epochs_published={} writes_applied={} requests_admitted={} \
             requests_shed={} writer_recoveries={} copied_chunks={} copied_rows={} \
             copied_shards={} copied_index_keys={} active={} queued={} \
             epoch_age={:.3}ms",
            self.epochs_published,
            self.writes_applied,
            self.requests_admitted,
            self.requests_shed,
            self.writer_recoveries,
            self.write_copies.chunks,
            self.write_copies.rows,
            self.write_copies.shards,
            self.write_copies.index_keys,
            self.active,
            self.queued,
            self.epoch_age.as_secs_f64() * 1e3,
        )?;
        if self.durable {
            write!(
                f,
                " wal_frames={} wal_fsyncs={} checkpoints={} checkpoint_failures={} \
                 group_commits={} grouped_writes={} writes_abandoned={}",
                self.wal_frames,
                self.wal_fsyncs,
                self.checkpoints,
                self.checkpoint_failures,
                self.group_commits,
                self.grouped_writes,
                self.writes_abandoned,
            )?;
        }
        if self.draining {
            write!(f, " draining")?;
        }
        Ok(())
    }
}

/// A [`crate::Session`]'s view of its pinned epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionStats {
    /// Id of the epoch this session reads from.
    pub pinned_epoch: u64,
    /// Write transactions folded into the pinned epoch.
    pub pinned_writes: u64,
    /// How long ago the pinned epoch was published (grows until the
    /// session refreshes, even as newer epochs land).
    pub pinned_age: Duration,
    /// Requests this session has completed (any outcome).
    pub requests: u64,
}

impl fmt::Display for SessionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pinned_epoch={} pinned_writes={} pinned_age={:.3}ms requests={}",
            self.pinned_epoch,
            self.pinned_writes,
            self.pinned_age.as_secs_f64() * 1e3,
            self.requests,
        )
    }
}

/// Primary-side replication counters (see
/// [`crate::Engine::replication_stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// The fencing term this primary stamps on every message.
    pub term: u64,
    /// Highest committed LSN (the shipping horizon).
    pub last_lsn: u64,
    /// Live attached replicas.
    pub replicas: usize,
    /// Minimum acked LSN across live replicas (0 with none attached):
    /// everything at or below it is applied everywhere.
    pub min_acked_lsn: u64,
    /// Frames enqueued to feeds (counted per replica).
    pub frames_shipped: u64,
    /// Full catalog snapshots served (fresh or unrecoverably-behind
    /// replicas).
    pub snapshots_shipped: u64,
    /// Resyncs served from the log suffix instead of a snapshot.
    pub incremental_syncs: u64,
    /// Acks received from replicas.
    pub acks_received: u64,
    /// Heartbeats sent on idle streams.
    pub heartbeats_sent: u64,
    /// Feeds stopped because a higher term fenced this primary.
    pub feeds_fenced: u64,
    /// Feeds dropped (transport died or replica went away).
    pub feeds_dropped: u64,
}

impl fmt::Display for ReplicationStats {
    /// One-line report in the `ServiceStats` family style.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "term={} last_lsn={} replicas={} min_acked_lsn={} frames_shipped={} \
             snapshots_shipped={} incremental_syncs={} acks_received={} \
             heartbeats_sent={} feeds_fenced={} feeds_dropped={}",
            self.term,
            self.last_lsn,
            self.replicas,
            self.min_acked_lsn,
            self.frames_shipped,
            self.snapshots_shipped,
            self.incremental_syncs,
            self.acks_received,
            self.heartbeats_sent,
            self.feeds_fenced,
            self.feeds_dropped,
        )
    }
}

/// How far a [`crate::replicate::Replica`] trails its primary, as
/// surfaced on every replica read path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Staleness {
    /// The fencing term the replica follows (0 = never contacted).
    pub term: u64,
    /// Highest LSN the replica has applied.
    pub applied_lsn: u64,
    /// The primary's last known commit horizon.
    pub primary_lsn: u64,
    /// `primary_lsn - applied_lsn`: committed frames not yet applied
    /// here.
    pub lsn_lag: u64,
    /// Time since the replica last knew it was caught up (~0 while
    /// tracking the primary; grows while behind *or* partitioned).
    pub lag_time: Duration,
}

impl fmt::Display for Staleness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "term={} applied_lsn={} primary_lsn={} lsn_lag={} lag_time={:.3}ms",
            self.term,
            self.applied_lsn,
            self.primary_lsn,
            self.lsn_lag,
            self.lag_time.as_secs_f64() * 1e3,
        )
    }
}

/// Replica-side counters (see [`crate::replicate::Replica::stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStats {
    /// The fencing term the replica follows.
    pub term: u64,
    /// Highest LSN applied.
    pub applied_lsn: u64,
    /// The primary's last known horizon.
    pub primary_lsn: u64,
    /// Committed frames not yet applied here.
    pub lsn_lag: u64,
    /// Time since last known caught-up.
    pub lag_time: Duration,
    /// Epochs this replica has published from replayed state.
    pub epochs_published: u64,
    /// Commit frames applied.
    pub frames_applied: u64,
    /// Individual ops inside those frames.
    pub ops_applied: u64,
    /// Messages rejected for carrying a stale (fenced) term.
    pub frames_fenced: u64,
    /// Messages lost to corruption (transport crc or decode).
    pub msgs_corrupt: u64,
    /// LSN gaps detected (each triggers a resync, never a skip).
    pub gaps_detected: u64,
    /// Resync `Hello`s sent (gaps, corruption, or silent lag).
    pub resync_requests: u64,
    /// Full snapshots loaded.
    pub snapshots_loaded: u64,
    /// Transports that died and were detached.
    pub disconnects: u64,
    /// Live attached sources.
    pub sources: usize,
    /// The replica has replicated state and can serve sessions.
    pub has_state: bool,
    /// A divergence/apply error broke this replica (it serves its last
    /// good epoch but refuses promotion).
    pub broken: bool,
}

impl fmt::Display for ReplicaStats {
    /// One-line report: position first, counters after, flags last.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "term={} applied_lsn={} primary_lsn={} lsn_lag={} lag_time={:.3}ms \
             epochs_published={} frames_applied={} ops_applied={} frames_fenced={} \
             msgs_corrupt={} gaps_detected={} resync_requests={} snapshots_loaded={} \
             disconnects={} sources={}",
            self.term,
            self.applied_lsn,
            self.primary_lsn,
            self.lsn_lag,
            self.lag_time.as_secs_f64() * 1e3,
            self.epochs_published,
            self.frames_applied,
            self.ops_applied,
            self.frames_fenced,
            self.msgs_corrupt,
            self.gaps_detected,
            self.resync_requests,
            self.snapshots_loaded,
            self.disconnects,
            self.sources,
        )?;
        if !self.has_state {
            write!(f, " no_state")?;
        }
        if self.broken {
            write!(f, " BROKEN")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_stats_one_line_report() {
        let s = ServiceStats {
            epochs_published: 3,
            writes_applied: 2,
            requests_admitted: 40,
            requests_shed: 5,
            writer_recoveries: 1,
            write_copies: CopyStats {
                chunks: 2,
                rows: 2048,
                shards: 3,
                index_keys: 700,
            },
            active: 2,
            queued: 1,
            epoch_age: Duration::from_micros(1500),
            ..ServiceStats::default()
        };
        let line = s.to_string();
        assert!(line.contains("epochs_published=3"), "{line}");
        assert!(
            line.contains("copied_chunks=2 copied_rows=2048 copied_shards=3 copied_index_keys=700"),
            "{line}"
        );
        assert!(line.contains("requests_shed=5"), "{line}");
        assert!(line.contains("writer_recoveries=1"), "{line}");
        assert!(line.contains("epoch_age=1.500ms"), "{line}");
        assert!(!line.contains("draining"), "{line}");
        assert!(
            !line.contains("wal_frames"),
            "durability counters hidden on non-durable engines: {line}"
        );
        let d = ServiceStats {
            draining: true,
            ..s.clone()
        };
        assert!(d.to_string().ends_with("draining"));
        let dur = ServiceStats {
            durable: true,
            wal_frames: 12,
            wal_fsyncs: 4,
            checkpoints: 1,
            group_commits: 2,
            grouped_writes: 9,
            writes_abandoned: 3,
            ..s
        };
        let line = dur.to_string();
        assert!(line.contains("wal_frames=12"), "{line}");
        assert!(line.contains("wal_fsyncs=4"), "{line}");
        assert!(line.contains("checkpoints=1"), "{line}");
        assert!(line.contains("group_commits=2"), "{line}");
        assert!(line.contains("writes_abandoned=3"), "{line}");
    }

    #[test]
    fn replication_stats_one_line_reports() {
        let p = ReplicationStats {
            term: 2,
            last_lsn: 40,
            replicas: 3,
            min_acked_lsn: 38,
            frames_shipped: 120,
            snapshots_shipped: 3,
            ..ReplicationStats::default()
        };
        let line = p.to_string();
        assert!(line.contains("term=2"), "{line}");
        assert!(line.contains("min_acked_lsn=38"), "{line}");
        assert!(!line.contains('\n'), "{line}");

        let st = Staleness {
            term: 2,
            applied_lsn: 38,
            primary_lsn: 40,
            lsn_lag: 2,
            lag_time: Duration::from_millis(5),
        };
        assert!(st.to_string().contains("lsn_lag=2"));

        let r = ReplicaStats {
            term: 2,
            applied_lsn: 38,
            primary_lsn: 40,
            lsn_lag: 2,
            lag_time: Duration::from_millis(5),
            epochs_published: 9,
            frames_applied: 38,
            ops_applied: 70,
            frames_fenced: 1,
            msgs_corrupt: 0,
            gaps_detected: 0,
            resync_requests: 0,
            snapshots_loaded: 1,
            disconnects: 0,
            sources: 1,
            has_state: true,
            broken: false,
        };
        let line = r.to_string();
        assert!(line.contains("frames_applied=38"), "{line}");
        assert!(!line.contains("no_state"), "{line}");
        assert!(!line.contains("BROKEN"), "{line}");
        let b = ReplicaStats {
            has_state: false,
            broken: true,
            ..r
        };
        let line = b.to_string();
        assert!(line.ends_with("no_state BROKEN"), "{line}");
    }

    #[test]
    fn session_stats_one_line_report() {
        let s = SessionStats {
            pinned_epoch: 7,
            pinned_writes: 6,
            pinned_age: Duration::from_millis(2),
            requests: 11,
        };
        let line = s.to_string();
        assert!(line.contains("pinned_epoch=7"), "{line}");
        assert!(line.contains("pinned_age=2.000ms"), "{line}");
        assert!(line.contains("requests=11"), "{line}");
    }
}
