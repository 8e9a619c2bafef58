//! The checksummed, length-prefixed write-ahead op log.
//!
//! One file (`wal.bin`) per durability directory:
//!
//! ```text
//! ┌────────────────────── header (12 bytes) ──────────────────────┐
//! │ magic "HIPPOWAL" · version u32                                │
//! ├──────────────────────── frame 0 ──────────────────────────────┤
//! │ len u32 · crc32(payload) u32 · payload (len bytes)            │
//! │   payload = lsn u64 · kind u8 · op count u32 · ops            │
//! ├──────────────────────── frame 1 … ────────────────────────────┤
//! ```
//!
//! A **frame** is one writer transaction's recorded ops plus the tuple
//! ids its inserts were assigned — written *after* the transaction has
//! fully applied and reconciled, fsync'd *before* the epoch publishes.
//! The fsync is the commit point: a frame on disk is a transaction the
//! recovered engine will replay; a transaction whose frame never
//! reached disk was never published, so losing it loses nothing a
//! reader could have seen. Group commit writes many frames with one
//! `write(2)` + one fsync.
//!
//! [`Wal::open`] scans the existing file on startup and **truncates a
//! torn or corrupt tail** (short frame, bad CRC, garbage length — all
//! the shapes a crash mid-write leaves behind) instead of failing:
//! everything before the first bad byte is intact by CRC, everything
//! after it was never acknowledged. Scanning never panics on any input.
//!
//! Fault points (see [`FaultPlan`](hippo_cqa::budget::FaultPlan)):
//! `wal:append` fires before bytes are written (`shortwrite` writes a
//! prefix of the batch, then fails — the torn frame a power loss
//! leaves); `wal:fsync` fires between write and sync, so a `panic`
//! there models dying with bytes in the page cache.

use hippo_cqa::budget::{FaultKind, Governance};
use hippo_engine::codec::{self, Reader};
use hippo_engine::{EngineError, Row, TupleId};
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// WAL file name inside a durability directory.
pub const WAL_FILE: &str = "wal.bin";

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"HIPPOWAL";
/// On-disk format version.
pub const WAL_VERSION: u32 = 1;
/// Header bytes before the first frame.
pub const HEADER_LEN: u64 = 12;
/// A frame payload larger than this is treated as tail corruption — no
/// legitimate transaction frames gigabytes.
pub const MAX_FRAME_LEN: u32 = 1 << 30;

pub(crate) fn io_err(ctx: &str, e: std::io::Error) -> EngineError {
    EngineError::new(format!("wal: {ctx}: {e}"))
}

/// One logged mutation: a [`crate::WriteOp`] with the tuple ids the
/// commit path's `apply` assigned (inserts) or removed, each once
/// (deletes). Recovery and replicas replay it through that same `apply`
/// and must get the same ids back (deletes as a set), which catches any
/// divergence from the slot structure the log was written against.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// Rows inserted, with their assigned ids (parallel to `rows`).
    Insert {
        table: String,
        rows: Vec<Row>,
        tids: Vec<TupleId>,
    },
    /// Tuples deleted by id (the ids that were live).
    Delete { table: String, tids: Vec<TupleId> },
    /// Tuples updated in place.
    Update {
        table: String,
        updates: Vec<(TupleId, Row)>,
    },
}

/// What a frame records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A committed transaction: replayed on recovery.
    Commit,
    /// Ops a draining engine refused at admission — an audit record so
    /// a lossy shutdown leaves evidence of *what* was lost. Skipped by
    /// replay.
    Abandoned,
}

/// One decoded WAL frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Log sequence number: strictly increasing across the log's life,
    /// never reset by checkpoint truncation.
    pub lsn: u64,
    /// Commit (replayed) or abandoned-audit (skipped).
    pub kind: FrameKind,
    /// The transaction's ops in application order.
    pub ops: Vec<WalOp>,
}

fn encode_op(out: &mut Vec<u8>, op: &WalOp) {
    match op {
        WalOp::Insert { table, rows, tids } => {
            out.push(0);
            codec::put_u32(out, table.len() as u32);
            out.extend_from_slice(table.as_bytes());
            codec::put_u32(out, rows.len() as u32);
            for row in rows {
                codec::encode_row(out, row);
            }
            codec::put_u32(out, tids.len() as u32);
            for t in tids {
                codec::put_u32(out, t.0);
            }
        }
        WalOp::Delete { table, tids } => {
            out.push(1);
            codec::put_u32(out, table.len() as u32);
            out.extend_from_slice(table.as_bytes());
            codec::put_u32(out, tids.len() as u32);
            for t in tids {
                codec::put_u32(out, t.0);
            }
        }
        WalOp::Update { table, updates } => {
            out.push(2);
            codec::put_u32(out, table.len() as u32);
            out.extend_from_slice(table.as_bytes());
            codec::put_u32(out, updates.len() as u32);
            for (t, row) in updates {
                codec::put_u32(out, t.0);
                codec::encode_row(out, row);
            }
        }
    }
}

fn decode_str(r: &mut Reader<'_>) -> Result<String, EngineError> {
    let len = r.count(1)?;
    let bytes = r.take(len)?;
    std::str::from_utf8(bytes)
        .map(str::to_owned)
        .map_err(|_| EngineError::new("wal: invalid UTF-8 table name"))
}

fn decode_op(r: &mut Reader<'_>) -> Result<WalOp, EngineError> {
    match r.u8()? {
        0 => {
            let table = decode_str(r)?;
            let nrows = r.count(1)?;
            let rows = (0..nrows)
                .map(|_| codec::decode_row(r))
                .collect::<Result<Vec<Row>, _>>()?;
            let ntids = r.count(4)?;
            let tids = (0..ntids)
                .map(|_| Ok(TupleId(r.u32()?)))
                .collect::<Result<Vec<TupleId>, EngineError>>()?;
            // Abandoned-audit inserts carry no ids (none were ever
            // assigned); committed frames always record one per row.
            if !tids.is_empty() && tids.len() != rows.len() {
                return Err(EngineError::new("wal: insert tid/row count mismatch"));
            }
            Ok(WalOp::Insert { table, rows, tids })
        }
        1 => {
            let table = decode_str(r)?;
            let n = r.count(4)?;
            let tids = (0..n)
                .map(|_| Ok(TupleId(r.u32()?)))
                .collect::<Result<Vec<TupleId>, EngineError>>()?;
            Ok(WalOp::Delete { table, tids })
        }
        2 => {
            let table = decode_str(r)?;
            let n = r.count(5)?;
            let updates = (0..n)
                .map(|_| {
                    let t = TupleId(r.u32()?);
                    let row = codec::decode_row(r)?;
                    Ok((t, row))
                })
                .collect::<Result<Vec<(TupleId, Row)>, EngineError>>()?;
            Ok(WalOp::Update { table, updates })
        }
        _ => Err(EngineError::new("wal: unknown op tag")),
    }
}

/// Encode one frame's payload (everything the CRC covers). Public so
/// property tests can round-trip the codec without touching a file.
pub fn encode_frame_payload(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_u64(&mut out, frame.lsn);
    out.push(match frame.kind {
        FrameKind::Commit => 1,
        FrameKind::Abandoned => 2,
    });
    codec::put_u32(&mut out, frame.ops.len() as u32);
    for op in &frame.ops {
        encode_op(&mut out, op);
    }
    out
}

/// Decode one frame payload; errors (never panics) on any malformed
/// input.
pub fn decode_frame_payload(payload: &[u8]) -> Result<Frame, EngineError> {
    let mut r = Reader::new(payload);
    let lsn = r.u64()?;
    let kind = match r.u8()? {
        1 => FrameKind::Commit,
        2 => FrameKind::Abandoned,
        _ => return Err(EngineError::new("wal: unknown frame kind")),
    };
    let nops = r.count(1)?;
    let ops = (0..nops)
        .map(|_| decode_op(&mut r))
        .collect::<Result<Vec<WalOp>, _>>()?;
    if !r.is_empty() {
        return Err(EngineError::new("wal: trailing bytes in frame"));
    }
    Ok(Frame { lsn, kind, ops })
}

/// What [`Wal::open`] found on disk.
#[derive(Debug)]
pub struct WalScan {
    /// Every intact frame, in log order.
    pub frames: Vec<Frame>,
    /// Whether a torn/corrupt tail was found (and truncated).
    pub torn_tail: bool,
    /// Bytes discarded with the tail.
    pub truncated_bytes: u64,
}

/// Scan the committed-frame region of a WAL image (everything after the
/// header): every intact frame in order, plus the byte offset where the
/// intact prefix ends. Never panics on any input — a torn envelope, a
/// crc mismatch, an undecodable payload or a non-ascending LSN all just
/// end the scan.
fn scan_frames(body: &[u8]) -> (Vec<Frame>, usize) {
    let mut frames: Vec<Frame> = Vec::new();
    let mut pos = 0usize;
    let mut last_lsn = 0u64;
    // (torn, short, absurd length, or bit rot all just end the scan)
    while let Ok(Some((payload, consumed))) = codec::split_checked(&body[pos..], MAX_FRAME_LEN) {
        let Ok(frame) = decode_frame_payload(payload) else {
            break; // CRC matched but structure didn't decode: treat as tail
        };
        if frame.lsn <= last_lsn {
            break; // LSNs must ascend; a repeat means garbage
        }
        last_lsn = frame.lsn;
        pos += consumed;
        frames.push(frame);
    }
    (frames, pos)
}

/// The open write-ahead log: an append handle plus the bookkeeping to
/// keep appends atomic-per-batch (a failed append is truncated away
/// before the next one lands).
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// End of the last durably committed frame; everything past this
    /// offset is garbage from a failed append.
    len: u64,
    /// Next LSN to assign.
    next_lsn: u64,
    /// Highest LSN *not* present in the file (absorbed by a checkpoint
    /// or never written here). Frames with `lsn > floor_lsn` can be
    /// re-read for replication resync; older history is gone.
    floor_lsn: u64,
    /// Set while bytes past `len` may exist (mid-append, or after an
    /// append failed); cleared once the file is known clean again.
    dirty: bool,
}

impl Wal {
    /// Open (or create) the log in `dir`, scan every intact frame, and
    /// truncate any torn/corrupt tail so the next append lands on a
    /// clean boundary. Never panics on any file contents.
    pub fn open(dir: &Path) -> Result<(Wal, WalScan), EngineError> {
        let path = dir.join(WAL_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err("open", e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| io_err("read", e))?;

        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(WAL_MAGIC);
        codec::put_u32(&mut header, WAL_VERSION);

        if bytes.len() < HEADER_LEN as usize {
            // Empty, or a header torn by a crash during the very first
            // open. A strict prefix of the canonical header is that
            // torn case (nothing was ever committed); anything else is
            // a foreign file we refuse to clobber.
            if !header.starts_with(&bytes) {
                return Err(EngineError::new(format!(
                    "wal: {} is not a Hippo WAL (bad magic/version)",
                    path.display()
                )));
            }
            let truncated_bytes = bytes.len() as u64;
            file.set_len(0)
                .map_err(|e| io_err("reset torn header", e))?;
            file.seek(SeekFrom::Start(0))
                .map_err(|e| io_err("seek", e))?;
            file.write_all(&header)
                .map_err(|e| io_err("write header", e))?;
            file.sync_data().map_err(|e| io_err("fsync header", e))?;
            return Ok((
                Wal {
                    file,
                    path,
                    len: HEADER_LEN,
                    next_lsn: 1,
                    floor_lsn: 0,
                    dirty: false,
                },
                WalScan {
                    frames: Vec::new(),
                    torn_tail: truncated_bytes > 0,
                    truncated_bytes,
                },
            ));
        }
        if bytes[..HEADER_LEN as usize] != header[..] {
            // A full header that doesn't match is a foreign or
            // incompatible file — refuse loudly rather than silently
            // treating it as an empty log.
            return Err(EngineError::new(format!(
                "wal: {} is not a Hippo WAL (bad magic/version)",
                path.display()
            )));
        }

        let (frames, body_len) = scan_frames(&bytes[HEADER_LEN as usize..]);
        let valid_len = HEADER_LEN as usize + body_len;
        let floor_lsn = frames.first().map_or(0, |f| f.lsn - 1);
        let last_lsn = frames.last().map_or(0, |f| f.lsn);
        let torn = valid_len < bytes.len();
        let truncated_bytes = (bytes.len() - valid_len) as u64;
        if torn {
            file.set_len(valid_len as u64)
                .map_err(|e| io_err("truncate torn tail", e))?;
            file.sync_data().map_err(|e| io_err("fsync truncate", e))?;
        }
        file.seek(SeekFrom::Start(valid_len as u64))
            .map_err(|e| io_err("seek", e))?;
        Ok((
            Wal {
                file,
                path,
                len: valid_len as u64,
                next_lsn: last_lsn + 1,
                floor_lsn,
                dirty: false,
            },
            WalScan {
                frames,
                torn_tail: torn,
                truncated_bytes,
            },
        ))
    }

    /// The LSN the next appended frame will get.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Highest LSN *not* present in this file (absorbed by a checkpoint
    /// before it, or never written here). Frames with `lsn > floor_lsn`
    /// up to `next_lsn - 1` can be re-read via
    /// [`Wal::read_frames_since`].
    #[cfg(test)]
    fn floor_lsn(&self) -> u64 {
        self.floor_lsn
    }

    /// Tell a freshly opened log that everything up to `lsn` was already
    /// absorbed by a checkpoint, so the LSN counter must continue past
    /// it even when the file itself is empty. Without this, a log
    /// truncated by a checkpoint and then reopened would hand out LSNs
    /// the checkpoint already covers — and replay would silently skip
    /// those committed frames. Recovery calls it with the checkpoint's
    /// `last_lsn`.
    pub(crate) fn set_floor(&mut self, lsn: u64) {
        self.floor_lsn = self.floor_lsn.max(lsn);
        self.next_lsn = self.next_lsn.max(lsn + 1);
    }

    /// Committed log length in bytes (header included).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Is the log empty (no committed frames)?
    pub fn is_empty(&self) -> bool {
        self.len == HEADER_LEN
    }

    /// Drop any garbage a previous failed append may have left past the
    /// committed end.
    fn make_clean(&mut self) -> Result<(), EngineError> {
        if self.dirty {
            self.file
                .set_len(self.len)
                .map_err(|e| io_err("truncate failed append", e))?;
            self.file
                .seek(SeekFrom::Start(self.len))
                .map_err(|e| io_err("seek", e))?;
            self.file
                .sync_data()
                .map_err(|e| io_err("fsync truncate", e))?;
            self.dirty = false;
        }
        Ok(())
    }

    /// Append one batch of transactions — one frame each, consecutive
    /// LSNs — with **one** write and **one** fsync (group commit), and
    /// return the assigned LSNs. On any failure nothing is committed:
    /// the partial bytes are truncated away before the next append.
    ///
    /// `gov` drives the `wal:append` / `wal:fsync` fault points.
    pub fn append(
        &mut self,
        batch: &[(FrameKind, Vec<WalOp>)],
        gov: &Governance,
    ) -> Result<Vec<u64>, EngineError> {
        self.make_clean()?;
        let mut buf = Vec::new();
        let mut lsns = Vec::with_capacity(batch.len());
        for (i, (kind, ops)) in batch.iter().enumerate() {
            let frame = Frame {
                lsn: self.next_lsn + i as u64,
                kind: *kind,
                ops: ops.clone(),
            };
            lsns.push(frame.lsn);
            let payload = encode_frame_payload(&frame);
            codec::put_checked(&mut buf, &payload);
        }

        match gov.take_fault("wal:append", 0) {
            Some(FaultKind::Panic) => panic!("injected fault: panic at wal:append"),
            Some(FaultKind::Delay(d)) => std::thread::sleep(d),
            Some(FaultKind::BudgetTrip) => return Err(EngineError::budget("wal:append", 0, 0)),
            Some(FaultKind::ShortWrite) => {
                // The torn frame a power loss mid-write leaves behind:
                // half the batch's bytes land, then the append fails.
                self.dirty = true;
                let half = &buf[..buf.len() / 2];
                let _ = self.file.write_all(half);
                return Err(EngineError::new(
                    "wal: injected short write at wal:append (frame torn)",
                ));
            }
            Some(k @ (FaultKind::Drop | FaultKind::Corrupt | FaultKind::Disconnect)) => {
                // Transport-only kinds armed at a file stage: loud, so
                // a misaimed fault plan never passes silently.
                return Err(EngineError::new(format!(
                    "wal: injected fault: {k:?} at wal:append \
                     (transport-only kind; arm it at a repl stage)"
                )));
            }
            None => {}
        }

        self.dirty = true;
        self.file.write_all(&buf).map_err(|e| io_err("append", e))?;

        match gov.take_fault("wal:fsync", 0) {
            Some(FaultKind::Panic) => panic!("injected fault: panic at wal:fsync"),
            Some(FaultKind::Delay(d)) => std::thread::sleep(d),
            Some(
                FaultKind::BudgetTrip
                | FaultKind::ShortWrite
                | FaultKind::Drop
                | FaultKind::Corrupt
                | FaultKind::Disconnect,
            ) => {
                // Bytes written but never synced: not committed.
                return Err(EngineError::budget("wal:fsync", 0, 0));
            }
            None => {}
        }

        self.file.sync_data().map_err(|e| io_err("fsync", e))?;
        self.len += buf.len() as u64;
        self.next_lsn += batch.len() as u64;
        self.dirty = false;
        Ok(lsns)
    }

    /// Discard every frame (after a checkpoint has absorbed them): the
    /// file shrinks back to its header. LSNs keep ascending across
    /// truncations so a frame's LSN is unique for the log's lifetime.
    pub fn truncate_all(&mut self) -> Result<(), EngineError> {
        self.file
            .set_len(HEADER_LEN)
            .map_err(|e| io_err("truncate", e))?;
        self.file
            .seek(SeekFrom::Start(HEADER_LEN))
            .map_err(|e| io_err("seek", e))?;
        self.file
            .sync_data()
            .map_err(|e| io_err("fsync truncate", e))?;
        self.len = HEADER_LEN;
        self.floor_lsn = self.next_lsn - 1;
        self.dirty = false;
        Ok(())
    }

    /// Re-read every committed frame with `lsn > since` from the file —
    /// the replication resync path, serving a replica that fell behind
    /// the live stream. Errors if `since < floor_lsn`: the missing
    /// history was absorbed by a checkpoint, so the caller must ship a
    /// full snapshot instead.
    pub(crate) fn read_frames_since(&self, since: u64) -> Result<Vec<Frame>, EngineError> {
        if since < self.floor_lsn {
            return Err(EngineError::new(format!(
                "wal: frames after lsn {since} are not all on disk \
                 (floor is {}); a checkpoint absorbed them",
                self.floor_lsn
            )));
        }
        let bytes = std::fs::read(&self.path).map_err(|e| io_err("read", e))?;
        let body = bytes
            .get(HEADER_LEN as usize..self.len as usize)
            .ok_or_else(|| EngineError::new("wal: file shorter than its committed length"))?;
        let (frames, _) = scan_frames(body);
        Ok(frames.into_iter().filter(|f| f.lsn > since).collect())
    }
}

/// An exclusive advisory lock on a durability directory, held for the
/// life of the owning [`crate::Engine`] (all clones share it through an
/// `Arc`). Acquired with `flock`-style `File::try_lock`, so the kernel
/// releases it if the process dies — a SIGKILL'd engine never wedges
/// its directory — while a *live* second open in the same or another
/// process is refused immediately with a structured
/// [`ErrorKind::Locked`](hippo_engine::ErrorKind) error (no deadlock,
/// no blocking).
#[derive(Debug)]
pub(crate) struct DirLock {
    _file: File,
}

/// Lock file name inside a durability directory.
pub(crate) const LOCK_FILE: &str = "lock";

impl DirLock {
    /// Acquire the directory's exclusive lock, or fail with
    /// `ErrorKind::Locked` if another engine holds it.
    pub(crate) fn acquire(dir: &Path) -> Result<DirLock, EngineError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create dir", e))?;
        let path = dir.join(LOCK_FILE);
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err("open lock", e))?;
        match file.try_lock() {
            Ok(()) => Ok(DirLock { _file: file }),
            Err(std::fs::TryLockError::WouldBlock) => Err(EngineError::locked(dir.display())),
            Err(std::fs::TryLockError::Error(e)) => Err(io_err("lock", e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hippo_cqa::budget::FaultPlan;
    use hippo_engine::Value;
    use std::sync::Arc;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "hippo-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_ops(k: i64) -> Vec<WalOp> {
        vec![
            WalOp::Insert {
                table: "t".into(),
                rows: vec![vec![Value::Int(k), Value::text("x"), Value::Null]],
                tids: vec![TupleId(7)],
            },
            WalOp::Delete {
                table: "t".into(),
                tids: vec![TupleId(1), TupleId(2)],
            },
            WalOp::Update {
                table: "u".into(),
                updates: vec![(TupleId(0), vec![Value::Float(1.5)])],
            },
        ]
    }

    #[test]
    fn append_scan_roundtrip_with_group() {
        let dir = tmp_dir("roundtrip");
        let gov = Governance::default();
        {
            let (mut wal, scan) = Wal::open(&dir).unwrap();
            assert!(scan.frames.is_empty() && !scan.torn_tail);
            let lsns = wal
                .append(
                    &[
                        (FrameKind::Commit, sample_ops(1)),
                        (FrameKind::Commit, sample_ops(2)),
                        (FrameKind::Abandoned, sample_ops(3)),
                    ],
                    &gov,
                )
                .unwrap();
            assert_eq!(lsns, vec![1, 2, 3]);
        }
        let (wal, scan) = Wal::open(&dir).unwrap();
        assert!(!scan.torn_tail);
        assert_eq!(scan.frames.len(), 3);
        assert_eq!(scan.frames[0].ops, sample_ops(1));
        assert_eq!(scan.frames[2].kind, FrameKind::Abandoned);
        assert_eq!(wal.next_lsn(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tmp_dir("torn");
        let gov = Governance::default();
        let full_len = {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            wal.append(&[(FrameKind::Commit, sample_ops(1))], &gov)
                .unwrap();
            wal.append(&[(FrameKind::Commit, sample_ops(2))], &gov)
                .unwrap();
            wal.len()
        };
        // Tear the last frame: chop 3 bytes off.
        let path = dir.join(WAL_FILE);
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full_len - 3).unwrap();
        drop(f);
        let (mut wal, scan) = Wal::open(&dir).unwrap();
        assert!(scan.torn_tail);
        assert_eq!(scan.frames.len(), 1, "committed prefix only");
        assert_eq!(scan.frames[0].lsn, 1);
        // The log is usable again and LSNs continue past the lost frame.
        let lsns = wal
            .append(&[(FrameKind::Commit, sample_ops(9))], &gov)
            .unwrap();
        assert_eq!(
            lsns,
            vec![2],
            "lsn of the torn frame is reused — it was never committed"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_write_fault_tears_frame_and_recovery_drops_it() {
        let dir = tmp_dir("shortwrite");
        let gov = Governance::default();
        let faulted = Governance {
            faults: Some(Arc::new(FaultPlan::new(
                "wal:append",
                Some(0),
                FaultKind::ShortWrite,
            ))),
            ..Governance::default()
        };
        let (mut wal, _) = Wal::open(&dir).unwrap();
        wal.append(&[(FrameKind::Commit, sample_ops(1))], &gov)
            .unwrap();
        let err = wal
            .append(&[(FrameKind::Commit, sample_ops(2))], &faulted)
            .unwrap_err();
        assert!(err.message.contains("short write"), "{err}");
        // The same handle self-heals on the next append.
        wal.append(&[(FrameKind::Commit, sample_ops(3))], &gov)
            .unwrap();
        drop(wal);
        let (_, scan) = Wal::open(&dir).unwrap();
        let keys: Vec<u64> = scan.frames.iter().map(|f| f.lsn).collect();
        assert_eq!(keys, vec![1, 2], "torn frame gone, later frame committed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_file_is_refused_loudly() {
        let dir = tmp_dir("foreign");
        std::fs::write(dir.join(WAL_FILE), b"definitely not a wal").unwrap();
        let err = Wal::open(&dir).unwrap_err();
        assert!(err.message.contains("bad magic"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_all_keeps_lsns_monotonic() {
        let dir = tmp_dir("truncate");
        let gov = Governance::default();
        let (mut wal, _) = Wal::open(&dir).unwrap();
        wal.append(&[(FrameKind::Commit, sample_ops(1))], &gov)
            .unwrap();
        wal.truncate_all().unwrap();
        assert!(wal.is_empty());
        let lsns = wal
            .append(&[(FrameKind::Commit, sample_ops(2))], &gov)
            .unwrap();
        assert_eq!(lsns, vec![2], "lsn survives truncation");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn set_floor_continues_lsns_past_an_absorbed_log() {
        let dir = tmp_dir("floor");
        let gov = Governance::default();
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            wal.append(&[(FrameKind::Commit, sample_ops(1))], &gov)
                .unwrap();
            wal.truncate_all().unwrap();
            assert_eq!(wal.floor_lsn(), 1);
        }
        // A fresh handle has no memory of the truncated frame — the
        // checkpoint's last_lsn must re-teach it (recover_dir does).
        let (mut wal, scan) = Wal::open(&dir).unwrap();
        assert!(scan.frames.is_empty());
        assert_eq!(wal.next_lsn(), 1, "reopen alone forgets");
        wal.set_floor(1);
        assert_eq!(wal.floor_lsn(), 1);
        let lsns = wal
            .append(&[(FrameKind::Commit, sample_ops(2))], &gov)
            .unwrap();
        assert_eq!(lsns, vec![2], "lsn continues past the checkpoint");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_frames_since_serves_the_suffix_or_refuses() {
        let dir = tmp_dir("since");
        let gov = Governance::default();
        let (mut wal, _) = Wal::open(&dir).unwrap();
        wal.append(
            &[
                (FrameKind::Commit, sample_ops(1)),
                (FrameKind::Commit, sample_ops(2)),
                (FrameKind::Commit, sample_ops(3)),
            ],
            &gov,
        )
        .unwrap();
        let suffix = wal.read_frames_since(1).unwrap();
        assert_eq!(suffix.iter().map(|f| f.lsn).collect::<Vec<_>>(), vec![2, 3]);
        assert!(wal.read_frames_since(3).unwrap().is_empty());
        wal.truncate_all().unwrap();
        let err = wal.read_frames_since(1).unwrap_err();
        assert!(err.message.contains("checkpoint absorbed"), "{err}");
        assert!(wal.read_frames_since(3).unwrap().is_empty(), "at the floor");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dir_lock_excludes_second_open_and_releases_on_drop() {
        let dir = tmp_dir("lock");
        let l1 = DirLock::acquire(&dir).unwrap();
        let err = DirLock::acquire(&dir).unwrap_err();
        assert!(err.is_locked(), "{err}");
        drop(l1);
        let _l2 = DirLock::acquire(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
