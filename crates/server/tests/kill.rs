//! Real-process kill tests: the two failure modes no in-process fault
//! can stand in for. A child process (this same test binary, re-executed
//! with [`CHILD_ENV`] set) runs acknowledged durable writes and is
//! SIGKILL'd mid-traffic — no destructors, no flushes — then the parent
//!
//! * recovers the directory and demands every acknowledged write
//!   survived and the answers equal a serial oracle on the committed
//!   prefix (`sigkill_mid_traffic_...`), or
//! * promotes the TCP replica that was following the dead primary and
//!   demands a bumped term, oracle-identical answers on the applied
//!   prefix, and applied ⊆ committed (`sigkill_of_replicating_primary_...`).
//!
//! Injected faults at every WAL/checkpoint/transport point, fencing,
//! resync and catch-up are `durability.rs` and `replication.rs`.

use hippo_cqa::prelude::*;
use hippo_engine::{Database, Row, Value};
use hippo_server::{
    DurabilityConfig, Engine, EngineConfig, Replica, ReplicaConfig, TcpTransport, WriteOp,
};
use hippo_testkit::FdTableSpec;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver};
use std::time::{Duration, Instant};

/// `dir|first sequence number|serve` — set only on the child.
const CHILD_ENV: &str = "HIPPO_KILL_CHILD";
const ROWS: usize = 600;
const SEED: u64 = 73;
/// Sequenced child inserts use keys far above the seeded workload's.
const BASE_KEY: i64 = 10_000_000;
/// Nothing here waits longer than this; the child also exits on its own
/// after it, so a parent that dies first leaks no process.
const PATIENCE: Duration = Duration::from_secs(60);

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("hippo-kill-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn workload() -> (Database, Vec<DenialConstraint>) {
    let spec = FdTableSpec::new("t", ROWS, 0.05, SEED);
    let mut db = Database::new();
    spec.populate(&mut db).unwrap();
    (db, vec![spec.fd()])
}

fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig {
        dir: dir.to_path_buf(),
        checkpoint_every_frames: 8,
    }
}

fn recover(dir: &Path) -> Engine {
    Engine::recover(
        EngineConfig::default(),
        durability(dir),
        workload().1,
        Vec::new(),
        HippoOptions::full(),
    )
    .unwrap()
}

fn sequenced_row(i: u64) -> Row {
    vec![
        Value::Int(BASE_KEY + i as i64),
        Value::Int(5),
        Value::Int(0),
    ]
}

fn query() -> SjudQuery {
    SjudQuery::rel("t").diff(SjudQuery::rel("t").select(Pred::cmp_const(2, CmpOp::Ge, 900i64)))
}

/// Serial oracle: a fresh single-threaded `Hippo` over the seeded table
/// plus the first `k` sequenced rows.
fn oracle(k: u64) -> Vec<Row> {
    let (db, cons) = workload();
    let mut hippo =
        Hippo::with_options(db, cons, HippoOptions::full().with_prover_threads(1)).unwrap();
    hippo
        .insert_tuples("t", (0..k).map(sequenced_row).collect())
        .unwrap();
    hippo.redetect().unwrap();
    let frozen = hippo.freeze().unwrap();
    frozen.answer(&query(), &hippo.options).unwrap().rows
}

/// How many sequenced rows `eng` holds; they must be exactly `0..k`.
fn sequenced_prefix(eng: &Engine) -> u64 {
    let session = eng.session();
    let mut keys: Vec<i64> = session
        .epoch()
        .frozen()
        .catalog()
        .table("t")
        .unwrap()
        .iter()
        .filter_map(|(_, r)| match r[0] {
            Value::Int(k) if k >= BASE_KEY => Some(k - BASE_KEY),
            _ => None,
        })
        .collect();
    keys.sort_unstable();
    for (i, &k) in keys.iter().enumerate() {
        assert_eq!(k, i as i64, "sequenced keys have a gap: {keys:?}");
    }
    keys.len() as u64
}

/// The SIGKILL target: a no-op in a normal test run. With [`CHILD_ENV`]
/// set it opens (or recovers) a durable engine, optionally serves
/// replication on an ephemeral port (announced as `port N`), and commits
/// one sequenced row per transaction, printing `acked i` after each
/// durable commit. Rust's stdout is line-buffered, so every line the
/// parent reads names a transaction whose fsync completed.
#[test]
fn child_entry() {
    let Ok(spec) = std::env::var(CHILD_ENV) else {
        return;
    };
    let parts: Vec<&str> = spec.split('|').collect();
    let dir = PathBuf::from(parts[0]);
    let start: u64 = parts[1].parse().unwrap();
    let eng = if dir.join("checkpoint.bin").exists() {
        recover(&dir)
    } else {
        let (db, cons) = workload();
        let hippo = Hippo::with_options(db, cons, HippoOptions::full()).unwrap();
        Engine::new_durable(hippo, EngineConfig::default(), durability(&dir)).unwrap()
    };
    let _server = (parts[2] == "serve").then(|| {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let server = eng.serve_replication(listener).unwrap();
        println!("port {}", server.addr().port());
        server
    });
    let born = Instant::now();
    let mut i = start;
    while born.elapsed() < PATIENCE {
        eng.write(vec![WriteOp::Insert {
            table: "t".into(),
            rows: vec![sequenced_row(i)],
        }])
        .unwrap();
        println!("acked {i}");
        i += 1;
    }
}

/// A running child and its stdout, read line by line on a thread so the
/// parent can react to `port`/`acked` lines *before* the kill.
struct Child {
    proc: std::process::Child,
    lines: Receiver<String>,
    reader: std::thread::JoinHandle<()>,
}

impl Child {
    fn spawn(dir: &Path, start: u64, serve: bool) -> Child {
        let mut proc = std::process::Command::new(std::env::current_exe().unwrap())
            .env(
                CHILD_ENV,
                format!(
                    "{}|{start}|{}",
                    dir.display(),
                    if serve { "serve" } else { "-" }
                ),
            )
            .args(["child_entry", "--exact", "--nocapture", "--test-threads=1"])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .unwrap();
        let stdout = proc.stdout.take().unwrap();
        let (tx, lines) = channel();
        let reader = std::thread::spawn(move || {
            use std::io::BufRead as _;
            for line in std::io::BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Child {
            proc,
            lines,
            reader,
        }
    }

    /// The number after `tag` on the next line carrying it. (Libtest
    /// glues its `test child_entry ... ` preamble onto the child's first
    /// line, so search rather than prefix-match.)
    fn next(&mut self, tag: &str) -> u64 {
        let deadline = Instant::now() + PATIENCE;
        loop {
            match self.lines.recv_timeout(Duration::from_millis(50)) {
                Ok(l) => {
                    if let Some(n) = number_after(&l, tag) {
                        return n;
                    }
                }
                Err(_) if Instant::now() < deadline && matches!(self.proc.try_wait(), Ok(None)) => {
                }
                Err(_) => {
                    let _ = self.proc.kill();
                    panic!("child died or stalled before printing `{tag}N`");
                }
            }
        }
    }

    /// SIGKILL, then every ack that was already in the pipe.
    fn kill(mut self) -> Vec<u64> {
        self.proc.kill().unwrap();
        self.proc.wait().unwrap();
        self.reader.join().unwrap();
        self.lines
            .try_iter()
            .filter_map(|l| number_after(&l, "acked "))
            .collect()
    }
}

fn number_after(line: &str, tag: &str) -> Option<u64> {
    line[line.rfind(tag)? + tag.len()..].trim().parse().ok()
}

#[test]
fn sigkill_mid_traffic_recovers_every_acked_write() {
    let dir = tmp_dir("recover");
    let mut next_start = 0u64;
    for round in 0..3 {
        // Each round resumes on the directory the last kill left behind.
        let mut child = Child::spawn(&dir, next_start, false);
        let mut acked = Vec::new();
        while acked.len() < 12 {
            acked.push(child.next("acked "));
        }
        acked.extend(child.kill());
        let expected: Vec<u64> = (next_start..next_start + acked.len() as u64).collect();
        assert_eq!(acked, expected, "round {round}: acks arrive in sequence");

        let eng = recover(&dir);
        let k = sequenced_prefix(&eng);
        let durable_floor = next_start + acked.len() as u64;
        assert!(
            k >= durable_floor,
            "round {round}: lost acked writes (recovered {k} < acked {durable_floor}); {}",
            eng.recovery_report().unwrap()
        );
        assert_eq!(
            eng.session().answer(&query()).unwrap().rows,
            oracle(k),
            "round {round}: recovered answers diverged from the oracle on the committed prefix"
        );
        next_start = k;
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkill_of_replicating_primary_then_promotion() {
    let dir = tmp_dir("failover");
    let mut child = Child::spawn(&dir, 0, true);
    let port = child.next("port ");
    let transport = TcpTransport::connect(&format!("127.0.0.1:{port}")).unwrap();
    let mut config = ReplicaConfig::new(workload().1);
    config.options = HippoOptions::full();
    config.resync_after = Duration::from_millis(30);
    let replica = Replica::start(Box::new(transport), config);

    // Let real traffic flow to the replica before the kill.
    let mut acked = 0u64;
    while acked < 25 || replica.staleness().applied_lsn == 0 {
        child.next("acked ");
        acked += 1;
    }
    acked += child.kill().len() as u64;

    // The feed is dead; wait until the replica has applied whatever was
    // already in flight.
    let settle = Instant::now();
    let mut last = replica.staleness().applied_lsn;
    loop {
        std::thread::sleep(Duration::from_millis(60));
        let now = replica.staleness().applied_lsn;
        if now == last || settle.elapsed() > Duration::from_secs(10) {
            break;
        }
        last = now;
    }

    let term_before = replica.term();
    let (promoted, report) = replica.promote(EngineConfig::default(), None).unwrap();
    assert_eq!(report.term, term_before + 1, "promotion bumps the term");
    assert_eq!(promoted.term(), report.term);

    // The promoted node serves exactly its applied prefix...
    let k = sequenced_prefix(&promoted);
    assert!(k > 0, "the replica followed the primary before the kill");
    assert_eq!(
        promoted.session().answer(&query()).unwrap().rows,
        oracle(k),
        "promoted answers diverged from the oracle on the applied prefix"
    );
    // ...which is a prefix of what the dead primary committed, and every
    // acked transaction survived in the primary's own log.
    let dead = recover(&dir);
    let m = sequenced_prefix(&dead);
    assert_eq!(dead.session().answer(&query()).unwrap().rows, oracle(m));
    assert!(k <= m, "replica applied {k} writes, only {m} committed");
    assert!(acked <= m, "{acked} acked writes, only {m} recovered");
    let _ = std::fs::remove_dir_all(&dir);
}
