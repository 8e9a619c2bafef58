//! Property and exhaustive-damage tests for snapshot checkpoints —
//! the checkpoint twin of `prop_wal.rs`.
//!
//! The WAL's contract under damage is *truncate to the committed
//! prefix*; the checkpoint's is stricter. Writes are crash-atomic
//! (tmp + rename), so a `checkpoint.bin` that exists but fails its CRC
//! means external damage, and recovery must answer with a structured
//! error — never a panic, never an engine built from a half-read
//! snapshot. Three families:
//!
//! * **Torn-file exhaustion**: truncate a real checkpoint at EVERY
//!   byte offset; `Engine::recover` errors structurally each time and
//!   succeeds bit-identically once the intact file is restored.
//! * **Bit-flip property**: any single corrupted byte anywhere in the
//!   file is caught (CRC covers magic through catalog).
//! * **Torn tmp**: a `checkpoint.tmp` torn at any offset — the
//!   crash-during-write window — is ignored and recovery proceeds
//!   from the previous consistent checkpoint.

use hippo_cqa::budget::Governance;
use hippo_cqa::prelude::*;
use hippo_engine::{Database, Row, Value};
use hippo_server::checkpoint::{read_checkpoint, write_checkpoint, CHECKPOINT_FILE};
use hippo_server::{DurabilityConfig, Engine, EngineConfig, WriteOp};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "hippo-propckp-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn workload(rows: usize, seed: u64) -> (Database, Vec<DenialConstraint>) {
    let spec = FdTableSpec::new("t", rows, 0.05, seed);
    let mut db = Database::new();
    spec.populate(&mut db).unwrap();
    (db, vec![spec.fd()])
}

fn query() -> SjudQuery {
    SjudQuery::rel("t").diff(SjudQuery::rel("t").select(Pred::cmp_const(2, CmpOp::Ge, 900i64)))
}

/// A durability directory with a real checkpoint *and* a WAL suffix
/// past it, so recovery has to read both.
fn populated_dir(tag: &str, seed: u64) -> (PathBuf, Vec<Row>) {
    let dir = tmp_dir(tag);
    let (db, cons) = workload(120, seed);
    let hippo = Hippo::with_options(db, cons, HippoOptions::full()).unwrap();
    let eng = Engine::new_durable(
        hippo,
        EngineConfig::default(),
        DurabilityConfig {
            dir: dir.clone(),
            checkpoint_every_frames: 0,
        },
    )
    .unwrap();
    eng.write(vec![WriteOp::Insert {
        table: "t".into(),
        rows: vec![
            vec![Value::Int(1_000_000), Value::Int(1), Value::Int(0)],
            vec![Value::Int(1_000_000), Value::Int(2), Value::Int(0)],
        ],
    }])
    .unwrap();
    // Fold the conflicting pair into the snapshot, then log one more
    // frame after it so the checkpoint is not the whole story.
    eng.checkpoint().unwrap();
    eng.write(vec![WriteOp::Insert {
        table: "t".into(),
        rows: vec![vec![Value::Int(2_000_000), Value::Int(5), Value::Int(0)]],
    }])
    .unwrap();
    let answers = eng.session().answer(&query()).unwrap().rows;
    drop(eng);
    (dir, answers)
}

fn try_recover(dir: &Path, seed: u64) -> Result<Engine, hippo_engine::EngineError> {
    let (_, cons) = workload(1, seed);
    Engine::recover(
        EngineConfig::default(),
        DurabilityConfig {
            dir: dir.to_path_buf(),
            checkpoint_every_frames: 0,
        },
        cons,
        Vec::new(),
        HippoOptions::full(),
    )
}

// ---------------------------------------------------------------------
// Exhaustive torn checkpoint: every truncation point.
// ---------------------------------------------------------------------

/// Truncate `checkpoint.bin` at EVERY byte offset. Each damaged form
/// must produce a structured "corrupt" error from recovery (never a
/// panic, never a half-built engine), and restoring the intact bytes
/// must recover answers bit-identical to the pre-shutdown engine —
/// proving the damage probes left the rest of the directory unharmed.
#[test]
fn torn_checkpoint_at_every_byte_offset_is_structured() {
    let seed = 23;
    let (dir, want) = populated_dir("exhaustive", seed);
    let path = dir.join(CHECKPOINT_FILE);
    let intact = std::fs::read(&path).unwrap();

    for cut in 0..intact.len() {
        std::fs::write(&path, &intact[..cut]).unwrap();
        let err = match try_recover(&dir, seed) {
            Err(e) => e,
            Ok(_) => panic!("recovery accepted a checkpoint truncated at byte {cut}"),
        };
        assert!(
            err.message.contains("corrupt"),
            "cut at {cut}: unstructured error: {err}"
        );
    }

    // The probes never touched the WAL: put the real checkpoint back
    // and recovery is whole again.
    std::fs::write(&path, &intact).unwrap();
    let eng = try_recover(&dir, seed).unwrap();
    let got = eng.session().answer(&query()).unwrap().rows;
    assert_eq!(got, want, "restored checkpoint lost data");
    drop(eng);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The crash-between-serialize-and-rename window: a torn
/// `checkpoint.tmp` next to a valid `checkpoint.bin` (every tmp
/// truncation point) must be ignored — recovery uses the previous
/// consistent snapshot.
#[test]
fn torn_tmp_file_never_shadows_the_real_checkpoint() {
    let seed = 29;
    let (dir, want) = populated_dir("torntmp", seed);
    let intact = std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
    let tmp = dir.join("checkpoint.tmp");

    // Probe a spread of tmp lengths (every offset would re-run full
    // recovery hundreds of times for identical code paths).
    for cut in [0, 1, 7, 8, 12, 20, intact.len() / 2, intact.len() - 1] {
        std::fs::write(&tmp, &intact[..cut]).unwrap();
        let eng = try_recover(&dir, seed)
            .unwrap_or_else(|e| panic!("torn tmp ({cut} bytes) broke recovery: {e}"));
        let got = eng.session().answer(&query()).unwrap().rows;
        assert_eq!(got, want, "torn tmp ({cut} bytes) changed answers");
        drop(eng);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Properties: round-trip and single-byte corruption.
// ---------------------------------------------------------------------

fn sample_catalog(rows: usize) -> hippo_engine::Catalog {
    let (db, _) = workload(rows.max(1), 5);
    db.catalog().clone()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn checkpoints_round_trip(last_lsn in 0u64..1_000_000, rows in 1usize..40) {
        let dir = tmp_dir("roundtrip");
        let catalog = sample_catalog(rows);
        write_checkpoint(&dir, &catalog, last_lsn, &Governance::default()).unwrap();
        let ck = read_checkpoint(&dir).unwrap().unwrap();
        prop_assert_eq!(ck.last_lsn, last_lsn);
        let t = ck.catalog.table("t").unwrap();
        let orig = catalog.table("t").unwrap();
        prop_assert_eq!(t.len(), orig.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn any_flipped_byte_is_caught(flip_pick in any::<u32>(), flip_bits in 1u8..255) {
        let dir = tmp_dir("bitflip");
        write_checkpoint(&dir, &sample_catalog(10), 42, &Governance::default()).unwrap();
        let path = dir.join(CHECKPOINT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = (flip_pick as usize) % bytes.len();
        bytes[at] ^= flip_bits;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_checkpoint(&dir).unwrap_err();
        prop_assert!(err.message.contains("corrupt"), "flip @{}: {}", at, err);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
