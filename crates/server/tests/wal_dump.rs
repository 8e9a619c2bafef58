//! Smoke tests for the `wal-dump` inspector binary: point it at a real
//! durability directory (and at deliberately damaged copies) and check
//! it reports rather than panics.

use hippo_cqa::prelude::*;
use hippo_engine::{Database, Value};
use hippo_server::{DurabilityConfig, Engine, EngineConfig, WriteOp};
use hippo_testkit::FdTableSpec;
use std::path::PathBuf;
use std::process::Command;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "hippo-dump-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn populated_dir(tag: &str) -> PathBuf {
    let dir = tmp_dir(tag);
    let spec = FdTableSpec::new("t", 60, 0.05, 7);
    let mut db = Database::new();
    spec.populate(&mut db).unwrap();
    let hippo = Hippo::with_options(db, vec![spec.fd()], HippoOptions::full()).unwrap();
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
        rows: vec![vec![Value::Int(1_000_000), Value::Int(5), Value::Int(0)]],
    }])
    .unwrap();
    eng.write(vec![WriteOp::Insert {
        table: "t".into(),
        rows: vec![
            vec![Value::Int(2_000_000), Value::Int(1), Value::Int(0)],
            vec![Value::Int(2_000_000), Value::Int(2), Value::Int(0)],
        ],
    }])
    .unwrap();
    drop(eng);
    dir
}

fn dump(arg: &std::path::Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_wal-dump"))
        .arg(arg)
        .output()
        .expect("run wal-dump");
    assert!(out.status.success(), "wal-dump exited nonzero: {out:?}");
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn dumps_a_live_directory() {
    let dir = populated_dir("live");
    let text = dump(&dir);
    assert!(text.contains("last_lsn=0"), "birth checkpoint: {text}");
    assert!(text.contains("table t:"), "{text}");
    assert!(text.contains("frame lsn=1 kind=Commit crc=ok"), "{text}");
    assert!(text.contains("frame lsn=2 kind=Commit crc=ok"), "{text}");
    assert!(
        text.contains("ops=1 (ins=1 del=0 upd=0) tuples=2"),
        "{text}"
    );
    assert!(text.contains("2 intact frames, clean tail"), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reports_damage_instead_of_panicking() {
    let dir = populated_dir("damaged");
    let wal = dir.join("wal.bin");
    let mut bytes = std::fs::read(&wal).unwrap();

    // Torn tail: drop the last 3 bytes.
    let torn = dir.join("torn.bin");
    std::fs::write(&torn, &bytes[..bytes.len() - 3]).unwrap();
    let text = dump(&torn);
    assert!(text.contains("frame lsn=1"), "{text}");
    assert!(text.contains("torn tail"), "{text}");

    // Flipped byte inside the last frame: crc catches it.
    let n = bytes.len();
    bytes[n - 2] ^= 0xFF;
    let corrupt = dir.join("corrupt.bin");
    std::fs::write(&corrupt, &bytes).unwrap();
    let text = dump(&corrupt);
    assert!(text.contains("corrupt @"), "{text}");

    // A corrupt checkpoint is an answer, not a crash.
    let ck = dir.join("checkpoint.bin");
    let mut cbytes = std::fs::read(&ck).unwrap();
    let m = cbytes.len();
    cbytes[m / 2] ^= 0xFF;
    std::fs::write(&ck, &cbytes).unwrap();
    let text = dump(&dir);
    assert!(text.contains("CORRUPT:"), "{text}");

    std::fs::remove_dir_all(&dir).unwrap();
}
