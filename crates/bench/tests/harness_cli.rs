//! The harness command line as CI drives it: a named experiment runs and
//! prints its table; an id that names nothing is an error, not a pass.

use std::process::Command;

#[test]
fn runs_a_named_experiment_and_rejects_an_unknown_one() {
    let harness = env!("CARGO_BIN_EXE_harness");

    let out = Command::new(harness)
        .args(["--quick", "d2"])
        .output()
        .expect("spawn the harness");
    assert!(out.status.success(), "d2 exited with {}", out.status);
    assert!(String::from_utf8_lossy(&out.stdout).contains("## D2"));

    let out = Command::new(harness)
        .args(["--quick", "d2", "zz"])
        .output()
        .expect("spawn the harness");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "rejected before anything ran");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment zz"), "{err}");
    assert!(
        err.contains("valid ids: all d1 d2 e1 e2 e3 e4 e5 e6 e7\n"),
        "lists exactly the valid ids: {err}"
    );

    // E8–E16 were retired: a stale CI leg naming one must fail loudly.
    let out = Command::new(harness)
        .args(["--quick", "e13"])
        .output()
        .expect("spawn the harness");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment e13"));
}
