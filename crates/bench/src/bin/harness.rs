//! Experiment harness: regenerates the paper-reproduction tables.
//!
//! Usage:
//!   harness [--quick] [all|d1|d2|e1|e2|e3|e4|e5|e6|e7]...
//!
//! With no experiment arguments, runs everything. `--quick` shrinks
//! workload sizes (used in CI and on laptops). The root README.md lists
//! the tables; trajectory numbers come from `benchmark/`, not from here.

use hippo_bench::experiments as ex;

type Experiment = fn(bool) -> Result<ex::Table, Box<dyn std::error::Error>>;

/// Every experiment, in run order. The ids are the command line's
/// vocabulary: anything else (bar `all`) is rejected.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("d1", ex::d1_information),
    ("d2", |_| ex::d2_expressiveness()),
    ("e1", ex::e1_scaling),
    ("e2", ex::e2_conflicts),
    ("e3", ex::e3_query_classes),
    ("e4", ex::e4_detection),
    ("e5", ex::e5_ablation),
    ("e6", ex::e6_envelope),
    ("e7", ex::e7_repair_blowup),
];

fn main() {
    let mut quick = false;
    let mut wanted: Vec<String> = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--quick" => quick = true,
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
            _ => wanted.push(a),
        }
    }
    // A CI leg naming an experiment that no longer exists must fail,
    // not pass having run nothing.
    if let Some(unknown) = wanted
        .iter()
        .find(|w| *w != "all" && !EXPERIMENTS.iter().any(|(id, _)| id == w))
    {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        eprintln!(
            "unknown experiment {unknown}; valid ids: all {}",
            ids.join(" ")
        );
        std::process::exit(2);
    }
    let run_all = wanted.is_empty() || wanted.iter().any(|w| w == "all");

    println!(
        "# Hippo experiment harness ({} mode)\n",
        if quick { "quick" } else { "full" }
    );
    let mut failures = 0;
    for (id, experiment) in EXPERIMENTS {
        if run_all || wanted.iter().any(|w| w == id) {
            match experiment(quick) {
                Ok(t) => println!("{}\n", t.render()),
                Err(e) => {
                    eprintln!("experiment {id} failed: {e}");
                    failures += 1;
                }
            }
        }
    }

    if failures > 0 {
        std::process::exit(1);
    }
}
