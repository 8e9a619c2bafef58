//! Experiment harness: regenerates every table/figure of the reproduction.
//!
//! Usage:
//!   harness [--quick] [--json PATH] [all|d1|d2|e1|e2|e3|e4|e5|e6|e7|e8|e9|e10|e11|e12|e13|e14|e15|e16]...
//!
//! With no experiment arguments, runs everything. `--quick` shrinks
//! workload sizes (used in CI and on laptops; the full sizes match
//! EXPERIMENTS.md). `--json PATH` additionally writes every produced
//! table as a JSON document — CI uploads it so benchmark trajectories
//! accumulate across commits.

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
    ("e8", ex::e8_parallel),
    ("e9", ex::e9_prover),
    ("e10", ex::e10_base_mode),
    ("e11", ex::e11_index_probes),
    ("e12", ex::e12_governance),
    ("e13", ex::e13_chaos_service),
    ("e14", ex::e14_crash_recovery),
    ("e15", ex::e15_replication_failover),
    ("e16", ex::e16_columnar),
];

fn main() {
    // Hidden crash-child modes for E14/E15: selected purely by env var
    // so arbitrary argv (meant for libtest targets) is ignored. Never
    // return when active — the parent SIGKILLs this process.
    ex::e14_child_from_env();
    ex::e15_child_from_env();

    let mut args = std::env::args().skip(1).peekable();
    let mut quick = false;
    let mut json_path: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--json" => match args.next() {
                Some(p) => json_path = Some(p),
                None => {
                    eprintln!("--json requires a path argument");
                    std::process::exit(2);
                }
            },
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
            other => wanted.push(other.to_string()),
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
    let mut tables: Vec<ex::Table> = Vec::new();
    for (id, experiment) in EXPERIMENTS {
        if run_all || wanted.iter().any(|w| w == id) {
            match experiment(quick) {
                Ok(t) => {
                    println!("{}\n", t.render());
                    tables.push(t);
                }
                Err(e) => {
                    eprintln!("experiment {id} failed: {e}");
                    failures += 1;
                }
            }
        }
    }

    if let Some(path) = json_path {
        let json = render_json(quick, &tables);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("failed to write {path}: {e}");
            failures += 1;
        } else {
            println!("wrote JSON results to {path}");
        }
    }

    if failures > 0 {
        std::process::exit(1);
    }
}

/// Hand-rolled JSON rendering (the build environment has no serde).
fn render_json(quick: bool, tables: &[ex::Table]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n  \"experiments\": [\n",
        if quick { "quick" } else { "full" }
    ));
    for (i, t) in tables.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"id\": {},\n", json_str(t.id)));
        out.push_str(&format!("      \"title\": {},\n", json_str(&t.title)));
        out.push_str(&format!(
            "      \"header\": {},\n",
            json_str_array(&t.header)
        ));
        out.push_str("      \"rows\": [");
        for (j, row) in t.rows.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str_array(row));
        }
        out.push_str("],\n");
        out.push_str(&format!("      \"notes\": {}\n", json_str_array(&t.notes)));
        out.push_str(if i + 1 < tables.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_str_array(items: &[String]) -> String {
    let parts: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", parts.join(", "))
}
