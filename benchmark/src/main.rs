//! The repo's fixed benchmark: one workload per invocation.
//!
//! ```text
//! hippo-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 [--smoke] [--out <dir>]
//! ```
//!
//! Prints a run stamp and every metric by name and unit, then — as the last
//! line of standard output — one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits non-zero on any oracle mismatch or error.

mod gen;
mod json;
mod metrics;
mod obs;
mod read;
mod report;
mod service;
mod stats;
mod trace;
mod workloads;
mod write;

use json::Json;
use std::process::{Command, ExitCode};
use workloads::Args;

const USAGE: &str = "usage: hippo-benchmark --workload <name> --seed <n> --seconds <s> \
                     --trace <0|1> [--smoke] [--out <dir>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut out = std::path::PathBuf::from("benchmark/out");
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--smoke" => smoke = true,
            "--out" => out = value()?.into(),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        out,
    })
}

/// First line of a command's standard output, or "unknown". (The ceiling
/// keeps `git` from looking for a repository above the checkout.)
fn tool_line(program: &str, args: &[&str]) -> String {
    let above = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
        .unwrap_or_default();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", above)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match workloads::run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut stamp = vec![
        (
            "git_sha".to_string(),
            Json::str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "rustc".to_string(),
            Json::str(tool_line("rustc", &["--version"])),
        ),
        (
            "nproc".to_string(),
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
    ];
    if let Json::Obj(fields) = report.stamp {
        stamp.extend(fields);
    }
    println!("stamp {}", Json::Obj(stamp).render());
    for (name, value, unit) in &report.metrics {
        println!("{name:<28} {value:>14.4} {unit}");
    }
    for note in &report.notes {
        println!("FAILED {note}");
    }
    let result = Json::obj([
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Int(report.attempted)),
        ("failed", Json::Int(report.failed)),
        (
            "metrics",
            Json::Obj(
                report
                    .metrics
                    .iter()
                    .map(|(name, value, unit)| {
                        (
                            name.to_string(),
                            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
