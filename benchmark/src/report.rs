//! From observations to the numbers a run prints: end-to-end metrics, the
//! per-layer metrics derived from spans and counters, and the run stamp.

use crate::gen::Spec;
use crate::json::Json;
use crate::obs::Obs;
use crate::service::FLUSH_POLICY;
use crate::stats::{mean, median, percentile, ratio, rss_peak_mb};
use crate::trace::{self, Span};
use crate::workloads::{Args, Workload};
use hippo_server::ServiceStats;
use std::collections::{BTreeMap, HashMap};

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(obs: &Obs, setup_s: &[f64], recover_s: &[f64]) -> BTreeMap<&'static str, f64> {
    // Rates are operations completed over the wall time of their phase, the
    // client's bookkeeping between calls included: what the one client got.
    BTreeMap::from([
        ("setup_s", median(setup_s)),
        ("cqa_p50_ms", median(&obs.cqa_ms)),
        ("cqa_qps", ratio(obs.cqa_ms.len() as f64, obs.read_wall_s)),
        ("write_p50_ms", median(&obs.write_ms)),
        ("write_tps", ratio(obs.write_txns as f64, obs.write_wall_s)),
        ("recover_s", median(recover_s)),
        ("rss_peak_mb", rss_peak_mb().unwrap_or(0.0)),
    ])
}

/// The run stamp: what was run, on what data, with how many samples behind
/// each timing. (`main` adds the git sha, rustc and core count.)
pub fn stamp(
    args: &Args,
    wl: &Workload,
    spec: &Spec,
    [rows, edges]: &[Vec<usize>; 2],
    obs: &Obs,
    [setups, recoveries, spans]: [usize; 3],
) -> Json {
    let counts = |v: &[usize]| Json::Arr(v.iter().map(|&n| Json::Int(n as u64)).collect());
    Json::obj([
        ("workload", Json::str(wl.name)),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("smoke", Json::Bool(args.smoke)),
        ("mode", Json::str(wl.mode.name())),
        ("dataset", Json::str(spec.name)),
        ("keys_per_table", Json::Int(spec.keys as u64)),
        ("rows", counts(rows)),
        ("edges", counts(edges)),
        ("distinct_queries", Json::Int(wl.queries.len() as u64)),
        ("flush_policy", Json::str(FLUSH_POLICY)),
        (
            "samples",
            Json::obj([
                ("setup", Json::Int(setups as u64)),
                ("cqa", Json::Int(obs.cqa_ms.len() as u64)),
                ("cqa_traced", Json::Int(obs.traced_cqa_ms.len() as u64)),
                ("write_calls", Json::Int(obs.write_ms.len() as u64)),
                ("write_txns", Json::Int(obs.write_txns)),
                ("recover", Json::Int(recoveries as u64)),
                ("spans", Json::Int(spans as u64)),
            ]),
        ),
        ("cqa_p95_ms", Json::Num(percentile(&obs.cqa_ms, 95.0))),
        ("write_p95_ms", Json::Num(percentile(&obs.write_ms, 95.0))),
        ("loadgen_late_ms_mean", Json::Num(mean(&obs.late_ms))),
    ])
}

/// What a traced run observed outside spans and samples.
pub struct Outside<'a> {
    /// Service counters before and after the window.
    pub window: (ServiceStats, ServiceStats),
    pub resyncs: u64,
    pub recover_s: &'a [f64],
    pub load_replay_ms: &'a [f64],
    pub frames_replayed: u64,
}

/// Derive the per-layer metrics of the traced run.
pub fn per_layer(obs: &Obs, spans: &[Span], outside: &Outside<'_>) -> BTreeMap<&'static str, f64> {
    let med_us = |name: &str| median(&trace::durations(spans, name)) / 1e3;
    let med_ms = |name: &str| median(&trace::durations(spans, name)) / 1e6;
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Read path.
    // Re-pins inside requests (spans) and, where the reader stays pinned,
    // the ones timed outside them (samples).
    let mut pins: Vec<f64> = trace::durations(spans, "server.pin")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    pins.extend(obs.samples.get("server.pin_us").into_iter().flatten());
    v.insert("server.pin_us", median(&pins));
    v.insert("session.overhead_us", obs.med("session.overhead_us"));
    v.insert("session.cqa_p95_ms", percentile(&obs.cqa_ms, 95.0));
    v.insert("sql.parse_us", med_us("sql.parse"));
    v.insert(
        "sql_front.classify_us",
        median(&trace::self_times(spans, "sql_front.classify")) / 1e3,
    );
    v.insert("envelope.build_us", med_us("envelope.build"));
    v.insert("engine.envelope_ms", med_ms("engine.envelope"));
    v.insert("engine.envelope_rows", obs.med("engine.envelope_rows"));
    v.insert(
        "engine.rowmode_row_ratio",
        ratio(
            obs.sum("engine.rowmode_rows"),
            obs.sum("engine.rowmode_rows") + obs.sum("engine.vectorized_rows"),
        ),
    );
    v.insert("corefilter.ms", med_ms("corefilter"));
    v.insert(
        "corefilter.accept_ratio",
        ratio(
            obs.sum("corefilter.accepted"),
            obs.sum("corefilter.candidates"),
        ),
    );
    for name in [
        "hippo.t_envelope_ms",
        "hippo.t_filter_ms",
        "hippo.t_prover_ms",
        "hippo.answer_ms",
        "prover.calls",
        "kg.probe_count",
    ] {
        v.insert(name, obs.med(name));
    }
    v.insert(
        "prover.us_per_call",
        ratio(obs.sum("prover.seconds") * 1e6, obs.sum("prover.calls")),
    );
    v.insert(
        "prover.cache_hit_ratio",
        ratio(obs.sum("prover.cache_hits"), obs.sum("prover.calls")),
    );
    v.insert(
        "prover.cross_hit_ratio",
        ratio(obs.sum("prover.cross_hits"), obs.sum("prover.calls")),
    );
    v.insert(
        "kg.memo_hit_ratio",
        ratio(obs.sum("kg.memo_hits"), obs.sum("kg.probes")),
    );
    v.insert(
        "kg.index_probe_ratio",
        ratio(obs.sum("kg.index_probes"), obs.sum("kg.executed")),
    );
    v.insert(
        "read.unaccounted_frac",
        median(&unexplained(spans, "request", is_read_stage)),
    );

    // Write path.
    v.insert("hippo.apply_us", med_us("hippo.apply"));
    v.insert("detect.redetect_ms", med_ms("detect.redetect"));
    v.insert(
        "detect.incremental_ratio",
        ratio(obs.sum("detect.incremental"), obs.sum("detect.runs")),
    );
    v.insert(
        "detect.combinations_per_txn",
        ratio(obs.sum("detect.combinations"), obs.sum("wal.txns")),
    );
    v.insert("detect.full_ms", med_ms("detect.full"));
    v.insert("hippo.freeze_us", med_us("hippo.freeze"));
    v.insert("hypergraph.edges", obs.med("hypergraph.edges"));
    v.insert("wal.encode_us", med_us("wal.encode"));
    v.insert("wal.append_fsync_ms", med_ms("wal.append_fsync"));
    v.insert(
        "wal.bytes_per_txn",
        ratio(obs.sum("wal.bytes"), obs.sum("wal.txns")),
    );
    v.insert("server.publish_ms", med_ms("server.publish"));
    v.insert("checkpoint.write_ms", med_ms("checkpoint.write"));
    v.insert(
        "checkpoint.bytes_per_txn",
        obs.med("checkpoint.bytes_per_txn"),
    );
    let write_walls = trace::durations(spans, "server.write");
    v.insert("server.write_ms", median(&write_walls) / 1e6);
    v.insert("server.write_p95_ms", percentile(&write_walls, 95.0) / 1e6);
    // Per group: the engine call's wall against the redetect time its receipt
    // reports plus the other stages as timed one by one on the scratch copy.
    // Signed: below 0 the copy's stages ran slower than the engine's own.
    v.insert(
        "write.unaccounted_frac",
        median(&unexplained(spans, "server.write", is_write_stage)),
    );
    let lag = obs
        .samples
        .get("replicate.lag_frames")
        .cloned()
        .unwrap_or_default();
    v.insert("replicate.lag_frames_p50", median(&lag));
    v.insert("replicate.lag_frames_max", percentile(&lag, 100.0));
    v.insert("replicate.catchup_ms", obs.med("replicate.catchup_ms"));
    for name in ["scale4x.write_ms", "scale4x.redetect_ms", "scale4x.edges"] {
        v.insert(name, obs.med(name));
    }

    let (before, after) = &outside.window;
    let d = |a: u64, b: u64| (a - b) as f64;
    let txns = d(after.writes_applied, before.writes_applied);
    v.insert(
        "server.fsyncs_per_txn",
        ratio(d(after.wal_fsyncs, before.wal_fsyncs), txns),
    );
    v.insert(
        "server.epochs_per_txn",
        ratio(d(after.epochs_published, before.epochs_published), txns),
    );
    let shed = d(after.requests_shed, before.requests_shed);
    v.insert(
        "admission.shed_frac",
        ratio(
            shed,
            shed + d(after.requests_admitted, before.requests_admitted),
        ),
    );
    v.insert("replicate.resyncs", outside.resyncs as f64);
    let load_replay_ms = median(outside.load_replay_ms);
    v.insert("recover.load_replay_ms", load_replay_ms);
    v.insert(
        "recover.detect_ms",
        (median(outside.recover_s) * 1e3 - load_replay_ms).max(0.0),
    );
    v.insert("recover.frames_replayed", outside.frames_replayed as f64);

    // The harness.
    v.insert("loadgen.late_ms_p95", percentile(&obs.late_ms, 95.0));
    v.insert(
        "trace.overhead_frac",
        ratio(median(&obs.traced_cqa_ms), median(&obs.cqa_ms)) - 1.0,
    );
    v
}

/// Per span called `root`: the share of its wall that the stage spans of the
/// same request do not explain.
fn unexplained(spans: &[Span], root: &str, is_stage: fn(&str) -> bool) -> Vec<f64> {
    let mut staged: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| is_stage(s.name)) {
        *staged.entry(s.request).or_default() += s.dur_ns();
    }
    spans
        .iter()
        .filter(|s| s.name == root)
        .map(|r| {
            let explained = staged.get(&r.request).copied().unwrap_or(0);
            1.0 - explained as f64 / r.dur_ns().max(1) as f64
        })
        .collect()
}

fn is_read_stage(name: &str) -> bool {
    matches!(
        name,
        "server.pin"
            | "sql.parse"
            | "sql_front.classify"
            | "hippo.envelope"
            | "hippo.filter"
            | "hippo.prover"
    )
}

fn is_write_stage(name: &str) -> bool {
    matches!(
        name,
        "hippo.apply" | "detect.redetect" | "hippo.freeze" | "wal.append_fsync" | "server.publish"
    )
}
