//! Runs the benchmark binary in `--smoke` mode (1 k keys, 1 s windows) on
//! every workload, untraced and traced, and checks the shape of what it
//! prints: the result line parses, every metric `BENCHMARK.json` declares is
//! emitted exactly once with its unit, names are well-formed, the run is
//! correct, the trace's span parents resolve, and the layer spans explain the
//! request.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

// ---- a minimal JSON reader (objects keep their key order and duplicates) ----

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = value(bytes, &mut pos);
        skip_ws(bytes, &mut pos);
        assert_eq!(pos, bytes.len(), "trailing bytes after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => {
                let mut hits = fields.iter().filter(|(k, _)| k == key);
                let hit = hits.next().unwrap_or_else(|| panic!("missing key {key:?}"));
                assert!(hits.next().is_none(), "key {key:?} appears twice");
                &hit.1
            }
            other => panic!("not an object: {other:?}"),
        }
    }

    fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(f) => f,
            other => panic!("not an object: {other:?}"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Json {
    skip_ws(b, pos);
    match b[*pos] {
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            loop {
                skip_ws(b, pos);
                if b[*pos] == b'}' {
                    *pos += 1;
                    return Json::Obj(fields);
                }
                let Json::Str(key) = value(b, pos) else {
                    panic!("object key is not a string")
                };
                skip_ws(b, pos);
                assert_eq!(b[*pos], b':');
                *pos += 1;
                fields.push((key, value(b, pos)));
                skip_ws(b, pos);
                if b[*pos] == b',' {
                    *pos += 1;
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            loop {
                skip_ws(b, pos);
                if b[*pos] == b']' {
                    *pos += 1;
                    return Json::Arr(items);
                }
                items.push(value(b, pos));
                skip_ws(b, pos);
                if b[*pos] == b',' {
                    *pos += 1;
                }
            }
        }
        b'"' => {
            *pos += 1;
            let mut s = Vec::new();
            while b[*pos] != b'"' {
                if b[*pos] == b'\\' {
                    *pos += 1;
                    s.push(match b[*pos] {
                        b'n' => b'\n',
                        b't' => b'\t',
                        c => c,
                    });
                } else {
                    s.push(b[*pos]);
                }
                *pos += 1;
            }
            *pos += 1;
            Json::Str(String::from_utf8(s).expect("utf-8 string"))
        }
        b't' => lit(b, pos, "true", Json::Bool(true)),
        b'f' => lit(b, pos, "false", Json::Bool(false)),
        b'n' => lit(b, pos, "null", Json::Null),
        _ => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).unwrap();
            Json::Num(
                text.parse()
                    .unwrap_or_else(|_| panic!("bad number {text:?}")),
            )
        }
    }
}

fn lit(b: &[u8], pos: &mut usize, word: &str, v: Json) -> Json {
    assert!(b[*pos..].starts_with(word.as_bytes()), "bad literal");
    *pos += word.len();
    v
}

// ---- the checks ----

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn spec() -> Json {
    let path = manifest_dir().join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// Declared (name → unit) of one metric list of BENCHMARK.json.
fn declared(spec: &Json, list: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for m in spec.get(list).items() {
        let name = m.get("name").str().to_string();
        assert!(
            out.insert(name.clone(), m.get("unit").str().to_string())
                .is_none(),
            "{name} declared twice"
        );
    }
    out
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

fn run(workload: &str, trace: bool, out: &Path) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_hippo-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .output()
        .expect("spawn the benchmark");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} trace={trace} exited with {}:\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line"))
}

fn check_result(
    result: &Json,
    want: &BTreeMap<String, String>,
    what: &str,
) -> BTreeMap<String, f64> {
    let keys: Vec<&str> = result.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(*result.get("correct"), Json::Bool(true), "{what}");
    assert_eq!(result.get("failed").num(), 0.0, "{what}");
    assert!(result.get("attempted").num() >= 1.0, "{what}");
    let mut got = BTreeMap::new();
    for (name, m) in result.get("metrics").fields() {
        assert!(well_formed(name), "{what}: malformed metric name {name:?}");
        let unit = m.get("unit").str();
        assert_eq!(
            Some(unit),
            want.get(name).map(String::as_str),
            "{what}: unit of {name}"
        );
        let value = m.get("value").num();
        assert!(value.is_finite(), "{what}: {name} = {value}");
        assert!(
            got.insert(name.clone(), value).is_none(),
            "{what}: {name} emitted twice"
        );
    }
    let missing: Vec<_> = want.keys().filter(|k| !got.contains_key(*k)).collect();
    assert!(missing.is_empty(), "{what}: not emitted: {missing:?}");
    got
}

fn out_dir(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{tag}"))
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let spec = spec();
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    assert!(end_to_end.contains_key("setup_s"));
    for name in end_to_end.keys().chain(per_layer.keys()) {
        assert!(well_formed(name), "malformed declared name {name:?}");
    }
    for w in spec.get("workloads").items() {
        let workload = w.get("name").str();
        let out = out_dir(workload);

        let result = run(workload, false, &out);
        let values = check_result(&result, &end_to_end, workload);
        for (name, value) in &values {
            assert!(*value > 0.0, "{workload}: end-to-end {name} is {value}");
        }

        let result = run(workload, true, &out);
        let values = check_result(&result, &per_layer, &format!("{workload} traced"));
        let read = values["read.unaccounted_frac"];
        assert!(
            (0.0..=0.25).contains(&read),
            "{workload}: read.unaccounted_frac = {read}"
        );
        // Signed: the stages are timed on a second copy, which can run
        // slower than the engine did.
        let write = values["write.unaccounted_frac"];
        assert!(
            (-0.25..=0.25).contains(&write),
            "{workload}: write.unaccounted_frac = {write}"
        );

        // The trace: ids unique, every parent is a recorded span, a child
        // starts inside its parent and shares its request.
        let trace = std::fs::read_to_string(out.join(format!("trace-{workload}.json")))
            .expect("the traced run writes its spans");
        let spans = Json::parse(&trace);
        let by_id: BTreeMap<u64, &Json> = spans
            .items()
            .iter()
            .map(|s| (s.get("id").num() as u64, s))
            .collect();
        assert_eq!(
            by_id.len(),
            spans.items().len(),
            "{workload}: duplicate span ids"
        );
        assert!(!by_id.is_empty(), "{workload}: empty trace");
        for s in spans.items() {
            assert!(s.get("end_ns").num() >= s.get("start_ns").num());
            if let Json::Num(parent) = s.get("parent") {
                let p = by_id
                    .get(&(*parent as u64))
                    .unwrap_or_else(|| panic!("{workload}: span parent {parent} unresolved"));
                assert_eq!(p.get("request"), s.get("request"), "{workload}: request id");
                assert!(s.get("start_ns").num() >= p.get("start_ns").num());
            }
        }
        let _ = std::fs::remove_dir_all(&out);
    }
}

#[test]
fn rejects_bad_arguments_without_a_result_line() {
    let output = Command::new(env!("CARGO_BIN_EXE_hippo-benchmark"))
        .args([
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .arg("--out")
        .arg(out_dir("bad-args"))
        .output()
        .expect("spawn the benchmark");
    assert!(!output.status.success());
    assert!(!String::from_utf8_lossy(&output.stdout).contains("\"correct\""));
}
