//! Self-tests of the benchmark: metric names, workload specs, span
//! nesting, and a tiny smoke run of every workload that must report
//! every metric and agree between its untraced and traced forms.

use accesys_exp::Scale;
use accesys_perfbench::record::{self, check_accounting, Options, END_TO_END, PER_LAYER};
use accesys_perfbench::trace::{check_nesting, Recorder, Span};
use accesys_perfbench::workload::{set_traffic_seed, setup, Workload};
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    let map = value
        .as_map()
        .unwrap_or_else(|| panic!("`{key}`: not a map"));
    &map.iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("no `{key}`"))
        .1
}

fn number(value: &Value) -> Option<f64> {
    match value {
        Value::U64(v) => Some(*v as f64),
        Value::F64(v) => Some(*v),
        _ => None,
    }
}

/// A record's numeric fields and per-layer metrics, by name.
fn numbers(record: &Value) -> BTreeMap<String, f64> {
    let fields = record.as_map().expect("records are maps");
    let layers = fields
        .iter()
        .find(|(k, _)| k == "layers")
        .and_then(|(_, v)| v.as_map())
        .unwrap_or_default();
    fields
        .iter()
        .chain(layers)
        .filter_map(|(k, v)| Some((k.clone(), number(v)?)))
        .collect()
}

fn text(value: &Value) -> &str {
    match value {
        Value::Str(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

/// `(name, unit)` of every metric of `kind` in BENCHMARK.json.
fn declared(kind: &str) -> Vec<(String, String)> {
    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc: Value = serde_json::from_str(&json).expect("BENCHMARK.json parses");
    let metrics = field(&doc, kind).as_seq().expect("a metric list");
    metrics
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_string(),
                text(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    let valid = |n: &str| {
        !n.is_empty()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    for (kind, ours) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        for (name, _) in ours {
            assert!(valid(name), "metric name {name:?} is not [A-Za-z0-9_.-]+");
        }
        let ours: Vec<(String, String)> = ours
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(
            declared(kind),
            ours,
            "BENCHMARK.json {kind} != what the records carry"
        );
    }
    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc: Value = serde_json::from_str(&json).expect("BENCHMARK.json parses");
    let names: Vec<&str> = field(&doc, "workloads")
        .as_seq()
        .expect("a workload list")
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn every_workload_spec_loads_and_dry_builds() {
    for w in Workload::ALL {
        let mut rec = Recorder::new(Instant::now(), None);
        let spec = setup(&repo_root().join(w.spec_path()), w.scale(), &mut rec)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let names: Vec<&str> = rec.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["spec.load", "spec.dry_build"]);
        let mut seeded = spec.clone();
        let committed = set_traffic_seed(&mut seeded, None);
        assert_eq!(seeded, spec, "no override keeps the committed seed");
        if w == Workload::RooflinePaper {
            assert_eq!(committed, None, "the roofline has no traffic");
        } else {
            assert!(committed.is_some(), "{} has Poisson traffic", w.name());
            assert_eq!(set_traffic_seed(&mut seeded, Some(7)), Some(7));
        }
    }
}

fn span(id: usize, parent: Option<usize>, thread: u32, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name: "x",
        point: None,
        thread,
        start_ns,
        end_ns,
        count: 0,
    }
}

#[test]
fn nesting_check_accepts_parallel_children_and_rejects_overlaps() {
    // Two threads' children may together exceed the parent...
    let ok = [
        span(0, None, 1, 0, 10),
        span(1, Some(0), 2, 0, 8),
        span(2, Some(0), 3, 1, 9),
    ];
    check_nesting(&ok).expect("parallel children nest");
    // ...but one thread's may not, and no child may leave its parent.
    let over = [
        span(0, None, 1, 0, 10),
        span(1, Some(0), 2, 0, 6),
        span(2, Some(0), 2, 4, 9),
    ];
    assert!(check_nesting(&over).is_err());
    let outside = [span(0, None, 1, 0, 10), span(1, Some(0), 1, 5, 11)];
    assert!(check_nesting(&outside).is_err());
}

#[test]
fn recorder_spans_nest_and_count() {
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, None);
    rec.span("outer", |r| {
        r.span("inner", |r| r.count(3));
        let mut other = Recorder::new(epoch, Some(0));
        other.span("point", |r| r.span("leaf", |_| ()));
        r.absorb(other);
    });
    let spans = rec.into_spans();
    check_nesting(&spans).expect("recorded spans nest");
    let parents: Vec<(&str, Option<&str>)> = spans
        .iter()
        .map(|s| (s.name, s.parent.map(|p| spans[p].name)))
        .collect();
    assert_eq!(
        parents,
        [
            ("outer", None),
            ("inner", Some("outer")),
            ("point", Some("outer")),
            ("leaf", Some("point"))
        ]
    );
    assert_eq!(spans[1].count, 3);
}

#[test]
fn accounting_violations_are_reported_per_point() {
    let out = |offered: u64, admitted: u64, rejected: u64, rounds: u64| {
        Value::Map(vec![(
            "out".to_string(),
            Value::Map(vec![
                ("offered".to_string(), Value::U64(offered)),
                ("admitted".to_string(), Value::U64(admitted)),
                ("rejected".to_string(), Value::U64(rejected)),
                ("completed".to_string(), Value::U64(admitted)),
                ("rounds".to_string(), Value::U64(rounds)),
            ]),
        )])
    };
    // Point 1 breaks offered = admitted + rejected; point 2 admitted
    // requests but ran no round. Point 3 had no arrivals, which is fine.
    let sweep = Value::Map(vec![(
        "points".to_string(),
        Value::Seq(vec![
            out(5, 3, 2, 7),
            out(5, 3, 1, 7),
            out(4, 4, 0, 0),
            out(0, 0, 0, 0),
        ]),
    )]);
    let bad: Vec<usize> = check_accounting(&sweep).iter().map(|b| b.0).collect();
    assert_eq!(bad, [1, 2]);
}

/// A committed spec with some `key = value` lines replaced, written
/// where the test can load it.
fn shrunk(w: Workload, overrides: &[(&str, &str)]) -> PathBuf {
    let text = std::fs::read_to_string(repo_root().join(w.spec_path())).expect("committed spec");
    let lines: Vec<String> = text
        .lines()
        .map(|line| {
            let key = line.split('=').next().unwrap_or("").trim();
            match overrides.iter().find(|(k, _)| *k == key) {
                Some((k, v)) => format!("{k} = {v}"),
                None => line.to_string(),
            }
        })
        .collect();
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke_{}.spec", w.name()));
    std::fs::write(&path, lines.join("\n")).expect("write smoke spec");
    path
}

#[test]
fn a_tiny_smoke_run_reports_every_metric_and_traces_the_same_outputs() {
    let tiny = [
        (
            Workload::RooflinePaper,
            shrunk(
                Workload::RooflinePaper,
                &[("matrix_full", "32"), ("compute_ns", "[100.0, 6000.0]")],
            ),
        ),
        (
            Workload::DecodeKv,
            shrunk(
                Workload::DecodeKv,
                &[
                    ("horizon_ns", "2000000"),
                    ("rates", "[2000.0]"),
                    ("shapes", "[\"2\"]"),
                ],
            ),
        ),
        (
            Workload::Fleet1k,
            shrunk(
                Workload::Fleet1k,
                &[
                    ("hosts", "[2]"),
                    ("shapes", "[\"2\"]"),
                    ("rate_rps", "20000.0"),
                ],
            ),
        ),
    ];
    for (w, spec_path) in tiny {
        let opts = |traced| Options {
            workload: w,
            spec_path: spec_path.clone(),
            scale: if w == Workload::RooflinePaper {
                Scale::Paper
            } else {
                Scale::Quick
            },
            traffic_seed: Some(11),
            traced,
            commit: "test".to_string(),
        };
        let setup_only = record::run_setup_only(&opts(false)).expect("set-up-only run");
        assert!(number(field(&setup_only, "setup_s")).is_some_and(|s| s > 0.0));
        let plain = record::run(&opts(false)).expect("plain run");
        let traced = record::run(&opts(true)).expect("traced run");
        for r in [&plain.value, &traced.value] {
            assert_eq!(
                field(r, "failures").as_seq().map(<[Value]>::len),
                Some(0),
                "{r:?}"
            );
            let manifest = field(r, "manifest");
            for key in [
                "spec_hash",
                "scale",
                "traffic_seed",
                "jobs",
                "nproc",
                "commit",
            ] {
                field(manifest, key);
            }
        }
        let got = numbers(&plain.value);
        for (name, _) in END_TO_END {
            assert!(
                got.get(name).is_some_and(|&v| v > 0.0),
                "{}: {name} missing or 0",
                w.name()
            );
        }
        let got = numbers(&traced.value);
        for (name, _) in PER_LAYER {
            assert!(got.contains_key(name), "{}: {name} missing", w.name());
        }
        assert!(got["sim.events"] > 0.0 && got["topology.builds"] > 0.0);
        assert_eq!(
            field(&plain.value, "outputs_digest"),
            field(&traced.value, "outputs_digest"),
            "{}: the traced re-composition computed something else",
            w.name()
        );
        check_nesting(&traced.spans).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let trace = accesys_perfbench::trace::chrome_json(&traced.spans);
        let doc: Value = serde_json::from_str(&trace).expect("trace JSON parses");
        assert_eq!(
            field(&doc, "traceEvents").as_seq().map(<[Value]>::len),
            Some(traced.spans.len())
        );
    }
}
