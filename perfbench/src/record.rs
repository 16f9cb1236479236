//! One sweep's record: the manifest, the outputs digest and accounting
//! checks, the end-to-end timings, and — on a traced run — the
//! per-layer metrics.

use crate::trace::{Recorder, Span};
use crate::traced::{run_traced, SimTotals, TracedSweep, MODEL_COUNTERS};
use crate::workload::{point_count, run_plain, set_traffic_seed, setup, Workload};
use accesys_exp::Scale;
use accesys_spec::Spec;
use serde::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics every untraced record carries: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics every traced record carries: `(name, unit)`. A
/// layer a workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("spec.load_s", "s"),
    ("spec.dry_build_s", "s"),
    ("topology.builds", "count"),
    ("topology.build_s", "s"),
    ("arrivals.generated", "count"),
    ("arrivals.gen_s", "s"),
    ("sim.run_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.events_per_request", "count"),
    ("sim.peak_queue_depth", "count"),
    ("serve.rounds", "count"),
    ("serve.run_s_per_round", "s"),
    ("serve.kv_transfer_tasks", "count"),
    ("serve.kv_evicted_bytes", "bytes"),
    ("fleet.host_s_p50", "s"),
    ("fleet.host_s_max", "s"),
    ("fleet.merge_s", "s"),
    ("exp.point_s_max", "s"),
    ("exp.busy_share", "share"),
    (MODEL_COUNTERS[0], "count"),
    (MODEL_COUNTERS[1], "count"),
    (MODEL_COUNTERS[2], "count"),
    (MODEL_COUNTERS[3], "count"),
    (MODEL_COUNTERS[4], "count"),
    (MODEL_COUNTERS[5], "count"),
];

/// What one benchmark process runs.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Its spec file (normally [`Workload::spec_path`]).
    pub spec_path: PathBuf,
    /// The scale (normally [`Workload::scale`]).
    pub scale: Scale,
    /// Poisson traffic seed override; `None` keeps the spec's.
    pub traffic_seed: Option<u64>,
    /// Run the traced re-composition instead of the `accesys run` call.
    pub traced: bool,
    /// Source revision, recorded in the manifest.
    pub commit: String,
}

/// One finished benchmark process.
#[derive(Debug)]
pub struct Record {
    /// The record as JSON.
    pub value: Value,
    /// Every span the run recorded (set-up spans only when untraced).
    pub spans: Vec<Span>,
}

/// 64-bit FNV-1a of `bytes`, as 16 hex digits.
pub fn fnv1a(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{hash:016x}")
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Peak resident memory of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn num(out: &[(String, Value)], key: &str) -> Option<f64> {
    match &out.iter().find(|(k, _)| k == key)?.1 {
        Value::U64(v) => Some(*v as f64),
        Value::I64(v) => Some(*v as f64),
        Value::F64(v) => Some(*v),
        _ => None,
    }
}

/// The accounting invariants over a sweep's JSON: per point,
/// `offered = admitted + rejected`, `completed = admitted` (fleet rows
/// carry `completed`; decode rows do not), a positive execution time
/// (roofline rows) and a batching round when requests were admitted
/// (decode and fleet rows). The last two stand in for the traced run's
/// "every simulation that served requests processed kernel events",
/// which the untraced JSON cannot show.
/// Returns `(point, reason)` per violation.
pub fn check_accounting(value: &Value) -> Vec<(usize, String)> {
    let points = value
        .as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == "points"))
        .and_then(|(_, v)| v.as_seq())
        .unwrap_or_default();
    let mut bad = Vec::new();
    for (i, point) in points.iter().enumerate() {
        let Some(out) = point
            .as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == "out"))
            .and_then(|(_, v)| v.as_map())
        else {
            bad.push((i, "point has no output".to_string()));
            continue;
        };
        let get = |key| num(out, key);
        if let (Some(o), Some(a), Some(r)) = (get("offered"), get("admitted"), get("rejected")) {
            if o != a + r {
                bad.push((i, format!("offered {o} != admitted {a} + rejected {r}")));
            }
        }
        if let (Some(c), Some(a)) = (get("completed"), get("admitted")) {
            if c != a {
                bad.push((i, format!("completed {c} != admitted {a}")));
            }
        }
        if let Some(t) = get("exec_ns") {
            if t.is_nan() || t <= 0.0 {
                bad.push((i, format!("exec_ns {t} is not positive")));
            }
        }
        if let (Some(0.0), Some(a)) = (get("rounds"), get("admitted")) {
            if a > 0.0 {
                bad.push((i, format!("admitted {a} but no batching round ran")));
            }
        }
    }
    bad
}

/// Self time of each span: its duration minus its children's.
fn self_secs(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.secs();
        }
    }
    own
}

/// The per-layer metrics of a traced sweep, in [`PER_LAYER`] order.
pub fn layer_metrics(
    spans: &[Span],
    sweep: &TracedSweep,
    setup_s: (f64, f64),
) -> Vec<(&'static str, f64)> {
    // Folded from +0.0: an empty `f64` sum is -0.0.
    let total = |values: &mut dyn Iterator<Item = f64>| values.fold(0.0, |a, b| a + b);
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let secs = |name| total(&mut named(name).map(Span::secs));
    let own = self_secs(spans);
    let sim_run_s = total(
        &mut spans
            .iter()
            .filter(|s| s.name == "sim.run" || s.name == "serve.run")
            .map(|s| own[s.id]),
    );
    let mut host_s: Vec<f64> = named("fleet.host").map(Span::secs).collect();
    let host_max = host_s.iter().copied().fold(0.0, f64::max);
    let busy: Vec<f64> = named("exp.point")
        .map(|p| {
            let waited: f64 = spans
                .iter()
                .filter(|s| s.parent == Some(p.id) && s.name == "fleet.pool_wait")
                .map(Span::secs)
                .sum();
            p.secs() - waited
        })
        .collect();
    let t: &SimTotals = &sweep.totals;
    let per = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
    let mut metrics = vec![
        ("spec.load_s", setup_s.0),
        ("spec.dry_build_s", setup_s.1),
        ("topology.builds", named("topology.build").count() as f64),
        ("topology.build_s", secs("topology.build")),
        (
            "arrivals.generated",
            named("arrivals.gen").map(|s| s.count).sum::<u64>() as f64,
        ),
        ("arrivals.gen_s", secs("arrivals.gen")),
        ("sim.run_s", sim_run_s),
        ("sim.events", t.events as f64),
        ("sim.events_per_s", per(t.events as f64, sim_run_s)),
        (
            "sim.events_per_request",
            per(t.events as f64, t.requests as f64),
        ),
        ("sim.peak_queue_depth", t.peak_queue_depth as f64),
        ("serve.rounds", t.rounds as f64),
        (
            "serve.run_s_per_round",
            per(secs("serve.run"), t.rounds as f64),
        ),
        ("serve.kv_transfer_tasks", t.kv_transfer_tasks as f64),
        ("serve.kv_evicted_bytes", t.kv_evicted_bytes as f64),
        ("fleet.host_s_p50", median(&mut host_s)),
        ("fleet.host_s_max", host_max),
        ("fleet.merge_s", secs("fleet.merge")),
        ("exp.point_s_max", busy.iter().copied().fold(0.0, f64::max)),
        (
            "exp.busy_share",
            per(
                total(&mut busy.iter().copied()),
                sweep.wall_s * sweep.jobs as f64,
            ),
        ),
    ];
    metrics.extend(
        MODEL_COUNTERS
            .iter()
            .zip(t.model)
            .map(|(&n, v)| (n, v as f64)),
    );
    metrics
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// Set up once, as `accesys run` does. Returns the spec, a recorder
/// holding the `spec.load` and `spec.dry_build` spans, and their host
/// seconds.
fn setup_once(opts: &Options) -> Result<(Spec, Recorder, f64, f64), String> {
    let mut rec = Recorder::new(Instant::now(), None);
    let spec = setup(&opts.spec_path, opts.scale, &mut rec)
        .map_err(|e| format!("{}: {e}", opts.spec_path.display()))?;
    let (load_s, dry_build_s) = (rec.spans()[0].secs(), rec.spans()[1].secs());
    Ok((spec, rec, load_s, dry_build_s))
}

/// Only set up, once: a record with that cold set-up's `setup_s`.
/// A sweep process gives one set-up sample, so `run.py` adds many such
/// short processes to take a steady median.
///
/// # Errors
///
/// The set-up's diagnostic when the spec does not load or build.
pub fn run_setup_only(opts: &Options) -> Result<Value, String> {
    let (_, _, load_s, dry_build_s) = setup_once(opts)?;
    Ok(map(vec![
        ("workload", Value::Str(opts.workload.name().to_string())),
        ("mode", Value::Str("setup".to_string())),
        ("setup_s", Value::F64(load_s + dry_build_s)),
    ]))
}

/// Set up once, run the sweep once (traced or not) and build its
/// record.
///
/// # Errors
///
/// The set-up's diagnostic when the spec does not load or build.
pub fn run(opts: &Options) -> Result<Record, String> {
    let (mut spec, mut rec, load_s, dry_build_s) = setup_once(opts)?;
    let spec_hash = fnv1a(spec.canonical.as_bytes());
    let traffic_seed = set_traffic_seed(&mut spec, opts.traffic_seed);
    let points = point_count(&spec);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = nproc.min(points).max(1);

    let mut failures: Vec<(Option<usize>, String)> = Vec::new();
    let mut wall_s = 0.0;
    let mut value = Value::Null;
    let mut traced = None;
    if opts.traced {
        match catch_unwind(AssertUnwindSafe(|| {
            run_traced(&spec, opts.scale, jobs, &mut rec)
        })) {
            Ok(sweep) => {
                wall_s = sweep.wall_s;
                value = sweep.value.clone();
                failures.extend(
                    sweep
                        .failed_points
                        .iter()
                        .map(|(p, why)| (Some(*p), why.clone())),
                );
                traced = Some(sweep);
            }
            Err(payload) => failures.push((None, panic_text(&*payload))),
        }
    } else {
        let run = catch_unwind(|| {
            let start = Instant::now();
            let value = run_plain(&spec, opts.scale, jobs);
            (value, start.elapsed().as_secs_f64())
        });
        match run {
            Ok((v, secs)) => (value, wall_s) = (v, secs),
            Err(payload) => failures.push((None, panic_text(&*payload))),
        }
    }
    failures.extend(
        check_accounting(&value)
            .into_iter()
            .map(|(p, why)| (Some(p), why)),
    );
    let failed_points = if failures.iter().any(|(p, _)| p.is_none()) {
        points
    } else {
        let mut ids: Vec<usize> = failures.iter().filter_map(|(p, _)| *p).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    };
    let outputs_json = serde_json::to_string(&value).expect("sweep values serialize");

    let manifest = map(vec![
        ("spec", Value::Str(opts.spec_path.display().to_string())),
        ("spec_hash", Value::Str(spec_hash)),
        (
            "scale",
            Value::Str(format!("{:?}", opts.scale).to_lowercase()),
        ),
        ("traffic_seed", traffic_seed.map_or(Value::Null, Value::U64)),
        ("jobs", Value::U64(jobs as u64)),
        ("nproc", Value::U64(nproc as u64)),
        ("commit", Value::Str(opts.commit.clone())),
    ]);
    let mut fields = vec![
        ("workload", Value::Str(opts.workload.name().to_string())),
        (
            "mode",
            Value::Str(if opts.traced { "traced" } else { "plain" }.to_string()),
        ),
        ("manifest", manifest),
        ("points", Value::U64(points as u64)),
        ("failed_points", Value::U64(failed_points as u64)),
        (
            "failures",
            Value::Seq(
                failures
                    .iter()
                    .map(|(p, why)| match p {
                        Some(p) => Value::Str(format!("point {p}: {why}")),
                        None => Value::Str(why.clone()),
                    })
                    .collect(),
            ),
        ),
        ("outputs_digest", Value::Str(fnv1a(outputs_json.as_bytes()))),
        ("wall_s", Value::F64(wall_s)),
        ("setup_s", Value::F64(load_s + dry_build_s)),
        ("peak_rss_mb", Value::F64(peak_rss_mb())),
    ];
    let spans = rec.into_spans();
    if let Some(sweep) = &traced {
        let layers = layer_metrics(&spans, sweep, (load_s, dry_build_s));
        let model: Vec<String> = MODEL_COUNTERS
            .iter()
            .zip(sweep.totals.model)
            .map(|(n, v)| format!("{n}={v}"))
            .collect();
        let model_digest = fnv1a(format!("{outputs_json}\n{}", model.join("\n")).as_bytes());
        fields.push(("model_digest", Value::Str(model_digest)));
        fields.push((
            "layers",
            Value::Map(
                layers
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Value::F64(v)))
                    .collect(),
            ),
        ));
    }
    Ok(Record {
        value: map(fields),
        spans,
    })
}
