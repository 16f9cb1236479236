//! Single-job acceptance gate: the one-GEMM and one-stream entry points
//! must reproduce their pinned reports **byte-for-byte**.
//!
//! `golden/gemm_stream_quick.json` pins, at GEMM 64 on the Table II
//! baseline, a device-memory HBM2 system and an 8-lane CXL host:
//!
//! * the full [`RunReport`] of [`Simulation::run_gemm`], then of
//!   [`Simulation::run_gemm_verified`] on the same simulation (so the
//!   cookie sequence and the kernel clock carry over), with its
//!   functional check;
//! * the elapsed ns of a one-task `Stream` graph run through
//!   [`Simulation::run_graph`] on the host and the device-memory systems
//!   (two streams each, one after the other);
//! * the typed error of a stream larger than its activation window,
//!   read side and write side.
//!
//! Regenerate only for *intentional* model changes:
//! `ACCESYS_REGEN_GOLDEN=1 cargo test -p accesys-bench --test golden_gemm`.
//!
//! [`RunReport`]: accesys::RunReport

use accesys::addrmap::ACT_SPLIT;
use accesys::{RunError, Simulation, SystemConfig};
use accesys_mem::MemTech;
use accesys_workload::graph::{Affinity, TaskGraph, TaskKind};
use accesys_workload::GemmSpec;
use serde::{Serialize, Value};

const GOLDEN: &str = include_str!("golden/gemm_stream_quick.json");
const GOLDEN_PATH: &str = "tests/golden/gemm_stream_quick.json";

fn systems() -> [(&'static str, SystemConfig); 3] {
    [
        ("paper_baseline", SystemConfig::paper_baseline()),
        ("devmem_hbm2", SystemConfig::devmem(MemTech::Hbm2)),
        ("cxl_host_8_ddr4", SystemConfig::cxl_host(8, MemTech::Ddr4)),
    ]
}

/// Run one CPU stream as a one-task graph named `stream`, from the base
/// of the activation windows; its elapsed ns.
fn stream(
    sim: &mut Simulation,
    read_bytes: u64,
    write_bytes: u64,
    flops: u64,
) -> Result<f64, RunError> {
    let mut g = TaskGraph::new();
    let kind = TaskKind::Stream {
        read_bytes,
        write_bytes,
        flops,
    };
    g.add("stream", kind, Affinity::AnyAccel, vec![]);
    Ok(sim.run_graph(&g)?.total_time_ns())
}

fn entry(key: &str, value: Value) -> (String, Value) {
    (key.to_string(), value)
}

#[test]
fn single_gemm_and_stream_runs_match_the_pinned_snapshot_byte_for_byte() {
    let spec = GemmSpec::square(64);
    let mut gemms = Vec::new();
    for (name, cfg) in systems() {
        let mut sim = Simulation::new(cfg).expect("valid preset");
        let plain = sim.run_gemm(spec).expect("gemm runs");
        let (verified, passed) = sim.run_gemm_verified(spec).expect("verified gemm runs");
        assert!(passed, "{name}: functional GEMM result mismatch");
        gemms.push(entry(
            name,
            Value::Map(vec![
                entry("run_gemm", plain.to_value()),
                entry("run_gemm_verified", verified.to_value()),
                entry("passed", passed.to_value()),
            ]),
        ));
    }

    let mut streams = Vec::new();
    for (name, cfg) in [
        ("host", SystemConfig::paper_baseline()),
        ("devmem", SystemConfig::devmem(MemTech::Hbm2)),
    ] {
        let mut sim = Simulation::new(cfg).expect("valid preset");
        let first = stream(&mut sim, 1 << 20, 1 << 20, 1 << 16).expect("stream runs");
        let second = stream(&mut sim, 256 << 10, 64 << 10, 0).expect("stream runs");
        let read_err =
            stream(&mut sim, ACT_SPLIT + 1, 0, 0).expect_err("oversized read is rejected");
        let write_err =
            stream(&mut sim, 0, ACT_SPLIT + 1, 0).expect_err("oversized write is rejected");
        streams.push(entry(
            name,
            Value::Map(vec![
                entry("ns", vec![first, second].to_value()),
                entry(
                    "oversized_read",
                    format!("{read_err:?}: {read_err}").to_value(),
                ),
                entry(
                    "oversized_write",
                    format!("{write_err:?}: {write_err}").to_value(),
                ),
                entry("end_tick", sim.kernel().now().to_value()),
            ]),
        ));
    }

    let snapshot = Value::Map(vec![
        entry("gemm", Value::Map(gemms)),
        entry("stream", Value::Map(streams)),
    ]);
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    if std::env::var("ACCESYS_REGEN_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, format!("{json}\n")).expect("golden written");
        return;
    }
    assert_eq!(
        json.trim(),
        GOLDEN.trim(),
        "run_gemm / run_gemm_verified / one-stream runs drifted from the pinned snapshot"
    );
}
