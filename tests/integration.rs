//! Cross-crate integration tests: whole-system behaviours that no single
//! crate can check alone.

use gem5_accesys::accesys::{AccessMode, Simulation, SystemConfig};
use gem5_accesys::prelude::*;
use gem5_accesys::workload::graph::{Affinity, TaskGraph, TaskKind};

fn baseline() -> SystemConfig {
    SystemConfig::paper_baseline()
}

#[test]
fn functional_gemm_is_correct_in_every_access_path() {
    // DC over PCIe with SMMU.
    let mut dc = Simulation::new(baseline()).unwrap();
    let (_, ok) = dc.run_gemm_verified(GemmSpec::square(64)).unwrap();
    assert!(ok, "DC mode result wrong");

    // DM over PCIe (cache bypass).
    let mut cfg = baseline();
    cfg.access_mode = AccessMode::DirectMemory;
    let mut dm = Simulation::new(cfg).unwrap();
    let (_, ok) = dm.run_gemm_verified(GemmSpec::square(64)).unwrap();
    assert!(ok, "DM mode result wrong");

    // Device-side memory (PCIe bypassed for data).
    let mut dev = Simulation::new(SystemConfig::devmem(MemTech::Hbm2)).unwrap();
    let (_, ok) = dev.run_gemm_verified(GemmSpec::square(64)).unwrap();
    assert!(ok, "DevMem result wrong");
}

#[test]
fn simulation_is_deterministic() {
    let run = || {
        let mut sim = Simulation::new(baseline()).unwrap();
        let r = sim.run_gemm(GemmSpec::square(96)).unwrap();
        (r.total_ticks, r.stats.get_or_zero("kernel.events"))
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same config + workload must replay identically");
}

#[test]
fn driver_handshake_is_balanced() {
    let mut sim = Simulation::new(baseline()).unwrap();
    let report = sim.run_gemm(GemmSpec::square(64)).unwrap();
    let s = &report.stats;
    assert_eq!(s.get_or_zero("cpu.jobs_launched"), 1.0);
    assert_eq!(s.get_or_zero("accel0.doorbells"), 1.0);
    assert_eq!(s.get_or_zero("accel0.msis"), 1.0);
    assert_eq!(s.get_or_zero("cpu.irqs"), 1.0);
    assert_eq!(s.get_or_zero("accel0.jobs_done"), 1.0);
}

#[test]
fn dma_traffic_matches_controller_accounting() {
    let mut sim = Simulation::new(baseline()).unwrap();
    let report = sim.run_gemm(GemmSpec::square(128)).unwrap();
    let s = &report.stats;
    let loaded: f64 = report.jobs.iter().map(|j| j.bytes_loaded as f64).sum();
    let stored: f64 = report.jobs.iter().map(|j| j.bytes_stored as f64).sum();
    assert_eq!(s.get_or_zero("dma0.bytes_read"), loaded);
    assert_eq!(s.get_or_zero("dma0.bytes_written"), stored);
    // Every DMA request crossed the PCIe endpoint in a host-memory
    // config; the one extra write is the completion MSI.
    assert_eq!(
        s.get_or_zero("pcie.ep0.reads_sent") + s.get_or_zero("pcie.ep0.writes_sent"),
        s.get_or_zero("dma0.requests") + 1.0
    );
}

#[test]
fn smmu_translates_every_dma_request() {
    let mut sim = Simulation::new(baseline()).unwrap();
    let report = sim.run_gemm(GemmSpec::square(64)).unwrap();
    assert_eq!(
        report.smmu.translations as f64,
        report.stats.get_or_zero("dma0.requests"),
        "each DMA request needs exactly one translation"
    );
    assert!(report.smmu.utlb_lookups >= report.smmu.translations);
}

#[test]
fn disabling_the_smmu_removes_walks_and_helps_latency() {
    let mut with = Simulation::new(baseline()).unwrap();
    let r_with = with.run_gemm(GemmSpec::square(96)).unwrap();
    let mut cfg = baseline();
    cfg.smmu = None;
    let mut without = Simulation::new(cfg).unwrap();
    let r_without = without.run_gemm(GemmSpec::square(96)).unwrap();
    assert!(r_with.smmu.ptw_count > 0);
    assert_eq!(r_without.smmu.ptw_count, 0);
    assert!(
        r_without.total_ticks <= r_with.total_ticks,
        "translation cannot make things faster"
    );
}

#[test]
fn devmem_numa_penalizes_cpu_streams() {
    // The same Non-GEMM stream is much slower when the data lives in
    // device memory (CPU reaches it over PCIe) — the Fig. 8 mechanism.
    let mut stream = TaskGraph::new();
    let kind = TaskKind::Stream {
        read_bytes: 512 << 10,
        write_bytes: 512 << 10,
        flops: 0,
    };
    stream.add("stream", kind, Affinity::AnyAccel, vec![]);
    let mut host = Simulation::new(SystemConfig::pcie_host(8.0, MemTech::Ddr4)).unwrap();
    let t_host = host.run_graph(&stream).unwrap().total_time_ns();
    let mut dev = Simulation::new(SystemConfig::devmem(MemTech::Hbm2)).unwrap();
    let t_dev = dev.run_graph(&stream).unwrap().total_time_ns();
    let ratio = t_dev / t_host;
    assert!(
        ratio > 2.0,
        "NUMA penalty should be large: {ratio:.2}x ({t_host} vs {t_dev})"
    );
}

#[test]
fn vit_layer_composes_gemm_and_non_gemm_phases() {
    let mut sim = Simulation::new(SystemConfig::pcie_host(8.0, MemTech::Ddr4)).unwrap();
    let report = sim.run_vit_layer(VitModel::Base).unwrap();
    // Six GEMM ops, two with per-head repetition.
    assert_eq!(report.jobs.len(), 4 + 2 * 12);
    // All phases accounted: gemm + nongemm + other == total.
    let sum = report.gemm_ns() + report.non_gemm_ns() + report.other_ns();
    let total = report.total_time_ns();
    assert!((sum - total).abs() / total < 1e-6, "{sum} vs {total}");
    // Six named GEMM phases appear in the op breakdown.
    let by_op = report.by_op();
    for name in ["gemm:qkv", "gemm:scores", "gemm:fc1", "nongemm:softmax"] {
        assert!(
            by_op.iter().any(|(l, _)| l == name),
            "missing phase {name}: {by_op:?}"
        );
    }
}

#[test]
fn sequential_jobs_on_one_simulation_accumulate() {
    let mut sim = Simulation::new(baseline()).unwrap();
    let r1 = sim.run_gemm(GemmSpec::square(64)).unwrap();
    let r2 = sim.run_gemm(GemmSpec::square(64)).unwrap();
    assert_eq!(r1.jobs.len(), 1);
    assert_eq!(r2.jobs.len(), 1);
    // Second run reports only its own job, but the cookie advanced.
    assert_ne!(r1.jobs[0].cookie, r2.jobs[0].cookie);
}

#[test]
fn event_counts_are_sane_for_small_runs() {
    let mut sim = Simulation::new(baseline()).unwrap();
    sim.run_gemm(GemmSpec::square(64)).unwrap();
    let events = sim.kernel().events_processed();
    // A 64x64x64 GEMM moves ~100 KiB; the event count should be within
    // a sane envelope (catches accidental event storms).
    assert!(events > 1_000, "suspiciously few events: {events}");
    assert!(events < 2_000_000, "event storm: {events}");
}

#[test]
fn invalid_configs_are_rejected_not_built() {
    let mut cfg = baseline();
    cfg.dma.request_bytes = 100; // not a power of two
    assert!(Simulation::new(cfg).is_err());
    let mut cfg = baseline();
    cfg.dma.channels = 2; // controller needs 3
    assert!(Simulation::new(cfg).is_err());
}
