//! The parallel-runner contract: a sweep over real simulations must
//! produce bit-identical results — and byte-identical JSON — no matter
//! how many workers execute it. Each sweep point builds its own
//! [`accesys::Simulation`] (one isolated kernel), which is exactly the
//! isolation guarantee ARCHITECTURE.md documents.

use accesys::sim::Stats;
use accesys::{Simulation, SystemConfig};
use accesys_exp::{Experiment, Grid, Jobs};
use accesys_mem::MemTech;
use accesys_workload::GemmSpec;

/// A small but real sweep: full module-counter reports, not just times,
/// so any cross-thread nondeterminism anywhere in the stack shows up.
fn stats_experiment() -> impl Experiment<Point = (f64, u32), Out = Stats> {
    Grid::cross2("determinism", [2.0, 8.0], [64u32, 128, 256]).sweep(|&(bw, pkt)| {
        let cfg = SystemConfig::pcie_host(bw, MemTech::Ddr4).with_request_bytes(pkt);
        let mut sim = Simulation::new(cfg).expect("valid config");
        sim.run_gemm(GemmSpec::square(96)).expect("gemm completes");
        sim.stats()
    })
}

#[test]
fn sweep_stats_are_bit_identical_across_worker_counts() {
    let serial = stats_experiment().run(Jobs::serial());
    let parallel = stats_experiment().run(Jobs::new(4));
    assert_eq!(serial.points.len(), parallel.points.len());
    for ((p_ser, s_ser), (p_par, s_par)) in serial.points.iter().zip(parallel.points.iter()) {
        assert_eq!(p_ser, p_par, "point order must match");
        assert_eq!(s_ser, s_par, "stats for {p_ser:?} must be bit-identical");
    }
}

#[test]
fn sweep_json_is_byte_identical_across_worker_counts() {
    let serial = stats_experiment().run(Jobs::serial()).to_json().unwrap();
    let parallel = stats_experiment().run(Jobs::new(8)).to_json().unwrap();
    assert_eq!(serial, parallel);
}

#[test]
fn driver_output_matches_across_worker_counts() {
    // End to end through a real spec-backed driver.
    use accesys_bench::{fig2, specs, Scale};
    let accesys_spec::Scenario::Roofline(sc) = specs::load("paper_baseline").scenario else {
        unreachable!()
    };
    let run = |jobs: Jobs| fig2::experiment_for(&sc, Scale::Quick).run(jobs).to_json();
    assert_eq!(run(Jobs::serial()).unwrap(), run(Jobs::new(4)).unwrap());
}

#[test]
fn a_panicking_simulation_point_fails_fast_not_hangs() {
    // A panicking point must propagate out of Experiment::run.
    let sweep = Grid::new("boom", vec![1u32, 2, 3, 4, 5, 6]).sweep(|&n| {
        if n == 4 {
            panic!("config {n} is broken");
        }
        n * 10
    });
    let result = std::panic::catch_unwind(|| sweep.run(Jobs::new(3)));
    assert!(result.is_err(), "panic must reach the caller");
}
