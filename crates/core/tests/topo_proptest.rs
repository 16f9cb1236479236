//! Property tests over the topology layer: randomly shaped *valid*
//! switch trees (depth × fan-out × memory placement × SMMU) must
//! validate, instantiate with no placeholder holes, run a sharded GEMM
//! on every leaf, and keep the parallel-sweep determinism contract —
//! `jobs=1` and `jobs=N` sweeps stay byte-identical on every topology,
//! not just the Fig. 1 preset.

use accesys::topology::switch_tree_with;
use accesys::{AccessMode, MemBackendConfig, Simulation, SystemConfig};
use accesys_exp::{Experiment, Grid, Jobs};
use accesys_mem::MemTech;
use accesys_workload::GemmSpec;
use proptest::prelude::*;

fn random_config(smmu: bool, direct_memory: bool) -> SystemConfig {
    let mut cfg = SystemConfig::pcie_host(8.0, MemTech::Ddr4);
    if !smmu {
        cfg.smmu = None;
    }
    if direct_memory {
        cfg.access_mode = AccessMode::DirectMemory;
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn random_valid_trees_build_and_run(
        depth in 1usize..3,
        fanout in 1u32..4,
        smmu in any::<bool>(),
        direct_memory in any::<bool>(),
        devmem_on_odd in any::<bool>(),
    ) {
        let levels = vec![fanout; depth];
        let endpoints = fanout.pow(depth as u32) as usize;
        let cfg = random_config(smmu, direct_memory);
        let spec = switch_tree_with(&cfg, &levels, |i| {
            (devmem_on_odd && i % 2 == 1)
                .then_some(MemBackendConfig::Dram(MemTech::Hbm2))
        })
        .expect("generated trees are valid");
        spec.validate().expect("presets validate");
        prop_assert_eq!(spec.devices().len(), endpoints);

        // Instantiate: every reserved slot must hold a real module (a
        // placeholder hole would panic mid-run on first delivery).
        let mut sim = Simulation::from_topology(cfg, &spec).expect("valid topology");
        let stats = sim.stats();
        prop_assert!(
            stats.iter().all(|(k, _)| !k.starts_with("placeholder")),
            "placeholder hole in instantiated topology"
        );

        // A small GEMM shards onto every leaf and completes (96 rows
        // splits into at least one row per device up to 16 leaves).
        let report = sim.run_gemm_sharded(GemmSpec::square(96)).expect("gemm completes");
        prop_assert_eq!(report.jobs.len(), endpoints);
        prop_assert!(report.total_time_ns() > 0.0);
        for i in 0..endpoints {
            prop_assert!(
                report.stats.get_or_zero(&format!("accel{i}.jobs_done")) >= 1.0,
                "leaf {} idle", i
            );
        }

        // Sweep determinism across worker counts holds on this topology.
        let shape = levels.clone();
        let make_sweep = || {
            let cfg = random_config(smmu, direct_memory);
            let shape = shape.clone();
            Grid::new("topo-prop", [48u32, 64]).sweep(move |&m| {
                let spec = switch_tree_with(&cfg, &shape, |i| {
                    (devmem_on_odd && i % 2 == 1)
                        .then_some(MemBackendConfig::Dram(MemTech::Hbm2))
                })
                .expect("valid");
                let mut sim = Simulation::from_topology(cfg.clone(), &spec).expect("valid");
                sim.run_gemm_sharded(GemmSpec::square(m)).expect("completes").stats
            })
        };
        let serial = make_sweep().run(Jobs::serial()).to_json().expect("serializes");
        let parallel = make_sweep().run(Jobs::new(2)).to_json().expect("serializes");
        prop_assert_eq!(serial, parallel, "jobs=1 vs jobs=2 JSON diverged");
    }
}
