//! Property tests over the workload graph layer: randomly shaped
//! *valid* DAGs (random kinds, dependencies and affinities) must
//! validate, dispatch to completion on randomly shaped switch-tree
//! topologies with every GEMM task becoming exactly one accelerator
//! job, and keep the parallel-sweep determinism contract (`jobs=1` vs
//! `jobs=N` byte-identical) — on arbitrary graphs, not just the
//! hand-written chains.

use accesys::topology::switch_tree;
use accesys::{Simulation, SystemConfig};
use accesys_exp::{Experiment, Grid, Jobs};
use accesys_mem::MemTech;
use accesys_workload::graph::{Affinity, TaskGraph, TaskKind};
use accesys_workload::GemmSpec;
use proptest::prelude::*;

/// A small deterministic generator (split-mix style) so the DAG shape is
/// a pure function of the seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Build a random *valid* DAG: every dependency points at an earlier
/// task (acyclic by construction), pins stay inside the device count.
fn random_dag(seed: u64, tasks: usize, devices: usize) -> TaskGraph {
    let mut rng = Gen(seed);
    let mut g = TaskGraph::new();
    for i in 0..tasks {
        let kind = match rng.below(8) {
            0..=3 => TaskKind::Gemm(GemmSpec::square(16 + rng.below(4) as u32 * 16)),
            4..=5 => TaskKind::Stream {
                read_bytes: 1 << (8 + rng.below(6)),
                write_bytes: 1 << (8 + rng.below(6)),
                flops: rng.below(1 << 12),
            },
            6 => TaskKind::Transfer {
                bytes: 1 << (8 + rng.below(6)),
            },
            _ => TaskKind::Barrier,
        };
        let affinity = if rng.below(2) == 0 {
            Affinity::AnyAccel
        } else {
            Affinity::Pinned(rng.below(devices as u64) as usize)
        };
        // Up to three edges into the recent past.
        let mut deps = Vec::new();
        for _ in 0..rng.below(4) {
            if i > 0 {
                let d = i - 1 - rng.below(i.min(5) as u64) as usize;
                if !deps.contains(&d) {
                    deps.push(d);
                }
            }
        }
        g.add(format!("t{i}"), kind, affinity, deps);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn random_dags_dispatch_on_random_trees(
        depth in 1usize..3,
        fanout in 1u32..4,
        tasks in 1usize..24,
        seed in any::<u64>(),
    ) {
        let devices = fanout.pow(depth as u32) as usize;
        let mut cfg = SystemConfig::pcie_host(16.0, MemTech::Ddr4)
            .with_compute_override_ns(5_000.0);
        cfg.smmu = None;
        let levels = vec![fanout; depth];
        let graph = random_dag(seed, tasks, devices);
        prop_assert!(graph.validate(devices).is_ok());

        let spec = switch_tree(&cfg, &levels).expect("generated trees are valid");
        let mut sim = Simulation::from_topology(cfg.clone(), &spec).expect("valid topology");
        let (report, plan) = sim.run_graph_planned(&graph).expect("graph completes");

        // Every GEMM task became exactly one accelerator job; every
        // CPU task left a phase mark.
        prop_assert_eq!(report.jobs.len(), graph.device_task_count());
        prop_assert_eq!(plan.tasks, graph.len());
        prop_assert_eq!(plan.launches as usize, graph.device_task_count());
        if graph.device_task_count() > 0 || graph.tasks().iter().any(|t| matches!(
            t.kind,
            TaskKind::Stream { .. } | TaskKind::Transfer { .. }
        )) {
            prop_assert!(report.total_time_ns() > 0.0);
        }

        // Determinism across sweep worker counts on this graph.
        let make_sweep = || {
            let cfg = cfg.clone();
            let levels = levels.clone();
            let graph = graph.clone();
            Grid::new("graph-prop", [0u32, 1]).sweep(move |_| {
                let spec = switch_tree(&cfg, &levels).expect("valid");
                let mut sim = Simulation::from_topology(cfg.clone(), &spec).expect("valid");
                sim.run_graph(&graph).expect("completes").stats
            })
        };
        let serial = make_sweep().run(Jobs::serial()).to_json().expect("serializes");
        let parallel = make_sweep().run(Jobs::new(2)).to_json().expect("serializes");
        prop_assert_eq!(serial, parallel, "jobs=1 vs jobs=2 JSON diverged");
    }

    #[test]
    fn chain_dags_match_the_sequential_driver_plan(
        tasks in 1usize..16,
        seed in any::<u64>(),
    ) {
        // Any pure chain (each task depending on its predecessor) must
        // issue synchronously (`LaunchJob`) throughout: zero async
        // launches, zero waits — the sequential drivers' program shape.
        let mut rng = Gen(seed);
        let mut g = TaskGraph::new();
        let mut prev: Option<usize> = None;
        for i in 0..tasks {
            let kind = if rng.below(2) == 0 {
                TaskKind::Gemm(GemmSpec::square(16 + rng.below(4) as u32 * 16))
            } else {
                TaskKind::Stream {
                    read_bytes: 1 << 12,
                    write_bytes: 1 << 12,
                    flops: 1 << 10,
                }
            };
            let deps = prev.into_iter().collect();
            prev = Some(g.add(format!("t{i}"), kind, Affinity::Pinned(0), deps));
        }
        let mut cfg = SystemConfig::pcie_host(16.0, MemTech::Ddr4)
            .with_compute_override_ns(5_000.0);
        cfg.smmu = None;
        let mut sim = Simulation::new(cfg).expect("valid config");
        let (_, plan) = sim.run_graph_planned(&g).expect("chain completes");
        prop_assert_eq!(plan.async_launches, 0);
        prop_assert_eq!(plan.waits, 0);
        prop_assert_eq!(plan.sync_launches, plan.launches);
    }
}
