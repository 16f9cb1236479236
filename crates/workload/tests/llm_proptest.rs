//! Property tests over the LLM workload family: random (batch,
//! prefill-len, decode-len, KV budget) shapes on random switch trees —
//! every generated graph validates and dispatches to completion, the
//! KV cache evicts *only* when the claimed slice is actually full
//! (checked against an independent shadow model), and sweeps stay
//! byte-identical across worker counts.

use accesys::topology::switch_tree_with;
use accesys::{MemBackendConfig, Simulation, SystemConfig};
use accesys_exp::{Experiment, Grid, Jobs};
use accesys_mem::MemTech;
use accesys_workload::llm::{moe_token_route, speculative_fork_verify, KvCache, KvEvent, LlmSpec};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A small deterministic generator (split-mix style), as in
/// `graph_proptest.rs`.
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

fn tree_sim(levels: &[u32]) -> Simulation {
    let mut cfg = SystemConfig::pcie_host(16.0, MemTech::Ddr4).with_compute_override_ns(5_000.0);
    cfg.smmu = None;
    let spec = switch_tree_with(&cfg, levels, |_| {
        Some(MemBackendConfig::Dram(MemTech::Hbm2))
    })
    .expect("generated trees are valid");
    Simulation::from_topology(cfg, &spec).expect("valid topology")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The eviction invariant, against an independent shadow model:
    /// a random claim/release workload over a random budget must evict
    /// exactly when (and only when) the claim strictly overflows the
    /// device's resident bytes — never on an exact fit, never while
    /// space remains, and the cache's resident accounting must agree
    /// with the shadow at every step.
    #[test]
    fn evictions_fire_only_when_the_slice_is_actually_full(
        budget in 64u64..4096,
        steps in 1usize..40,
        seed in any::<u64>(),
    ) {
        let mut rng = Gen(seed);
        let mut kv = KvCache::new(1, budget);
        // Shadow: request id → (bytes, resident).
        let mut shadow: BTreeMap<u64, (u64, bool)> = BTreeMap::new();
        for round in 0..steps as u64 {
            let id = rng.below(5);
            if rng.below(4) == 0 {
                kv.release(id);
                shadow.remove(&id);
                continue;
            }
            let bytes = 1 + rng.below(budget);
            let (old, resident) = shadow.get(&id).copied().unwrap_or((0, false));
            let total = old + bytes;
            let resident_before: u64 = shadow
                .values()
                .filter(|(_, r)| *r)
                .map(|(b, _)| *b)
                .sum();
            let delta = total - if resident { old } else { 0 };
            match kv.claim(id, 0, bytes, round) {
                Err(_) => {
                    prop_assert!(total > budget, "claim of {total} rejected under budget {budget}");
                }
                Ok(events) => {
                    prop_assert!(total <= budget);
                    let evicted: Vec<u64> = events
                        .iter()
                        .filter_map(|e| match e {
                            KvEvent::Evicted { request, .. } => Some(*request),
                            KvEvent::Restored { .. } => None,
                        })
                        .collect();
                    if evicted.is_empty() {
                        // No eviction ⇒ the claim fit as-is (exact fill
                        // included).
                        prop_assert!(
                            resident_before + delta <= budget,
                            "spurious eviction-free overflow: {resident_before}+{delta} > {budget}"
                        );
                    } else {
                        // Eviction ⇒ the slice really was full.
                        prop_assert!(
                            resident_before + delta > budget,
                            "evicted {evicted:?} while {resident_before}+{delta} <= {budget}"
                        );
                        prop_assert!(!evicted.contains(&id), "a request never evicts itself");
                    }
                    // Mirror the events into the shadow.
                    for e in events {
                        match e {
                            KvEvent::Evicted { request, .. } => {
                                shadow.get_mut(&request).expect("victim exists").1 = false;
                            }
                            KvEvent::Restored { request, bytes, .. } => {
                                prop_assert_eq!(request, id);
                                prop_assert_eq!(bytes, old);
                            }
                        }
                    }
                    shadow.insert(id, (total, true));
                }
            }
            let shadow_resident: u64 = shadow
                .values()
                .filter(|(_, r)| *r)
                .map(|(b, _)| *b)
                .sum();
            prop_assert_eq!(kv.resident_on(0), shadow_resident);
            prop_assert!(kv.resident_on(0) <= budget, "residency never exceeds the budget");
        }
    }

    /// Random autoregressive shapes on random trees: the family's
    /// graphs validate and dispatch to completion, and the whole sweep
    /// is byte-identical on one worker or two.
    #[test]
    fn random_llm_shapes_dispatch_on_random_trees(
        depth in 1usize..3,
        fanout in 1u32..3,
        batch in 1u32..4,
        prompt in 1u32..10,
        decode in 0u32..4,
        seed in any::<u64>(),
    ) {
        let devices = fanout.pow(depth as u32) as usize;
        let levels = vec![fanout; depth];
        let mut rng = Gen(seed);
        let spec = LlmSpec {
            hidden: 32 << rng.below(2),
            heads: 2,
            mlp: 64,
            layers: 1 + rng.below(2) as u32,
        };

        // Every family graph validates against the tree's device count.
        let prefill = spec.prefill_graph(batch, prompt);
        prop_assert!(prefill.validate(devices).is_ok());
        let spec_decode = speculative_fork_verify(&spec, prompt, 1 + decode, devices);
        prop_assert!(spec_decode.validate(devices).is_ok());
        let moe = moe_token_route(&spec, prompt * batch, 1 + rng.below(4) as usize, devices);
        prop_assert!(moe.validate(devices).is_ok());

        // And they all dispatch to completion on the tree.
        let mut sim = tree_sim(&levels);
        for g in [&prefill, &spec_decode, &moe] {
            sim.run_graph(g).expect("family graphs complete");
        }

        // Determinism across sweep worker counts: a two-point sweep
        // running prefill + speculative decode on fresh trees.
        let make_sweep = || {
            let levels = levels.clone();
            Grid::new("llm-prop", [0u32, 1]).sweep(move |_| {
                let mut sim = tree_sim(&levels);
                let a = sim.run_graph(&spec.prefill_graph(batch, prompt)).expect("completes");
                let b = sim
                    .run_graph(&speculative_fork_verify(&spec, prompt, 1 + decode, devices))
                    .expect("completes");
                (a.total_ticks, b.stats)
            })
        };
        let serial = make_sweep().run(Jobs::serial()).to_json().expect("serializes");
        let parallel = make_sweep().run(Jobs::new(2)).to_json().expect("serializes");
        prop_assert_eq!(serial, parallel, "jobs=1 vs jobs=2 JSON diverged");
    }
}
