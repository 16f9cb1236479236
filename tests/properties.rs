//! Property-based tests over core invariants, spanning crates.

use gem5_accesys::accesys::analytic::{PhaseTimes, ThresholdModel};
use gem5_accesys::accesys::{Simulation, SystemConfig};
use gem5_accesys::dma::{DmaDescriptor, DmaDone, DmaEngine, DmaEngineConfig};
use gem5_accesys::mem::{SimpleMemory, SimpleMemoryConfig};
use gem5_accesys::sim::{Ctx, EventQueue, Kernel, Module, Msg, Tick};
use gem5_accesys::workload::GemmSpec;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Records delivery times of timer messages.
struct Recorder {
    log: Vec<(Tick, u64)>,
}

impl Module for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }
    fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
        if let Msg::Timer(tag) = msg {
            self.log.push((ctx.now(), tag));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The kernel delivers events in nondecreasing time order, and ties
    /// fire in schedule order.
    #[test]
    fn kernel_delivers_in_time_order(times in prop::collection::vec(0u64..10_000, 1..64)) {
        let mut kernel = Kernel::new();
        let rec = kernel.add_module(Box::new(Recorder { log: vec![] }));
        for (i, &t) in times.iter().enumerate() {
            kernel.schedule(t, rec, Msg::Timer(i as u64));
        }
        kernel.run_until_idle().unwrap();
        let log = &kernel.module::<Recorder>(rec).unwrap().log;
        prop_assert_eq!(log.len(), times.len());
        for pair in log.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0, "time went backwards");
            if pair[0].0 == pair[1].0 {
                prop_assert!(pair[0].1 < pair[1].1, "tie broke schedule order");
            }
        }
    }

    /// The kernel's two-level event queue drains in exactly a binary
    /// min-heap's `(when, seq)` order. Each step, decoded from one random
    /// word, pops up to `n` events (kind 0) or pushes `n`: a same-tick
    /// burst (1), keys out of order within one calendar bucket (2), near
    /// sends (3), or far events past the ring's ≈1 µs horizon that
    /// migrate in as time advances (4).
    #[test]
    fn event_queue_drains_like_a_binary_heap(steps in prop::collection::vec(any::<u32>(), 1..120)) {
        let mut queue = EventQueue::new();
        let mut heap = BinaryHeap::new();
        let (mut now, mut seq) = (0, 0u64);
        for step in steps.iter().map(|&s| u64::from(s)) {
            let (kind, x, n) = (step % 5, step / 5 % 600, 1 + step / 3_000 % 11);
            for j in 0..n {
                if kind == 0 {
                    prop_assert_eq!(queue.peek_when(), heap.peek().map(|&Reverse((w, _))| w));
                    let popped = queue.pop().map(|(w, s, ())| (w, s));
                    prop_assert_eq!(popped, heap.pop().map(|Reverse(e)| e));
                    now = popped.map_or(now, |(w, _)| w);
                    continue;
                }
                let when = now + match kind {
                    1 => x,
                    2 => x + j * 5 % 11,
                    3 => x * 1_000,
                    _ => (1 << 20) + x * 50_000 + j % 2,
                };
                queue.push(when, seq, ());
                heap.push(Reverse((when, seq)));
                seq += 1;
            }
        }
        while let Some(Reverse(expected)) = heap.pop() {
            prop_assert_eq!(queue.pop().map(|(w, s, ())| (w, s)), Some(expected));
        }
        prop_assert!(queue.is_empty());
    }

    /// DMA segmentation is exact: request count and byte totals match
    /// the descriptor for any size/request combination.
    #[test]
    fn dma_segments_exactly(
        bytes in 1u64..100_000,
        request_shift in 6u32..13, // 64..8192
        write in any::<bool>(),
    ) {
        let request_bytes = 1u32 << request_shift;
        struct Waiter { done: Option<DmaDone> }
        impl Module for Waiter {
            fn name(&self) -> &str { "w" }
            fn handle(&mut self, msg: Msg, _ctx: &mut Ctx) {
                if let Ok(d) = msg.into_custom::<DmaDone>() {
                    self.done = Some(d);
                }
            }
        }
        let mut kernel = Kernel::new();
        let mem = kernel.add_module(Box::new(SimpleMemory::new(
            "m",
            SimpleMemoryConfig { latency_ns: 10.0, bandwidth_gbps: 16.0 },
        )));
        let dma = kernel.add_module(Box::new(DmaEngine::new("dma", DmaEngineConfig {
            channels: 1,
            request_bytes,
            max_inflight: 8,
            desc_latency_ns: 0.0,
        })));
        let w = kernel.add_module(Box::new(Waiter { done: None }));
        kernel.schedule(0, dma, Msg::custom(DmaDescriptor {
            channel: 0,
            addr: 0x1000,
            bytes,
            write,
            virt: false,
            target: mem,
            notify: w,
            cookie: 42,
        }));
        kernel.run_until_idle().unwrap();
        let stats = kernel.stats();
        let expected_requests = bytes.div_ceil(u64::from(request_bytes)) as f64;
        prop_assert_eq!(stats.get_or_zero("dma.requests"), expected_requests);
        let moved = if write { stats.get_or_zero("dma.bytes_written") }
                    else { stats.get_or_zero("dma.bytes_read") };
        prop_assert_eq!(moved, bytes as f64);
        let done = kernel.module::<Waiter>(w).unwrap().done;
        prop_assert_eq!(done, Some(DmaDone { channel: 0, cookie: 42, bytes }));
    }

    /// Table IV footprint arithmetic holds for any square size.
    #[test]
    fn gemm_footprint_pages(n in 1u32..4096) {
        let spec = GemmSpec::square(n);
        let bytes = 3 * u64::from(n) * u64::from(n) * 4;
        prop_assert_eq!(spec.footprint_bytes(), bytes);
        prop_assert_eq!(spec.footprint_pages(4096), bytes.div_ceil(4096));
    }

    /// The analytic crossover, when it exists, is a true tie point and
    /// the preferred system flips around it.
    #[test]
    fn threshold_model_crossover_is_a_tie(
        pg in 100.0f64..10_000.0,
        pn in 100.0f64..10_000.0,
        dg_scale in 0.05f64..1.0,
        dn_scale in 1.0f64..20.0,
        t_other in 0.0f64..1_000.0,
    ) {
        // DevMem: faster GEMM, slower Non-GEMM by construction.
        let model = ThresholdModel {
            pcie: PhaseTimes { gemm_ns: pg, non_gemm_ns: pn },
            devmem: PhaseTimes { gemm_ns: pg * dg_scale, non_gemm_ns: pn * dn_scale },
            t_other_ns: t_other,
        };
        let w = model.crossover_non_gemm_fraction();
        prop_assert!(w.is_some(), "opposed phase times must cross");
        let w = w.unwrap();
        let pcie = model.total_ns(w, false);
        let devmem = model.total_ns(w, true);
        prop_assert!((pcie - devmem).abs() <= 1e-6 * pcie.max(devmem));
        // Below the crossover (more GEMM), DevMem wins; above, PCIe wins.
        if w > 0.01 {
            prop_assert!(model.total_ns(w - 0.01, true) < model.total_ns(w - 0.01, false));
        }
        if w < 0.99 {
            prop_assert!(model.total_ns(w + 0.01, true) > model.total_ns(w + 0.01, false));
        }
    }
}

proptest! {
    /// Histogram invariants: count/sum exact, percentiles monotone in p,
    /// p100 bounds the max, merge equals bulk observation.
    #[test]
    fn histogram_percentiles_are_monotone_bounds(
        samples in prop::collection::vec(0.0f64..1e9, 1..200),
        split in 0usize..200,
    ) {
        use accesys_sim::Histogram;
        let mut h = Histogram::new();
        for &s in &samples {
            h.observe(s);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        let total: f64 = samples.iter().sum();
        prop_assert!((h.sum() - total).abs() <= 1e-6 * total.max(1.0));
        let mut last = 0.0;
        for p in [1.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
            let v = h.percentile(p);
            prop_assert!(v >= last, "percentile not monotone at p{p}");
            last = v;
        }
        let max = samples.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(h.percentile(100.0) >= max);
        // Merge of a split equals the whole (sum only to float tolerance:
        // summation order differs between the two constructions).
        let at = split.min(samples.len());
        let (left, right) = samples.split_at(at);
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        left.iter().for_each(|&s| a.observe(s));
        right.iter().for_each(|&s| b.observe(s));
        a.merge(&b);
        prop_assert_eq!(a.count(), h.count());
        prop_assert_eq!(a.min(), h.min());
        prop_assert_eq!(a.max(), h.max());
        prop_assert!((a.sum() - h.sum()).abs() <= 1e-9 * h.sum().max(1.0));
        prop_assert_eq!(a.iter().collect::<Vec<_>>(), h.iter().collect::<Vec<_>>());
    }

    /// Flit segmentation: every data packet takes ceil(size/64) flits,
    /// requests exactly one; payload bandwidth scales accordingly.
    #[test]
    fn flit_counts_match_payload(size in 1u32..16384) {
        use accesys_interconnect::FlitLinkConfig;
        use accesys_sim::{MemCmd, Packet};
        let cfg = FlitLinkConfig::cxl2(8);
        let write = Packet::request(0, MemCmd::WriteReq, 0, size, 0);
        prop_assert_eq!(cfg.flits_of(&write), size.div_ceil(64));
        let read = Packet::request(1, MemCmd::ReadReq, 0, size, 0);
        prop_assert_eq!(cfg.flits_of(&read), 1);
        let cpl = read.to_response();
        prop_assert_eq!(cfg.flits_of(&cpl), size.div_ceil(64));
    }

    /// CreditUnit accounting: flit credits equal flit occupancy for any
    /// packet, so terminal receivers conserve the link's pool.
    #[test]
    fn credit_unit_conserves_flit_pools(size in 1u32..8192, is_write in any::<bool>()) {
        use accesys_interconnect::{CreditUnit, FlitLinkConfig};
        use accesys_sim::{MemCmd, Packet};
        let cfg = FlitLinkConfig::cxl2(8);
        let unit = CreditUnit::Flits { payload_per_flit: 64 };
        let cmd = if is_write { MemCmd::WriteReq } else { MemCmd::ReadReq };
        let pkt = Packet::request(0, cmd, 0, size, 0);
        prop_assert_eq!(unit.credit_for(&pkt), cfg.flits_of(&pkt));
    }

    /// ViT full-graph bookkeeping: op count and MAC totals compose from
    /// embed + layers + head for every model.
    #[test]
    fn vit_full_graph_composes(idx in 0usize..3) {
        use accesys_workload::{vit_embed_ops, vit_full_ops, vit_head_ops, vit_ops, VitModel};
        let model = VitModel::ALL[idx];
        let macs = |ops: &[accesys_workload::Op]| -> u64 {
            ops.iter().map(|o| o.total_macs()).sum()
        };
        let full = vit_full_ops(model);
        let expect = macs(&vit_embed_ops(model))
            + u64::from(model.layers()) * macs(&vit_ops(model))
            + macs(&vit_head_ops(model));
        prop_assert_eq!(macs(&full), expect);
    }
}

proptest! {
    // Full-system runs are expensive; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The functional GEMM result is correct through the full system for
    /// arbitrary (array-aligned) shapes, including non-square ones.
    #[test]
    fn full_system_gemm_matches_golden(
        m in 1u32..5,
        n in 1u32..5,
        k in 1u32..5,
        seed in 0u64..1_000,
    ) {
        let spec = GemmSpec {
            m: m * 16,
            n: n * 16,
            k: k * 16,
            dtype_bytes: 4,
            seed,
        };
        let mut sim = Simulation::new(SystemConfig::paper_baseline()).unwrap();
        let (_, ok) = sim.run_gemm_verified(spec).unwrap();
        prop_assert!(ok, "functional mismatch for {spec}");
    }

    /// Sharding conserves work: for any shape and cluster size, shard C
    /// bytes sum to m×n×d and every member gets at most ceil(m/N) rows.
    #[test]
    fn sharded_gemm_conserves_output(
        m in 17u32..200,
        accels in 1u32..5,
    ) {
        use accesys_mem::MemTech;
        let cfg = accesys::SystemConfig::pcie_host(16.0, MemTech::Ddr4);
        let tree = accesys::topology::switch_tree(&cfg, &[accels]).unwrap();
        let mut sim = Simulation::from_topology(cfg, &tree).unwrap();
        let spec = GemmSpec::new(m, 64, 64);
        let report = sim.run_gemm_sharded(spec).unwrap();
        let stored: u64 = report.jobs.iter().map(|j| j.bytes_stored).sum();
        prop_assert_eq!(stored, u64::from(m) * 64 * 4);
        let shards = u64::from(m.div_ceil(m.div_ceil(accels)));
        prop_assert_eq!(report.jobs.len() as u64, shards.min(u64::from(accels)));
    }
}
