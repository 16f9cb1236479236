//! Simulation driver: workload launching and report assembly.
//!
//! System *construction* lives in [`crate::topology`]: [`Simulation::new`]
//! lowers the [`SystemConfig`] to a [`TopologySpec`] and lets the generic
//! wiring engine instantiate it. CPU programs live in the dispatcher
//! (`dispatch.rs`), which compiles every workload's task graph — a single
//! GEMM is a one-task graph — so this module only lowers workloads to
//! graphs and lays out and enqueues accelerator jobs.

use crate::addrmap;
use crate::topology::{DeviceHandles, TopologyHandles, TopologySpec};
use crate::{BuildError, MemoryLocation, RunError, RunReport, SystemConfig, VitReport};
use accesys_accel::{AccelController, AccelJob, GemmOperands};
use accesys_interconnect::AddrRange;
use accesys_sim::{Kernel, ModuleId, Stats};
use accesys_smmu::{Smmu, SmmuStats};
use accesys_workload::graph::{self, Affinity, TaskGraph, TaskKind};
use accesys_workload::{vit_ops, GemmSpec, VitModel};
use std::sync::Arc;

/// A built system ready to run workloads.
///
/// One `Simulation` owns one [`Kernel`] holding an instantiated
/// [`TopologySpec`] — the paper's Fig. 1 shape when built with
/// [`Simulation::new`], or any validated custom shape (switch trees,
/// heterogeneous endpoints) via [`Simulation::from_topology`].
///
/// ```
/// use accesys::{Simulation, SystemConfig};
/// use accesys_workload::GemmSpec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sim = Simulation::new(SystemConfig::paper_baseline())?;
/// let report = sim.run_gemm(GemmSpec::square(64))?;
/// assert!(report.total_time_ns() > 0.0);
/// # Ok(())
/// # }
/// ```
pub struct Simulation {
    cfg: SystemConfig,
    kernel: Kernel,
    topo: TopologyHandles,
    next_cookie: u64,
}

impl Simulation {
    /// Build the classic Fig. 1 system from `cfg` by lowering it through
    /// the topology engine ([`SystemConfig::topology`]).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidConfig`] when [`SystemConfig::validate`]
    /// rejects the configuration.
    pub fn new(cfg: SystemConfig) -> Result<Self, BuildError> {
        let spec = cfg.topology()?;
        Self::from_topology(cfg, &spec)
    }

    /// Build a system from an explicit topology spec — switch trees
    /// ([`crate::topology::switch_tree`]), heterogeneous endpoints, or a
    /// hand-assembled graph. `cfg` still supplies workload-facing knobs
    /// (activation placement); the wiring comes entirely from `spec`.
    ///
    /// # Errors
    ///
    /// Returns any [`TopologySpec::validate`] error.
    pub fn from_topology(cfg: SystemConfig, spec: &TopologySpec) -> Result<Self, BuildError> {
        let mut kernel = Kernel::new();
        let topo = spec.instantiate(&mut kernel)?;
        Ok(Simulation {
            cfg,
            kernel,
            topo,
            next_cookie: 0,
        })
    }

    /// The configuration this system was built from.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Direct access to the kernel (advanced use: custom modules, extra
    /// instrumentation).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Mutable access to the kernel.
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    /// Kernel-side handles of the instantiated topology.
    pub fn handles(&self) -> &TopologyHandles {
        &self.topo
    }

    /// Number of accelerators in the system.
    pub fn accel_count(&self) -> usize {
        self.topo.devices.len()
    }

    /// Current SMMU statistics (zeroes when translation is disabled).
    pub fn smmu_stats(&self) -> SmmuStats {
        self.topo
            .smmu
            .and_then(|id| self.kernel.module::<Smmu>(id))
            .map(|s| s.smmu_stats())
            .unwrap_or_default()
    }

    /// All module counters.
    pub fn stats(&self) -> Stats {
        self.kernel.stats()
    }

    /// The next cookie value without consuming it (the graph compiler
    /// draws from a local counter and commits only on success).
    pub(crate) fn peek_cookie(&self) -> u64 {
        self.next_cookie
    }

    /// Consume `count` cookies after a successful graph compile.
    pub(crate) fn commit_cookies(&mut self, count: u64) {
        self.next_cookie += count;
    }

    pub(crate) fn device(&self, i: usize) -> &DeviceHandles {
        &self.topo.devices[i]
    }

    /// Where CPU-side Non-GEMM activations live: the host window, or the
    /// topology's claimed device-memory activation window (the classic
    /// monolithic base when the spec predates per-slice carving).
    fn act_base(&self) -> u64 {
        match self.cfg.mem_location {
            MemoryLocation::Host => addrmap::HOST_ACT_BASE,
            MemoryLocation::Device => self
                .topo
                .devmem_act_base
                .unwrap_or(addrmap::DEVMEM_ACT_BASE),
        }
    }

    /// The claimed `(read, write)` activation windows CPU streaming may
    /// use — the single source of the read/write split
    /// ([`addrmap::act_windows`]) every stream-address producer shares.
    pub(crate) fn act_windows(&self) -> (AddrRange, AddrRange) {
        addrmap::act_windows(self.act_base())
    }

    /// Lay out one GEMM job in device `device`'s configured data window
    /// (each device works in its own slice so concurrent shards never
    /// alias rows). The job carries no operands: timing only.
    pub(crate) fn layout_job(&self, spec: &GemmSpec, cookie: u64, device: usize) -> AccelJob {
        let d = self.device(device);
        let (a_sz, b_sz, _c_sz) =
            d.accel_cfg
                .region_bytes(spec.m, spec.n, spec.k, spec.dtype_bytes);
        let page_align = |x: u64| (x + 0xFFF) & !0xFFF;
        let a_addr = d.data_base;
        let b_addr = a_addr + page_align(a_sz);
        let c_addr = b_addr + page_align(b_sz);
        AccelJob {
            m: spec.m,
            n: spec.n,
            k: spec.k,
            dtype_bytes: spec.dtype_bytes,
            a_addr,
            b_addr,
            c_addr,
            virt: d.virt,
            data_target: d.data_target,
            msi_addr: addrmap::MSI.base,
            cookie,
            functional: None,
        }
    }

    pub(crate) fn enqueue(&mut self, job: AccelJob, device: usize) {
        let ctrl = self.device(device).ctrl;
        self.kernel
            .module_mut::<AccelController>(ctrl)
            .expect("controller present")
            .enqueue_job(job);
    }

    pub(crate) fn record_marks(&self) -> Vec<usize> {
        self.topo
            .devices
            .iter()
            .map(|d| {
                self.kernel
                    .module::<AccelController>(d.ctrl)
                    .expect("controller present")
                    .records()
                    .len()
            })
            .collect()
    }

    pub(crate) fn records_since(&self, before: &[usize]) -> Vec<accesys_accel::JobRecord> {
        let mut out = Vec::new();
        for (i, d) in self.topo.devices.iter().enumerate() {
            let recs = self
                .kernel
                .module::<AccelController>(d.ctrl)
                .expect("controller present")
                .records();
            out.extend_from_slice(&recs[before[i]..]);
        }
        out
    }

    /// Build a system from `cfg` and run one GEMM to completion: the
    /// one-shot entry point sweep closures use, since every sweep point
    /// builds its own isolated simulation.
    ///
    /// ```
    /// use accesys::{Simulation, SystemConfig};
    /// use accesys_workload::GemmSpec;
    ///
    /// let report =
    ///     Simulation::measure_gemm(SystemConfig::paper_baseline(), GemmSpec::square(32)).unwrap();
    /// assert!(report.total_time_ns() > 0.0);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error`] if the configuration is invalid or the
    /// run fails.
    pub fn measure_gemm(cfg: SystemConfig, spec: GemmSpec) -> Result<RunReport, crate::Error> {
        Ok(Simulation::new(cfg)?.run_gemm(spec)?)
    }

    /// Run one GEMM through the full system (driver doorbell → DMA →
    /// compute → MSI) and report: a one-task graph, the GEMM `job` on
    /// device 0.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] if the simulation livelocks or the program
    /// never observes the completion interrupt.
    pub fn run_gemm(&mut self, spec: GemmSpec) -> Result<RunReport, RunError> {
        self.run_graph_gemm(&gemm_job(spec))
    }

    /// Run one GEMM and verify the functional result against a golden
    /// reference: the one run whose job carries operands (generated from
    /// `spec`), so the accelerator also computes the product.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] as [`Simulation::run_gemm`] does.
    pub fn run_gemm_verified(&mut self, spec: GemmSpec) -> Result<(RunReport, bool), RunError> {
        let mut compiled = self.compile_graph(&gemm_job(spec))?;
        let (a, b) = spec.generate_operands();
        let (m, n, k) = (spec.m as usize, spec.n as usize, spec.k as usize);
        let ops = Arc::new(GemmOperands::new(m, n, k, a, b));
        compiled.jobs[0].1.functional = Some(Arc::clone(&ops));
        let report = self.run_compiled_gemm(compiled)?;
        let passed = ops.result().is_some_and(|r| r == ops.golden());
        Ok((report, passed))
    }

    /// Run one GEMM split row-wise across **all** devices: shard `i`
    /// computes rows `[i*m/N, (i+1)*m/N)` on accelerator `i`, all
    /// launched asynchronously and joined on their MSIs — the fork-join
    /// lowering ([`graph::gemm_fork_join`]) executed by the generic
    /// dispatcher.
    ///
    /// With one device this degenerates to [`Simulation::run_gemm`].
    /// Works on any topology — the shards land wherever each device's
    /// data placement says.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] if the simulation livelocks or any interrupt
    /// is lost.
    pub fn run_gemm_sharded(&mut self, spec: GemmSpec) -> Result<RunReport, RunError> {
        self.run_graph_gemm(&graph::gemm_fork_join(spec, self.accel_count()))
    }

    /// Run one encoder layer of `model`: GEMM operators offloaded to the
    /// accelerator, Non-GEMM operators streamed on the CPU from the
    /// configured memory location. Lowers to a chain
    /// [`graph::TaskGraph`] ([`graph::op_chain`]) executed by the
    /// generic dispatcher, reproducing the sequential driver exactly.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] if the simulation livelocks or an interrupt
    /// is lost.
    pub fn run_vit_layer(&mut self, model: VitModel) -> Result<VitReport, RunError> {
        self.run_graph(&graph::op_chain(&vit_ops(model)))
    }

    /// Run one BERT encoder layer at `seq_len` tokens — the NLP workload
    /// the paper's introduction motivates. Same GEMM/Non-GEMM split
    /// machinery as [`Simulation::run_vit_layer`].
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] if the simulation livelocks or an interrupt
    /// is lost.
    pub fn run_bert_layer(
        &mut self,
        model: accesys_workload::BertModel,
        seq_len: u32,
    ) -> Result<VitReport, RunError> {
        self.run_graph(&graph::op_chain(&accesys_workload::bert_ops(
            model, seq_len,
        )))
    }

    /// Ids useful for tests and instrumentation: `(cpu, llc, host_mem,
    /// rc, ep0, ctrl0, dma0, membus)`. Non-device entries are looked up
    /// by their canonical preset names and come back as
    /// [`ModuleId::INVALID`] on custom topologies that renamed them.
    #[doc(hidden)]
    pub fn debug_handles(
        &self,
    ) -> (
        ModuleId,
        ModuleId,
        ModuleId,
        ModuleId,
        ModuleId,
        ModuleId,
        ModuleId,
        ModuleId,
    ) {
        let by_name = |name: &str| self.topo.lookup(name).unwrap_or(ModuleId::INVALID);
        let rc = self
            .topo
            .lookup("pcie.rc")
            .or_else(|| self.topo.lookup("cxl.bridge"))
            .unwrap_or(ModuleId::INVALID);
        (
            self.topo.cpu,
            by_name("llc"),
            by_name("host_mem"),
            rc,
            self.topo.devices[0].ep,
            self.topo.devices[0].ctrl,
            self.topo.devices[0].dma,
            by_name("membus"),
        )
    }
}

/// The one-task graph [`Simulation::run_gemm`] dispatches: a GEMM named
/// `job` pinned to device 0. The compiler issues it as its sync
/// variant, `Mark "gemm:job"` then a blocking `LaunchJob`.
fn gemm_job(spec: GemmSpec) -> TaskGraph {
    let mut g = TaskGraph::new();
    g.add("job", TaskKind::Gemm(spec), Affinity::Pinned(0), vec![]);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{switch_tree, switch_tree_with, DataPlacement};
    use crate::{AccessMode, MemBackendConfig, SystemConfig};
    use accesys_mem::MemTech;

    #[test]
    fn baseline_gemm_end_to_end() {
        let mut sim = Simulation::new(SystemConfig::paper_baseline()).unwrap();
        let report = sim.run_gemm(GemmSpec::square(128)).unwrap();
        assert_eq!(report.jobs.len(), 1);
        assert!(report.total_time_ns() > 0.0);
        // Traffic flowed over PCIe and through the SMMU.
        assert!(report.stats.get_or_zero("pcie.ep0.reads_sent") > 0.0);
        assert!(report.smmu.translations > 0);
        assert!(report.stats.get_or_zero("cpu.irqs") >= 1.0);
    }

    #[test]
    fn functional_result_verified_through_full_system() {
        let mut sim = Simulation::new(SystemConfig::paper_baseline()).unwrap();
        let (report, passed) = sim.run_gemm_verified(GemmSpec::square(64)).unwrap();
        assert!(passed, "functional GEMM result mismatch");
        assert!(report.bytes_moved() > 0);
    }

    #[test]
    fn devmem_gemm_bypasses_pcie() {
        let mut sim = Simulation::new(SystemConfig::devmem(MemTech::Hbm2)).unwrap();
        let report = sim.run_gemm(GemmSpec::square(128)).unwrap();
        assert_eq!(report.jobs.len(), 1);
        // Data came from device memory, not over the PCIe endpoint.
        assert!(report.stats.get_or_zero("dev_mem.bytes") > 0.0);
        assert_eq!(report.stats.get_or_zero("pcie.ep0.reads_sent"), 0.0);
    }

    #[test]
    fn faster_pcie_is_faster_for_memory_bound_gemm() {
        let t = |gb: f64| {
            let mut sim = Simulation::new(SystemConfig::pcie_host(gb, MemTech::Ddr4)).unwrap();
            sim.run_gemm(GemmSpec::square(256)).unwrap().total_time_ns()
        };
        let slow = t(2.0);
        let fast = t(16.0);
        assert!(slow > 2.0 * fast, "slow {slow} fast {fast}");
    }

    #[test]
    fn dm_mode_skips_the_cache_hierarchy() {
        let mut cfg = SystemConfig::paper_baseline();
        cfg.access_mode = AccessMode::DirectMemory;
        let mut sim = Simulation::new(cfg).unwrap();
        let report = sim.run_gemm(GemmSpec::square(64)).unwrap();
        assert_eq!(report.stats.get_or_zero("iocache.misses"), 0.0);
        assert!(report.stats.get_or_zero("host_mem.bytes") > 0.0);
    }

    #[test]
    fn vit_layer_runs_with_phases() {
        let mut sim = Simulation::new(SystemConfig::pcie_host(8.0, MemTech::Ddr4)).unwrap();
        let report = sim.run_vit_layer(VitModel::Base).unwrap();
        assert!(report.gemm_ns() > 0.0);
        assert!(report.non_gemm_ns() > 0.0);
        assert_eq!(report.jobs.len(), 4 + 2 * 12); // qkv,proj,fc1,fc2 + 2x12 heads
    }

    // ---- CXL topology ----

    #[test]
    fn cxl_system_runs_gemm_end_to_end() {
        let mut sim = Simulation::new(SystemConfig::cxl_host(8, MemTech::Ddr4)).unwrap();
        let report = sim.run_gemm(GemmSpec::square(128)).unwrap();
        assert_eq!(report.jobs.len(), 1);
        // Traffic crossed the flit link, not a PCIe hierarchy.
        assert!(report.stats.get_or_zero("cxl.up.flits") > 0.0);
        assert_eq!(report.stats.get_or_zero("pcie.switch.up_tlps"), 0.0);
    }

    #[test]
    fn cxl_functional_results_stay_correct() {
        let mut sim = Simulation::new(SystemConfig::cxl_host(8, MemTech::Ddr4)).unwrap();
        let (_, passed) = sim.run_gemm_verified(GemmSpec::square(64)).unwrap();
        assert!(passed);
    }

    #[test]
    fn cxl_beats_equal_bandwidth_pcie_on_small_transfers() {
        // Same effective bandwidth; CXL wins on per-hop latency for a
        // latency-dominated (small) job.
        let mut cxl = Simulation::new(SystemConfig::cxl_host(8, MemTech::Ddr4)).unwrap();
        let cxl_bw = cxl.config().cxl_link.payload_bandwidth_gbps();
        let mut pcie = Simulation::new(SystemConfig::pcie_host(cxl_bw, MemTech::Ddr4)).unwrap();
        let t_cxl = cxl.run_gemm(GemmSpec::square(64)).unwrap().total_time_ns();
        let t_pcie = pcie.run_gemm(GemmSpec::square(64)).unwrap().total_time_ns();
        assert!(t_cxl < t_pcie, "cxl {t_cxl} vs pcie {t_pcie}");
    }

    #[test]
    fn cxl_rejects_multi_accel() {
        let cfg = SystemConfig::cxl_host(8, MemTech::Ddr4);
        assert!(switch_tree(&cfg, &[2]).is_err());
    }

    // ---- multi-accelerator cluster ----

    #[test]
    fn sharded_gemm_uses_every_cluster_member() {
        let cfg = SystemConfig::pcie_host(16.0, MemTech::Ddr4);
        let spec = switch_tree(&cfg, &[4]).unwrap();
        let mut sim = Simulation::from_topology(cfg, &spec).unwrap();
        let report = sim.run_gemm_sharded(GemmSpec::square(256)).unwrap();
        assert_eq!(report.jobs.len(), 4);
        for i in 0..4 {
            assert!(
                report.stats.get_or_zero(&format!("accel{i}.jobs_done")) >= 1.0,
                "accelerator {i} idle"
            );
        }
        // All shards C bytes sum to the full matrix.
        let stored: u64 = report.jobs.iter().map(|j| j.bytes_stored).sum();
        assert_eq!(stored, 256 * 256 * 4);
    }

    #[test]
    fn sharding_scales_compute_bound_jobs() {
        // Strongly compute-bound: 4 accelerators ≈ 4× faster.
        let slow_array = |count: u32| {
            let mut cfg =
                SystemConfig::pcie_host(16.0, MemTech::Ddr4).with_compute_override_ns(50_000.0);
            cfg.smmu = None; // isolate compute scaling
            let spec = switch_tree(&cfg, &[count]).unwrap();
            let mut sim = Simulation::from_topology(cfg, &spec).unwrap();
            sim.run_gemm_sharded(GemmSpec::square(256))
                .unwrap()
                .total_time_ns()
        };
        let one = slow_array(1);
        let four = slow_array(4);
        let speedup = one / four;
        assert!(
            speedup > 3.0,
            "expected near-linear scaling, got {speedup:.2}×"
        );
    }

    #[test]
    fn sharded_single_accel_matches_plain_run_shape() {
        let mut sim = Simulation::new(SystemConfig::pcie_host(8.0, MemTech::Ddr4)).unwrap();
        let report = sim.run_gemm_sharded(GemmSpec::square(128)).unwrap();
        assert_eq!(report.jobs.len(), 1);
        assert!(report.total_time_ns() > 0.0);
    }

    // ---- explicit topologies ----

    #[test]
    fn depth_two_tree_runs_a_sharded_gemm_on_every_leaf() {
        let cfg = SystemConfig::pcie_host(16.0, MemTech::Ddr4);
        let spec = switch_tree(&cfg, &[2, 4]).unwrap();
        let mut sim = Simulation::from_topology(cfg, &spec).unwrap();
        assert_eq!(sim.accel_count(), 8);
        let report = sim.run_gemm_sharded(GemmSpec::square(256)).unwrap();
        assert_eq!(report.jobs.len(), 8);
        for i in 0..8 {
            assert!(
                report.stats.get_or_zero(&format!("accel{i}.jobs_done")) >= 1.0,
                "leaf {i} idle"
            );
        }
        // Leaf traffic funnels through both switch levels.
        assert!(report.stats.get_or_zero("pcie.sw0.up_tlps") > 0.0);
        assert!(report.stats.get_or_zero("pcie.sw0.0.up_tlps") > 0.0);
        let stored: u64 = report.jobs.iter().map(|j| j.bytes_stored).sum();
        assert_eq!(stored, 256 * 256 * 4);
    }

    #[test]
    fn deeper_trees_cost_switch_latency() {
        let cfg = SystemConfig::pcie_host(8.0, MemTech::Ddr4);
        let flat = switch_tree(&cfg, &[1]).unwrap();
        let deep = switch_tree(&cfg, &[1, 1, 1]).unwrap();
        let t_flat = Simulation::from_topology(cfg.clone(), &flat)
            .unwrap()
            .run_gemm(GemmSpec::square(64))
            .unwrap()
            .total_time_ns();
        let t_deep = Simulation::from_topology(cfg, &deep)
            .unwrap()
            .run_gemm(GemmSpec::square(64))
            .unwrap()
            .total_time_ns();
        assert!(
            t_deep > t_flat,
            "3-level tree ({t_deep} ns) should be slower than flat ({t_flat} ns)"
        );
    }

    #[test]
    fn devmem_tree_runs_cpu_streaming_workloads() {
        // Regression: CPU-side Non-GEMM streams used to target the
        // monolithic DEVMEM_ACT_BASE, which no switch port claims in a
        // per-slice tree — the request bounced between RC and switch
        // until the route stack overflowed. The tree lowering now pins
        // the activation window inside a claimed slice.
        let cfg = SystemConfig::devmem(MemTech::Hbm2);
        let spec = switch_tree(&cfg, &[2]).unwrap();
        let mut sim = Simulation::from_topology(cfg, &spec).unwrap();
        let mut g = TaskGraph::new();
        let kind = TaskKind::Stream {
            read_bytes: 1 << 20,
            write_bytes: 1 << 20,
            flops: 0,
        };
        g.add("stream", kind, Affinity::AnyAccel, vec![]);
        assert!(sim.run_graph(&g).unwrap().total_time_ns() > 0.0);
        let report = sim.run_vit_layer(VitModel::Base).unwrap();
        assert!(report.non_gemm_ns() > 0.0);
        // The streams really hit device memory, not host DRAM.
        assert!(report.stats.get_or_zero("dev_mem0.bytes") > 0.0);
    }

    #[test]
    fn heterogeneous_tree_splits_traffic_by_placement() {
        let mut cfg = SystemConfig::pcie_host(8.0, MemTech::Ddr4);
        cfg.smmu = None;
        let spec = switch_tree_with(&cfg, &[2], |i| {
            (i == 1).then_some(MemBackendConfig::Dram(MemTech::Hbm2))
        })
        .unwrap();
        assert!(matches!(
            spec.devices()[1].data,
            DataPlacement::Device { .. }
        ));
        let mut sim = Simulation::from_topology(cfg, &spec).unwrap();
        let report = sim.run_gemm_sharded(GemmSpec::square(128)).unwrap();
        assert_eq!(report.jobs.len(), 2);
        // Device 0 pulled its shard over PCIe; device 1 from local memory.
        assert!(report.stats.get_or_zero("pcie.ep0.reads_sent") > 0.0);
        assert!(report.stats.get_or_zero("dev_mem1.bytes") > 0.0);
        assert_eq!(report.stats.get_or_zero("pcie.ep1.reads_sent"), 0.0);
    }
}
