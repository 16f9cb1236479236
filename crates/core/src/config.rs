//! System configuration: every knob the paper's evaluation sweeps.

use crate::BuildError;
use accesys_accel::AccelControllerConfig;
use accesys_cache::CacheConfig;
use accesys_cpu::CpuConfig;
use accesys_dma::DmaEngineConfig;
use accesys_interconnect::{
    FlitLinkConfig, PcieEndpointConfig, PcieLinkConfig, PcieSwitchConfig, RootComplexConfig,
    XbarConfig,
};
use accesys_mem::{MemTech, SimpleMemoryConfig};
use accesys_smmu::SmmuConfig;

/// How accelerator traffic reaches host memory (Section III-C).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, serde::Serialize)]
pub enum AccessMode {
    /// Direct-cache: accelerator requests traverse the IOCache and the
    /// coherent LLC before memory (the mode used by the evaluation).
    DirectCache,
    /// Direct-memory: requests bypass the cache hierarchy (software
    /// manages coherency).
    DirectMemory,
}

/// Which standard interconnect attaches the accelerator to the host.
///
/// The paper evaluates PCIe; the CXL.mem-style option is this
/// reproduction's extension of the same framework to the next standard
/// interconnect (fixed 68 B flits, no switch hop, low-latency host
/// bridge).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default, serde::Serialize)]
pub enum InterconnectKind {
    /// PCIe hierarchy: root complex → switch → endpoint (default).
    #[default]
    Pcie,
    /// CXL.mem-class point-to-point flit link: host bridge → endpoint.
    Cxl,
}

/// Where the accelerator's working set lives.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, serde::Serialize)]
pub enum MemoryLocation {
    /// Host DRAM, reached over PCIe.
    Host,
    /// Device-side memory next to the accelerator (the paper's DevMem,
    /// arrow 6 of Fig. 1).
    Device,
}

/// Host or device memory backend.
#[derive(Copy, Clone, Debug, serde::Serialize)]
pub enum MemBackendConfig {
    /// gem5's default fixed-latency/bandwidth model (Fig. 6 sweeps).
    Simple(SimpleMemoryConfig),
    /// Ramulator-class bank/row timing model with a Table III preset.
    Dram(MemTech),
}

impl MemBackendConfig {
    /// Nominal peak bandwidth in GB/s.
    pub fn bandwidth_gbps(&self) -> f64 {
        match self {
            MemBackendConfig::Simple(c) => c.bandwidth_gbps,
            MemBackendConfig::Dram(t) => t.bandwidth_gbps(),
        }
    }
}

/// The PCIe hierarchy configuration (both link directions share it).
#[derive(Copy, Clone, Debug, serde::Serialize)]
pub struct PcieConfig {
    /// Link (lanes × rate × encoding, credits, header overhead).
    pub link: PcieLinkConfig,
    /// Switch (50 ns store-and-forward in Table II).
    pub switch: PcieSwitchConfig,
    /// Root complex (150 ns in Table II).
    pub rc: RootComplexConfig,
    /// Endpoint (tag pool).
    pub ep: PcieEndpointConfig,
}

impl PcieConfig {
    /// Table II baseline: PCIe 2.0 ×4 ≈ 2 GB/s effective.
    pub fn gen2_x4() -> Self {
        PcieConfig {
            link: PcieLinkConfig::gen2_x4(),
            switch: PcieSwitchConfig::default(),
            rc: RootComplexConfig::default(),
            ep: PcieEndpointConfig::default(),
        }
    }

    /// A hierarchy tuned to an aggregate bandwidth in GB/s (the paper's
    /// "PCIe-8GB"-style configurations).
    pub fn with_bandwidth_gbps(gb_per_s: f64) -> Self {
        PcieConfig {
            link: PcieLinkConfig::with_bandwidth_gbps(gb_per_s),
            ..Self::gen2_x4()
        }
    }

    /// Effective link bandwidth in GB/s.
    pub fn bandwidth_gbps(&self) -> f64 {
        self.link.bandwidth_gbps()
    }
}

/// Full system configuration (Fig. 1 of the paper).
///
/// [`SystemConfig::topology`] lowers it to the paper's single-accelerator
/// system. An accelerator cluster is a switch tree built from the same
/// config: `topology::switch_tree(&cfg, &[n])` puts `n` endpoints behind
/// one switch.
///
/// ```
/// use accesys::SystemConfig;
///
/// let cfg = SystemConfig::paper_baseline();
/// assert!((cfg.pcie.bandwidth_gbps() - 2.0).abs() < 1e-9);
/// cfg.validate().expect("baseline is valid");
/// ```
#[derive(Clone, Debug, serde::Serialize)]
pub struct SystemConfig {
    /// CPU cluster.
    pub cpu: CpuConfig,
    /// CPU L1 data cache (Table II: 64 kB).
    pub l1d: CacheConfig,
    /// Shared last-level cache (Table II: 2 MB).
    pub llc: CacheConfig,
    /// IOCache in front of the LLC for accelerator traffic (32 kB).
    pub iocache: CacheConfig,
    /// Host memory backend (Table II: DDR3-1600).
    pub host_mem: MemBackendConfig,
    /// Device-side memory backend, when present.
    pub dev_mem: Option<MemBackendConfig>,
    /// Where the accelerator's working set lives.
    pub mem_location: MemoryLocation,
    /// DC or DM access (Section III-C).
    pub access_mode: AccessMode,
    /// Which standard interconnect carries accelerator traffic.
    pub interconnect: InterconnectKind,
    /// The PCIe hierarchy (used when `interconnect` is
    /// [`InterconnectKind::Pcie`]).
    pub pcie: PcieConfig,
    /// The CXL flit link (used when `interconnect` is
    /// [`InterconnectKind::Cxl`]).
    pub cxl_link: FlitLinkConfig,
    /// Host memory bus.
    pub membus: XbarConfig,
    /// SMMU; `None` disables translation (DMA uses physical addresses).
    pub smmu: Option<SmmuConfig>,
    /// Multi-channel DMA engine (request size = Fig. 4 packet size).
    pub dma: DmaEngineConfig,
    /// Accelerator wrapper (MatrixFlow array + controller).
    pub accel: AccelControllerConfig,
    /// Maintain hardware coherence between the accelerator path and the
    /// CPU caches at the LLC (DC mode only).
    pub coherent: bool,
}

impl SystemConfig {
    /// The paper's Table II baseline system.
    pub fn paper_baseline() -> Self {
        SystemConfig {
            cpu: CpuConfig::default(),
            l1d: CacheConfig::l1(64 << 10),
            llc: CacheConfig::llc(2 << 20),
            iocache: CacheConfig {
                size_bytes: 32 << 10,
                assoc: 4,
                line_bytes: 64,
                hit_latency_ns: 2.0,
                lookup_latency_ns: 1.0,
                mshrs: 16,
            },
            host_mem: MemBackendConfig::Dram(MemTech::Ddr3),
            dev_mem: None,
            mem_location: MemoryLocation::Host,
            access_mode: AccessMode::DirectCache,
            interconnect: InterconnectKind::Pcie,
            pcie: PcieConfig::gen2_x4(),
            cxl_link: FlitLinkConfig::cxl2(8),
            membus: XbarConfig::default(),
            smmu: Some(SmmuConfig {
                va_base: crate::addrmap::ACCEL_VA_BASE,
                pa_base: crate::addrmap::DATA_PA_BASE,
                pt_base: crate::addrmap::PT_BASE,
                ..SmmuConfig::default()
            }),
            dma: DmaEngineConfig::default(),
            accel: AccelControllerConfig::default(),
            coherent: true,
        }
    }

    /// Host-memory system with a PCIe hierarchy of `gb_per_s` and memory
    /// technology `mem` (the Fig. 5/7 "PCIe-xGB" configurations).
    pub fn pcie_host(gb_per_s: f64, mem: MemTech) -> Self {
        let mut cfg = Self::paper_baseline();
        cfg.pcie = PcieConfig::with_bandwidth_gbps(gb_per_s);
        cfg.host_mem = MemBackendConfig::Dram(mem);
        cfg
    }

    /// Device-side-memory system (the paper's DevMem configuration):
    /// the accelerator works out of `mem` next to the array, and the CPU
    /// reaches it over PCIe (NUMA).
    pub fn devmem(mem: MemTech) -> Self {
        let mut cfg = Self::paper_baseline();
        cfg.dev_mem = Some(MemBackendConfig::Dram(mem));
        cfg.mem_location = MemoryLocation::Device;
        // The paper pairs DevMem with a 64-byte burst (packet) size.
        cfg.dma.request_bytes = 64;
        cfg
    }

    /// CXL-attached host-memory system: same accelerator and memory as
    /// [`SystemConfig::pcie_host`], but over a CXL.mem flit link with
    /// `lanes` Gen5 lanes (the framework's interconnect extension).
    pub fn cxl_host(lanes: u32, mem: MemTech) -> Self {
        let mut cfg = Self::paper_baseline();
        cfg.interconnect = InterconnectKind::Cxl;
        cfg.cxl_link = FlitLinkConfig::cxl2(lanes);
        cfg.host_mem = MemBackendConfig::Dram(mem);
        cfg
    }

    /// Set the DMA request (packet) size — the Fig. 4 knob.
    pub fn with_request_bytes(mut self, bytes: u32) -> Self {
        self.dma.request_bytes = bytes;
        self
    }

    /// Set the systolic-array compute override (Fig. 2 roofline knob).
    pub fn with_compute_override_ns(mut self, ns: f64) -> Self {
        self.accel.array.compute_override_ns = Some(ns);
        self
    }

    /// Check internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), BuildError> {
        let err = |msg: &str| Err(BuildError::InvalidConfig(msg.to_string()));
        if self.dma.request_bytes > self.pcie.rc.max_payload_bytes {
            return err("dma.request_bytes exceeds pcie.rc.max_payload_bytes");
        }
        if self.dma.request_bytes == 0 || !self.dma.request_bytes.is_power_of_two() {
            return err("dma.request_bytes must be a non-zero power of two");
        }
        if self.dma.channels < 3 {
            return err("accelerator needs at least 3 DMA channels (A, B, C)");
        }
        if self.mem_location == MemoryLocation::Device && self.dev_mem.is_none() {
            return err("mem_location is Device but dev_mem is None");
        }
        if self.accel.block_rows < self.accel.array.rows
            || self.accel.block_cols < self.accel.array.cols
        {
            return err("accel block size smaller than the systolic array");
        }
        if let Some(smmu) = &self.smmu {
            if smmu.va_base != crate::addrmap::ACCEL_VA_BASE
                || smmu.pa_base != crate::addrmap::DATA_PA_BASE
            {
                return err("smmu va/pa bases must match the address map");
            }
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

// The parallel sweep engine hands configs to worker threads; a field
// that breaks Send + Sync (an Rc, a raw pointer) would silently
// serialize every experiment again, so assert the contract at compile
// time.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SystemConfig>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table_ii() {
        let cfg = SystemConfig::paper_baseline();
        assert_eq!(cfg.l1d.size_bytes, 64 << 10);
        assert_eq!(cfg.llc.size_bytes, 2 << 20);
        assert_eq!(cfg.iocache.size_bytes, 32 << 10);
        assert!((cfg.cpu.freq_ghz - 1.0).abs() < 1e-12);
        assert!((cfg.pcie.rc.latency_ns - 150.0).abs() < 1e-12);
        assert!((cfg.pcie.switch.latency_ns - 50.0).abs() < 1e-12);
        assert!(matches!(
            cfg.host_mem,
            MemBackendConfig::Dram(MemTech::Ddr3)
        ));
        cfg.validate().unwrap();
    }

    #[test]
    fn devmem_preset_is_valid_and_uses_64b_bursts() {
        let cfg = SystemConfig::devmem(MemTech::Hbm2);
        assert_eq!(cfg.dma.request_bytes, 64);
        cfg.validate().unwrap();
    }

    #[test]
    fn validation_catches_oversized_requests() {
        let mut cfg = SystemConfig::paper_baseline();
        cfg.dma.request_bytes = 8192;
        assert!(matches!(cfg.validate(), Err(BuildError::InvalidConfig(_))));
    }

    #[test]
    fn validation_catches_missing_devmem() {
        let mut cfg = SystemConfig::paper_baseline();
        cfg.mem_location = MemoryLocation::Device;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn bandwidth_helper_hits_paper_targets() {
        for target in [2.0, 8.0, 64.0] {
            let cfg = SystemConfig::pcie_host(target, MemTech::Ddr4);
            assert!((cfg.pcie.bandwidth_gbps() - target).abs() / target < 1e-9);
        }
    }
}
