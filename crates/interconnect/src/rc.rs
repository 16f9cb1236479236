//! PCIe Root Complex: the CPU-side bridge between PCIe and the MemBus.

use crate::AddrRange;
use accesys_sim::{units, Ctx, Module, ModuleId, Msg, Packet, Stats, Tick};

/// Configuration of a [`RootComplex`].
#[derive(Copy, Clone, Debug, serde::Serialize)]
pub struct RootComplexConfig {
    /// Bridge latency per TLP in nanoseconds (paper Table II: 150 ns).
    pub latency_ns: f64,
    /// Pipelined per-TLP processing occupancy in nanoseconds.
    pub tlp_proc_ns: f64,
    /// Maximum payload size of a TLP in bytes; requests larger than this
    /// are rejected at the issuing DMA engine.
    pub max_payload_bytes: u32,
    /// Unit of the ingress credits returned to the delivering link
    /// (bytes for PCIe links, flits behind a [`crate::FlitLink`]).
    pub credit_unit: crate::CreditUnit,
}

impl Default for RootComplexConfig {
    fn default() -> Self {
        RootComplexConfig {
            latency_ns: 150.0,
            tlp_proc_ns: 4.0,
            max_payload_bytes: 4096,
            credit_unit: crate::CreditUnit::PcieBytes,
        }
    }
}

impl RootComplexConfig {
    /// A CXL.mem-style host bridge: no transaction-layer hierarchy below
    /// it, so per-hop latency drops to tens of nanoseconds and credits
    /// are counted in flits.
    pub fn cxl_host_bridge() -> Self {
        RootComplexConfig {
            latency_ns: 25.0,
            tlp_proc_ns: 2.0,
            credit_unit: crate::CreditUnit::Flits {
                payload_per_flit: 64,
            },
            ..Self::default()
        }
    }
}

/// The PCIe Root Complex.
///
/// * Device-originated requests (DMA reads/writes arriving over PCIe) are
///   forwarded to the host target — the SMMU when translation is enabled,
///   otherwise the MemBus.
/// * Host-originated requests whose address falls in a device BAR are
///   forwarded down the PCIe hierarchy (MMIO doorbells, NUMA accesses to
///   device memory).
/// * Responses follow the packet route stack; those whose next hop lives
///   on the PCIe side leave through the downstream link as completion
///   TLPs.
///
/// The RC consumes PCIe ingress credits: it returns them once a packet is
/// accepted for processing, modelling its ingress buffer draining into
/// the host fabric.
pub struct RootComplex {
    name: String,
    cfg: RootComplexConfig,
    /// `cfg.latency_ns` in ticks, converted once at construction.
    latency: Tick,
    /// `cfg.tlp_proc_ns` in ticks, converted once at construction.
    tlp_proc: Tick,
    /// Where device-originated requests go (SMMU or MemBus).
    host_target: ModuleId,
    /// Downstream egress link (toward the switch).
    down_link: ModuleId,
    /// Device BAR ranges (host-originated requests to these go down).
    device_ranges: Vec<AddrRange>,
    /// Modules on the PCIe side; responses popped to these leave via
    /// `down_link`.
    pcie_modules: Vec<ModuleId>,
    /// Sideband ranges (MSI window): device-originated requests to these
    /// bypass the SMMU/cache path and go straight to `sideband_target`.
    sideband_ranges: Vec<AddrRange>,
    sideband_target: ModuleId,
    proc_free: Tick,
    // stats
    up_requests: u64,
    down_requests: u64,
    completions_down: u64,
    responses_up: u64,
}

impl RootComplex {
    /// Create a root complex bridging `down_link` (PCIe) and
    /// `host_target` (SMMU/MemBus).
    pub fn new(
        name: &str,
        cfg: RootComplexConfig,
        host_target: ModuleId,
        down_link: ModuleId,
    ) -> Self {
        RootComplex {
            name: name.to_string(),
            cfg,
            latency: units::ns(cfg.latency_ns),
            tlp_proc: units::ns(cfg.tlp_proc_ns),
            host_target,
            down_link,
            device_ranges: Vec::new(),
            pcie_modules: Vec::new(),
            sideband_ranges: Vec::new(),
            sideband_target: ModuleId::INVALID,
            proc_free: 0,
            up_requests: 0,
            down_requests: 0,
            completions_down: 0,
            responses_up: 0,
        }
    }

    /// Declare a device BAR range (routes host requests downstream).
    pub fn add_device_range(&mut self, range: AddrRange) {
        self.device_ranges.push(range);
    }

    /// Declare a module on the PCIe side (switch, endpoints) so responses
    /// addressed to it are sent through the downstream link.
    pub fn add_pcie_module(&mut self, id: ModuleId) {
        self.pcie_modules.push(id);
    }

    /// Route device-originated requests in `range` (e.g. the MSI window)
    /// directly to `target`, bypassing the SMMU/cache path.
    pub fn add_sideband(&mut self, range: AddrRange, target: ModuleId) {
        self.sideband_ranges.push(range);
        self.sideband_target = target;
    }

    fn is_sideband(&self, addr: u64) -> bool {
        self.sideband_target.is_valid() && self.sideband_ranges.iter().any(|r| r.contains(addr))
    }

    /// The configuration this root complex was built with.
    pub fn config(&self) -> RootComplexConfig {
        self.cfg
    }

    fn is_device_addr(&self, addr: u64) -> bool {
        self.device_ranges.iter().any(|r| r.contains(addr))
    }

    fn process_at(&mut self, now: Tick) -> Tick {
        let start = self.proc_free.max(now);
        self.proc_free = start + self.tlp_proc;
        start + self.latency
    }

    /// Return the ingress credit for a packet that arrived over the link.
    fn drain_credit(&self, pkt: &mut Packet, at: Tick, ctx: &mut Ctx) {
        if pkt.ingress_link.is_valid() {
            let class = match pkt.cmd {
                accesys_sim::MemCmd::WriteReq => accesys_sim::CreditClass::Posted,
                accesys_sim::MemCmd::ReadReq | accesys_sim::MemCmd::SnoopInv => {
                    accesys_sim::CreditClass::NonPosted
                }
                _ => accesys_sim::CreditClass::Completion,
            };
            let bytes = self.cfg.credit_unit.credit_for(pkt);
            ctx.send_at(pkt.ingress_link, at, Msg::credit(class, bytes));
            pkt.ingress_link = ModuleId::INVALID;
        }
    }
}

impl Module for RootComplex {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
        let mut pkt = match msg {
            Msg::Packet(p) => p,
            _ => return,
        };
        let out_at = self.process_at(ctx.now());
        if pkt.cmd.is_request() {
            if self.is_device_addr(pkt.addr) {
                // Host-originated, heading down the hierarchy.
                self.down_requests += 1;
                pkt.route.push(ctx.self_id());
                ctx.send_at(self.down_link, out_at, Msg::Packet(pkt));
            } else if self.is_sideband(pkt.addr) {
                // MSI or other sideband write: straight onto the bus.
                self.up_requests += 1;
                self.drain_credit(&mut pkt, out_at, ctx);
                pkt.route.push(ctx.self_id());
                ctx.send_at(self.sideband_target, out_at, Msg::Packet(pkt));
            } else {
                // Device-originated DMA heading into host memory.
                self.up_requests += 1;
                self.drain_credit(&mut pkt, out_at, ctx);
                pkt.route.push(ctx.self_id());
                ctx.send_at(self.host_target, out_at, Msg::Packet(pkt));
            }
        } else {
            let next = pkt
                .route
                .pop()
                .expect("response reached root complex with empty route");
            if self.pcie_modules.contains(&next) {
                // Completion heading down to the device.
                self.completions_down += 1;
                ctx.send_at(self.down_link, out_at, Msg::Packet(pkt));
            } else {
                // Completion for a host-originated MMIO/NUMA access.
                self.responses_up += 1;
                self.drain_credit(&mut pkt, out_at, ctx);
                ctx.send_at(next, out_at, Msg::Packet(pkt));
            }
        }
    }

    fn report(&self, out: &mut Stats) {
        out.add("up_requests", self.up_requests as f64);
        out.add("down_requests", self.down_requests as f64);
        out.add("completions_down", self.completions_down as f64);
        out.add("responses_up", self.responses_up as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accesys_sim::{Kernel, MemCmd};

    struct Term {
        name: &'static str,
        got: Vec<(Tick, MemCmd)>,
    }
    impl Module for Term {
        fn name(&self) -> &str {
            self.name
        }
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
            if let Msg::Packet(p) = msg {
                self.got.push((ctx.now(), p.cmd));
            }
        }
    }

    const BAR: AddrRange = AddrRange {
        base: 0x1_0000_0000,
        size: 0x1000_0000,
    };

    #[test]
    fn dma_requests_bridge_to_host_after_latency() {
        let mut k = Kernel::new();
        let host = k.add_module(Box::new(Term {
            name: "host",
            got: vec![],
        }));
        let down = k.add_module(Box::new(Term {
            name: "down",
            got: vec![],
        }));
        let mut rc = RootComplex::new("rc", RootComplexConfig::default(), host, down);
        rc.add_device_range(BAR);
        let rc = k.add_module(Box::new(rc));
        let p = Packet::request(0, MemCmd::ReadReq, 0x8000, 256, 0);
        k.schedule(0, rc, Msg::packet(p));
        k.run_until_idle().unwrap();
        let got = &k.module::<Term>(host).unwrap().got;
        assert_eq!(got, &vec![(units::ns(150.0), MemCmd::ReadReq)]);
        assert!(k.module::<Term>(down).unwrap().got.is_empty());
    }

    #[test]
    fn mmio_requests_head_downstream() {
        let mut k = Kernel::new();
        let host = k.add_module(Box::new(Term {
            name: "host",
            got: vec![],
        }));
        let down = k.add_module(Box::new(Term {
            name: "down",
            got: vec![],
        }));
        let mut rc = RootComplex::new("rc", RootComplexConfig::default(), host, down);
        rc.add_device_range(BAR);
        let rc = k.add_module(Box::new(rc));
        let p = Packet::request(0, MemCmd::WriteReq, BAR.base + 0x10, 8, 0);
        k.schedule(0, rc, Msg::packet(p));
        k.run_until_idle().unwrap();
        assert_eq!(k.module::<Term>(down).unwrap().got.len(), 1);
        assert!(k.module::<Term>(host).unwrap().got.is_empty());
    }

    #[test]
    fn responses_split_by_destination_side() {
        let mut k = Kernel::new();
        let host = k.add_module(Box::new(Term {
            name: "host",
            got: vec![],
        }));
        let down = k.add_module(Box::new(Term {
            name: "down",
            got: vec![],
        }));
        let sw = k.add_module(Box::new(Term {
            name: "sw",
            got: vec![],
        }));
        let mut rc = RootComplex::new("rc", RootComplexConfig::default(), host, down);
        rc.add_device_range(BAR);
        rc.add_pcie_module(sw);
        let rc = k.add_module(Box::new(rc));
        // Completion for the device (next hop = switch): exits down_link.
        let mut cpl = Packet::request(0, MemCmd::ReadReq, 0x1000, 64, 0).to_response();
        cpl.route.push(sw);
        k.schedule(0, rc, Msg::packet(cpl));
        // Completion for a host module.
        let mut cpl2 = Packet::request(1, MemCmd::ReadReq, BAR.base, 8, 0).to_response();
        cpl2.route.push(host);
        k.schedule(0, rc, Msg::packet(cpl2));
        k.run_until_idle().unwrap();
        assert_eq!(k.module::<Term>(down).unwrap().got.len(), 1);
        assert_eq!(k.module::<Term>(host).unwrap().got.len(), 1);
    }

    #[test]
    fn tlp_rate_limits_pipeline() {
        let mut k = Kernel::new();
        let host = k.add_module(Box::new(Term {
            name: "host",
            got: vec![],
        }));
        let down = k.add_module(Box::new(Term {
            name: "down",
            got: vec![],
        }));
        let cfg = RootComplexConfig {
            latency_ns: 150.0,
            tlp_proc_ns: 10.0,
            ..RootComplexConfig::default()
        };
        let rc = k.add_module(Box::new(RootComplex::new("rc", cfg, host, down)));
        for i in 0..3 {
            let p = Packet::request(i, MemCmd::ReadReq, 0x100, 64, 0);
            k.schedule(0, rc, Msg::packet(p));
        }
        k.run_until_idle().unwrap();
        let times: Vec<Tick> = k
            .module::<Term>(host)
            .unwrap()
            .got
            .iter()
            .map(|&(t, _)| t)
            .collect();
        assert_eq!(
            times,
            vec![units::ns(150.0), units::ns(160.0), units::ns(170.0)]
        );
    }
}
