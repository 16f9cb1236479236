//! Device-side PCIe endpoint port with a bounded non-posted tag pool.

use crate::AddrRange;
use accesys_sim::{
    units, CreditClass, Ctx, MemCmd, Module, ModuleId, Msg, Packet, PacketBox, Stats, Tick,
};
use std::collections::VecDeque;

/// Configuration of a [`PcieEndpoint`].
#[derive(Copy, Clone, Debug, serde::Serialize)]
pub struct PcieEndpointConfig {
    /// Maximum outstanding non-posted (read) requests.
    pub tags: u32,
    /// Per-TLP processing latency in nanoseconds.
    pub proc_ns: f64,
    /// Unit of the ingress credits returned to the delivering link
    /// (bytes for PCIe links, flits behind a [`crate::FlitLink`]).
    pub credit_unit: crate::CreditUnit,
}

impl Default for PcieEndpointConfig {
    fn default() -> Self {
        PcieEndpointConfig {
            tags: 128,
            proc_ns: 8.0,
            credit_unit: crate::CreditUnit::PcieBytes,
        }
    }
}

impl PcieEndpointConfig {
    /// A CXL.mem-style device port: flit-unit credits, same tag pool.
    pub fn cxl() -> Self {
        PcieEndpointConfig {
            credit_unit: crate::CreditUnit::Flits {
                payload_per_flit: 64,
            },
            ..Self::default()
        }
    }
}

/// The accelerator wrapper's PCIe port.
///
/// Outbound (device → host): takes requests from the DMA engine or the
/// controller, holds reads until a non-posted tag is free, and sends them
/// up the link. Inbound (host → device): consumes completion TLPs (freeing
/// tags and ingress credits) and delivers them to the internal requester
/// via the route stack; MMIO requests are forwarded to the configured
/// target (the accelerator controller).
pub struct PcieEndpoint {
    name: String,
    cfg: PcieEndpointConfig,
    /// `cfg.proc_ns` in ticks, converted once at construction.
    proc: Tick,
    up_link: ModuleId,
    mmio_target: ModuleId,
    mmio_range: AddrRange,
    /// Additional inward routes (e.g. device-memory range → DevMem
    /// controller) for host-originated NUMA accesses.
    inward_routes: Vec<(AddrRange, ModuleId)>,
    outstanding_np: u32,
    tx_queue: VecDeque<PacketBox>,
    // stats
    reads_sent: u64,
    writes_sent: u64,
    completions: u64,
    mmio_requests: u64,
    tag_stalls: u64,
}

impl PcieEndpoint {
    /// Create an endpoint sending upstream on `up_link` and delivering
    /// MMIO requests for `mmio_range` to `mmio_target`.
    pub fn new(
        name: &str,
        cfg: PcieEndpointConfig,
        up_link: ModuleId,
        mmio_target: ModuleId,
        mmio_range: AddrRange,
    ) -> Self {
        assert!(cfg.tags > 0, "endpoint needs at least one tag");
        PcieEndpoint {
            name: name.to_string(),
            cfg,
            proc: units::ns(cfg.proc_ns),
            up_link,
            mmio_target,
            mmio_range,
            inward_routes: Vec::new(),
            outstanding_np: 0,
            tx_queue: VecDeque::new(),
            reads_sent: 0,
            writes_sent: 0,
            completions: 0,
            mmio_requests: 0,
            tag_stalls: 0,
        }
    }

    /// The configuration this endpoint was built with.
    pub fn config(&self) -> PcieEndpointConfig {
        self.cfg
    }

    /// Route host-originated requests for `range` to `target` (e.g. the
    /// DevMem controller for NUMA accesses to device-side memory).
    pub fn add_inward_route(&mut self, range: AddrRange, target: ModuleId) {
        self.inward_routes.push((range, target));
    }

    fn inward_target(&self, addr: u64) -> ModuleId {
        for (range, target) in &self.inward_routes {
            if range.contains(addr) {
                return *target;
            }
        }
        self.mmio_target
    }

    fn drain_credit(&self, pkt: &mut Packet, ctx: &mut Ctx) {
        if pkt.ingress_link.is_valid() {
            let class = match pkt.cmd {
                MemCmd::WriteReq => CreditClass::Posted,
                MemCmd::ReadReq | MemCmd::SnoopInv => CreditClass::NonPosted,
                _ => CreditClass::Completion,
            };
            let bytes = self.cfg.credit_unit.credit_for(pkt);
            ctx.send(pkt.ingress_link, 0, Msg::credit(class, bytes));
            pkt.ingress_link = ModuleId::INVALID;
        }
    }

    fn pump_tx(&mut self, ctx: &mut Ctx) {
        while let Some(front) = self.tx_queue.front() {
            let non_posted = matches!(front.cmd, MemCmd::ReadReq | MemCmd::SnoopInv);
            if non_posted {
                if self.outstanding_np >= self.cfg.tags {
                    self.tag_stalls += 1;
                    break;
                }
                self.outstanding_np += 1;
                self.reads_sent += 1;
            } else if front.cmd == MemCmd::WriteReq {
                self.writes_sent += 1;
            }
            let mut pkt = self.tx_queue.pop_front().expect("front exists");
            pkt.route.push(ctx.self_id());
            ctx.send(self.up_link, self.proc, Msg::Packet(pkt));
        }
    }
}

impl Module for PcieEndpoint {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
        match msg {
            Msg::Packet(mut pkt) => {
                let from_link = pkt.ingress_link.is_valid();
                if from_link {
                    self.drain_credit(&mut pkt, ctx);
                    if pkt.cmd.is_request() {
                        // MMIO or NUMA access from the host.
                        self.mmio_requests += 1;
                        debug_assert!(
                            self.mmio_range.contains(pkt.addr)
                                || self.inward_routes.iter().any(|(r, _)| r.contains(pkt.addr)),
                            "inward request outside BAR/routes: {:#x}",
                            pkt.addr
                        );
                        let target = self.inward_target(pkt.addr);
                        pkt.route.push(ctx.self_id());
                        ctx.send(target, self.proc, Msg::Packet(pkt));
                    } else {
                        // Completion for an outbound request.
                        self.completions += 1;
                        if pkt.cmd == MemCmd::ReadResp {
                            debug_assert!(self.outstanding_np > 0, "tag underflow");
                            self.outstanding_np = self.outstanding_np.saturating_sub(1);
                        }
                        if let Some(next) = pkt.route.pop() {
                            ctx.send(next, self.proc, Msg::Packet(pkt));
                        }
                        self.pump_tx(ctx);
                    }
                } else if pkt.cmd.is_request() {
                    // Outbound request from the device internals.
                    self.tx_queue.push_back(pkt);
                    self.pump_tx(ctx);
                } else {
                    // Response from device internals (MMIO completion).
                    ctx.send(self.up_link, self.proc, Msg::Packet(pkt));
                }
            }
            Msg::Timer(_) => self.pump_tx(ctx),
            _ => {}
        }
    }

    fn report(&self, out: &mut Stats) {
        out.add("reads_sent", self.reads_sent as f64);
        out.add("writes_sent", self.writes_sent as f64);
        out.add("completions", self.completions as f64);
        out.add("mmio_requests", self.mmio_requests as f64);
        out.add("tag_stalls", self.tag_stalls as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accesys_sim::{Kernel, Packet, Tick};

    const BAR: AddrRange = AddrRange {
        base: 0x1_0000_0000,
        size: 0x1000_0000,
    };

    /// Fake link that echoes read requests back as responses after a
    /// fixed round-trip, preserving the route stack discipline.
    struct EchoLink {
        name: &'static str,
        rtt_ns: f64,
        seen: u64,
    }
    impl Module for EchoLink {
        fn name(&self) -> &str {
            self.name
        }
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
            if let Msg::Packet(mut p) = msg {
                self.seen += 1;
                if p.cmd == MemCmd::ReadReq {
                    p.make_response();
                    let next = p.route.pop().expect("EP pushed itself");
                    p.ingress_link = ctx.self_id();
                    ctx.send(next, units::ns(self.rtt_ns), Msg::Packet(p));
                }
            }
        }
    }

    /// Requester that fires `n` reads through the EP at t=0.
    struct Issuer {
        ep: ModuleId,
        n: u32,
        done: Vec<Tick>,
    }
    impl Module for Issuer {
        fn name(&self) -> &str {
            "iss"
        }
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
            match msg {
                Msg::Timer(_) => {
                    for _ in 0..self.n {
                        let mut p = Packet::request(
                            ctx.alloc_pkt_id(),
                            MemCmd::ReadReq,
                            0x1000,
                            256,
                            ctx.now(),
                        );
                        p.route.push(ctx.self_id());
                        ctx.send(self.ep, 0, Msg::packet(p));
                    }
                }
                Msg::Packet(p) => {
                    assert_eq!(p.cmd, MemCmd::ReadResp);
                    self.done.push(ctx.now());
                }
                _ => {}
            }
        }
    }

    #[test]
    fn tag_pool_limits_outstanding_reads() {
        let mut k = Kernel::new();
        let echo = k.add_module(Box::new(EchoLink {
            name: "echo",
            rtt_ns: 100.0,
            seen: 0,
        }));
        let cfg = PcieEndpointConfig {
            tags: 2,
            proc_ns: 0.0,
            ..PcieEndpointConfig::default()
        };
        let dummy_mmio = k.add_module(Box::new(EchoLink {
            name: "dummy_mmio",
            rtt_ns: 0.0,
            seen: 0,
        }));
        let ep = k.add_module(Box::new(PcieEndpoint::new(
            "ep", cfg, echo, dummy_mmio, BAR,
        )));
        let iss = k.add_module(Box::new(Issuer {
            ep,
            n: 6,
            done: vec![],
        }));
        k.schedule(0, iss, Msg::Timer(0));
        k.run_until_idle().unwrap();
        let done = &k.module::<Issuer>(iss).unwrap().done;
        assert_eq!(done.len(), 6);
        // With 2 tags and a 100 ns RTT, completions arrive in waves of 2.
        assert_eq!(done[0], done[1]);
        assert!(done[2] >= done[1] + units::ns(100.0));
        let stats = k.stats();
        assert!(stats.get_or_zero("ep.tag_stalls") >= 1.0);
        assert_eq!(stats.get_or_zero("ep.completions"), 6.0);
    }

    #[test]
    fn mmio_requests_forward_to_controller() {
        struct Ctrl {
            got: u32,
        }
        impl Module for Ctrl {
            fn name(&self) -> &str {
                "ctrl"
            }
            fn handle(&mut self, msg: Msg, _ctx: &mut Ctx) {
                if let Msg::Packet(p) = msg {
                    assert!(p.cmd.is_request());
                    self.got += 1;
                }
            }
        }
        let mut k = Kernel::new();
        let link = k.add_module(Box::new(EchoLink {
            name: "link",
            rtt_ns: 0.0,
            seen: 0,
        }));
        let ctrl = k.add_module(Box::new(Ctrl { got: 0 }));
        let ep = k.add_module(Box::new(PcieEndpoint::new(
            "ep",
            PcieEndpointConfig::default(),
            link,
            ctrl,
            BAR,
        )));
        let mut p = Packet::request(0, MemCmd::WriteReq, BAR.base + 8, 8, 0);
        p.ingress_link = link; // pretend it came over the wire
        k.schedule(0, ep, Msg::packet(p));
        k.run_until_idle().unwrap();
        assert_eq!(k.module::<Ctrl>(ctrl).unwrap().got, 1);
        assert_eq!(k.stats().get_or_zero("ep.mmio_requests"), 1.0);
    }
}
