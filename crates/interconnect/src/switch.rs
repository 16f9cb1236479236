//! Store-and-forward PCIe switch.

use crate::AddrRange;
use accesys_sim::{units, Ctx, Module, ModuleId, Msg, Stats, Tick};

/// One downstream port of a [`PcieSwitch`].
#[derive(Clone, Debug)]
pub struct SwitchPort {
    /// Egress link toward the device.
    pub egress_link: ModuleId,
    /// The module directly below this port — a [`crate::PcieEndpoint`],
    /// or another [`PcieSwitch`] in a cascaded tree. Responses whose
    /// route-stack next hop is this module leave through `egress_link`.
    pub endpoint: ModuleId,
    /// Address ranges claimed by the whole subtree behind this port: a
    /// single device BAR for a leaf, or the aggregated claims of every
    /// device below a cascaded switch.
    pub ranges: Vec<AddrRange>,
}

impl SwitchPort {
    /// A port claiming the aggregate of `ranges` (see
    /// [`aggregate_ranges`]) — the general form used for cascaded
    /// switch trees, where one port fronts many devices.
    pub fn aggregated(
        egress_link: ModuleId,
        endpoint: ModuleId,
        ranges: impl IntoIterator<Item = AddrRange>,
    ) -> Self {
        SwitchPort {
            egress_link,
            endpoint,
            ranges: aggregate_ranges(ranges.into_iter().collect()),
        }
    }
}

/// Merge overlapping and exactly-adjacent address ranges into a minimal
/// sorted set.
///
/// Switch port range computation generalized for trees: a port fronting
/// a whole subtree claims the union of every BAR below it, and carved
/// per-device BARs are contiguous, so the aggregate usually collapses to
/// one range per port — keeping by-address request routing O(ports), not
/// O(devices).
pub fn aggregate_ranges(mut ranges: Vec<AddrRange>) -> Vec<AddrRange> {
    ranges.sort_by_key(|r| (r.base, r.size));
    let mut out: Vec<AddrRange> = Vec::new();
    for r in ranges {
        match out.last_mut() {
            Some(last) if r.base <= last.end() => {
                let end = last.end().max(r.end());
                last.size = end - last.base;
            }
            _ => out.push(r),
        }
    }
    out
}

/// Configuration of a [`PcieSwitch`].
#[derive(Copy, Clone, Debug, serde::Serialize)]
pub struct PcieSwitchConfig {
    /// Store-and-forward latency per TLP in nanoseconds (paper: 50 ns).
    pub latency_ns: f64,
    /// Pipelined per-TLP processing occupancy in nanoseconds — the
    /// switch's TLP rate limit (1/`tlp_proc_ns` TLPs per ns).
    pub tlp_proc_ns: f64,
}

impl Default for PcieSwitchConfig {
    fn default() -> Self {
        PcieSwitchConfig {
            latency_ns: 50.0,
            tlp_proc_ns: 2.0,
        }
    }
}

/// A PCIe switch routing TLPs between one upstream port (toward the root
/// complex) and one or more downstream device ports.
///
/// Requests are routed by address (device BAR ranges → downstream,
/// everything else → upstream); responses follow the packet route stack.
/// The switch never returns credits itself: a packet's ingress buffer is
/// freed when the egress [`crate::PcieLink`] puts it on the wire, so
/// backpressure propagates hop by hop.
pub struct PcieSwitch {
    name: String,
    /// `PcieSwitchConfig::latency_ns` in ticks, converted at construction.
    latency: Tick,
    /// `PcieSwitchConfig::tlp_proc_ns` in ticks, converted at construction.
    tlp_proc: Tick,
    up_link: ModuleId,
    ports: Vec<SwitchPort>,
    proc_free: Tick,
    // stats
    up_tlps: u64,
    down_tlps: u64,
    proc_stall_ns: f64,
}

impl PcieSwitch {
    /// Create a switch with its upstream egress link; add device ports
    /// with [`PcieSwitch::add_port`].
    pub fn new(name: &str, cfg: PcieSwitchConfig, up_link: ModuleId) -> Self {
        PcieSwitch {
            name: name.to_string(),
            latency: units::ns(cfg.latency_ns),
            tlp_proc: units::ns(cfg.tlp_proc_ns),
            up_link,
            ports: Vec::new(),
            proc_free: 0,
            up_tlps: 0,
            down_tlps: 0,
            proc_stall_ns: 0.0,
        }
    }

    /// Attach a downstream device port.
    pub fn add_port(&mut self, port: SwitchPort) {
        self.ports.push(port);
    }

    /// Number of downstream ports (the paper's scalability feature).
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    fn egress_for_request(&self, addr: u64) -> (ModuleId, bool) {
        for port in &self.ports {
            if port.ranges.iter().any(|r| r.contains(addr)) {
                return (port.egress_link, true);
            }
        }
        (self.up_link, false)
    }

    fn egress_for_response(&self, next_hop: ModuleId) -> (ModuleId, bool) {
        for port in &self.ports {
            if port.endpoint == next_hop {
                return (port.egress_link, true);
            }
        }
        (self.up_link, false)
    }
}

impl Module for PcieSwitch {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
        let mut pkt = match msg {
            Msg::Packet(p) => p,
            _ => return,
        };
        // Pipelined TLP-rate limit.
        let proc_start = self.proc_free.max(ctx.now());
        self.proc_free = proc_start + self.tlp_proc;
        self.proc_stall_ns += units::to_ns(proc_start - ctx.now());
        let out_at = proc_start + self.latency;

        let (egress, down) = if pkt.cmd.is_request() {
            pkt.route.push(ctx.self_id());
            self.egress_for_request(pkt.addr)
        } else {
            let next = pkt
                .route
                .pop()
                .expect("response reached switch with empty route");
            self.egress_for_response(next)
        };
        if down {
            self.down_tlps += 1;
        } else {
            self.up_tlps += 1;
        }
        ctx.send_at(egress, out_at, Msg::Packet(pkt));
    }

    fn report(&self, out: &mut Stats) {
        out.add("up_tlps", self.up_tlps as f64);
        out.add("down_tlps", self.down_tlps as f64);
        out.add("proc_stall_ns", self.proc_stall_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accesys_sim::{Kernel, MemCmd, Packet};

    /// Terminal that records arrivals.
    struct Term {
        name: &'static str,
        got: Vec<(Tick, u64)>,
    }
    impl Module for Term {
        fn name(&self) -> &str {
            self.name
        }
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
            if let Msg::Packet(p) = msg {
                self.got.push((ctx.now(), p.addr));
            }
        }
    }

    #[test]
    fn requests_route_by_bar_and_add_latency() {
        let mut k = Kernel::new();
        let up = k.add_module(Box::new(Term {
            name: "up",
            got: vec![],
        }));
        let down = k.add_module(Box::new(Term {
            name: "down",
            got: vec![],
        }));
        let ep = k.add_module(Box::new(Term {
            name: "ep",
            got: vec![],
        }));
        let mut sw = PcieSwitch::new("sw", PcieSwitchConfig::default(), up);
        sw.add_port(SwitchPort {
            egress_link: down,
            endpoint: ep,
            ranges: vec![AddrRange::new(0x1_0000_0000, 0x1000_0000)],
        });
        let sw = k.add_module(Box::new(sw));
        // Device-addressed request goes down; host-addressed goes up.
        let p1 = Packet::request(0, MemCmd::WriteReq, 0x1_0000_0040, 64, 0);
        let p2 = Packet::request(1, MemCmd::ReadReq, 0x4000, 64, 0);
        k.schedule(0, sw, Msg::packet(p1));
        k.schedule(0, sw, Msg::packet(p2));
        k.run_until_idle().unwrap();
        let down_got = &k.module::<Term>(down).unwrap().got;
        let up_got = &k.module::<Term>(up).unwrap().got;
        assert_eq!(down_got.len(), 1);
        assert_eq!(up_got.len(), 1);
        // First TLP: 50 ns; second pipelines tlp_proc_ns = 2 ns behind.
        assert_eq!(down_got[0].0, units::ns(50.0));
        assert_eq!(up_got[0].0, units::ns(52.0));
    }

    #[test]
    fn responses_follow_route_stack() {
        let mut k = Kernel::new();
        let up = k.add_module(Box::new(Term {
            name: "up",
            got: vec![],
        }));
        let down = k.add_module(Box::new(Term {
            name: "down",
            got: vec![],
        }));
        let ep = k.add_module(Box::new(Term {
            name: "ep",
            got: vec![],
        }));
        let mut sw = PcieSwitch::new("sw", PcieSwitchConfig::default(), up);
        sw.add_port(SwitchPort {
            egress_link: down,
            endpoint: ep,
            ranges: vec![],
        });
        let sw = k.add_module(Box::new(sw));
        // A completion whose next hop is the endpoint must leave on the
        // downstream egress; one for anything else goes upstream.
        let mut cpl = Packet::request(0, MemCmd::ReadReq, 0, 64, 0).to_response();
        cpl.route.push(ep);
        k.schedule(0, sw, Msg::packet(cpl));
        let mut cpl2 = Packet::request(1, MemCmd::ReadReq, 0, 64, 0).to_response();
        cpl2.route.push(up); // some host-side module
        k.schedule(0, sw, Msg::packet(cpl2));
        k.run_until_idle().unwrap();
        assert_eq!(k.module::<Term>(down).unwrap().got.len(), 1);
        assert_eq!(k.module::<Term>(up).unwrap().got.len(), 1);
    }

    #[test]
    fn aggregate_ranges_merges_adjacent_and_overlapping() {
        let carved: Vec<AddrRange> = (0..4)
            .map(|i| AddrRange::new(0x1000_0000 + i * 0x100_0000, 0x100_0000))
            .collect();
        // Contiguous carved BARs collapse to one claim.
        assert_eq!(
            aggregate_ranges(carved),
            vec![AddrRange::new(0x1000_0000, 0x400_0000)]
        );
        // Disjoint claims stay separate and come out sorted.
        let gappy = vec![
            AddrRange::new(0x9000, 0x100),
            AddrRange::new(0x1000, 0x100),
            AddrRange::new(0x1080, 0x200), // overlaps the second
        ];
        assert_eq!(
            aggregate_ranges(gappy),
            vec![AddrRange::new(0x1000, 0x280), AddrRange::new(0x9000, 0x100)]
        );
    }

    #[test]
    fn cascaded_switches_route_requests_down_and_responses_up() {
        // root switch → child switch → endpoint: requests descend by the
        // aggregated subtree claim, responses retrace the route stack
        // with the child switch as the root port's `endpoint`.
        let mut k = Kernel::new();
        let up = k.add_module(Box::new(Term {
            name: "up",
            got: vec![],
        }));
        let ep = k.add_module(Box::new(Term {
            name: "ep",
            got: vec![],
        }));
        let child_down = k.add_module(Box::new(Term {
            name: "child_down",
            got: vec![],
        }));
        let child_up = k.add_module(Box::new(Term {
            name: "child_up",
            got: vec![],
        }));
        let bar = AddrRange::new(0x1_0000_0000, 0x1000_0000);
        let mut child = PcieSwitch::new("child", PcieSwitchConfig::default(), child_up);
        child.add_port(SwitchPort::aggregated(child_down, ep, [bar]));
        let child = k.add_module(Box::new(child));
        let root_down = k.add_module(Box::new(Term {
            name: "root_down",
            got: vec![],
        }));
        let mut root = PcieSwitch::new("root", PcieSwitchConfig::default(), up);
        // The root port fronts the whole child subtree.
        root.add_port(SwitchPort::aggregated(root_down, child, [bar]));
        let root = k.add_module(Box::new(root));
        // A device-addressed request at the root leaves on the subtree port.
        let req = Packet::request(0, MemCmd::WriteReq, bar.base + 0x40, 64, 0);
        k.schedule(0, root, Msg::packet(req));
        // A response whose next hop is the child switch also goes down...
        let mut cpl = Packet::request(1, MemCmd::ReadReq, 0x4000, 64, 0).to_response();
        cpl.route.push(child);
        k.schedule(0, root, Msg::packet(cpl));
        // ...while a device-originated request at the child heads upstream.
        let host_req = Packet::request(2, MemCmd::ReadReq, 0x4000, 64, 0);
        k.schedule(0, child, Msg::packet(host_req));
        k.run_until_idle().unwrap();
        assert_eq!(k.module::<Term>(root_down).unwrap().got.len(), 2);
        assert_eq!(k.module::<Term>(child_up).unwrap().got.len(), 1);
        assert!(k.module::<Term>(up).unwrap().got.is_empty());
    }

    #[test]
    fn tlp_rate_limit_spaces_back_to_back_tlps() {
        let mut k = Kernel::new();
        let up = k.add_module(Box::new(Term {
            name: "up",
            got: vec![],
        }));
        let cfg = PcieSwitchConfig {
            latency_ns: 50.0,
            tlp_proc_ns: 8.0,
        };
        let sw = k.add_module(Box::new(PcieSwitch::new("sw", cfg, up)));
        for i in 0..4 {
            let p = Packet::request(i, MemCmd::ReadReq, 0x100, 64, 0);
            k.schedule(0, sw, Msg::packet(p));
        }
        k.run_until_idle().unwrap();
        let got = &k.module::<Term>(up).unwrap().got;
        let times: Vec<Tick> = got.iter().map(|&(t, _)| t).collect();
        assert_eq!(
            times,
            vec![
                units::ns(50.0),
                units::ns(58.0),
                units::ns(66.0),
                units::ns(74.0)
            ]
        );
    }
}
