//! The host memory bus (MemBus): an address-routed crossbar.

use crate::AddrRange;
use accesys_sim::{units, Ctx, Module, ModuleId, Msg, Stats, Tick};

/// Configuration of an [`Xbar`].
#[derive(Copy, Clone, Debug, serde::Serialize)]
pub struct XbarConfig {
    /// Bus width in bytes per clock.
    pub width_bytes: u32,
    /// Bus clock in GHz.
    pub freq_ghz: f64,
    /// Forwarding latency in nanoseconds (decode + arbitration).
    pub latency_ns: f64,
}

impl Default for XbarConfig {
    fn default() -> Self {
        XbarConfig {
            width_bytes: 64,
            freq_ghz: 1.0,
            latency_ns: 2.0,
        }
    }
}

/// The system memory bus: routes requests by address range, routes
/// responses via the packet route stack, and models shared-bus occupancy
/// (width × frequency) plus a fixed forwarding latency.
///
/// Matches the role of gem5's `MemBus` in the paper's Fig. 1: the CPU
/// cluster, the memory controller, the PCIe root complex and the SMMU all
/// hang off this module.
pub struct Xbar {
    name: String,
    cfg: XbarConfig,
    /// Clock period in ticks, converted once at construction.
    period: Tick,
    /// `cfg.latency_ns` in ticks, converted once at construction.
    latency: Tick,
    routes: Vec<(AddrRange, ModuleId)>,
    default_dst: ModuleId,
    next_free: Tick,
    forwarded: u64,
    bytes: u64,
    busy: Tick,
}

impl Xbar {
    /// Create a bus whose unmatched requests go to `default_dst`.
    pub fn new(name: &str, cfg: XbarConfig, default_dst: ModuleId) -> Self {
        Xbar {
            name: name.to_string(),
            cfg,
            period: units::clock_period_ghz(cfg.freq_ghz),
            latency: units::ns(cfg.latency_ns),
            routes: Vec::new(),
            default_dst,
            next_free: 0,
            forwarded: 0,
            bytes: 0,
            busy: 0,
        }
    }

    /// Route requests for `range` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `range` overlaps an existing route.
    pub fn add_route(&mut self, range: AddrRange, dst: ModuleId) {
        for (existing, _) in &self.routes {
            assert!(
                !existing.overlaps(&range),
                "route {range} overlaps existing {existing}"
            );
        }
        self.routes.push((range, dst));
    }

    fn route(&self, addr: u64) -> ModuleId {
        self.routes
            .iter()
            .find(|(r, _)| r.contains(addr))
            .map(|&(_, dst)| dst)
            .unwrap_or(self.default_dst)
    }

    fn occupancy(&self, bytes: u32) -> Tick {
        let cycles = bytes.div_ceil(self.cfg.width_bytes).max(1) as u64;
        cycles * self.period
    }
}

impl Module for Xbar {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
        let mut pkt = match msg {
            Msg::Packet(p) => p,
            _ => return,
        };
        self.forwarded += 1;
        self.bytes += u64::from(pkt.size);
        let occ = self.occupancy(pkt.size);
        let start = self.next_free.max(ctx.now());
        self.next_free = start + occ;
        self.busy += occ;
        let out_at = start + occ + self.latency;

        if pkt.cmd.is_request() {
            let dst = self.route(pkt.addr);
            pkt.route.push(ctx.self_id());
            ctx.send_at(dst, out_at, Msg::Packet(pkt));
        } else if let Some(next) = pkt.route.pop() {
            ctx.send_at(next, out_at, Msg::Packet(pkt));
        }
    }

    fn report(&self, out: &mut Stats) {
        out.add("forwarded", self.forwarded as f64);
        out.add("bytes", self.bytes as f64);
        out.add("busy_ns", units::to_ns(self.busy));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accesys_mem::{SimpleMemory, SimpleMemoryConfig};
    use accesys_sim::{Kernel, MemCmd, Packet};

    struct Probe {
        bus: ModuleId,
        targets: Vec<u64>,
        next: usize,
        done: Vec<(u64, Tick)>,
    }

    impl Probe {
        fn issue(&mut self, ctx: &mut Ctx) {
            let addr = self.targets[self.next];
            self.next += 1;
            let mut p = Packet::request(ctx.alloc_pkt_id(), MemCmd::ReadReq, addr, 64, ctx.now());
            p.route.push(ctx.self_id());
            ctx.send(self.bus, 0, Msg::packet(p));
        }
    }

    impl Module for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
            match msg {
                Msg::Timer(_) => self.issue(ctx),
                Msg::Packet(p) => {
                    self.done.push((p.addr, ctx.now()));
                    if self.next < self.targets.len() {
                        self.issue(ctx);
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn routes_by_address_and_returns_responses() {
        let mut k = Kernel::new();
        let fast = SimpleMemoryConfig {
            latency_ns: 5.0,
            bandwidth_gbps: 64.0,
        };
        let slow = SimpleMemoryConfig {
            latency_ns: 500.0,
            bandwidth_gbps: 1.0,
        };
        let m_fast = k.add_module(Box::new(SimpleMemory::new("fast", fast)));
        let m_slow = k.add_module(Box::new(SimpleMemory::new("slow", slow)));
        let mut bus = Xbar::new("bus", XbarConfig::default(), m_fast);
        bus.add_route(AddrRange::new(0x8000_0000, 0x1000), m_slow);
        let bus = k.add_module(Box::new(bus));
        let probe = k.add_module(Box::new(Probe {
            bus,
            targets: vec![0x100, 0x8000_0000],
            next: 0,
            done: vec![],
        }));
        k.schedule(0, probe, Msg::Timer(0));
        k.run_until_idle().unwrap();
        let done = &k.module::<Probe>(probe).unwrap().done;
        assert_eq!(done.len(), 2);
        let t_fast = done[0].1;
        let t_slow = done[1].1 - done[0].1;
        assert!(t_fast < units::ns(50.0), "fast path took {t_fast}");
        assert!(t_slow > units::ns(500.0), "slow path took {t_slow}");
        let stats = k.stats();
        assert_eq!(stats.get_or_zero("fast.reads"), 1.0);
        assert_eq!(stats.get_or_zero("slow.reads"), 1.0);
        // Each request + each response crosses the bus once.
        assert_eq!(stats.get_or_zero("bus.forwarded"), 4.0);
    }

    #[test]
    #[should_panic(expected = "overlaps existing")]
    fn overlapping_routes_panic() {
        let mut bus = Xbar::new("bus", XbarConfig::default(), ModuleId::INVALID);
        bus.add_route(AddrRange::new(0, 0x1000), ModuleId::INVALID);
        bus.add_route(AddrRange::new(0x800, 0x1000), ModuleId::INVALID);
    }

    #[test]
    fn occupancy_serializes_wide_transfers() {
        // 64 B/cycle at 1 GHz = 64 GB/s bus; a 4 KiB packet occupies 64 cycles.
        let bus = Xbar::new("bus", XbarConfig::default(), ModuleId::INVALID);
        assert_eq!(bus.occupancy(4096), 64 * 1000);
        assert_eq!(bus.occupancy(1), 1000);
    }
}
