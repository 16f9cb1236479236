//! CXL.mem-style flit-based link — the framework's "standard
//! interconnects" extension beyond PCIe.
//!
//! CXL runs on the PCIe PHY but replaces the transaction layer's variable
//! TLPs with fixed 68-byte flits (64 B slot + header/CRC) and cuts the
//! per-hop protocol latency: no Root-Complex transaction layer, no
//! store-and-forward switch on the direct-attach path. A [`FlitLink`]
//! models one direction of such a port. The paper evaluates PCIe only;
//! this module implements the natural next interconnect its title points
//! at, and the `cxl` experiment (`accesys exp cxl`) compares the two.

use accesys_sim::{units, CreditClass, Ctx, Module, ModuleId, Msg, Packet, PacketBox, Stats, Tick};
use std::collections::VecDeque;

/// How a terminal receiver (root complex / endpoint) counts the ingress
/// credits it returns to the link that delivered a packet.
///
/// PCIe links pool credits in wire bytes (header + payload); flit links
/// pool them in flits. A receiver wired behind a [`FlitLink`] must return
/// flit-unit credits or the pool drifts.
#[derive(Copy, Clone, Debug, Default, PartialEq, serde::Serialize)]
pub enum CreditUnit {
    /// PCIe TLP wire bytes with a 24-byte header (default).
    #[default]
    PcieBytes,
    /// Fixed-size flits of `payload_per_flit` data bytes each.
    Flits {
        /// Payload capacity of one flit in bytes (CXL: 64).
        payload_per_flit: u32,
    },
}

impl CreditUnit {
    /// The credit quantity to return for `pkt`.
    pub fn credit_for(&self, pkt: &Packet) -> u32 {
        match *self {
            CreditUnit::PcieBytes => pkt.wire_bytes(24),
            CreditUnit::Flits { payload_per_flit } => {
                if pkt.cmd.carries_data() {
                    pkt.size.div_ceil(payload_per_flit).max(1)
                } else {
                    1
                }
            }
        }
    }
}

/// Configuration of one [`FlitLink`] direction.
#[derive(Copy, Clone, Debug, serde::Serialize)]
pub struct FlitLinkConfig {
    /// Number of lanes.
    pub lanes: u32,
    /// Raw line rate per lane in GT/s.
    pub lane_gbps: f64,
    /// Line-encoding efficiency (CXL 2.0 on Gen5: 128b/130b).
    pub encoding_efficiency: f64,
    /// Total flit size on the wire, in bytes (CXL: 68).
    pub flit_bytes: u32,
    /// Payload capacity of one flit, in bytes (CXL: 64).
    pub payload_per_flit: u32,
    /// Wire propagation + port latency in nanoseconds. Much lower than a
    /// PCIe RC + switch path: CXL.mem targets tens of ns port-to-port.
    pub prop_delay_ns: f64,
    /// Receiver buffer in flits (single credit pool — CXL.mem has no
    /// posted/non-posted split for memory traffic).
    pub credit_flits: u32,
}

impl FlitLinkConfig {
    /// CXL 2.0 over PCIe Gen5 ×`lanes`: 32 GT/s per lane, 68 B flits.
    pub fn cxl2(lanes: u32) -> Self {
        FlitLinkConfig {
            lanes,
            lane_gbps: 32.0,
            encoding_efficiency: 128.0 / 130.0,
            flit_bytes: 68,
            payload_per_flit: 64,
            prop_delay_ns: 12.0,
            credit_flits: 256,
        }
    }

    /// Effective raw bandwidth in GB/s (before flit framing overhead).
    pub fn raw_bandwidth_gbps(&self) -> f64 {
        units::link_gb_per_s(self.lanes, self.lane_gbps, self.encoding_efficiency)
    }

    /// Effective *payload* bandwidth in GB/s (after flit framing).
    pub fn payload_bandwidth_gbps(&self) -> f64 {
        self.raw_bandwidth_gbps() * f64::from(self.payload_per_flit) / f64::from(self.flit_bytes)
    }

    /// Number of flits a packet occupies.
    pub fn flits_of(&self, pkt: &Packet) -> u32 {
        if pkt.cmd.carries_data() {
            pkt.size.div_ceil(self.payload_per_flit).max(1)
        } else {
            // Requests and dataless completions ride in one header slot.
            1
        }
    }
}

/// One direction of a flit-based (CXL.mem-class) link.
///
/// Serializes packets as fixed-size flits at the link's raw bandwidth,
/// with a single flit-granular credit pool. Compared to [`crate::PcieLink`]
/// there is no per-TLP header penalty and — used point-to-point — none of
/// the RC/switch hierarchy latency, which is exactly the trade the
/// `cxl` experiment measures.
pub struct FlitLink {
    name: String,
    cfg: FlitLinkConfig,
    dst: ModuleId,
    credit_flits: i64,
    queue: VecDeque<PacketBox>,
    tx_free: Tick,
    // stats
    packets: u64,
    flits: u64,
    payload_bytes: u64,
    credit_stalls: u64,
    busy: Tick,
}

impl FlitLink {
    /// Create a link direction that delivers to `dst`.
    pub fn new(name: &str, cfg: FlitLinkConfig, dst: ModuleId) -> Self {
        assert!(cfg.lanes > 0 && cfg.lane_gbps > 0.0);
        assert!(cfg.payload_per_flit > 0 && cfg.flit_bytes >= cfg.payload_per_flit);
        FlitLink {
            name: name.to_string(),
            cfg,
            dst,
            credit_flits: i64::from(cfg.credit_flits),
            queue: VecDeque::new(),
            tx_free: 0,
            packets: 0,
            flits: 0,
            payload_bytes: 0,
            credit_stalls: 0,
            busy: 0,
        }
    }

    /// The configuration this link was built with.
    pub fn config(&self) -> FlitLinkConfig {
        self.cfg
    }

    fn pump(&mut self, ctx: &mut Ctx) {
        while let Some(front) = self.queue.front() {
            let flits = i64::from(self.cfg.flits_of(front));
            if self.credit_flits < flits {
                break;
            }
            let mut pkt = self.queue.pop_front().expect("front exists");
            self.credit_flits -= flits;
            let wire_bytes = flits as u64 * u64::from(self.cfg.flit_bytes);
            let ser = units::transfer_time(wire_bytes, self.cfg.raw_bandwidth_gbps());
            let tx_start = self.tx_free.max(ctx.now());
            let tx_end = tx_start + ser;
            self.tx_free = tx_end;
            self.busy += ser;
            self.packets += 1;
            self.flits += flits as u64;
            if pkt.cmd.carries_data() {
                self.payload_bytes += u64::from(pkt.size);
            }
            let arrive = tx_end + units::ns(self.cfg.prop_delay_ns);
            if pkt.ingress_link.is_valid() {
                // Free the upstream hop's buffer once we own the flits.
                ctx.send_at(
                    pkt.ingress_link,
                    tx_end,
                    Msg::credit(CreditClass::Posted, flits as u32),
                );
            }
            pkt.ingress_link = ctx.self_id();
            ctx.send_at(self.dst, arrive, Msg::Packet(pkt));
        }
    }
}

impl Module for FlitLink {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
        match msg {
            Msg::Packet(pkt) => {
                let flits = i64::from(self.cfg.flits_of(&pkt));
                if self.credit_flits < flits || !self.queue.is_empty() {
                    self.credit_stalls += 1;
                }
                self.queue.push_back(pkt);
                self.pump(ctx);
            }
            Msg::Credit(credit) => {
                // `bytes` carries a flit count on this link class.
                self.credit_flits += i64::from(credit.bytes());
                debug_assert!(
                    self.credit_flits <= i64::from(self.cfg.credit_flits),
                    "flit credit overflow on {}",
                    self.name
                );
                self.pump(ctx);
            }
            Msg::Timer(_) => self.pump(ctx),
            _ => {}
        }
    }

    fn report(&self, out: &mut Stats) {
        out.add("packets", self.packets as f64);
        out.add("flits", self.flits as f64);
        out.add("payload_bytes", self.payload_bytes as f64);
        out.add("credit_stalls", self.credit_stalls as f64);
        out.add("busy_ns", units::to_ns(self.busy));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accesys_sim::{Kernel, MemCmd};

    struct Receiver {
        got: Vec<(Tick, u32)>,
        return_credits: bool,
    }
    impl Module for Receiver {
        fn name(&self) -> &str {
            "sink"
        }
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
            if let Msg::Packet(pkt) = msg {
                self.got.push((ctx.now(), pkt.size));
                if self.return_credits {
                    let cfg = FlitLinkConfig::cxl2(8);
                    ctx.send(
                        pkt.ingress_link,
                        0,
                        Msg::credit(CreditClass::Posted, cfg.flits_of(&pkt)),
                    );
                }
            }
        }
    }

    fn run_writes(cfg: FlitLinkConfig, count: u32, size: u32) -> (Vec<(Tick, u32)>, Stats) {
        let mut k = Kernel::new();
        let sink = k.add_module(Box::new(Receiver {
            got: vec![],
            return_credits: true,
        }));
        let link = k.add_module(Box::new(FlitLink::new("cxl", cfg, sink)));
        for i in 0..count {
            let pkt = Packet::request(u64::from(i), MemCmd::WriteReq, 0x1000, size, 0);
            k.schedule(0, link, Msg::packet(pkt));
        }
        k.run_until_idle().unwrap();
        (k.module::<Receiver>(sink).unwrap().got.clone(), k.stats())
    }

    #[test]
    fn one_write_occupies_ceil_size_over_64_flits() {
        let cfg = FlitLinkConfig::cxl2(8);
        let (_, stats) = run_writes(cfg, 1, 256);
        assert_eq!(stats.get_or_zero("cxl.flits"), 4.0);
        let (_, stats) = run_writes(cfg, 1, 100);
        assert_eq!(stats.get_or_zero("cxl.flits"), 2.0);
    }

    #[test]
    fn reads_ride_in_a_single_flit() {
        let cfg = FlitLinkConfig::cxl2(8);
        let mut k = Kernel::new();
        let sink = k.add_module(Box::new(Receiver {
            got: vec![],
            return_credits: false,
        }));
        let link = k.add_module(Box::new(FlitLink::new("cxl", cfg, sink)));
        let pkt = Packet::request(0, MemCmd::ReadReq, 0, 4096, 0);
        k.schedule(0, link, Msg::packet(pkt));
        k.run_until_idle().unwrap();
        assert_eq!(k.stats().get_or_zero("cxl.flits"), 1.0);
    }

    #[test]
    fn delivery_time_is_serialization_plus_prop() {
        // ×8 Gen5: raw 31.5 GB/s; one 64 B write = 68 B wire ≈ 2.159 ns.
        let cfg = FlitLinkConfig::cxl2(8);
        let (got, _) = run_writes(cfg, 1, 64);
        let expect =
            units::transfer_time(68, cfg.raw_bandwidth_gbps()) + units::ns(cfg.prop_delay_ns);
        assert_eq!(got[0].0, expect);
    }

    #[test]
    fn stream_throughput_matches_payload_bandwidth() {
        let cfg = FlitLinkConfig::cxl2(8);
        let (got, _) = run_writes(cfg, 512, 256);
        let end_ns = units::to_ns(got.last().unwrap().0);
        let gbps = 512.0 * 256.0 / end_ns;
        let payload_bw = cfg.payload_bandwidth_gbps();
        assert!(
            gbps > 0.9 * payload_bw && gbps <= payload_bw * 1.01,
            "streamed {gbps:.1} GB/s vs payload bw {payload_bw:.1}"
        );
    }

    #[test]
    fn credit_exhaustion_stalls_until_returned() {
        let mut cfg = FlitLinkConfig::cxl2(8);
        cfg.credit_flits = 4; // one 256 B write's worth
        let mut k = Kernel::new();
        let sink = k.add_module(Box::new(Receiver {
            got: vec![],
            return_credits: false, // never return → only one packet passes
        }));
        let link = k.add_module(Box::new(FlitLink::new("cxl", cfg, sink)));
        for i in 0..4u32 {
            let pkt = Packet::request(u64::from(i), MemCmd::WriteReq, 0, 256, 0);
            k.schedule(0, link, Msg::packet(pkt));
        }
        k.run_until_idle().unwrap();
        assert_eq!(k.module::<Receiver>(sink).unwrap().got.len(), 1);
        assert!(k.stats().get_or_zero("cxl.credit_stalls") >= 3.0);
    }

    #[test]
    fn flit_framing_overhead_is_visible_in_payload_bandwidth() {
        let cfg = FlitLinkConfig::cxl2(16);
        assert!(cfg.payload_bandwidth_gbps() < cfg.raw_bandwidth_gbps());
        let ratio = cfg.payload_bandwidth_gbps() / cfg.raw_bandwidth_gbps();
        assert!((ratio - 64.0 / 68.0).abs() < 1e-9);
    }
}
