//! Unidirectional PCIe link with serialization and credit flow control.

use accesys_sim::{units, CreditClass, Ctx, MemCmd, Module, ModuleId, Msg, PacketBox, Stats, Tick};
use std::collections::VecDeque;

/// Configuration of one [`PcieLink`] direction.
#[derive(Copy, Clone, Debug, serde::Serialize)]
pub struct PcieLinkConfig {
    /// Number of lanes (paper sweeps 2, 4, 8, 16).
    pub lanes: u32,
    /// Raw line rate per lane in Gb/s (paper sweeps 2 – 64).
    pub lane_gbps: f64,
    /// Encoding efficiency: 0.8 for 8b/10b (gen 1/2), 128/130 for gen 3+.
    pub encoding_efficiency: f64,
    /// Propagation delay of the wire in nanoseconds.
    pub prop_delay_ns: f64,
    /// Per-TLP header + framing overhead on the wire, in bytes.
    pub header_bytes: u32,
    /// Receiver buffer (credit pool) for posted requests, in bytes.
    pub posted_credit_bytes: u32,
    /// Receiver buffer for non-posted requests, in bytes.
    pub nonposted_credit_bytes: u32,
    /// Receiver buffer for completions, in bytes.
    pub completion_credit_bytes: u32,
    /// Probability that a TLP is corrupted on the wire and replayed by
    /// the data-link layer (0 disables error injection). Sampled from a
    /// deterministic per-link PRNG so runs stay reproducible.
    pub error_rate: f64,
    /// Extra latency of one ACK/NAK replay round, in nanoseconds (the
    /// replay also re-serializes the TLP).
    pub replay_ns: f64,
}

impl PcieLinkConfig {
    /// PCIe 2.0 ×4 (the paper's Table II baseline): 4 Gb/s effective.
    pub fn gen2_x4() -> Self {
        PcieLinkConfig {
            lanes: 4,
            lane_gbps: 5.0,
            encoding_efficiency: 0.8,
            prop_delay_ns: 10.0,
            header_bytes: 24,
            // Per-hop receiver buffers: large TLPs fit only a couple of
            // packets, so store-and-forward pipelining degrades — the
            // large-packet arm of the paper's Fig. 4 convexity.
            posted_credit_bytes: 8 << 10,
            nonposted_credit_bytes: 4 << 10,
            completion_credit_bytes: 6 << 10,
            error_rate: 0.0,
            replay_ns: 100.0,
        }
    }

    /// A link built from a standard [`crate::PcieGen`] with `lanes` lanes.
    pub fn gen(generation: crate::PcieGen, lanes: u32) -> Self {
        PcieLinkConfig {
            lanes,
            lane_gbps: generation.raw_gt_s(),
            encoding_efficiency: generation.encoding_efficiency(),
            ..Self::gen2_x4()
        }
    }

    /// A link tuned to an aggregate bandwidth in GB/s (used by the sweeps
    /// that talk about "a 8 GB/s PCIe link").
    pub fn with_bandwidth_gbps(gb_per_s: f64) -> Self {
        let mut cfg = Self::gen2_x4();
        cfg.encoding_efficiency = 128.0 / 130.0;
        cfg.lanes = 16;
        cfg.lane_gbps = gb_per_s * 8.0 / cfg.lanes as f64 / cfg.encoding_efficiency;
        cfg
    }

    /// Effective bandwidth in GB/s after encoding.
    pub fn bandwidth_gbps(&self) -> f64 {
        units::link_gb_per_s(self.lanes, self.lane_gbps, self.encoding_efficiency)
    }

    /// Credit pool for `class`, in bytes.
    pub fn credit_bytes(&self, class: CreditClass) -> u32 {
        match class {
            CreditClass::Posted => self.posted_credit_bytes,
            CreditClass::NonPosted => self.nonposted_credit_bytes,
            CreditClass::Completion => self.completion_credit_bytes,
        }
    }
}

fn class_of(cmd: MemCmd) -> CreditClass {
    match cmd {
        MemCmd::WriteReq => CreditClass::Posted,
        MemCmd::ReadReq | MemCmd::SnoopInv => CreditClass::NonPosted,
        MemCmd::ReadResp | MemCmd::WriteResp | MemCmd::SnoopInvAck => CreditClass::Completion,
    }
}

/// One direction of a PCIe link: serializes TLPs at
/// `lanes × rate × efficiency`, delivers them to a fixed destination after
/// store-and-forward (full serialization) plus propagation delay, and
/// enforces per-class byte credits that model the receiver's ingress
/// buffers. Receivers return credits with [`Msg::Credit`] once a packet
/// leaves their buffer.
///
/// Physical links are modelled as a pair of `PcieLink`s, one per
/// direction, like gem5 port pairs.
pub struct PcieLink {
    name: String,
    cfg: PcieLinkConfig,
    /// `cfg.bandwidth_gbps()`, evaluated once at construction.
    gb_per_s: f64,
    /// `cfg.prop_delay_ns` in ticks, converted once at construction.
    prop_delay: Tick,
    /// `cfg.replay_ns` in ticks, converted once at construction.
    replay: Tick,
    dst: ModuleId,
    credits: [i64; 3],
    queues: [VecDeque<PacketBox>; 3],
    tx_free: Tick,
    rng: u64,
    // stats
    tlps: u64,
    wire_bytes: u64,
    payload_bytes: u64,
    credit_stall_tlps: u64,
    replayed_tlps: u64,
    busy: Tick,
}

impl PcieLink {
    /// Create a link direction that delivers to `dst`.
    pub fn new(name: &str, cfg: PcieLinkConfig, dst: ModuleId) -> Self {
        assert!(cfg.lanes > 0 && cfg.lane_gbps > 0.0);
        assert!(cfg.encoding_efficiency > 0.0 && cfg.encoding_efficiency <= 1.0);
        let credits = [
            i64::from(cfg.posted_credit_bytes),
            i64::from(cfg.nonposted_credit_bytes),
            i64::from(cfg.completion_credit_bytes),
        ];
        // Seed the replay PRNG from the instance name so every link has
        // an independent but reproducible error sequence.
        let seed = name
            .bytes()
            .fold(0xD6E8_FEB8_6659_FD93_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
            })
            .max(1);
        PcieLink {
            name: name.to_string(),
            cfg,
            gb_per_s: cfg.bandwidth_gbps(),
            prop_delay: units::ns(cfg.prop_delay_ns),
            replay: units::ns(cfg.replay_ns),
            dst,
            credits,
            queues: Default::default(),
            tx_free: 0,
            rng: seed,
            tlps: 0,
            wire_bytes: 0,
            payload_bytes: 0,
            credit_stall_tlps: 0,
            replayed_tlps: 0,
            busy: 0,
        }
    }

    /// Next sample of the deterministic xorshift64* PRNG, in `[0, 1)`.
    fn next_unit(&mut self) -> f64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        let y = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        (y >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The configuration this link was built with.
    pub fn config(&self) -> PcieLinkConfig {
        self.cfg
    }

    /// Try to transmit queued TLPs, in class round-robin order, consuming
    /// credits and booking serialization time.
    fn pump(&mut self, ctx: &mut Ctx) {
        loop {
            let mut sent_any = false;
            for class in CreditClass::ALL {
                let ci = class.index();
                let Some(front) = self.queues[ci].front() else {
                    continue;
                };
                let wire = i64::from(front.wire_bytes(self.cfg.header_bytes));
                if self.credits[ci] < wire {
                    continue;
                }
                let mut pkt = self.queues[ci].pop_front().expect("front exists");
                self.credits[ci] -= wire;
                let ser = units::transfer_time(wire as u64, self.gb_per_s);
                let tx_start = self.tx_free.max(ctx.now());
                let mut tx_end = tx_start + ser;
                // Data-link-layer error: the TLP is NAKed and replayed,
                // costing one replay round plus a second serialization.
                if self.cfg.error_rate > 0.0 && self.next_unit() < self.cfg.error_rate {
                    tx_end += self.replay + ser;
                    self.replayed_tlps += 1;
                    self.busy += ser;
                    self.wire_bytes += wire as u64;
                }
                self.tx_free = tx_end;
                self.busy += ser;
                self.tlps += 1;
                self.wire_bytes += wire as u64;
                if pkt.cmd.carries_data() {
                    self.payload_bytes += u64::from(pkt.size);
                }
                // Store-and-forward: the receiver has the full TLP only
                // after serialization plus wire propagation.
                let arrive = tx_end + self.prop_delay;
                // Store-and-forward: the previous hop's buffer holds the
                // TLP until we have fully transmitted it.
                if pkt.ingress_link.is_valid() {
                    ctx.send_at(pkt.ingress_link, tx_end, Msg::credit(class, wire as u32));
                }
                pkt.ingress_link = ctx.self_id();
                ctx.send_at(self.dst, arrive, Msg::Packet(pkt));
                sent_any = true;
            }
            if !sent_any {
                break;
            }
        }
    }
}

impl Module for PcieLink {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
        match msg {
            Msg::Packet(pkt) => {
                let class = class_of(pkt.cmd);
                let wire = i64::from(pkt.wire_bytes(self.cfg.header_bytes));
                if self.credits[class.index()] < wire || !self.queues[class.index()].is_empty() {
                    self.credit_stall_tlps += 1;
                }
                self.queues[class.index()].push_back(pkt);
                self.pump(ctx);
            }
            Msg::Credit(credit) => {
                let class = credit.class();
                self.credits[class.index()] += i64::from(credit.bytes());
                debug_assert!(
                    self.credits[class.index()] <= i64::from(self.cfg.credit_bytes(class)),
                    "credit overflow on {}",
                    self.name
                );
                self.pump(ctx);
            }
            Msg::Timer(_) => self.pump(ctx),
            _ => {}
        }
    }

    fn report(&self, out: &mut Stats) {
        out.add("tlps", self.tlps as f64);
        out.add("wire_bytes", self.wire_bytes as f64);
        out.add("payload_bytes", self.payload_bytes as f64);
        out.add("credit_stall_tlps", self.credit_stall_tlps as f64);
        out.add("replayed_tlps", self.replayed_tlps as f64);
        out.add("busy_ns", units::to_ns(self.busy));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accesys_sim::{Kernel, Packet};

    /// Consumes packets after `proc_ns` and returns credits.
    struct Receiver {
        proc_ns: f64,
        got: Vec<(Tick, u32)>,
    }

    impl Module for Receiver {
        fn name(&self) -> &str {
            "sink"
        }
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
            if let Msg::Packet(pkt) = msg {
                self.got.push((ctx.now(), pkt.size));
                let class = class_of(pkt.cmd);
                let wire = pkt.wire_bytes(24);
                ctx.send(
                    pkt.ingress_link,
                    units::ns(self.proc_ns),
                    Msg::credit(class, wire),
                );
            }
        }
    }

    fn send_writes(
        cfg: PcieLinkConfig,
        count: u32,
        size: u32,
        sink_proc_ns: f64,
    ) -> (Vec<(Tick, u32)>, Stats) {
        let mut k = Kernel::new();
        let sink = k.add_module(Box::new(Receiver {
            proc_ns: sink_proc_ns,
            got: vec![],
        }));
        let link = k.add_module(Box::new(PcieLink::new("link", cfg, sink)));
        for i in 0..count {
            let pkt = Packet::request(u64::from(i), MemCmd::WriteReq, 0x1000, size, 0);
            k.schedule(0, link, Msg::packet(pkt));
        }
        k.run_until_idle().unwrap();
        (k.module::<Receiver>(sink).unwrap().got.clone(), k.stats())
    }

    #[test]
    fn single_tlp_time_is_serialization_plus_prop() {
        // 2 GB/s link (16 lanes * 1.015625 Gb/s * 128/130 ≈ 2 GB/s).
        let cfg = PcieLinkConfig {
            lanes: 4,
            lane_gbps: 5.0,
            encoding_efficiency: 0.8,
            prop_delay_ns: 10.0,
            header_bytes: 24,
            posted_credit_bytes: 1 << 20,
            nonposted_credit_bytes: 1 << 20,
            completion_credit_bytes: 1 << 20,
            error_rate: 0.0,
            replay_ns: 100.0,
        };
        // bandwidth = 4*5*0.8/8 = 2 GB/s; wire = 256+24 = 280 B -> 140 ns.
        let (got, _) = send_writes(cfg, 1, 256, 0.0);
        assert_eq!(got, vec![(units::ns(150.0), 256)]);
    }

    #[test]
    fn stream_is_bandwidth_limited_with_ample_credits() {
        let cfg = PcieLinkConfig {
            posted_credit_bytes: 1 << 20,
            ..PcieLinkConfig::gen2_x4()
        };
        let (got, stats) = send_writes(cfg, 64, 256, 0.0);
        let last = got.last().unwrap().0;
        // 64 TLPs * 280 B / 2 GB/s = 8960 ns (+10 prop).
        let ideal = units::ns(64.0 * 280.0 / 2.0 + 10.0);
        assert!(
            last >= ideal && last < ideal + units::ns(5.0),
            "last={last} ideal={ideal}"
        );
        assert_eq!(stats.get_or_zero("link.tlps"), 64.0);
        assert_eq!(stats.get_or_zero("link.payload_bytes"), 64.0 * 256.0);
    }

    #[test]
    fn tight_credits_throttle_to_receiver_rate() {
        // Pool of exactly one TLP: sender must wait for the sink's credit.
        let cfg = PcieLinkConfig {
            posted_credit_bytes: 280,
            ..PcieLinkConfig::gen2_x4()
        };
        let (got, stats) = send_writes(cfg, 8, 256, 500.0);
        // Steady state period >= sink processing (500 ns) per TLP.
        let deltas: Vec<Tick> = got.windows(2).map(|w| w[1].0 - w[0].0).collect();
        for d in &deltas {
            assert!(*d >= units::ns(500.0), "delta {d}");
        }
        assert!(stats.get_or_zero("link.credit_stall_tlps") >= 7.0);
    }

    #[test]
    fn credits_never_go_negative_or_overflow() {
        let cfg = PcieLinkConfig {
            posted_credit_bytes: 600,
            ..PcieLinkConfig::gen2_x4()
        };
        // Mixed sizes; the debug_assert in handle() checks overflow.
        let mut k = Kernel::new();
        let sink = k.add_module(Box::new(Receiver {
            proc_ns: 50.0,
            got: vec![],
        }));
        let link = k.add_module(Box::new(PcieLink::new("link", cfg, sink)));
        for i in 0..32u32 {
            let size = 64 + (i % 4) * 64;
            let pkt = Packet::request(u64::from(i), MemCmd::WriteReq, 0, size, 0);
            k.schedule(u64::from(i) * 10, link, Msg::packet(pkt));
        }
        k.run_until_idle().unwrap();
        assert_eq!(k.module::<Receiver>(sink).unwrap().got.len(), 32);
    }

    #[test]
    fn read_requests_cost_header_only() {
        let cfg = PcieLinkConfig::gen2_x4();
        let mut k = Kernel::new();
        let sink = k.add_module(Box::new(Receiver {
            proc_ns: 0.0,
            got: vec![],
        }));
        let link = k.add_module(Box::new(PcieLink::new("link", cfg, sink)));
        let pkt = Packet::request(0, MemCmd::ReadReq, 0, 4096, 0);
        k.schedule(0, link, Msg::packet(pkt));
        k.run_until_idle().unwrap();
        // 24 B at 2 GB/s = 12 ns + 10 ns prop.
        assert_eq!(
            k.module::<Receiver>(sink).unwrap().got[0].0,
            units::ns(22.0)
        );
        assert_eq!(k.stats().get_or_zero("link.wire_bytes"), 24.0);
    }

    #[test]
    fn bandwidth_scales_with_lanes_and_rate() {
        for (lanes, gbps, expect) in [(2, 2.0, 0.4), (4, 4.0, 1.6), (16, 64.0, 102.4)] {
            let cfg = PcieLinkConfig {
                lanes,
                lane_gbps: gbps,
                encoding_efficiency: 0.8,
                ..PcieLinkConfig::gen2_x4()
            };
            assert!((cfg.bandwidth_gbps() - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn with_bandwidth_helper_hits_target() {
        for target in [2.0, 8.0, 64.0] {
            let cfg = PcieLinkConfig::with_bandwidth_gbps(target);
            assert!((cfg.bandwidth_gbps() - target).abs() / target < 1e-9);
        }
    }

    #[test]
    fn error_injection_replays_and_slows_the_stream() {
        let clean = PcieLinkConfig {
            posted_credit_bytes: 1 << 20,
            ..PcieLinkConfig::gen2_x4()
        };
        let noisy = PcieLinkConfig {
            error_rate: 0.2,
            replay_ns: 200.0,
            ..clean
        };
        let (got_clean, s_clean) = send_writes(clean, 256, 256, 0.0);
        let (got_noisy, s_noisy) = send_writes(noisy, 256, 256, 0.0);
        assert_eq!(s_clean.get_or_zero("link.replayed_tlps"), 0.0);
        let replays = s_noisy.get_or_zero("link.replayed_tlps");
        // 256 TLPs at 20 % error rate: expect ≈51, allow wide PRNG slack.
        assert!(
            (20.0..=90.0).contains(&replays),
            "replays {replays} outside band"
        );
        assert!(got_noisy.last().unwrap().0 > got_clean.last().unwrap().0);
        // Every TLP still arrives exactly once.
        assert_eq!(got_noisy.len(), got_clean.len());
    }

    #[test]
    fn error_injection_is_deterministic_per_link_name() {
        let cfg = PcieLinkConfig {
            error_rate: 0.1,
            posted_credit_bytes: 1 << 20,
            ..PcieLinkConfig::gen2_x4()
        };
        let (_, s1) = send_writes(cfg, 128, 256, 0.0);
        let (_, s2) = send_writes(cfg, 128, 256, 0.0);
        assert_eq!(
            s1.get_or_zero("link.replayed_tlps"),
            s2.get_or_zero("link.replayed_tlps")
        );
    }
}
