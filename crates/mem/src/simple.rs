//! Fixed-latency, bandwidth-limited memory (gem5's default DRAM model).

use accesys_sim::{units, Ctx, MemCmd, Module, Msg, Stats, Tick};

/// Configuration for [`SimpleMemory`].
#[derive(Copy, Clone, Debug, serde::Serialize)]
pub struct SimpleMemoryConfig {
    /// Flat access latency in nanoseconds (applied after serialization).
    pub latency_ns: f64,
    /// Peak bandwidth in GB/s used to serialize back-to-back accesses.
    pub bandwidth_gbps: f64,
}

impl Default for SimpleMemoryConfig {
    fn default() -> Self {
        SimpleMemoryConfig {
            latency_ns: 30.0,
            bandwidth_gbps: 12.8,
        }
    }
}

/// A memory endpoint with fixed latency and a bandwidth pipe.
///
/// Requests are serialized through a single service resource at
/// `bandwidth_gbps`; each then completes `latency_ns` later. This is the
/// model the paper uses for the Fig. 6 "memory bandwidth and latency
/// sweeping" study ("gem5's default DRAM model").
///
/// ```
/// use accesys_mem::{SimpleMemory, SimpleMemoryConfig};
/// use accesys_sim::{Kernel, Msg, Packet, MemCmd};
///
/// let mut kernel = Kernel::new();
/// let cfg = SimpleMemoryConfig { latency_ns: 10.0, bandwidth_gbps: 8.0 };
/// let mem = kernel.add_module(Box::new(SimpleMemory::new("dram", cfg)));
/// let pkt = Packet::request(0, MemCmd::ReadReq, 0x80, 64, 0);
/// kernel.schedule(0, mem, Msg::packet(pkt));
/// // 64 B at 8 GB/s = 8 ns serialization + 10 ns latency: response at 18 ns.
/// // (The response is dropped here because the route stack is empty.)
/// ```
#[derive(Debug)]
pub struct SimpleMemory {
    name: String,
    cfg: SimpleMemoryConfig,
    next_free: Tick,
    reads: u64,
    writes: u64,
    bytes: u64,
    busy_time: Tick,
    lat_sum_ns: f64,
}

impl SimpleMemory {
    /// Create a memory endpoint with the given instance `name`.
    pub fn new(name: &str, cfg: SimpleMemoryConfig) -> Self {
        assert!(cfg.bandwidth_gbps > 0.0, "bandwidth must be positive");
        assert!(cfg.latency_ns >= 0.0, "latency must be non-negative");
        SimpleMemory {
            name: name.to_string(),
            cfg,
            next_free: 0,
            reads: 0,
            writes: 0,
            bytes: 0,
            busy_time: 0,
            lat_sum_ns: 0.0,
        }
    }

    /// The configuration this instance was built with.
    pub fn config(&self) -> SimpleMemoryConfig {
        self.cfg
    }

    /// Total bytes served.
    pub fn bytes_served(&self) -> u64 {
        self.bytes
    }
}

impl Module for SimpleMemory {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
        let mut pkt = match msg {
            Msg::Packet(p) => p,
            // Memory has no timers or credits; ignore stray control traffic.
            _ => return,
        };
        debug_assert!(
            matches!(pkt.cmd, MemCmd::ReadReq | MemCmd::WriteReq),
            "memory got non-request {:?}",
            pkt.cmd
        );
        match pkt.cmd {
            MemCmd::ReadReq => self.reads += 1,
            MemCmd::WriteReq => self.writes += 1,
            _ => {}
        }
        self.bytes += u64::from(pkt.size);

        let ser = units::transfer_time(u64::from(pkt.size), self.cfg.bandwidth_gbps);
        let start = self.next_free.max(ctx.now());
        let data_ready = start + ser;
        self.next_free = data_ready;
        self.busy_time += ser;
        let done = data_ready + units::ns(self.cfg.latency_ns);
        self.lat_sum_ns += units::to_ns(done - ctx.now());

        pkt.make_response();
        if let Some(next) = pkt.route.pop() {
            ctx.send_at(next, done, Msg::Packet(pkt));
        }
    }

    fn report(&self, out: &mut Stats) {
        out.add("reads", self.reads as f64);
        out.add("writes", self.writes as f64);
        out.add("bytes", self.bytes as f64);
        out.add("busy_ns", units::to_ns(self.busy_time));
        let n = (self.reads + self.writes) as f64;
        if n > 0.0 {
            out.add("avg_latency_ns", self.lat_sum_ns / n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accesys_sim::{Kernel, ModuleId, Packet};

    /// Requester that fires `n` back-to-back line reads and records
    /// response times.
    struct Requester {
        mem: ModuleId,
        n: u32,
        size: u32,
        done_at: Vec<Tick>,
    }

    impl Module for Requester {
        fn name(&self) -> &str {
            "req"
        }
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
            match msg {
                Msg::Timer(_) => {
                    for _ in 0..self.n {
                        let mut p = Packet::request(
                            ctx.alloc_pkt_id(),
                            MemCmd::ReadReq,
                            0x1000,
                            self.size,
                            ctx.now(),
                        );
                        p.route.push(ctx.self_id());
                        ctx.send(self.mem, 0, Msg::packet(p));
                    }
                }
                Msg::Packet(p) => {
                    assert_eq!(p.cmd, MemCmd::ReadResp);
                    self.done_at.push(ctx.now());
                }
                _ => {}
            }
        }
    }

    fn run(n: u32, size: u32, cfg: SimpleMemoryConfig) -> Vec<Tick> {
        let mut k = Kernel::new();
        let mem = k.add_module(Box::new(SimpleMemory::new("m", cfg)));
        let req = k.add_module(Box::new(Requester {
            mem,
            n,
            size,
            done_at: vec![],
        }));
        k.schedule(0, req, Msg::Timer(0));
        k.run_until_idle().unwrap();
        let r = k.module::<Requester>(req).unwrap();
        r.done_at.clone()
    }

    #[test]
    fn single_read_latency_is_serialization_plus_latency() {
        let cfg = SimpleMemoryConfig {
            latency_ns: 10.0,
            bandwidth_gbps: 8.0,
        };
        let done = run(1, 64, cfg);
        // 64 B / 8 GB/s = 8 ns, + 10 ns flat.
        assert_eq!(done, vec![units::ns(18.0)]);
    }

    #[test]
    fn back_to_back_reads_are_bandwidth_limited() {
        let cfg = SimpleMemoryConfig {
            latency_ns: 10.0,
            bandwidth_gbps: 8.0,
        };
        let done = run(4, 64, cfg);
        // Serialization staggers completions by 8 ns each.
        assert_eq!(
            done,
            vec![
                units::ns(18.0),
                units::ns(26.0),
                units::ns(34.0),
                units::ns(42.0)
            ]
        );
    }

    #[test]
    fn doubling_bandwidth_halves_stream_time() {
        let slow = SimpleMemoryConfig {
            latency_ns: 0.0,
            bandwidth_gbps: 4.0,
        };
        let fast = SimpleMemoryConfig {
            latency_ns: 0.0,
            bandwidth_gbps: 8.0,
        };
        let t_slow = *run(32, 256, slow).last().unwrap();
        let t_fast = *run(32, 256, fast).last().unwrap();
        assert_eq!(t_slow, 2 * t_fast);
    }

    #[test]
    fn stats_count_traffic() {
        let mut k = Kernel::new();
        let cfg = SimpleMemoryConfig::default();
        let mem = k.add_module(Box::new(SimpleMemory::new("m", cfg)));
        let req = k.add_module(Box::new(Requester {
            mem,
            n: 3,
            size: 128,
            done_at: vec![],
        }));
        k.schedule(0, req, Msg::Timer(0));
        k.run_until_idle().unwrap();
        let stats = k.stats();
        assert_eq!(stats.get("m.reads"), Some(3.0));
        assert_eq!(stats.get("m.bytes"), Some(384.0));
    }
}
