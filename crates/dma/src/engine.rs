//! Multi-channel DMA engine.

use accesys_sim::{streams, units, Ctx, MemCmd, Module, ModuleId, Msg, Packet, Stats, Tick};
use std::collections::VecDeque;

/// Configuration of a [`DmaEngine`].
#[derive(Copy, Clone, Debug, serde::Serialize)]
pub struct DmaEngineConfig {
    /// Number of independent channels.
    pub channels: u32,
    /// Request (packet) size in bytes — the Fig. 4 sweep knob.
    pub request_bytes: u32,
    /// Maximum requests in flight per channel.
    pub max_inflight: u32,
    /// Descriptor fetch/decode latency in nanoseconds.
    pub desc_latency_ns: f64,
}

impl Default for DmaEngineConfig {
    fn default() -> Self {
        DmaEngineConfig {
            channels: 4,
            request_bytes: 256,
            max_inflight: 32,
            desc_latency_ns: 20.0,
        }
    }
}

/// One DMA transfer: `bytes` starting at `addr`, read or written through
/// `target` (the PCIe endpoint for host memory, the DevMem controller for
/// device memory).
#[derive(Copy, Clone, Debug)]
pub struct DmaDescriptor {
    /// Channel to run on.
    pub channel: u32,
    /// Start address (virtual if `virt`).
    pub addr: u64,
    /// Transfer length in bytes.
    pub bytes: u64,
    /// `true` = write to memory, `false` = read from memory.
    pub write: bool,
    /// Address needs SMMU translation on the host side.
    pub virt: bool,
    /// First module to send requests to.
    pub target: ModuleId,
    /// Who to notify with [`DmaDone`].
    pub notify: ModuleId,
    /// Opaque completion cookie echoed in [`DmaDone`].
    pub cookie: u64,
}

/// A scatter-gather DMA transfer: a list of `(addr, bytes)` extents moved
/// as one logical transfer with a single completion.
///
/// Requests never cross an extent boundary, so a fragmented buffer costs
/// extra (sub-`request_bytes`) packets exactly as real SG engines do.
#[derive(Clone, Debug)]
pub struct DmaSgDescriptor {
    /// Channel to run on.
    pub channel: u32,
    /// Extents in transfer order; each is `(start_addr, bytes)`.
    pub segments: Vec<(u64, u64)>,
    /// `true` = write to memory, `false` = read from memory.
    pub write: bool,
    /// Addresses need SMMU translation on the host side.
    pub virt: bool,
    /// First module to send requests to.
    pub target: ModuleId,
    /// Who to notify with [`DmaDone`].
    pub notify: ModuleId,
    /// Opaque completion cookie echoed in [`DmaDone`].
    pub cookie: u64,
}

impl DmaSgDescriptor {
    /// Total bytes across all extents.
    pub fn total_bytes(&self) -> u64 {
        self.segments.iter().map(|&(_, b)| b).sum()
    }
}

impl From<DmaDescriptor> for DmaSgDescriptor {
    fn from(d: DmaDescriptor) -> Self {
        DmaSgDescriptor {
            channel: d.channel,
            segments: vec![(d.addr, d.bytes)],
            write: d.write,
            virt: d.virt,
            target: d.target,
            notify: d.notify,
            cookie: d.cookie,
        }
    }
}

/// Completion notification for a [`DmaDescriptor`] / [`DmaSgDescriptor`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DmaDone {
    /// Channel that finished.
    pub channel: u32,
    /// Cookie from the descriptor.
    pub cookie: u64,
    /// Bytes moved.
    pub bytes: u64,
}

struct Active {
    desc: DmaSgDescriptor,
    total_bytes: u64,
    /// Extent currently being segmented into requests.
    seg_idx: usize,
    /// Offset into the current extent.
    seg_offset: u64,
    inflight: u32,
    done_bytes: u64,
    started: Tick,
}

struct Channel {
    queue: VecDeque<DmaSgDescriptor>,
    active: Option<Active>,
}

/// The engine: per-channel descriptor queues and request windows.
///
/// Requests carry stream id `streams::DMA_BASE + channel` so caches and
/// the coherence point can classify the traffic, and responses are
/// matched back to their channel by the same stream id.
pub struct DmaEngine {
    name: String,
    cfg: DmaEngineConfig,
    channels: Vec<Channel>,
    // stats
    descriptors: u64,
    requests: u64,
    bytes_read: u64,
    bytes_written: u64,
    busy_ns_sum: f64,
}

impl DmaEngine {
    /// Create an engine with `cfg.channels` channels.
    pub fn new(name: &str, cfg: DmaEngineConfig) -> Self {
        assert!(cfg.channels > 0 && cfg.request_bytes > 0 && cfg.max_inflight > 0);
        DmaEngine {
            name: name.to_string(),
            cfg,
            channels: (0..cfg.channels)
                .map(|_| Channel {
                    queue: VecDeque::new(),
                    active: None,
                })
                .collect(),
            descriptors: 0,
            requests: 0,
            bytes_read: 0,
            bytes_written: 0,
            busy_ns_sum: 0.0,
        }
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> DmaEngineConfig {
        self.cfg
    }

    fn stream_of(&self, channel: u32) -> u16 {
        streams::DMA_BASE + channel as u16
    }

    fn channel_of(&self, stream: u16) -> Option<usize> {
        let c = stream.checked_sub(streams::DMA_BASE)? as usize;
        (c < self.channels.len()).then_some(c)
    }

    fn start_next(&mut self, ch: usize, ctx: &mut Ctx) {
        if self.channels[ch].active.is_some() {
            return;
        }
        let Some(desc) = self.channels[ch].queue.pop_front() else {
            return;
        };
        self.descriptors += 1;
        let total_bytes = desc.total_bytes();
        self.channels[ch].active = Some(Active {
            desc,
            total_bytes,
            seg_idx: 0,
            seg_offset: 0,
            inflight: 0,
            done_bytes: 0,
            started: ctx.now(),
        });
        // Descriptor fetch/decode latency before the first burst.
        ctx.timer(units::ns(self.cfg.desc_latency_ns), ch as u64);
    }

    fn pump(&mut self, ch: usize, ctx: &mut Ctx) {
        let stream = self.stream_of(ch as u32);
        let mut issued = 0u64;
        let mut issued_bytes = 0u64;
        {
            let Some(active) = self.channels[ch].active.as_mut() else {
                return;
            };
            while active.inflight < self.cfg.max_inflight
                && active.seg_idx < active.desc.segments.len()
            {
                let (seg_addr, seg_bytes) = active.desc.segments[active.seg_idx];
                // Requests never cross an extent boundary.
                let remaining = seg_bytes - active.seg_offset;
                let size = remaining.min(u64::from(self.cfg.request_bytes)) as u32;
                let cmd = if active.desc.write {
                    MemCmd::WriteReq
                } else {
                    MemCmd::ReadReq
                };
                let mut pkt = Packet::request(
                    ctx.alloc_pkt_id(),
                    cmd,
                    seg_addr + active.seg_offset,
                    size,
                    ctx.now(),
                );
                pkt.virt = active.desc.virt;
                pkt.stream = stream;
                pkt.route.push(ctx.self_id());
                ctx.send(active.desc.target, 0, Msg::packet(pkt));
                active.seg_offset += u64::from(size);
                if active.seg_offset >= seg_bytes {
                    active.seg_idx += 1;
                    active.seg_offset = 0;
                }
                active.inflight += 1;
                issued += 1;
                issued_bytes += u64::from(size);
                if active.desc.write {
                    self.bytes_written += u64::from(size);
                } else {
                    self.bytes_read += u64::from(size);
                }
            }
        }
        self.requests += issued;
        let _ = issued_bytes;
    }

    fn on_response(&mut self, pkt: &Packet, ctx: &mut Ctx) {
        let Some(ch) = self.channel_of(pkt.stream) else {
            return;
        };
        let finished = {
            let Some(active) = self.channels[ch].active.as_mut() else {
                return;
            };
            active.inflight -= 1;
            active.done_bytes += u64::from(pkt.size);
            active.done_bytes >= active.total_bytes
        };
        if finished {
            let active = self.channels[ch].active.take().expect("checked above");
            self.busy_ns_sum += units::to_ns(ctx.now() - active.started);
            ctx.send(
                active.desc.notify,
                0,
                Msg::custom(DmaDone {
                    channel: ch as u32,
                    cookie: active.desc.cookie,
                    bytes: active.total_bytes,
                }),
            );
            self.start_next(ch, ctx);
        } else {
            self.pump(ch, ctx);
        }
    }
}

impl Module for DmaEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
        match msg {
            Msg::Packet(pkt) => {
                debug_assert!(pkt.cmd.is_response(), "DMA engine got a request");
                self.on_response(&pkt, ctx);
            }
            Msg::Timer(ch) => self.pump(ch as usize, ctx),
            other => {
                let sg = match other.into_custom::<DmaDescriptor>() {
                    Ok(desc) => {
                        assert!(desc.bytes > 0, "empty DMA descriptor");
                        DmaSgDescriptor::from(desc)
                    }
                    Err(other) => match other.into_custom::<DmaSgDescriptor>() {
                        Ok(sg) => sg,
                        Err(_) => return,
                    },
                };
                let ch = sg.channel as usize;
                assert!(ch < self.channels.len(), "descriptor for unknown channel");
                assert!(
                    !sg.segments.is_empty() && sg.segments.iter().all(|&(_, b)| b > 0),
                    "empty scatter-gather descriptor"
                );
                self.channels[ch].queue.push_back(sg);
                self.start_next(ch, ctx);
            }
        }
    }

    fn report(&self, out: &mut Stats) {
        out.add("descriptors", self.descriptors as f64);
        out.add("requests", self.requests as f64);
        out.add("bytes_read", self.bytes_read as f64);
        out.add("bytes_written", self.bytes_written as f64);
        out.add("busy_ns_sum", self.busy_ns_sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accesys_mem::{SimpleMemory, SimpleMemoryConfig};
    use accesys_sim::Kernel;

    /// Collects DmaDone notifications.
    struct Waiter {
        done: Vec<(Tick, DmaDone)>,
    }
    impl Module for Waiter {
        fn name(&self) -> &str {
            "waiter"
        }
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
            if let Ok(d) = msg.into_custom::<DmaDone>() {
                self.done.push((ctx.now(), d));
            }
        }
    }

    fn setup(cfg: DmaEngineConfig) -> (Kernel, ModuleId, ModuleId, ModuleId) {
        let mut k = Kernel::new();
        let mem = k.add_module(Box::new(SimpleMemory::new(
            "mem",
            SimpleMemoryConfig {
                latency_ns: 50.0,
                bandwidth_gbps: 8.0,
            },
        )));
        let dma = k.add_module(Box::new(DmaEngine::new("dma", cfg)));
        let waiter = k.add_module(Box::new(Waiter { done: vec![] }));
        (k, mem, dma, waiter)
    }

    fn desc(
        channel: u32,
        bytes: u64,
        write: bool,
        target: ModuleId,
        notify: ModuleId,
        cookie: u64,
    ) -> DmaDescriptor {
        DmaDescriptor {
            channel,
            addr: 0x10_0000,
            bytes,
            write,
            virt: false,
            target,
            notify,
            cookie,
        }
    }

    #[test]
    fn transfer_splits_into_request_sized_packets() {
        let cfg = DmaEngineConfig {
            channels: 1,
            request_bytes: 256,
            max_inflight: 8,
            desc_latency_ns: 0.0,
        };
        let (mut k, mem, dma, waiter) = setup(cfg);
        k.schedule(0, dma, Msg::custom(desc(0, 4096, false, mem, waiter, 1)));
        k.run_until_idle().unwrap();
        let stats = k.stats();
        assert_eq!(stats.get_or_zero("dma.requests"), 16.0);
        assert_eq!(stats.get_or_zero("mem.reads"), 16.0);
        assert_eq!(stats.get_or_zero("dma.bytes_read"), 4096.0);
        let done = &k.module::<Waiter>(waiter).unwrap().done;
        assert_eq!(done.len(), 1);
        assert_eq!(
            done[0].1,
            DmaDone {
                channel: 0,
                cookie: 1,
                bytes: 4096
            }
        );
        // 4 KiB at 8 GB/s = 512 ns of serialization minimum.
        assert!(done[0].0 >= units::ns(512.0));
    }

    #[test]
    fn inflight_window_limits_parallelism() {
        let narrow = DmaEngineConfig {
            channels: 1,
            request_bytes: 64,
            max_inflight: 1,
            desc_latency_ns: 0.0,
        };
        let wide = DmaEngineConfig {
            max_inflight: 16,
            ..narrow
        };
        let (mut k1, mem1, dma1, w1) = setup(narrow);
        k1.schedule(0, dma1, Msg::custom(desc(0, 1024, false, mem1, w1, 0)));
        k1.run_until_idle().unwrap();
        let (mut k2, mem2, dma2, w2) = setup(wide);
        k2.schedule(0, dma2, Msg::custom(desc(0, 1024, false, mem2, w2, 0)));
        k2.run_until_idle().unwrap();
        let t1 = k1.module::<Waiter>(w1).unwrap().done[0].0;
        let t2 = k2.module::<Waiter>(w2).unwrap().done[0].0;
        // Stop-and-wait pays the 50 ns latency per request; the windowed
        // version pipelines it away.
        assert!(t1 > 2 * t2, "narrow {t1} vs wide {t2}");
    }

    #[test]
    fn channels_run_concurrently() {
        let cfg = DmaEngineConfig {
            channels: 2,
            request_bytes: 256,
            max_inflight: 8,
            desc_latency_ns: 0.0,
        };
        let (mut k, mem, dma, waiter) = setup(cfg);
        k.schedule(
            0,
            dma,
            Msg::custom(desc(0, 64 << 10, false, mem, waiter, 0)),
        );
        k.schedule(
            0,
            dma,
            Msg::custom(desc(1, 64 << 10, false, mem, waiter, 1)),
        );
        k.run_until_idle().unwrap();
        let done = &k.module::<Waiter>(waiter).unwrap().done;
        assert_eq!(done.len(), 2);
        // Both share one memory pipe: combined time ≈ sum of bytes, but
        // both must have been in flight together (second finishes well
        // before 2x the first's solo time + gap).
        let spread = done[1].0.saturating_sub(done[0].0);
        assert!(spread < done[0].0 / 4, "channels look serialized: {done:?}");
    }

    #[test]
    fn descriptors_on_one_channel_run_in_order() {
        let cfg = DmaEngineConfig {
            channels: 1,
            request_bytes: 256,
            max_inflight: 8,
            desc_latency_ns: 10.0,
        };
        let (mut k, mem, dma, waiter) = setup(cfg);
        for cookie in 0..3 {
            k.schedule(
                0,
                dma,
                Msg::custom(desc(0, 4096, cookie % 2 == 1, mem, waiter, cookie)),
            );
        }
        k.run_until_idle().unwrap();
        let done = &k.module::<Waiter>(waiter).unwrap().done;
        let cookies: Vec<u64> = done.iter().map(|(_, d)| d.cookie).collect();
        assert_eq!(cookies, vec![0, 1, 2]);
        let stats = k.stats();
        assert_eq!(stats.get_or_zero("mem.writes"), 16.0);
        assert_eq!(stats.get_or_zero("dma.bytes_written"), 4096.0);
    }

    #[test]
    fn scatter_gather_moves_every_extent_with_one_completion() {
        let cfg = DmaEngineConfig {
            channels: 1,
            request_bytes: 256,
            max_inflight: 8,
            desc_latency_ns: 0.0,
        };
        let (mut k, mem, dma, waiter) = setup(cfg);
        let sg = DmaSgDescriptor {
            channel: 0,
            segments: vec![(0x1000, 512), (0x9000, 64), (0x20000, 1024)],
            write: false,
            virt: false,
            target: mem,
            notify: waiter,
            cookie: 5,
        };
        k.schedule(0, dma, Msg::custom(sg));
        k.run_until_idle().unwrap();
        let done = &k.module::<Waiter>(waiter).unwrap().done;
        assert_eq!(done.len(), 1);
        assert_eq!(
            done[0].1,
            DmaDone {
                channel: 0,
                cookie: 5,
                bytes: 512 + 64 + 1024
            }
        );
        let stats = k.stats();
        // 512/256 + ceil(64/256) + 1024/256 = 2 + 1 + 4 requests.
        assert_eq!(stats.get_or_zero("dma.requests"), 7.0);
        assert_eq!(stats.get_or_zero("dma.bytes_read"), 1600.0);
    }

    #[test]
    fn sg_requests_never_cross_extent_boundaries() {
        // One extent smaller than request_bytes forces a short packet;
        // total request count proves no packet straddled extents.
        let cfg = DmaEngineConfig {
            channels: 1,
            request_bytes: 1024,
            max_inflight: 8,
            desc_latency_ns: 0.0,
        };
        let (mut k, mem, dma, waiter) = setup(cfg);
        let sg = DmaSgDescriptor {
            channel: 0,
            segments: vec![(0x0, 100), (0x5000, 100), (0xA000, 100)],
            write: true,
            virt: false,
            target: mem,
            notify: waiter,
            cookie: 0,
        };
        k.schedule(0, dma, Msg::custom(sg));
        k.run_until_idle().unwrap();
        let stats = k.stats();
        assert_eq!(stats.get_or_zero("dma.requests"), 3.0);
        assert_eq!(stats.get_or_zero("dma.bytes_written"), 300.0);
    }

    #[test]
    fn plain_descriptor_is_a_single_extent_sg() {
        let d = desc(0, 4096, false, ModuleId::INVALID, ModuleId::INVALID, 3);
        let sg = DmaSgDescriptor::from(d);
        assert_eq!(sg.segments, vec![(0x10_0000, 4096)]);
        assert_eq!(sg.total_bytes(), 4096);
        assert_eq!(sg.cookie, 3);
    }

    #[test]
    #[should_panic(expected = "empty scatter-gather")]
    fn empty_sg_descriptor_panics() {
        let cfg = DmaEngineConfig {
            channels: 1,
            request_bytes: 256,
            max_inflight: 8,
            desc_latency_ns: 0.0,
        };
        let (mut k, mem, dma, waiter) = setup(cfg);
        let sg = DmaSgDescriptor {
            channel: 0,
            segments: vec![],
            write: false,
            virt: false,
            target: mem,
            notify: waiter,
            cookie: 0,
        };
        k.schedule(0, dma, Msg::custom(sg));
        k.run_until_idle().unwrap();
    }

    #[test]
    fn writes_complete_only_after_acks() {
        let cfg = DmaEngineConfig {
            channels: 1,
            request_bytes: 512,
            max_inflight: 4,
            desc_latency_ns: 0.0,
        };
        let (mut k, mem, dma, waiter) = setup(cfg);
        k.schedule(0, dma, Msg::custom(desc(0, 2048, true, mem, waiter, 9)));
        k.run_until_idle().unwrap();
        let done = &k.module::<Waiter>(waiter).unwrap().done;
        // 2048 B at 8 GB/s = 256 ns + 50 ns latency minimum.
        assert!(done[0].0 >= units::ns(306.0));
    }
}
