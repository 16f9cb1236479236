//! SMMU: µTLB + page-table walker.

use accesys_sim::FxHashMap;
use accesys_sim::{
    streams, units, Ctx, MemCmd, Module, ModuleId, Msg, Packet, PacketBox, Stats, Tick,
};
use std::collections::VecDeque;

/// Configuration of an [`Smmu`].
#[derive(Copy, Clone, Debug, serde::Serialize)]
pub struct SmmuConfig {
    /// µTLB capacity in entries (fully associative, LRU).
    pub tlb_entries: u32,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// µTLB lookup / pass-through latency in nanoseconds.
    pub tlb_latency_ns: f64,
    /// Page-table levels walked on a µTLB miss.
    pub walk_levels: u32,
    /// Walk-cache capacity (caches the penultimate level, skipping all but
    /// the final read on a hit). 0 disables it.
    pub walk_cache_entries: u32,
    /// Maximum concurrent page-table walks.
    pub max_walks: u32,
    /// Base physical address of the page tables in host memory.
    pub pt_base: u64,
    /// Base of the virtual address space presented to the accelerator.
    pub va_base: u64,
    /// Physical base the virtual space maps to (linear mapping).
    pub pa_base: u64,
}

impl Default for SmmuConfig {
    fn default() -> Self {
        SmmuConfig {
            tlb_entries: 32,
            page_bytes: 4096,
            tlb_latency_ns: 1.0,
            walk_levels: 3,
            walk_cache_entries: 16,
            max_walks: 4,
            pt_base: 0xE000_0000,
            va_base: 0x4_0000_0000,
            pa_base: 0x1000_0000,
        }
    }
}

/// Aggregated SMMU statistics (the rows of the paper's Table IV).
#[derive(Copy, Clone, Debug, Default, PartialEq, serde::Serialize)]
pub struct SmmuStats {
    /// Number of completed translations.
    pub translations: u64,
    /// Sum of per-translation latency in nanoseconds.
    pub trans_time_sum_ns: f64,
    /// Number of page-table walks performed.
    pub ptw_count: u64,
    /// Sum of per-walk latency in nanoseconds.
    pub ptw_time_sum_ns: f64,
    /// µTLB lookups.
    pub utlb_lookups: u64,
    /// µTLB misses.
    pub utlb_misses: u64,
}

impl SmmuStats {
    /// Mean translation latency in nanoseconds (0 when idle).
    pub fn trans_mean_ns(&self) -> f64 {
        if self.translations == 0 {
            0.0
        } else {
            self.trans_time_sum_ns / self.translations as f64
        }
    }

    /// Mean page-table-walk latency in nanoseconds (0 when idle).
    pub fn ptw_mean_ns(&self) -> f64 {
        if self.ptw_count == 0 {
            0.0
        } else {
            self.ptw_time_sum_ns / self.ptw_count as f64
        }
    }

    /// µTLB miss rate (0 when idle).
    pub fn miss_rate(&self) -> f64 {
        if self.utlb_lookups == 0 {
            0.0
        } else {
            self.utlb_misses as f64 / self.utlb_lookups as f64
        }
    }
}

struct Walk {
    vpn: u64,
    level: u32,
    started: Tick,
    waiting: Vec<(PacketBox, Tick)>,
}

/// The System MMU.
///
/// Sits between the root complex and the MemBus. Requests with
/// [`Packet::virt`] set are translated (µTLB, then a walk of
/// `walk_levels` sequential 64-byte reads into the page tables in host
/// memory); other packets pass through with the lookup latency.
/// Responses pass through untouched via the route stack.
pub struct Smmu {
    name: String,
    cfg: SmmuConfig,
    /// `cfg.tlb_latency_ns` in ticks, converted once at construction.
    tlb_latency: Tick,
    downstream: ModuleId,
    /// vpn -> lru tick.
    tlb: FxHashMap<u64, u64>,
    lru_clock: u64,
    /// key: vpn of the penultimate-level table page group.
    walk_cache: FxHashMap<u64, u64>,
    walks: FxHashMap<u32, Walk>,
    walk_queue: VecDeque<(PacketBox, Tick)>,
    /// vpn -> walk tag, to coalesce concurrent misses on one page.
    walking_vpns: FxHashMap<u64, u32>,
    next_walk_tag: u32,
    stats: SmmuStats,
}

impl Smmu {
    /// Create an SMMU forwarding translated traffic to `downstream`.
    pub fn new(name: &str, cfg: SmmuConfig, downstream: ModuleId) -> Self {
        assert!(cfg.page_bytes.is_power_of_two());
        assert!(cfg.walk_levels >= 1 && cfg.max_walks >= 1);
        Smmu {
            name: name.to_string(),
            cfg,
            tlb_latency: units::ns(cfg.tlb_latency_ns),
            downstream,
            tlb: FxHashMap::default(),
            lru_clock: 0,
            walk_cache: FxHashMap::default(),
            walks: FxHashMap::default(),
            walk_queue: VecDeque::new(),
            walking_vpns: FxHashMap::default(),
            next_walk_tag: 0,
            stats: SmmuStats::default(),
        }
    }

    /// The configuration this SMMU was built with.
    pub fn config(&self) -> SmmuConfig {
        self.cfg
    }

    /// Snapshot of Table IV statistics.
    pub fn smmu_stats(&self) -> SmmuStats {
        self.stats
    }

    /// The linear VA→PA mapping the page tables encode.
    pub fn translate(&self, va: u64) -> u64 {
        debug_assert!(va >= self.cfg.va_base, "VA below the translated window");
        self.cfg.pa_base + (va - self.cfg.va_base)
    }

    fn vpn_of(&self, va: u64) -> u64 {
        (va - self.cfg.va_base) / self.cfg.page_bytes
    }

    fn tlb_hit(&mut self, vpn: u64) -> bool {
        if self.tlb.contains_key(&vpn) {
            self.lru_clock += 1;
            self.tlb.insert(vpn, self.lru_clock);
            true
        } else {
            false
        }
    }

    fn tlb_install(&mut self, vpn: u64) {
        if self.tlb.len() >= self.cfg.tlb_entries as usize && !self.tlb.contains_key(&vpn) {
            // Tie-break equal LRU stamps by key: map iteration order must
            // never pick the victim (see walk_cache_install).
            if let Some((&victim, _)) = self.tlb.iter().min_by_key(|&(&vpn, &lru)| (lru, vpn)) {
                self.tlb.remove(&victim);
            }
        }
        self.lru_clock += 1;
        self.tlb.insert(vpn, self.lru_clock);
    }

    fn walk_cache_key(&self, vpn: u64) -> u64 {
        // The penultimate level covers 512 pages (9 index bits).
        vpn >> 9
    }

    fn walk_cache_hit(&mut self, vpn: u64) -> bool {
        if self.cfg.walk_cache_entries == 0 {
            return false;
        }
        let key = self.walk_cache_key(vpn);
        if self.walk_cache.contains_key(&key) {
            self.lru_clock += 1;
            self.walk_cache.insert(key, self.lru_clock);
            true
        } else {
            false
        }
    }

    fn walk_cache_install(&mut self, vpn: u64) {
        if self.cfg.walk_cache_entries == 0 {
            return;
        }
        let key = self.walk_cache_key(vpn);
        if self.walk_cache.len() >= self.cfg.walk_cache_entries as usize
            && !self.walk_cache.contains_key(&key)
        {
            // Tie-break equal LRU stamps by key: HashMap iteration order
            // is process-random and must not pick the victim.
            if let Some((&victim, _)) = self
                .walk_cache
                .iter()
                .min_by_key(|&(&key, &lru)| (lru, key))
            {
                self.walk_cache.remove(&victim);
            }
        }
        self.lru_clock += 1;
        self.walk_cache.insert(key, self.lru_clock);
    }

    /// Physical address of the page-table entry read at `level` for `vpn`.
    fn pte_addr(&self, vpn: u64, level: u32) -> u64 {
        let shift = 9 * (self.cfg.walk_levels - 1 - level);
        let index = (vpn >> shift) & 0x1FF;
        // Each level's tables live in their own region; entries are 8 B,
        // reads are line-aligned.
        let entry = self.cfg.pt_base + u64::from(level) * 0x40_0000 + index * 8 + (vpn >> 9) * 64;
        entry & !63
    }

    fn forward_translated(&mut self, mut pkt: PacketBox, ctx: &mut Ctx) {
        pkt.addr = self.translate(pkt.addr);
        pkt.virt = false;
        pkt.route.push(ctx.self_id());
        ctx.send(self.downstream, self.tlb_latency, Msg::Packet(pkt));
    }

    fn start_walk(&mut self, pkt: PacketBox, arrived: Tick, ctx: &mut Ctx) {
        let vpn = self.vpn_of(pkt.addr);
        if let Some(&tag) = self.walking_vpns.get(&vpn) {
            // Coalesce with the in-flight walk for this page.
            self.walks
                .get_mut(&tag)
                .expect("walking vpn without walk state")
                .waiting
                .push((pkt, arrived));
            return;
        }
        if self.walks.len() >= self.cfg.max_walks as usize {
            self.walk_queue.push_back((pkt, arrived));
            return;
        }
        let start_level = if self.walk_cache_hit(vpn) {
            self.cfg.walk_levels - 1
        } else {
            0
        };
        let tag = self.next_walk_tag;
        self.next_walk_tag = self.next_walk_tag.wrapping_add(1);
        self.walking_vpns.insert(vpn, tag);
        self.walks.insert(
            tag,
            Walk {
                vpn,
                level: start_level,
                started: ctx.now(),
                waiting: vec![(pkt, arrived)],
            },
        );
        self.issue_walk_step(tag, vpn, start_level, ctx);
    }

    fn issue_walk_step(&mut self, tag: u32, vpn: u64, level: u32, ctx: &mut Ctx) {
        let mut rd = Packet::request(
            ctx.alloc_pkt_id(),
            MemCmd::ReadReq,
            self.pte_addr(vpn, level),
            64,
            ctx.now(),
        );
        rd.stream = streams::PTW;
        rd.tag = tag;
        rd.route.push(ctx.self_id());
        ctx.send(self.downstream, 0, Msg::packet(rd));
    }

    fn finish_walk(&mut self, tag: u32, ctx: &mut Ctx) {
        let walk = self.walks.remove(&tag).expect("unknown walk finished");
        self.walking_vpns.remove(&walk.vpn);
        self.stats.ptw_count += 1;
        self.stats.ptw_time_sum_ns += units::to_ns(ctx.now() - walk.started);
        self.tlb_install(walk.vpn);
        self.walk_cache_install(walk.vpn);
        for (pkt, arrived) in walk.waiting {
            self.stats.translations += 1;
            self.stats.trans_time_sum_ns +=
                units::to_ns(ctx.now() - arrived) + self.cfg.tlb_latency_ns;
            self.forward_translated(pkt, ctx);
        }
        // Admit queued walk requests now that a slot freed up. Entries
        // that hit the TLB by now are forwarded immediately and do not
        // consume the slot, so keep draining until one starts a walk.
        while let Some((pkt, arrived)) = self.walk_queue.pop_front() {
            let vpn = self.vpn_of(pkt.addr);
            if self.tlb_hit(vpn) {
                self.stats.translations += 1;
                self.stats.trans_time_sum_ns +=
                    units::to_ns(ctx.now() - arrived) + self.cfg.tlb_latency_ns;
                self.forward_translated(pkt, ctx);
            } else {
                self.start_walk(pkt, arrived, ctx);
                break;
            }
        }
    }
}

impl Module for Smmu {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
        let mut pkt = match msg {
            Msg::Packet(p) => p,
            _ => return,
        };
        if pkt.cmd.is_request() {
            if !pkt.virt {
                // Untranslated traffic passes straight through.
                pkt.route.push(ctx.self_id());
                ctx.send(self.downstream, self.tlb_latency, Msg::Packet(pkt));
                return;
            }
            self.stats.utlb_lookups += 1;
            let vpn = self.vpn_of(pkt.addr);
            if self.tlb_hit(vpn) {
                self.stats.translations += 1;
                self.stats.trans_time_sum_ns += self.cfg.tlb_latency_ns;
                self.forward_translated(pkt, ctx);
            } else {
                self.stats.utlb_misses += 1;
                self.start_walk(pkt, ctx.now(), ctx);
            }
        } else if pkt.stream == streams::PTW && pkt.cmd == MemCmd::ReadResp {
            // A walk step returned.
            let tag = pkt.tag;
            let Some(walk) = self.walks.get_mut(&tag) else {
                return;
            };
            if walk.level + 1 >= self.cfg.walk_levels {
                self.finish_walk(tag, ctx);
            } else {
                walk.level += 1;
                let (vpn, level) = (walk.vpn, walk.level);
                self.issue_walk_step(tag, vpn, level, ctx);
            }
        } else {
            // Data response passing back toward the device.
            if let Some(next) = pkt.route.pop() {
                ctx.send(next, 0, Msg::Packet(pkt));
            }
        }
    }

    fn report(&self, out: &mut Stats) {
        out.add("translations", self.stats.translations as f64);
        out.add("trans_time_sum_ns", self.stats.trans_time_sum_ns);
        out.add("ptw_count", self.stats.ptw_count as f64);
        out.add("ptw_time_sum_ns", self.stats.ptw_time_sum_ns);
        out.add("utlb_lookups", self.stats.utlb_lookups as f64);
        out.add("utlb_misses", self.stats.utlb_misses as f64);
        out.add("trans_mean_ns", self.stats.trans_mean_ns());
        out.add("ptw_mean_ns", self.stats.ptw_mean_ns());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accesys_mem::{SimpleMemory, SimpleMemoryConfig};
    use accesys_sim::Kernel;

    const VA: u64 = 0x4_0000_0000;

    /// Issues virtual-address reads through the SMMU and records the
    /// translated physical addresses seen at memory.
    struct Issuer {
        smmu: ModuleId,
        vas: Vec<u64>,
        next: usize,
        serial: bool,
        done: Vec<(u64, Tick)>,
    }
    impl Issuer {
        fn issue(&mut self, ctx: &mut Ctx) {
            let va = self.vas[self.next];
            self.next += 1;
            let mut p = Packet::request(ctx.alloc_pkt_id(), MemCmd::ReadReq, va, 64, ctx.now());
            p.virt = true;
            p.stream = streams::DMA_BASE;
            p.route.push(ctx.self_id());
            ctx.send(self.smmu, 0, Msg::packet(p));
        }
    }
    impl Module for Issuer {
        fn name(&self) -> &str {
            "iss"
        }
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
            match msg {
                Msg::Timer(_) => {
                    if self.serial {
                        self.issue(ctx);
                    } else {
                        while self.next < self.vas.len() {
                            self.issue(ctx);
                        }
                    }
                }
                Msg::Packet(p) => {
                    self.done.push((p.addr, ctx.now()));
                    if self.serial && self.next < self.vas.len() {
                        self.issue(ctx);
                    }
                }
                _ => {}
            }
        }
    }

    fn build(cfg: SmmuConfig, vas: Vec<u64>, serial: bool) -> (Kernel, ModuleId, ModuleId) {
        let mut k = Kernel::new();
        let mem = k.add_module(Box::new(SimpleMemory::new(
            "mem",
            SimpleMemoryConfig {
                latency_ns: 60.0,
                bandwidth_gbps: 12.8,
            },
        )));
        let smmu = k.add_module(Box::new(Smmu::new("smmu", cfg, mem)));
        let iss = k.add_module(Box::new(Issuer {
            smmu,
            vas,
            next: 0,
            serial,
            done: vec![],
        }));
        k.schedule(0, iss, Msg::Timer(0));
        (k, smmu, iss)
    }

    #[test]
    fn miss_walks_then_hits() {
        let cfg = SmmuConfig::default();
        let (mut k, smmu, iss) = build(cfg, vec![VA + 0x100, VA + 0x140], true);
        k.run_until_idle().unwrap();
        let s = k.module::<Smmu>(smmu).unwrap().smmu_stats();
        assert_eq!(s.utlb_lookups, 2);
        assert_eq!(s.utlb_misses, 1);
        assert_eq!(s.ptw_count, 1);
        assert_eq!(s.translations, 2);
        // The walk is 3 memory reads: the first translation is much
        // slower than the second (TLB hit).
        let done = &k.module::<Issuer>(iss).unwrap().done;
        let t0 = done[0].1;
        let t1 = done[1].1 - done[0].1;
        assert!(t0 > 3 * units::ns(60.0), "walk too fast: {t0}");
        assert!(t1 < t0 / 2, "hit not faster: {t1} vs {t0}");
    }

    #[test]
    fn translation_is_linear_mapping() {
        let cfg = SmmuConfig::default();
        let (mut k, _smmu, iss) = build(cfg, vec![VA + 0x12345], true);
        k.run_until_idle().unwrap();
        let done = &k.module::<Issuer>(iss).unwrap().done;
        assert_eq!(done[0].0, cfg.pa_base + 0x12345);
    }

    #[test]
    fn concurrent_misses_on_one_page_share_a_walk() {
        let cfg = SmmuConfig::default();
        let (mut k, smmu, _) = build(cfg, vec![VA, VA + 64, VA + 128, VA + 192], false);
        k.run_until_idle().unwrap();
        let s = k.module::<Smmu>(smmu).unwrap().smmu_stats();
        assert_eq!(s.utlb_misses, 4);
        assert_eq!(s.ptw_count, 1, "misses on one page must coalesce");
        assert_eq!(s.translations, 4);
    }

    #[test]
    fn tlb_capacity_causes_thrash() {
        let cfg = SmmuConfig {
            tlb_entries: 4,
            walk_cache_entries: 0,
            ..SmmuConfig::default()
        };
        // Touch 16 pages twice; with 4 entries the second round misses too.
        let mut vas: Vec<u64> = (0..16u64).map(|p| VA + p * 4096).collect();
        vas.extend((0..16u64).map(|p| VA + p * 4096));
        let (mut k, smmu, _) = build(cfg, vas, true);
        k.run_until_idle().unwrap();
        let s = k.module::<Smmu>(smmu).unwrap().smmu_stats();
        assert_eq!(s.utlb_lookups, 32);
        assert_eq!(s.utlb_misses, 32, "LRU over 16 pages with 4 entries");
    }

    #[test]
    fn walk_cache_skips_upper_levels() {
        let with = SmmuConfig {
            tlb_entries: 1, // force a walk per page
            ..SmmuConfig::default()
        };
        let mut without = with;
        without.walk_cache_entries = 0;
        // Pages share the same penultimate-level group (within 512 pages).
        let vas: Vec<u64> = (0..8u64).map(|p| VA + p * 4096).collect();
        let (mut k1, s1, _) = build(with, vas.clone(), true);
        k1.run_until_idle().unwrap();
        let (mut k2, s2, _) = build(without, vas, true);
        k2.run_until_idle().unwrap();
        let with_stats = k1.module::<Smmu>(s1).unwrap().smmu_stats();
        let without_stats = k2.module::<Smmu>(s2).unwrap().smmu_stats();
        assert_eq!(with_stats.ptw_count, without_stats.ptw_count);
        assert!(
            with_stats.ptw_mean_ns() < 0.6 * without_stats.ptw_mean_ns(),
            "walk cache should cut walk latency: {} vs {}",
            with_stats.ptw_mean_ns(),
            without_stats.ptw_mean_ns()
        );
    }

    #[test]
    fn non_virtual_traffic_passes_through_untranslated() {
        let cfg = SmmuConfig::default();
        let mut k = Kernel::new();
        let mem = k.add_module(Box::new(SimpleMemory::new(
            "mem",
            SimpleMemoryConfig::default(),
        )));
        let smmu = k.add_module(Box::new(Smmu::new("smmu", cfg, mem)));
        let iss = k.add_module(Box::new(Issuer {
            smmu,
            vas: vec![],
            next: 0,
            serial: true,
            done: vec![],
        }));
        let mut p = Packet::request(7, MemCmd::ReadReq, 0x8000, 64, 0);
        p.route.push(iss);
        k.schedule(0, smmu, Msg::packet(p));
        k.run_until_idle().unwrap();
        let done = &k.module::<Issuer>(iss).unwrap().done;
        assert_eq!(done[0].0, 0x8000);
        let s = k.module::<Smmu>(smmu).unwrap().smmu_stats();
        assert_eq!(s.utlb_lookups, 0);
    }
}
