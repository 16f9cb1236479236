//! Set-associative write-back cache with MSHRs and optional coherence.

use accesys_sim::FxHashMap;
use accesys_sim::{units, Ctx, MemCmd, Module, ModuleId, Msg, Packet, PacketBox, Stats, Tick};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// Geometry and timing of a [`Cache`].
#[derive(Copy, Clone, Debug, serde::Serialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Line size in bytes (the coherence/fill granularity).
    pub line_bytes: u32,
    /// Latency of a hit, in nanoseconds.
    pub hit_latency_ns: f64,
    /// Tag-lookup latency added to the miss path, in nanoseconds.
    pub lookup_latency_ns: f64,
    /// Number of outstanding line fills (MSHRs).
    pub mshrs: u32,
}

impl CacheConfig {
    /// A small L1-like default: 64 KiB, 4-way, 1 ns hit.
    pub fn l1(size_bytes: u64) -> Self {
        CacheConfig {
            size_bytes,
            assoc: 4,
            line_bytes: 64,
            hit_latency_ns: 1.0,
            lookup_latency_ns: 0.5,
            mshrs: 8,
        }
    }

    /// An LLC-like default: 16-way, 8 ns hit.
    pub fn llc(size_bytes: u64) -> Self {
        CacheConfig {
            size_bytes,
            assoc: 16,
            line_bytes: 64,
            hit_latency_ns: 8.0,
            lookup_latency_ns: 2.0,
            mshrs: 32,
        }
    }

    fn num_sets(&self) -> u64 {
        let lines = self.size_bytes / u64::from(self.line_bytes);
        (lines / u64::from(self.assoc)).max(1)
    }
}

/// Which side of the coherence point a request came from.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum CoherenceSide {
    /// CPU cluster (cores and their private caches).
    Cpu,
    /// I/O side (accelerator traffic arriving through the IOCache/SMMU).
    Io,
}

/// Coherence-point configuration for an LLC instance.
#[derive(Copy, Clone, Debug)]
pub struct CoherentConfig {
    /// The CPU-side cache to probe when I/O traffic touches a line the
    /// CPU may hold.
    pub cpu_cache: ModuleId,
    /// Streams with id >= this value are considered I/O-side.
    pub io_stream_base: u16,
}

/// One way of a set: the tag with the valid/dirty flags packed into its
/// two high bits, plus the LRU stamp. A tag is a line address divided by
/// the line size and the set count, so with lines of 4+ bytes it never
/// reaches those bits ([`Cache::new`] checks).
#[derive(Copy, Clone, Debug)]
struct Line {
    word: u64,
    lru: u64,
}

// The tag array is a cache's largest allocation (32k ways in a 2 MiB
// LLC, one per fleet host); keep a way at two words.
const _: () = assert!(
    std::mem::size_of::<Line>() == 16,
    "cache Line grew past 16 bytes"
);

impl Line {
    const VALID: u64 = 1 << 63;
    const DIRTY: u64 = 1 << 62;
    const TAG: u64 = Line::DIRTY - 1;
    const EMPTY: Line = Line { word: 0, lru: 0 };

    fn tag(self) -> u64 {
        self.word & Line::TAG
    }

    fn valid(self) -> bool {
        self.word & Line::VALID != 0
    }

    fn dirty(self) -> bool {
        self.word & Line::DIRTY != 0
    }

    /// Valid and tagged `tag` (dirty or not).
    fn holds(self, tag: u64) -> bool {
        self.word & !Line::DIRTY == Line::VALID | tag
    }
}

#[derive(Copy, Clone, Debug)]
struct LineOp {
    /// Slot of the request this line belongs to in `Cache::parents`.
    parent: u32,
    line_addr: u64,
    write: bool,
    side: CoherenceSide,
}

struct Parent {
    pkt: PacketBox,
    remaining: u32,
    start: Tick,
}

/// A set-associative, write-back, write-allocate cache module.
///
/// Responds to `ReadReq`/`WriteReq` of any size (split into lines) and to
/// `SnoopInv` probes (invalidate + write back dirty data + ack). Misses
/// are forwarded as line fills to the configured downstream module.
pub struct Cache {
    name: String,
    cfg: CacheConfig,
    downstream: ModuleId,
    /// `cfg.hit_latency_ns` in ticks, converted once at construction.
    hit_ticks: Tick,
    /// `cfg.lookup_latency_ns` in ticks, converted once at construction.
    lookup_ticks: Tick,
    /// log2 of the line size: line address -> line number.
    line_shift: u32,
    /// log2 of the set count: line number -> (tag, set).
    set_bits: u32,
    /// The tag array, flat: way `w` of set `s` is `lines[s * assoc + w]`.
    lines: Vec<Line>,
    lru_clock: u64,
    /// `(line addr, ops waiting on its in-flight fill)`, at most
    /// `cfg.mshrs` (8-32) entries, found by a linear scan. Only lookups
    /// and the count matter, never the order.
    mshrs: Vec<(u64, Vec<LineOp>)>,
    /// Ops stalled because all MSHRs are busy.
    stalled: VecDeque<LineOp>,
    /// Requests with lines still in flight, as a slab indexed by
    /// `LineOp::parent`; freed slots go on `free_parents` for reuse.
    parents: Vec<Option<Parent>>,
    free_parents: Vec<u32>,
    /// Coherence directory (LLC role only).
    coherent: Option<CoherentConfig>,
    /// Lines the CPU side has touched since its last snoop: the only
    /// lines I/O traffic must probe the CPU cache for. A paged bitmap:
    /// line number `>> 6` -> one bit per line of that 64-line group; a
    /// group's key goes when its last bit clears.
    cpu_lines: FxHashMap<u64, u64>,
    probing: FxHashMap<u64, Vec<LineOp>>,
    /// Emptied waiter lists kept for reuse: every miss needs a fresh
    /// `Vec<LineOp>`, and recycling the retired ones keeps the steady
    /// state free of per-miss heap traffic (the root crate's
    /// `tests/alloc_diet.rs` counts every allocator hit).
    spare_waiters: Vec<Vec<LineOp>>,
    // stats
    hits: u64,
    misses: u64,
    evictions: u64,
    writebacks: u64,
    snoops_sent: u64,
    snoops_received: u64,
    bytes: u64,
    lat_sum_ns: f64,
    responses: u64,
}

impl Cache {
    /// Create a cache forwarding misses to `downstream`.
    ///
    /// # Panics
    ///
    /// Panics unless the line size and the set count are powers of two
    /// (set and tag come from a shift and a mask), or if tags would not
    /// fit the tag word.
    pub fn new(name: &str, cfg: CacheConfig, downstream: ModuleId) -> Self {
        assert!(cfg.assoc >= 1 && cfg.line_bytes.is_power_of_two());
        assert!(
            cfg.num_sets().is_power_of_two(),
            "{name}: {} sets is not a power of two ({} bytes / {}-way / {}-byte lines)",
            cfg.num_sets(),
            cfg.size_bytes,
            cfg.assoc,
            cfg.line_bytes
        );
        assert!(
            u64::MAX / u64::from(cfg.line_bytes) / cfg.num_sets() <= Line::TAG,
            "tags of {}-byte lines overflow the tag word",
            cfg.line_bytes
        );
        let ways = cfg.num_sets() as usize * cfg.assoc as usize;
        Cache {
            name: name.to_string(),
            cfg,
            downstream,
            hit_ticks: units::ns(cfg.hit_latency_ns),
            lookup_ticks: units::ns(cfg.lookup_latency_ns),
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_bits: cfg.num_sets().trailing_zeros(),
            lines: vec![Line::EMPTY; ways],
            lru_clock: 0,
            mshrs: Vec::new(),
            stalled: VecDeque::new(),
            parents: Vec::new(),
            free_parents: Vec::new(),
            coherent: None,
            cpu_lines: FxHashMap::default(),
            probing: FxHashMap::default(),
            spare_waiters: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
            writebacks: 0,
            snoops_sent: 0,
            snoops_received: 0,
            bytes: 0,
            lat_sum_ns: 0.0,
            responses: 0,
        }
    }

    /// Enable the coherence-point role (LLC only).
    pub fn with_coherence(mut self, cfg: CoherentConfig) -> Self {
        self.coherent = Some(cfg);
        self
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Observed hit rate (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr & !u64::from(self.cfg.line_bytes - 1)
    }

    fn set_index(&self, line_addr: u64) -> usize {
        ((line_addr >> self.line_shift) & ((1 << self.set_bits) - 1)) as usize
    }

    fn tag_of(&self, line_addr: u64) -> u64 {
        line_addr >> (self.line_shift + self.set_bits)
    }

    fn side_of(&self, stream: u16) -> CoherenceSide {
        match self.coherent {
            Some(c) if stream >= c.io_stream_base => CoherenceSide::Io,
            _ => CoherenceSide::Cpu,
        }
    }

    /// A waiter list seeded with `op`, reusing a retired list's storage
    /// when one is spare (the pool grows to the peak number of
    /// concurrent fills/probes, then steady state never allocates).
    fn waiter_list(&mut self, op: LineOp) -> Vec<LineOp> {
        let mut list = self.spare_waiters.pop().unwrap_or_default();
        list.push(op);
        list
    }

    /// Return a drained waiter list's storage to the spare pool.
    fn retire_waiters(&mut self, list: Vec<LineOp>) {
        debug_assert!(list.is_empty());
        self.spare_waiters.push(list);
    }

    /// The ways of set `set`.
    fn set_ways(&self, set: usize) -> std::ops::Range<usize> {
        let assoc = self.cfg.assoc as usize;
        set * assoc..(set + 1) * assoc
    }

    /// Index into `lines` of the way holding `line_addr`, if any.
    fn lookup(&self, line_addr: u64) -> Option<usize> {
        let ways = self.set_ways(self.set_index(line_addr));
        let tag = self.tag_of(line_addr);
        self.lines[ways.clone()]
            .iter()
            .position(|l| l.holds(tag))
            .map(|way| ways.start + way)
    }

    fn touch(&mut self, i: usize) {
        self.lru_clock += 1;
        self.lines[i].lru = self.lru_clock;
    }

    /// Park `parent` in a free slab slot and return the slot.
    fn add_parent(&mut self, parent: Parent) -> u32 {
        match self.free_parents.pop() {
            Some(slot) => {
                self.parents[slot as usize] = Some(parent);
                slot
            }
            None => {
                self.parents.push(Some(parent));
                (self.parents.len() - 1) as u32
            }
        }
    }

    /// One line of a parent request finished; respond upstream when all
    /// lines are done.
    fn complete_line(&mut self, slot: u32, at: Tick, ctx: &mut Ctx) {
        let entry = &mut self.parents[slot as usize];
        let parent = entry.as_mut().expect("line completion without parent");
        parent.remaining -= 1;
        if parent.remaining == 0 {
            let parent = entry.take().expect("checked above");
            self.free_parents.push(slot);
            let mut pkt = parent.pkt;
            self.lat_sum_ns += units::to_ns(at.saturating_sub(parent.start));
            self.responses += 1;
            pkt.make_response();
            if let Some(next) = pkt.route.pop() {
                ctx.send_at(next, at, Msg::Packet(pkt));
            }
        }
    }

    /// Install a fetched line, evicting as needed; returns the victim
    /// writeback packet if a dirty line was displaced.
    fn install(&mut self, line_addr: u64, dirty: bool, ctx: &mut Ctx) {
        let set = self.set_index(line_addr);
        let tag = self.tag_of(line_addr);
        // Prefer an invalid way, else the LRU way.
        let ways = self.set_ways(set);
        let i = ways.start + {
            let lines = &self.lines[ways];
            lines.iter().position(|l| !l.valid()).unwrap_or_else(|| {
                lines
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.lru)
                    .map(|(i, _)| i)
                    .expect("nonzero associativity")
            })
        };
        let victim = self.lines[i];
        if victim.valid() {
            self.evictions += 1;
            if victim.dirty() {
                self.writebacks += 1;
                let victim_addr = ((victim.tag() << self.set_bits) | set as u64) << self.line_shift;
                let wb = Packet::request(
                    ctx.alloc_pkt_id(),
                    MemCmd::WriteReq,
                    victim_addr,
                    self.cfg.line_bytes,
                    ctx.now(),
                );
                // Fire-and-forget: empty route, the responder drops the ack.
                ctx.send(self.downstream, 0, Msg::packet(wb));
            }
        }
        self.lines[i] = Line {
            word: Line::VALID | if dirty { Line::DIRTY } else { 0 } | tag,
            lru: 0,
        };
        self.touch(i);
    }

    /// Process a per-line op that is past coherence probing.
    fn access_line(&mut self, op: LineOp, ctx: &mut Ctx) {
        self.access_line_inner(op, ctx, true);
    }

    /// `count` is false when re-admitting a previously stalled op, whose
    /// hit/miss outcome was already recorded.
    fn access_line_inner(&mut self, op: LineOp, ctx: &mut Ctx, count: bool) {
        self.note_presence(op);
        if let Some(i) = self.lookup(op.line_addr) {
            if count {
                self.hits += 1;
            }
            if op.write {
                self.lines[i].word |= Line::DIRTY;
            }
            self.touch(i);
            let at = ctx.now() + self.hit_ticks;
            self.complete_line(op.parent, at, ctx);
            return;
        }
        if count {
            self.misses += 1;
        }
        if let Some((_, waiters)) = self.mshrs.iter_mut().find(|(a, _)| *a == op.line_addr) {
            waiters.push(op);
            return;
        }
        if self.mshrs.len() >= self.cfg.mshrs as usize {
            self.stalled.push_back(op);
            return;
        }
        let waiters = self.waiter_list(op);
        self.mshrs.push((op.line_addr, waiters));
        let mut fill = Packet::request(
            ctx.alloc_pkt_id(),
            MemCmd::ReadReq,
            op.line_addr,
            self.cfg.line_bytes,
            ctx.now(),
        );
        // The fill inherits the requester's stream: a downstream
        // coherence point classifies CPU-vs-I/O side from it, so it must
        // reflect the original traffic class (never the packet id, which
        // is an equality-only match key).
        fill.stream = self.parents[op.parent as usize]
            .as_ref()
            .expect("miss for unknown parent")
            .pkt
            .stream;
        fill.route.push(ctx.self_id());
        ctx.send(self.downstream, self.lookup_ticks, Msg::packet(fill));
    }

    /// `line_addr`'s `(group key, bit)` in the `cpu_lines` bitmap.
    fn presence_bit(&self, line_addr: u64) -> (u64, u64) {
        let line = line_addr >> self.line_shift;
        (line >> 6, 1 << (line & 63))
    }

    /// Track the lines the CPU side may hold (coherence-point role only).
    fn note_presence(&mut self, op: LineOp) {
        if self.coherent.is_some() && op.side == CoherenceSide::Cpu {
            let (key, bit) = self.presence_bit(op.line_addr);
            *self.cpu_lines.entry(key).or_insert(0) |= bit;
        }
    }

    /// Whether the CPU side may hold `line_addr`.
    fn cpu_may_hold(&self, line_addr: u64) -> bool {
        let (key, bit) = self.presence_bit(line_addr);
        self.cpu_lines.get(&key).is_some_and(|mask| mask & bit != 0)
    }

    /// Route a per-line op through coherence probing if the CPU side may
    /// hold a line I/O traffic touches.
    fn start_line(&mut self, op: LineOp, ctx: &mut Ctx) {
        if let Some(coh) = self.coherent {
            if op.side == CoherenceSide::Io && self.cpu_may_hold(op.line_addr) {
                // Probe the CPU-side cache before serving I/O traffic.
                if let Some(waiters) = self.probing.get_mut(&op.line_addr) {
                    waiters.push(op);
                    return;
                }
                let waiters = self.waiter_list(op);
                self.probing.insert(op.line_addr, waiters);
                self.snoops_sent += 1;
                let mut probe = Packet::request(
                    ctx.alloc_pkt_id(),
                    MemCmd::SnoopInv,
                    op.line_addr,
                    self.cfg.line_bytes,
                    ctx.now(),
                );
                probe.route.push(ctx.self_id());
                ctx.send(coh.cpu_cache, 0, Msg::packet(probe));
                return;
            }
        }
        self.access_line(op, ctx);
    }

    fn handle_request(&mut self, pkt: PacketBox, ctx: &mut Ctx) {
        let side = self.side_of(pkt.stream);
        let write = pkt.cmd == MemCmd::WriteReq;
        self.bytes += u64::from(pkt.size);
        let first = self.line_of(pkt.addr);
        let last = self.line_of(pkt.addr + u64::from(pkt.size) - 1);
        let lines = (((last - first) >> self.line_shift) + 1) as u32;
        let parent = self.add_parent(Parent {
            pkt,
            remaining: lines,
            start: ctx.now(),
        });
        for i in 0..lines {
            let op = LineOp {
                parent,
                line_addr: first + u64::from(i) * u64::from(self.cfg.line_bytes),
                write,
                side,
            };
            self.start_line(op, ctx);
        }
    }

    fn handle_fill(&mut self, pkt: &Packet, ctx: &mut Ctx) {
        let line_addr = pkt.addr;
        let i = self
            .mshrs
            .iter()
            .position(|(a, _)| *a == line_addr)
            .expect("fill without MSHR entry");
        let (_, mut waiters) = self.mshrs.swap_remove(i);
        let dirty = waiters.iter().any(|w| w.write);
        self.install(line_addr, dirty, ctx);
        let at = ctx.now() + self.hit_ticks;
        for w in waiters.drain(..) {
            self.note_presence(w);
            self.complete_line(w.parent, at, ctx);
        }
        self.retire_waiters(waiters);
        // An MSHR freed: admit one stalled op (already counted).
        if let Some(op) = self.stalled.pop_front() {
            self.access_line_inner(op, ctx, false);
        }
    }

    fn handle_snoop(&mut self, mut pkt: PacketBox, ctx: &mut Ctx) {
        self.snoops_received += 1;
        if let Some(i) = self.lookup(pkt.addr) {
            if self.lines[i].dirty() {
                self.writebacks += 1;
                let wb = Packet::request(
                    ctx.alloc_pkt_id(),
                    MemCmd::WriteReq,
                    pkt.addr,
                    self.cfg.line_bytes,
                    ctx.now(),
                );
                ctx.send(self.downstream, 0, Msg::packet(wb));
            }
            self.lines[i].word &= !Line::VALID;
        }
        pkt.make_response();
        if let Some(next) = pkt.route.pop() {
            ctx.send(next, self.lookup_ticks, Msg::Packet(pkt));
        }
    }

    fn handle_snoop_ack(&mut self, pkt: &Packet, ctx: &mut Ctx) {
        let line_addr = pkt.addr;
        let (key, bit) = self.presence_bit(line_addr);
        if let Entry::Occupied(mut group) = self.cpu_lines.entry(key) {
            *group.get_mut() &= !bit;
            if *group.get() == 0 {
                group.remove();
            }
        }
        if let Some(mut ops) = self.probing.remove(&line_addr) {
            for op in ops.drain(..) {
                self.access_line(op, ctx);
            }
            self.retire_waiters(ops);
        }
    }
}

impl Module for Cache {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
        if let Msg::Packet(pkt) = msg {
            match pkt.cmd {
                MemCmd::ReadReq | MemCmd::WriteReq => self.handle_request(pkt, ctx),
                MemCmd::ReadResp => self.handle_fill(&pkt, ctx),
                MemCmd::SnoopInv => self.handle_snoop(pkt, ctx),
                MemCmd::SnoopInvAck => self.handle_snoop_ack(&pkt, ctx),
                MemCmd::WriteResp => {} // writeback acks are dropped
            }
        }
    }

    fn report(&self, out: &mut Stats) {
        out.add("hits", self.hits as f64);
        out.add("misses", self.misses as f64);
        out.add("evictions", self.evictions as f64);
        out.add("writebacks", self.writebacks as f64);
        out.add("snoops_sent", self.snoops_sent as f64);
        out.add("snoops_received", self.snoops_received as f64);
        out.add("bytes", self.bytes as f64);
        if self.responses > 0 {
            out.add("avg_latency_ns", self.lat_sum_ns / self.responses as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accesys_mem::{SimpleMemory, SimpleMemoryConfig};
    use accesys_sim::Kernel;

    const MEM_CFG: SimpleMemoryConfig = SimpleMemoryConfig {
        latency_ns: 50.0,
        bandwidth_gbps: 16.0,
    };

    /// Scripted requester: issues (addr, size, write) tuples serially.
    struct Script {
        target: ModuleId,
        ops: Vec<(u64, u32, bool)>,
        next: usize,
        stream: u16,
        done: Vec<Tick>,
        name: &'static str,
    }

    impl Script {
        fn issue(&mut self, ctx: &mut Ctx) {
            let (addr, size, write) = self.ops[self.next];
            self.next += 1;
            let cmd = if write {
                MemCmd::WriteReq
            } else {
                MemCmd::ReadReq
            };
            let mut p = Packet::request(ctx.alloc_pkt_id(), cmd, addr, size, ctx.now());
            p.stream = self.stream;
            p.route.push(ctx.self_id());
            ctx.send(self.target, 0, Msg::packet(p));
        }
    }

    impl Module for Script {
        fn name(&self) -> &str {
            self.name
        }
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
            match msg {
                Msg::Timer(_) => self.issue(ctx),
                Msg::Packet(p) => {
                    assert!(p.cmd.is_response());
                    self.done.push(ctx.now());
                    if self.next < self.ops.len() {
                        self.issue(ctx);
                    }
                }
                _ => {}
            }
        }
    }

    fn run_script(cfg: CacheConfig, ops: Vec<(u64, u32, bool)>) -> (Vec<Tick>, Stats) {
        let mut k = Kernel::new();
        let mem = k.add_module(Box::new(SimpleMemory::new("mem", MEM_CFG)));
        let cache = k.add_module(Box::new(Cache::new("c", cfg, mem)));
        let s = k.add_module(Box::new(Script {
            target: cache,
            ops,
            next: 0,
            stream: 0,
            done: vec![],
            name: "script",
        }));
        k.schedule(0, s, Msg::Timer(0));
        k.run_until_idle().unwrap();
        (k.module::<Script>(s).unwrap().done.clone(), k.stats())
    }

    #[test]
    fn second_access_hits() {
        let (done, stats) = run_script(
            CacheConfig::l1(64 << 10),
            vec![(0x1000, 64, false), (0x1000, 64, false)],
        );
        assert_eq!(stats.get_or_zero("c.misses"), 1.0);
        assert_eq!(stats.get_or_zero("c.hits"), 1.0);
        // Hit completes in ~1 ns, miss took >50 ns.
        let miss_time = done[0];
        let hit_time = done[1] - done[0];
        assert!(miss_time > units::ns(50.0));
        assert!(hit_time <= units::ns(2.0));
    }

    #[test]
    fn writes_allocate_and_dirty_lines_write_back() {
        let mut cfg = CacheConfig::l1(1 << 10); // 16 lines, 4-way, 4 sets
        cfg.mshrs = 16;
        // Write one line, then stream enough conflicting lines through the
        // same set to evict it.
        let mut ops = vec![(0x0, 64, true)];
        let set_stride = 4 * 64; // num_sets * line
        for i in 1..=4 {
            ops.push((i * set_stride, 64, false));
        }
        let (_, stats) = run_script(cfg, ops);
        assert!(stats.get_or_zero("c.evictions") >= 1.0);
        assert_eq!(stats.get_or_zero("c.writebacks"), 1.0);
        // The writeback reached memory as a write.
        assert_eq!(stats.get_or_zero("mem.writes"), 1.0);
    }

    #[test]
    fn multi_line_request_fetches_every_line() {
        let (done, stats) = run_script(CacheConfig::l1(64 << 10), vec![(0x0, 1024, false)]);
        assert_eq!(done.len(), 1);
        assert_eq!(stats.get_or_zero("c.misses"), 16.0);
        assert_eq!(stats.get_or_zero("mem.reads"), 16.0);
    }

    #[test]
    fn mshr_coalesces_same_line() {
        // Two parallel reads of the same line: only one memory fill.
        struct Pair {
            target: ModuleId,
            got: u32,
        }
        impl Module for Pair {
            fn name(&self) -> &str {
                "pair"
            }
            fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
                match msg {
                    Msg::Timer(_) => {
                        for _ in 0..2 {
                            let mut p = Packet::request(
                                ctx.alloc_pkt_id(),
                                MemCmd::ReadReq,
                                0x40,
                                64,
                                ctx.now(),
                            );
                            p.route.push(ctx.self_id());
                            ctx.send(self.target, 0, Msg::packet(p));
                        }
                    }
                    Msg::Packet(_) => self.got += 1,
                    _ => {}
                }
            }
        }
        let mut k = Kernel::new();
        let mem = k.add_module(Box::new(SimpleMemory::new("mem", MEM_CFG)));
        let cache = k.add_module(Box::new(Cache::new("c", CacheConfig::l1(64 << 10), mem)));
        let p = k.add_module(Box::new(Pair {
            target: cache,
            got: 0,
        }));
        k.schedule(0, p, Msg::Timer(0));
        k.run_until_idle().unwrap();
        assert_eq!(k.module::<Pair>(p).unwrap().got, 2);
        assert_eq!(k.stats().get_or_zero("mem.reads"), 1.0);
    }

    #[test]
    fn snoop_invalidates_and_writes_back() {
        // CPU-side L1 holds a dirty line; a snoop must push it to memory
        // and invalidate.
        let mut k = Kernel::new();
        let mem = k.add_module(Box::new(SimpleMemory::new("mem", MEM_CFG)));
        let l1 = k.add_module(Box::new(Cache::new("l1", CacheConfig::l1(64 << 10), mem)));
        let s = k.add_module(Box::new(Script {
            target: l1,
            ops: vec![(0x200, 64, true)],
            next: 0,
            stream: 0,
            done: vec![],
            name: "script",
        }));
        k.schedule(0, s, Msg::Timer(0));
        k.run_until_idle().unwrap();

        // Deliver a snoop from a fake coherence point.
        struct Prober {
            got_ack: bool,
        }
        impl Module for Prober {
            fn name(&self) -> &str {
                "prober"
            }
            fn handle(&mut self, msg: Msg, _ctx: &mut Ctx) {
                if let Msg::Packet(p) = msg {
                    assert_eq!(p.cmd, MemCmd::SnoopInvAck);
                    self.got_ack = true;
                }
            }
        }
        let prober = k.add_module(Box::new(Prober { got_ack: false }));
        let mut probe = Packet::request(9999, MemCmd::SnoopInv, 0x200, 64, 0);
        probe.route.push(prober);
        k.schedule(k.now(), l1, Msg::packet(probe));
        k.run_until_idle().unwrap();
        assert!(k.module::<Prober>(prober).unwrap().got_ack);
        let stats = k.stats();
        assert_eq!(stats.get_or_zero("l1.writebacks"), 1.0);
        assert_eq!(stats.get_or_zero("mem.writes"), 1.0);
        // Re-reading the line now misses (it was invalidated).
        let s2 = k.add_module(Box::new(Script {
            target: l1,
            ops: vec![(0x200, 64, false)],
            next: 0,
            stream: 0,
            done: vec![],
            name: "script2",
        }));
        k.schedule(k.now(), s2, Msg::Timer(0));
        k.run_until_idle().unwrap();
        assert_eq!(k.stats().get_or_zero("l1.misses"), 2.0);
    }

    /// Memory, a CPU-side L1, and a coherent LLC whose streams >= 16 are
    /// I/O-side; returns `(l1, llc)`.
    fn coherent_llc(k: &mut Kernel) -> (ModuleId, ModuleId) {
        let mem = k.add_module(Box::new(SimpleMemory::new("mem", MEM_CFG)));
        let l1 = k.add_module(Box::new(Cache::new("l1", CacheConfig::l1(64 << 10), mem)));
        let llc = k.add_module(Box::new(
            Cache::new("llc", CacheConfig::llc(2 << 20), mem).with_coherence(CoherentConfig {
                cpu_cache: l1,
                io_stream_base: 16,
            }),
        ));
        (l1, llc)
    }

    /// Run `ops` serially from `stream` against `target` to idle.
    fn drive(
        k: &mut Kernel,
        name: &'static str,
        target: ModuleId,
        stream: u16,
        ops: Vec<(u64, u32, bool)>,
    ) -> ModuleId {
        let s = k.add_module(Box::new(Script {
            target,
            ops,
            next: 0,
            stream,
            done: vec![],
            name,
        }));
        k.schedule(k.now(), s, Msg::Timer(0));
        k.run_until_idle().unwrap();
        s
    }

    #[test]
    fn coherence_point_probes_cpu_side_for_io_traffic() {
        let mut k = Kernel::new();
        let (_, llc) = coherent_llc(&mut k);
        // CPU writes a line through the LLC (stream 0): it joins the CPU set.
        drive(&mut k, "cpu_script", llc, 0, vec![(0x4000, 64, true)]);
        // I/O reads the same line (stream 16): LLC must snoop the L1.
        let io = drive(&mut k, "io_script", llc, 16, vec![(0x4000, 64, false)]);
        let stats = k.stats();
        assert_eq!(stats.get_or_zero("llc.snoops_sent"), 1.0);
        assert_eq!(stats.get_or_zero("l1.snoops_received"), 1.0);
        assert_eq!(k.module::<Script>(io).unwrap().done.len(), 1);
    }

    #[test]
    fn io_only_lines_send_no_snoops() {
        let mut k = Kernel::new();
        let (_, llc) = coherent_llc(&mut k);
        let io = drive(
            &mut k,
            "io_script",
            llc,
            16,
            vec![
                (0x8000, 64, true),
                (0x8000, 64, false),
                (0x8000, 256, false),
            ],
        );
        let stats = k.stats();
        assert_eq!(stats.get_or_zero("llc.snoops_sent"), 0.0);
        assert_eq!(stats.get_or_zero("l1.snoops_received"), 0.0);
        assert_eq!(k.module::<Script>(io).unwrap().done.len(), 3);
    }

    #[test]
    fn a_cpu_line_is_snooped_once_then_belongs_to_io() {
        let mut k = Kernel::new();
        let (_, llc) = coherent_llc(&mut k);
        drive(&mut k, "cpu_script", llc, 0, vec![(0x4000, 64, true)]);
        // The first I/O read probes the L1; its ack drops the line from
        // the CPU set, so the second read goes straight to the LLC.
        let io = drive(
            &mut k,
            "io_script",
            llc,
            16,
            vec![(0x4000, 64, false), (0x4000, 64, false)],
        );
        let stats = k.stats();
        assert_eq!(stats.get_or_zero("llc.snoops_sent"), 1.0);
        assert_eq!(stats.get_or_zero("l1.snoops_received"), 1.0);
        assert_eq!(k.module::<Script>(io).unwrap().done.len(), 2);
    }

    #[test]
    fn a_snooped_dirty_line_refilled_writes_back_to_its_own_address() {
        /// Forwards every packet to memory, logging write addresses.
        struct Tap {
            mem: ModuleId,
            writes: Vec<u64>,
        }
        impl Module for Tap {
            fn name(&self) -> &str {
                "tap"
            }
            fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
                if let Msg::Packet(p) = msg {
                    if p.cmd == MemCmd::WriteReq {
                        self.writes.push(p.addr);
                    }
                    ctx.send(self.mem, 0, Msg::Packet(p));
                }
            }
        }
        let mut k = Kernel::new();
        let mem = k.add_module(Box::new(SimpleMemory::new("mem", MEM_CFG)));
        let tap = k.add_module(Box::new(Tap {
            mem,
            writes: vec![],
        }));
        // 1 KiB, 4-way: 4 sets, so lines 256 bytes apart share a set.
        let l1 = k.add_module(Box::new(Cache::new("l1", CacheConfig::l1(1 << 10), tap)));
        let a = 0x1040; // set 1, tag 16
        drive(&mut k, "dirty", l1, 0, vec![(a, 64, true)]);
        // Snoop it away (written back, invalidated; no ack route).
        let probe = Packet::request(9999, MemCmd::SnoopInv, a, 64, k.now());
        k.schedule(k.now(), l1, Msg::packet(probe));
        k.run_until_idle().unwrap();
        // Dirty it again in the freed way, then push it out with four
        // conflicting reads: the eviction must write back to `a`.
        let mut ops = vec![(a, 64, true)];
        ops.extend((1..=4).map(|i| (a + i * 256, 64, false)));
        drive(&mut k, "refill", l1, 0, ops);
        assert_eq!(k.module::<Tap>(tap).unwrap().writes, vec![a, a]);
        assert_eq!(k.stats().get_or_zero("l1.writebacks"), 2.0);
    }

    #[test]
    fn the_presence_bitmap_tracks_single_lines_across_groups() {
        let mut k = Kernel::new();
        let (_, llc) = coherent_llc(&mut k);
        // 0x4000 and 0x4040 share a 64-line group; 0x5000 is in the next.
        let cpu = vec![(0x4000, 64, true), (0x4040, 64, true), (0x5000, 64, true)];
        drive(&mut k, "cpu_script", llc, 0, cpu);
        let mut snoops = Vec::new();
        for (i, addr) in [0x4000, 0x4040, 0x4000, 0x5000].into_iter().enumerate() {
            let name = ["io0", "io1", "io2", "io3"][i];
            drive(&mut k, name, llc, 16, vec![(addr, 64, false)]);
            snoops.push(k.stats().get_or_zero("llc.snoops_sent"));
        }
        // A snoop ack clears its own line only, and a re-read of a
        // snooped line sends nothing.
        assert_eq!(snoops, vec![1.0, 2.0, 2.0, 3.0]);
        // Every group whose last bit cleared is gone from the directory.
        assert!(k.module::<Cache>(llc).unwrap().cpu_lines.is_empty());
    }

    /// Issues `first` all at once, then one of `then` per response;
    /// logs `(id, addr)` of every response.
    struct Burst {
        target: ModuleId,
        first: Vec<(u64, u32)>,
        then: VecDeque<(u64, u32)>,
        issued: Vec<(u64, u64)>,
        got: Vec<(u64, u64)>,
    }

    impl Burst {
        fn issue(&mut self, (addr, size): (u64, u32), ctx: &mut Ctx) {
            let id = ctx.alloc_pkt_id();
            let mut p = Packet::request(id, MemCmd::ReadReq, addr, size, ctx.now());
            p.route.push(ctx.self_id());
            self.issued.push((id, addr));
            ctx.send(self.target, 0, Msg::packet(p));
        }
    }

    impl Module for Burst {
        fn name(&self) -> &str {
            "burst"
        }
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
            match msg {
                Msg::Timer(_) => {
                    for req in std::mem::take(&mut self.first) {
                        self.issue(req, ctx);
                    }
                }
                Msg::Packet(p) => {
                    assert_eq!(p.cmd, MemCmd::ReadResp);
                    self.got.push((p.id, p.addr));
                    if let Some(req) = self.then.pop_front() {
                        self.issue(req, ctx);
                    }
                }
                _ => {}
            }
        }
    }

    /// Run a [`Burst`] against an L1 of `cfg` to idle, check that every
    /// request was answered exactly once, and return the request count
    /// and the stats.
    fn run_burst(
        cfg: CacheConfig,
        first: Vec<(u64, u32)>,
        then: Vec<(u64, u32)>,
    ) -> (usize, Stats) {
        let mut k = Kernel::new();
        let mem = k.add_module(Box::new(SimpleMemory::new("mem", MEM_CFG)));
        let cache = k.add_module(Box::new(Cache::new("c", cfg, mem)));
        let b = k.add_module(Box::new(Burst {
            target: cache,
            first,
            then: then.into(),
            issued: vec![],
            got: vec![],
        }));
        k.schedule(0, b, Msg::Timer(0));
        k.run_until_idle().unwrap();
        let burst = k.module::<Burst>(b).unwrap();
        let (mut issued, mut got) = (burst.issued.clone(), burst.got.clone());
        issued.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, issued, "every request answered exactly once");
        (issued.len(), k.stats())
    }

    #[test]
    fn misses_beyond_the_mshrs_stall_and_are_counted_once() {
        let cfg = CacheConfig::l1(64 << 10);
        assert_eq!(cfg.mshrs, 8);
        let reads: Vec<(u64, u32)> = (0..12).map(|i| (0x10_000 + i * 64, 64)).collect();
        let (requests, stats) = run_burst(cfg, reads, vec![]);
        assert_eq!(requests, 12);
        assert_eq!(stats.get_or_zero("mem.reads"), 12.0);
        assert_eq!(
            stats.get_or_zero("c.hits") + stats.get_or_zero("c.misses"),
            12.0
        );
    }

    #[test]
    fn interleaved_multi_line_requests_respond_to_every_parent_once() {
        // Multi-line requests overlap single-line ones (shared lines
        // coalesce in the MSHRs), and responses trigger new requests
        // while others are in flight, so freed slots get reused.
        let first = vec![
            (0x0, 256),
            (0x40, 64),
            (0x1000, 64),
            (0x2000, 512),
            (0x2100, 64),
        ];
        let then = vec![
            (0x3000, 64),
            (0x0, 1024),
            (0x80, 64),
            (0x4000, 192),
            (0x2000, 64),
        ];
        let (requests, stats) = run_burst(CacheConfig::l1(64 << 10), first, then);
        assert_eq!(requests, 10);
        let lines = 4 + 1 + 1 + 8 + 1 + 1 + 16 + 1 + 3 + 1;
        assert_eq!(
            stats.get_or_zero("c.hits") + stats.get_or_zero("c.misses"),
            lines as f64
        );
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Direct check on a tiny 2-way cache: touch A, B, re-touch A,
        // insert C -> B must be the victim, so re-reading A still hits.
        let cfg = CacheConfig {
            size_bytes: 2 * 64, // one set, two ways
            assoc: 2,
            line_bytes: 64,
            hit_latency_ns: 1.0,
            lookup_latency_ns: 0.5,
            mshrs: 4,
        };
        let a = 0x0;
        let b = 0x40;
        let c = 0x80;
        let (_, stats) = run_script(
            cfg,
            vec![
                (a, 64, false), // miss
                (b, 64, false), // miss
                (a, 64, false), // hit, refresh LRU
                (c, 64, false), // miss, evicts b
                (a, 64, false), // hit
                (b, 64, false), // miss
            ],
        );
        assert_eq!(stats.get_or_zero("c.hits"), 2.0);
        assert_eq!(stats.get_or_zero("c.misses"), 4.0);
    }

    #[test]
    #[should_panic(expected = "3 sets is not a power of two")]
    fn a_set_count_that_is_not_a_power_of_two_is_rejected() {
        let cfg = CacheConfig {
            size_bytes: 3 * 4 * 64, // three sets of four 64-byte ways
            ..CacheConfig::l1(1 << 10)
        };
        Cache::new("odd", cfg, ModuleId::INVALID);
    }
}
