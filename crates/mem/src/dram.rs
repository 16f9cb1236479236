//! Ramulator-class DRAM timing model: channels, banks, rows, FR-FCFS,
//! refresh, page policies, address mapping and an energy model.

use crate::{DramPower, EnergyBreakdown};
use accesys_sim::{units, Ctx, Histogram, MemCmd, Module, Msg, PacketBox, Stats, Tick};
use std::collections::VecDeque;

/// How physical addresses map onto channel / bank / row.
///
/// Real controllers expose exactly this knob (Ramulator's `mapping`
/// files, DRAMsim3's address scheme strings); the choice decides whether
/// a streaming accelerator sees channel parallelism, bank parallelism or
/// row locality first.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default, serde::Serialize)]
pub enum AddressMapping {
    /// Channel interleaved per 64 B line, bank switched per row
    /// (default): streams hit every channel and stay in one row per bank.
    #[default]
    LineChannelRowBank,
    /// Channel *and* bank interleaved per line: adjacent lines land in
    /// different banks, trading row locality for bank parallelism.
    LineChannelLineBank,
    /// Channel interleaved per row: a stream occupies one channel for a
    /// whole row before moving on (NUMA-friendly, parallelism-poor).
    RowChannelRowBank,
}

/// Row-buffer management policy.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default, serde::Serialize)]
pub enum PagePolicy {
    /// Keep the row open after an access (bets on locality; default).
    #[default]
    Open,
    /// Precharge immediately after each request completes (bets against
    /// locality; turns would-be conflicts into plain misses).
    Closed,
}

/// Core DRAM timing parameters, in command-clock cycles unless noted.
#[derive(Copy, Clone, Debug, serde::Serialize)]
pub struct DramTiming {
    /// Command clock period in picoseconds (data rate is 2× this clock).
    pub tck_ps: u64,
    /// CAS latency: column command → first data beat.
    pub cl: u32,
    /// RAS-to-CAS delay: activate → column command.
    pub trcd: u32,
    /// Row precharge time.
    pub trp: u32,
    /// Minimum activate-to-precharge interval.
    pub tras: u32,
    /// Column-to-column command spacing.
    pub tccd: u32,
    /// Burst length in beats (data beats per column command).
    pub burst_len: u32,
    /// Average refresh interval in nanoseconds (JEDEC tREFI; 0 disables
    /// refresh).
    pub trefi_ns: f64,
    /// Refresh cycle time in nanoseconds (tRFC): the channel is blocked
    /// this long per refresh.
    pub trfc_ns: f64,
}

impl DramTiming {
    /// Cycles the data bus is occupied by one burst (DDR: two beats/cycle).
    pub fn burst_cycles(&self) -> u32 {
        self.burst_len.div_ceil(2)
    }

    fn cycles(&self, n: u32) -> Tick {
        u64::from(n) * self.tck_ps
    }
}

/// Configuration of a [`Dram`] device + controller.
#[derive(Copy, Clone, Debug, serde::Serialize)]
pub struct DramConfig {
    /// Timing parameters.
    pub timing: DramTiming,
    /// Independent channels (interleaving per [`AddressMapping`]).
    pub channels: u32,
    /// Banks per channel.
    pub banks: u32,
    /// Per-channel data bus width in bits.
    pub data_width_bits: u32,
    /// Row (page) size in bytes per bank.
    pub row_bytes: u32,
    /// Physical-address decode scheme.
    pub mapping: AddressMapping,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
    /// Per-command energy model.
    pub power: DramPower,
}

impl DramConfig {
    /// Bytes moved by one column command on this channel.
    pub fn burst_bytes(&self) -> u32 {
        self.data_width_bits / 8 * self.timing.burst_len
    }

    /// Aggregate peak bandwidth in GB/s.
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        // Two beats per clock, width/8 bytes per beat, per channel.
        let per_channel =
            (self.data_width_bits as f64 / 8.0) * 2.0 / (self.timing.tck_ps as f64 / 1000.0);
        per_channel * self.channels as f64
    }
}

/// A [`DramTiming`] in ticks, converted once at construction with the
/// same expressions the per-burst path used to evaluate.
#[derive(Copy, Clone, Debug)]
struct TimingTicks {
    cl: Tick,
    rcd: Tick,
    rp: Tick,
    ras: Tick,
    ccd: Tick,
    /// Data-bus occupancy of one burst.
    burst: Tick,
    /// `(tREFI, tRFC)`; `None` when refresh is off (`trefi_ns <= 0`).
    refresh: Option<(Tick, Tick)>,
}

impl TimingTicks {
    fn new(t: &DramTiming) -> Self {
        TimingTicks {
            cl: t.cycles(t.cl),
            rcd: t.cycles(t.trcd),
            rp: t.cycles(t.trp),
            ras: t.cycles(t.tras),
            ccd: t.cycles(t.tccd),
            burst: t.cycles(t.burst_cycles()),
            refresh: (t.trefi_ns > 0.0).then(|| (units::ns(t.trefi_ns), units::ns(t.trfc_ns))),
        }
    }
}

#[derive(Copy, Clone, Debug)]
struct Bank {
    open_row: Option<u64>,
    /// Earliest tick the next column command may issue on this bank.
    col_ready: Tick,
    /// Earliest tick a precharge may issue (tRAS from last activate).
    pre_ready: Tick,
    /// Earliest tick an activate may issue (tRP after precharge).
    act_ready: Tick,
}

impl Bank {
    fn new() -> Self {
        Bank {
            open_row: None,
            col_ready: 0,
            pre_ready: 0,
            act_ready: 0,
        }
    }
}

#[derive(Debug)]
struct Pending {
    // Boxed by the Msg that delivered it; the same box is re-sent as the
    // response, so a DRAM transaction never reallocates its packet.
    pkt: PacketBox,
    /// `pkt.cmd`, kept beside the queue entry so a burst's energy
    /// accounting never reads the packet.
    cmd: MemCmd,
    arrived: Tick,
    bank: u32,
    row: u64,
    bursts_left: u32,
}

#[derive(Debug)]
struct Channel {
    queue: VecDeque<Pending>,
    banks: Vec<Bank>,
    bus_free: Tick,
    wake_armed: bool,
    /// Scheduled time of the next refresh (tick); `Tick::MAX` disables.
    next_ref: Tick,
    /// Queue index of the request the last burst served while it has
    /// bursts left and no refresh has closed its row since: the FR-FCFS
    /// pick of the next burst, without a rescan (see [`Dram::service`]).
    streaming: Option<usize>,
}

/// A DRAM device with per-bank row-buffer state and an FR-FCFS scheduler.
///
/// Each channel services one burst per column command; requests larger
/// than one burst occupy the data bus for multiple bursts. Row hits skip
/// the ACT/PRE sequence, so streaming access patterns reach near-peak
/// bandwidth while random patterns pay tRP+tRCD — the first-order
/// behaviour the paper gets from Ramulator2. Refresh blocks a channel
/// for tRFC every tREFI, and every command feeds the [`DramPower`]
/// energy model.
///
/// ```
/// use accesys_mem::{Dram, MemTech};
///
/// let dram = Dram::new("devmem", MemTech::Hbm2.dram_config());
/// assert_eq!(dram.config().channels, 2);
/// ```
#[derive(Debug)]
pub struct Dram {
    name: String,
    cfg: DramConfig,
    /// `cfg.timing` in ticks.
    ticks: TimingTicks,
    /// `cfg.burst_bytes()` and the energy of one such burst.
    burst_bytes: u32,
    burst_pj: f64,
    /// log2 of the channel count, the bank count and the 64-byte lines
    /// per row: the address decode is shifts and masks.
    channel_bits: u32,
    bank_bits: u32,
    row_line_bits: u32,
    channels: Vec<Channel>,
    reads: u64,
    writes: u64,
    bytes: u64,
    row_hits: u64,
    row_misses: u64,
    row_conflicts: u64,
    refreshes: u64,
    lat: Histogram,
    last_activity: Tick,
    energy: EnergyBreakdown,
}

impl Dram {
    /// Create a DRAM endpoint with the given instance `name`.
    ///
    /// # Panics
    ///
    /// Panics unless the channel and bank counts are powers of two and a
    /// row is a power-of-two number of 64-byte lines (the address decode
    /// is shifts and masks). Every [`crate::MemTech`] preset qualifies.
    pub fn new(name: &str, cfg: DramConfig) -> Self {
        assert!(
            cfg.channels.is_power_of_two() && cfg.banks.is_power_of_two(),
            "{name}: {} channels x {} banks is not a power-of-two geometry",
            cfg.channels,
            cfg.banks
        );
        assert!(
            cfg.row_bytes >= 64 && cfg.row_bytes.is_power_of_two(),
            "{name}: a {}-byte row is not a power-of-two number of 64-byte lines",
            cfg.row_bytes
        );
        let ticks = TimingTicks::new(&cfg.timing);
        let first_ref = ticks.refresh.map_or(Tick::MAX, |(trefi, _)| trefi);
        let channels = (0..cfg.channels)
            .map(|_| Channel {
                queue: VecDeque::new(),
                banks: vec![Bank::new(); cfg.banks as usize],
                bus_free: 0,
                wake_armed: false,
                next_ref: first_ref,
                streaming: None,
            })
            .collect();
        Dram {
            name: name.to_string(),
            cfg,
            ticks,
            burst_bytes: cfg.burst_bytes(),
            burst_pj: cfg.power.burst_pj(cfg.burst_bytes()),
            channel_bits: cfg.channels.trailing_zeros(),
            bank_bits: cfg.banks.trailing_zeros(),
            row_line_bits: (cfg.row_bytes / 64).trailing_zeros(),
            channels,
            reads: 0,
            writes: 0,
            bytes: 0,
            row_hits: 0,
            row_misses: 0,
            row_conflicts: 0,
            refreshes: 0,
            lat: Histogram::new(),
            last_activity: 0,
            energy: EnergyBreakdown::default(),
        }
    }

    /// The configuration this instance was built with.
    pub fn config(&self) -> DramConfig {
        self.cfg
    }

    /// Row-buffer hit rate observed so far (0 when idle).
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Energy consumed so far, including background power up to the last
    /// serviced command.
    pub fn energy(&self) -> EnergyBreakdown {
        let mut e = self.energy;
        e.background_pj = self
            .cfg
            .power
            .background_pj(units::to_ns(self.last_activity), self.cfg.channels);
        e
    }

    /// Decode `addr` into `(channel, bank, row)` per the configured
    /// [`AddressMapping`].
    pub fn decode(&self, addr: u64) -> (u32, u32, u64) {
        let line = addr >> 6;
        let (ch_bits, bank_bits, row_bits) =
            (self.channel_bits, self.bank_bits, self.row_line_bits);
        let channel_of = |x: u64| (x & ((1 << ch_bits) - 1)) as u32;
        let bank_of = |x: u64| (x & ((1 << bank_bits) - 1)) as u32;
        match self.cfg.mapping {
            AddressMapping::LineChannelRowBank => {
                let la = line >> ch_bits;
                (
                    channel_of(line),
                    bank_of(la >> row_bits),
                    la >> row_bits >> bank_bits,
                )
            }
            AddressMapping::LineChannelLineBank => {
                let la = line >> ch_bits;
                (channel_of(line), bank_of(la), la >> bank_bits >> row_bits)
            }
            AddressMapping::RowChannelRowBank => {
                let ra = line >> row_bits >> ch_bits;
                (channel_of(line >> row_bits), bank_of(ra), ra >> bank_bits)
            }
        }
    }

    /// Apply any refreshes scheduled at or before `now` on channel `ch`,
    /// treating each as having run at its scheduled time (so long-idle
    /// periods don't serialize a backlog of tRFCs in front of new work).
    fn catch_up_refresh(&mut self, ch: usize, now: Tick) {
        let Some((trefi, trfc)) = self.ticks.refresh else {
            return;
        };
        let chan = &mut self.channels[ch];
        while chan.next_ref <= now {
            let ref_at = chan.next_ref;
            let ref_end = ref_at + trfc;
            for bank in chan.banks.iter_mut() {
                // Refresh closes every row and blocks new activates.
                bank.open_row = None;
                bank.act_ready = bank.act_ready.max(ref_end);
                bank.col_ready = bank.col_ready.max(ref_end);
            }
            chan.next_ref = ref_at + trefi;
            chan.streaming = None;
            self.refreshes += 1;
            self.energy.refresh_pj += self.cfg.power.refresh_pj;
        }
    }

    /// Service at most one burst on `ch`; returns the next wake time if
    /// more work remains.
    fn service(&mut self, ch: usize, now: Tick, ctx: &mut Ctx) -> Option<Tick> {
        self.catch_up_refresh(ch, now);
        let t = self.ticks;
        let chan = &mut self.channels[ch];
        if chan.queue.is_empty() {
            return None;
        }

        // FR-FCFS: oldest row hit whose bank can take a column command,
        // otherwise the oldest request overall. The request the last
        // burst served is still that pick: every older entry was a miss
        // then, the only row opened since is its own (an older entry
        // for that row would have been the hit), arrivals queue behind
        // it, and a refresh clears `streaming`.
        let pick = chan.streaming.unwrap_or_else(|| {
            chan.queue
                .iter()
                .position(|p| chan.banks[p.bank as usize].open_row == Some(p.row))
                .unwrap_or(0)
        });

        let p = &chan.queue[pick];
        let bank = chan.banks[p.bank as usize];
        // Determine when the column command can issue and classify the access.
        let (col_at, kind) = match bank.open_row {
            Some(r) if r == p.row => (bank.col_ready.max(now), RowKind::Hit),
            Some(_) => {
                let pre_at = bank.pre_ready.max(now);
                let act_at = (pre_at + t.rp).max(bank.act_ready);
                (act_at + t.rcd, RowKind::Conflict)
            }
            None => {
                let act_at = bank.act_ready.max(now);
                (act_at + t.rcd, RowKind::Miss)
            }
        };
        // Data must also win the channel bus.
        let data_start = (col_at + t.cl).max(chan.bus_free);
        let col_at = data_start - t.cl;
        let data_end = data_start + t.burst;

        // Commit state updates.
        let pbank = &mut chan.banks[p.bank as usize];
        match kind {
            RowKind::Hit => {}
            RowKind::Miss => {
                let act_at = col_at - t.rcd;
                pbank.pre_ready = act_at + t.ras;
            }
            RowKind::Conflict => {
                let act_at = col_at - t.rcd;
                pbank.act_ready = act_at;
                pbank.pre_ready = act_at + t.ras;
            }
        }
        pbank.open_row = Some(p.row);
        pbank.col_ready = col_at + t.ccd;
        chan.bus_free = data_end;
        match kind {
            RowKind::Hit => self.row_hits += 1,
            RowKind::Miss => {
                self.row_misses += 1;
                self.energy.act_pj += self.cfg.power.act_pre_pj;
            }
            RowKind::Conflict => {
                self.row_conflicts += 1;
                self.energy.act_pj += self.cfg.power.act_pre_pj;
            }
        }
        let burst_pj = self.burst_pj;
        let chan = &mut self.channels[ch];
        let p = &mut chan.queue[pick];
        match p.cmd {
            MemCmd::ReadReq => self.energy.read_pj += burst_pj,
            MemCmd::WriteReq => self.energy.write_pj += burst_pj,
            _ => {}
        }
        self.last_activity = self.last_activity.max(data_end);

        p.bursts_left -= 1;
        let finished = p.bursts_left == 0;
        chan.streaming = (!finished).then_some(pick);
        if finished {
            let mut done = chan.queue.remove(pick).expect("picked entry exists");
            if self.cfg.page_policy == PagePolicy::Closed {
                // Precharge as soon as tRAS allows once the data is out.
                let bank = &mut chan.banks[done.bank as usize];
                let pre_at = bank.pre_ready.max(data_end);
                bank.open_row = None;
                bank.act_ready = bank.act_ready.max(pre_at + t.rp);
            }
            self.bytes += u64::from(done.pkt.size);
            match done.cmd {
                MemCmd::ReadReq => self.reads += 1,
                MemCmd::WriteReq => self.writes += 1,
                _ => {}
            }
            self.lat
                .observe(units::to_ns(data_end.saturating_sub(done.arrived)));
            done.pkt.make_response();
            if let Some(next) = done.pkt.route.pop() {
                ctx.send_at(next, data_end, Msg::Packet(done.pkt));
            }
        }

        if self.channels[ch].queue.is_empty() {
            None
        } else {
            // Next column command can pipeline behind this one: wake at the
            // earlier of the bank's tCCD window and the point where a new
            // column command would still keep the data bus saturated.
            // Early wakes are safe (the scheduler just recomputes), late
            // wakes would insert CL-sized bubbles between bursts.
            let next_col = col_at + t.ccd;
            let keep_bus_busy = data_end.saturating_sub(t.cl);
            Some(next_col.min(keep_bus_busy).max(now + 1))
        }
    }

    fn kick(&mut self, ch: usize, ctx: &mut Ctx) {
        if !self.channels[ch].wake_armed {
            self.channels[ch].wake_armed = true;
            ctx.timer(0, ch as u64);
        }
    }
}

#[derive(Copy, Clone, PartialEq, Eq)]
enum RowKind {
    Hit,
    Miss,
    Conflict,
}

impl Module for Dram {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
        match msg {
            Msg::Packet(pkt) => {
                debug_assert!(pkt.cmd.is_request());
                let (ch, bank, row) = self.decode(pkt.addr);
                let bursts = pkt.size.div_ceil(self.burst_bytes).max(1);
                let entry = Pending {
                    cmd: pkt.cmd,
                    pkt,
                    arrived: ctx.now(),
                    bank,
                    row,
                    bursts_left: bursts,
                };
                self.channels[ch as usize].queue.push_back(entry);
                self.kick(ch as usize, ctx);
            }
            Msg::Timer(ch) => {
                let ch = ch as usize;
                self.channels[ch].wake_armed = false;
                let now = ctx.now();
                if let Some(next) = self.service(ch, now, ctx) {
                    self.channels[ch].wake_armed = true;
                    ctx.send_at(ctx.self_id(), next, Msg::Timer(ch as u64));
                }
            }
            _ => {}
        }
    }

    fn report(&self, out: &mut Stats) {
        out.add("reads", self.reads as f64);
        out.add("writes", self.writes as f64);
        out.add("bytes", self.bytes as f64);
        out.add("row_hits", self.row_hits as f64);
        out.add("row_misses", self.row_misses as f64);
        out.add("row_conflicts", self.row_conflicts as f64);
        out.add("refreshes", self.refreshes as f64);
        if self.lat.count() > 0 {
            out.add("avg_latency_ns", self.lat.mean());
            self.lat.report_into(out, "lat_ns");
        }
        let e = self.energy();
        out.set("energy_act_pj", e.act_pj);
        out.set("energy_read_pj", e.read_pj);
        out.set("energy_write_pj", e.write_pj);
        out.set("energy_refresh_pj", e.refresh_pj);
        out.set("energy_background_pj", e.background_pj);
        out.set("energy_total_nj", e.total_nj());
        let window_ns = units::to_ns(self.last_activity);
        if window_ns > 0.0 {
            out.set("avg_power_mw", e.avg_power_mw(window_ns));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemTech;
    use accesys_sim::{Kernel, ModuleId, Packet};

    /// Issues a fixed access pattern and collects completion times.
    /// In `serial` mode each request waits for the previous response,
    /// defeating FR-FCFS reordering.
    struct Driver {
        mem: ModuleId,
        addrs: Vec<u64>,
        size: u32,
        serial: bool,
        next: usize,
        done: Vec<Tick>,
    }

    impl Driver {
        fn issue(&mut self, ctx: &mut Ctx) {
            let a = self.addrs[self.next];
            self.next += 1;
            let mut p =
                Packet::request(ctx.alloc_pkt_id(), MemCmd::ReadReq, a, self.size, ctx.now());
            p.route.push(ctx.self_id());
            ctx.send(self.mem, 0, Msg::packet(p));
        }
    }

    impl Module for Driver {
        fn name(&self) -> &str {
            "drv"
        }
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
            match msg {
                Msg::Timer(_) => {
                    if self.serial {
                        self.issue(ctx);
                    } else {
                        while self.next < self.addrs.len() {
                            self.issue(ctx);
                        }
                    }
                }
                Msg::Packet(p) => {
                    assert_eq!(p.cmd, MemCmd::ReadResp);
                    self.done.push(ctx.now());
                    if self.serial && self.next < self.addrs.len() {
                        self.issue(ctx);
                    }
                }
                _ => {}
            }
        }
    }

    fn run_cfg(cfg: DramConfig, addrs: Vec<u64>, size: u32, serial: bool) -> (Vec<Tick>, Stats) {
        let mut k = Kernel::new();
        let mem = k.add_module(Box::new(Dram::new("dram", cfg)));
        let drv = k.add_module(Box::new(Driver {
            mem,
            addrs,
            size,
            serial,
            next: 0,
            done: vec![],
        }));
        k.schedule(0, drv, Msg::Timer(0));
        k.run_until_idle().unwrap();
        let done = k.module::<Driver>(drv).unwrap().done.clone();
        (done, k.stats())
    }

    fn run_mode(tech: MemTech, addrs: Vec<u64>, size: u32, serial: bool) -> (Vec<Tick>, Stats) {
        run_cfg(tech.dram_config(), addrs, size, serial)
    }

    fn run(tech: MemTech, addrs: Vec<u64>, size: u32) -> (Vec<Tick>, Stats) {
        run_mode(tech, addrs, size, false)
    }

    #[test]
    fn sequential_stream_is_mostly_row_hits() {
        let addrs: Vec<u64> = (0..128).map(|i| i * 64).collect();
        let (done, stats) = run(MemTech::Ddr4, addrs, 64);
        assert_eq!(done.len(), 128);
        let hits = stats.get_or_zero("dram.row_hits");
        let misses = stats.get_or_zero("dram.row_misses") + stats.get_or_zero("dram.row_conflicts");
        assert!(hits > 4.0 * misses, "hits={hits} misses={misses}");
    }

    #[test]
    fn random_rows_cause_conflicts() {
        // Hammer two rows in the same bank alternately, serially so
        // FR-FCFS cannot reorder the pattern away.
        let cfg = MemTech::Ddr4.dram_config();
        let stride = u64::from(cfg.row_bytes) * u64::from(cfg.banks) * u64::from(cfg.channels);
        let addrs: Vec<u64> = (0..32)
            .map(|i| if i % 2 == 0 { 0 } else { stride })
            .collect();
        let (_, stats) = run_mode(MemTech::Ddr4, addrs, 64, true);
        assert!(
            stats.get_or_zero("dram.row_conflicts") >= 30.0,
            "conflicts={}",
            stats.get_or_zero("dram.row_conflicts")
        );
    }

    #[test]
    fn frfcfs_reorders_batched_conflicts_into_hits() {
        // Same pattern, but issued all at once: FR-FCFS should serve each
        // row's requests together, turning conflicts into hits.
        let cfg = MemTech::Ddr4.dram_config();
        let stride = u64::from(cfg.row_bytes) * u64::from(cfg.banks) * u64::from(cfg.channels);
        let addrs: Vec<u64> = (0..32)
            .map(|i| if i % 2 == 0 { 0 } else { stride })
            .collect();
        let (_, stats) = run(MemTech::Ddr4, addrs, 64);
        assert!(stats.get_or_zero("dram.row_hits") >= 28.0);
        assert!(stats.get_or_zero("dram.row_conflicts") <= 2.0);
    }

    #[test]
    fn serial_row_conflicts_are_slower_than_hits() {
        let cfg = MemTech::Ddr4.dram_config();
        let stride = u64::from(cfg.row_bytes) * u64::from(cfg.banks) * u64::from(cfg.channels);
        let conflict: Vec<u64> = (0..32)
            .map(|i| if i % 2 == 0 { 0 } else { stride })
            .collect();
        let hits: Vec<u64> = (0..32).map(|i| (i % 2) * 64).collect();
        let (d_conf, _) = run_mode(MemTech::Ddr4, conflict, 64, true);
        let (d_hit, _) = run_mode(MemTech::Ddr4, hits, 64, true);
        assert!(d_conf.last().unwrap() > &(2 * *d_hit.last().unwrap()));
    }

    #[test]
    fn streaming_bandwidth_approaches_peak() {
        let cfg = MemTech::Ddr4.dram_config();
        let bytes: u64 = 1 << 20; // 1 MiB
        let addrs: Vec<u64> = (0..bytes / 64).map(|i| i * 64).collect();
        let (done, _) = run(MemTech::Ddr4, addrs, 64);
        let end_ns = units::to_ns(*done.iter().max().unwrap());
        let gbps = bytes as f64 / end_ns;
        let peak = cfg.peak_bandwidth_gbps();
        assert!(
            gbps > 0.7 * peak && gbps <= peak + 0.01,
            "achieved {gbps:.1} GB/s vs peak {peak:.1}"
        );
    }

    #[test]
    fn hbm2_outpaces_ddr3_on_streams() {
        let bytes: u64 = 256 << 10;
        let addrs: Vec<u64> = (0..bytes / 64).map(|i| i * 64).collect();
        let (d_ddr3, _) = run(MemTech::Ddr3, addrs.clone(), 64);
        let (d_hbm, _) = run(MemTech::Hbm2, addrs, 64);
        let t_ddr3 = *d_ddr3.iter().max().unwrap();
        let t_hbm = *d_hbm.iter().max().unwrap();
        // Table III: 64 GB/s vs 12.8 GB/s => ~5x.
        let ratio = t_ddr3 as f64 / t_hbm as f64;
        assert!(ratio > 3.0, "ratio {ratio:.2}");
    }

    #[test]
    fn large_requests_split_into_bursts() {
        let (done, stats) = run(MemTech::Ddr4, vec![0], 4096);
        assert_eq!(done.len(), 1);
        // One response, but 4 KiB of traffic.
        assert_eq!(stats.get_or_zero("dram.bytes"), 4096.0);
        // Must take at least 4096 B / 19.2 GB/s ≈ 213 ns of bus time.
        assert!(units::to_ns(done[0]) > 213.0 * 0.9);
    }

    #[test]
    fn peak_bandwidth_matches_table_iii() {
        for tech in MemTech::ALL {
            let cfg = tech.dram_config();
            let expected = tech.bandwidth_gbps();
            let got = cfg.peak_bandwidth_gbps();
            assert!(
                (got - expected).abs() / expected < 0.01,
                "{tech}: {got} vs {expected}"
            );
        }
    }

    // ---- address mapping ----

    #[test]
    fn line_bank_mapping_spreads_adjacent_lines_across_banks() {
        let mut cfg = MemTech::Ddr4.dram_config();
        cfg.mapping = AddressMapping::LineChannelLineBank;
        let d = Dram::new("m", cfg);
        let nch = u64::from(cfg.channels);
        // Two lines on the same channel, adjacent after de-interleave.
        let (c0, b0, _) = d.decode(0);
        let (c1, b1, _) = d.decode(64 * nch);
        assert_eq!(c0, c1);
        assert_ne!(b0, b1, "adjacent lines should hit different banks");
    }

    #[test]
    fn row_channel_mapping_keeps_a_row_on_one_channel() {
        let mut cfg = MemTech::Hbm2.dram_config();
        cfg.mapping = AddressMapping::RowChannelRowBank;
        let d = Dram::new("m", cfg);
        let (c0, _, _) = d.decode(0);
        let (c_mid, _, _) = d.decode(u64::from(cfg.row_bytes) - 64);
        let (c_next, _, _) = d.decode(u64::from(cfg.row_bytes));
        assert_eq!(c0, c_mid, "same row must stay on one channel");
        assert_ne!(c0, c_next, "next row must move to the other channel");
    }

    #[test]
    fn default_mapping_interleaves_lines_across_channels() {
        let cfg = MemTech::Hbm2.dram_config();
        let d = Dram::new("m", cfg);
        let (c0, _, _) = d.decode(0);
        let (c1, _, _) = d.decode(64);
        assert_ne!(c0, c1);
    }

    #[test]
    fn all_mappings_cover_all_banks_and_channels() {
        for mapping in [
            AddressMapping::LineChannelRowBank,
            AddressMapping::LineChannelLineBank,
            AddressMapping::RowChannelRowBank,
        ] {
            let mut cfg = MemTech::Ddr4.dram_config();
            cfg.mapping = mapping;
            let d = Dram::new("m", cfg);
            let mut chans = std::collections::BTreeSet::new();
            let mut banks = std::collections::BTreeSet::new();
            for i in 0..4096u64 {
                let (c, b, _) = d.decode(i * 64);
                chans.insert(c);
                banks.insert(b);
            }
            assert_eq!(chans.len() as u32, cfg.channels, "{mapping:?}");
            assert_eq!(banks.len() as u32, cfg.banks, "{mapping:?}");
        }
    }

    #[test]
    fn shift_mask_decode_matches_the_div_mod_formula() {
        /// The division-based decode the shifts and masks replace.
        fn div_mod(cfg: &DramConfig, addr: u64) -> (u32, u32, u64) {
            let line = addr / 64;
            let nch = u64::from(cfg.channels);
            let nbank = u64::from(cfg.banks);
            let lines_per_row = u64::from(cfg.row_bytes / 64);
            match cfg.mapping {
                AddressMapping::LineChannelRowBank => {
                    let la = line / nch;
                    let bank = (la / lines_per_row) % nbank;
                    ((line % nch) as u32, bank as u32, la / lines_per_row / nbank)
                }
                AddressMapping::LineChannelLineBank => {
                    let la = line / nch;
                    (
                        (line % nch) as u32,
                        (la % nbank) as u32,
                        la / nbank / lines_per_row,
                    )
                }
                AddressMapping::RowChannelRowBank => {
                    let row_idx = line / lines_per_row;
                    let ra = row_idx / nch;
                    ((row_idx % nch) as u32, (ra % nbank) as u32, ra / nbank)
                }
            }
        }
        for tech in MemTech::ALL {
            for mapping in [
                AddressMapping::LineChannelRowBank,
                AddressMapping::LineChannelLineBank,
                AddressMapping::RowChannelRowBank,
            ] {
                let mut cfg = tech.dram_config();
                cfg.mapping = mapping;
                let d = Dram::new("m", cfg);
                // Dense low addresses, unaligned offsets, and a sparse
                // walk up to the top of the address space.
                let addrs = (0..2048u64)
                    .map(|i| i * 64 + i % 64)
                    .chain((0..2048u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
                for addr in addrs {
                    assert_eq!(
                        d.decode(addr),
                        div_mod(&cfg, addr),
                        "{tech} {mapping:?} {addr:#x}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "1 channels x 3 banks is not a power-of-two geometry")]
    fn a_bank_count_that_is_not_a_power_of_two_is_rejected() {
        let mut cfg = MemTech::Ddr4.dram_config();
        cfg.banks = 3;
        Dram::new("odd", cfg);
    }

    #[test]
    #[should_panic(expected = "a 32-byte row is not a power-of-two number of 64-byte lines")]
    fn a_row_shorter_than_a_line_is_rejected() {
        let mut cfg = MemTech::Ddr4.dram_config();
        cfg.row_bytes = 32;
        Dram::new("short", cfg);
    }

    // ---- page policy ----

    #[test]
    fn closed_page_turns_serial_hits_into_misses() {
        let mut cfg = MemTech::Ddr4.dram_config();
        cfg.page_policy = PagePolicy::Closed;
        // Same line over and over: open page would hit, closed must re-ACT.
        let addrs: Vec<u64> = vec![0; 16];
        let (_, stats) = run_cfg(cfg, addrs.clone(), 64, true);
        assert_eq!(stats.get_or_zero("dram.row_hits"), 0.0);
        assert_eq!(stats.get_or_zero("dram.row_misses"), 16.0);
        let mut open = MemTech::Ddr4.dram_config();
        open.page_policy = PagePolicy::Open;
        let (_, s_open) = run_cfg(open, addrs, 64, true);
        assert_eq!(s_open.get_or_zero("dram.row_hits"), 15.0);
    }

    #[test]
    fn closed_page_avoids_conflict_penalty_on_alternating_rows() {
        let base = MemTech::Ddr4.dram_config();
        let stride = u64::from(base.row_bytes) * u64::from(base.banks) * u64::from(base.channels);
        let addrs: Vec<u64> = (0..32)
            .map(|i| if i % 2 == 0 { 0 } else { stride })
            .collect();
        let mut closed = base;
        closed.page_policy = PagePolicy::Closed;
        let (d_closed, s_closed) = run_cfg(closed, addrs.clone(), 64, true);
        let (d_open, _) = run_cfg(base, addrs, 64, true);
        // Closed-page sees only misses (no conflicts)…
        assert_eq!(s_closed.get_or_zero("dram.row_conflicts"), 0.0);
        // …and the alternating pattern completes no slower than open-page.
        assert!(d_closed.last().unwrap() <= d_open.last().unwrap());
    }

    /// Opens bank 0's row 0 with one read, then queues a 64 B miss in
    /// bank 1 and, behind it, a 4 KiB hit on the open row; returns the
    /// `(miss, hit)` completion ticks.
    fn miss_then_streaming_hit(cfg: DramConfig) -> (Tick, Tick) {
        struct Reader {
            mem: ModuleId,
            miss_addr: u64,
            done: Vec<(u64, u32, Tick)>,
        }
        impl Reader {
            fn read(&self, addr: u64, size: u32, ctx: &mut Ctx) {
                let id = ctx.alloc_pkt_id();
                let mut p = Packet::request(id, MemCmd::ReadReq, addr, size, ctx.now());
                p.route.push(ctx.self_id());
                ctx.send(self.mem, 0, Msg::packet(p));
            }
        }
        impl Module for Reader {
            fn name(&self) -> &str {
                "reader"
            }
            fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
                match msg {
                    Msg::Timer(_) => self.read(0, 64, ctx),
                    Msg::Packet(p) => {
                        self.done.push((p.addr, p.size, ctx.now()));
                        if self.done.len() == 1 {
                            self.read(self.miss_addr, 64, ctx);
                            self.read(0, 4096, ctx);
                        }
                    }
                    _ => {}
                }
            }
        }
        let d = Dram::new("probe", cfg);
        let miss_addr = u64::from(cfg.row_bytes);
        assert_eq!((d.decode(0).1, d.decode(miss_addr).1), (0, 1));
        let mut k = Kernel::new();
        let mem = k.add_module(Box::new(Dram::new("dram", cfg)));
        let r = k.add_module(Box::new(Reader {
            mem,
            miss_addr,
            done: vec![],
        }));
        k.schedule(0, r, Msg::Timer(0));
        k.run_until_idle().unwrap();
        let done = &k.module::<Reader>(r).unwrap().done;
        let at = |addr: u64, size: u32| {
            done.iter()
                .find(|&&(a, s, _)| (a, s) == (addr, size))
                .map(|&(_, _, t)| t)
                .unwrap()
        };
        (at(miss_addr, 64), at(0, 4096))
    }

    #[test]
    fn a_streaming_row_hit_keeps_the_bus_until_a_refresh_closes_its_row() {
        let mut cfg = MemTech::Ddr4.dram_config();
        cfg.timing.trefi_ns = 0.0;
        let (miss, hit) = miss_then_streaming_hit(cfg);
        assert!(hit < miss, "FR-FCFS serves the whole hit first");
        // A refresh lands while the 64-burst hit streams: every row
        // closes, so the next burst goes to the oldest request.
        cfg.timing.trefi_ns = 100.0;
        cfg.timing.trfc_ns = 10.0;
        let (miss, hit) = miss_then_streaming_hit(cfg);
        assert!(miss < hit, "after the refresh the older miss goes first");
    }

    // ---- refresh ----

    #[test]
    fn refreshes_fire_at_trefi_and_are_counted() {
        let mut cfg = MemTech::Ddr4.dram_config();
        cfg.timing.trefi_ns = 500.0;
        cfg.timing.trfc_ns = 100.0;
        // Serial single-line reads spanning well past several tREFI.
        let addrs: Vec<u64> = vec![0; 400];
        let (done, stats) = run_cfg(cfg, addrs, 64, true);
        let end_ns = units::to_ns(*done.last().unwrap());
        assert!(end_ns > 1500.0, "run too short to see refresh: {end_ns}");
        let expect = (end_ns / 500.0).floor();
        let got = stats.get_or_zero("dram.refreshes") / f64::from(cfg.channels);
        assert!(
            (got - expect).abs() <= 2.0,
            "refreshes {got} vs expected ≈{expect}"
        );
    }

    #[test]
    fn refresh_overhead_slows_a_stream_by_roughly_trfc_over_trefi() {
        let addrs: Vec<u64> = (0..4096).map(|i| i * 64).collect();
        let mut no_ref = MemTech::Ddr4.dram_config();
        no_ref.timing.trefi_ns = 0.0;
        let (d_off, _) = run_cfg(no_ref, addrs.clone(), 64, false);
        let mut heavy = MemTech::Ddr4.dram_config();
        heavy.timing.trefi_ns = 1000.0;
        heavy.timing.trfc_ns = 300.0; // 30 % duty: visible but bounded
        let (d_on, _) = run_cfg(heavy, addrs, 64, false);
        let slow = *d_on.last().unwrap() as f64 / *d_off.last().unwrap() as f64;
        assert!(
            slow > 1.15 && slow < 1.8,
            "refresh slowdown {slow:.2} out of expected band"
        );
    }

    #[test]
    fn refresh_disabled_by_zero_trefi() {
        let mut cfg = MemTech::Ddr4.dram_config();
        cfg.timing.trefi_ns = 0.0;
        let addrs: Vec<u64> = (0..256).map(|i| i * 64).collect();
        let (_, stats) = run_cfg(cfg, addrs, 64, false);
        assert_eq!(stats.get_or_zero("dram.refreshes"), 0.0);
    }

    // ---- energy ----

    #[test]
    fn energy_accumulates_per_command_class() {
        let addrs: Vec<u64> = (0..64).map(|i| i * 64).collect();
        let (_, stats) = run(MemTech::Ddr4, addrs, 64);
        assert!(stats.get_or_zero("dram.energy_read_pj") > 0.0);
        assert!(stats.get_or_zero("dram.energy_act_pj") > 0.0);
        assert!(stats.get_or_zero("dram.energy_background_pj") > 0.0);
        assert_eq!(stats.get_or_zero("dram.energy_write_pj"), 0.0);
        assert!(stats.get_or_zero("dram.energy_total_nj") > 0.0);
        assert!(stats.get_or_zero("dram.avg_power_mw") > 0.0);
    }

    #[test]
    fn hbm_moves_the_same_bytes_for_less_row_energy() {
        // Same 256 KiB stream; HBM2's pJ/bit is several times lower, so
        // its data-movement energy must be lower too.
        let addrs: Vec<u64> = (0..4096).map(|i| i * 64).collect();
        let (_, s_ddr3) = run(MemTech::Ddr3, addrs.clone(), 64);
        let (_, s_hbm) = run(MemTech::Hbm2, addrs, 64);
        let move_e = |s: &Stats| {
            s.get_or_zero("dram.energy_read_pj") + s.get_or_zero("dram.energy_write_pj")
        };
        assert!(move_e(&s_hbm) < move_e(&s_ddr3) / 2.0);
    }

    #[test]
    fn latency_histogram_reports_percentiles() {
        let addrs: Vec<u64> = (0..128).map(|i| i * 64).collect();
        let (_, stats) = run(MemTech::Ddr4, addrs, 64);
        assert_eq!(stats.get_or_zero("dram.lat_ns_count"), 128.0);
        assert!(stats.get_or_zero("dram.lat_ns_p99") >= stats.get_or_zero("dram.lat_ns_p50"));
        assert!(stats.get_or_zero("dram.lat_ns_min") > 0.0);
    }
}
