//! Timing CPU: driver control path + streaming Non-GEMM kernels.

use accesys_sim::{streams, units, Ctx, MemCmd, Module, ModuleId, Msg, Packet, Stats, Tick};

/// Configuration of a [`CpuComplex`].
#[derive(Copy, Clone, Debug, serde::Serialize)]
pub struct CpuConfig {
    /// Core clock in GHz (paper Table II: 1 GHz ARM).
    pub freq_ghz: f64,
    /// Sustained arithmetic instructions per cycle for streaming kernels.
    pub ipc: f64,
    /// Memory-level parallelism: outstanding line requests.
    pub mlp: u32,
    /// Cache-line size in bytes.
    pub line_bytes: u32,
    /// Driver overhead per job launch in nanoseconds (syscall + setup).
    pub driver_overhead_ns: f64,
    /// Interrupt delivery latency in nanoseconds.
    pub irq_latency_ns: f64,
    /// Base of the MSI window; MSI writes carry the job cookie as
    /// `(addr - msi_base) / 4`.
    pub msi_base: u64,
    /// Size of the MSI window in bytes.
    pub msi_size: u64,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            freq_ghz: 1.0,
            ipc: 2.0,
            mlp: 8,
            line_bytes: 64,
            driver_overhead_ns: 500.0,
            irq_latency_ns: 200.0,
            msi_base: 0xFEE0_0000,
            msi_size: 0x1000,
        }
    }
}

/// One step of a CPU program.
#[derive(Clone, Debug)]
pub enum CpuOp {
    /// Ring `doorbell_addr` (posted MMIO write), then wait for the MSI
    /// carrying `job_cookie`.
    LaunchJob {
        /// Device BAR address of the doorbell register.
        doorbell_addr: u64,
        /// Cookie the accelerator echoes in its MSI.
        job_cookie: u64,
    },
    /// Ring `doorbell_addr` without waiting (multi-accelerator fan-out);
    /// pair with [`CpuOp::WaitAll`]. Costs one driver overhead.
    LaunchAsync {
        /// Device BAR address of the doorbell register.
        doorbell_addr: u64,
    },
    /// Wait until the MSIs for every cookie in `cookies` have arrived
    /// (in any order; MSIs that arrived early are remembered).
    WaitAll {
        /// Job cookies to collect.
        cookies: Vec<u64>,
    },
    /// Run a streaming kernel: read `read_bytes` from `read_addr`, write
    /// `write_bytes` to `write_addr`, with `flops` arithmetic operations
    /// overlapped.
    Stream {
        /// Bytes to read.
        read_bytes: u64,
        /// Bytes to write.
        write_bytes: u64,
        /// Arithmetic operations to retire.
        flops: u64,
        /// Base address of the input.
        read_addr: u64,
        /// Base address of the output.
        write_addr: u64,
    },
    /// Idle for a fixed time (driver bookkeeping, framework overhead).
    Delay {
        /// Nanoseconds to wait.
        ns: f64,
    },
    /// Record a phase boundary with a label (for GEMM/Non-GEMM splits).
    Mark {
        /// Phase label applied to the time *following* this mark.
        label: String,
    },
}

const TAG_START: u64 = 0;
const TAG_NEXT: u64 = 1;
const TAG_COMPUTE: u64 = 2;

#[derive(Debug)]
enum State {
    Idle,
    WaitIrq {
        cookie: u64,
    },
    WaitAll {
        remaining: std::collections::BTreeSet<u64>,
    },
    Stream(StreamState),
    Done,
}

#[derive(Debug)]
struct StreamState {
    read_left: u64,
    write_left: u64,
    read_cursor: u64,
    write_cursor: u64,
    inflight: u32,
    compute_end: Tick,
    mem_done: bool,
}

/// The CPU cluster module.
///
/// Load a program with [`CpuComplex::load_program`], wire it into the
/// system, and kick it with a `Timer(0)` message. After the run,
/// [`CpuComplex::finished_at`] and [`CpuComplex::marks`] expose the
/// timeline.
pub struct CpuComplex {
    name: String,
    cfg: CpuConfig,
    /// Cacheable data path (L1). INVALID sends everything to `membus`.
    l1: ModuleId,
    /// Uncacheable / MMIO path.
    membus: ModuleId,
    /// Address ranges accessed uncached (device memory over PCIe).
    uncached: Vec<(u64, u64)>,
    program: Vec<CpuOp>,
    pc: usize,
    state: State,
    /// MSI cookies that arrived before the program waited on them.
    seen_irqs: std::collections::BTreeSet<u64>,
    marks: Vec<(String, Tick)>,
    finished_at: Option<Tick>,
    // stats
    jobs_launched: u64,
    irqs: u64,
    lines_read: u64,
    lines_written: u64,
    stream_ns: f64,
    wait_ns: f64,
    wait_started: Tick,
}

impl CpuComplex {
    /// Create a CPU with its cacheable (`l1`) and uncacheable (`membus`)
    /// ports.
    pub fn new(name: &str, cfg: CpuConfig, l1: ModuleId, membus: ModuleId) -> Self {
        CpuComplex {
            name: name.to_string(),
            cfg,
            l1,
            membus,
            uncached: Vec::new(),
            program: Vec::new(),
            pc: 0,
            state: State::Idle,
            seen_irqs: std::collections::BTreeSet::new(),
            marks: Vec::new(),
            finished_at: None,
            jobs_launched: 0,
            irqs: 0,
            lines_read: 0,
            lines_written: 0,
            stream_ns: 0.0,
            wait_ns: 0.0,
            wait_started: 0,
        }
    }

    /// Mark `[base, base+size)` as uncacheable (accessed via the MemBus,
    /// e.g. device-side memory reached over PCIe).
    pub fn add_uncached_range(&mut self, base: u64, size: u64) {
        self.uncached.push((base, size));
    }

    /// Replace the CPU program (resets the program counter).
    pub fn load_program(&mut self, program: Vec<CpuOp>) {
        self.program = program;
        self.pc = 0;
        self.state = State::Idle;
        self.seen_irqs.clear();
        self.finished_at = None;
        self.marks.clear();
    }

    /// Tick at which the program finished, if it has.
    pub fn finished_at(&self) -> Option<Tick> {
        self.finished_at
    }

    /// Phase boundaries recorded by [`CpuOp::Mark`], plus the implicit
    /// `"end"` mark at completion.
    pub fn marks(&self) -> &[(String, Tick)] {
        &self.marks
    }

    /// The configuration this CPU was built with.
    pub fn config(&self) -> CpuConfig {
        self.cfg
    }

    fn is_uncached(&self, addr: u64) -> bool {
        self.uncached
            .iter()
            .any(|&(b, s)| addr >= b && addr - b < s)
    }

    fn data_port(&self, addr: u64) -> ModuleId {
        if self.is_uncached(addr) || !self.l1.is_valid() {
            self.membus
        } else {
            self.l1
        }
    }

    fn run_next(&mut self, ctx: &mut Ctx) {
        loop {
            if self.pc >= self.program.len() {
                self.state = State::Done;
                self.finished_at = Some(ctx.now());
                self.marks.push(("end".to_string(), ctx.now()));
                return;
            }
            let pc = self.pc;
            self.pc += 1;
            match &self.program[pc] {
                CpuOp::Mark { label } => {
                    self.marks.push((label.clone(), ctx.now()));
                    continue;
                }
                &CpuOp::Delay { ns } => {
                    ctx.timer(units::ns(ns), TAG_NEXT);
                    return;
                }
                &CpuOp::LaunchJob {
                    doorbell_addr,
                    job_cookie,
                } => {
                    self.jobs_launched += 1;
                    let mut db = Packet::request(
                        ctx.alloc_pkt_id(),
                        MemCmd::WriteReq,
                        doorbell_addr,
                        8,
                        ctx.now(),
                    );
                    db.stream = streams::MMIO;
                    // Posted: no route push, nobody acknowledges.
                    ctx.send(
                        self.membus,
                        units::ns(self.cfg.driver_overhead_ns),
                        Msg::packet(db),
                    );
                    if self.seen_irqs.remove(&job_cookie) {
                        // MSI already arrived (possible after LaunchAsync
                        // bursts); continue immediately.
                        ctx.timer(units::ns(self.cfg.irq_latency_ns), TAG_NEXT);
                        return;
                    }
                    self.state = State::WaitIrq { cookie: job_cookie };
                    self.wait_started = ctx.now();
                    return;
                }
                &CpuOp::LaunchAsync { doorbell_addr } => {
                    self.jobs_launched += 1;
                    let mut db = Packet::request(
                        ctx.alloc_pkt_id(),
                        MemCmd::WriteReq,
                        doorbell_addr,
                        8,
                        ctx.now(),
                    );
                    db.stream = streams::MMIO;
                    ctx.send(
                        self.membus,
                        units::ns(self.cfg.driver_overhead_ns),
                        Msg::packet(db),
                    );
                    // The driver is busy for the overhead window, then
                    // moves on without waiting for the device.
                    ctx.timer(units::ns(self.cfg.driver_overhead_ns), TAG_NEXT);
                    return;
                }
                CpuOp::WaitAll { cookies } => {
                    let mut remaining: std::collections::BTreeSet<u64> =
                        cookies.iter().copied().collect();
                    remaining.retain(|c| !self.seen_irqs.remove(c));
                    if remaining.is_empty() {
                        ctx.timer(units::ns(self.cfg.irq_latency_ns), TAG_NEXT);
                        return;
                    }
                    self.state = State::WaitAll { remaining };
                    self.wait_started = ctx.now();
                    return;
                }
                &CpuOp::Stream {
                    read_bytes,
                    write_bytes,
                    flops,
                    read_addr,
                    write_addr,
                } => {
                    let line = u64::from(self.cfg.line_bytes);
                    let compute_ns = flops as f64 / (self.cfg.ipc * self.cfg.freq_ghz);
                    let st = StreamState {
                        read_left: read_bytes.div_ceil(line),
                        write_left: write_bytes.div_ceil(line),
                        read_cursor: read_addr,
                        write_cursor: write_addr,
                        inflight: 0,
                        compute_end: ctx.now() + units::ns(compute_ns),
                        mem_done: false,
                    };
                    self.state = State::Stream(st);
                    self.wait_started = ctx.now();
                    self.pump_stream(ctx);
                    return;
                }
            }
        }
    }

    fn pump_stream(&mut self, ctx: &mut Ctx) {
        let mlp = self.cfg.mlp;
        let line = self.cfg.line_bytes;
        loop {
            let State::Stream(st) = &mut self.state else {
                return;
            };
            if st.inflight >= mlp || (st.read_left == 0 && st.write_left == 0) {
                break;
            }
            st.inflight += 1;
            let (cmd, addr) = if st.read_left > 0 {
                st.read_left -= 1;
                self.lines_read += 1;
                let a = st.read_cursor;
                st.read_cursor += u64::from(line);
                (MemCmd::ReadReq, a)
            } else {
                st.write_left -= 1;
                self.lines_written += 1;
                let a = st.write_cursor;
                st.write_cursor += u64::from(line);
                (MemCmd::WriteReq, a)
            };
            let mut pkt = Packet::request(ctx.alloc_pkt_id(), cmd, addr, line, ctx.now());
            pkt.stream = streams::CPU;
            pkt.route.push(ctx.self_id());
            let port = self.data_port(addr);
            ctx.send(port, 0, Msg::packet(pkt));
        }
        self.check_stream_done(ctx);
    }

    fn check_stream_done(&mut self, ctx: &mut Ctx) {
        let State::Stream(st) = &mut self.state else {
            return;
        };
        if st.inflight == 0 && st.read_left == 0 && st.write_left == 0 {
            st.mem_done = true;
            if ctx.now() >= st.compute_end {
                self.stream_ns += units::to_ns(ctx.now() - self.wait_started);
                self.state = State::Idle;
                self.run_next(ctx);
            } else {
                let end = st.compute_end;
                ctx.send_at(ctx.self_id(), end, Msg::Timer(TAG_COMPUTE));
            }
        }
    }

    fn on_irq(&mut self, cookie: u64, ctx: &mut Ctx) {
        self.irqs += 1;
        match &mut self.state {
            State::WaitIrq { cookie: want } if *want == cookie => {
                self.wait_ns += units::to_ns(ctx.now() - self.wait_started);
                self.state = State::Idle;
                ctx.timer(units::ns(self.cfg.irq_latency_ns), TAG_NEXT);
            }
            State::WaitAll { remaining } => {
                if remaining.remove(&cookie) {
                    if remaining.is_empty() {
                        self.wait_ns += units::to_ns(ctx.now() - self.wait_started);
                        self.state = State::Idle;
                        ctx.timer(units::ns(self.cfg.irq_latency_ns), TAG_NEXT);
                    }
                } else {
                    // An MSI for a job this wait does not cover (another
                    // in-flight launch finishing early): latch it for
                    // the later wait instead of dropping it.
                    self.seen_irqs.insert(cookie);
                }
            }
            _ => {
                // Arrived before the program waits on it: remember it.
                self.seen_irqs.insert(cookie);
            }
        }
    }
}

impl Module for CpuComplex {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
        match msg {
            Msg::Timer(TAG_START) => self.run_next(ctx),
            Msg::Timer(TAG_NEXT) => self.run_next(ctx),
            Msg::Timer(TAG_COMPUTE) => {
                if let State::Stream(st) = &self.state {
                    if st.mem_done && ctx.now() >= st.compute_end {
                        self.stream_ns += units::to_ns(ctx.now() - self.wait_started);
                        self.state = State::Idle;
                        self.run_next(ctx);
                    }
                }
            }
            Msg::Packet(pkt) => {
                if pkt.cmd.is_request() {
                    // An MSI write landing in the interrupt window.
                    if pkt.addr >= self.cfg.msi_base
                        && pkt.addr - self.cfg.msi_base < self.cfg.msi_size
                    {
                        let cookie = (pkt.addr - self.cfg.msi_base) / 4;
                        self.on_irq(cookie, ctx);
                    }
                    // Posted write: no response.
                } else {
                    // A line our stream issued came back.
                    if let State::Stream(st) = &mut self.state {
                        st.inflight = st.inflight.saturating_sub(1);
                    }
                    self.pump_stream(ctx);
                }
            }
            _ => {}
        }
    }

    fn report(&self, out: &mut Stats) {
        out.add("jobs_launched", self.jobs_launched as f64);
        out.add("irqs", self.irqs as f64);
        out.add("lines_read", self.lines_read as f64);
        out.add("lines_written", self.lines_written as f64);
        out.add("stream_ns", self.stream_ns);
        out.add("wait_ns", self.wait_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accesys_mem::{SimpleMemory, SimpleMemoryConfig};
    use accesys_sim::Kernel;

    fn fast_mem() -> SimpleMemoryConfig {
        SimpleMemoryConfig {
            latency_ns: 40.0,
            bandwidth_gbps: 16.0,
        }
    }

    fn slow_mem() -> SimpleMemoryConfig {
        SimpleMemoryConfig {
            latency_ns: 800.0,
            bandwidth_gbps: 2.0,
        }
    }

    fn run_stream(cfg: CpuConfig, mem_cfg: SimpleMemoryConfig, op: CpuOp) -> Tick {
        let mut k = Kernel::new();
        let mem = k.add_module(Box::new(SimpleMemory::new("mem", mem_cfg)));
        let mut cpu = CpuComplex::new("cpu", cfg, ModuleId::INVALID, mem);
        cpu.load_program(vec![op]);
        let cpu = k.add_module(Box::new(cpu));
        k.schedule(0, cpu, Msg::Timer(0));
        k.run_until_idle().unwrap();
        k.module::<CpuComplex>(cpu).unwrap().finished_at().unwrap()
    }

    #[test]
    fn stream_time_scales_with_bytes() {
        let op = |kb: u64| CpuOp::Stream {
            read_bytes: kb << 10,
            write_bytes: 0,
            flops: 0,
            read_addr: 0x10000,
            write_addr: 0,
        };
        let t1 = run_stream(CpuConfig::default(), fast_mem(), op(64));
        let t2 = run_stream(CpuConfig::default(), fast_mem(), op(128));
        let ratio = t2 as f64 / t1 as f64;
        assert!((1.8..2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn remote_memory_slows_streams_numa_style() {
        let op = CpuOp::Stream {
            read_bytes: 64 << 10,
            write_bytes: 64 << 10,
            flops: 0,
            read_addr: 0x10000,
            write_addr: 0x80000,
        };
        let local = run_stream(CpuConfig::default(), fast_mem(), op.clone());
        let remote = run_stream(CpuConfig::default(), slow_mem(), op);
        let ratio = remote as f64 / local as f64;
        assert!(ratio > 3.0, "NUMA penalty too small: {ratio}");
    }

    #[test]
    fn compute_bound_streams_are_limited_by_ipc() {
        // Tiny memory footprint, heavy flops: time ≈ flops / (ipc * freq).
        let op = CpuOp::Stream {
            read_bytes: 64,
            write_bytes: 0,
            flops: 2_000_000,
            read_addr: 0,
            write_addr: 0,
        };
        let t = run_stream(CpuConfig::default(), fast_mem(), op);
        // 2e6 flops at 2 IPC, 1 GHz = 1e6 ns.
        let ns = units::to_ns(t);
        assert!((ns - 1_000_000.0).abs() < 1_000.0, "{ns}");
    }

    #[test]
    fn mlp_window_accelerates_latency_bound_streams() {
        let op = CpuOp::Stream {
            read_bytes: 32 << 10,
            write_bytes: 0,
            flops: 0,
            read_addr: 0,
            write_addr: 0,
        };
        let narrow = CpuConfig {
            mlp: 1,
            ..CpuConfig::default()
        };
        let wide = CpuConfig {
            mlp: 16,
            ..CpuConfig::default()
        };
        let t_narrow = run_stream(narrow, fast_mem(), op.clone());
        let t_wide = run_stream(wide, fast_mem(), op);
        assert!(t_narrow > 4 * t_wide, "narrow {t_narrow} vs wide {t_wide}");
    }

    #[test]
    fn launch_job_waits_for_matching_msi() {
        /// Fake device: doorbell write triggers an MSI back after 1 µs.
        struct Device {
            cpu: ModuleId,
            msi_addr: u64,
        }
        impl Module for Device {
            fn name(&self) -> &str {
                "dev"
            }
            fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
                if let Msg::Packet(p) = msg {
                    if p.cmd == MemCmd::WriteReq {
                        let mut msi = Packet::request(
                            ctx.alloc_pkt_id(),
                            MemCmd::WriteReq,
                            self.msi_addr,
                            4,
                            ctx.now(),
                        );
                        msi.stream = streams::DMA_BASE;
                        ctx.send(self.cpu, units::us(1.0), Msg::packet(msi));
                    }
                }
            }
        }
        let mut k = Kernel::new();
        let cfg = CpuConfig::default();
        // Place the CPU first so the device can point at it.
        let cpu_id_placeholder = ModuleId::INVALID;
        let mut cpu = CpuComplex::new("cpu", cfg, ModuleId::INVALID, cpu_id_placeholder);
        cpu.load_program(vec![
            CpuOp::Mark {
                label: "gemm".into(),
            },
            CpuOp::LaunchJob {
                doorbell_addr: 0x1_0000_0000,
                job_cookie: 3,
            },
        ]);
        let cpu_slot = k.add_module(Box::new(cpu));
        let dev = k.add_module(Box::new(Device {
            cpu: cpu_slot,
            msi_addr: cfg.msi_base + 3 * 4,
        }));
        // Rewire the CPU's membus port to the device.
        k.module_mut::<CpuComplex>(cpu_slot).unwrap().membus = dev;
        k.schedule(0, cpu_slot, Msg::Timer(0));
        k.run_until_idle().unwrap();
        let cpu = k.module::<CpuComplex>(cpu_slot).unwrap();
        let end = cpu.finished_at().expect("program finished");
        // driver overhead 500 ns + device 1 µs + irq 200 ns.
        assert!(end >= units::ns(1_700.0), "end={end}");
        assert_eq!(cpu.marks()[0].0, "gemm");
        assert_eq!(cpu.marks().last().unwrap().0, "end");
    }

    /// Fake multi-device: the i-th doorbell write answers with the MSI
    /// for cookie `i` after `base_ns * (i+1)`.
    struct FanoutDevice {
        cpu: ModuleId,
        msi_base: u64,
        base_ns: f64,
        doorbells: u64,
    }
    impl Module for FanoutDevice {
        fn name(&self) -> &str {
            "fan"
        }
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
            if let Msg::Packet(p) = msg {
                if p.cmd == MemCmd::WriteReq {
                    let i = self.doorbells;
                    self.doorbells += 1;
                    let mut msi = Packet::request(
                        ctx.alloc_pkt_id(),
                        MemCmd::WriteReq,
                        self.msi_base + 4 * i,
                        4,
                        ctx.now(),
                    );
                    msi.stream = streams::DMA_BASE;
                    ctx.send(
                        self.cpu,
                        units::ns(self.base_ns * (i + 1) as f64),
                        Msg::packet(msi),
                    );
                }
            }
        }
    }

    fn fanout_rig(base_ns: f64, program: Vec<CpuOp>) -> (Tick, u64) {
        let mut k = Kernel::new();
        let cfg = CpuConfig::default();
        let mut cpu = CpuComplex::new("cpu", cfg, ModuleId::INVALID, ModuleId::INVALID);
        cpu.load_program(program);
        let cpu_slot = k.add_module(Box::new(cpu));
        let dev = k.add_module(Box::new(FanoutDevice {
            cpu: cpu_slot,
            msi_base: cfg.msi_base,
            base_ns,
            doorbells: 0,
        }));
        k.module_mut::<CpuComplex>(cpu_slot).unwrap().membus = dev;
        k.schedule(0, cpu_slot, Msg::Timer(0));
        k.run_until_idle().unwrap();
        let cpu = k.module::<CpuComplex>(cpu_slot).unwrap();
        (cpu.finished_at().expect("finished"), cpu.irqs)
    }

    #[test]
    fn async_launches_overlap_device_time() {
        // Three devices, 10 µs each, launched async: total ≈ 10 µs + the
        // launch overheads, far below the 30 µs a serial driver would take.
        let program = vec![
            CpuOp::LaunchAsync {
                doorbell_addr: 0x1_0000_0000,
            },
            CpuOp::LaunchAsync {
                doorbell_addr: 0x1_0100_0000,
            },
            CpuOp::LaunchAsync {
                doorbell_addr: 0x1_0200_0000,
            },
            CpuOp::WaitAll {
                cookies: vec![0, 1, 2],
            },
        ];
        let (end, irqs) = fanout_rig(10_000.0, program);
        assert_eq!(irqs, 3);
        let ns = units::to_ns(end);
        // Slowest device: third doorbell (launched at ~1.5 µs) + 30 µs.
        assert!(ns < 35_000.0, "async fan-out did not overlap: {ns}");
    }

    #[test]
    fn wait_all_handles_early_msis() {
        // Device 0 answers in 1 ns — long before WaitAll runs. The early
        // MSI must be latched, not lost.
        let program = vec![
            CpuOp::LaunchAsync {
                doorbell_addr: 0x1_0000_0000,
            },
            CpuOp::Delay { ns: 5_000.0 },
            CpuOp::WaitAll { cookies: vec![0] },
        ];
        let (end, _) = fanout_rig(1.0, program);
        // Finishes right after the delay + irq latency, no deadlock.
        assert!(units::to_ns(end) < 7_000.0);
    }

    #[test]
    fn wait_all_latches_msis_outside_its_cookie_set() {
        // Regression: cookie 0's MSI (at 1·base) arrives while the CPU
        // waits on cookie 1 (at 2·base). The out-of-set MSI must be
        // latched for the second wait, not silently dropped — partial
        // waits are how the graph dispatcher pipelines devices.
        let program = vec![
            CpuOp::LaunchAsync {
                doorbell_addr: 0x1_0000_0000,
            },
            CpuOp::LaunchAsync {
                doorbell_addr: 0x1_0100_0000,
            },
            CpuOp::WaitAll { cookies: vec![1] },
            CpuOp::WaitAll { cookies: vec![0] },
        ];
        let (end, irqs) = fanout_rig(10_000.0, program);
        assert_eq!(irqs, 2);
        // Finishes shortly after the slower MSI (~21 µs), instead of
        // hanging on the dropped cookie-0 MSI.
        assert!(units::to_ns(end) < 25_000.0, "second wait lost its MSI");
    }

    #[test]
    fn wait_all_with_no_cookies_does_not_block() {
        let program = vec![CpuOp::WaitAll { cookies: vec![] }];
        let (end, _) = fanout_rig(1.0, program);
        assert!(units::to_ns(end) <= 300.0);
    }
}
