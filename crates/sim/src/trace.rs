//! Kernel-level event tracing — the reproduction of gem5's trace flags.
//!
//! A [`Tracer`] installed with [`crate::Kernel::set_tracer`] observes every
//! event the kernel delivers, before the receiving module handles it.
//! [`PacketTrace`] is the batteries-included implementation: it records
//! packet deliveries as flat rows (optionally filtered by module name) and
//! renders them as CSV for offline analysis.

use crate::{units, MemCmd, ModuleId, Msg, Tick};

/// Observer of every event the kernel delivers.
///
/// Implementations must be cheap: the hook sits on the hot path. Tracers
/// see the message *before* the module handles it, so recorded times are
/// delivery times.
pub trait Tracer: crate::AsAny + 'static {
    /// One event is about to be delivered to `dst` (named `dst_name`).
    fn on_event(&mut self, when: Tick, dst: ModuleId, dst_name: &str, msg: &Msg);
}

/// One recorded packet delivery.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRow {
    /// Delivery time in nanoseconds.
    pub time_ns: f64,
    /// Receiving module's instance name.
    pub module: String,
    /// Packet command.
    pub cmd: MemCmd,
    /// Target address.
    pub addr: u64,
    /// Transfer size in bytes.
    pub size: u32,
    /// Traffic stream (DMA channel, CPU, PTW, ...).
    pub stream: u16,
    /// Packet id.
    pub pkt_id: u64,
}

/// A bounded in-memory packet trace.
///
/// Records up to `capacity` packet deliveries, optionally restricted to
/// modules whose name contains one of the configured filters. Timer,
/// credit and custom messages are never recorded — for those, write a
/// custom [`Tracer`].
///
/// ```
/// use accesys_sim::{Kernel, MemCmd, Msg, Packet, PacketTrace};
/// # use accesys_sim::{Ctx, Module};
/// # struct Receiver;
/// # impl Module for Receiver {
/// #     fn name(&self) -> &str { "mem0" }
/// #     fn handle(&mut self, _msg: Msg, _ctx: &mut Ctx) {}
/// # }
///
/// let mut kernel = Kernel::new();
/// let sink = kernel.add_module(Box::new(Receiver));
/// kernel.set_tracer(Box::new(PacketTrace::new(1024).with_filter("mem")));
/// kernel.schedule(0, sink, Msg::packet(Packet::request(0, MemCmd::ReadReq, 0x80, 64, 0)));
/// kernel.run_until_idle().unwrap();
/// let trace = kernel.tracer::<PacketTrace>().unwrap();
/// assert_eq!(trace.rows().len(), 1);
/// assert!(trace.to_csv().contains("mem0"));
/// ```
#[derive(Debug, Default)]
pub struct PacketTrace {
    rows: Vec<TraceRow>,
    capacity: usize,
    filters: Vec<String>,
    dropped: u64,
}

impl PacketTrace {
    /// A trace that keeps at most `capacity` rows (older rows win; later
    /// deliveries are counted as dropped).
    pub fn new(capacity: usize) -> Self {
        PacketTrace {
            rows: Vec::new(),
            capacity,
            filters: Vec::new(),
            dropped: 0,
        }
    }

    /// Only record deliveries to modules whose name contains `needle`.
    /// Repeated calls OR the filters together.
    pub fn with_filter(mut self, needle: &str) -> Self {
        self.filters.push(needle.to_string());
        self
    }

    /// Recorded rows, in delivery order.
    pub fn rows(&self) -> &[TraceRow] {
        &self.rows
    }

    /// Deliveries that matched the filter but exceeded capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Render the trace as CSV with a header row.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_ns,module,cmd,addr,size,stream,pkt_id\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{:.3},{},{:?},{:#x},{},{},{}\n",
                r.time_ns, r.module, r.cmd, r.addr, r.size, r.stream, r.pkt_id
            ));
        }
        out
    }

    fn matches(&self, name: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| name.contains(f))
    }
}

impl Tracer for PacketTrace {
    fn on_event(&mut self, when: Tick, _dst: ModuleId, dst_name: &str, msg: &Msg) {
        let pkt = match msg {
            Msg::Packet(p) => p,
            _ => return,
        };
        if !self.matches(dst_name) {
            return;
        }
        if self.rows.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.rows.push(TraceRow {
            time_ns: units::to_ns(when),
            module: dst_name.to_string(),
            cmd: pkt.cmd,
            addr: pkt.addr,
            size: pkt.size,
            stream: pkt.stream,
            pkt_id: pkt.id,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ctx, Kernel, Module, Packet};

    struct Fwd {
        name: &'static str,
        next: Option<ModuleId>,
    }
    impl Module for Fwd {
        fn name(&self) -> &str {
            self.name
        }
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
            if let (Msg::Packet(p), Some(next)) = (msg, self.next) {
                ctx.send(next, units::ns(5.0), Msg::Packet(p));
            }
        }
    }

    fn two_hop_kernel() -> (Kernel, ModuleId) {
        let mut k = Kernel::new();
        let sink = k.add_module(Box::new(Fwd {
            name: "mem.sink",
            next: None,
        }));
        let front = k.add_module(Box::new(Fwd {
            name: "bus.front",
            next: Some(sink),
        }));
        (k, front)
    }

    #[test]
    fn records_every_packet_hop_in_order() {
        let (mut k, front) = two_hop_kernel();
        k.set_tracer(Box::new(PacketTrace::new(16)));
        let p = Packet::request(7, MemCmd::WriteReq, 0x1000, 128, 0);
        k.schedule(units::ns(1.0), front, Msg::packet(p));
        k.run_until_idle().unwrap();
        let rows = k.tracer::<PacketTrace>().unwrap().rows().to_vec();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].module, "bus.front");
        assert_eq!(rows[1].module, "mem.sink");
        assert!(rows[1].time_ns > rows[0].time_ns);
        assert_eq!(rows[0].pkt_id, 7);
        assert_eq!(rows[0].size, 128);
    }

    #[test]
    fn filters_restrict_to_matching_modules() {
        let (mut k, front) = two_hop_kernel();
        k.set_tracer(Box::new(PacketTrace::new(16).with_filter("mem")));
        let p = Packet::request(0, MemCmd::ReadReq, 0x40, 64, 0);
        k.schedule(0, front, Msg::packet(p));
        k.run_until_idle().unwrap();
        let trace = k.tracer::<PacketTrace>().unwrap();
        assert_eq!(trace.rows().len(), 1);
        assert_eq!(trace.rows()[0].module, "mem.sink");
    }

    #[test]
    fn capacity_drops_excess_rows() {
        let (mut k, front) = two_hop_kernel();
        k.set_tracer(Box::new(PacketTrace::new(1)));
        let p = Packet::request(0, MemCmd::ReadReq, 0x40, 64, 0);
        k.schedule(0, front, Msg::packet(p));
        k.run_until_idle().unwrap();
        let trace = k.tracer::<PacketTrace>().unwrap();
        assert_eq!(trace.rows().len(), 1);
        assert_eq!(trace.dropped(), 1);
    }

    #[test]
    fn timers_are_not_recorded() {
        let (mut k, front) = two_hop_kernel();
        k.set_tracer(Box::new(PacketTrace::new(16)));
        k.schedule(0, front, Msg::Timer(0));
        k.run_until_idle().unwrap();
        assert!(k.tracer::<PacketTrace>().unwrap().rows().is_empty());
    }

    #[test]
    fn csv_has_header_and_rows() {
        let (mut k, front) = two_hop_kernel();
        k.set_tracer(Box::new(PacketTrace::new(16)));
        let p = Packet::request(3, MemCmd::ReadReq, 0xABC0, 64, 0);
        k.schedule(0, front, Msg::packet(p));
        k.run_until_idle().unwrap();
        let csv = k.tracer::<PacketTrace>().unwrap().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_ns,module,cmd,addr,size,stream,pkt_id");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains("0xabc0"));
    }
}
