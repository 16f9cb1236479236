//! The event kernel: ordered event queue plus the module registry.

use crate::{EventQueue, Module, ModuleId, Msg, Stats, Tick, Tracer};

/// The payload carried by every event-queue node: destination module plus
/// the message. The queue moves this tuple on every push/pop/sort.
pub(crate) type Ev = (ModuleId, Msg);

// Compile-time regression guard (companion to the `Msg == 16` assert in
// `msg.rs`): `ModuleId` padding brings the node payload to 24 bytes, and
// nothing may push it past that.
const _: () = assert!(
    std::mem::size_of::<Ev>() <= 24,
    "event payload grew past 24 bytes"
);

/// Error returned by [`Kernel::run_until_idle`] and friends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event budget was exhausted — almost always a livelock or a
    /// flow-control bug (credits never returned, responses dropped).
    EventLimitExceeded {
        /// Budget that was exceeded.
        limit: u64,
        /// Simulated time when the run aborted.
        at: Tick,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::EventLimitExceeded { limit, at } => write!(
                f,
                "event limit of {limit} exceeded at tick {at}; \
                 likely a livelock or flow-control leak"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Bounds on a simulation run.
#[derive(Copy, Clone, Debug)]
pub struct RunLimit {
    /// Maximum number of events to process before aborting.
    ///
    /// `u64::MAX` means "unlimited": the budget saturates rather than
    /// overflowing, whatever the kernel's prior event count.
    pub max_events: u64,
    /// Time bound. The run returns successfully *before* delivering the
    /// first event scheduled after this tick: events with
    /// `when <= max_time` are all delivered, later ones stay queued (a
    /// follow-up `run` picks them up). The kernel's clock is **not**
    /// advanced to `max_time` — [`Kernel::now`] remains the tick of the
    /// last event actually delivered.
    pub max_time: Tick,
}

impl Default for RunLimit {
    fn default() -> Self {
        RunLimit {
            max_events: 2_000_000_000,
            max_time: Tick::MAX,
        }
    }
}

/// Per-delivery context handed to [`Module::handle`].
///
/// Lets the module read time, learn its own id, allocate packet ids and
/// schedule outgoing messages. Each send is stamped with the kernel's
/// sequence counter at call time and pushed straight into the event
/// queue, so simultaneous deliveries drain in call order and stay
/// deterministic. If a handler panics mid-flight, its partial sends are
/// discarded before the kernel resumes (callers may `catch_unwind` around
/// a run).
pub struct Ctx<'a> {
    now: Tick,
    self_id: ModuleId,
    queue: &'a mut EventQueue<Ev>,
    seq: &'a mut u64,
    module_count: usize,
    next_pkt_id: &'a mut u64,
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Id of the module currently handling a message.
    pub fn self_id(&self) -> ModuleId {
        self.self_id
    }

    /// Allocate a globally unique packet id.
    pub fn alloc_pkt_id(&mut self) -> u64 {
        let id = *self.next_pkt_id;
        *self.next_pkt_id += 1;
        id
    }

    /// Stamp one send and push it into the queue (common tail of the
    /// `send` family).
    #[inline(always)]
    fn push(&mut self, when: Tick, dst: ModuleId, msg: Msg) {
        // One compare covers both wiring bugs: `ModuleId::INVALID` is
        // past every registered index.
        if dst.index() >= self.module_count {
            self.bad_destination(dst);
        }
        self.queue.push(when, *self.seq, (dst, msg));
        *self.seq += 1;
    }

    #[cold]
    #[inline(never)]
    fn bad_destination(&self, dst: ModuleId) -> ! {
        if dst.is_valid() {
            panic!("message sent to unknown module {dst}");
        }
        panic!("send to unwired port from {}", self.self_id);
    }

    /// Deliver `msg` to `dst` after `delay` ticks.
    ///
    /// Sends are sequence-stamped in call order, so simultaneous
    /// deliveries drain in the order they were sent and results stay
    /// deterministic.
    ///
    /// ```
    /// use accesys_sim::{Ctx, Kernel, Module, ModuleId, Msg, units};
    ///
    /// struct Relay {
    ///     name: &'static str,
    ///     peer: ModuleId,
    /// }
    /// impl Module for Relay {
    ///     fn name(&self) -> &str {
    ///         self.name
    ///     }
    ///     fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
    ///         if let (Msg::Timer(tag), true) = (&msg, self.peer.is_valid()) {
    ///             // Forward the tag to the peer 2 ns from now.
    ///             ctx.send(self.peer, units::ns(2.0), Msg::Timer(tag + 1));
    ///         }
    ///     }
    /// }
    ///
    /// let mut kernel = Kernel::new();
    /// let sink = kernel.add_module(Box::new(Relay { name: "sink", peer: ModuleId::INVALID }));
    /// let relay = kernel.add_module(Box::new(Relay { name: "relay", peer: sink }));
    /// kernel.schedule(units::ns(1.0), relay, Msg::Timer(7));
    /// let end = kernel.run_until_idle().unwrap();
    /// assert_eq!(end, units::ns(3.0)); // 1 ns kick-off + 2 ns forward
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `dst` is [`ModuleId::INVALID`] or not registered with
    /// this kernel, which indicates a wiring bug in the system builder.
    #[inline(always)]
    pub fn send(&mut self, dst: ModuleId, delay: Tick, msg: Msg) {
        self.push(self.now + delay, dst, msg);
    }

    /// Deliver `msg` to `dst` at absolute time `at` (clamped to `now`).
    #[inline(always)]
    pub fn send_at(&mut self, dst: ModuleId, at: Tick, msg: Msg) {
        self.push(at.max(self.now), dst, msg);
    }

    /// Schedule a [`Msg::Timer`] to self after `delay` ticks.
    #[inline(always)]
    pub fn timer(&mut self, delay: Tick, tag: u64) {
        let dst = self.self_id;
        self.send(dst, delay, Msg::Timer(tag));
    }
}

/// The discrete-event simulator: owns all modules and the event queue.
///
/// Events are processed in a strict `(tick, sequence)` total order: time
/// first, insertion order among simultaneous events. The queue behind
/// that order is the two-level [`EventQueue`] (calendar ring + overflow
/// heap); it drains in exactly the order a plain binary heap would, just
/// faster. A kernel owns its whole world — modules, queue, packet-id
/// allocator — so independent kernels never share state and can run on
/// separate threads (the contract the parallel sweep engine in
/// `accesys-exp` relies on).
///
/// Module names must be unique within a kernel: statistics are keyed by
/// `"<name>.<counter>"`, so [`Kernel::add_module`] and
/// [`Kernel::set_module`] panic on a duplicate rather than letting two
/// modules silently merge their counters.
///
/// ```
/// use accesys_sim::{Ctx, Kernel, Module, Msg, Stats, units};
///
/// struct Counter {
///     fired: u64,
/// }
/// impl Module for Counter {
///     fn name(&self) -> &str {
///         "counter"
///     }
///     fn handle(&mut self, _msg: Msg, _ctx: &mut Ctx) {
///         self.fired += 1;
///     }
///     fn report(&self, out: &mut Stats) {
///         out.add("fired", self.fired as f64);
///     }
/// }
///
/// let mut kernel = Kernel::new();
/// let id = kernel.add_module(Box::new(Counter { fired: 0 }));
/// kernel.schedule(units::ns(5.0), id, Msg::Timer(0));
/// kernel.schedule(units::ns(9.0), id, Msg::Timer(1));
/// let end = kernel.run_until_idle().unwrap();
/// assert_eq!(end, units::ns(9.0));
/// assert_eq!(kernel.stats().get("counter.fired"), Some(2.0));
/// ```
pub struct Kernel {
    time: Tick,
    seq: u64,
    next_pkt_id: u64,
    queue: EventQueue<Ev>,
    modules: Vec<Box<dyn Module>>,
    events_processed: u64,
    tracer: Option<Box<dyn Tracer>>,
    /// First sequence number the currently running handler may stamp.
    /// Set before each dispatch and cleared when the handler returns; if
    /// a panic unwinds past `run`, the surviving mark tells the next
    /// `run`/`schedule` which queued events to strip (the aborted
    /// handler's partial sends).
    panic_strip_from: Option<u64>,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    /// Create an empty kernel at tick 0.
    pub fn new() -> Self {
        Kernel {
            time: 0,
            seq: 0,
            next_pkt_id: 0,
            queue: EventQueue::new(),
            modules: Vec::new(),
            events_processed: 0,
            tracer: None,
            panic_strip_from: None,
        }
    }

    /// Install an event [`Tracer`] (replacing any previous one).
    ///
    /// The tracer observes every delivery until removed. Install *before*
    /// running; events processed earlier are not replayed.
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.tracer = Some(tracer);
    }

    /// Downcast the installed tracer for inspection.
    pub fn tracer<T: Tracer>(&self) -> Option<&T> {
        self.tracer.as_ref()?.as_any().downcast_ref::<T>()
    }

    /// Register a module and return its id.
    ///
    /// # Panics
    ///
    /// Panics if another registered module already uses the same name:
    /// stats are keyed by `"<name>.<counter>"`, and a duplicate name
    /// would silently merge two modules' counters.
    pub fn add_module(&mut self, module: Box<dyn Module>) -> ModuleId {
        self.assert_unique_name(module.name(), None);
        let id = ModuleId::from_index(self.modules.len());
        self.modules.push(module);
        id
    }

    /// Panic if `name` is already taken by a module other than `skip`.
    fn assert_unique_name(&self, name: &str, skip: Option<usize>) {
        for (i, existing) in self.modules.iter().enumerate() {
            if Some(i) != skip && existing.name() == name {
                panic!(
                    "duplicate module name {name:?} (already registered as {}); \
                     module names key per-module stats and must be unique",
                    ModuleId::from_index(i)
                );
            }
        }
    }

    /// Reserve a module slot, returning its id before the module exists.
    ///
    /// System builders use this to wire cyclic topologies (A needs B's id
    /// and vice versa): reserve every id first, then construct the
    /// modules and install them with [`Kernel::set_module`]. Delivering a
    /// message to an unfilled placeholder panics.
    pub fn add_placeholder(&mut self) -> ModuleId {
        struct Placeholder {
            name: String,
        }
        impl Module for Placeholder {
            fn name(&self) -> &str {
                &self.name
            }
            fn handle(&mut self, _msg: Msg, ctx: &mut Ctx) {
                panic!(
                    "message delivered to unfilled placeholder module {}",
                    ctx.self_id()
                );
            }
        }
        // Indexed name so placeholders satisfy the uniqueness check that
        // add_module applies to every registration.
        let name = format!("placeholder{}", self.modules.len());
        self.add_module(Box::new(Placeholder { name }))
    }

    /// Install `module` into a slot reserved by [`Kernel::add_placeholder`].
    ///
    /// # Panics
    ///
    /// Panics if `id` was never allocated, or if the module's name is
    /// already taken by a module in another slot (see
    /// [`Kernel::add_module`]).
    pub fn set_module(&mut self, id: ModuleId, module: Box<dyn Module>) {
        self.assert_unique_name(module.name(), Some(id.index()));
        let slot = self
            .modules
            .get_mut(id.index())
            .unwrap_or_else(|| panic!("set_module on unknown id {id}"));
        *slot = module;
    }

    /// Number of registered modules.
    pub fn module_count(&self) -> usize {
        self.modules.len()
    }

    /// Current simulated time.
    pub fn now(&self) -> Tick {
        self.time
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// High-water mark of the event queue (pending events), for capacity
    /// planning and perf reports.
    pub fn peak_queue_depth(&self) -> usize {
        self.queue.peak_len()
    }

    /// Strip events that a panicking handler pushed into the queue
    /// before it aborted. The direct sink commits sends eagerly, so a
    /// caller that catches the panic and resumes must not see the
    /// aborted handler's half-finished output; the surviving
    /// [`Kernel::panic_strip_from`] mark bounds exactly those events.
    fn discard_aborted_sends(&mut self) {
        let Some(mark) = self.panic_strip_from.take() else {
            return;
        };
        for (when, seq, payload) in self.queue.drain_all() {
            if seq < mark {
                self.queue.push(when, seq, payload);
            }
        }
    }

    /// Schedule a message from outside any module (used to kick off runs).
    pub fn schedule(&mut self, at: Tick, dst: ModuleId, msg: Msg) {
        assert!(dst.is_valid(), "schedule to invalid module id");
        assert!(
            dst.index() < self.modules.len(),
            "schedule to unknown module {dst}"
        );
        // A post-panic schedule would otherwise stamp a sequence number
        // at or past the strip mark and be discarded with the aborted
        // handler's sends; recover first.
        self.discard_aborted_sends();
        self.queue.push(at.max(self.time), self.seq, (dst, msg));
        self.seq += 1;
    }

    /// Run until the event queue drains, with default [`RunLimit`]s.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimitExceeded`] if the event budget runs
    /// out, which indicates a protocol livelock.
    pub fn run_until_idle(&mut self) -> Result<Tick, SimError> {
        self.run(RunLimit::default())
    }

    /// Run until idle, a time bound, or an event budget — whichever first.
    ///
    /// Stopping on `limit.max_time` is not an error: every event at or
    /// before the bound is delivered, the first event past it stays
    /// queued, and the clock is left at the last delivered event's tick
    /// (see [`RunLimit::max_time`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimitExceeded`] if `limit.max_events` is
    /// exhausted before the queue drains.
    pub fn run(&mut self, limit: RunLimit) -> Result<Tick, SimError> {
        // If a previous run was aborted by a handler panic (callers may
        // catch_unwind around a run), the aborted handler's partial sends
        // are already committed to the queue; strip them rather than
        // deliver them as if the handler had completed.
        self.discard_aborted_sends();
        // Saturating: max_events = u64::MAX means "unlimited" and must
        // not overflow when added to a prior run's event count.
        let budget_end = self.events_processed.saturating_add(limit.max_events);
        // Disjoint field borrows: handlers push into the queue while
        // `modules` is borrowed, with no per-event `mem::take` round-trip.
        let Kernel {
            time,
            seq,
            next_pkt_id,
            queue,
            modules,
            events_processed,
            tracer,
            panic_strip_from,
        } = self;
        let module_count = modules.len();
        while let Some(when) = queue.peek_when() {
            if when > limit.max_time {
                break;
            }
            if *events_processed >= budget_end {
                return Err(SimError::EventLimitExceeded {
                    limit: limit.max_events,
                    at: *time,
                });
            }
            let (when, _, (dst, msg)) = queue.pop().expect("peeked event vanished");
            debug_assert!(when >= *time, "time went backwards");
            *time = when;
            *events_processed += 1;
            let module = modules
                .get_mut(dst.index())
                .unwrap_or_else(|| panic!("event for unknown module {dst}"));
            if let Some(tracer) = tracer.as_mut() {
                tracer.on_event(when, dst, module.name(), &msg);
            }
            // Anything the handler stamps from here on is struck from the
            // queue if it panics (see discard_aborted_sends).
            *panic_strip_from = Some(*seq);
            let mut ctx = Ctx {
                now: when,
                self_id: dst,
                queue,
                seq,
                module_count,
                next_pkt_id,
            };
            module.handle(msg, &mut ctx);
            *panic_strip_from = None;
        }
        Ok(*time)
    }

    /// Downcast a module by id.
    pub fn module<T: Module>(&self, id: ModuleId) -> Option<&T> {
        self.modules.get(id.index())?.as_any().downcast_ref::<T>()
    }

    /// Downcast a module by id, mutably.
    pub fn module_mut<T: Module>(&mut self, id: ModuleId) -> Option<&mut T> {
        self.modules
            .get_mut(id.index())?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Collect statistics from every module, keys prefixed by module name.
    pub fn stats(&self) -> Stats {
        let mut all = Stats::new();
        for module in &self.modules {
            let mut local = Stats::new();
            module.report(&mut local);
            for (k, v) in local.iter() {
                all.add(&format!("{}.{}", module.name(), k), *v);
            }
        }
        all.add("kernel.events", self.events_processed as f64);
        all.add("kernel.final_tick", self.time as f64);
        all.add("kernel.peak_queue_depth", self.queue.peak_len() as f64);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units;

    /// Records the order and time of every timer it receives, and can
    /// forward pings to a peer.
    struct Recorder {
        name: String,
        peer: ModuleId,
        log: Vec<(Tick, u64)>,
    }

    impl Module for Recorder {
        fn name(&self) -> &str {
            &self.name
        }
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
            match msg {
                Msg::Timer(tag) => {
                    self.log.push((ctx.now(), tag));
                    if tag >= 100 && self.peer.is_valid() {
                        // Forward a derived ping to the peer 3ns later.
                        ctx.send(self.peer, units::ns(3.0), Msg::Timer(tag - 100));
                    }
                }
                _ => panic!("unexpected message"),
            }
        }
        fn report(&self, out: &mut Stats) {
            out.add("timers", self.log.len() as f64);
        }
    }

    fn recorder(name: &str, peer: ModuleId) -> Box<Recorder> {
        Box::new(Recorder {
            name: name.to_string(),
            peer,
            log: Vec::new(),
        })
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut k = Kernel::new();
        let a = k.add_module(recorder("a", ModuleId::INVALID));
        k.schedule(units::ns(10.0), a, Msg::Timer(1));
        k.schedule(units::ns(5.0), a, Msg::Timer(2));
        k.schedule(units::ns(7.0), a, Msg::Timer(3));
        let end = k.run_until_idle().unwrap();
        assert_eq!(end, units::ns(10.0));
        let log = &k.module::<Recorder>(a).unwrap().log;
        assert_eq!(
            log,
            &vec![
                (units::ns(5.0), 2),
                (units::ns(7.0), 3),
                (units::ns(10.0), 1)
            ]
        );
    }

    #[test]
    fn simultaneous_events_fire_in_schedule_order() {
        let mut k = Kernel::new();
        let a = k.add_module(recorder("a", ModuleId::INVALID));
        for tag in 0..8 {
            k.schedule(units::ns(4.0), a, Msg::Timer(tag));
        }
        k.run_until_idle().unwrap();
        let tags: Vec<u64> = k
            .module::<Recorder>(a)
            .unwrap()
            .log
            .iter()
            .map(|&(_, t)| t)
            .collect();
        assert_eq!(tags, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn modules_exchange_messages() {
        let mut k = Kernel::new();
        let b = k.add_module(recorder("b", ModuleId::INVALID));
        let a = k.add_module(recorder("a", b));
        k.schedule(units::ns(1.0), a, Msg::Timer(107));
        k.run_until_idle().unwrap();
        let b_log = &k.module::<Recorder>(b).unwrap().log;
        assert_eq!(b_log, &vec![(units::ns(4.0), 7)]);
    }

    #[test]
    fn event_limit_reports_livelock() {
        struct Looper;
        impl Module for Looper {
            fn name(&self) -> &str {
                "looper"
            }
            fn handle(&mut self, _msg: Msg, ctx: &mut Ctx) {
                ctx.timer(1, 0);
            }
        }
        let mut k = Kernel::new();
        let a = k.add_module(Box::new(Looper));
        k.schedule(0, a, Msg::Timer(0));
        let err = k
            .run(RunLimit {
                max_events: 1000,
                max_time: Tick::MAX,
            })
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::EventLimitExceeded { limit: 1000, .. }
        ));
    }

    #[test]
    fn max_time_stops_early_without_error() {
        let mut k = Kernel::new();
        let a = k.add_module(recorder("a", ModuleId::INVALID));
        k.schedule(units::ns(5.0), a, Msg::Timer(0));
        k.schedule(units::ns(500.0), a, Msg::Timer(1));
        k.run(RunLimit {
            max_events: u64::MAX,
            max_time: units::ns(100.0),
        })
        .unwrap();
        assert_eq!(k.module::<Recorder>(a).unwrap().log.len(), 1);
        // The far-future event is still queued and can be drained later.
        k.run_until_idle().unwrap();
        assert_eq!(k.module::<Recorder>(a).unwrap().log.len(), 2);
    }

    #[test]
    fn stats_are_prefixed_by_module_name() {
        let mut k = Kernel::new();
        let a = k.add_module(recorder("front", ModuleId::INVALID));
        k.schedule(0, a, Msg::Timer(0));
        k.run_until_idle().unwrap();
        let stats = k.stats();
        assert_eq!(stats.get("front.timers"), Some(1.0));
        assert_eq!(stats.get("kernel.events"), Some(1.0));
    }

    #[test]
    fn partial_sends_of_a_panicking_handler_are_discarded() {
        struct Bomb {
            peer: ModuleId,
        }
        impl Module for Bomb {
            fn name(&self) -> &str {
                "bomb"
            }
            fn handle(&mut self, _msg: Msg, ctx: &mut Ctx) {
                ctx.send(self.peer, 1, Msg::Timer(9));
                panic!("handler aborts after a buffered send");
            }
        }
        let mut k = Kernel::new();
        let sink = k.add_module(recorder("sink", ModuleId::INVALID));
        let bomb = k.add_module(Box::new(Bomb { peer: sink }));
        k.schedule(0, bomb, Msg::Timer(0));
        let panicked =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| k.run_until_idle())).is_err();
        assert!(panicked);
        // Resuming the kernel must not deliver the aborted handler's send.
        k.run_until_idle().unwrap();
        assert!(k.module::<Recorder>(sink).unwrap().log.is_empty());
    }

    #[test]
    fn unlimited_event_budget_does_not_overflow() {
        // Regression: `events_processed + u64::MAX` used to overflow in
        // debug builds once any events had been processed.
        let mut k = Kernel::new();
        let a = k.add_module(recorder("a", ModuleId::INVALID));
        k.schedule(0, a, Msg::Timer(0));
        k.run_until_idle().unwrap(); // events_processed is now nonzero
        k.schedule(k.now() + 1, a, Msg::Timer(1));
        k.run(RunLimit {
            max_events: u64::MAX,
            max_time: Tick::MAX,
        })
        .unwrap();
        assert_eq!(k.module::<Recorder>(a).unwrap().log.len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate module name")]
    fn duplicate_module_names_panic_at_registration() {
        let mut k = Kernel::new();
        k.add_module(recorder("twin", ModuleId::INVALID));
        k.add_module(recorder("twin", ModuleId::INVALID));
    }

    #[test]
    #[should_panic(expected = "duplicate module name")]
    fn set_module_rejects_a_name_taken_by_another_slot() {
        let mut k = Kernel::new();
        k.add_module(recorder("taken", ModuleId::INVALID));
        let slot = k.add_placeholder();
        k.set_module(slot, recorder("taken", ModuleId::INVALID));
    }

    #[test]
    fn set_module_may_reuse_its_own_slots_name() {
        // Replacing a module with a same-named one (e.g. re-installing
        // over a previous install) is not a duplicate.
        let mut k = Kernel::new();
        let slot = k.add_placeholder();
        k.set_module(slot, recorder("self", ModuleId::INVALID));
        k.set_module(slot, recorder("self", ModuleId::INVALID));
        assert_eq!(k.module_count(), 1);
    }

    #[test]
    fn placeholders_do_not_collide_with_each_other() {
        let mut k = Kernel::new();
        let a = k.add_placeholder();
        let b = k.add_placeholder();
        k.set_module(a, recorder("left", ModuleId::INVALID));
        k.set_module(b, recorder("right", ModuleId::INVALID));
        assert_eq!(k.module_count(), 2);
    }

    #[test]
    fn peak_queue_depth_is_reported() {
        let mut k = Kernel::new();
        let a = k.add_module(recorder("a", ModuleId::INVALID));
        for i in 0..5 {
            k.schedule(i, a, Msg::Timer(i));
        }
        assert_eq!(k.peak_queue_depth(), 5);
        k.run_until_idle().unwrap();
        assert_eq!(k.stats().get("kernel.peak_queue_depth"), Some(5.0));
    }

    #[test]
    fn packet_ids_are_unique() {
        struct Alloc {
            ids: Vec<u64>,
        }
        impl Module for Alloc {
            fn name(&self) -> &str {
                "alloc"
            }
            fn handle(&mut self, _msg: Msg, ctx: &mut Ctx) {
                for _ in 0..4 {
                    self.ids.push(ctx.alloc_pkt_id());
                }
            }
        }
        let mut k = Kernel::new();
        let a = k.add_module(Box::new(Alloc { ids: vec![] }));
        k.schedule(0, a, Msg::Timer(0));
        k.schedule(1, a, Msg::Timer(0));
        k.run_until_idle().unwrap();
        let ids = &k.module::<Alloc>(a).unwrap().ids;
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
    }
}
