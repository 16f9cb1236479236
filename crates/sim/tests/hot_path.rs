//! The send → queue → dispatch path: every `Msg` variant travels through
//! `Ctx` into the event queue and back out in `(tick, seq)` order, and
//! the kernel's depth statistics survive a caught handler panic.

use accesys_sim::{CreditClass, Ctx, Kernel, MemCmd, Module, ModuleId, Msg, Packet, Tick};

/// The control-plane payload carried by the `Custom` variant.
#[derive(Debug, PartialEq)]
struct Doorbell {
    job: u32,
    note: String,
}

/// What the sink saw: the delivery tick plus a decoded message.
#[derive(Debug, PartialEq)]
enum Seen {
    Packet { id: u64, addr: u64 },
    Credit { class: CreditClass, bytes: u32 },
    Timer(u64),
    Custom(Doorbell),
}

struct Receiver {
    log: Vec<(Tick, Seen)>,
}

impl Module for Receiver {
    fn name(&self) -> &str {
        "sink"
    }
    fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
        let seen = match msg {
            Msg::Packet(p) => Seen::Packet {
                id: p.id,
                addr: p.addr,
            },
            Msg::Credit(c) => Seen::Credit {
                class: c.class(),
                bytes: c.bytes(),
            },
            Msg::Timer(tag) => Seen::Timer(tag),
            custom => Seen::Custom(
                custom
                    .into_custom::<Doorbell>()
                    .unwrap_or_else(|_| panic!("custom payload lost its type")),
            ),
        };
        self.log.push((ctx.now(), seen));
    }
}

/// On its kick-off timer, sends one of each variant at a late tick, then
/// one of each at an earlier tick, all to `peer`.
struct Source {
    peer: ModuleId,
}

impl Source {
    fn burst(&self, ctx: &mut Ctx, delay: Tick, base: u64) {
        let id = ctx.alloc_pkt_id();
        let pkt = Packet::request(id, MemCmd::ReadReq, 0x1000 + base, 64, ctx.now());
        ctx.send(self.peer, delay, Msg::packet(pkt));
        ctx.send(
            self.peer,
            delay,
            Msg::credit(CreditClass::Completion, 0xABCD_0000 | base as u32),
        );
        ctx.send_at(self.peer, ctx.now() + delay, Msg::Timer(u64::MAX - base));
        ctx.send(
            self.peer,
            delay,
            Msg::custom(Doorbell {
                job: base as u32,
                note: format!("burst {base}"),
            }),
        );
    }
}

impl Module for Source {
    fn name(&self) -> &str {
        "source"
    }
    fn handle(&mut self, _msg: Msg, ctx: &mut Ctx) {
        self.burst(ctx, 500, 1);
        self.burst(ctx, 200, 2);
    }
}

fn expected_burst(at: Tick, id: u64, base: u64) -> Vec<(Tick, Seen)> {
    vec![
        (
            at,
            Seen::Packet {
                id,
                addr: 0x1000 + base,
            },
        ),
        (
            at,
            Seen::Credit {
                class: CreditClass::Completion,
                bytes: 0xABCD_0000 | base as u32,
            },
        ),
        (at, Seen::Timer(u64::MAX - base)),
        (
            at,
            Seen::Custom(Doorbell {
                job: base as u32,
                note: format!("burst {base}"),
            }),
        ),
    ]
}

#[test]
fn every_variant_is_delivered_in_tick_then_send_order() {
    let mut k = Kernel::new();
    let sink = k.add_module(Box::new(Receiver { log: Vec::new() }));
    let source = k.add_module(Box::new(Source { peer: sink }));
    k.schedule(1_000, source, Msg::Timer(0));
    let end = k.run_until_idle().unwrap();
    assert_eq!(end, 1_500);
    assert_eq!(k.events_processed(), 9);

    // The earlier tick drains first; within a tick, send (call) order.
    let mut expected = expected_burst(1_200, 1, 2);
    expected.extend(expected_burst(1_500, 0, 1));
    assert_eq!(k.module::<Receiver>(sink).unwrap().log, expected);
}

/// Sends `fanout` timers to `peer`, then panics on its first delivery.
struct Bomb {
    peer: ModuleId,
    fanout: u64,
}

impl Module for Bomb {
    fn name(&self) -> &str {
        "bomb"
    }
    fn handle(&mut self, _msg: Msg, ctx: &mut Ctx) {
        for tag in 0..self.fanout {
            ctx.send(self.peer, 10, Msg::Timer(tag));
        }
        self.fanout = 0;
        panic!("handler aborts after its sends");
    }
}

#[test]
fn peak_queue_depth_keeps_the_pre_panic_high_water_mark() {
    let mut k = Kernel::new();
    let sink = k.add_module(Box::new(Receiver { log: Vec::new() }));
    let bomb = k.add_module(Box::new(Bomb {
        peer: sink,
        fanout: 5,
    }));
    k.schedule(0, bomb, Msg::Timer(0));
    k.schedule(100, sink, Msg::Timer(100));
    k.schedule(200, sink, Msg::Timer(200));
    assert_eq!(k.peak_queue_depth(), 3);

    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| k.run_until_idle()));
    assert!(run.is_err(), "the bomb must panic");
    // Two scheduled events plus the aborted handler's five sends were
    // queued at once before the panic.
    assert_eq!(k.peak_queue_depth(), 7);

    // Resuming strips the aborted sends; the high-water mark stays.
    k.run_until_idle().unwrap();
    let tags: Vec<Seen> = k
        .module_mut::<Receiver>(sink)
        .unwrap()
        .log
        .drain(..)
        .map(|(_, seen)| seen)
        .collect();
    assert_eq!(tags, vec![Seen::Timer(100), Seen::Timer(200)]);
    assert_eq!(k.peak_queue_depth(), 7);
    assert_eq!(k.stats().get("kernel.peak_queue_depth"), Some(7.0));
}
