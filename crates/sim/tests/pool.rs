//! Packet-slab correctness: recycling boxes through [`PacketPool`] must
//! be invisible to the simulation.
//!
//! Two families of tests:
//!
//! * **Trace equivalence** — a pseudo-random schedule/drain workload
//!   (packets allocated, mutated, forwarded hop-to-hop, and dropped at
//!   random) run once with the pool bypassed (every box fresh from the
//!   global allocator — the pre-pool behaviour) and once with recycling
//!   on. The full observable trace, including every packet field, must
//!   be byte-identical.
//! * **Reuse/leak invariants** — live handles are never aliased, freed
//!   boxes are always reused before the pool falls back to the global
//!   allocator, and a recycled box carries no trace of its previous
//!   occupant.

use accesys_sim::{
    Ctx, Kernel, MemCmd, Module, ModuleId, Msg, Packet, PacketBox, PacketPool, Tick,
};

/// Deterministic 64-bit LCG (Knuth MMIX constants).
struct Lcg(u64);

impl Lcg {
    fn step(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// One observable delivery: the receive tick plus every packet field
/// that could leak state from a mis-recycled box.
type TraceRec = (Tick, u64, u8, u64, u32, bool, u16, u32, Tick, usize);

fn record(now: Tick, p: &Packet) -> TraceRec {
    (
        now,
        p.id,
        p.cmd as u8,
        p.addr,
        p.size,
        p.virt,
        p.stream,
        p.tag,
        p.issued_at,
        p.route.len(),
    )
}

/// Random packet churn: on every timer, allocate a packet with
/// LCG-derived fields and send it to a random peer; on every packet,
/// log it, then randomly forward the same box (mutated), bounce a
/// response, or drop it (which recycles the box).
struct Churn {
    name: String,
    peers: Vec<ModuleId>,
    lcg: Lcg,
    trace: Vec<TraceRec>,
}

impl Module for Churn {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, msg: Msg, ctx: &mut Ctx) {
        match msg {
            Msg::Timer(remaining) => {
                if remaining == 0 {
                    return;
                }
                let r = self.lcg.step();
                let mut pkt = Packet::request(
                    ctx.alloc_pkt_id(),
                    if r & 1 == 0 {
                        MemCmd::ReadReq
                    } else {
                        MemCmd::WriteReq
                    },
                    r & 0xffff_f000,
                    64u32 << (r % 4),
                    ctx.now(),
                );
                pkt.stream = (r % 7) as u16;
                pkt.tag = (r % 97) as u32;
                let dst = self.peers[(r % self.peers.len() as u64) as usize];
                ctx.send(dst, 1 + r % 400, Msg::packet(pkt));
                ctx.timer(1 + r % 150, remaining - 1);
            }
            Msg::Packet(mut pkt) => {
                self.trace.push(record(ctx.now(), &pkt));
                let r = self.lcg.step();
                match r % 3 {
                    0 => {
                        // Forward the same box with a mutation.
                        pkt.addr ^= 0x40;
                        pkt.tag = pkt.tag.wrapping_add(1);
                        let dst = self.peers[(r % self.peers.len() as u64) as usize];
                        ctx.send(dst, 1 + r % 200, Msg::Packet(pkt));
                    }
                    1 if pkt.cmd.is_request() => {
                        pkt.make_response();
                        let dst = self.peers[(r % self.peers.len() as u64) as usize];
                        ctx.send(dst, 1 + r % 200, Msg::Packet(pkt));
                    }
                    // Drop: the box goes back to the pool here.
                    _ => {}
                }
            }
            _ => panic!("unexpected message"),
        }
    }
}

/// Run the churn workload to completion and return each module's trace.
fn run_churn(seed: u64) -> Vec<Vec<TraceRec>> {
    let mut k = Kernel::new();
    let ids: Vec<ModuleId> = (0..4)
        .map(|i| {
            k.add_module(Box::new(Churn {
                name: format!("churn{i}"),
                peers: Vec::new(),
                lcg: Lcg(seed ^ u64::wrapping_mul(i, 0x9e37_79b9_7f4a_7c15)),
                trace: Vec::new(),
            }))
        })
        .collect();
    for &id in &ids {
        let peers: Vec<ModuleId> = ids.iter().copied().filter(|&p| p != id).collect();
        k.module_mut::<Churn>(id).unwrap().peers = peers;
    }
    for (i, &id) in ids.iter().enumerate() {
        k.schedule(i as Tick, id, Msg::Timer(200));
    }
    k.run_until_idle().unwrap();
    ids.iter()
        .map(|&id| k.module::<Churn>(id).unwrap().trace.clone())
        .collect()
}

#[test]
fn pooled_trace_is_byte_identical_to_fresh_boxes() {
    for seed in [1, 0xdead_beef, 42] {
        // Pre-pool behaviour: every alloc fresh, every drop freed.
        PacketPool::set_bypass(true);
        let fresh = run_churn(seed);
        let bypassed = PacketPool::stats();
        assert_eq!(bypassed.reused, 0, "bypass must never recycle");

        // Pooled behaviour, starting cold and recycling throughout.
        PacketPool::set_bypass(false);
        PacketPool::reset_stats();
        let pooled = run_churn(seed);
        let stats = PacketPool::stats();

        assert_eq!(
            pooled, fresh,
            "recycled boxes changed the trace (seed {seed})"
        );
        assert!(
            stats.reused > 0,
            "workload never exercised recycling (seed {seed})"
        );
        PacketPool::reset_stats();
    }
}

#[test]
fn pool_warms_up_to_zero_fresh_allocations() {
    PacketPool::set_bypass(false);
    // Cold run fills the pool to the workload's peak concurrency...
    run_churn(7);
    PacketPool::reset_stats();
    // ...so an identical second run allocates nothing at all.
    run_churn(7);
    let stats = PacketPool::stats();
    assert_eq!(stats.fresh, 0, "warm run still hit the global allocator");
    assert!(stats.reused > 0);
    PacketPool::reset_stats();
}

#[test]
fn live_handles_are_never_aliased() {
    PacketPool::set_bypass(false);
    let live: Vec<PacketBox> = (0..256)
        .map(|i| PacketPool::alloc(Packet::request(i, MemCmd::ReadReq, i * 64, 64, 0)))
        .collect();
    let mut ptrs: Vec<*const Packet> = live.iter().map(|b| &**b as *const Packet).collect();
    ptrs.sort();
    ptrs.dedup();
    assert_eq!(ptrs.len(), live.len(), "two live handles share storage");
    // And every handle still holds exactly what was written through it.
    for (i, b) in live.iter().enumerate() {
        assert_eq!(b.id, i as u64);
        assert_eq!(b.addr, i as u64 * 64);
    }
}

#[test]
fn freed_boxes_are_reused_before_the_allocator_is_touched() {
    PacketPool::set_bypass(false);
    // Park some boxes in the pool.
    let boxes: Vec<PacketBox> = (0..32)
        .map(|i| PacketPool::alloc(Packet::request(i, MemCmd::ReadReq, 0, 64, 0)))
        .collect();
    drop(boxes);
    let idle = PacketPool::free_len();
    assert!(idle >= 32);

    // While the free list is non-empty, alloc must never go to the
    // global allocator.
    PacketPool::reset_stats();
    let drained: Vec<PacketBox> = (0..idle as u64)
        .map(|i| PacketPool::alloc(Packet::request(i, MemCmd::WriteReq, 0, 64, 0)))
        .collect();
    let stats = PacketPool::stats();
    assert_eq!(stats.reused, idle as u64, "free list skipped");
    assert_eq!(stats.fresh, 0, "allocator touched while boxes were idle");
    assert_eq!(PacketPool::free_len(), 0);

    // Only an empty pool falls back to a fresh box.
    let extra = PacketPool::alloc(Packet::request(99, MemCmd::ReadReq, 0, 64, 0));
    assert_eq!(PacketPool::stats().fresh, 1);
    drop(extra);
    drop(drained);
    PacketPool::reset_stats();
}

#[test]
fn recycled_boxes_carry_no_trace_of_their_previous_occupant() {
    PacketPool::set_bypass(false);
    let mut first = PacketPool::alloc(Packet::request(7, MemCmd::WriteReq, 0xabcd_e000, 4096, 123));
    first.virt = true;
    first.stream = 9;
    first.tag = 77;
    let addr_of_first = &*first as *const Packet;
    drop(first);

    // The next alloc reuses that exact storage...
    let recycled = PacketPool::alloc(Packet::request(8, MemCmd::ReadReq, 0x1000, 64, 456));
    assert_eq!(
        &*recycled as *const Packet, addr_of_first,
        "expected the freed box to be recycled"
    );
    // ...and is indistinguishable from a fresh construction.
    let reference = Packet::request(8, MemCmd::ReadReq, 0x1000, 64, 456);
    assert_eq!(format!("{:?}", *recycled), format!("{reference:?}"));
    drop(recycled);
    PacketPool::reset_stats();
}

#[test]
fn bypass_clears_the_pool_and_forces_fresh_allocations() {
    PacketPool::set_bypass(false);
    drop(PacketPool::alloc(Packet::request(
        1,
        MemCmd::ReadReq,
        0,
        64,
        0,
    )));
    assert!(PacketPool::free_len() > 0);

    PacketPool::set_bypass(true);
    assert_eq!(PacketPool::free_len(), 0, "bypass must drain the pool");
    PacketPool::reset_stats();
    let a = PacketPool::alloc(Packet::request(2, MemCmd::ReadReq, 0, 64, 0));
    drop(a);
    let b = PacketPool::alloc(Packet::request(3, MemCmd::ReadReq, 0, 64, 0));
    let stats = PacketPool::stats();
    assert_eq!(stats.fresh, 2, "bypassed allocs must not recycle");
    assert_eq!(stats.reused, 0);
    drop(b);

    PacketPool::set_bypass(false);
    PacketPool::reset_stats();
}
