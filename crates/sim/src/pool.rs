//! Thread-local packet slab: recycled `Box<Packet>` storage so
//! steady-state simulation allocates approximately zero.
//!
//! Every in-flight packet lives on the heap (a [`Msg::Packet`] node must
//! stay pointer-sized), and before this pool existed each packet paid one
//! `malloc` at creation and one `free` when the response was consumed.
//! [`PacketPool`] keeps the freed boxes on a per-thread free list instead:
//! [`PacketPool::alloc`] pops a recycled box when one is available and
//! only falls back to the global allocator when the pool is dry, and
//! dropping a [`PacketBox`] pushes its storage back onto the list. After
//! a short warm-up the pool reaches the simulation's peak packet
//! concurrency and the hot loop stops touching the allocator entirely —
//! the root crate's `tests/alloc_diet.rs` counts allocator hits across a
//! warmed run to check exactly this.
//!
//! The free list is thread-local on purpose: every kernel runs on one
//! thread (parallel sweeps run whole simulations side by side on the
//! `accesys-exp` pool), so a thread-local list needs no locks. A box
//! freed on a different thread from where it was allocated — a packet
//! that outlives its simulation and is dropped elsewhere — simply joins
//! that thread's pool. Recycling never changes observable behaviour:
//! [`PacketPool::alloc`] overwrites the full [`Packet`] value before
//! handing the box out, so a recycled packet is byte-identical to a
//! freshly boxed one (property-tested in `tests/pool.rs`).
//!
//! [`Msg::Packet`]: crate::Msg::Packet

use crate::Packet;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::mem::ManuallyDrop;
use std::ops::{Deref, DerefMut};

/// Upper bound on recycled boxes kept per thread. Beyond this the pool
/// frees excess boxes instead of hoarding them; 64k packets × 72 bytes
/// ≈ 4.5 MB per worker, far above any observed in-flight peak.
const POOL_CAP: usize = 1 << 16;

thread_local! {
    /// This thread's free list of recycled packet boxes. The boxes are
    /// the whole point (`clippy::vec_box` would inline them): a draw
    /// must hand out an already-allocated `Box<Packet>` without
    /// touching the global allocator.
    #[allow(clippy::vec_box)]
    static FREE: RefCell<Vec<Box<Packet>>> = const { RefCell::new(Vec::new()) };
    /// Boxes drawn from the global allocator (pool was dry).
    static FRESH: Cell<u64> = const { Cell::new(0) };
    /// Boxes recycled from the free list.
    static REUSED: Cell<u64> = const { Cell::new(0) };
    /// Effective free-list capacity: [`POOL_CAP`] normally, 0 while the
    /// pool is bypassed (every alloc then hits the global allocator).
    static CAP: Cell<usize> = const { Cell::new(POOL_CAP) };
}

/// Counters describing this thread's pool traffic since the last
/// [`PacketPool::reset_stats`]; see [`PacketPool::stats`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations that hit the global allocator (the pool was empty).
    pub fresh: u64,
    /// Allocations served from the recycled free list.
    pub reused: u64,
}

/// The per-thread packet slab. A zero-sized facade: all state lives in
/// thread-local storage, so the type exists only to namespace the
/// operations ([`PacketPool::alloc`], [`PacketPool::stats`], …).
pub struct PacketPool;

impl PacketPool {
    /// Box `pkt`, recycling a previously freed box when one is
    /// available on this thread.
    pub fn alloc(pkt: Packet) -> PacketBox {
        let recycled = FREE.with(|f| f.borrow_mut().pop());
        match recycled {
            Some(mut boxed) => {
                *boxed = pkt;
                REUSED.with(|c| c.set(c.get() + 1));
                PacketBox {
                    boxed: ManuallyDrop::new(boxed),
                }
            }
            None => {
                FRESH.with(|c| c.set(c.get() + 1));
                PacketBox {
                    boxed: ManuallyDrop::new(Box::new(pkt)),
                }
            }
        }
    }

    /// Number of recycled boxes currently idle on this thread's list.
    pub fn free_len() -> usize {
        FREE.with(|f| f.borrow().len())
    }

    /// This thread's traffic counters since the last
    /// [`PacketPool::reset_stats`].
    pub fn stats() -> PoolStats {
        PoolStats {
            fresh: FRESH.with(Cell::get),
            reused: REUSED.with(Cell::get),
        }
    }

    /// Zero this thread's [`PoolStats`] counters (the free list itself
    /// is left warm).
    pub fn reset_stats() {
        FRESH.with(|c| c.set(0));
        REUSED.with(|c| c.set(0));
    }

    /// Disable (or re-enable) recycling on this thread.
    ///
    /// While bypassed, every [`PacketPool::alloc`] draws a fresh box from
    /// the global allocator and every drop frees — exactly the
    /// pre-pool behaviour. Simulated behaviour is unchanged (a fresh box
    /// and a recycled one are indistinguishable), which the pool tests
    /// check by running with and without it.
    pub fn set_bypass(on: bool) {
        CAP.with(|c| c.set(if on { 0 } else { POOL_CAP }));
        if on {
            FREE.with(|f| f.borrow_mut().clear());
        }
    }

    fn recycle(boxed: Box<Packet>) {
        FREE.with(|f| {
            let mut free = f.borrow_mut();
            if free.len() < CAP.with(Cell::get) {
                free.push(boxed);
            }
        });
    }
}

/// An owned, heap-allocated [`Packet`] whose storage returns to the
/// [`PacketPool`] on drop.
///
/// Behaves like `Box<Packet>` — [`Deref`]/[`DerefMut`] to the packet,
/// pointer-sized (the niche keeps `Option<PacketBox>` and
/// [`crate::Msg`] small) — but recycles instead of freeing.
pub struct PacketBox {
    /// `ManuallyDrop` lets `Drop` move the box out to the free list
    /// without a placeholder value; every other path drops the whole
    /// `PacketBox`, so the box can never be dropped twice.
    boxed: ManuallyDrop<Box<Packet>>,
}

impl PacketBox {
    /// Copy the packet out (the storage is recycled immediately).
    pub fn into_inner(self) -> Packet {
        *self
    }
}

impl Drop for PacketBox {
    fn drop(&mut self) {
        // SAFETY: `self` is being dropped and `boxed` is not touched
        // again afterwards, so taking the box out is the only move.
        let boxed = unsafe { ManuallyDrop::take(&mut self.boxed) };
        PacketPool::recycle(boxed);
    }
}

impl Deref for PacketBox {
    type Target = Packet;
    fn deref(&self) -> &Packet {
        &self.boxed
    }
}

impl DerefMut for PacketBox {
    fn deref_mut(&mut self) -> &mut Packet {
        &mut self.boxed
    }
}

impl fmt::Debug for PacketBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.boxed.fmt(f)
    }
}

impl From<Packet> for PacketBox {
    fn from(pkt: Packet) -> Self {
        PacketPool::alloc(pkt)
    }
}
