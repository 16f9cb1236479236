//! Scheduler equivalence property test: random kernel-shaped schedules
//! must drain in *identical* order through a plain binary heap
//! ([`BaselineQueue`], the reference `(when, seq)` order) and the
//! two-level [`EventQueue`].
//!
//! The generator mimics real kernel usage: pushes never precede the last
//! popped tick (the kernel clamps every schedule to `now`, including
//! `send_at`'s clamp), bursts land many events on one tick, and a slice
//! of events goes far beyond the calendar horizon. Some steps strip the
//! queue the way the kernel discards an aborted handler's sends
//! (`drain_all`, then re-push the survivors), and every payload counts
//! its drops, so a lost or doubly dropped event fails the test.

use accesys_sim::sched::{BUCKET_TICKS, NUM_BUCKETS};
use accesys_sim::{EventQueue, Tick};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::rc::Rc;

/// Ticks covered by the calendar ring; later events start in the far heap.
const HORIZON: Tick = BUCKET_TICKS * NUM_BUCKETS as u64;

/// Reference scheduler: a plain min-heap on `(when, seq)`.
struct BaselineQueue {
    heap: BinaryHeap<Reverse<(Tick, u64, u64)>>,
}

impl BaselineQueue {
    fn new() -> Self {
        BaselineQueue {
            heap: BinaryHeap::new(),
        }
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn push(&mut self, when: Tick, seq: u64, payload: u64) {
        self.heap.push(Reverse((when, seq, payload)));
    }

    fn peek_when(&self) -> Option<Tick> {
        self.heap.peek().map(|Reverse((when, _, _))| *when)
    }

    fn pop(&mut self) -> Option<(Tick, u64, u64)> {
        self.heap.pop().map(|Reverse(event)| event)
    }
}

/// A payload that tallies its own drops.
struct Counted {
    id: u64,
    drops: Rc<Cell<u32>>,
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.drops.set(self.drops.get() + 1);
    }
}

/// One randomized schedule of `ops` steps: interleaved pushes, pops and
/// kernel-style strips driven by `seed`, checked step by step against
/// the reference heap. Ends by draining both queues, or by dropping the
/// queue with events still inside; either way every payload must have
/// been dropped exactly once.
fn check_random_schedule(seed: u64, ops: Range<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut new_q: EventQueue<Counted> = EventQueue::new();
    let mut ref_q = BaselineQueue::new();
    let mut tallies: Vec<Rc<Cell<u32>>> = Vec::new();
    let mut seq = 0u64;
    let mut now: Tick = 0;

    let ops = rng.gen_range(ops);
    for _ in 0..ops {
        match rng.gen_range(0..40) {
            // Push burst: same-tick bursts (delay 0 repeated), near
            // sends, and far-future events past the ring horizon.
            0..=23 => {
                let burst = rng.gen_range(1..16);
                let delay: u64 = match rng.gen_range(0..8) {
                    0 => 0, // send_at clamped to now / zero-delay forward
                    1..=4 => rng.gen_range(1..20_000u64),
                    5 | 6 => rng.gen_range(20_000..900_000u64),
                    _ => rng.gen_range(2_000_000..80_000_000u64), // far
                };
                for _ in 0..burst {
                    // Half the burst at exactly now + delay (simultaneous
                    // events), half jittered around it.
                    let jitter: u64 = if rng.gen_range(0..2) == 0 {
                        0
                    } else {
                        rng.gen_range(0..512u64)
                    };
                    let when = now + delay + jitter;
                    let drops = Rc::new(Cell::new(0));
                    tallies.push(Rc::clone(&drops));
                    new_q.push(when, seq, Counted { id: seq, drops });
                    ref_q.push(when, seq, seq);
                    seq += 1;
                }
            }
            // Strip like the kernel after a caught handler panic: drain
            // everything, re-push the events stamped before a mark (the
            // rest are dropped).
            24 => {
                let mark = seq - rng.gen_range(0..=seq.min(16));
                for (when, s, payload) in new_q.drain_all() {
                    if s < mark {
                        new_q.push(when, s, payload);
                    }
                }
                ref_q.heap.retain(|Reverse((_, s, _))| *s < mark);
            }
            // Pop a few events, advancing `now` like the kernel does.
            _ => {
                let pops = rng.gen_range(1..24);
                for _ in 0..pops {
                    assert_eq!(new_q.peek_when(), ref_q.peek_when(), "peek diverged");
                    let a = new_q.pop().map(|(w, s, p)| (w, s, p.id));
                    assert_eq!(a, ref_q.pop(), "pop diverged after {seq} pushes");
                    match a {
                        Some((when, _, _)) => now = when,
                        None => break,
                    }
                }
            }
        }
        assert_eq!(new_q.len(), ref_q.len());
    }

    if rng.gen_range(0..4) == 0 {
        // Drop the queue with whatever is still queued.
        drop(new_q);
    } else {
        // Drain both to empty: tails must agree too.
        loop {
            let a = new_q.pop().map(|(w, s, p)| (w, s, p.id));
            assert_eq!(a, ref_q.pop(), "drain diverged");
            if a.is_none() {
                break;
            }
        }
    }
    for (id, drops) in tallies.iter().enumerate() {
        assert_eq!(drops.get(), 1, "payload {id} dropped {} times", drops.get());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn two_level_scheduler_matches_heap_order(seed in 0u64..1_000_000) {
        check_random_schedule(seed, 50..400);
    }
}

/// The random sweep at depth: thousands of steps per schedule, so
/// buckets hold many events and slab nodes recycle many times over.
#[test]
#[ignore = "deep fuzz; run in release with --include-ignored"]
fn deep_random_schedules_match_heap_order() {
    for seed in 0..2_000 {
        check_random_schedule(seed, 2_000..6_000);
    }
}

/// Both queues fed the same events, for hand-written schedules.
struct Pair {
    new_q: EventQueue<u64>,
    ref_q: BaselineQueue,
    seq: u64,
}

impl Pair {
    fn new() -> Self {
        Pair {
            new_q: EventQueue::new(),
            ref_q: BaselineQueue::new(),
            seq: 0,
        }
    }

    fn push_all(&mut self, schedule: &[Tick]) {
        for &when in schedule {
            self.new_q.push(when, self.seq, self.seq);
            self.ref_q.push(when, self.seq, self.seq);
            self.seq += 1;
        }
    }

    /// Pop `n` events (all of them for `None`) from both and compare.
    fn pop_agree(&mut self, n: Option<usize>) {
        for _ in 0..n.unwrap_or(usize::MAX) {
            assert_eq!(self.new_q.peek_when(), self.ref_q.peek_when());
            let (a, b) = (self.new_q.pop(), self.ref_q.pop());
            assert_eq!(a, b, "diverged after {} pushes", self.seq);
            if a.is_none() {
                break;
            }
        }
    }
}

#[test]
fn tick_max_and_horizon_edges_agree() {
    // Deterministic edge cases on top of the random sweep: events at the
    // exact ring horizon, one past it, and Tick::MAX; then a small
    // schedule with a same-tick pair and one far event.
    let edges = [
        HORIZON - 1,
        HORIZON,
        HORIZON + 1,
        0,
        Tick::MAX,
        Tick::MAX - 1,
        HORIZON * 2,
    ];
    let small = [7, 3, 7, 1 << 40, 0];
    for schedule in [&edges[..], &small[..]] {
        let mut pair = Pair::new();
        pair.push_all(schedule);
        pair.pop_agree(None);
    }
}

#[test]
fn out_of_order_keys_link_before_the_head_and_mid_list() {
    // One bucket (ticks 0..BUCKET_TICKS) filled out of order: a head, a
    // prepend, mid-list inserts (one tied on `when`), a tail append and
    // a second prepend.
    let mut pair = Pair::new();
    pair.push_all(&[300, 100, 200, 200, 400, 50, 250, 450]);
    pair.pop_agree(Some(2));
    // Same-tick and earlier keys into the now partly drained bucket.
    pair.push_all(&[100, 150, 100, 500]);
    pair.pop_agree(None);
}

#[test]
fn far_events_migrate_together_into_one_bucket() {
    // Several far events in one far bucket, pushed out of key order; a
    // near event three buckets on slides the window far enough to
    // migrate them all into the same ring slot at once.
    let far = HORIZON + 2 * BUCKET_TICKS;
    let mut pair = Pair::new();
    pair.push_all(&[far + 90, far + 10, far + 50, far + 10, 3 * BUCKET_TICKS + 1]);
    pair.pop_agree(Some(1));
    // Near pushes into the migrated bucket: before its head, mid-list,
    // tied with a migrated event, and after its tail.
    pair.push_all(&[far + 5, far + 30, far + 10, far + 200]);
    pair.pop_agree(None);
}

#[test]
fn strip_and_repush_rewinds_into_a_consistent_queue() {
    // The kernel's panic-strip path: drain mid-run (window advanced,
    // ring and far heap both occupied) and re-push the survivors.
    let mut pair = Pair::new();
    pair.push_all(&[10, 700, 700, HORIZON * 3, 1_500, 40_000]);
    pair.pop_agree(Some(2));
    let mark = 4;
    for (when, seq, payload) in pair.new_q.drain_all() {
        if seq < mark {
            pair.new_q.push(when, seq, payload);
        }
    }
    pair.ref_q.heap.retain(|Reverse((_, s, _))| *s < mark);
    assert_eq!(pair.new_q.len(), pair.ref_q.len());
    pair.push_all(&[800, 800, HORIZON + 800]);
    pair.pop_agree(None);
    assert_eq!(pair.new_q.peak_len(), 6);
}
