//! Scheduler equivalence property test: random kernel-shaped schedules
//! must drain in *identical* order through a plain binary heap
//! ([`BaselineQueue`], the single-level scheduler the kernel used before
//! the two-level queue) and the two-level [`EventQueue`].
//!
//! The generator mimics real kernel usage: pushes never precede the last
//! popped tick (the kernel clamps every schedule to `now`, including
//! `send_at`'s clamp), bursts land many events on one tick, and a slice
//! of events goes far beyond the calendar horizon.

use accesys_sim::{EventQueue, Tick};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// One randomized schedule: interleaved pushes and pops driven by
/// `seed`, checked step by step against the reference heap.
fn check_random_schedule(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut new_q: EventQueue<u64> = EventQueue::new();
    let mut ref_q = BaselineQueue::new();
    let mut seq = 0u64;
    let mut now: Tick = 0;

    let ops = rng.gen_range(50..400);
    for _ in 0..ops {
        match rng.gen_range(0..10) {
            // Push burst: same-tick bursts (delay 0 repeated), near
            // sends, and far-future events past the ring horizon.
            0..=5 => {
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
                    new_q.push(when, seq, seq);
                    ref_q.push(when, seq, seq);
                    seq += 1;
                }
            }
            // Pop a few events, advancing `now` like the kernel does.
            _ => {
                let pops = rng.gen_range(1..24);
                for _ in 0..pops {
                    assert_eq!(new_q.peek_when(), ref_q.peek_when(), "peek diverged");
                    let (a, b) = (new_q.pop(), ref_q.pop());
                    assert_eq!(a, b, "pop diverged after {seq} pushes");
                    match a {
                        Some((when, _, _)) => now = when,
                        None => break,
                    }
                }
            }
        }
        assert_eq!(new_q.len(), ref_q.len());
    }

    // Drain both to empty: tails must agree too.
    loop {
        let (a, b) = (new_q.pop(), ref_q.pop());
        assert_eq!(a, b, "drain diverged");
        if a.is_none() {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn two_level_scheduler_matches_heap_order(seed in 0u64..1_000_000) {
        check_random_schedule(seed);
    }
}

#[test]
fn tick_max_and_horizon_edges_agree() {
    // Deterministic edge cases on top of the random sweep: events at the
    // exact ring horizon, one past it, and Tick::MAX; then a small
    // schedule with a same-tick pair and one far event.
    let horizon = accesys_sim::sched::BUCKET_TICKS * accesys_sim::sched::NUM_BUCKETS as u64;
    let edges = [
        horizon - 1,
        horizon,
        horizon + 1,
        0,
        Tick::MAX,
        Tick::MAX - 1,
        horizon * 2,
    ];
    let small = [7, 3, 7, 1 << 40, 0];
    for schedule in [&edges[..], &small[..]] {
        let mut new_q: EventQueue<u64> = EventQueue::new();
        let mut ref_q = BaselineQueue::new();
        for (seq, &when) in (0u64..).zip(schedule) {
            new_q.push(when, seq, seq);
            ref_q.push(when, seq, seq);
        }
        loop {
            let (a, b) = (new_q.pop(), ref_q.pop());
            assert_eq!(a, b, "schedule {schedule:?} diverged");
            if a.is_none() {
                break;
            }
        }
    }
}
