//! Two-level event scheduler: a calendar ring for near-future events
//! backed by an overflow min-heap for far-future ones.
//!
//! The kernel's hot loop is dominated by event queue traffic, and almost
//! every send lands a short delay ahead of the current tick (link
//! serialization, cache hits, zero-delay forwarding). A binary heap pays
//! `O(log n)` comparison-and-move work on *every* push and pop regardless
//! of that locality. [`EventQueue`] exploits it instead:
//!
//! * **Near level** — Brown's calendar queue: a ring of [`NUM_BUCKETS`]
//!   buckets of [`BUCKET_TICKS`] ticks, indexed by `when >> BUCKET_BITS`.
//!   Each bucket is an intrusive list, sorted ascending by `(when, seq)`,
//!   over one node slab with a LIFO free list: the slab grows to the
//!   peak queue depth, then reuses hot nodes. An event within the
//!   horizon (≈1 µs) links into an empty bucket or after its tail in
//!   O(1); only an out-of-order key walks the list. The front bucket's
//!   head is the next event, so nothing is ever sorted, and an occupancy
//!   bitmap finds that bucket in a handful of word operations.
//! * **Far level** — events beyond the horizon (refresh timers,
//!   end-of-run deadlines) go to a conventional binary min-heap. As
//!   simulated time advances and the ring window slides forward, far
//!   events whose bucket has entered the window migrate into the ring —
//!   each event migrates at most once.
//!
//! The queue preserves the kernel's determinism contract exactly: events
//! drain in ascending `(when, seq)` total order, bit-for-bit identical to
//! the plain-heap ordering (`tests/sched_equiv.rs` keeps a plain
//! `BinaryHeap` as the reference and checks equivalence on random
//! schedules).

use crate::Tick;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Log2 of the bucket width: each bucket spans 2^9 ticks ≈ 0.5 ns.
pub const BUCKET_BITS: u32 = 9;

/// Ticks covered by one calendar bucket.
pub const BUCKET_TICKS: u64 = 1 << BUCKET_BITS;

/// Number of buckets in the calendar ring. Together with
/// [`BUCKET_TICKS`] this puts the near-future horizon at 2^20 ticks
/// (≈1 µs), which covers link serialization, cache and DRAM latencies;
/// only coarse-grained timers overflow to the far heap.
pub const NUM_BUCKETS: usize = 2048;

const WORDS: usize = NUM_BUCKETS / 64;

/// End-of-list marker for slab links.
const NIL: u32 = u32::MAX;

/// One slab node: an event plus the link to the next node of its bucket
/// (or of the free list). `payload` is `None` exactly while the node is
/// free. With the kernel's 24-byte payload a node is 48 bytes.
struct Node<T> {
    when: Tick,
    seq: u64,
    next: u32,
    payload: Option<T>,
}

/// A two-level event queue draining in ascending `(when, seq)` order.
///
/// `when` is the delivery tick and `seq` a caller-supplied tie-breaker
/// that must be unique per event (the kernel stamps a monotonically
/// increasing sequence number). Pushes must not be earlier than the last
/// popped `when` — the kernel guarantees this by clamping every schedule
/// to the current time.
///
/// ```
/// use accesys_sim::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(50, 1, "b");
/// q.push(50, 0, "a");
/// q.push(2_000_000, 2, "far");
/// assert_eq!(q.pop(), Some((50, 0, "a")));
/// assert_eq!(q.pop(), Some((50, 1, "b")));
/// assert_eq!(q.pop(), Some((2_000_000, 2, "far")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<T> {
    /// Node storage for every queued event, near and far.
    nodes: Vec<Node<T>>,
    /// Head of the LIFO free list threaded through `nodes`.
    free: u32,
    /// First and last node of slot `b % NUM_BUCKETS` (bucket number `b`),
    /// valid only while the slot's `occupied` bit is set.
    heads: Box<[u32]>,
    tails: Box<[u32]>,
    /// One bit per slot: set while the slot's bucket is non-empty.
    occupied: [u64; WORDS],
    /// Slab indices of far-future events (beyond `base_bucket +
    /// NUM_BUCKETS`), a min-heap on `(when, seq)`; `seq` is unique, so
    /// the index never decides the order.
    far: BinaryHeap<Reverse<(Tick, u64, u32)>>,
    /// Bucket number of the most recently popped event; the ring window
    /// is `[base_bucket, base_bucket + NUM_BUCKETS)`.
    base_bucket: u64,
    /// Front location computed by the last [`EventQueue::peek_when`],
    /// reused by the following [`EventQueue::pop`] so the kernel's
    /// peek-then-pop loop locates the front once per event, not twice.
    /// `Some(None)` means "front is the far heap"; invalidated by pushes.
    front_cache: Option<Option<usize>>,
    len: usize,
    peak_len: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue with its window at tick 0.
    pub fn new() -> Self {
        EventQueue {
            nodes: Vec::new(),
            free: NIL,
            heads: vec![NIL; NUM_BUCKETS].into_boxed_slice(),
            tails: vec![NIL; NUM_BUCKETS].into_boxed_slice(),
            occupied: [0; WORDS],
            far: BinaryHeap::new(),
            base_bucket: 0,
            front_cache: None,
            len: 0,
            peak_len: 0,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Largest number of events ever queued at once.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    fn bucket_no(when: Tick) -> u64 {
        when >> BUCKET_BITS
    }

    fn key(&self, i: u32) -> (Tick, u64) {
        let n = &self.nodes[i as usize];
        (n.when, n.seq)
    }

    /// The slot holding the earliest event; `None` when the ring is
    /// empty (the far heap may not be).
    #[inline]
    fn front_slot(&self) -> Option<usize> {
        // Scan from the window's first slot: its word (bits at or after
        // it), the other words in ring order, then its word's bits before.
        let start = (self.base_bucket % NUM_BUCKETS as u64) as usize;
        let (first_word, at_or_after) = (start / 64, !0u64 << (start % 64));
        for i in 0..=WORDS {
            let w = (first_word + i) % WORDS;
            let word = self.occupied[w]
                & match i {
                    0 => at_or_after,
                    WORDS => !at_or_after,
                    _ => !0,
                };
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Take a node off the free list (or grow the slab) and fill it.
    #[inline(always)]
    fn alloc(&mut self, when: Tick, seq: u64, payload: T) -> u32 {
        let node = Node {
            when,
            seq,
            next: NIL,
            payload: Some(payload),
        };
        if self.free == NIL {
            self.nodes.push(node);
            return u32::try_from(self.nodes.len() - 1).expect("event slab overflow");
        }
        let i = self.free;
        self.free = std::mem::replace(&mut self.nodes[i as usize], node).next;
        i
    }

    /// Link node `i` into ring slot `slot`, keeping the list ascending.
    /// An empty slot and an append after the tail are inlined; any other
    /// position takes the out-of-line `link_before_tail`.
    #[inline(always)]
    fn link(&mut self, slot: usize, i: u32) {
        let bit = 1u64 << (slot % 64);
        if self.occupied[slot / 64] & bit == 0 {
            self.occupied[slot / 64] |= bit;
            (self.heads[slot], self.tails[slot]) = (i, i);
        } else if self.key(self.tails[slot]) < self.key(i) {
            self.nodes[self.tails[slot] as usize].next = i;
            self.tails[slot] = i;
        } else {
            self.link_before_tail(slot, i);
        }
    }

    /// Insert node `i`, whose key precedes the slot's tail, before the
    /// first node with a larger key (a prepend or a list walk).
    #[inline(never)]
    fn link_before_tail(&mut self, slot: usize, i: u32) {
        let (key, mut prev, mut next) = (self.key(i), NIL, self.heads[slot]);
        while self.key(next) < key {
            (prev, next) = (next, self.nodes[next as usize].next);
        }
        self.nodes[i as usize].next = next;
        match prev {
            NIL => self.heads[slot] = i,
            _ => self.nodes[prev as usize].next = i,
        }
    }

    /// Append one event. `seq` must be unique; `(when, seq)` must not
    /// precede the last popped event (debug-asserted).
    ///
    /// Inlined into every send site: the common cases are a link into an
    /// empty near bucket and an append after its tail; out-of-order
    /// inserts and far-heap pushes go out of line.
    #[inline(always)]
    pub fn push(&mut self, when: Tick, seq: u64, payload: T) {
        debug_assert!(
            Self::bucket_no(when) >= self.base_bucket,
            "push at tick {when} behind the drain window"
        );
        self.front_cache = None;
        let i = self.alloc(when, seq, payload);
        // A release-mode push behind the window (a clamping bug upstream)
        // degrades gracefully: it lands at the head of the current bucket
        // and pops almost immediately, matching the plain heap's behaviour.
        let bucket = Self::bucket_no(when).max(self.base_bucket);
        if bucket < self.base_bucket + NUM_BUCKETS as u64 {
            self.link((bucket % NUM_BUCKETS as u64) as usize, i);
        } else {
            self.push_far(when, seq, i);
        }
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
    }

    #[inline(never)]
    fn push_far(&mut self, when: Tick, seq: u64, i: u32) {
        self.far.push(Reverse((when, seq, i)));
    }

    /// Slide the window forward to the popped event's bucket and migrate
    /// far events that have entered the horizon.
    fn advance_base(&mut self, when: Tick) {
        let bucket = Self::bucket_no(when);
        if bucket <= self.base_bucket {
            return;
        }
        self.base_bucket = bucket;
        let horizon = self.base_bucket + NUM_BUCKETS as u64;
        while let Some(&Reverse((when, _, i))) = self.far.peek() {
            if Self::bucket_no(when) >= horizon {
                break;
            }
            self.far.pop();
            self.link((Self::bucket_no(when) % NUM_BUCKETS as u64) as usize, i);
        }
    }

    /// Delivery tick of the earliest event without removing it.
    ///
    /// Takes `&mut self` because it caches the located front for the
    /// next [`EventQueue::pop`].
    #[inline]
    pub fn peek_when(&mut self) -> Option<Tick> {
        if self.len == 0 {
            return None;
        }
        let front = self.front_slot();
        self.front_cache = Some(front);
        match front {
            Some(slot) => Some(self.nodes[self.heads[slot] as usize].when),
            None => self.far.peek().map(|&Reverse((when, _, _))| when),
        }
    }

    /// Remove every queued event as unsorted `(when, seq, payload)`
    /// triples, empty the node slab and rewind the window to tick 0, so
    /// the queue accepts re-pushes at *any* tick. The kernel strips an
    /// aborted handler's partial sends this way: it drains everything and
    /// re-pushes the survivors, leaving [`EventQueue::peak_len`] as is.
    pub fn drain_all(&mut self) -> Vec<(Tick, u64, T)> {
        let mut out = Vec::with_capacity(self.len);
        for n in self.nodes.drain(..) {
            out.extend(n.payload.map(|p| (n.when, n.seq, p)));
        }
        self.far.clear();
        self.free = NIL;
        self.occupied = [0; WORDS];
        self.base_bucket = 0;
        self.front_cache = None;
        self.len = 0;
        out
    }

    /// Remove and return the earliest event as `(when, seq, payload)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(Tick, u64, T)> {
        if self.len == 0 {
            return None;
        }
        // Reuse the front located by a preceding peek (still valid: any
        // push since would have cleared it, and pops clear it below).
        let front = match self.front_cache.take() {
            Some(front) => front,
            None => self.front_slot(),
        };
        let i = match front {
            Some(slot) => {
                let i = self.heads[slot];
                let next = self.nodes[i as usize].next;
                if next == NIL {
                    self.occupied[slot / 64] &= !(1u64 << (slot % 64));
                } else {
                    self.heads[slot] = next;
                }
                i
            }
            None => self.far.pop().expect("non-empty queue had no events").0 .2,
        };
        // Free the node: back on top of the LIFO free list.
        let node = &mut self.nodes[i as usize];
        let payload = node.payload.take().expect("queued node was free");
        let (when, seq) = (node.when, node.seq);
        node.next = self.free;
        self.free = i;
        self.len -= 1;
        self.advance_base(when);
        Some((when, seq, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ticks covered by the ring; later events start in the far heap.
    const HORIZON: Tick = BUCKET_TICKS * NUM_BUCKETS as u64;

    #[test]
    fn drains_in_when_seq_order() {
        let mut q = EventQueue::new();
        q.push(30, 2, ());
        q.push(10, 0, ());
        q.push(30, 1, ());
        q.push(10, 3, ());
        let order: Vec<(Tick, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(w, s, _)| (w, s))
            .collect();
        assert_eq!(order, vec![(10, 0), (10, 3), (30, 1), (30, 2)]);
    }

    #[test]
    fn far_events_cross_the_horizon_correctly() {
        let mut q = EventQueue::new();
        q.push(HORIZON * 3 + 17, 0, "far");
        q.push(5, 1, "near");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_when(), Some(5));
        assert_eq!(q.pop(), Some((5, 1, "near")));
        // The window jumps to the far event's bucket via the far heap.
        assert_eq!(q.pop(), Some((HORIZON * 3 + 17, 0, "far")));
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_pushes_into_the_current_bucket_stay_ordered() {
        let mut q = EventQueue::new();
        q.push(100, 0, 0);
        q.push(100, 1, 1);
        assert_eq!(q.pop(), Some((100, 0, 0)));
        // Same-tick push after a pop (a zero-delay forward).
        q.push(100, 2, 2);
        q.push(150, 3, 3);
        assert_eq!(q.pop(), Some((100, 1, 1)));
        assert_eq!(q.pop(), Some((100, 2, 2)));
        assert_eq!(q.pop(), Some((150, 3, 3)));
    }

    #[test]
    fn window_slide_migrates_each_far_event_once() {
        let mut q = EventQueue::new();
        // A train of events, one per horizon, plus near fillers.
        for i in 0..8u64 {
            q.push(i * HORIZON + 9, i, i);
        }
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, s, _)| s).collect();
        assert_eq!(popped, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn ring_wraparound_reuses_slots() {
        let mut q = EventQueue::new();
        let mut now = 0u64;
        // March time across several full ring laps.
        for seq in 0..(NUM_BUCKETS as u64 * 3) {
            q.push(now + BUCKET_TICKS / 2, seq, seq);
            let (when, _, _) = q.pop().unwrap();
            assert!(when >= now);
            now = when + BUCKET_TICKS; // next push one bucket further on
        }
        assert!(q.is_empty());
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(i, i, ());
        }
        for _ in 0..10 {
            q.pop();
        }
        assert_eq!(q.peak_len(), 10);
        assert!(q.is_empty());
        assert_eq!(q.peak_len(), 10);
    }

    #[test]
    fn tick_max_events_are_representable() {
        let mut q = EventQueue::new();
        q.push(Tick::MAX, 0, "end");
        q.push(1, 1, "start");
        assert_eq!(q.pop(), Some((1, 1, "start")));
        assert_eq!(q.pop(), Some((Tick::MAX, 0, "end")));
    }

    #[test]
    fn drain_all_empties_and_rewinds_the_window() {
        let mut q = EventQueue::new();
        q.push(40, 0, "near");
        q.push(HORIZON * 2, 1, "far");
        // Advance the window past tick 40 before draining.
        assert_eq!(q.pop(), Some((40, 0, "near")));
        q.push(HORIZON * 2 + 1, 2, "far2");
        let mut drained = q.drain_all();
        drained.sort_by_key(|&(w, s, _)| (w, s));
        assert_eq!(
            drained,
            vec![(HORIZON * 2, 1, "far"), (HORIZON * 2 + 1, 2, "far2")]
        );
        assert!(q.is_empty() && q.nodes.is_empty());
        // The rewound window accepts pushes earlier than the old cursor.
        q.push(5, 3, "early");
        assert_eq!(q.pop(), Some((5, 3, "early")));
        assert_eq!(q.peak_len(), 2);
    }

    #[test]
    fn slab_never_grows_past_peak_len_in_steady_state() {
        let mut q = EventQueue::new();
        for seq in 0..40 {
            q.push(seq * 97, seq, seq);
        }
        // Each pop is followed by one push a pseudo-random near delay
        // ahead (every 1,000th a far timer), so 40 events stay queued
        // while nodes are freed and reused 200k times.
        let mut x = 1u64;
        for seq in 40..200_000u64 {
            let (when, _, _) = q.pop().unwrap();
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let delay = if seq % 1_000 == 0 {
                3 * HORIZON
            } else {
                (x >> 33) % 20_000
            };
            q.push(when + delay, seq, seq);
            assert!(q.nodes.len() <= q.peak_len());
        }
        assert_eq!(q.peak_len(), 40);
    }

    #[test]
    fn a_kernel_event_node_is_48_bytes() {
        assert_eq!(std::mem::size_of::<Node<crate::kernel::Ev>>(), 48);
    }
}
