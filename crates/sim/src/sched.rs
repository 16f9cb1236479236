//! Two-level event scheduler: a calendar ring for near-future events
//! backed by an overflow min-heap for far-future ones.
//!
//! The kernel's hot loop is dominated by event queue traffic, and almost
//! every send lands a short delay ahead of the current tick (link
//! serialization, cache hits, zero-delay forwarding). A binary heap pays
//! `O(log n)` comparison-and-move work on *every* push and pop regardless
//! of that locality. [`EventQueue`] exploits it instead:
//!
//! * **Near level** — a ring of [`NUM_BUCKETS`] buckets, each covering
//!   [`BUCKET_TICKS`] ticks, indexed by `when >> BUCKET_BITS`. Events
//!   within the ring horizon (≈1 µs of simulated time) are appended to
//!   their bucket in O(1); a bucket is sorted lazily, only when the drain
//!   cursor reaches it. An occupancy bitmap finds the next non-empty
//!   bucket in a handful of word operations.
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
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Log2 of the bucket width: each bucket spans 2^10 ticks ≈ 1 ns.
pub const BUCKET_BITS: u32 = 10;

/// Ticks covered by one calendar bucket.
pub const BUCKET_TICKS: u64 = 1 << BUCKET_BITS;

/// Number of buckets in the calendar ring. Together with
/// [`BUCKET_TICKS`] this puts the near-future horizon at 2^20 ticks
/// (≈1 µs), which covers link serialization, cache and DRAM latencies;
/// only coarse-grained timers overflow to the far heap.
pub const NUM_BUCKETS: usize = 1024;

const WORDS: usize = NUM_BUCKETS / 64;

struct Entry<T> {
    when: Tick,
    seq: u64,
    payload: T,
}

/// Overflow-heap wrapper ordered by reversed `(when, seq)` so the
/// `BinaryHeap` pops the earliest event first. Payloads never take part
/// in comparisons.
struct FarEntry<T>(Entry<T>);

impl<T> PartialEq for FarEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.0.when, self.0.seq) == (other.0.when, other.0.seq)
    }
}
impl<T> Eq for FarEntry<T> {}
impl<T> PartialOrd for FarEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for FarEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.0.when, other.0.seq).cmp(&(self.0.when, self.0.seq))
    }
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
    /// Calendar ring; slot `b % NUM_BUCKETS` holds bucket number `b`.
    buckets: Vec<Vec<Entry<T>>>,
    /// One bit per slot: set while the slot's bucket is non-empty.
    occupied: [u64; WORDS],
    /// Far-future events, beyond `base_bucket + NUM_BUCKETS`.
    far: BinaryHeap<FarEntry<T>>,
    /// Bucket number of the most recently popped event; the ring window
    /// is `[base_bucket, base_bucket + NUM_BUCKETS)`.
    base_bucket: u64,
    /// Bucket number currently kept sorted (descending, popped from the
    /// back); other buckets are unsorted until the cursor reaches them.
    sorted_bucket: Option<u64>,
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
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            far: BinaryHeap::new(),
            base_bucket: 0,
            sorted_bucket: None,
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

    fn set_bit(&mut self, slot: usize) {
        self.occupied[slot / 64] |= 1u64 << (slot % 64);
    }

    fn clear_bit(&mut self, slot: usize) {
        self.occupied[slot / 64] &= !(1u64 << (slot % 64));
    }

    /// First occupied slot at ring distance 0..NUM_BUCKETS from `start`.
    fn next_occupied(&self, start: usize) -> Option<usize> {
        // Word containing `start`, masked to bits at or after it.
        let first_word = start / 64;
        let masked = self.occupied[first_word] & (!0u64 << (start % 64));
        if masked != 0 {
            return Some(first_word * 64 + masked.trailing_zeros() as usize);
        }
        // Remaining words in ring order, wrapping, then the bits of the
        // first word *before* `start`.
        for i in 1..=WORDS {
            let w = (first_word + i) % WORDS;
            let mut word = self.occupied[w];
            if i == WORDS {
                word &= !(!0u64 << (start % 64));
            }
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Append one event. `seq` must be unique; `(when, seq)` must not
    /// precede the last popped event (debug-asserted).
    ///
    /// Inlined into every send site: the common case is an append to an
    /// unsorted near bucket; inserts into the cursor's sorted bucket and
    /// far-heap pushes take the out-of-line `push_slow`.
    #[inline(always)]
    pub fn push(&mut self, when: Tick, seq: u64, payload: T) {
        debug_assert!(
            Self::bucket_no(when) >= self.base_bucket,
            "push at tick {when} behind the drain window (bucket {} < {})",
            Self::bucket_no(when),
            self.base_bucket
        );
        self.front_cache = None;
        let entry = Entry { when, seq, payload };
        // A release-mode push behind the window (a clamping bug upstream)
        // degrades gracefully: it lands in the current bucket and pops
        // almost immediately, matching the plain heap's behaviour.
        let bucket = Self::bucket_no(when).max(self.base_bucket);
        if bucket < self.base_bucket + NUM_BUCKETS as u64 && self.sorted_bucket != Some(bucket) {
            let slot = (bucket % NUM_BUCKETS as u64) as usize;
            self.buckets[slot].push(entry);
            self.set_bit(slot);
        } else {
            self.push_slow(bucket, entry);
        }
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
    }

    /// The rest of [`EventQueue::push`], kept out of line so the inlined
    /// fast path stays small.
    #[inline(never)]
    fn push_slow(&mut self, bucket: u64, entry: Entry<T>) {
        if bucket < self.base_bucket + NUM_BUCKETS as u64 {
            self.ring_insert(bucket, entry);
        } else {
            self.far.push(FarEntry(entry));
        }
    }

    fn ring_insert(&mut self, bucket: u64, entry: Entry<T>) {
        let slot = (bucket % NUM_BUCKETS as u64) as usize;
        let vec = &mut self.buckets[slot];
        if self.sorted_bucket == Some(bucket) {
            // Keep the cursor's bucket sorted (descending) so the next
            // pop stays O(1) off the back.
            let key = (entry.when, entry.seq);
            let pos = vec.partition_point(|e| (e.when, e.seq) > key);
            vec.insert(pos, entry);
        } else {
            vec.push(entry);
        }
        self.set_bit(slot);
    }

    /// Sort `slot` (descending) unless it is already the sorted bucket.
    fn ensure_sorted(&mut self, slot: usize, bucket: u64) {
        if self.sorted_bucket != Some(bucket) {
            self.buckets[slot].sort_unstable_by_key(|e| std::cmp::Reverse((e.when, e.seq)));
            self.sorted_bucket = Some(bucket);
        }
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
        while let Some(top) = self.far.peek() {
            if Self::bucket_no(top.0.when) >= horizon {
                break;
            }
            let FarEntry(entry) = self.far.pop().expect("peeked far event vanished");
            self.ring_insert(Self::bucket_no(entry.when), entry);
        }
    }

    /// Locate the slot holding the earliest event, sorting it if needed.
    /// Returns `None` when the ring is empty (the far heap may not be).
    #[inline]
    fn front_slot(&mut self) -> Option<usize> {
        let start = (self.base_bucket % NUM_BUCKETS as u64) as usize;
        let slot = self.next_occupied(start)?;
        let dist = (slot + NUM_BUCKETS - start) % NUM_BUCKETS;
        let bucket = self.base_bucket + dist as u64;
        self.ensure_sorted(slot, bucket);
        Some(slot)
    }

    /// Delivery tick of the earliest event without removing it.
    ///
    /// Takes `&mut self` because it may lazily sort the front bucket
    /// (and caches the located front for the next [`EventQueue::pop`]).
    #[inline]
    pub fn peek_when(&mut self) -> Option<Tick> {
        if self.len == 0 {
            return None;
        }
        let front = self.front_slot();
        self.front_cache = Some(front);
        match front {
            Some(slot) => self.buckets[slot].last().map(|e| e.when),
            None => self.far.peek().map(|e| e.0.when),
        }
    }

    /// Remove every queued event as unsorted `(when, seq, payload)`
    /// triples and rewind the window to tick 0 (peak statistics are
    /// kept).
    ///
    /// Unlike pop-draining, rewinding means the emptied queue can
    /// immediately accept re-pushes at *any* tick — pops would have
    /// advanced `base_bucket` past earlier events. The kernel uses this to
    /// strip an aborted handler's partial sends: it drains everything and
    /// re-pushes the survivors, which leaves [`EventQueue::peak_len`]
    /// untouched.
    pub fn drain_all(&mut self) -> Vec<(Tick, u64, T)> {
        let mut out = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            for e in bucket.drain(..) {
                out.push((e.when, e.seq, e.payload));
            }
        }
        for FarEntry(e) in std::mem::take(&mut self.far) {
            out.push((e.when, e.seq, e.payload));
        }
        self.occupied = [0; WORDS];
        self.base_bucket = 0;
        self.sorted_bucket = None;
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
        let entry = match front {
            Some(slot) => {
                let e = self.buckets[slot].pop().expect("occupied bucket was empty");
                if self.buckets[slot].is_empty() {
                    self.clear_bit(slot);
                }
                e
            }
            None => self.far.pop().expect("non-empty queue had no events").0,
        };
        self.len -= 1;
        self.advance_base(entry.when);
        Some((entry.when, entry.seq, entry.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let horizon = BUCKET_TICKS * NUM_BUCKETS as u64;
        q.push(horizon * 3 + 17, 0, "far");
        q.push(5, 1, "near");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_when(), Some(5));
        assert_eq!(q.pop(), Some((5, 1, "near")));
        // The window jumps to the far event's bucket via the far heap.
        assert_eq!(q.pop(), Some((horizon * 3 + 17, 0, "far")));
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
        let horizon = BUCKET_TICKS * NUM_BUCKETS as u64;
        // A train of events, one per horizon, plus near fillers.
        for i in 0..8u64 {
            q.push(i * horizon + 9, i, i);
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
        let horizon = BUCKET_TICKS * NUM_BUCKETS as u64;
        q.push(40, 0, "near");
        q.push(horizon * 2, 1, "far");
        // Advance the window past tick 40 before draining.
        assert_eq!(q.pop(), Some((40, 0, "near")));
        q.push(horizon * 2 + 1, 2, "far2");
        let mut drained = q.drain_all();
        drained.sort_by_key(|&(w, s, _)| (w, s));
        assert_eq!(
            drained,
            vec![(horizon * 2, 1, "far"), (horizon * 2 + 1, 2, "far2")]
        );
        assert!(q.is_empty());
        // The rewound window accepts pushes earlier than the old cursor.
        q.push(5, 3, "early");
        assert_eq!(q.pop(), Some((5, 3, "early")));
        assert_eq!(q.peak_len(), 2);
    }
}
