//! A hierarchical calendar queue (timer wheel) for simulation events.
//!
//! The engine schedules three classes of future work: network deliveries (now +
//! a per-link delay, microseconds-to-milliseconds ahead), model-swap completions
//! (hundreds of milliseconds ahead), and periodic control/routing/metrics ticks
//! (seconds ahead). A binary heap handles all of them in O(log n) per operation;
//! this queue exploits the fact that event horizons are short and times only move
//! forward to get O(1) amortized insert and pop:
//!
//! * The near future is a circular array of `num_buckets` buckets, each covering
//!   `2^shift` microseconds of simulated time. An event at time `t` lands in
//!   bucket `(t >> shift) & (num_buckets - 1)`; inserting is an array index and a
//!   `Vec::push`.
//! * The wheel position (`cur_slot`) only moves on [`CalendarQueue::pop`], and
//!   only to the slot of the event being consumed — so it can never run ahead of
//!   the caller's clock, and pushes at `now + delay` land on the wheel's fast
//!   path. [`CalendarQueue::peek`] answers from a cached head key, refreshed
//!   with a read-only scan when unknown; it never moves the wheel. (An earlier
//!   design advanced the wheel on peek; because the engine merges this queue
//!   with external event sources that keep scheduling at earlier times, most
//!   pushes then landed *behind* the wheel position and paid an ordered middle
//!   insert — the lazy head removes that entire class of slow-path traffic.)
//! * The slot being drained lives in `ready`, sorted by `(time, seq)` descending
//!   and popped from the back, so same-slot events come out in exactly the order
//!   a global heap would produce them. Buckets are small (a 1 ms bucket holds
//!   about 11 events at 2000 QPS) and filled almost in ascending order, so the
//!   per-slot sort (ascending, then reversed) is near-linear and amortizes to
//!   O(1) per event. Events scheduled *into the slot currently being drained*
//!   are spliced into `ready` at their ordered position.
//! * Events beyond the wheel's horizon (`num_buckets << shift` microseconds) go
//!   to an unsorted `overflow` list — in practice only the sparse periodic ticks
//!   and swap completions — and are redistributed onto the wheel each time it
//!   completes a rotation. A cached `overflow_min` keeps peeks O(1) while far
//!   events are pending.
//!
//! # Ordering contract
//!
//! [`CalendarQueue::pop`] yields events in strictly ascending `(time, seq)`
//! order, bit-identical to `BinaryHeap<Reverse<(time, seq)>>`, **provided** no
//! event is scheduled in the past (`time` must be at or after the time of the
//! last popped event). The engine satisfies this by construction — every event
//! is scheduled at `now + delay` with `delay >= 0` — and the queue
//! `debug_assert`s it. `tests/calendar_order.rs` checks the equivalence against
//! a real heap on randomized workloads, including same-time `seq` tie-breaks.

use crate::types::SimTime;
use serde::{Deserialize, Serialize};

/// One scheduled event: its due time, its global tie-break sequence number, and
/// the caller's payload.
#[derive(Debug, Clone)]
struct Entry<T> {
    time: SimTime,
    seq: u64,
    item: T,
}

/// A calendar queue over payloads of type `T`. See the module docs.
#[derive(Debug, Clone)]
pub struct CalendarQueue<T> {
    /// The wheel: bucket `i` holds events whose slot (`time >> shift`) is
    /// congruent to `i` modulo the bucket count, restricted to the current
    /// window of `num_buckets` slots.
    buckets: Vec<Vec<Entry<T>>>,
    /// `num_buckets - 1` (bucket count is a power of two).
    mask: u64,
    /// log2 of the bucket width in microseconds.
    shift: u32,
    /// The slot (`time >> shift`) currently being drained: the slot of the most
    /// recently popped event. Only `pop` moves it.
    cur_slot: u64,
    /// Events of the current slot, sorted by `(time, seq)` descending; the next
    /// event to pop is `ready.last()`.
    ready: Vec<Entry<T>>,
    /// Events beyond the wheel horizon, unsorted; redistributed on rotation.
    overflow: Vec<Entry<T>>,
    /// Cached `(time, seq)` of the queue minimum; `None` means "unknown, compute
    /// on demand" (only ever the case while `ready` is empty).
    head: Option<(SimTime, u64)>,
    /// Cached minimum key of `overflow` (`None` when empty).
    overflow_min: Option<(SimTime, u64)>,
    /// Scan accelerator: no occupied wheel slot lies in `[cur_slot, scan_hint)`.
    /// Raised as head scans verify slots empty, lowered by pushes and
    /// redistribution — so each empty slot is scanned at most once overall.
    scan_hint: u64,
    /// Events currently stored in `buckets` (excludes `ready` and `overflow`).
    wheel_len: usize,
    /// Total events in the queue.
    len: usize,
    /// Time of the last popped event — the floor below which scheduling would
    /// break the ordering contract (checked in debug builds).
    floor: SimTime,
}

/// Default bucket width: `2^10` ≈ 1 ms. Wide enough that a whole burst of
/// same-batch fan-out deliveries shares one bucket (one sort), narrow enough
/// that sub-millisecond PCIe-class hops still usually cross into the next slot
/// instead of splicing into the live drain buffer. Tuned on the
/// million-arrival `traffic_hetnet` workload with uniform and two-tier links
/// (the reference benchmark in `benchmark/README.md` measures the same data
/// plane).
pub const DEFAULT_SHIFT: u32 = 10;
/// Default bucket count: 128 buckets × 1 ms ≈ 131 ms of horizon — ample for
/// every network hop. The wheel's live footprint (headers + bucket buffers)
/// stays small enough to be cache-resident, which dominates throughput; far
/// events (model swaps, periodic ticks) live in `overflow` behind the cached
/// `overflow_min` and cost nothing until they come due.
pub const DEFAULT_BUCKETS: usize = 128;

/// Largest bucket count [`CalendarGeometry::Auto`] will pick: past this the
/// wheel headers stop being cache-resident and widening the buckets is the
/// better trade.
pub const MAX_AUTO_BUCKETS: usize = 8192;

/// The wheel geometry of a [`CalendarQueue`]: bucket width (`2^shift` µs) ×
/// bucket count. Exposed through `SimConfig::calendar` so scenarios whose hop
/// delays fall outside the tuned default range (sub-µs NVLink, 100 ms WAN) can
/// size the wheel, and `Auto` derives a geometry from the link-delay model's
/// hop range so they usually don't have to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum CalendarGeometry {
    /// Size the wheel from the link-delay model's hop range (see
    /// [`CalendarGeometry::resolve_for_range`]): the bucket width tracks the
    /// shortest hop, the horizon covers the longest. For the paper's uniform
    /// 2 ms testbed this resolves to exactly the tuned
    /// ([`DEFAULT_SHIFT`], [`DEFAULT_BUCKETS`]) defaults.
    #[default]
    Auto,
    /// An explicit geometry: `num_buckets` (a power of two) buckets of
    /// `2^shift` microseconds each.
    Fixed {
        /// log2 of the bucket width in microseconds.
        shift: u32,
        /// Number of buckets (must be a power of two).
        num_buckets: usize,
    },
}

impl CalendarGeometry {
    /// Resolve to a concrete `(shift, num_buckets)` for hop delays spanning
    /// `[min_hop_us, max_hop_us]`.
    ///
    /// `Auto` picks the bucket width near the *shortest* hop (so short-hop
    /// deliveries cross into a later slot instead of splicing into the live
    /// drain buffer) and then grows the bucket count — and, past
    /// [`MAX_AUTO_BUCKETS`], the width — until the horizon covers the
    /// *longest* hop, keeping every `now + hop` push on the O(1) bucket path.
    pub fn resolve_for_range(self, min_hop_us: SimTime, max_hop_us: SimTime) -> (u32, usize) {
        match self {
            CalendarGeometry::Fixed { shift, num_buckets } => (shift, num_buckets),
            CalendarGeometry::Auto => {
                let min_hop = min_hop_us.max(1);
                let max_hop = max_hop_us.max(min_hop);
                // Bucket width: the largest power of two at or below the
                // shortest hop, capped so the width stays well inside u64.
                let mut shift = (63 - min_hop.leading_zeros()).min(20);
                // Bucket count: enough slots (plus slack for rounding) that
                // the longest hop lands inside the window.
                let buckets_for =
                    |shift: u32| ((max_hop >> shift) + 2).next_power_of_two() as usize;
                while buckets_for(shift) > MAX_AUTO_BUCKETS {
                    shift += 1;
                }
                let num_buckets = buckets_for(shift).clamp(DEFAULT_BUCKETS, MAX_AUTO_BUCKETS);
                (shift, num_buckets)
            }
        }
    }
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new(DEFAULT_SHIFT, DEFAULT_BUCKETS)
    }
}

impl<T> CalendarQueue<T> {
    /// Create a queue with `num_buckets` (a power of two) buckets of `2^shift`
    /// microseconds each.
    pub fn new(shift: u32, num_buckets: usize) -> Self {
        assert!(num_buckets.is_power_of_two(), "bucket count must be 2^k");
        assert!(shift < 40, "bucket width must stay well below u64 range");
        Self {
            buckets: (0..num_buckets).map(|_| Vec::new()).collect(),
            mask: num_buckets as u64 - 1,
            shift,
            cur_slot: 0,
            ready: Vec::new(),
            overflow: Vec::new(),
            head: None,
            overflow_min: None,
            scan_hint: 0,
            wheel_len: 0,
            len: 0,
            floor: 0,
        }
    }

    /// Number of events currently scheduled.
    pub fn len(&self) -> usize {
        self.len
    }

    /// log2 of the bucket width in microseconds.
    pub fn shift(&self) -> u32 {
        self.shift
    }

    /// Number of wheel buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Events currently parked past the wheel horizon. A well-sized geometry
    /// keeps hop-delayed deliveries off this list entirely (only sparse far
    /// events — periodic ticks, model swaps — should ever land here).
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule an event. `seq` must be unique and callers must never schedule
    /// in the past (before the last popped event's time).
    #[inline]
    pub fn push(&mut self, time: SimTime, seq: u64, item: T) {
        debug_assert!(
            time >= self.floor,
            "event scheduled in the past: {time} < last popped {}",
            self.floor
        );
        let slot = time >> self.shift;
        let entry = Entry { time, seq, item };
        self.len += 1;
        // Hot path: a future slot inside the window (virtually every delivery,
        // since the wheel position trails the caller's clock).
        let ahead = slot.wrapping_sub(self.cur_slot);
        if ahead.wrapping_sub(1) < self.mask {
            // 1 <= ahead <= num_buckets - 1
            self.buckets[(slot & self.mask) as usize].push(entry);
            self.wheel_len += 1;
            if slot < self.scan_hint {
                self.scan_hint = slot;
            }
        } else {
            self.push_slow(slot, entry);
        }
        // A new event can only lower a *known* head. An unknown head (None with
        // len > 1) stays unknown: the hidden minimum may be smaller.
        match self.head {
            Some(h) if (time, seq) < h => self.head = Some((time, seq)),
            None if self.len == 1 => self.head = Some((time, seq)),
            _ => {}
        }
    }

    /// The rare push targets: the slot currently being drained, and slots past
    /// the horizon.
    fn push_slow(&mut self, slot: u64, entry: Entry<T>) {
        if slot <= self.cur_slot {
            debug_assert!(slot == self.cur_slot, "past slots are unreachable");
            // The slot being drained: splice into the sorted ready list at the
            // position the global order requires.
            let key = (entry.time, entry.seq);
            let idx = self.ready.partition_point(|e| (e.time, e.seq) > key);
            self.ready.insert(idx, entry);
        } else {
            // Past the horizon (`slot >= cur_slot + num_buckets`; the fast path
            // took everything in between).
            let key = (entry.time, entry.seq);
            if self.overflow_min.is_none_or(|m| key < m) {
                self.overflow_min = Some(key);
            }
            self.overflow.push(entry);
        }
    }

    /// The `(time, seq)` of the next event. Never moves the wheel position;
    /// recomputes the cached head with a read-only scan when it is unknown.
    #[inline]
    pub fn peek(&mut self) -> Option<(SimTime, u64)> {
        if self.head.is_some() || self.len == 0 {
            return self.head;
        }
        self.refresh_head();
        self.head
    }

    /// Recompute `head` without draining anything. `ready` (current-slot
    /// events, e.g. pushed there after the head went lazy) precedes everything
    /// else; otherwise the head is the minimum over the first non-empty bucket
    /// ahead (whose entries all share the smallest occupied slot, hence contain
    /// the wheel minimum) and the cached overflow minimum. Overflow events may
    /// be due *before* deeper wheel events — their slots only have to be past
    /// the horizon as of push time — which is why those two are compared by key
    /// rather than by position.
    fn refresh_head(&mut self) {
        if let Some(e) = self.ready.last() {
            self.head = Some((e.time, e.seq));
            return;
        }
        let mut best = self.overflow_min;
        if self.wheel_len > 0 {
            // Slots below `scan_hint` are already known to be empty, and the
            // hint only ever rises over verified-empty slots — so across the
            // queue's lifetime each empty slot is scanned once, keeping the
            // amortized head cost O(1).
            let mut slot = self.scan_hint.max(self.cur_slot);
            loop {
                let bucket = &self.buckets[(slot & self.mask) as usize];
                if !bucket.is_empty() {
                    let m = bucket
                        .iter()
                        .map(|e| (e.time, e.seq))
                        .min()
                        .expect("bucket is non-empty");
                    if best.is_none_or(|b| m < b) {
                        best = Some(m);
                    }
                    break;
                }
                slot += 1;
                debug_assert!(
                    slot <= self.cur_slot + self.mask + 1,
                    "wheel_len > 0 implies an occupied slot inside the window"
                );
            }
            self.scan_hint = slot;
        }
        self.head = best;
    }

    /// Remove and return the next event in ascending `(time, seq)` order.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        if self.ready.is_empty() && !self.advance() {
            return None;
        }
        let e = self.ready.pop().expect("ready is non-empty");
        self.len -= 1;
        self.floor = e.time;
        // `ready` holds only current-slot events, which precede everything on
        // the wheel and in overflow; when it drains, the head goes lazy.
        self.head = self.ready.last().map(|n| (n.time, n.seq));
        Some((e.time, e.seq, e.item))
    }

    /// Jump the wheel to the head's slot and drain that bucket into `ready`.
    /// Returns false when the queue is empty. Only called with an empty
    /// `ready`, from `pop` — so the wheel position never outruns consumption.
    ///
    /// No slot-by-slot stepping happens here: the head is the queue minimum,
    /// and an event in any slot strictly between the current position and the
    /// head's slot would have a smaller time than the head — a contradiction —
    /// so every slot in between is provably empty.
    fn advance(&mut self) -> bool {
        if self.len == 0 {
            return false;
        }
        if self.head.is_none() {
            self.refresh_head();
        }
        let (time, _) = self.head.expect("a non-empty queue has a head");
        let target = time >> self.shift;
        debug_assert!(target >= self.cur_slot);
        self.cur_slot = target;
        // When the next event (or anything due inside the new window's reach)
        // still sits in overflow, pull it onto the wheel before draining.
        if self
            .overflow_min
            .is_some_and(|(t, _)| t >> self.shift <= target)
        {
            self.redistribute();
        }
        let bucket = &mut self.buckets[(target & self.mask) as usize];
        debug_assert!(!bucket.is_empty(), "the head's slot must be occupied");
        debug_assert!(bucket.iter().all(|e| e.time >> self.shift == target));
        // Recycle allocations: the drained bucket takes ready's (empty)
        // buffer, ready takes the bucket's.
        std::mem::swap(bucket, &mut self.ready);
        self.wheel_len -= self.ready.len();
        // Sparse slots hold one or two events, so those cases skip the
        // sort-call overhead entirely. Busy ones hold more (about 11 per 1 ms
        // bucket at 2000 QPS), pushed almost in ascending `(time, seq)`
        // order: sorting ascending keeps insertion sort near its best case,
        // and keys are unique, so reversing gives the same order as a
        // descending sort.
        match self.ready.len() {
            1 => {}
            2 => {
                if (self.ready[0].time, self.ready[0].seq) < (self.ready[1].time, self.ready[1].seq)
                {
                    self.ready.swap(0, 1);
                }
            }
            _ => {
                self.ready.sort_unstable_by_key(|e| (e.time, e.seq));
                self.ready.reverse();
            }
        }
        true
    }

    /// Move every overflow event that now falls inside the window
    /// `[cur_slot, cur_slot + num_buckets)` onto the wheel, and refresh the
    /// cached overflow minimum.
    fn redistribute(&mut self) {
        let horizon = self.cur_slot + self.buckets.len() as u64;
        let mut i = 0;
        while i < self.overflow.len() {
            let slot = self.overflow[i].time >> self.shift;
            if slot < horizon {
                let entry = self.overflow.swap_remove(i);
                self.buckets[(slot & self.mask) as usize].push(entry);
                self.wheel_len += 1;
                if slot < self.scan_hint {
                    self.scan_hint = slot;
                }
            } else {
                i += 1;
            }
        }
        self.overflow_min = self
            .overflow
            .iter()
            .map(|e| (e.time, e.seq))
            .fold(None, |acc: Option<(SimTime, u64)>, k| {
                Some(acc.map_or(k, |a| a.min(k)))
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut CalendarQueue<u32>) -> Vec<(SimTime, u64, u32)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e);
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new(4, 8);
        q.push(50, 1, 10);
        q.push(20, 2, 20);
        q.push(20, 3, 30);
        q.push(0, 4, 40);
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek(), Some((0, 4)));
        let order: Vec<u64> = drain(&mut q).into_iter().map(|(_, s, _)| s).collect();
        assert_eq!(order, vec![4, 2, 3, 1]);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn later_push_with_shorter_delay_overtakes() {
        // The delivery-FIFO invariant this queue removes: an event pushed later
        // but due earlier (a short link) must pop before an earlier push with a
        // longer delay. A FIFO cannot express this ordering.
        let mut q = CalendarQueue::<&str>::default();
        q.push(5_000, 1, "slow-link");
        q.push(200, 2, "fast-link");
        assert_eq!(q.pop().map(|(_, _, i)| i), Some("fast-link"));
        assert_eq!(q.pop().map(|(_, _, i)| i), Some("slow-link"));
    }

    #[test]
    fn overflow_events_come_back_in_order() {
        // Tiny wheel (4 buckets x 16 us = 64 us horizon) to force overflow.
        let mut q = CalendarQueue::new(4, 4);
        q.push(1_000_000, 1, 1u32); // far overflow (control tick)
        q.push(10, 2, 2);
        q.push(500, 3, 3); // overflow at push time
        q.push(70_000, 4, 4); // overflow
        assert_eq!(q.peek(), Some((10, 2)));
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, _, i)| i).collect();
        assert_eq!(order, vec![2, 3, 4, 1]);
    }

    #[test]
    fn overflow_due_before_deep_wheel_events_wins_the_peek() {
        // An overflow event can become due before wheel events once the window
        // slides: peek must compare by key, not by storage location.
        let mut q = CalendarQueue::new(4, 4); // horizon 64 us
        q.push(0, 1, 1u32);
        q.push(100, 2, 2); // overflow at push time (slot 6 >= 0 + 4)
        assert_eq!(q.pop().map(|(_, _, i)| i), Some(1));
        // Now cur_slot = 0, wheel empty; push a wheel event *after* 100 us.
        q.push(40, 3, 3); // slot 2, on the wheel
        assert_eq!(q.peek(), Some((40, 3)));
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, _, i)| i).collect();
        assert_eq!(order, vec![3, 2]);
    }

    #[test]
    fn a_slot_drains_in_key_order_whatever_the_push_order() {
        // Twelve keys in slot 1 (16 µs buckets), with time ties that only
        // `seq` breaks and `seq` values out of time order.
        let keys: [(SimTime, u64); 12] = [
            (16, 3),
            (16, 7),
            (17, 1),
            (18, 0),
            (18, 9),
            (20, 2),
            (23, 4),
            (23, 5),
            (25, 11),
            (28, 6),
            (31, 8),
            (31, 10),
        ];
        let ascending: Vec<usize> = (0..keys.len()).collect();
        let descending: Vec<usize> = ascending.iter().rev().copied().collect();
        let interleaved: Vec<usize> = (0..keys.len() / 2)
            .flat_map(|i| [i, keys.len() - 1 - i])
            .collect();
        for order in [ascending, descending, interleaved] {
            let mut q = CalendarQueue::new(4, 8);
            for &i in &order {
                q.push(keys[i].0, keys[i].1, i as u32);
            }
            let popped: Vec<(SimTime, u64)> =
                drain(&mut q).into_iter().map(|(t, s, _)| (t, s)).collect();
            assert_eq!(popped, keys, "push order {order:?}");
        }
    }

    #[test]
    fn push_into_current_slot_during_drain_keeps_order() {
        let mut q = CalendarQueue::new(4, 8);
        q.push(16, 1, 1u32); // slot 1
        q.push(30, 2, 2); // slot 1
        assert_eq!(q.pop().map(|(t, _, i)| (t, i)), Some((16, 1)));
        // Now draining slot 1; schedule into the same slot ahead of seq 2...
        q.push(20, 3, 3);
        // ...and at the same (time) as an existing entry but a later seq.
        q.push(30, 4, 4);
        assert_eq!(q.peek(), Some((20, 3)));
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, _, i)| i).collect();
        assert_eq!(order, vec![3, 2, 4]);
    }

    #[test]
    fn peek_does_not_move_the_wheel() {
        let mut q = CalendarQueue::new(4, 8);
        q.push(100, 1, 1u32); // slot 6
        assert_eq!(q.peek(), Some((100, 1)));
        // After the peek, a push to an earlier slot must still take the fast
        // bucket path and pop first.
        q.push(20, 2, 2); // slot 1
        assert_eq!(q.peek(), Some((20, 2)));
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, _, i)| i).collect();
        assert_eq!(order, vec![2, 1]);
    }

    /// Push one delivery per hop delay from a moving `now` and assert every
    /// push lands inside the wheel window (never in overflow): the O(1) bucket
    /// path the auto-sizer must preserve across hop ranges.
    fn assert_hops_stay_on_wheel(geometry: CalendarGeometry, hops_us: &[SimTime]) {
        let min = *hops_us.iter().min().unwrap();
        let max = *hops_us.iter().max().unwrap();
        let (shift, buckets) = geometry.resolve_for_range(min, max);
        let mut q = CalendarQueue::<u32>::new(shift, buckets);
        let mut seq = 0u64;
        let mut now = 0;
        for round in 0..200u64 {
            for &hop in hops_us {
                seq += 1;
                q.push(now + hop, seq, round as u32);
                assert_eq!(
                    q.overflow_len(),
                    0,
                    "hop {hop} µs overflowed a 2^{shift} µs x {buckets} wheel"
                );
            }
            while q.len() > hops_us.len() / 2 {
                let (t, _, _) = q.pop().expect("queue non-empty");
                now = t;
            }
        }
    }

    #[test]
    fn auto_geometry_reproduces_the_tuned_default_for_the_uniform_testbed() {
        // The paper's homogeneous 2 ms interconnect must resolve to exactly
        // the constants the wheel was tuned with, so default-config runs keep
        // their measured throughput profile.
        let (shift, buckets) = CalendarGeometry::Auto.resolve_for_range(2_000, 2_000);
        assert_eq!((shift, buckets), (DEFAULT_SHIFT, DEFAULT_BUCKETS));
        // Fixed passes through untouched.
        let fixed = CalendarGeometry::Fixed {
            shift: 4,
            num_buckets: 32,
        };
        assert_eq!(fixed.resolve_for_range(2_000, 2_000), (4, 32));
    }

    #[test]
    fn auto_geometry_keeps_sub_ms_hops_on_the_bucket_path() {
        // NVLink-class 5 µs hops: the default 1 ms buckets would pile every
        // delivery into the live slot; auto-sizing narrows the buckets.
        let (shift, _) = CalendarGeometry::Auto.resolve_for_range(5, 5);
        assert!(shift <= 2, "5 µs hops need sub-8 µs buckets, got 2^{shift}");
        assert_hops_stay_on_wheel(CalendarGeometry::Auto, &[5, 8, 20]);
    }

    #[test]
    fn auto_geometry_keeps_100ms_hops_on_the_bucket_path() {
        // WAN-class 100 ms hops: the default 131 ms horizon barely covers one
        // hop; auto-sizing widens the buckets so the horizon clears it.
        let (shift, buckets) = CalendarGeometry::Auto.resolve_for_range(100_000, 100_000);
        assert!(
            (buckets as u64) << shift > 100_000,
            "horizon must cover a 100 ms hop"
        );
        assert_hops_stay_on_wheel(CalendarGeometry::Auto, &[100_000, 80_000, 120_000]);
    }

    #[test]
    fn auto_geometry_covers_mixed_microsecond_to_wan_ranges() {
        // 5 µs NVLink mixed with 100 ms WAN: the bucket-count cap forces a
        // wider bucket, but the horizon must still cover the longest hop and
        // the bucket count must stay bounded.
        let (shift, buckets) = CalendarGeometry::Auto.resolve_for_range(5, 100_000);
        assert!(buckets <= MAX_AUTO_BUCKETS);
        assert!((buckets as u64) << shift > 100_000);
        assert_hops_stay_on_wheel(CalendarGeometry::Auto, &[5, 500, 100_000]);
    }

    #[test]
    fn interleaved_push_pop_across_rotations() {
        let mut q = CalendarQueue::new(2, 4); // 4 buckets x 4 us = 16 us horizon
        let mut seq = 0u64;
        let mut now = 0;
        let mut popped = Vec::new();
        for round in 0..200u64 {
            seq += 1;
            q.push(now + (round * 7) % 23, seq, seq);
            if round % 3 == 0 {
                if let Some((t, _, item)) = q.pop() {
                    assert!(t >= now, "time went backwards");
                    now = t;
                    popped.push(item);
                }
            }
        }
        while let Some((t, _, item)) = q.pop() {
            assert!(t >= now);
            now = t;
            popped.push(item);
        }
        assert_eq!(popped.len(), 200);
    }
}
