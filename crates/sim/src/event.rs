//! The event queue behind the event-driven simulator cores.
//!
//! [`EventQueue`] holds any future work item keyed by its release cycle and
//! can answer the question an event-driven core needs — *"when does
//! anything happen next?"* ([`EventQueue::next_release`]) — so that an
//! engine whose ready queue is empty can advance its clock straight to the
//! cycle before the next release instead of spinning through idle cycles.
//!
//! The queue is payload-generic. The tagged engines store delayed memory
//! responses (`(PortRef, tag, Value)`); the ordered engine keeps its
//! per-node delay FIFOs (back-pressure gating is per-edge, so a central
//! queue cannot preserve its delivery order) but derives its wakeup bound
//! with the same head-release rule. The other wakeup sources an
//! event-driven engine must respect — watchdog cycle-budget boundaries,
//! fault-plan window edges, and the simulation cycle limit — are pure
//! deadlines with no payload, so they enter the jump computation as clamps
//! on the target cycle rather than queue entries; timeline window flushes
//! need nothing at all, because probe events carry absolute cycles and the
//! sinks materialize skipped windows from those (see DESIGN.md §7.7).
//!
//! # Scheduling invariants
//!
//! * **Release order.** `drain_due(cycle, out)` moves exactly the items
//!   with `release <= cycle + 1` (ring) or the matured FIFO prefix into
//!   `out`, in insertion order per release cycle — bit-identical to the
//!   per-cycle scan it replaces.
//! * **Quiescence.** For every cycle `x` with
//!   `x < next_release(cycle) - 1`, `drain_due(x, ..)` delivers nothing.
//!   This is the jump-safety property: an engine at cycle `c` with an empty
//!   ready queue may set `c = next_release(c) - 1` without changing any
//!   observable behaviour, because no firing, delivery, or probe event can
//!   occur in the skipped cycles.

use std::collections::VecDeque;

/// Largest constant latency [`EventQueue::new`] serves from a ring; beyond
/// it the ring's bucket array would outweigh the FIFO it replaces.
pub const WHEEL_MAX_LATENCY: u64 = 1 << 14;

/// Fewest buckets a ring grows to.
const MIN_BUCKETS: usize = 16;

/// Future work items bucketed by release cycle.
///
/// Two representations share one interface:
///
/// * **Ring** — a calendar ring of power-of-two length over the in-flight
///   release cycles `lo..=hi`: an item released at cycle `r` lives in
///   bucket `r & (len - 1)`, and because `hi - lo < len` every bucket holds
///   a single release cycle. A push outside the window re-buckets into a
///   ring twice as long (or longer), so any mix of delays is exact: an L1
///   hit of the cache model ([`crate::cache`]) pushed after a DRAM miss
///   lowers `lo` and overtakes it. The drain walks `lo..=cycle + 1`,
///   appending each bucket, which delivers in release order and insertion
///   order within a cycle and catches up over cycles it was not called for.
///   It starts empty and grows to the span of releases in flight.
/// * **FIFO** — the fallback for latencies outside the ring range and for
///   the `mem-delay` fault class, which adds random extra latency. The
///   drain is **front-gated**: it pops only while the front item has
///   matured. With constant latency insertion order equals release order
///   and the gate is exact; with variable delays an item behind a
///   later-releasing front waits for it — deliberately, because that is
///   the delivery order the pre-wheel engines had, and fault-run
///   reproducibility pins it.
pub struct EventQueue<T>(Repr<T>);

enum Repr<T> {
    Ring(Ring<T>),
    /// Front-gated `(release, item)` queue.
    Fifo(VecDeque<(u64, T)>),
}

/// The calendar ring; see [`EventQueue`].
struct Ring<T> {
    /// `buckets[r & (len - 1)]` holds exactly the items releasing at cycle
    /// `r`, for every `r` in `lo..=hi`; the length is a power of two (or 0
    /// before the first push).
    buckets: Vec<Vec<T>>,
    /// No item in flight releases before `lo` (stale while empty).
    lo: u64,
    /// No item in flight releases after `hi` (stale while empty).
    hi: u64,
    /// Total items in flight across all buckets.
    in_flight: usize,
}

impl<T> Ring<T> {
    fn new() -> Self {
        Ring { buckets: Vec::new(), lo: 0, hi: 0, in_flight: 0 }
    }

    #[inline]
    fn bucket(&mut self, release: u64) -> &mut Vec<T> {
        let mask = self.buckets.len() as u64 - 1;
        &mut self.buckets[(release & mask) as usize]
    }

    #[inline]
    fn push(&mut self, release: u64, item: T) {
        let (lo, hi) = if self.in_flight == 0 {
            (release, release)
        } else {
            (self.lo.min(release), self.hi.max(release))
        };
        if hi - lo >= self.buckets.len() as u64 {
            self.grow(hi - lo);
        }
        (self.lo, self.hi) = (lo, hi);
        self.bucket(release).push(item);
        self.in_flight += 1;
    }

    /// Re-buckets into a ring long enough for a window of `span + 1`
    /// release cycles. Any `len` consecutive cycles map one-to-one onto the
    /// old buckets and, the new ring being longer, onto distinct new ones,
    /// so the window starting at the (possibly stale) `lo` moves every item
    /// and keeps every bucket's allocation.
    #[cold]
    fn grow(&mut self, span: u64) {
        let len = (span as usize + 1).next_power_of_two().max(MIN_BUCKETS);
        let fresh = std::iter::repeat_with(Vec::new).take(len).collect();
        let mut old = std::mem::replace(&mut self.buckets, fresh);
        let old_mask = (old.len() as u64).wrapping_sub(1);
        for r in self.lo..self.lo + old.len() as u64 {
            *self.bucket(r) = std::mem::take(&mut old[(r & old_mask) as usize]);
        }
    }

    #[inline]
    fn drain_due(&mut self, cycle: u64, out: &mut Vec<T>) {
        while self.in_flight > 0 && self.lo <= cycle + 1 {
            let lo = self.lo;
            let bucket = self.bucket(lo);
            let n = bucket.len();
            out.append(bucket);
            self.in_flight -= n;
            self.lo += 1;
        }
    }

    fn next_release(&self) -> Option<u64> {
        if self.in_flight == 0 {
            return None;
        }
        let mask = self.buckets.len() as u64 - 1;
        (self.lo..=self.hi).find(|&r| !self.buckets[(r & mask) as usize].is_empty())
    }
}

impl<T> EventQueue<T> {
    /// A queue sized for constant `latency`. Latencies of 0/1 never queue
    /// (the engines emit such responses directly) and latencies above
    /// [`WHEEL_MAX_LATENCY`] would need an oversized ring; both fall back
    /// to the FIFO representation.
    pub fn new(latency: u64) -> Self {
        if (2..=WHEEL_MAX_LATENCY).contains(&latency) {
            EventQueue::sorted()
        } else {
            EventQueue::fifo()
        }
    }

    /// An explicitly FIFO queue, for callers whose per-item delays vary
    /// (e.g. when the `mem-delay` fault class is armed).
    pub fn fifo() -> Self {
        EventQueue(Repr::Fifo(VecDeque::new()))
    }

    /// A release-ordered queue for variable per-item delays that must not
    /// be front-gated — the cached-memory miss path, where short hits
    /// complete while long misses are still in flight.
    pub fn sorted() -> Self {
        EventQueue(Repr::Ring(Ring::new()))
    }

    /// Schedules `item` for cycle `release`.
    #[inline]
    pub fn push(&mut self, release: u64, item: T) {
        match &mut self.0 {
            Repr::Ring(ring) => ring.push(release, item),
            Repr::Fifo(q) => q.push_back((release, item)),
        }
    }

    /// Whether no items are in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of items in flight.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Ring(ring) => ring.in_flight,
            Repr::Fifo(q) => q.len(),
        }
    }

    /// Moves every item due by the end of `cycle` (release `<= cycle + 1`)
    /// into `out`, in issue order, reusing `out`'s capacity across cycles.
    #[inline]
    pub fn drain_due(&mut self, cycle: u64, out: &mut Vec<T>) {
        match &mut self.0 {
            Repr::Ring(ring) => ring.drain_due(cycle, out),
            Repr::Fifo(q) => {
                while q.front().is_some_and(|&(r, _)| r <= cycle + 1) {
                    let (_, item) = q.pop_front().expect("checked");
                    out.push(item);
                }
            }
        }
    }

    /// The earliest cycle at which [`EventQueue::drain_due`] will next
    /// deliver anything, or `None` when empty.
    ///
    /// On the ring this is the earliest release in flight, found by
    /// scanning buckets upward from `lo` — O(gap), paid only when the
    /// caller is about to skip that gap, so O(1) amortized per skipped
    /// cycle. On the FIFO it is the *front* item's release: the drain is
    /// front-gated, so even if a later item matures earlier it cannot be
    /// delivered before the front — the front release, not the minimum
    /// release, is the next delivery cycle. `_cycle` (the caller's clock)
    /// is not needed by either.
    pub fn next_release(&self, _cycle: u64) -> Option<u64> {
        match &self.0 {
            Repr::Ring(ring) => ring.next_release(),
            Repr::Fifo(q) => q.front().map(|&(r, _)| r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains queue state for cycles `from..to` and returns `(cycle, item)`
    /// delivery pairs.
    fn play(q: &mut EventQueue<u32>, from: u64, to: u64) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        for cycle in from..to {
            q.drain_due(cycle, &mut scratch);
            out.extend(scratch.drain(..).map(|v| (cycle, v)));
        }
        out
    }

    fn is_ring(q: &EventQueue<u32>) -> bool {
        matches!(q.0, Repr::Ring(_))
    }

    #[test]
    fn wheel_and_fifo_agree_on_constant_latency() {
        let pushes = [(0u64, 10u32), (0, 11), (3, 12), (5, 13)];
        for latency in [2u64, 3, 7, 64] {
            let mut wheel = EventQueue::new(latency);
            let mut fifo = EventQueue::fifo();
            assert!(is_ring(&wheel));
            let run = |q: &mut EventQueue<u32>| {
                let mut out = Vec::new();
                let mut scratch = Vec::new();
                for cycle in 0..5 + latency + 2 {
                    for &(c, v) in pushes.iter().filter(|&&(c, _)| c == cycle) {
                        q.push(c + latency, v);
                    }
                    q.drain_due(cycle, &mut scratch);
                    out.extend(scratch.drain(..).map(|v| (cycle, v)));
                }
                out
            };
            let w = run(&mut wheel);
            assert_eq!(w, run(&mut fifo));
            assert_eq!(w.len(), pushes.len());
            assert!(wheel.is_empty() && fifo.is_empty());
        }
    }

    #[test]
    fn next_release_matches_first_delivery_cycle() {
        for latency in [2u64, 5, 200] {
            let mut q = EventQueue::new(latency);
            q.push(latency, 1); // pushed at cycle 0
            let r = q.next_release(0).unwrap();
            assert_eq!(r, latency);
            // Jump safety: nothing is delivered strictly before cycle r - 1.
            assert_eq!(play(&mut q, 0, r - 1), Vec::new());
            let mut due = Vec::new();
            q.drain_due(r - 1, &mut due);
            assert_eq!(due, vec![1], "release r is delivered during cycle r - 1");
        }
    }

    #[test]
    fn next_release_sees_the_nearest_of_several_wheel_buckets() {
        let mut q = EventQueue::new(16);
        q.push(3 + 16, 1); // pushed at cycle 3
        q.push(9 + 16, 2); // pushed at cycle 9
        assert_eq!(q.next_release(10), Some(19));
        let mut due = Vec::new();
        q.drain_due(18, &mut due);
        assert_eq!(due, vec![1]);
        assert_eq!(q.next_release(18), Some(25));
    }

    #[test]
    fn fifo_next_release_is_front_gated() {
        // With variable delays the front can mature *later* than an item
        // behind it; the drain (and therefore next_release) must follow the
        // front, preserving the pre-wheel delivery order.
        let mut q = EventQueue::fifo();
        q.push(50, 1);
        q.push(10, 2);
        assert_eq!(q.next_release(0), Some(50));
        assert_eq!(play(&mut q, 0, 48), Vec::new());
        let mut due = Vec::new();
        q.drain_due(49, &mut due);
        assert_eq!(due, vec![1, 2], "both pop once the front matures");
    }

    #[test]
    fn sorted_delivers_in_release_order_not_issue_order() {
        // The cached-memory shape: a long miss issued first, a short hit
        // issued later. Unlike the FIFO, the hit overtakes the miss.
        let mut q = EventQueue::sorted();
        q.push(112, 1); // DRAM miss issued at cycle 0
        q.push(4, 2); // L1 hit issued at cycle 2
        q.push(4, 3); // same-cycle insertion order preserved
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_release(0), Some(4));
        assert_eq!(play(&mut q, 0, 2), Vec::new(), "quiescent before release - 1");
        let mut due = Vec::new();
        q.drain_due(3, &mut due);
        assert_eq!(due, vec![2, 3]);
        assert_eq!(q.next_release(3), Some(112));
        due.clear();
        q.drain_due(111, &mut due);
        assert_eq!(due, vec![1]);
        assert!(q.is_empty());
    }

    #[test]
    fn sorted_agrees_with_fifo_on_constant_latency() {
        let pushes = [(0u64, 10u32), (0, 11), (3, 12), (5, 13)];
        let latency = 7u64;
        let run = |q: &mut EventQueue<u32>| {
            let mut out = Vec::new();
            let mut scratch = Vec::new();
            for cycle in 0..latency + 8 {
                for &(c, v) in pushes.iter().filter(|&&(c, _)| c == cycle) {
                    q.push(c + latency, v);
                }
                q.drain_due(cycle, &mut scratch);
                out.extend(scratch.drain(..).map(|v| (cycle, v)));
            }
            out
        };
        let mut sorted = EventQueue::sorted();
        let mut fifo = EventQueue::fifo();
        assert_eq!(run(&mut sorted), run(&mut fifo));
    }

    #[test]
    fn empty_queue_has_no_next_release() {
        let q: EventQueue<u32> = EventQueue::new(8);
        assert_eq!(q.next_release(123), None);
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn out_of_range_latency_falls_back_to_fifo() {
        assert!(!is_ring(&EventQueue::new(0)));
        assert!(!is_ring(&EventQueue::new(1)));
        assert!(!is_ring(&EventQueue::new(WHEEL_MAX_LATENCY + 1)));
        assert!(is_ring(&EventQueue::new(WHEEL_MAX_LATENCY)));
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// The obviously-correct queue: `(release, seq, item)` kept sorted, so
    /// the due prefix is delivered by release cycle, then by insertion.
    #[derive(Default)]
    struct Model {
        items: Vec<(u64, u64, u32)>,
        seq: u64,
    }

    impl Model {
        fn push(&mut self, release: u64, item: u32) {
            self.items.push((release, self.seq, item));
            self.items.sort_unstable();
            self.seq += 1;
        }

        fn drain_due(&mut self, cycle: u64) -> Vec<u32> {
            let due = self.items.partition_point(|&(r, _, _)| r <= cycle + 1);
            self.items.drain(..due).map(|(_, _, item)| item).collect()
        }

        fn next_release(&self) -> Option<u64> {
            self.items.first().map(|&(r, _, _)| r)
        }
    }

    /// Drives `q` and the model with one seeded schedule of pushes (short
    /// and long delays, releases below every in-flight one, quiet stretches
    /// that empty the queue), drains (some cycles skipped) and clock moves
    /// (one cycle, a jump to `next_release - 1`, or a blind stride), and
    /// compares every delivery and `next_release` after every step.
    /// Returns the ring's final length, how many times the queue emptied
    /// and refilled, and how many pushes released before every item already
    /// in flight.
    fn against_model(mut q: EventQueue<u32>, seed: u64, latency: u64) -> (usize, usize, usize) {
        let mut model = Model::default();
        let mut rng = seed;
        let (mut cycle, mut item) = (0u64, 0u32);
        let (mut refills, mut overtakes) = (0, 0);
        let mut due = Vec::new();
        for step in 0..20_000 {
            // Bursty traffic: every 500 steps a 100-step quiet stretch.
            let quiet = step % 500 >= 400;
            let pushes = if quiet { 0 } else { xorshift(&mut rng) % 4 };
            for _ in 0..pushes {
                let delay = match xorshift(&mut rng) % 8 {
                    0 => 2,
                    1 => xorshift(&mut rng) % 2, // already due
                    2 => latency,
                    3 => 14,
                    4 => 114,
                    5 => 100 + xorshift(&mut rng) % 2_000, // grows the ring
                    _ => 2 + xorshift(&mut rng) % 40,
                };
                match model.next_release() {
                    None if cycle > 0 => refills += 1,
                    Some(first) if cycle + delay < first => overtakes += 1,
                    _ => {}
                }
                q.push(cycle + delay, item);
                model.push(cycle + delay, item);
                item += 1;
            }
            assert_eq!(q.len(), model.items.len(), "step {step}");
            // One cycle in eight skips its drain; the next one catches up.
            if !xorshift(&mut rng).is_multiple_of(8) {
                q.drain_due(cycle, &mut due);
                assert_eq!(due, model.drain_due(cycle), "step {step}, cycle {cycle}");
                due.clear();
            }
            assert_eq!(q.next_release(cycle), model.next_release(), "step {step}");
            cycle = match xorshift(&mut rng) % 4 {
                0 => model.next_release().map_or(cycle + 1, |r| r.saturating_sub(1).max(cycle + 1)),
                1 => cycle + 1 + xorshift(&mut rng) % 300,
                _ => cycle + 1,
            };
        }
        let Repr::Ring(ring) = q.0 else { unreachable!("a ring was passed") };
        (ring.buckets.len(), refills, overtakes)
    }

    #[test]
    fn ring_matches_a_sorted_vec_reference() {
        for seed in [1u64, 0x9e37_79b9_7f4a_7c15, 0xdead_beef] {
            for (q, latency) in [(EventQueue::sorted(), 114), (EventQueue::new(200), 200)] {
                let (len, refills, overtakes) = against_model(q, seed, latency);
                // Growth needs two distinct releases in flight.
                assert!(len > 256, "the ring must grow with items in flight: {len}");
                assert!(refills > 10, "the queue must empty and refill: {refills}");
                assert!(overtakes > 100, "short releases must overtake long ones: {overtakes}");
            }
        }
    }
}
