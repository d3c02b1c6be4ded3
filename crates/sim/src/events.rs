//! A deterministic calendar (bucket) event queue.
//!
//! This is the hot core of both simulators: every beacon, arrival, CCA and
//! transmission ending flows through one queue, so its constant factors
//! dominate the Monte-Carlo throughput. The queue exploits what a slot-grid
//! simulator guarantees — integer times on a bounded grid, a small fixed
//! set of priority classes, and near-monotone scheduling — to make `pop`
//! O(1) and `push` O(1) in the common case:
//!
//! * **Slot layout.** Time is hashed into a power-of-two ring of slots
//!   (`time & mask`). Each ring slot is one 4-byte cell holding the tail
//!   of a circular singly-linked list of that slot's entries, kept in
//!   `(priority class, insertion)` order; the tail's successor is the
//!   head. Entries, which carry their class, live in a free-listed arena,
//!   so steady-state push/pop churn allocates nothing. Memory is 4 B per
//!   ring slot (plus one occupancy bit) and one arena entry per pending
//!   event — 24 B for the contention engine's event type.
//! * **Push appends, or walks its slot.** A push whose class is at least
//!   the tail's appends in O(1). One that lands ahead of a higher class
//!   walks from the head past the slot's entries of a lower or equal
//!   class — the simulators' slots hold one to three entries.
//! * **Window invariant.** All pending times span less than the ring size,
//!   so a ring cell never holds two distinct times and the pop cursor can
//!   assign the time from its own position. The ring grows (doubling,
//!   amortized O(1)) whenever a push would violate the span — simulators
//!   that schedule at most one superframe ahead never grow after warm-up.
//! * **Pop is a bitmap hop.** An occupancy bitmap shadows the ring, one
//!   bit per slot, so `pop` walks 64-slot words from the cursor to the
//!   next occupied slot instead of scanning empty cells, then takes that
//!   slot's head. The cursor never rewinds while events are pending, so
//!   one pass over the ring crosses at most ring/64 words: a simulator
//!   whose ring spans one superframe pays O(1) per event plus at most
//!   ring/64 word probes per superframe.
//!
//! # Determinism contract
//!
//! Pop order is **part of the simulators' reproducibility guarantee**:
//! events pop ordered by `(time, priority class, insertion order)`, exactly
//! the order the previous binary-heap implementation produced with its
//! explicit `(time, priority, sequence)` keys. A push never lands ahead of
//! an entry of its own class, so each slot's list realizes the
//! insertion-order tiebreak *by construction* — no sequence counter — and
//! never depends on allocation addresses or hash order, so runs are
//! bit-reproducible. The `calendar_queue_equiv` integration suite pins
//! this queue against a reference binary heap over randomized interleaved
//! workloads.
//!
//! # Contract narrowings vs. the old heap
//!
//! * Priorities must be `< PRIORITY_CLASSES` (the simulators use exactly
//!   five classes; the heap accepted any `u8`).
//! * The span of pending times is bounded by [`MAX_WINDOW`] slots
//!   (reached only by pushing two events ~2²⁸ slots apart — no slot-grid
//!   simulation does; the heap accepted any spread).

/// Sentinel "no entry" index for ring cells, list links and the free list.
const NIL: u32 = u32::MAX;

/// Number of priority classes `push` accepts (`0..PRIORITY_CLASSES`;
/// lower runs first among same-time events). The simulators use five:
/// beacon, transmission-end, CCA, arrival, and the CFP class (GTS
/// transmissions, which never contend and therefore order after every
/// CAP event in their slot).
pub const PRIORITY_CLASSES: usize = 5;

/// Hard ceiling on the ring window, in slots. The window only needs to
/// cover the *span* of simultaneously pending times (one superframe for
/// the simulators), not the whole horizon; 2²⁸ slots is ~23 simulated
/// hours on the 320 µs grid.
pub const MAX_WINDOW: u64 = 1 << 28;

/// Typed rejection of a ring window/span request that exceeds
/// [`MAX_WINDOW`].
///
/// Surfaced by [`WindowError::check`] so callers can validate a
/// simulation horizon up front; [`EventQueue::push`] and
/// [`EventQueue::reserve_window`] panic with this error's message instead
/// of a bare assert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowError {
    /// The offending window/span request, in slots.
    pub requested: u64,
}

impl WindowError {
    /// Checks a prospective window size against [`MAX_WINDOW`] without
    /// needing a queue — the config-validation hook.
    pub fn check(window: u64) -> Result<(), WindowError> {
        if window > MAX_WINDOW {
            Err(WindowError { requested: window })
        } else {
            Ok(())
        }
    }
}

impl core::fmt::Display for WindowError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "event window of {} slots exceeds the {MAX_WINDOW}-slot ceiling",
            self.requested
        )
    }
}

impl std::error::Error for WindowError {}

/// Optional queue operation counters, collected only while telemetry is
/// enabled (see [`EventQueue::set_stats_enabled`]). Collection reads
/// values the queue already computes — it can never change push/pop
/// behavior or ordering.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events pushed.
    pub pushes: u64,
    /// Events popped.
    pub pops: u64,
    /// Ring window growths (reallocation + slot relink).
    pub window_growths: u64,
    /// Cursor skip distances in ring slots: one sample per pop that found
    /// the cursor's slot empty and hopped via the occupancy bitmap.
    pub skip_slots: crate::telemetry::Hist,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    /// `Some` while queued; `None` on the free list.
    payload: Option<E>,
    /// Next entry in the slot's circular list (the tail's `next` is the
    /// head), or the next free entry.
    next: u32,
    /// Priority class (meaningful only while queued).
    class: u8,
}

/// Deterministic calendar queue over an arbitrary event payload `E`.
///
/// Time is an opaque `u64` (the simulators use backoff slots).
///
/// # Examples
///
/// ```
/// use wsn_sim::events::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(20, 0, "late");
/// q.push(10, 1, "early-low-priority");
/// q.push(10, 0, "early-high-priority");
/// assert_eq!(q.pop(), Some((10, "early-high-priority")));
/// assert_eq!(q.pop(), Some((10, "early-low-priority")));
/// assert_eq!(q.pop(), Some((20, "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// One cell per ring slot: the tail of the slot's circular entry
    /// list, or [`NIL`] when the slot is empty.
    tails: Vec<u32>,
    /// Entry arena; vacated entries chain through `free` and are reused by
    /// the next push, so storage is bounded by the peak queue length.
    arena: Vec<Entry<E>>,
    /// Head of the arena free list.
    free: u32,
    /// Pending event count.
    len: usize,
    /// One bit per ring slot, set while the slot holds events — the bitmap
    /// behind the cursor hop.
    occupied: Vec<u64>,
    /// Ring size − 1 (ring size is a power of two).
    mask: u64,
    /// Scan position: every pending event has `time ≥ cursor`.
    cursor: u64,
    /// Largest pending time (meaningful only while `len > 0`).
    max_pending: u64,
    /// Operation counters; `None` (the default) costs one never-taken
    /// branch per operation.
    stats: Option<Box<QueueStats>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with a 256-slot ring (grown on demand).
    pub fn new() -> Self {
        const RING: u64 = 256;
        EventQueue {
            tails: vec![NIL; RING as usize],
            arena: Vec::new(),
            free: NIL,
            len: 0,
            occupied: vec![0; Self::bitmap_words(RING)],
            mask: RING - 1,
            cursor: 0,
            max_pending: 0,
            stats: None,
        }
    }

    /// Turns operation counting on (installing fresh zeroed counters) or
    /// off. Counting is inert: it never changes queue behavior, only the
    /// [`stats`](Self::stats) readout.
    pub fn set_stats_enabled(&mut self, on: bool) {
        self.stats = if on { Some(Box::default()) } else { None };
    }

    /// The operation counters accumulated since
    /// [`set_stats_enabled`](Self::set_stats_enabled)`(true)`, if
    /// counting is on.
    pub fn stats(&self) -> Option<&QueueStats> {
        self.stats.as_deref()
    }

    /// Grows the ring so pushes spanning up to `window` slots need not
    /// grow it again. Cheap when already satisfied; intended for workspace
    /// reuse, where the expected span is known up front.
    ///
    /// # Panics
    ///
    /// Panics if `window` exceeds [`MAX_WINDOW`]; [`WindowError::check`]
    /// tests a window up front.
    pub fn reserve_window(&mut self, window: u64) {
        if let Err(e) = self.ensure_window(window) {
            panic!("{e}");
        }
    }

    /// Ring size in slots.
    fn ring(&self) -> u64 {
        self.mask + 1
    }

    /// Occupancy-bitmap words covering a `ring`-slot window.
    fn bitmap_words(ring: u64) -> usize {
        (ring as usize).div_ceil(64)
    }

    /// Marks ring slot `slot` occupied.
    fn set_occupied(&mut self, slot: usize) {
        self.occupied[slot >> 6] |= 1u64 << (slot & 63);
    }

    /// Clears ring slot `slot`'s occupancy bit.
    fn clear_occupied(&mut self, slot: usize) {
        self.occupied[slot >> 6] &= !(1u64 << (slot & 63));
    }

    /// `true` while ring slot `slot` holds events.
    fn slot_occupied(&self, slot: usize) -> bool {
        self.occupied[slot >> 6] & (1u64 << (slot & 63)) != 0
    }

    /// Ring slot of the next occupied cell strictly after `pos`,
    /// cyclically. Only call while events are pending and slot `pos`
    /// itself is unoccupied — the window invariant (span < ring) then
    /// guarantees the cyclically-next set bit is exactly where the old
    /// linear cursor scan would have stopped.
    fn next_occupied(&self, pos: usize) -> usize {
        let (w0, last) = (pos >> 6, self.occupied.len() - 1);
        let b = (pos & 63) as u32;
        // Bits strictly above `pos` in its own word, then whole words,
        // wrapping. The walk ends because a pending event sets a bit.
        let mut w = w0;
        let mut bits = if b == 63 {
            0
        } else {
            self.occupied[w] & (!0u64 << (b + 1))
        };
        while bits == 0 {
            w = if w == last { 0 } else { w + 1 };
            bits = self.occupied[w];
            debug_assert!(
                bits != 0 || w != w0,
                "occupancy bitmap empty while events pending"
            );
        }
        (w << 6) + bits.trailing_zeros() as usize
    }

    /// Grows the ring to cover at least `needed` slots, moving each
    /// pending slot's list wholesale (its order is kept) and rebuilding the
    /// occupancy bitmap.
    fn ensure_window(&mut self, needed: u64) -> Result<(), WindowError> {
        if needed <= self.ring() {
            return Ok(());
        }
        WindowError::check(needed)?;
        if let Some(stats) = self.stats.as_deref_mut() {
            stats.window_growths += 1;
        }
        let new_ring = needed.next_power_of_two();
        let new_mask = new_ring - 1;
        let mut tails = vec![NIL; new_ring as usize];
        let mut occupied = vec![0u64; Self::bitmap_words(new_ring)];
        if self.len > 0 {
            // The old window invariant (span < old ring) makes every old
            // cell hold exactly one time value, so scanning the pending
            // time range visits each occupied cell exactly once.
            for t in self.cursor..=self.max_pending {
                let old = (t & self.mask) as usize;
                if !self.slot_occupied(old) {
                    continue;
                }
                let slot = (t & new_mask) as usize;
                tails[slot] = self.tails[old];
                occupied[slot >> 6] |= 1u64 << (slot & 63);
            }
        }
        self.tails = tails;
        self.occupied = occupied;
        self.mask = new_mask;
        Ok(())
    }

    /// Schedules `event` at `time` with a priority class (lower runs
    /// first among same-time events).
    ///
    /// # Panics
    ///
    /// Panics if `priority ≥` [`PRIORITY_CLASSES`], or if the pending-time
    /// span would exceed [`MAX_WINDOW`].
    pub fn push(&mut self, time: u64, priority: u8, event: E) {
        assert!(
            (priority as usize) < PRIORITY_CLASSES,
            "priority {priority} out of range (< {PRIORITY_CLASSES})"
        );
        if self.len == 0 {
            self.cursor = time;
            self.max_pending = time;
        } else if time < self.cursor {
            // Sliding the window down is legal as long as the widened span
            // still fits the ring (grow first: the rebuild scan needs the
            // old cursor/max_pending to still describe the pending set).
            // The span saturates rather than wraps, so a span past
            // `u64::MAX` still fails the ceiling check.
            if let Err(e) = self.ensure_window((self.max_pending - time).saturating_add(1)) {
                panic!("{e}");
            }
            self.cursor = time;
        } else if time > self.max_pending {
            if let Err(e) = self.ensure_window((time - self.cursor).saturating_add(1)) {
                panic!("{e}");
            }
            self.max_pending = time;
        }

        let idx = if self.free != NIL {
            let idx = self.free;
            let entry = &mut self.arena[idx as usize];
            self.free = entry.next;
            entry.payload = Some(event);
            entry.class = priority;
            idx
        } else {
            assert!(
                self.arena.len() < NIL as usize,
                "event arena exhausted (u32 index space)"
            );
            self.arena.push(Entry {
                payload: Some(event),
                next: NIL,
                class: priority,
            });
            (self.arena.len() - 1) as u32
        };

        let slot = (time & self.mask) as usize;
        let tail = self.tails[slot];
        if tail == NIL {
            // A one-entry circle: the entry is its own head.
            self.arena[idx as usize].next = idx;
            self.tails[slot] = idx;
            self.set_occupied(slot);
        } else {
            // Insert after the last entry whose class is ≤ `priority`:
            // the tail itself in the common case, else found by walking
            // from the head. The walk stops at the tail at the latest,
            // whose class is then higher than `priority`.
            let appends = self.arena[tail as usize].class <= priority;
            let mut prev = tail;
            if !appends {
                loop {
                    let next = self.arena[prev as usize].next;
                    if self.arena[next as usize].class > priority {
                        break;
                    }
                    prev = next;
                }
            }
            self.arena[idx as usize].next = self.arena[prev as usize].next;
            self.arena[prev as usize].next = idx;
            if appends {
                self.tails[slot] = idx;
            }
        }
        self.len += 1;
        if let Some(stats) = self.stats.as_deref_mut() {
            stats.pushes += 1;
        }
    }

    /// Removes and returns the earliest event (ties: lowest priority
    /// class first, then insertion order).
    pub fn pop(&mut self) -> Option<(u64, E)> {
        if self.len == 0 {
            return None;
        }
        let mut slot = (self.cursor & self.mask) as usize;
        if !self.slot_occupied(slot) {
            // Hop the cursor straight to the next occupied cell. The
            // window invariant (span < ring) means the cyclic distance to
            // that bit is exactly how far the old linear scan would walk.
            let next = self.next_occupied(slot);
            let dist = (next.wrapping_sub(slot) as u64) & self.mask;
            debug_assert!(
                self.cursor + dist <= self.max_pending,
                "pending events must lie within [cursor, max_pending]"
            );
            if let Some(stats) = self.stats.as_deref_mut() {
                stats.skip_slots.record(dist);
            }
            self.cursor += dist;
            slot = next;
        }
        let tail = self.tails[slot];
        debug_assert!(tail != NIL, "occupied ring slot holds no events");
        let head = self.arena[tail as usize].next;
        let entry = &mut self.arena[head as usize];
        let event = entry
            .payload
            .take()
            .expect("queued entry has a payload — queue invariant broken");
        let next = std::mem::replace(&mut entry.next, self.free);
        self.free = head;
        if head == tail {
            self.tails[slot] = NIL;
            self.clear_occupied(slot);
        } else {
            self.arena[tail as usize].next = next;
        }
        self.len -= 1;
        if let Some(stats) = self.stats.as_deref_mut() {
            stats.pops += 1;
        }
        Some((self.cursor, event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all pending events, keeping the ring and arena capacity for
    /// reuse (the workspace path: one clear per simulation run).
    ///
    /// O(pending span), not O(ring): `pop` already resets every cell it
    /// drains, so only cells in `[cursor, max_pending]` can be occupied —
    /// a small run reusing a workspace whose ring was grown by a large
    /// one does not pay a full-ring memset.
    pub fn clear(&mut self) {
        if self.len > 0 {
            for t in self.cursor..=self.max_pending {
                let slot = (t & self.mask) as usize;
                self.tails[slot] = NIL;
                self.clear_occupied(slot);
            }
        }
        self.arena.clear();
        self.free = NIL;
        self.len = 0;
        self.cursor = 0;
        self.max_pending = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(30, 0, 'c');
        q.push(10, 0, 'a');
        q.push(20, 0, 'b');
        assert_eq!(q.pop(), Some((10, 'a')));
        assert_eq!(q.pop(), Some((20, 'b')));
        assert_eq!(q.pop(), Some((30, 'c')));
    }

    #[test]
    fn same_time_fifo_within_priority() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(5, 0, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn priority_classes_break_ties() {
        let mut q = EventQueue::new();
        q.push(5, 2, "later");
        q.push(5, 0, "first");
        q.push(5, 3, "last");
        q.push(5, 1, "second");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "later");
        assert_eq!(q.pop().unwrap().1, "last");
    }

    #[test]
    fn len_counts_pending_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(7, 0, ());
        q.push(3, 0, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(1, 0, 1);
        q.push(5, 0, 5);
        assert_eq!(q.pop(), Some((1, 1)));
        q.push(3, 0, 3);
        q.push(2, 0, 2);
        assert_eq!(q.pop(), Some((2, 2)));
        assert_eq!(q.pop(), Some((3, 3)));
        assert_eq!(q.pop(), Some((5, 5)));
    }

    #[test]
    fn window_grows_on_demand() {
        // Default ring is 256 slots; a 10_000-slot spread must grow it
        // transparently without disturbing order.
        let mut q = EventQueue::new();
        q.push(10_000, 0, "far");
        q.push(0, 0, "near");
        q.push(5_000, 1, "mid");
        assert_eq!(q.pop(), Some((0, "near")));
        assert_eq!(q.pop(), Some((5_000, "mid")));
        assert_eq!(q.pop(), Some((10_000, "far")));
    }

    #[test]
    fn window_growth_preserves_fifo_within_buckets() {
        let mut q = EventQueue::new();
        for i in 0..8 {
            q.push(100, 0, i);
        }
        // Trigger a rebuild while the bucket chain is populated.
        q.push(100_000, 0, 99);
        for i in 0..8 {
            assert_eq!(q.pop(), Some((100, i)));
        }
        assert_eq!(q.pop(), Some((100_000, 99)));
    }

    #[test]
    fn empty_queue_accepts_any_new_epoch() {
        // Draining resets the window origin: a fresh push far below the
        // previous cursor is fine once the queue is empty.
        let mut q = EventQueue::new();
        q.push(1 << 40, 0, "late-epoch");
        assert_eq!(q.pop(), Some((1 << 40, "late-epoch")));
        q.push(3, 0, "early-epoch");
        assert_eq!(q.pop(), Some((3, "early-epoch")));
    }

    #[test]
    fn clear_resets_for_reuse() {
        let mut q = EventQueue::new();
        for i in 0..50 {
            q.push(i, (i % 4) as u8, i);
        }
        q.pop();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.push(2, 0, 2u64);
        q.push(1, 0, 1);
        assert_eq!(q.pop(), Some((1, 1)));
        assert_eq!(q.pop(), Some((2, 2)));
    }

    #[test]
    fn storage_is_reclaimed() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            for i in 0..50 {
                q.push(round * 100 + i, 0, i);
            }
            for _ in 0..50 {
                q.pop();
            }
        }
        assert!(q.is_empty());
        assert!(
            q.arena.len() < 200,
            "arena storage grew unboundedly: {}",
            q.arena.len()
        );
    }

    #[test]
    fn storage_is_reclaimed_under_interleaved_push_pop() {
        // One long-lived event pins the window top while short-lived
        // events churn through below it; the free list must bound arena
        // storage at the peak live count.
        let mut q = EventQueue::new();
        q.push(50_000, 0, 0); // pinned: never popped during the churn
        for i in 0..10_000u64 {
            q.push(i, 0, i);
            q.push(i, 1, i);
            let _ = q.pop();
            let _ = q.pop();
        }
        assert_eq!(q.len(), 1);
        assert!(
            q.arena.len() <= 4,
            "interleaved churn grew storage to {} slots",
            q.arena.len()
        );
        assert_eq!(q.pop(), Some((50_000, 0)));
    }

    #[test]
    fn sparse_hops_cross_words_and_wrap_the_ring() {
        // Gaps wider than one 64-slot occupancy word, and a last hop from
        // slot 16350 to slot 4 of the ring's next turn. Each event is
        // pushed after the one two places before it pops, so the pending
        // span stays under the 2¹⁴-slot ring, the ring never grows, and
        // that hop wraps past the ring's last word into its first.
        let mut q = EventQueue::new();
        q.reserve_window(1 << 14);
        let times = [0u64, 1, 65, 70, 4100, 8200, 8201, 16350, (1 << 14) + 4];
        for i in 0..times.len() + 2 {
            if i >= 2 {
                assert_eq!(q.pop(), Some((times[i - 2], i - 2)));
            }
            if i < times.len() {
                q.push(times[i], (i % PRIORITY_CLASSES) as u8, i);
            }
        }
        assert_eq!(q.pop(), None);
        assert_eq!(q.ring(), 1 << 14);
    }

    #[test]
    fn window_check_reports_typed_error() {
        assert_eq!(WindowError::check(MAX_WINDOW), Ok(()));
        let err =
            WindowError::check(MAX_WINDOW + 1).expect_err("over-ceiling window must be rejected");
        assert_eq!(err.requested, MAX_WINDOW + 1);
        assert!(err.to_string().contains("ceiling"), "{err}");
    }

    #[test]
    #[should_panic(expected = "priority")]
    fn out_of_range_priority_rejected() {
        let mut q = EventQueue::new();
        q.push(0, PRIORITY_CLASSES as u8, ());
    }

    #[test]
    #[should_panic(expected = "ceiling")]
    fn absurd_window_rejected() {
        let mut q = EventQueue::new();
        q.push(0, 0, ());
        q.push(MAX_WINDOW + 1, 0, ());
    }

    #[test]
    #[should_panic(expected = "ceiling")]
    fn span_past_u64_max_rejected_not_wrapped() {
        // A span of 2⁶⁴ slots does not fit a u64: it must fail the
        // ceiling check, not wrap to 0 and mis-time the far event.
        let mut q = EventQueue::new();
        q.push(0, 0, 'a');
        q.push(u64::MAX, 0, 'b');
    }

    #[test]
    #[should_panic(expected = "ceiling")]
    fn span_below_cursor_past_u64_max_rejected() {
        let mut q = EventQueue::new();
        q.push(u64::MAX, 0, 'a');
        q.push(0, 0, 'b');
    }

    #[test]
    #[should_panic(expected = "ceiling")]
    fn window_past_the_largest_power_of_two_rejected() {
        // Rounding 2⁶³ + 1 up to a power of two overflows; the ceiling
        // check must come first.
        EventQueue::<()>::new().reserve_window((1 << 63) + 1);
    }
}
