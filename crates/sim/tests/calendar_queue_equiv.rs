//! Randomized equivalence suite: the calendar queue must reproduce the
//! old `BinaryHeap<Reverse<(time, priority, seq)>>` pop order exactly —
//! the determinism contract every simulator result rests on.
//!
//! A reference heap queue (the pre-calendar implementation's semantics,
//! kept here verbatim as a model) runs side by side with the calendar
//! queue over randomized interleaved push/pop workloads: arbitrary
//! priorities, same-slot storms, drain-and-refill cycles, below-cursor
//! pushes and window growth. Every pop must agree on `(time, payload)`,
//! which pins FIFO order within equal `(slot, priority)` because payloads
//! are unique push indices.
//!
//! Every calendar counts its operations (`QueueStats`), and the model
//! tracks the calendar's cursor rule, so each workload also pins the
//! `pushes`, `pops` and `skip_slots` counters the benchmark's traced gate
//! compares across commits.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use wsn_phy::noise::UniformSource;
use wsn_sim::events::{EventQueue, PRIORITY_CLASSES};
use wsn_sim::telemetry::Hist;
use wsn_sim::Xoshiro256StarStar;

/// The old implementation's ordering semantics: a binary heap over
/// explicit `(time, priority, insertion-sequence)` keys, plus the
/// calendar's cursor rule for the operation counters:
///
/// * a push into an empty queue sets the cursor;
/// * a push below the cursor moves the cursor down;
/// * a pop at `t ≠ cursor` records the skip `t − cursor`, and every pop
///   leaves the cursor at `t`;
/// * `clear` resets the cursor to 0.
#[derive(Default)]
struct HeapQueue {
    heap: BinaryHeap<Reverse<(u64, u8, u64, u64)>>,
    seq: u64,
    cursor: u64,
    pushes: u64,
    pops: u64,
    skip_slots: Hist,
}

impl HeapQueue {
    fn push(&mut self, time: u64, priority: u8, payload: u64) {
        if self.heap.is_empty() || time < self.cursor {
            self.cursor = time;
        }
        self.heap.push(Reverse((time, priority, self.seq, payload)));
        self.seq += 1;
        self.pushes += 1;
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        let Reverse((time, _, _, payload)) = self.heap.pop()?;
        if time != self.cursor {
            self.skip_slots.record(time - self.cursor);
        }
        self.cursor = time;
        self.pops += 1;
        Some((time, payload))
    }

    fn clear(&mut self) {
        self.heap.clear();
        self.cursor = 0;
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// A calendar queue with its operation counters on.
fn counted_queue() -> EventQueue<u64> {
    let mut q = EventQueue::new();
    q.set_stats_enabled(true);
    q
}

/// Asserts the calendar's push/pop/skip counters equal the model's.
fn assert_stats_match(calendar: &EventQueue<u64>, model: &HeapQueue, context: &str) {
    let stats = calendar.stats().expect("counting is on");
    assert_eq!(stats.pushes, model.pushes, "{context}: pushes");
    assert_eq!(stats.pops, model.pops, "{context}: pops");
    assert_eq!(stats.skip_slots, model.skip_slots, "{context}: skip_slots");
}

/// Drives both queues through an identical randomized workload and
/// asserts pop-for-pop equality. `backdate_bias` pushes a fraction of
/// events *below* the highest time pushed so far — while the queue is
/// non-empty — exercising the calendar's slide-the-window-down branch
/// (and its grow-before-slide rebuild when the widened span overflows
/// the ring).
fn drive_equivalence(seed: u64, ops: usize, window: u64, pop_bias: f64, backdate_bias: f64) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut calendar = counted_queue();
    let mut reference = HeapQueue::default();
    let mut payload = 0u64;
    // The simulators never schedule before the current time; mirror that
    // by keying pushes off the last popped time. `high` tracks the top of
    // the pushed range so backdated pushes land below the cursor.
    let mut now = 0u64;
    let mut high = 0u64;

    for op in 0..ops {
        let do_pop = reference.len() > 0 && rng.next_f64() < pop_bias;
        if do_pop {
            let a = calendar.pop();
            let b = reference.pop();
            assert_eq!(a, b, "seed={seed} op={op}: pop divergence");
            if let Some((t, _)) = a {
                now = t;
            }
        } else {
            // Cluster times to force same-slot ties (FIFO coverage) while
            // still exercising the whole window.
            let spread = if rng.next_u64().is_multiple_of(4) {
                rng.next_u64() % window
            } else {
                rng.next_u64() % 4
            };
            let time = if reference.len() > 0 && rng.next_f64() < backdate_bias {
                // Below everything pending (often below the calendar's
                // cursor): pops must still come out min-first.
                high.saturating_sub(1 + rng.next_u64() % window)
            } else {
                now + spread
            };
            let priority = (rng.next_u64() % PRIORITY_CLASSES as u64) as u8;
            calendar.push(time, priority, payload);
            reference.push(time, priority, payload);
            payload += 1;
            high = high.max(time);
        }
        assert_eq!(calendar.len(), reference.len(), "seed={seed} op={op}");
    }
    // Drain both completely.
    loop {
        let a = calendar.pop();
        let b = reference.pop();
        assert_eq!(a, b, "seed={seed}: drain divergence");
        if a.is_none() {
            break;
        }
    }
    assert_stats_match(&calendar, &reference, &format!("seed={seed}"));
}

#[test]
fn pop_order_matches_heap_for_interleaved_workloads() {
    for seed in 0..16u64 {
        drive_equivalence(0xCA1E_0000 + seed, 4_000, 200, 0.45, 0.0);
    }
}

#[test]
fn pop_order_matches_heap_under_window_growth() {
    // Spreads far beyond the 256-slot default ring force ring growth while
    // buckets are populated.
    for seed in 0..8u64 {
        drive_equivalence(0x60_0000 + seed, 2_000, 50_000, 0.40, 0.0);
    }
}

#[test]
fn pop_order_matches_heap_under_drain_refill_cycles() {
    // A pop-heavy mix keeps emptying the queue, resetting the window
    // origin to arbitrary new epochs.
    for seed in 0..8u64 {
        drive_equivalence(0xD8A1_0000 + seed, 3_000, 1_000, 0.75, 0.0);
    }
}

#[test]
fn pop_order_matches_heap_for_same_slot_storms() {
    // Every push lands within 4 slots of the cursor: maximal tie density,
    // the FIFO-within-bucket stress case.
    for seed in 0..8u64 {
        drive_equivalence(0x5707_0000 + seed, 4_000, 1, 0.5, 0.0);
    }
}

#[test]
fn pop_order_matches_heap_with_below_cursor_pushes() {
    // A fifth of the pushes land below everything pending while the queue
    // is non-empty, driving the calendar's slide-the-window-down branch;
    // the wide spread also forces grow-before-slide rebuilds.
    for seed in 0..8u64 {
        drive_equivalence(0xBAC_0000 + seed, 3_000, 2_000, 0.45, 0.2);
    }
    // Narrow spread: backdating without growth (pure cursor slides).
    for seed in 0..8u64 {
        drive_equivalence(0xBAC_1000 + seed, 3_000, 100, 0.45, 0.3);
    }
}

/// The CFP priority class (the fifth, added for GTS transmissions) must
/// obey the same `(time, class, insertion)` contract as the original
/// four: class-4-heavy workloads mixing CFP events with same-slot CAP
/// storms pop in reference-heap order.
#[test]
fn pop_order_matches_heap_for_cfp_class_storms() {
    for seed in 0..8u64 {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xCF9_0000 + seed);
        let mut calendar = counted_queue();
        let mut reference = HeapQueue::default();
        let mut payload = 0u64;
        let mut now = 0u64;
        for _ in 0..3_000 {
            if reference.len() > 0 && rng.next_f64() < 0.45 {
                let a = calendar.pop();
                let b = reference.pop();
                assert_eq!(a, b, "seed={seed}");
                if let Some((t, _)) = a {
                    now = t;
                }
            } else {
                let time = now + rng.next_u64() % 3;
                // Half the pushes land in the CFP class, the rest spread
                // over the CAP classes — maximal cross-class tie density.
                let priority = if rng.next_u64().is_multiple_of(2) {
                    (PRIORITY_CLASSES - 1) as u8
                } else {
                    (rng.next_u64() % (PRIORITY_CLASSES as u64 - 1)) as u8
                };
                calendar.push(time, priority, payload);
                reference.push(time, priority, payload);
                payload += 1;
            }
        }
        loop {
            let a = calendar.pop();
            let b = reference.pop();
            assert_eq!(a, b, "seed={seed}: drain");
            if a.is_none() {
                break;
            }
        }
        assert_stats_match(&calendar, &reference, &format!("seed={seed}"));
    }
}

/// Repeated `grow_ring` relinks while every bucket class is populated:
/// each escalation round doubles the pushed span (256 → 512 → … slots),
/// forcing the ring to grow with live FIFO chains in flight. Every round
/// lands a full storm of all five priority classes exactly at the old
/// window boundary (the last slot the previous ring could hold) and just
/// past it, so the relink must preserve `(time, class, insertion)` order
/// for buckets that move between ring positions.
#[test]
fn pop_order_matches_heap_across_repeated_ring_growth() {
    for seed in 0..8u64 {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x9085_0000 + seed);
        let mut calendar = counted_queue();
        let mut reference = HeapQueue::default();
        let mut payload = 0u64;
        let mut push = |cal: &mut EventQueue<u64>, rf: &mut HeapQueue, t: u64, p: u8| {
            cal.push(t, p, payload);
            rf.push(t, p, payload);
            payload += 1;
        };

        // The default ring holds 256 slots; escalate the span through six
        // doublings so growth fires repeatedly on a populated queue.
        let mut span = 256u64;
        for _round in 0..6 {
            let boundary = span - 1;
            for class in 0..PRIORITY_CLASSES as u8 {
                // Two pushes per class at the boundary slot itself (FIFO
                // ties that must survive the relink) …
                push(&mut calendar, &mut reference, boundary, class);
                push(&mut calendar, &mut reference, boundary, class);
                // … one just past it (the push that triggers growth) …
                push(&mut calendar, &mut reference, boundary + 1, class);
                // … and scattered filler throughout the widened span.
                for _ in 0..3 {
                    let t = rng.next_u64() % (span * 2);
                    push(&mut calendar, &mut reference, t, class);
                }
            }
            // Partially drain so the cursor advances into the grown ring
            // while later rounds' chains are still linked.
            for _ in 0..10 {
                let a = calendar.pop();
                let b = reference.pop();
                assert_eq!(a, b, "seed={seed} span={span}: pop divergence");
            }
            assert_eq!(calendar.len(), reference.len(), "seed={seed} span={span}");
            span *= 2;
        }
        loop {
            let a = calendar.pop();
            let b = reference.pop();
            assert_eq!(a, b, "seed={seed}: drain divergence");
            if a.is_none() {
                break;
            }
        }
        assert_stats_match(&calendar, &reference, &format!("seed={seed}"));
    }
}

#[test]
fn pop_order_matches_heap_for_all_pushes_then_all_pops() {
    // Arbitrary (time, priority) pushed up front — including pushes below
    // earlier times while the queue is non-empty — then drained.
    for seed in 0..8u64 {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xA11_0000 + seed);
        let mut calendar = counted_queue();
        let mut reference = HeapQueue::default();
        for payload in 0..1_500u64 {
            let time = rng.next_u64() % 10_000;
            let priority = (rng.next_u64() % PRIORITY_CLASSES as u64) as u8;
            calendar.push(time, priority, payload);
            reference.push(time, priority, payload);
        }
        loop {
            let a = calendar.pop();
            let b = reference.pop();
            assert_eq!(a, b, "seed={seed}");
            if a.is_none() {
                break;
            }
        }
        assert_stats_match(&calendar, &reference, &format!("seed={seed}"));
    }
}

/// `clear` on a populated queue — mid-workload, with events spread over
/// many slots and classes — leaves a queue that behaves as a fresh one:
/// pop order and counters keep matching the model across the clears.
#[test]
fn pop_order_and_counters_match_heap_across_clears() {
    for seed in 0..8u64 {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xC1EA_0000 + seed);
        let mut calendar = counted_queue();
        let mut reference = HeapQueue::default();
        let mut payload = 0u64;
        let mut now = 0u64;
        for op in 0..4_000 {
            let roll = rng.next_f64();
            if roll < 0.01 {
                calendar.clear();
                reference.clear();
                now = rng.next_u64() % 1_000;
            } else if reference.len() > 0 && roll < 0.45 {
                let a = calendar.pop();
                let b = reference.pop();
                assert_eq!(a, b, "seed={seed} op={op}");
                if let Some((t, _)) = a {
                    now = t;
                }
            } else {
                let time = now + rng.next_u64() % 600;
                let priority = (rng.next_u64() % PRIORITY_CLASSES as u64) as u8;
                calendar.push(time, priority, payload);
                reference.push(time, priority, payload);
                payload += 1;
            }
            assert_eq!(calendar.len(), reference.len(), "seed={seed} op={op}");
        }
        loop {
            let a = calendar.pop();
            let b = reference.pop();
            assert_eq!(a, b, "seed={seed}: drain");
            if a.is_none() {
                break;
            }
        }
        assert_stats_match(&calendar, &reference, &format!("seed={seed}"));
    }
}
