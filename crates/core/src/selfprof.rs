//! Zero-cost-when-off engine self-profiling.
//!
//! KTAU's thesis is that kernel-level measurement can be cheap enough to
//! leave on; this module turns the same lens on the simulator itself.  With
//! the `selfprof` cargo feature enabled, the DES hot path (event queue,
//! slab, dispatch loop) increments a fixed set of relaxed atomic counters
//! and accumulates per-event-class dispatch time; without the feature every
//! entry point is an empty `#[inline(always)]` function the optimizer
//! erases, so the default build carries no instructions, no atomics and no
//! branches for it — verified by the digest gates staying bit-identical
//! across both builds.
//!
//! Counter semantics (all monotonically increasing since process start or
//! the last [`reset`]):
//!
//! | counter            | incremented when                                     |
//! |--------------------|------------------------------------------------------|
//! | `queue_push`       | an event enters the queue (post route-diversion)     |
//! | `queue_pop`        | an event leaves the queue                            |
//! | `push_cur`         | push landed in the sorted current-slot run           |
//! | `push_wheel`       | push landed in an unsorted future wheel bucket       |
//! | `push_overflow`    | push landed in the beyond-horizon overflow heap      |
//! | `push_lane`        | push landed in the tick-lane min-heap                |
//! | `slab_hit`         | payload slot reused from the free list               |
//! | `slab_miss`        | slab had to grow for a payload                       |
//! | `key_cmp`          | one `(time, point, seq)` key comparison anywhere in  |
//! |                    | queue code (sifts, binary searches, pop selection)   |
//! | `slots_matured`    | a wheel bucket was sorted into the current run       |
//! | `mature_scan`      | one empty bucket skipped while locating that slot    |
//!
//! Dispatch time is banked per event class (the 8 `Event` wire tags) as a
//! `(count, ns)` pair; `ns` comes from the host monotonic clock, so it is
//! attribution data for a profiling pass, not part of simulated state.
//! Nothing here ever feeds back into simulation: digests are identical with
//! the feature on and off.

/// Counters exposed by the self-profiler, in the order they are reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Events entering the queue.
    QueuePush,
    /// Events leaving the queue.
    QueuePop,
    /// Pushes landing in the sorted current-slot run.
    PushCur,
    /// Pushes landing in an unsorted future wheel bucket.
    PushWheel,
    /// Pushes landing in the overflow min-heap.
    PushOverflow,
    /// Pushes landing in the tick-lane min-heap.
    PushLane,
    /// Slab slots reused from the free list.
    SlabHit,
    /// Slab growths (no free slot available).
    SlabMiss,
    /// Ordering-key comparisons performed by queue code.
    KeyCmp,
    /// Wheel buckets matured (sorted) into the current run.
    SlotsMatured,
    /// Empty buckets skipped while locating the next non-empty slot.
    MatureScan,
}

/// Number of [`Counter`] variants.
pub const NUM_COUNTERS: usize = 11;

/// Printable names, index-aligned with [`Counter`].
pub const COUNTER_NAMES: [&str; NUM_COUNTERS] = [
    "queue_push",
    "queue_pop",
    "push_cur",
    "push_wheel",
    "push_overflow",
    "push_lane",
    "slab_hit",
    "slab_miss",
    "key_cmp",
    "slots_matured",
    "mature_scan",
];

/// Number of event classes dispatch time is attributed to (the 8 `Event`
/// wire tags).
pub const NUM_EVENT_CLASSES: usize = 8;

/// Printable event-class names, index-aligned with the `Event` wire tags.
pub const EVENT_CLASS_NAMES: [&str; NUM_EVENT_CLASSES] = [
    "tick",
    "cpu_done",
    "seg_arrive",
    "tx_done",
    "ack_arrive",
    "rtx_timer",
    "wake",
    "release_wake",
];

/// A point-in-time copy of every counter and per-class dispatch total.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values, index-aligned with [`COUNTER_NAMES`].
    pub counters: [u64; NUM_COUNTERS],
    /// Dispatches per event class, index-aligned with
    /// [`EVENT_CLASS_NAMES`].
    pub dispatch_count: [u64; NUM_EVENT_CLASSES],
    /// Host nanoseconds spent dispatching (`Cluster::handle`) per event class.
    pub dispatch_ns: [u64; NUM_EVENT_CLASSES],
}

#[cfg(feature = "selfprof")]
mod imp {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    static COUNTERS: [AtomicU64; NUM_COUNTERS] = [ZERO; NUM_COUNTERS];
    static DISPATCH_COUNT: [AtomicU64; NUM_EVENT_CLASSES] = [ZERO; NUM_EVENT_CLASSES];
    static DISPATCH_NS: [AtomicU64; NUM_EVENT_CLASSES] = [ZERO; NUM_EVENT_CLASSES];

    #[inline]
    pub fn add(c: Counter, n: u64) {
        COUNTERS[c as usize].fetch_add(n, Relaxed);
    }

    #[inline]
    pub fn dispatch_ns(class: usize, ns: u64) {
        DISPATCH_COUNT[class].fetch_add(1, Relaxed);
        DISPATCH_NS[class].fetch_add(ns, Relaxed);
    }

    pub fn snapshot() -> Snapshot {
        let mut s = Snapshot::default();
        for (dst, src) in s.counters.iter_mut().zip(COUNTERS.iter()) {
            *dst = src.load(Relaxed);
        }
        for (dst, src) in s.dispatch_count.iter_mut().zip(DISPATCH_COUNT.iter()) {
            *dst = src.load(Relaxed);
        }
        for (dst, src) in s.dispatch_ns.iter_mut().zip(DISPATCH_NS.iter()) {
            *dst = src.load(Relaxed);
        }
        s
    }

    pub fn reset() {
        for c in COUNTERS.iter() {
            c.store(0, Relaxed);
        }
        for c in DISPATCH_COUNT.iter().chain(DISPATCH_NS.iter()) {
            c.store(0, Relaxed);
        }
    }
}

/// True when the crate was built with the `selfprof` feature (counters are
/// live); false when every probe below is a no-op.
#[inline(always)]
pub const fn enabled() -> bool {
    cfg!(feature = "selfprof")
}

/// Adds `n` to a counter.  No-op without the `selfprof` feature.
#[inline(always)]
pub fn add(c: Counter, n: u64) {
    #[cfg(feature = "selfprof")]
    imp::add(c, n);
    #[cfg(not(feature = "selfprof"))]
    {
        let _ = (c, n);
    }
}

/// Increments a counter by one.  No-op without the `selfprof` feature.
#[inline(always)]
pub fn inc(c: Counter) {
    add(c, 1);
}

/// Banks one dispatch of `class` (an `Event` wire tag) taking `ns` host
/// nanoseconds.  No-op without the `selfprof` feature.
#[inline(always)]
pub fn dispatch_ns(class: usize, ns: u64) {
    #[cfg(feature = "selfprof")]
    imp::dispatch_ns(class, ns);
    #[cfg(not(feature = "selfprof"))]
    {
        let _ = (class, ns);
    }
}

/// Copies out every counter.  All-zero without the `selfprof` feature.
pub fn snapshot() -> Snapshot {
    #[cfg(feature = "selfprof")]
    {
        imp::snapshot()
    }
    #[cfg(not(feature = "selfprof"))]
    {
        Snapshot::default()
    }
}

/// Zeroes every counter.  No-op without the `selfprof` feature.
pub fn reset() {
    #[cfg(feature = "selfprof")]
    imp::reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_align_with_sizes() {
        assert_eq!(COUNTER_NAMES.len(), NUM_COUNTERS);
        assert_eq!(EVENT_CLASS_NAMES.len(), NUM_EVENT_CLASSES);
        assert_eq!(Counter::MatureScan as usize, NUM_COUNTERS - 1);
    }

    #[test]
    fn snapshot_matches_build_mode() {
        reset();
        add(Counter::QueuePush, 3);
        inc(Counter::QueuePush);
        dispatch_ns(2, 40);
        let s = snapshot();
        if enabled() {
            assert_eq!(s.counters[Counter::QueuePush as usize], 4);
            assert_eq!(s.dispatch_count[2], 1);
            assert_eq!(s.dispatch_ns[2], 40);
        } else {
            assert_eq!(s, Snapshot::default());
        }
        reset();
        assert_eq!(snapshot().counters[Counter::QueuePush as usize], 0);
    }
}
