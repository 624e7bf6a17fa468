//! Per-process profile data structures (paper §4.2).
//!
//! A [`Profile`] holds, for every instrumentation event, inclusive and
//! exclusive time plus call counts, computed from an *activation stack* the
//! measurement system keeps while entry/exit probes fire; plus value
//! statistics for atomic events.  The same structure serves both kernel-mode
//! measurement (KTAU, attached to the task structure in the PCB) and
//! user-mode measurement (TAU), which is what makes merged views possible.

use crate::event::EventId;
use crate::time::Ns;
use crate::wire::{CodecError, Reader, Writer};
use serde::{Deserialize, Serialize};

/// Statistics for one entry/exit event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EntryExitStats {
    /// Number of completed activations.
    pub count: u64,
    /// Total inclusive time (outermost activations only, so recursion does
    /// not double-count).
    pub incl_ns: Ns,
    /// Total exclusive time (time not spent in nested instrumented events).
    pub excl_ns: Ns,
    /// Smallest single inclusive time observed.
    pub min_incl_ns: Ns,
    /// Largest single inclusive time observed.
    pub max_incl_ns: Ns,
}

impl EntryExitStats {
    fn record(&mut self, incl: Ns, excl: Ns, outermost: bool) {
        self.count += 1;
        self.excl_ns += excl;
        if outermost {
            self.incl_ns += incl;
            if self.count == 1 || incl < self.min_incl_ns {
                self.min_incl_ns = incl;
            }
            if incl > self.max_incl_ns {
                self.max_incl_ns = incl;
            }
        }
    }

    /// Mean inclusive time per call, zero when never called.
    pub fn mean_incl_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.incl_ns as f64 / self.count as f64
        }
    }

    /// Mean exclusive time per call, zero when never called.
    pub fn mean_excl_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.excl_ns as f64 / self.count as f64
        }
    }

    fn absorb(&mut self, o: &EntryExitStats) {
        if o.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *o;
            return;
        }
        self.count += o.count;
        self.incl_ns += o.incl_ns;
        self.excl_ns += o.excl_ns;
        self.min_incl_ns = self.min_incl_ns.min(o.min_incl_ns);
        self.max_incl_ns = self.max_incl_ns.max(o.max_incl_ns);
    }
}

/// Statistics for one atomic event (paper: "values specific to kernel
/// operation, such as the sizes of network packets").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AtomicStats {
    /// Number of occurrences.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Minimum recorded value.
    pub min: u64,
    /// Maximum recorded value.
    pub max: u64,
}

impl AtomicStats {
    fn record(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
    }

    /// Mean value, zero when never recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn absorb(&mut self, o: &AtomicStats) {
        if o.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *o;
            return;
        }
        self.count += o.count;
        self.sum += o.sum;
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
    }
}

/// One frame of the activation (instrumentation) stack.
#[derive(Debug, Clone, Copy)]
struct Activation {
    event: EventId,
    /// Entry-arena slot of `event`, resolved once by the entry probe so the
    /// exit probe and codecs never repeat the id→slot index lookup.
    slot: u32,
    entry_ns: Ns,
    /// Inclusive time of already-completed children, used to derive the
    /// parent's exclusive time.
    child_ns: Ns,
    /// Scheduling intervals (`add_interval`) recorded anywhere inside this
    /// activation while it was the outermost frame; lets merged attribution
    /// avoid counting descheduled time both as `schedule` and as part of
    /// the enclosing syscall.
    interval_ns: Ns,
    /// Whether an activation of the same event was already on the stack.
    recursive: bool,
}

/// Result of closing an activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StopInfo {
    /// Inclusive time of the completed activation.
    pub incl_ns: Ns,
    /// Scheduling-interval time that elapsed inside it (see
    /// [`Profile::add_interval`]).
    pub interval_ns: Ns,
    /// Whether an activation of the same event enclosed this one.
    pub recursive: bool,
}

/// Errors from incorrect probe nesting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileError {
    /// `stop` fired with an empty activation stack.
    StopWithoutStart(EventId),
    /// `stop` fired for a different event than the stack top.
    MismatchedStop {
        /// Event the probe tried to stop.
        stopped: EventId,
        /// Event actually on top of the stack.
        expected: EventId,
    },
    /// Timestamp went backwards relative to the activation entry.
    TimeWentBackwards,
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::StopWithoutStart(e) => write!(f, "stop({e}) without start"),
            ProfileError::MismatchedStop { stopped, expected } => {
                write!(f, "stop({stopped}) but stack top is {expected}")
            }
            ProfileError::TimeWentBackwards => write!(f, "exit timestamp before entry"),
        }
    }
}

impl std::error::Error for ProfileError {}

/// A per-process (or aggregated) performance profile.
///
/// ```
/// use ktau_core::profile::Profile;
/// use ktau_core::event::EventId;
///
/// let mut p = Profile::new();
/// p.start(EventId(0), 0);        // enter syscall at t=0
/// p.start(EventId(1), 100);      // enter nested tcp work
/// p.stop(EventId(1), 400).unwrap();
/// p.stop(EventId(0), 1_000).unwrap();
/// let outer = p.entry_stats(EventId(0));
/// assert_eq!(outer.incl_ns, 1_000);
/// assert_eq!(outer.excl_ns, 700);  // child time carved out
/// ```
/// Storage is *lazy*: statistics live in compact slot arenas allocated on
/// an event's first fire, with a dense `u32` index translating event ids to
/// slots — O(ids touched × 4 bytes + slots fired × 44 bytes) instead of
/// O(max id × 44 bytes) dense vectors.  The `KTAS` encoding
/// ([`Profile::encode_wire`]) lists the allocated slots by ascending event
/// id, so it does not depend on the order slots were first fired in; state
/// digests hash that encoding.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Event index → entry-slot index + 1 (`0` = never fired).
    entry_idx: Vec<u32>,
    /// Entry/exit stats, allocated on first fire.  [`Profile::entry_active`]
    /// is the parallel recursion-counter arena: two packed arrays instead of
    /// one padded struct-of-both (48 bytes a slot) keep a fired slot at
    /// 40 + 4 bytes.
    entry_slots: Vec<EntryExitStats>,
    /// Live-activation count per fired slot, parallel to `entry_slots`.
    entry_active: Vec<u32>,
    /// Event index → atomic-slot index + 1 (`0` = never fired).
    atomic_idx: Vec<u32>,
    atomic_slots: Vec<AtomicStats>,
    stack: Vec<Activation>,
}

/// Event ids at or above this are structurally impossible for real
/// profiles (the registry hands ids out densely), and an id sizes the
/// index a decoder allocates — so the decoders reject them.
pub(crate) const MAX_EVENT_ID: u32 = 1 << 20;

/// Slot-arena lookup shared by the entry and atomic tables: maps event
/// index `i` to its slot, allocating a default slot on first touch.
#[inline]
fn alloc_slot<T: Default>(idx: &mut Vec<u32>, slots: &mut Vec<T>, i: usize) -> usize {
    if idx.len() <= i {
        idx.resize(i + 1, 0);
    }
    if idx[i] == 0 {
        slots.push(T::default());
        idx[i] = slots.len() as u32;
    }
    idx[i] as usize - 1
}

/// Entry-table variant of [`alloc_slot`]: the stats and recursion-counter
/// arenas grow in lockstep.
#[inline]
fn alloc_entry(
    idx: &mut Vec<u32>,
    slots: &mut Vec<EntryExitStats>,
    active: &mut Vec<u32>,
    i: usize,
) -> usize {
    let s = alloc_slot(idx, slots, i);
    if active.len() < slots.len() {
        active.resize(slots.len(), 0);
    }
    s
}

impl Profile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Probe-path slot lookup: allocates on first fire.
    #[inline]
    fn ensure_entry(&mut self, id: EventId) -> usize {
        alloc_entry(
            &mut self.entry_idx,
            &mut self.entry_slots,
            &mut self.entry_active,
            id.index(),
        )
    }

    #[inline]
    fn ensure_atomic(&mut self, id: EventId) -> &mut AtomicStats {
        let s = alloc_slot(&mut self.atomic_idx, &mut self.atomic_slots, id.index());
        &mut self.atomic_slots[s]
    }

    #[inline]
    fn entry_pos(&self, i: usize) -> Option<usize> {
        match self.entry_idx.get(i) {
            Some(&s) if s != 0 => Some(s as usize - 1),
            _ => None,
        }
    }

    /// Heap bytes held by the compact storage (index maps, fired slots, the
    /// live activation stack).
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.entry_idx.len() * size_of::<u32>()
            + self.entry_slots.len() * size_of::<EntryExitStats>()
            + self.entry_active.len() * size_of::<u32>()
            + self.atomic_idx.len() * size_of::<u32>()
            + self.atomic_slots.len() * size_of::<AtomicStats>()
            + self.stack.len() * size_of::<Activation>()
    }

    /// Heap bytes the pre-arena dense layout would hold for the same state:
    /// one stats row and one recursion counter per event id up to the
    /// largest touched, fired or not (the index maps span exactly that).
    pub fn dense_equivalent_bytes(&self) -> usize {
        use std::mem::size_of;
        self.entry_idx.len() * (size_of::<EntryExitStats>() + size_of::<u32>())
            + self.atomic_idx.len() * size_of::<AtomicStats>()
            + self.stack.len() * size_of::<Activation>()
    }

    /// Entry probe: pushes an activation at time `now`.
    pub fn start(&mut self, event: EventId, now: Ns) {
        let s = self.ensure_entry(event);
        let recursive = self.entry_active[s] > 0;
        self.entry_active[s] += 1;
        self.stack.push(Activation {
            event,
            slot: s as u32,
            entry_ns: now,
            child_ns: 0,
            interval_ns: 0,
            recursive,
        });
    }

    /// Exit probe: pops the activation, updating inclusive/exclusive stats.
    /// Returns the completed activation's inclusive time and the scheduling
    /// interval time it contained.
    pub fn stop(&mut self, event: EventId, now: Ns) -> Result<StopInfo, ProfileError> {
        let top = match self.stack.last() {
            None => return Err(ProfileError::StopWithoutStart(event)),
            Some(t) => *t,
        };
        if top.event != event {
            return Err(ProfileError::MismatchedStop {
                stopped: event,
                expected: top.event,
            });
        }
        if now < top.entry_ns {
            return Err(ProfileError::TimeWentBackwards);
        }
        self.stack.pop();
        let incl = now - top.entry_ns;
        let excl = incl.saturating_sub(top.child_ns);
        // The entry probe resolved (and if needed allocated) the slot; the
        // exit probe reuses it from the frame instead of repeating the
        // id→slot lookup.
        let s = top.slot as usize;
        self.entry_active[s] -= 1;
        self.entry_slots[s].record(incl, excl, !top.recursive);
        if let Some(parent) = self.stack.last_mut() {
            // A recursive child's inclusive time is already inside the outer
            // activation of the same event; still credit it to the direct
            // parent so the parent's exclusive time stays correct.
            parent.child_ns += incl;
        }
        Ok(StopInfo {
            incl_ns: incl,
            interval_ns: top.interval_ns,
            recursive: top.recursive,
        })
    }

    /// Atomic-event probe.
    pub fn atomic(&mut self, event: EventId, value: u64) {
        self.ensure_atomic(event).record(value);
    }

    /// Records `n` identical completed non-recursive activations of `event`
    /// in closed form: each with inclusive time `incl` and exclusive time
    /// `excl`, none touching the activation stack.  Equivalent to `n`
    /// start/stop pairs of a leaf (or fixed-shape) activation that is not
    /// already active — the dynticks engine uses this to fold coalesced
    /// timer interrupts without replaying them one by one.
    pub fn record_repeat(&mut self, event: EventId, incl: Ns, excl: Ns, n: u64) {
        if n == 0 {
            return;
        }
        let i = self.ensure_entry(event);
        debug_assert_eq!(
            self.entry_active[i], 0,
            "record_repeat on an active event would mis-handle recursion"
        );
        let s = &mut self.entry_slots[i];
        let first = s.count == 0;
        s.count += n;
        s.excl_ns += excl * n;
        s.incl_ns += incl * n;
        if first || incl < s.min_incl_ns {
            s.min_incl_ns = incl;
        }
        if incl > s.max_incl_ns {
            s.max_incl_ns = incl;
        }
    }

    /// Credits `ns` of completed-child inclusive time to the current stack
    /// top, exactly as `stop` does for a popped child.  No-op when the stack
    /// is empty.  Used together with [`Profile::record_repeat`] to fold
    /// activations that completed while an enclosing activation (e.g. a
    /// long-running syscall) stays open.
    pub fn credit_child_time(&mut self, ns: Ns) {
        if let Some(top) = self.stack.last_mut() {
            top.child_ns += ns;
        }
    }

    /// Adds externally-computed entry/exit statistics (used by the scheduler,
    /// which measures switched-out intervals rather than nested activations).
    pub fn add_interval(&mut self, event: EventId, duration: Ns) {
        let s = self.ensure_entry(event);
        self.entry_slots[s].record(duration, duration, true);
        // Credit the interval as child time of any live activation so that
        // e.g. time descheduled inside a syscall is not double-counted as
        // syscall exclusive time.
        if let Some(top) = self.stack.last_mut() {
            top.child_ns += duration;
        }
        // The interval is wall time inside *every* live activation.
        for f in &mut self.stack {
            f.interval_ns += duration;
        }
    }

    /// Current activation-stack depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// The event on top of the activation stack, if any.
    pub fn top(&self) -> Option<EventId> {
        self.stack.last().map(|a| a.event)
    }

    /// The *bottom* (outermost) activation — for user profiles this is the
    /// current top-level routine.
    pub fn outermost(&self) -> Option<EventId> {
        self.stack.first().map(|a| a.event)
    }

    /// Entry/exit stats for an event (default if never fired).
    pub fn entry_stats(&self, event: EventId) -> EntryExitStats {
        self.entry_pos(event.index())
            .map(|s| self.entry_slots[s])
            .unwrap_or_default()
    }

    /// Atomic stats for an event (default if never fired).
    pub fn atomic_stats(&self, event: EventId) -> AtomicStats {
        match self.atomic_idx.get(event.index()) {
            Some(&s) if s != 0 => self.atomic_slots[s as usize - 1],
            _ => AtomicStats::default(),
        }
    }

    /// Iterates `(EventId, stats)` for events with at least one completion.
    pub fn iter_entries(&self) -> impl Iterator<Item = (EventId, &EntryExitStats)> {
        self.entry_idx
            .iter()
            .enumerate()
            .filter(|(_, &s)| s != 0)
            .map(|(i, &s)| (EventId(i as u32), &self.entry_slots[s as usize - 1]))
            .filter(|(_, s)| s.count > 0)
    }

    /// Iterates `(EventId, stats)` for atomic events with occurrences.
    pub fn iter_atomics(&self) -> impl Iterator<Item = (EventId, &AtomicStats)> {
        self.atomic_idx
            .iter()
            .enumerate()
            .filter(|(_, &s)| s != 0)
            .map(|(i, &s)| (EventId(i as u32), &self.atomic_slots[s as usize - 1]))
            .filter(|(_, s)| s.count > 0)
    }

    /// Total exclusive time across all events — for a quiescent profile this
    /// equals total instrumented wall time.
    pub fn total_excl_ns(&self) -> Ns {
        self.entry_slots.iter().map(|s| s.excl_ns).sum()
    }

    /// Merges another profile's statistics into this one (kernel-wide view
    /// aggregation).  Activation stacks are not merged; both profiles should
    /// be quiescent or the in-flight activations are simply ignored.
    pub fn absorb(&mut self, other: &Profile) {
        for (i, &s) in other.entry_idx.iter().enumerate() {
            if s == 0 {
                continue;
            }
            let o = &other.entry_slots[s as usize - 1];
            if o.count == 0 {
                continue;
            }
            let si = alloc_entry(
                &mut self.entry_idx,
                &mut self.entry_slots,
                &mut self.entry_active,
                i,
            );
            self.entry_slots[si].absorb(o);
        }
        for (i, &s) in other.atomic_idx.iter().enumerate() {
            if s == 0 {
                continue;
            }
            let o = &other.atomic_slots[s as usize - 1];
            if o.count == 0 {
                continue;
            }
            let si = alloc_slot(&mut self.atomic_idx, &mut self.atomic_slots, i);
            self.atomic_slots[si].absorb(o);
        }
    }

    /// Clears all statistics but keeps allocation (profile reset control op).
    pub fn reset(&mut self) {
        for s in &mut self.entry_slots {
            *s = EntryExitStats::default();
        }
        for a in &mut self.atomic_slots {
            *a = AtomicStats::default();
        }
        // In-flight activations remain so nesting stays consistent, but their
        // child accumulation restarts.
        for f in &mut self.stack {
            f.child_ns = 0;
            f.interval_ns = 0;
        }
    }

    fn encode_stack(&self, w: &mut Writer) {
        w.u32(self.stack.len() as u32);
        for f in &self.stack {
            w.u32(f.event.0);
            w.u64(f.entry_ns);
            w.u64(f.child_ns);
            w.u64(f.interval_ns);
            w.bool(f.recursive);
        }
    }

    /// One activation is at least 29 bytes on the wire.  Slots are rebound
    /// by [`Profile::rebind_stack_slots`] once the entry tables exist.
    fn decode_stack(r: &mut Reader<'_>) -> Result<Vec<Activation>, CodecError> {
        let n = r.counted(29, "activation stack depth")?;
        let mut stack = Vec::with_capacity(n);
        for _ in 0..n {
            let event = r.u32()?;
            // Rebinding allocates an index entry up to the event id.
            if event >= MAX_EVENT_ID {
                return Err(CodecError::Corrupt("activation event id"));
            }
            stack.push(Activation {
                event: EventId(event),
                slot: 0,
                entry_ns: r.u64()?,
                child_ns: r.u64()?,
                interval_ns: r.u64()?,
                recursive: r.bool()?,
            });
        }
        Ok(stack)
    }

    /// Re-resolves every decoded activation frame's cached entry slot (the
    /// slot is not serialized — it is an index into in-memory arenas the
    /// codec rebuilds in its own order).  A live frame's event normally has
    /// a slot already, via its non-zero recursion counter; allocating here
    /// covers images that lost that invariant.
    fn rebind_stack_slots(&mut self) {
        for i in 0..self.stack.len() {
            let ev = self.stack[i].event;
            self.stack[i].slot = alloc_entry(
                &mut self.entry_idx,
                &mut self.entry_slots,
                &mut self.entry_active,
                ev.index(),
            ) as u32;
        }
    }

    /// Serializes complete profile state — statistics, the live activation
    /// stack, and recursion counters — for the KTAS engine image and the
    /// state digest: only the allocated slots, keyed by event id in
    /// ascending order.
    pub fn encode_wire(&self, w: &mut Writer) {
        let live = self.entry_idx.iter().filter(|&&s| s != 0).count();
        w.u32(live as u32);
        for (i, &s) in self.entry_idx.iter().enumerate() {
            if s == 0 {
                continue;
            }
            let st = &self.entry_slots[s as usize - 1];
            w.u32(i as u32);
            w.u64(st.count);
            w.u64(st.incl_ns);
            w.u64(st.excl_ns);
            w.u64(st.min_incl_ns);
            w.u64(st.max_incl_ns);
            w.u32(self.entry_active[s as usize - 1]);
        }
        let live = self.atomic_idx.iter().filter(|&&s| s != 0).count();
        w.u32(live as u32);
        for (i, &s) in self.atomic_idx.iter().enumerate() {
            if s == 0 {
                continue;
            }
            let a = &self.atomic_slots[s as usize - 1];
            w.u32(i as u32);
            w.u64(a.count);
            w.u64(a.sum);
            w.u64(a.min);
            w.u64(a.max);
        }
        self.encode_stack(w);
    }

    /// Inverse of [`Profile::encode_wire`].  Slot ids must be strictly
    /// ascending and below [`MAX_EVENT_ID`]; anything else is a corrupt
    /// image and fails loudly.
    pub fn decode_wire(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut entry_idx = Vec::new();
        let mut entry_slots: Vec<EntryExitStats> = Vec::new();
        let mut entry_active: Vec<u32> = Vec::new();
        let n = r.counted(48, "profile slot count")?;
        let mut next_min = 0u32;
        for _ in 0..n {
            let id = r.u32()?;
            if id < next_min || id >= MAX_EVENT_ID {
                return Err(CodecError::Corrupt("profile slot id"));
            }
            next_min = id + 1;
            let stats = EntryExitStats {
                count: r.u64()?,
                incl_ns: r.u64()?,
                excl_ns: r.u64()?,
                min_incl_ns: r.u64()?,
                max_incl_ns: r.u64()?,
            };
            let active = r.u32()?;
            let s = alloc_entry(
                &mut entry_idx,
                &mut entry_slots,
                &mut entry_active,
                id as usize,
            );
            entry_slots[s] = stats;
            entry_active[s] = active;
        }
        let mut atomic_idx = Vec::new();
        let mut atomic_slots: Vec<AtomicStats> = Vec::new();
        let n = r.counted(36, "profile atomic slot count")?;
        let mut next_min = 0u32;
        for _ in 0..n {
            let id = r.u32()?;
            if id < next_min || id >= MAX_EVENT_ID {
                return Err(CodecError::Corrupt("profile atomic slot id"));
            }
            next_min = id + 1;
            let a = AtomicStats {
                count: r.u64()?,
                sum: r.u64()?,
                min: r.u64()?,
                max: r.u64()?,
            };
            let s = alloc_slot(&mut atomic_idx, &mut atomic_slots, id as usize);
            atomic_slots[s] = a;
        }
        let stack = Self::decode_stack(r)?;
        let mut p = Profile {
            entry_idx,
            entry_slots,
            entry_active,
            atomic_idx,
            atomic_slots,
            stack,
        };
        p.rebind_stack_slots();
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u32) -> EventId {
        EventId(i)
    }

    #[test]
    fn simple_start_stop_records_incl_and_excl() {
        let mut p = Profile::new();
        p.start(ev(0), 100);
        let info = p.stop(ev(0), 350).unwrap();
        assert_eq!(info.incl_ns, 250);
        assert_eq!(info.interval_ns, 0);
        let s = p.entry_stats(ev(0));
        assert_eq!(s.count, 1);
        assert_eq!(s.incl_ns, 250);
        assert_eq!(s.excl_ns, 250);
        assert_eq!(s.min_incl_ns, 250);
        assert_eq!(s.max_incl_ns, 250);
    }

    #[test]
    fn nesting_splits_exclusive_time() {
        let mut p = Profile::new();
        p.start(ev(0), 0); // parent
        p.start(ev(1), 100); // child
        p.stop(ev(1), 400).unwrap();
        p.stop(ev(0), 1000).unwrap();
        let parent = p.entry_stats(ev(0));
        let child = p.entry_stats(ev(1));
        assert_eq!(parent.incl_ns, 1000);
        assert_eq!(parent.excl_ns, 700);
        assert_eq!(child.incl_ns, 300);
        assert_eq!(child.excl_ns, 300);
    }

    #[test]
    fn recursion_counts_inclusive_once() {
        let mut p = Profile::new();
        p.start(ev(0), 0);
        p.start(ev(0), 10);
        p.stop(ev(0), 90).unwrap();
        p.stop(ev(0), 100).unwrap();
        let s = p.entry_stats(ev(0));
        assert_eq!(s.count, 2);
        // Inclusive counted only for the outermost activation.
        assert_eq!(s.incl_ns, 100);
        // Exclusive: inner 80 + outer (100 - 80) = 100.
        assert_eq!(s.excl_ns, 100);
    }

    #[test]
    fn mismatched_stop_is_an_error() {
        let mut p = Profile::new();
        p.start(ev(0), 0);
        assert_eq!(
            p.stop(ev(1), 10),
            Err(ProfileError::MismatchedStop {
                stopped: ev(1),
                expected: ev(0)
            })
        );
        assert_eq!(
            Profile::new().stop(ev(3), 10),
            Err(ProfileError::StopWithoutStart(ev(3)))
        );
    }

    #[test]
    fn time_backwards_is_an_error() {
        let mut p = Profile::new();
        p.start(ev(0), 100);
        assert_eq!(p.stop(ev(0), 50), Err(ProfileError::TimeWentBackwards));
    }

    #[test]
    fn atomic_stats_track_min_max_sum() {
        let mut p = Profile::new();
        p.atomic(ev(2), 1460);
        p.atomic(ev(2), 40);
        p.atomic(ev(2), 1000);
        let s = p.atomic_stats(ev(2));
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 2500);
        assert_eq!(s.min, 40);
        assert_eq!(s.max, 1460);
        assert!((s.mean() - 833.333).abs() < 0.01);
    }

    #[test]
    fn add_interval_behaves_like_leaf_activation() {
        let mut p = Profile::new();
        p.add_interval(ev(5), 1_000);
        p.add_interval(ev(5), 3_000);
        let s = p.entry_stats(ev(5));
        assert_eq!(s.count, 2);
        assert_eq!(s.incl_ns, 4_000);
        assert_eq!(s.min_incl_ns, 1_000);
        assert_eq!(s.max_incl_ns, 3_000);
    }

    #[test]
    fn add_interval_inside_activation_reduces_parent_exclusive() {
        let mut p = Profile::new();
        p.start(ev(0), 0);
        p.add_interval(ev(9), 400); // e.g. descheduled for 400ns inside syscall
        p.stop(ev(0), 1000).unwrap();
        assert_eq!(p.entry_stats(ev(0)).excl_ns, 600);
        assert_eq!(p.entry_stats(ev(9)).incl_ns, 400);
    }

    #[test]
    fn absorb_merges_counts_and_extrema() {
        let mut a = Profile::new();
        a.start(ev(0), 0);
        a.stop(ev(0), 100).unwrap();
        let mut b = Profile::new();
        b.start(ev(0), 0);
        b.stop(ev(0), 300).unwrap();
        b.atomic(ev(1), 7);
        a.absorb(&b);
        let s = a.entry_stats(ev(0));
        assert_eq!(s.count, 2);
        assert_eq!(s.incl_ns, 400);
        assert_eq!(s.min_incl_ns, 100);
        assert_eq!(s.max_incl_ns, 300);
        assert_eq!(a.atomic_stats(ev(1)).count, 1);
    }

    #[test]
    fn reset_clears_stats_but_keeps_stack() {
        let mut p = Profile::new();
        p.start(ev(0), 0);
        p.start(ev(1), 5);
        p.stop(ev(1), 10).unwrap();
        p.reset();
        assert_eq!(p.entry_stats(ev(1)).count, 0);
        assert_eq!(p.depth(), 1);
        p.stop(ev(0), 100).unwrap();
        assert_eq!(p.entry_stats(ev(0)).count, 1);
        // child time was reset too
        assert_eq!(p.entry_stats(ev(0)).excl_ns, 100);
    }

    #[test]
    fn outermost_and_top_report_stack_ends() {
        let mut p = Profile::new();
        assert_eq!(p.top(), None);
        p.start(ev(3), 0);
        p.start(ev(7), 1);
        assert_eq!(p.outermost(), Some(ev(3)));
        assert_eq!(p.top(), Some(ev(7)));
    }

    fn wire(p: &Profile) -> Vec<u8> {
        let mut w = Writer::new();
        p.encode_wire(&mut w);
        w.into_vec()
    }

    #[test]
    fn lazy_slots_beat_dense_layout_for_sparse_high_ids() {
        let mut p = Profile::new();
        // One routine with a large event id: the dense layout allocated 44
        // bytes for every id below it.
        p.start(ev(500), 0);
        p.stop(ev(500), 100).unwrap();
        assert!(p.bytes() * 3 <= p.dense_equivalent_bytes());
        use std::mem::size_of;
        assert_eq!(
            p.dense_equivalent_bytes(),
            501 * (size_of::<EntryExitStats>() + size_of::<u32>())
        );
        // The image holds the one fired slot: slot count, the slot, an
        // empty atomic table and an empty stack.
        assert_eq!(wire(&p).len(), 4 + 48 + 4 + 4);
    }

    #[test]
    fn wire_roundtrip_is_canonical() {
        let mut p = Profile::new();
        p.start(ev(3), 0);
        p.start(ev(3), 5); // recursive, stays live
        p.start(ev(7), 10);
        p.stop(ev(7), 40).unwrap();
        p.atomic(ev(12), 1460);
        p.add_interval(ev(1), 250);
        let bytes = wire(&p);

        let mut r = Reader::new(&bytes);
        let mut c = Profile::decode_wire(&mut r).unwrap();
        r.expect_end().unwrap();
        // Re-encoding the decoded profile reproduces the image, though the
        // decoder allocated slots in id order, not first-fire order.
        assert_eq!(wire(&c), bytes);
        for i in 0..16 {
            assert_eq!(c.entry_stats(ev(i)), p.entry_stats(ev(i)));
            assert_eq!(c.atomic_stats(ev(i)), p.atomic_stats(ev(i)));
        }
        // The live frames survive: both close the same way.
        for t in [300, 400] {
            assert_eq!(c.stop(ev(3), t), p.stop(ev(3), t));
        }
        assert_eq!(wire(&c), wire(&p));
    }

    #[test]
    fn absorb_extends_entries_watermark_but_not_active() {
        let mut a = Profile::new();
        let mut b = Profile::new();
        b.start(ev(9), 0);
        b.stop(ev(9), 10).unwrap();
        a.absorb(&b);
        assert_eq!(a.entry_stats(ev(9)).count, 1);
        // The absorbed slot extends the dense span to id 9 ...
        assert_eq!(a.dense_equivalent_bytes(), b.dense_equivalent_bytes());
        // ... but carries no live activation: a later start is not
        // recursive.
        assert_eq!(a.depth(), 0);
        a.start(ev(9), 20);
        assert!(!a.stop(ev(9), 30).unwrap().recursive);
    }

    #[test]
    fn hostile_counts_fail_loudly() {
        let decode = |w: Writer| Profile::decode_wire(&mut Reader::new(&w.into_vec()));
        // An image claiming 2^31 slots in a 12-byte input.
        let mut w = Writer::new();
        w.u32(1 << 31);
        w.u64(0);
        assert!(matches!(
            decode(w),
            Err(CodecError::Corrupt("profile slot count"))
        ));
        // Ids at the cap: an entry slot, an atomic slot, a live frame.
        let slot = |w: &mut Writer, id: u32, words: usize| {
            w.u32(1);
            w.u32(id);
            for _ in 0..words {
                w.u64(0);
            }
        };
        let mut w = Writer::new();
        slot(&mut w, MAX_EVENT_ID, 6);
        assert!(matches!(
            decode(w),
            Err(CodecError::Corrupt("profile slot id"))
        ));
        let mut w = Writer::new();
        w.u32(0);
        slot(&mut w, MAX_EVENT_ID, 4);
        assert!(matches!(
            decode(w),
            Err(CodecError::Corrupt("profile atomic slot id"))
        ));
        let mut w = Writer::new();
        w.u32(0);
        w.u32(0);
        slot(&mut w, MAX_EVENT_ID, 4);
        assert!(matches!(
            decode(w),
            Err(CodecError::Corrupt("activation event id"))
        ));
        // An image with out-of-order slot ids.
        let mut p = Profile::new();
        p.start(ev(2), 0);
        p.stop(ev(2), 1).unwrap();
        p.start(ev(5), 2);
        p.stop(ev(5), 3).unwrap();
        let mut bytes = wire(&p);
        // Set the first slot id (2, at offset 4) to 5 so ids repeat.
        bytes[4] = 5;
        assert!(matches!(
            Profile::decode_wire(&mut Reader::new(&bytes)),
            Err(CodecError::Corrupt("profile slot id"))
        ));
    }

    #[test]
    fn zero_count_rows_survive_decode_byte_for_byte() {
        // A hand-built image with a zero-count slot carrying nonzero
        // fields must survive decoding unchanged.
        let mut w = Writer::new();
        w.u32(1); // one slot
        w.u32(0); // event id 0
        w.u64(0); // count 0
        w.u64(77); // but nonzero incl
        w.u64(0);
        w.u64(0);
        w.u64(0);
        w.u32(0); // no live activations
        w.u32(0); // no atomic slots
        w.u32(0); // empty stack
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        let p = Profile::decode_wire(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(p.entry_stats(ev(0)).incl_ns, 77);
        assert_eq!(wire(&p), bytes);
    }

    #[test]
    fn total_excl_equals_elapsed_for_sequential_events() {
        let mut p = Profile::new();
        p.start(ev(0), 0);
        p.stop(ev(0), 40).unwrap();
        p.start(ev(1), 40);
        p.stop(ev(1), 100).unwrap();
        assert_eq!(p.total_excl_ns(), 100);
    }
}
