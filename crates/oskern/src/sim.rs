//! The discrete-event simulation engine and the cluster it drives.
//!
//! A single global event queue in virtual nanoseconds, with a deterministic
//! FIFO tie-break, advances every node's kernel.  All cross-node interaction
//! goes through segment-arrival events produced by the NIC/fabric models.

use crate::config::ClusterSpec;
use crate::node::{Node, TaskSpec};
use crate::task::{Pid, TaskState};
use ktau_core::selfprof::{self, Counter as SpCounter};
use ktau_core::time::Ns;
use ktau_net::{ConnId, Fabric};

/// Simulation events.
///
/// Deliberately *not* `Ord`: the queue orders entries purely by their
/// `(time, point, seq)` key — `seq` is unique, so an event-payload
/// tie-break can never be reached — and keeping `Ord` off the payload makes
/// that correct by construction (nothing can quietly start comparing
/// payloads again) while keeping sift/sort comparisons payload-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Periodic timer interrupt on one CPU.
    Tick {
        /// Node index.
        node: u32,
        /// CPU index.
        cpu: u8,
    },
    /// The in-flight CPU chunk completes.
    CpuDone {
        /// Node index.
        node: u32,
        /// CPU index.
        cpu: u8,
        /// Dispatch generation (stale events are dropped).
        gen: u64,
    },
    /// A TCP segment arrives at a node's NIC.
    SegArrive {
        /// Destination node.
        node: u32,
        /// Connection.
        conn: ConnId,
        /// Per-connection segment sequence number.
        seq: u64,
        /// Payload bytes.
        payload: u32,
    },
    /// The local NIC finished serializing a segment (sndbuf space freed).
    TxDone {
        /// Source node.
        node: u32,
        /// Connection.
        conn: ConnId,
        /// Payload bytes released.
        payload: u32,
    },
    /// A TCP ACK arrives back at the sending node (pure protocol work, no
    /// socket payload).
    AckArrive {
        /// Node that sent the original data (receives the ACK).
        node: u32,
        /// Connection the ACK belongs to.
        conn: ConnId,
        /// Cumulative acknowledgement: every segment below this sequence
        /// number has been delivered in order at the receiver.
        ack_seq: u64,
    },
    /// A sender-side TCP retransmission timer fires (armed only on
    /// fault-injected links; fault-free runs never schedule one).
    RtxTimer {
        /// Sending node that armed the timer.
        node: u32,
        /// Connection being timed.
        conn: ConnId,
        /// Timer generation; a stale generation means the timer was
        /// cancelled or re-armed and this firing is ignored.
        gen: u64,
    },
    /// A blocked task becomes runnable.
    Wake {
        /// Node index.
        node: u32,
        /// Task to wake.
        pid: Pid,
    },
    /// Dynticks engine only: a writer blocked on sndbuf space and the next
    /// NIC-serialization completion (which the dynticks engine books in a
    /// per-connection release ledger instead of a [`Event::TxDone`] per
    /// segment) matures at this time.  The handler applies the matured
    /// releases and wakes the writer — exactly what the elided `TxDone`
    /// would have done.
    ReleaseWake {
        /// Source node.
        node: u32,
        /// Connection.
        conn: ConnId,
    },
}

impl Event {
    /// The node an event is addressed to (every event targets exactly one).
    #[inline]
    pub fn node(&self) -> u32 {
        match *self {
            Event::Tick { node, .. }
            | Event::CpuDone { node, .. }
            | Event::SegArrive { node, .. }
            | Event::TxDone { node, .. }
            | Event::AckArrive { node, .. }
            | Event::RtxTimer { node, .. }
            | Event::Wake { node, .. }
            | Event::ReleaseWake { node, .. } => node,
        }
    }
}

/// Wheel slot width as a power of two: `1 << 15` ns ≈ 32.8 µs per slot.
/// Measured on the LU-16 workload, ~70% of pushes land 4 µs–1 ms ahead of
/// now; this granularity keeps typical slots one or two events deep, which
/// shifts work from sorted same-slot inserts into (occupancy-bitmap-guided,
/// so nearly free) maturity advances — the faster trade on that workload.
const WHEEL_SHIFT: u32 = 15;
/// Wheel span in slots (must be a power of two): 8192 × 32.8 µs ≈ 268 ms of
/// horizon, chosen to cover the second mode of the measured push-delta
/// distribution (daemon sleeps at 16–268 ms, ~23% of LU-16 traffic).
/// Pushes beyond it go to the overflow min-heap instead.  The maturity
/// scan's total cost is `virtual time / slot width` independent of the slot
/// count, so a wide wheel costs only its 8192 bucket headers.
const WHEEL_SLOTS: u64 = 8192;
/// Words in the wheel occupancy bitmap (one bit per physical slot).
const WHEEL_WORDS: usize = (WHEEL_SLOTS as usize) / 64;
/// Drain-run representation threshold: at or above this many entries the
/// run is kept as a min-heap, below it as a sorted-descending `Vec` whose
/// pop is O(1).  64 keeps every LU-16 bucket (one or two events deep) on
/// the cheap sorted path while capping a sorted insert's memmove at 63
/// keys; 10k-node buckets with thousands of events heapify instead.
const CUR_HEAP_MIN: usize = 64;

/// Ordering key of one queued entry: the global `(time, point, seq)` total
/// order plus the slab handle of the payload.  The handle is *never*
/// compared — `seq` is unique — which is why [`QKey::key`] exists and every
/// comparison in the queue goes through it.
#[derive(Debug, Clone, Copy)]
struct QKey {
    time: Ns,
    point: Ns,
    seq: u64,
    handle: u32,
}

impl QKey {
    #[inline]
    fn key(&self) -> (Ns, Ns, u64) {
        (self.time, self.point, self.seq)
    }
}

/// Indexed priority queue over `(time, push-point, fifo-sequence)`.
///
/// Event payloads live exactly once in a free-listed slab; everything that
/// orders them moves only 32-byte [`QKey`]s.  Every event, armed timer
/// ticks included, goes to one of two tiers that share one total order:
///
/// * **Time wheel** — events land by target slot
///   (`time >> WHEEL_SHIFT`).  Future slots within the `WHEEL_SLOTS`
///   horizon are unsorted buckets, ordered *once* when they mature into
///   the drain run `cur` — sorted descending below [`CUR_HEAP_MIN`]
///   entries (pop is a plain `Vec::pop`), Floyd-heapified at or above it.
///   Pushing is O(1) for the ~81% of events that target a future slot;
///   same-slot cascades cost at most `CUR_HEAP_MIN` key moves on the
///   sorted path or O(log bucket) sifts on the heap path — bounded by the
///   slot population, never the queue population, which matters at
///   10k-node scale where one 32.8 µs slot can hold thousands of events
///   (an always-sorted drain run degraded to O(bucket) memmoves per push
///   there; an always-heap run taxed every small-bucket pop with sifts).
/// * **Overflow heap** — entries beyond the wheel horizon.  They are never
///   migrated; a pop simply compares the overflow minimum against the drain
///   run's, which keeps the order exact without re-homing churn.
///
/// Ordering proof sketch: `cur` holds only keys with slot ≤ `cur_slot`,
/// wheel buckets only slots in `(cur_slot, cur_slot + WHEEL_SLOTS]`, so
/// every bucket key is strictly later than every `cur` key (slot is a
/// monotone function of time) and the earliest non-empty bucket holds the
/// wheel's global minimum.  A pop therefore takes the minimum of two
/// ordered structures — `cur` root and `overflow` root — under the full
/// `(time, point, seq)` key, which is exactly the single-heap order; a
/// property test against a `BinaryHeap` model pins this.
#[derive(Debug, Clone)]
pub struct EventQueue {
    /// Event payloads, indexed by [`QKey::handle`].
    slab: Vec<Event>,
    /// Slab slots awaiting reuse.
    free: Vec<u32>,
    /// The slot being drained: sorted descending (next pop is an O(1)
    /// `Vec::pop`) below [`CUR_HEAP_MIN`] entries, min-heap (next pop is
    /// `cur[0]`) at or above it — see [`EventQueue::cur_is_heap`].
    cur: Vec<QKey>,
    /// Representation flag for `cur`.  Small buckets (the common case —
    /// LU-16 averages under two events per matured slot) keep the sorted
    /// layout whose pop is a plain `Vec::pop`; big buckets (10k-node
    /// clusters can put thousands of events in one 32.8 µs slot) switch to
    /// a min-heap so same-slot cascade pushes cost O(log bucket) sifts
    /// instead of O(bucket) memmoves.  Chosen per bucket at maturity, and
    /// a sorted run converts once (O(bucket) heapify) if pushes grow it
    /// past the threshold mid-drain.  Pop order is identical either way:
    /// keys are unique, so the sorted tail and the heap root are the same
    /// global minimum.
    cur_is_heap: bool,
    /// Absolute slot index (`time >> WHEEL_SHIFT`) bounding `cur`: every
    /// key in `cur` has slot ≤ `cur_slot`, every wheel bucket only keys in
    /// `(cur_slot, cur_slot + WHEEL_SLOTS]`.
    cur_slot: u64,
    /// Future slots: bucket `s % WHEEL_SLOTS` holds the (unsorted) events
    /// of exactly one absolute slot `s` within the horizon.
    wheel: Vec<Vec<QKey>>,
    /// Total entries across all wheel buckets.
    wheel_len: usize,
    /// Occupancy bitmap over physical wheel slots: bit `p` set iff
    /// `wheel[p]` is non-empty.  Lets the maturity scan skip runs of empty
    /// buckets a word (64 slots) at a time instead of probing bucket
    /// headers one by one.
    wheel_bits: [u64; WHEEL_WORDS],
    /// Beyond-horizon entries, as a hand-rolled min-heap (see
    /// [`heap_push`]/[`heap_pop`]) so key comparisons stay countable by the
    /// self-profiler.
    overflow: Vec<QKey>,
    seq: u64,
    /// Simulated time of the dispatch currently executing; every `push`
    /// records it as the entry's *push point*.  Queue order is
    /// `(time, point, seq)`, which is provably identical to `(time, seq)`
    /// (dispatch time is monotone, so seq order implies point order) — the
    /// point exists so the dynticks engine can replay reference tie-breaks
    /// between a parked tick and an event firing at the same nanosecond.
    now: Ns,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: Vec::new(),
            cur: Vec::new(),
            cur_is_heap: false,
            cur_slot: 0,
            wheel: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            wheel_len: 0,
            wheel_bits: [0; WHEEL_WORDS],
            overflow: Vec::new(),
            seq: 0,
            now: 0,
        }
    }

    /// Schedules `ev` at absolute time `at`, stamped with the current
    /// dispatch time as its push point.
    pub fn push(&mut self, at: Ns, ev: Event) {
        self.push_at(at, ev, self.now);
    }

    /// Schedules `ev` at `at` with an explicit push `point`.  Used when the
    /// dynticks engine re-arms a previously parked tick: the reference
    /// engine pushed that tick one period before it fires, so the re-push
    /// must carry that original point to keep same-time ordering exact.
    pub fn push_at(&mut self, at: Ns, ev: Event, point: Ns) {
        self.seq += 1;
        selfprof::inc(SpCounter::QueuePush);
        let handle = self.alloc(ev);
        self.insert_key(QKey {
            time: at,
            point,
            seq: self.seq,
            handle,
        });
    }

    /// Parks `ev` in the slab, reusing a freed slot when one exists.
    #[inline]
    fn alloc(&mut self, ev: Event) -> u32 {
        match self.free.pop() {
            Some(h) => {
                selfprof::inc(SpCounter::SlabHit);
                self.slab[h as usize] = ev;
                h
            }
            None => {
                selfprof::inc(SpCounter::SlabMiss);
                self.slab.push(ev);
                (self.slab.len() - 1) as u32
            }
        }
    }

    /// Routes a key to its tier by target slot.
    #[inline]
    fn insert_key(&mut self, k: QKey) {
        let slot = k.time >> WHEEL_SHIFT;
        if slot <= self.cur_slot {
            // Belongs to the run being drained (same-time cascades and
            // decoded snapshot stragglers).
            selfprof::inc(SpCounter::PushCur);
            self.cur_insert(k);
        } else if slot - self.cur_slot <= WHEEL_SLOTS {
            selfprof::inc(SpCounter::PushWheel);
            let p = (slot % WHEEL_SLOTS) as usize;
            self.wheel[p].push(k);
            self.wheel_bits[p >> 6] |= 1 << (p & 63);
            self.wheel_len += 1;
        } else {
            selfprof::inc(SpCounter::PushOverflow);
            heap_push(&mut self.overflow, k);
        }
    }

    /// When the drained run is empty but the wheel holds entries, advances
    /// to the earliest non-empty future slot and sorts it into `cur`.  The
    /// capacities of `cur` and the emptied bucket are swapped, so steady
    /// state allocates nothing.
    fn mature(&mut self) {
        if !self.cur.is_empty() || self.wheel_len == 0 {
            return;
        }
        // Word-at-a-time scan of the occupancy bitmap, starting at the slot
        // after `cur_slot` and wrapping once around the wheel.  `wheel_len
        // > 0` guarantees a set bit within `WHEEL_SLOTS` positions.
        let start = ((self.cur_slot + 1) % WHEEL_SLOTS) as usize;
        let mut w = start >> 6;
        let mut bits = self.wheel_bits[w] & (!0u64 << (start & 63));
        let mut scanned = 0usize;
        while bits == 0 {
            scanned += 1;
            debug_assert!(
                scanned <= WHEEL_WORDS,
                "wheel_len > 0 but no bucket within the horizon"
            );
            w = (w + 1) & (WHEEL_WORDS - 1);
            bits = self.wheel_bits[w];
        }
        let p = (w << 6) | bits.trailing_zeros() as usize;
        let skipped = (p + WHEEL_SLOTS as usize - start) % WHEEL_SLOTS as usize;
        selfprof::add(SpCounter::MatureScan, skipped as u64);
        selfprof::inc(SpCounter::SlotsMatured);
        std::mem::swap(&mut self.cur, &mut self.wheel[p]);
        self.wheel_bits[w] &= !(1u64 << (p & 63));
        self.wheel_len -= self.cur.len();
        self.cur_slot = self.cur_slot + 1 + skipped as u64;
        self.cur_is_heap = self.cur.len() >= CUR_HEAP_MIN;
        if self.cur_is_heap {
            heap_build(&mut self.cur);
        } else {
            cur_sort(&mut self.cur);
        }
    }

    /// Inserts a key into the drain run, preserving whichever representation
    /// it is in; a sorted run that outgrows [`CUR_HEAP_MIN`] converts to a
    /// heap once (O(bucket) Floyd build) rather than paying growing memmoves.
    #[inline]
    fn cur_insert(&mut self, k: QKey) {
        if self.cur_is_heap {
            heap_push(&mut self.cur, k);
        } else if self.cur.len() + 1 >= CUR_HEAP_MIN {
            self.cur.push(k);
            self.cur_is_heap = true;
            heap_build(&mut self.cur);
        } else {
            let key = k.key();
            selfprof::add(
                SpCounter::KeyCmp,
                (self.cur.len() as u64 + 2).ilog2() as u64,
            );
            let pos = self.cur.partition_point(|e| e.key() > key);
            self.cur.insert(pos, k);
        }
    }

    /// Minimum of the drain run: the sorted layout keeps it at the tail,
    /// the heap at the root.
    #[inline]
    fn cur_min(&self) -> Option<&QKey> {
        if self.cur_is_heap {
            self.cur.first()
        } else {
            self.cur.last()
        }
    }

    /// Removes and returns the drain-run minimum.
    #[inline]
    fn cur_pop(&mut self) -> Option<QKey> {
        if self.cur_is_heap {
            heap_pop(&mut self.cur)
        } else {
            self.cur.pop()
        }
    }

    /// Marks `at` as the dispatch time stamped onto subsequent pushes, and
    /// advances the wheel's drain position: every pending entry now has
    /// time ≥ `at`, so slots before `at`'s are provably empty and the next
    /// maturity scan can start just behind it.
    pub fn set_now(&mut self, at: Ns) {
        self.now = at;
        let slot = at >> WHEEL_SHIFT;
        if slot > self.cur_slot {
            debug_assert!(
                self.cur.is_empty(),
                "drained run held an entry earlier than the dispatch time"
            );
            self.cur_slot = slot - 1;
        }
    }

    /// Pops the earliest pending event under the global
    /// `(time, point, seq)` order, with its push point, if its time is at
    /// most `deadline`; a later event stays queued (callers' deadline
    /// diagnostics must find it still inspectable).  `Ns::MAX` pops
    /// unconditionally.
    pub fn pop_due(&mut self, deadline: Ns) -> Option<(Ns, Ns, Event)> {
        self.mature();
        // Tier selection: the drain run almost always wins, and the
        // overflow heap is empty outside long daemon sleeps.  Keys are
        // unique (`seq`), so one strict comparison picks the minimum.
        selfprof::inc(SpCounter::KeyCmp);
        let (from_cur, time) = match (self.cur_min(), self.overflow.first()) {
            (Some(c), Some(o)) if o.key() < c.key() => (false, o.time),
            (Some(c), _) => (true, c.time),
            (None, Some(o)) => (false, o.time),
            (None, None) => return None,
        };
        if time > deadline {
            return None;
        }
        selfprof::inc(SpCounter::QueuePop);
        let k = if from_cur {
            self.cur_pop()
        } else {
            heap_pop(&mut self.overflow)
        }
        .expect("selected tier is non-empty");
        let ev = self.slab[k.handle as usize];
        self.free.push(k.handle);
        Some((k.time, k.point, ev))
    }

    /// Number of pending events (armed ticks included).
    pub fn len(&self) -> usize {
        self.cur.len() + self.wheel_len + self.overflow.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every entry's key, in no particular order.
    fn iter_keys(&self) -> impl Iterator<Item = &QKey> {
        self.cur
            .iter()
            .chain(self.overflow.iter())
            .chain(self.wheel.iter().flatten())
    }

    /// Pending event counts by kind, as a lazily-formatted value: counting
    /// allocates nothing, and the counts only turn into text when something
    /// actually `Display`s them (the deadlock-panic path).  The common
    /// non-error path — embedding this in a report that is never printed —
    /// stays free of per-event intermediate `String`s.
    pub fn pending_summary(&self) -> PendingSummary {
        let mut s = PendingSummary {
            total: self.len(),
            ..PendingSummary::default()
        };
        for ev in self.iter_keys().map(|k| &self.slab[k.handle as usize]) {
            match ev {
                Event::Tick { .. } => s.tick += 1,
                Event::CpuDone { .. } => s.cpu_done += 1,
                Event::SegArrive { .. } => s.seg += 1,
                Event::TxDone { .. } => s.tx += 1,
                Event::AckArrive { .. } => s.ack += 1,
                Event::Wake { .. } => s.wake += 1,
                Event::RtxTimer { .. } => s.rtx += 1,
                Event::ReleaseWake { .. } => s.release_wake += 1,
            }
        }
        s
    }

    // -- engine snapshot codec ----------------------------------------------

    /// Serializes the queue: `now`, the FIFO sequence counter, and every
    /// pending entry as `(time, push point, seq, event)` in canonical
    /// `(time, point, seq)` order.
    pub(crate) fn encode_wire(&self, w: &mut ktau_core::wire::Writer) {
        w.u64(self.now);
        w.u64(self.seq);
        let mut entries: Vec<(Ns, Ns, u64, Event)> = self
            .iter_keys()
            .map(|k| (k.time, k.point, k.seq, self.slab[k.handle as usize]))
            .collect();
        entries.sort_unstable_by_key(|&(t, p, s, _)| (t, p, s));
        w.u32(entries.len() as u32);
        for (t, p, s, ev) in entries {
            w.u64(t);
            w.u64(p);
            w.u64(s);
            encode_event(w, ev);
        }
    }

    /// Rebuilds a queue from [`EventQueue::encode_wire`] bytes.  Each entry
    /// keeps its exact `(time, point, seq)` key, so the pop sequence is
    /// bit-identical to the captured queue's.  Events must address one of
    /// the cluster's `nodes`.
    pub(crate) fn decode_wire(
        r: &mut ktau_core::wire::Reader<'_>,
        nodes: usize,
    ) -> Result<EventQueue, ktau_core::wire::CodecError> {
        let mut q = EventQueue::new();
        q.now = r.u64()?;
        q.seq = r.u64()?;
        // Start the drain position at `now`'s slot: pending entries at the
        // capture point all had time ≥ now, so earlier slots are dead.
        // Entries landing at or below `cur_slot` insert into the drain
        // run, which is correct for any key in either representation.
        q.cur_slot = q.now >> WHEEL_SHIFT;
        let n = r.counted(25, "queued event count")?;
        for _ in 0..n {
            let time = r.u64()?;
            let point = r.u64()?;
            let seq = r.u64()?;
            let ev = decode_event(r)?;
            if ev.node() as usize >= nodes {
                return Err(ktau_core::wire::CodecError::Corrupt("event node"));
            }
            let handle = q.alloc(ev);
            q.insert_key(QKey {
                time,
                point,
                seq,
                handle,
            });
        }
        Ok(q)
    }
}

/// Floyd heapify: turns an arbitrary key array into a min-heap in O(len),
/// used when a wheel bucket matures into the drain run.
fn heap_build(heap: &mut [QKey]) {
    let len = heap.len();
    if len < 2 {
        return;
    }
    for start in (0..len / 2).rev() {
        let mut i = start;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            selfprof::add(SpCounter::KeyCmp, 2);
            if l < len && heap[l].key() < heap[smallest].key() {
                smallest = l;
            }
            if r < len && heap[r].key() < heap[smallest].key() {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            heap.swap(i, smallest);
            i = smallest;
        }
    }
}

/// Sorts a small matured bucket descending so the minimum sits at the tail
/// and every pop is a plain `Vec::pop`.  Zero- and one-entry runs (the
/// LU-16 common case) cost nothing; the comparison estimate for larger runs
/// is `n log n`, matching what `sort_unstable_by` actually does closely
/// enough for tier attribution.
fn cur_sort(run: &mut [QKey]) {
    match run.len() {
        0 | 1 => {}
        2 => {
            selfprof::inc(SpCounter::KeyCmp);
            if run[0].key() < run[1].key() {
                run.swap(0, 1);
            }
        }
        n => {
            selfprof::add(SpCounter::KeyCmp, (n as u64) * (n.ilog2() as u64 + 1));
            run.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
        }
    }
}

/// Sifts `k` into a `QKey` min-heap (`heap[0]` is the minimum) — the
/// beyond-horizon overflow tier and the large-bucket drain run share this
/// shape.
fn heap_push(heap: &mut Vec<QKey>, k: QKey) {
    heap.push(k);
    let mut i = heap.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 2;
        selfprof::inc(SpCounter::KeyCmp);
        if heap[i].key() < heap[parent].key() {
            heap.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

/// Removes and returns the minimum of a `QKey` min-heap.
fn heap_pop(heap: &mut Vec<QKey>) -> Option<QKey> {
    if heap.is_empty() {
        return None;
    }
    let root = heap.swap_remove(0);
    let len = heap.len();
    let mut i = 0;
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut smallest = i;
        selfprof::add(SpCounter::KeyCmp, 2);
        if l < len && heap[l].key() < heap[smallest].key() {
            smallest = l;
        }
        if r < len && heap[r].key() < heap[smallest].key() {
            smallest = r;
        }
        if smallest == i {
            break;
        }
        heap.swap(i, smallest);
        i = smallest;
    }
    Some(root)
}

/// Binary encoding of one [`Event`] for engine snapshots: a kind tag byte
/// followed by the variant's fields in declaration order.
pub(crate) fn encode_event(w: &mut ktau_core::wire::Writer, ev: Event) {
    match ev {
        Event::Tick { node, cpu } => {
            w.u8(0);
            w.u32(node);
            w.u8(cpu);
        }
        Event::CpuDone { node, cpu, gen } => {
            w.u8(1);
            w.u32(node);
            w.u8(cpu);
            w.u64(gen);
        }
        Event::SegArrive {
            node,
            conn,
            seq,
            payload,
        } => {
            w.u8(2);
            w.u32(node);
            w.u32(conn.0);
            w.u64(seq);
            w.u32(payload);
        }
        Event::TxDone {
            node,
            conn,
            payload,
        } => {
            w.u8(3);
            w.u32(node);
            w.u32(conn.0);
            w.u32(payload);
        }
        Event::AckArrive {
            node,
            conn,
            ack_seq,
        } => {
            w.u8(4);
            w.u32(node);
            w.u32(conn.0);
            w.u64(ack_seq);
        }
        Event::RtxTimer { node, conn, gen } => {
            w.u8(5);
            w.u32(node);
            w.u32(conn.0);
            w.u64(gen);
        }
        Event::Wake { node, pid } => {
            w.u8(6);
            w.u32(node);
            w.u32(pid.0);
        }
        Event::ReleaseWake { node, conn } => {
            w.u8(7);
            w.u32(node);
            w.u32(conn.0);
        }
    }
}

/// Inverse of [`encode_event`].
pub(crate) fn decode_event(
    r: &mut ktau_core::wire::Reader<'_>,
) -> Result<Event, ktau_core::wire::CodecError> {
    Ok(match r.u8()? {
        0 => Event::Tick {
            node: r.u32()?,
            cpu: r.u8()?,
        },
        1 => Event::CpuDone {
            node: r.u32()?,
            cpu: r.u8()?,
            gen: r.u64()?,
        },
        2 => Event::SegArrive {
            node: r.u32()?,
            conn: ConnId(r.u32()?),
            seq: r.u64()?,
            payload: r.u32()?,
        },
        3 => Event::TxDone {
            node: r.u32()?,
            conn: ConnId(r.u32()?),
            payload: r.u32()?,
        },
        4 => Event::AckArrive {
            node: r.u32()?,
            conn: ConnId(r.u32()?),
            ack_seq: r.u64()?,
        },
        5 => Event::RtxTimer {
            node: r.u32()?,
            conn: ConnId(r.u32()?),
            gen: r.u64()?,
        },
        6 => Event::Wake {
            node: r.u32()?,
            pid: Pid(r.u32()?),
        },
        7 => Event::ReleaseWake {
            node: r.u32()?,
            conn: ConnId(r.u32()?),
        },
        _ => return Err(ktau_core::wire::CodecError::BadField("event kind")),
    })
}

/// Folds one 64-bit word into a running FNV-1a hash (used by
/// [`Cluster::state_digest`] and the per-node digest helpers).  Delegates to
/// the shared fold in `ktau-core` so every digest producer in the workspace
/// hashes identically.
#[inline]
pub(crate) fn fnv(h: &mut u64, word: u64) {
    ktau_core::digest::fnv_word(h, word);
}

/// The self-profiler's event-class index for an event: its wire tag, which
/// [`ktau_core::selfprof::EVENT_CLASS_NAMES`] is aligned with.
#[cfg(feature = "selfprof")]
fn event_class(ev: &Event) -> usize {
    match ev {
        Event::Tick { .. } => 0,
        Event::CpuDone { .. } => 1,
        Event::SegArrive { .. } => 2,
        Event::TxDone { .. } => 3,
        Event::AckArrive { .. } => 4,
        Event::RtxTimer { .. } => 5,
        Event::Wake { .. } => 6,
        Event::ReleaseWake { .. } => 7,
    }
}

/// Event-kind census of a queue, produced by
/// [`EventQueue::pending_summary`]; formats on demand only.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PendingSummary {
    /// Total pending events (armed ticks included).
    pub total: usize,
    /// Armed timer ticks.
    pub tick: usize,
    /// Pending chunk completions.
    pub cpu_done: usize,
    /// Pending segment arrivals.
    pub seg: usize,
    /// Pending NIC-serialization completions.
    pub tx: usize,
    /// Pending ACK arrivals.
    pub ack: usize,
    /// Pending wakeups.
    pub wake: usize,
    /// Pending retransmission timers.
    pub rtx: usize,
    /// Pending dynticks release wakeups.
    pub release_wake: usize,
}

impl std::fmt::Display for PendingSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} pending: {} tick, {} cpu_done, {} seg_arrive, {} tx_done, \
             {} ack_arrive, {} wake, {} rtx_timer, {} release_wake",
            self.total,
            self.tick,
            self.cpu_done,
            self.seg,
            self.tx,
            self.ack,
            self.wake,
            self.rtx,
            self.release_wake
        )
    }
}

/// The simulated cluster: nodes, fabric, and the event loop.
pub struct Cluster {
    /// All nodes, indexed by node id.
    pub(crate) nodes: Vec<Node>,
    pub(crate) fabric: Fabric,
    pub(crate) queue: EventQueue,
    pub(crate) now: Ns,
    pub(crate) apps_spawned: u64,
    pub(crate) events_processed: u64,
    pub(crate) ticks_dispatched: u64,
    pub(crate) spec: ClusterSpec,
    /// The engine flag, fixed at boot: see [`Cluster::coalesce_ticks`].
    dynticks: bool,
}

impl Cluster {
    /// Boots a cluster from a spec: creates nodes, idle threads, and the
    /// initial tick events (staggered across nodes and CPUs so the cluster's
    /// timer interrupts are not phase-locked).  Uses the dynticks engine:
    /// coalescible ticks are folded in closed form rather than dispatched.
    pub fn new(spec: ClusterSpec) -> Self {
        Cluster::boot(spec, true)
    }

    /// Boots with the reference engine: every tick dispatched individually.  Simulated behaviour is identical to
    /// [`Cluster::new`]; this is the independent oracle equivalence tests
    /// and benchmarks check the dynticks engine against.
    pub fn new_reference_engine(spec: ClusterSpec) -> Self {
        Cluster::boot(spec, false)
    }

    /// Boots the dynticks engine (`dynticks`: tick coalescing and
    /// `TxDone` elision) or the reference engine.
    pub(crate) fn boot(spec: ClusterSpec, dynticks: bool) -> Self {
        let mut queue = EventQueue::new();
        let fabric = Fabric::new(spec.fabric_latency_ns);
        let control = std::sync::Arc::new(spec.control.clone());
        let mut nodes = Vec::with_capacity(spec.nodes.len());
        for (i, ns) in spec.nodes.iter().enumerate() {
            let engine =
                ktau_core::measure::ProbeEngine::new_shared(control.clone(), spec.overhead);
            let mut node = Node::boot(
                i as u32,
                std::sync::Arc::clone(ns),
                engine,
                spec.sched,
                spec.net_costs,
                spec.sndbuf_bytes,
                spec.nic_bits_per_sec,
                spec.trace_capacity,
            );
            node.degrade = spec.degrade_for(i as u32);
            node.dynticks = dynticks;
            let tick = spec.sched.tick_ns();
            for c in 0..node.online {
                // Deterministic stagger: nodes offset by a prime-ish stride,
                // CPUs by half a tick.
                let off = (i as u64 * 137_829 + c as u64 * tick / 2) % tick;
                if dynticks && node.tick_coalescible(c) {
                    // Freshly booted CPUs are idle with empty runqueues:
                    // park the lane instead of arming the first tick.  The
                    // reference engine pushes boot ticks at time 0, so that
                    // is the lane's recorded push point.
                    node.park_tick(c, off, 0);
                } else {
                    queue.push(
                        off,
                        Event::Tick {
                            node: i as u32,
                            cpu: c,
                        },
                    );
                }
            }
            nodes.push(node);
        }
        let mut cluster = Cluster {
            nodes,
            fabric,
            queue,
            now: 0,
            apps_spawned: 0,
            events_processed: 0,
            ticks_dispatched: 0,
            spec,
            dynticks,
        };
        cluster.spawn_noise();
        cluster
    }

    fn spawn_noise(&mut self) {
        use crate::noise;
        let n = self.spec.noise;
        if n.daemons_per_node == 0 {
            return;
        }
        for node in 0..self.nodes.len() as u32 {
            for d in 0..n.daemons_per_node {
                let seed = self
                    .spec
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((node as u64) << 16 | d as u64);
                let prog = noise::daemon_program(n, seed);
                let comm = noise::DAEMON_NAMES[d as usize % noise::DAEMON_NAMES.len()];
                self.spawn(node, TaskSpec::daemon(comm.to_string(), prog));
            }
        }
    }

    /// Node count.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable node access.
    pub fn node(&self, id: u32) -> &Node {
        &self.nodes[id as usize]
    }

    /// Mutable node access (procfs control, direct inspection).
    ///
    /// External mutation can invalidate everything the dynticks engine
    /// assumed when it parked a tick lane (instrumentation control writes
    /// change probe costs, scheduler pokes change attribution), so parked
    /// lanes of this node are first folded against the still-valid state
    /// and then re-armed as ordinary queue events.  The next dispatched
    /// tick re-parks the lane if it is still coalescible.
    pub fn node_mut(&mut self, id: u32) -> &mut Node {
        if self.coalesce_ticks() {
            self.settle_node(id, self.now, None);
            let (n, q, _) = self.parts(id);
            n.unpark_all(q);
        }
        &mut self.nodes[id as usize]
    }

    /// Current virtual time.
    pub fn now(&self) -> Ns {
        self.now
    }

    /// True on the dynticks engine: coalescible timer ticks are parked per
    /// CPU and folded analytically instead of dispatched one by one, and
    /// per-segment `TxDone` bookkeeping events are elided into a lazy
    /// release ledger.  Simulated state is bit-identical to the reference
    /// engine's.
    #[inline]
    pub(crate) fn coalesce_ticks(&self) -> bool {
        self.dynticks
    }

    /// The cluster spec this was booted from.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Opens a simplex connection between two nodes' kernels.  Loopback
    /// (same node) connections bypass the NIC and hard IRQ.
    pub fn open_conn(&mut self, src_node: u32, dst_node: u32) -> ConnId {
        let conn = self.fabric.open(src_node, dst_node);
        let link = self.fabric.link(conn);
        // Loopback bypasses the NIC entirely, so faults never apply there.
        let injector = if src_node == dst_node {
            None
        } else {
            self.spec.fault_plan.injector_for(conn, &link)
        };
        let fault_active = injector.is_some();
        self.nodes[src_node as usize].add_tx(conn, injector);
        self.nodes[dst_node as usize].add_rx(
            conn,
            src_node == dst_node,
            fault_active,
            self.spec.rcvbuf_bytes,
        );
        conn
    }

    /// Spawns a task on a node, returning its pid.
    pub fn spawn(&mut self, node: u32, spec: TaskSpec) -> Pid {
        if spec.kind == crate::task::TaskKind::App {
            self.apps_spawned += 1;
            self.nodes[node as usize].apps_spawned += 1;
        }
        let now = self.now;
        // A spawn mutates scheduler state outside any event handler: fold
        // the node's parked ticks against the pre-spawn state first, and
        // re-judge coalescibility against the post-spawn state after.
        self.settle_node(node, now, None);
        let (n, q, f) = self.parts(node);
        let pid = n.spawn(spec, now, q, f);
        self.repark_or_arm(node);
        pid
    }

    #[inline]
    fn parts(&mut self, node: u32) -> (&mut Node, &mut EventQueue, &Fabric) {
        (
            &mut self.nodes[node as usize],
            &mut self.queue,
            &self.fabric,
        )
    }

    /// Folds all parked ticks of `node` that fire strictly before `horizon`,
    /// plus — when `tie_point` is the push point of the event about to be
    /// dispatched at `horizon` — a parked tick firing *exactly at* `horizon`
    /// that the reference engine would have dispatched first.  The reference
    /// re-armed that tick at `horizon - tick_ns`, so it precedes the event
    /// in `(time, push-point)` order iff the event was pushed later than
    /// that.  Valid because parked-lane state cannot have changed since the
    /// park: only this node's own events (which all settle first) mutate it.
    fn settle_node(&mut self, node: u32, horizon: Ns, tie_point: Option<Ns>) {
        let tick_ns = self.spec.sched.tick_ns();
        self.nodes[node as usize].settle_parked(horizon, tick_ns, tie_point);
    }

    /// Re-judges coalescibility of `node`'s parked lanes after its state
    /// changed; lanes that can no longer be folded are armed back into the
    /// event queue as ordinary tick events.
    fn repark_or_arm(&mut self, node: u32) {
        let (n, q, _) = self.parts(node);
        n.arm_uncoalescible(q);
    }

    /// Dispatches one event: settles the target node's parked ticks up to
    /// the event time, runs the handler, and re-parks or re-arms the node's
    /// ticks.
    fn handle(&mut self, at: Ns, point: Ns, ev: Event) {
        self.now = at;
        self.events_processed += 1;
        self.queue.set_now(at);
        #[cfg(feature = "selfprof")]
        let sp_start = std::time::Instant::now();
        let coalesce = self.coalesce_ticks();
        let tick_ns = self.spec.sched.tick_ns();
        let n = &mut self.nodes[ev.node() as usize];
        if coalesce {
            n.settle_parked(at, tick_ns, Some(point));
        }
        let (q, f) = (&mut self.queue, &self.fabric);
        match ev {
            Event::Tick { node, cpu } => {
                self.ticks_dispatched += 1;
                n.maybe_degrade_tick(cpu, at, q, f);
                // A hot-removed CPU's tick lane dies here: its timer is
                // simply never re-armed.  Fault-free runs always take this
                // branch, preserving the exact push sequence.
                if cpu < n.online {
                    n.on_tick(cpu, at, q, f);
                    if coalesce && n.tick_coalescible(cpu) {
                        n.park_tick(cpu, at + tick_ns, at);
                    } else {
                        q.push(at + tick_ns, Event::Tick { node, cpu });
                    }
                }
            }
            Event::CpuDone { cpu, gen, .. } => n.on_cpu_done(cpu, gen, at, q, f),
            Event::SegArrive {
                conn, seq, payload, ..
            } => n.on_segment(conn, seq, payload, at, q, f),
            Event::AckArrive { conn, ack_seq, .. } => n.on_ack(conn, ack_seq, at, q, f),
            Event::RtxTimer { conn, gen, .. } => n.on_rtx_timer(conn, gen, at, q, f),
            Event::TxDone { conn, payload, .. } => n.on_tx_done(conn, payload, at, q),
            Event::Wake { pid, .. } => n.on_wake(pid, at, q, f),
            Event::ReleaseWake { conn, .. } => n.on_release_wake(conn, at, q),
        }
        if coalesce {
            n.arm_uncoalescible(q);
        }
        #[cfg(feature = "selfprof")]
        selfprof::dispatch_ns(event_class(&ev), sp_start.elapsed().as_nanos() as u64);
    }

    /// Folds every node's parked ticks that fire strictly before `horizon`
    /// (ties resolved against `tie_point` as in [`Self::settle_node`]).
    fn settle_all(&mut self, horizon: Ns, tie_point: Option<Ns>) {
        for node in 0..self.nodes.len() as u32 {
            self.settle_node(node, horizon, tie_point);
        }
    }

    /// Total app tasks that have exited across the cluster.
    pub fn apps_exited(&self) -> u64 {
        self.nodes.iter().map(|n| n.apps_exited).sum()
    }

    /// Total TCP retransmissions performed cluster-wide (0 on a fault-free
    /// run: without an injector no retransmit timer is ever armed).
    pub fn total_retransmits(&self) -> u64 {
        self.nodes.iter().map(|n| n.total_retransmits()).sum()
    }

    /// Total simulation events handled since boot (engine throughput metric).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Timer ticks dispatched as real events from the queue.
    pub fn ticks_dispatched(&self) -> u64 {
        self.ticks_dispatched
    }

    /// Timer ticks whose full handler effect was applied analytically by the
    /// dynticks engine instead of being dispatched from the event queue.
    /// Always 0 on the reference engine.
    pub fn ticks_coalesced(&self) -> u64 {
        self.nodes.iter().map(|n| n.ticks_coalesced).sum()
    }

    /// Per-segment `TxDone` bookkeeping events replaced by ledger entries by
    /// the dynticks engine.  Always 0 on the reference engine.
    pub fn txdone_elided(&self) -> u64 {
        self.nodes.iter().map(|n| n.txdone_elided).sum()
    }

    /// Total simulated events: dispatched events plus coalesced ticks and
    /// elided `TxDone`s whose effects were applied without a dispatch — the
    /// measure of simulated work to compare across engines.  It is not
    /// equal across them: the dynticks engine also dispatches ledger
    /// events of its own (`ReleaseWake`).
    pub fn events_simulated(&self) -> u64 {
        self.events_processed + self.ticks_coalesced() + self.txdone_elided()
    }

    /// FNV-1a digest of all externally-observable simulation state: virtual
    /// time, then node by node in node order, each node's CPU accounting and
    /// its tasks in pid order — identity, scheduler state, counters,
    /// profiles, trace and merged/wall aggregates.  Two engines that
    /// simulated the same workload must produce equal digests; equivalence
    /// tests compare this across the dynticks and reference engines.
    pub fn state_digest(&self) -> u64 {
        let mut h = ktau_core::digest::FNV_OFFSET;
        fnv(&mut h, self.now);
        let mut w = ktau_core::wire::Writer::new();
        for n in &self.nodes {
            n.digest_into(&mut h, &mut w);
        }
        h
    }

    /// Names the first place where the state [`Cluster::state_digest`]
    /// hashes differs between this cluster and `other`: virtual time, the
    /// node count, or the first node, pid, comm and section (sched/op,
    /// counters, kernel, user, trace, merged, wall) whose bytes differ.
    /// `None` when the digests hash identical bytes.
    pub fn state_diff(&self, other: &Cluster) -> Option<String> {
        if self.now != other.now {
            return Some(format!("now {} vs {} ns", self.now, other.now));
        }
        if self.nodes.len() != other.nodes.len() {
            return Some(format!(
                "{} vs {} nodes",
                self.nodes.len(),
                other.nodes.len()
            ));
        }
        self.nodes
            .iter()
            .zip(&other.nodes)
            .find_map(|(a, b)| a.state_diff(b))
    }

    /// Runs until every spawned app task has exited, or until `deadline_ns`
    /// of virtual time (whichever first).  Returns the finish time.
    ///
    /// Panics if the event queue drains with app tasks still alive (a
    /// deadlock — e.g. mismatched sends/receives), identifying the stuck
    /// tasks.
    pub fn run_until_apps_exit(&mut self, deadline_ns: Ns) -> Ns {
        let mut handled_any = false;
        // Exit counting is incremental: a dispatch can only retire app tasks
        // on the node the event addresses, so the loop tracks the cluster
        // total with one per-node delta instead of re-summing all nodes
        // every event.
        let mut exited = self.apps_exited();
        while exited < self.apps_spawned {
            // `pop_due` bounds the pop by the deadline, so a deadline
            // panic leaves the offending event queued (an earlier version
            // silently discarded it, corrupting post-mortem inspection).
            match self.queue.pop_due(deadline_ns) {
                Some((t, p, ev)) => {
                    handled_any = true;
                    let ni = ev.node() as usize;
                    let before = self.nodes[ni].apps_exited;
                    self.handle(t, p, ev);
                    exited += self.nodes[ni].apps_exited - before;
                    debug_assert_eq!(exited, self.apps_exited());
                }
                None if !self.queue.is_empty() => {
                    let stuck = self.stuck_report();
                    panic!(
                        "virtual deadline {deadline_ns} ns exceeded (possible deadlock) with {} of {} app tasks remaining:\n{stuck}",
                        self.apps_spawned - self.apps_exited(),
                        self.apps_spawned
                    );
                }
                None => {
                    if self.coalesce_ticks() && self.nodes.iter().any(|n| n.parked_lanes() > 0) {
                        // Only parked (provably no-op) ticks remain: the
                        // reference engine would dispatch them up to the
                        // deadline and then fail with the deadline panic.
                        // Replay that analytically and fail the same way.
                        self.settle_all(deadline_ns + 1, None);
                        let stuck = self.stuck_report();
                        panic!(
                            "virtual deadline {deadline_ns} ns exceeded (possible deadlock) with {} of {} app tasks remaining:\n{stuck}",
                            self.apps_spawned - self.apps_exited(),
                            self.apps_spawned
                        );
                    }
                    let stuck = self.stuck_report();
                    panic!("event queue drained with app tasks alive (deadlock):\n{stuck}");
                }
            }
        }
        // Terminal-nanosecond drain: once the last app has exited at T*,
        // keep dispatching every remaining event with time == T* (including
        // cascades those dispatches push at T*).  The run then ends on a
        // pure virtual-time predicate — "every event with time <= T* has
        // been processed" — independent of the sub-nanosecond (push-point,
        // seq) rank of the finishing event, so both engines stop on exactly
        // the same prefix of the event timeline.
        if handled_any {
            self.drain_now();
        }
        self.now
    }

    /// Dispatches every pending event whose time equals the current virtual
    /// time, including same-nanosecond cascades, then folds all parked
    /// ticks firing at or before it (the reference engine would have
    /// dispatched those ticks during the drain).
    fn drain_now(&mut self) {
        // No pending event can precede `now` (pops are monotone in time and
        // handlers never schedule into the past), so "time == now" and
        // "time <= now" select the same events.
        while let Some((t, p, ev)) = self.queue.pop_due(self.now) {
            self.handle(t, p, ev);
        }
        if self.coalesce_ticks() {
            self.settle_all(self.now + 1, None);
        }
    }

    /// Runs for `dur` nanoseconds of virtual time.
    pub fn run_for(&mut self, dur: Ns) -> Ns {
        let end = self.now + dur;
        while let Some((t, p, ev)) = self.queue.pop_due(end) {
            self.handle(t, p, ev);
        }
        // The reference engine dispatches ticks *at* `end` too (`t <= end`
        // above), so fold parked ticks strictly below `end + 1`.
        if self.coalesce_ticks() {
            self.settle_all(end + 1, None);
        }
        self.now = end;
        end
    }

    /// Human-readable deadlock diagnostics: every live app task with its
    /// scheduler/op state, plus the socket state of each connection the
    /// stuck tasks are blocked on (sndbuf occupancy, unacked segments,
    /// retransmit counts, rcvbuf reassembly/refusal state).
    fn stuck_report(&self) -> String {
        use crate::task::BlockedOn;
        use std::fmt::Write;
        // One output buffer, written through `write!`: no per-task or
        // per-connection intermediate `String` allocations.
        let mut s = String::with_capacity(256);
        let parked: usize = self.nodes.iter().map(|n| n.parked_lanes()).sum();
        let _ = writeln!(
            s,
            "  now {} ns, {} events processed, {} tick lanes parked, queue {}",
            self.now,
            self.events_processed,
            parked,
            self.queue.pending_summary()
        );
        let mut conns: Vec<ConnId> = Vec::new();
        for n in &self.nodes {
            for pid in n.pids() {
                let t = n.task(pid).expect("listed pid has a task");
                if t.kind == crate::task::TaskKind::App && t.state != TaskState::Dead {
                    let _ = writeln!(
                        s,
                        "  node {} ({}) pid {} {} state {:?} op {:?} blocked_on {:?}",
                        n.id, n.name, pid, t.comm, t.state, t.op, t.blocked_on
                    );
                    if let Some(BlockedOn::RxData(c) | BlockedOn::TxSpace(c)) = t.blocked_on {
                        if !conns.contains(&c) {
                            conns.push(c);
                        }
                    }
                }
            }
        }
        conns.sort();
        for c in conns {
            let link = self.fabric.link(c);
            if let Some(tx) = self.nodes[link.src_node as usize].tx_conn_stats(c) {
                let _ = writeln!(
                    s,
                    "  {c} tx (node {}): {} B in flight / {} B free, {} unacked segs, \
                     {} retransmits, {} timer fires",
                    link.src_node,
                    tx.in_flight,
                    tx.free,
                    tx.unacked,
                    tx.retransmits,
                    tx.timer_fires
                );
            }
            if let Some(rx) = self.nodes[link.dst_node as usize].rx_conn_stats(c) {
                let _ = writeln!(
                    s,
                    "  {c} rx (node {}): {} B readable, expected seq {}, {} segs buffered, \
                     {} refused, {} duplicates",
                    link.dst_node,
                    rx.available,
                    rx.expected_seq,
                    rx.buffered_segments,
                    rx.refused_segments,
                    rx.duplicate_segments
                );
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Re-armed ticks keep their FIFO position relative to same-time events.
    #[test]
    fn tick_rearm_preserves_fifo() {
        fn pop(q: &mut EventQueue) -> Option<(Ns, Event)> {
            q.pop_due(Ns::MAX).map(|(t, _, ev)| (t, ev))
        }
        let tick = Event::Tick { node: 0, cpu: 0 };
        let wake = |node, pid| Event::Wake {
            node,
            pid: Pid(pid),
        };
        let mut q = EventQueue::new();
        q.push(100, tick);
        q.push(100, wake(0, 3));
        // Tick pushed first wins the time tie.
        assert_eq!(pop(&mut q), Some((100, tick)));
        // Re-arm after pushing another same-time event: the wake now has the
        // older seq and must come out first.
        q.push(200, wake(1, 4));
        q.push(200, tick);
        assert_eq!(pop(&mut q), Some((100, wake(0, 3))));
        assert_eq!(pop(&mut q), Some((200, wake(1, 4))));
        assert_eq!(pop(&mut q), Some((200, tick)));
        assert!(pop(&mut q).is_none());
        assert!(q.is_empty());
    }

    /// `state_diff` names the node, task and section a perturbation hit,
    /// and nothing for a state the digest does not cover.
    #[test]
    fn state_diff_names_a_perturbed_counter() {
        let mut a = Cluster::new(crate::config::ClusterSpec::chiba(2));
        a.run_for(5_000_000);
        let mut b = Cluster::resume(&a.snapshot()).unwrap();
        assert_eq!(a.state_diff(&b), None);
        let pid = *b.node(1).pids().last().unwrap();
        fn task(c: &mut Cluster, pid: Pid) -> &mut crate::task::Task {
            c.node_mut(1).task_mut(pid).unwrap()
        }
        task(&mut b, pid).meas.mark_dirty();
        assert_eq!(a.state_diff(&b), None, "the generation is not observable");
        task(&mut b, pid).counters.wakeups += 1;
        let comm = task(&mut b, pid).comm.clone();
        assert_ne!(a.state_digest(), b.state_digest());
        assert_eq!(
            a.state_diff(&b).as_deref(),
            Some(format!("node 1 pid {} ({comm}) differs in counters", pid.0).as_str())
        );
        b.run_for(1);
        assert_eq!(
            a.state_diff(&b).unwrap(),
            format!("now {} vs {} ns", a.now(), b.now())
        );
    }

    /// `len`/`pending_summary` count armed ticks alongside other events.
    #[test]
    fn summary_counts_ticks() {
        let mut q = EventQueue::new();
        q.push(10, Event::Tick { node: 0, cpu: 0 });
        q.push(20, Event::Tick { node: 1, cpu: 0 });
        q.push(
            15,
            Event::Wake {
                node: 0,
                pid: Pid(2),
            },
        );
        assert_eq!(q.len(), 3);
        let summary = q.pending_summary();
        assert_eq!((summary.total, summary.tick, summary.wake), (3, 2, 1));
        let s = summary.to_string();
        assert!(s.contains("2 tick"), "{s}");
        assert!(s.contains("1 wake"), "{s}");
    }
}
