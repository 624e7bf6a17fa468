//! The KTAU measurement system (paper §4.2): couples instrumentation control,
//! per-probe overheads, per-task profiles/traces, and merged user/kernel
//! attribution.
//!
//! The simulated kernel calls [`ProbeEngine`] methods at every
//! instrumentation point.  Each call updates the task's
//! [`TaskMeasurement`] and returns the probe's own cost in cycles, which the
//! kernel charges to virtual time — measurement perturbation is therefore an
//! emergent property of each run (the subject of the paper's §5.3).

use crate::control::{InstrumentationControl, OverheadModel, ProbeStatus};
use crate::event::{EventId, Group};
use crate::profile::Profile;
use crate::time::{Cycles, Ns};
use crate::trace::{TraceBuffer, TracePoint, TraceRecord};
use crate::wire::{CodecError, Reader, Writer};
use serde::{Deserialize, Serialize};

/// Statistics for one (user routine × kernel event) cell of the merged view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MergedStats {
    /// Completed kernel activations attributed to the user routine.
    pub count: u64,
    /// Inclusive kernel nanoseconds attributed to the user routine.
    pub ns: Ns,
}

/// Key of the merged table: which user routine was active (`None` when the
/// process was outside any instrumented user routine) and which kernel event
/// fired.
pub type MergedKey = (Option<EventId>, EventId);

/// Compact merged-attribution table: one row head per user-routine slot
/// (slot 0 is "no routine", slot `i + 1` is user event id `i`), with each
/// row's recorded (kernel-event column → stats) cells stored as a
/// column-sorted chain in one shared cell arena — O(cells actually touched)
/// instead of a `Vec<Vec<MergedStats>>` whose every row is dense up to the
/// largest kernel event id it saw.
#[derive(Debug, Clone, Default)]
pub struct MergedTable {
    /// Per row, the first cell of its column-sorted chain + 1 (`0` = empty
    /// row).
    rows: Vec<u32>,
    cells: Vec<MergedCell>,
    /// Direct-mapped `(row, col, cell + 1)` cache of recent
    /// [`MergedTable::cell_mut`] resolutions, indexed by the column's low
    /// bits.  Probe firing cycles through a small working set of (user
    /// routine, kernel event) pairs — a lone entry thrashes when two kernel
    /// events alternate (the tick fold records an outer/inner pair every
    /// call), so a few ways keep the chain walk off the repeat-fire fast
    /// path.  Cells are never moved or removed, so a hit can only be exact
    /// or miss — never stale.  Not part of the observable state: the codec
    /// ignores it.
    cache: [(u32, u32, u32); MERGED_CACHE_WAYS],
}

/// Ways in [`MergedTable`]'s direct-mapped cell cache.
const MERGED_CACHE_WAYS: usize = 8;

#[derive(Debug, Clone, Copy)]
struct MergedCell {
    /// Kernel event id of this cell.
    col: u32,
    /// Next cell of the same row + 1 (`0` = end of chain).
    next: u32,
    stats: MergedStats,
}

/// Walks one row's cell chain in ascending column order.
struct ChainCells<'a> {
    cells: &'a [MergedCell],
    cur: u32,
}

impl<'a> Iterator for ChainCells<'a> {
    type Item = &'a MergedCell;
    fn next(&mut self) -> Option<&'a MergedCell> {
        if self.cur == 0 {
            return None;
        }
        let cell = &self.cells[self.cur as usize - 1];
        self.cur = cell.next;
        Some(cell)
    }
}

impl MergedTable {
    #[inline]
    fn slot(user: Option<EventId>) -> usize {
        user.map_or(0, |id| id.index() + 1)
    }

    /// Walks the chain starting at `head` in ascending column order.
    fn chain(&self, head: u32) -> ChainCells<'_> {
        ChainCells {
            cells: &self.cells,
            cur: head,
        }
    }

    /// The cell for `key`, growing the table as needed.  Rows hold a
    /// handful of kernel events each, so the sorted-chain walk stays O(1)ish
    /// on the probe hot path.
    #[inline]
    pub fn cell_mut(&mut self, key: MergedKey) -> &mut MergedStats {
        let r = Self::slot(key.0);
        let c = key.1.index() as u32;
        let way = c as usize & (MERGED_CACHE_WAYS - 1);
        let e = self.cache[way];
        if e.2 != 0 && e.0 == r as u32 && e.1 == c {
            // Repeat fire of the same pair: the cached cell is exact.
            return &mut self.cells[e.2 as usize - 1].stats;
        }
        if self.rows.len() <= r {
            self.rows.resize(r + 1, 0);
        }
        let mut prev = 0u32;
        let mut cur = self.rows[r];
        while cur != 0 {
            let cell = self.cells[cur as usize - 1];
            if cell.col == c {
                self.cache[way] = (r as u32, c, cur);
                return &mut self.cells[cur as usize - 1].stats;
            }
            if cell.col > c {
                break;
            }
            prev = cur;
            cur = cell.next;
        }
        self.cells.push(MergedCell {
            col: c,
            next: cur,
            stats: MergedStats::default(),
        });
        let new = self.cells.len() as u32;
        if prev == 0 {
            self.rows[r] = new;
        } else {
            self.cells[prev as usize - 1].next = new;
        }
        self.cache[way] = (r as u32, c, new);
        &mut self.cells[new as usize - 1].stats
    }

    /// Adds `n` activations of `ns_each` nanoseconds to one cell in closed
    /// form (dynticks tick folding).
    #[inline]
    pub fn add_n(&mut self, key: MergedKey, ns_each: Ns, n: u64) {
        let cell = self.cell_mut(key);
        cell.count += n;
        cell.ns += ns_each * n;
    }

    /// The cell for `key`, if it was ever recorded.
    pub fn get(&self, key: MergedKey) -> Option<&MergedStats> {
        let &head = self.rows.get(Self::slot(key.0))?;
        let c = key.1.index() as u32;
        self.chain(head)
            .take_while(|cell| cell.col <= c)
            .find(|cell| cell.col == c)
            .map(|cell| &cell.stats)
            .filter(|s| s.count > 0)
    }

    /// Iterates recorded `(key, stats)` cells in dense (user, kernel) order.
    pub fn iter(&self) -> impl Iterator<Item = (MergedKey, &MergedStats)> {
        self.rows.iter().enumerate().flat_map(move |(r, &head)| {
            let user = (r > 0).then(|| EventId((r - 1) as u32));
            self.chain(head)
                .filter(|cell| cell.stats.count > 0)
                .map(move |cell| ((user, EventId(cell.col)), &cell.stats))
        })
    }

    /// Heap bytes held by the compact storage (row heads + cell arena).
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.rows.len() * size_of::<u32>() + self.cells.len() * size_of::<MergedCell>()
    }

    /// Heap bytes the pre-arena `Vec<Vec<MergedStats>>` layout would hold
    /// for the same state: every row dense up to its largest column (the
    /// last of its sorted chain), plus one inner-`Vec` header per row in the
    /// outer vector.
    pub fn dense_equivalent_bytes(&self) -> usize {
        use std::mem::size_of;
        self.rows
            .iter()
            .map(|&head| {
                let cols = self.chain(head).last().map_or(0, |c| c.col as usize + 1);
                cols * size_of::<MergedStats>() + size_of::<Vec<MergedStats>>()
            })
            .sum()
    }

    /// Discards all cells (profile reset control op).
    pub fn clear(&mut self) {
        self.rows.clear();
        self.cells.clear();
        self.cache = [(0, 0, 0); MERGED_CACHE_WAYS];
    }

    /// Serializes the table for the KTAS engine image and the state digest:
    /// per row, only the recorded cells in column order.
    pub fn encode_wire(&self, w: &mut Writer) {
        w.u32(self.rows.len() as u32);
        for &head in &self.rows {
            w.u32(self.chain(head).count() as u32);
            for cell in self.chain(head) {
                w.u32(cell.col);
                w.u64(cell.stats.count);
                w.u64(cell.stats.ns);
            }
        }
    }

    /// Inverse of [`MergedTable::encode_wire`].  Columns must be strictly
    /// ascending and below [`crate::profile::MAX_EVENT_ID`]; anything else
    /// is a corrupt image and fails loudly.
    pub fn decode_wire(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.counted(4, "merged row count")?;
        let mut rows = Vec::with_capacity(n);
        let mut cells: Vec<MergedCell> = Vec::new();
        for _ in 0..n {
            let m = r.counted(20, "merged cell count")?;
            let mut head = 0u32;
            let mut tail = 0u32;
            let mut next_min = 0u32;
            for _ in 0..m {
                let col = r.u32()?;
                if col < next_min || col >= crate::profile::MAX_EVENT_ID {
                    return Err(CodecError::Corrupt("merged cell column"));
                }
                next_min = col + 1;
                let stats = MergedStats {
                    count: r.u64()?,
                    ns: r.u64()?,
                };
                cells.push(MergedCell {
                    col,
                    next: 0,
                    stats,
                });
                let idx = cells.len() as u32;
                if tail == 0 {
                    head = idx;
                } else {
                    cells[tail as usize - 1].next = idx;
                }
                tail = idx;
            }
            rows.push(head);
        }
        Ok(MergedTable {
            rows,
            cells,
            cache: [(0, 0, 0); MERGED_CACHE_WAYS],
        })
    }
}

/// Non-overlapping kernel wall time per user-routine slot (same slot scheme
/// as [`MergedTable`]).  Only slots ever recorded are stored — an entry's
/// *presence* distinguishes "never recorded" from an accumulated zero, the
/// distinction a dense `Vec<Option<Ns>>` carries with a `None` per
/// untouched slot.
#[derive(Debug, Clone, Default)]
pub struct WallTable {
    /// Slot ids ever recorded, ascending.  Parallel to [`WallTable::ns`]:
    /// two packed arrays keep an entry at 4 + 8 bytes where a
    /// `Vec<(u32, Ns)>` pads each pair to 16.
    slots: Vec<u32>,
    /// Accumulated wall time per recorded slot, parallel to `slots`.
    ns: Vec<Ns>,
    /// Index of the last slot [`WallTable::add`] resolved; re-validated
    /// before use, so staleness after an insert only costs a re-search.
    /// Not observable state: the codec ignores it.
    last_idx: u32,
}

impl WallTable {
    /// Accumulates `ns` of kernel wall time under `user`.  A one-entry
    /// index cache serves the repeat-fire fast path (probes attribute long
    /// runs of kernel time to the same user routine); insertions shift
    /// positions, so the cached index is re-validated against the slot id
    /// before use and refreshed on every resolution.
    #[inline]
    pub fn add(&mut self, user: Option<EventId>, ns: Ns) {
        let s = MergedTable::slot(user) as u32;
        let li = self.last_idx as usize;
        if self.slots.get(li) == Some(&s) {
            self.ns[li] += ns;
            return;
        }
        match self.slots.binary_search(&s) {
            Ok(i) => {
                self.ns[i] += ns;
                self.last_idx = i as u32;
            }
            Err(i) => {
                self.slots.insert(i, s);
                self.ns.insert(i, ns);
                self.last_idx = i as u32;
            }
        }
    }

    /// Accumulated wall time under `user`, if ever recorded.
    pub fn get(&self, user: Option<EventId>) -> Option<Ns> {
        let s = MergedTable::slot(user) as u32;
        self.slots.binary_search(&s).ok().map(|i| self.ns[i])
    }

    /// Iterates recorded `(user, ns)` entries in dense slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Option<EventId>, Ns)> + '_ {
        self.slots
            .iter()
            .zip(&self.ns)
            .map(|(&s, &ns)| ((s > 0).then(|| EventId(s - 1)), ns))
    }

    /// Heap bytes held by the compact storage.
    pub fn bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<u32>() + self.ns.len() * std::mem::size_of::<Ns>()
    }

    /// Heap bytes the pre-arena dense `Vec<Option<Ns>>` would hold: one
    /// entry per slot up to the last recorded.
    pub fn dense_equivalent_bytes(&self) -> usize {
        let len = self.slots.last().map_or(0, |&s| s as usize + 1);
        len * std::mem::size_of::<Option<Ns>>()
    }

    /// Discards all entries.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.ns.clear();
    }

    /// Serializes for the KTAS engine image and the state digest: the
    /// recorded slots in ascending order.
    pub fn encode_wire(&self, w: &mut Writer) {
        w.u32(self.slots.len() as u32);
        for (&s, &ns) in self.slots.iter().zip(&self.ns) {
            w.u32(s);
            w.u64(ns);
        }
    }

    /// Inverse of [`WallTable::encode_wire`].  Slots must be strictly
    /// ascending and at most [`crate::profile::MAX_EVENT_ID`] (slot `i + 1`
    /// holds user event `i`).
    pub fn decode_wire(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.counted(12, "wall slot count")?;
        let mut slots = Vec::with_capacity(n);
        let mut ns = Vec::with_capacity(n);
        let mut next_min = 0u32;
        for _ in 0..n {
            let s = r.u32()?;
            if s < next_min || s > crate::profile::MAX_EVENT_ID {
                return Err(CodecError::Corrupt("wall slot id"));
            }
            next_min = s + 1;
            slots.push(s);
            ns.push(r.u64()?);
        }
        Ok(WallTable {
            slots,
            ns,
            last_idx: 0,
        })
    }
}

/// Measurement state attached to each task's process control block.
#[derive(Debug, Clone, Default)]
pub struct TaskMeasurement {
    /// Kernel-mode profile (KTAU).
    pub kernel: Profile,
    /// User-mode profile (TAU).
    pub user: Profile,
    /// Optional per-process circular trace buffer.
    pub trace: Option<TraceBuffer>,
    /// Merged attribution: kernel activity within each user routine, one
    /// cell per kernel event.  Cells of *nested* events overlap their
    /// parents (e.g. `tcp_v4_rcv` time is also inside `do_softirq`), which
    /// is what call-group displays want; use [`TaskMeasurement::wall`] for
    /// non-overlapping totals.
    pub merged: MergedTable,
    /// Non-overlapping kernel wall time per user routine (outermost kernel
    /// activations and scheduling intervals only) — the basis for the
    /// merged view's corrected "true exclusive time".
    pub wall: WallTable,
    /// Dirty-marking generation: bumped on every enabled probe that touches
    /// this state.  The KTAUD service compares it against the generation it
    /// last observed to skip unchanged profiles without capturing them.
    /// Engine-dependent (the dynticks fold bumps once per batch where the
    /// reference engine bumps per tick), so it is deliberately excluded from
    /// the cross-engine state digest (see
    /// [`TaskMeasurement::encode_observable`]).
    gen: u64,
}

impl TaskMeasurement {
    /// Profiling-only measurement state.
    pub fn profiling() -> Self {
        Self::default()
    }

    /// Measurement state with tracing enabled (`capacity` records).
    pub fn with_trace(capacity: usize) -> Self {
        TaskMeasurement {
            trace: Some(TraceBuffer::new(capacity)),
            ..Self::default()
        }
    }

    fn merged_add(&mut self, kernel_ev: EventId, ns: Ns) {
        let cell = self.merged.cell_mut((self.user.top(), kernel_ev));
        cell.count += 1;
        cell.ns += ns;
    }

    fn wall_add(&mut self, ns: Ns) {
        self.wall.add(self.user.top(), ns);
    }

    /// Total (non-overlapping) kernel wall time inside a given user routine.
    pub fn kernel_ns_in_user(&self, user: EventId) -> Ns {
        self.wall.get(Some(user)).unwrap_or(0)
    }

    /// Merged stats for a specific (user routine, kernel event) pair.
    pub fn merged_stats(&self, user: Option<EventId>, kernel: EventId) -> MergedStats {
        self.merged.get((user, kernel)).copied().unwrap_or_default()
    }

    /// The dirty-marking generation: changes whenever measurement state may
    /// have changed since the last time a caller recorded the value.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Marks the state dirty.  Probe paths bump this automatically; direct
    /// mutators outside the probe engine (e.g. the profile-reset control op)
    /// must call it so observers notice the change.
    #[inline]
    pub fn mark_dirty(&mut self) {
        self.gen += 1;
    }

    /// Approximate heap bytes this task's measurement state occupies under
    /// the compact arena layout (profiles, merged/wall tables, and the trace
    /// buffer's configured capacity when present).
    pub fn measurement_bytes(&self) -> usize {
        self.kernel.bytes()
            + self.user.bytes()
            + self.merged.bytes()
            + self.wall.bytes()
            + self
                .trace
                .as_ref()
                .map_or(0, |t| t.capacity() * std::mem::size_of::<TraceRecord>())
    }

    /// Approximate heap bytes the pre-arena dense layout would occupy for
    /// the same state — the baseline the compact layout is measured against
    /// in `BENCH_ktaud.json`.
    pub fn dense_equivalent_bytes(&self) -> usize {
        self.kernel.dense_equivalent_bytes()
            + self.user.dense_equivalent_bytes()
            + self.merged.dense_equivalent_bytes()
            + self.wall.dense_equivalent_bytes()
            + self
                .trace
                .as_ref()
                .map_or(0, |t| t.capacity() * std::mem::size_of::<TraceRecord>())
    }

    /// Serializes the observable measurement state, which is all of it
    /// except the engine-dependent generation, in five sections: kernel
    /// profile, user profile, trace buffer, merged table, wall table.
    /// Engine state digests hash these bytes.  `end` is called with the
    /// writer after each section, so a caller can find where sections end.
    pub fn encode_observable(&self, w: &mut Writer, mut end: impl FnMut(&Writer)) {
        self.kernel.encode_wire(w);
        end(w);
        self.user.encode_wire(w);
        end(w);
        match &self.trace {
            None => w.u8(0),
            Some(t) => {
                w.u8(1);
                t.encode_wire(w);
            }
        }
        end(w);
        self.merged.encode_wire(w);
        end(w);
        self.wall.encode_wire(w);
        end(w);
    }

    /// Serializes complete measurement state for the engine snapshot image:
    /// the observable sections, then the dirty generation.
    pub fn encode_wire(&self, w: &mut Writer) {
        self.encode_observable(w, |_| {});
        w.u64(self.gen);
    }

    /// Inverse of [`TaskMeasurement::encode_wire`].
    pub fn decode_wire(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let kernel = Profile::decode_wire(r)?;
        let user = Profile::decode_wire(r)?;
        let trace = match r.u8()? {
            0 => None,
            1 => Some(TraceBuffer::decode_wire(r)?),
            _ => return Err(CodecError::BadField("trace tag")),
        };
        let merged = MergedTable::decode_wire(r)?;
        let wall = WallTable::decode_wire(r)?;
        let gen = r.u64()?;
        Ok(TaskMeasurement {
            kernel,
            user,
            trace,
            merged,
            wall,
            gen,
        })
    }
}

/// Outcome of a probe call: the cycles the probe itself consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeCost(pub Cycles);

/// The measurement engine for one kernel instance.
///
/// The control state is held behind an [`std::sync::Arc`] so a cluster of
/// identically-configured kernels shares one allocation instead of cloning
/// the control per node; a runtime control write (`/proc/ktau`) copies-on-
/// write via [`std::sync::Arc::make_mut`], detaching only the written node.
#[derive(Debug, Clone)]
pub struct ProbeEngine {
    control: std::sync::Arc<InstrumentationControl>,
    overhead: OverheadModel,
    /// Bumped on every path that can change probe statuses or costs
    /// ([`ProbeEngine::control_mut`], [`ProbeEngine::set_overhead`]), so
    /// callers may cache derived cost figures and revalidate with one
    /// compare instead of re-deriving them per fold.
    cost_gen: u64,
}

impl ProbeEngine {
    /// Builds an engine from a control configuration and overhead model.
    pub fn new(control: InstrumentationControl, overhead: OverheadModel) -> Self {
        Self::new_shared(std::sync::Arc::new(control), overhead)
    }

    /// Builds an engine sharing an existing control allocation (one per
    /// cluster rather than one per node).
    pub fn new_shared(
        control: std::sync::Arc<InstrumentationControl>,
        overhead: OverheadModel,
    ) -> Self {
        ProbeEngine {
            control,
            overhead,
            cost_gen: 0,
        }
    }

    /// Engine with everything enabled and default (Table 4) overheads.
    pub fn prof_all() -> Self {
        Self::new(InstrumentationControl::prof_all(), OverheadModel::default())
    }

    /// Access to the control state (e.g. `/proc/ktau` control writes).
    pub fn control(&self) -> &InstrumentationControl {
        &self.control
    }

    /// Mutable control state for runtime enable/disable.  Copy-on-write:
    /// a node that shares the cluster-wide control detaches its own copy
    /// the first time it is written.
    pub fn control_mut(&mut self) -> &mut InstrumentationControl {
        self.cost_gen = self.cost_gen.wrapping_add(1);
        std::sync::Arc::make_mut(&mut self.control)
    }

    /// Generation of the current (control, overhead) configuration; changes
    /// whenever cached probe-cost figures could go stale.
    #[inline]
    pub fn cost_gen(&self) -> u64 {
        self.cost_gen
    }

    /// Cycle cost of one entry probe for `group`'s current status, for an
    /// untraced task.  This is exactly what [`ProbeEngine::kernel_entry`]
    /// charges when `m.trace.is_none()`; the dynticks fold uses it to price
    /// skipped tick probes without touching measurement state.
    #[inline]
    pub fn entry_cost(&self, group: Group) -> Cycles {
        match self.control.status(group) {
            ProbeStatus::CompiledOut => 0,
            ProbeStatus::Disabled => self.overhead.disabled_check_cycles,
            ProbeStatus::Enabled => self.overhead.start_cycles,
        }
    }

    /// Cycle cost of one exit probe for `group`'s current status, for an
    /// untraced task (see [`ProbeEngine::entry_cost`]).
    #[inline]
    pub fn exit_cost(&self, group: Group) -> Cycles {
        match self.control.status(group) {
            ProbeStatus::CompiledOut => 0,
            ProbeStatus::Disabled => self.overhead.disabled_check_cycles,
            ProbeStatus::Enabled => self.overhead.stop_cycles,
        }
    }

    /// The overhead model in force.
    pub fn overhead(&self) -> &OverheadModel {
        &self.overhead
    }

    /// Replaces the overhead model (tests, what-if studies).
    pub fn set_overhead(&mut self, m: OverheadModel) {
        self.cost_gen = self.cost_gen.wrapping_add(1);
        self.overhead = m;
    }

    #[inline]
    fn trace_push(
        &self,
        m: &mut TaskMeasurement,
        ev: EventId,
        point: TracePoint,
        now: Ns,
    ) -> Cycles {
        if let Some(tb) = m.trace.as_mut() {
            tb.push(TraceRecord {
                ts_ns: now,
                event: ev,
                point,
            });
            self.overhead.trace_record_cycles
        } else {
            0
        }
    }

    /// Kernel entry/exit probe pair: entry half.
    #[inline]
    pub fn kernel_entry(
        &self,
        m: &mut TaskMeasurement,
        ev: EventId,
        group: Group,
        now: Ns,
    ) -> ProbeCost {
        match self.control.status(group) {
            ProbeStatus::CompiledOut => ProbeCost(0),
            ProbeStatus::Disabled => ProbeCost(self.overhead.disabled_check_cycles),
            ProbeStatus::Enabled => {
                m.gen += 1;
                m.kernel.start(ev, now);
                let t = self.trace_push(m, ev, TracePoint::Entry, now);
                ProbeCost(self.overhead.start_cycles + t)
            }
        }
    }

    /// Kernel entry/exit probe pair: exit half.  Returns the probe cost; the
    /// measured inclusive time is folded into the profile and, when the
    /// completed activation is the outermost kernel activation, attributed to
    /// the active user routine in the merged view.
    #[inline]
    pub fn kernel_exit(
        &self,
        m: &mut TaskMeasurement,
        ev: EventId,
        group: Group,
        now: Ns,
    ) -> ProbeCost {
        match self.control.status(group) {
            ProbeStatus::CompiledOut => ProbeCost(0),
            ProbeStatus::Disabled => ProbeCost(self.overhead.disabled_check_cycles),
            ProbeStatus::Enabled => {
                m.gen += 1;
                match m.kernel.stop(ev, now) {
                    Ok(info) => {
                        // Attribute the event's own time (minus nested
                        // scheduling intervals, which kernel_interval
                        // attributes separately) to the active user routine.
                        if !info.recursive {
                            m.merged_add(ev, info.incl_ns - info.interval_ns);
                        }
                        if m.kernel.depth() == 0 {
                            m.wall_add(info.incl_ns - info.interval_ns);
                        }
                    }
                    Err(e) => {
                        // An instrumentation bug in the simulated kernel —
                        // surface loudly in debug builds, ignore in release
                        // like the real kernel would.
                        debug_assert!(false, "kernel probe nesting error: {e}");
                    }
                }
                let t = self.trace_push(m, ev, TracePoint::Exit, now);
                ProbeCost(self.overhead.stop_cycles + t)
            }
        }
    }

    /// Kernel atomic-event probe.
    #[inline]
    pub fn kernel_atomic(
        &self,
        m: &mut TaskMeasurement,
        ev: EventId,
        group: Group,
        value: u64,
        now: Ns,
    ) -> ProbeCost {
        match self.control.status(group) {
            ProbeStatus::CompiledOut => ProbeCost(0),
            ProbeStatus::Disabled => ProbeCost(self.overhead.disabled_check_cycles),
            ProbeStatus::Enabled => {
                m.gen += 1;
                m.kernel.atomic(ev, value);
                let t = self.trace_push(m, ev, TracePoint::Atomic(value), now);
                ProbeCost(self.overhead.atomic_cycles + t)
            }
        }
    }

    /// Scheduler interval probe: records a completed switched-out interval
    /// (`schedule` / `schedule_vol`) of `duration` ending at `now`.
    #[inline]
    pub fn kernel_interval(
        &self,
        m: &mut TaskMeasurement,
        ev: EventId,
        group: Group,
        duration: Ns,
        now: Ns,
    ) -> ProbeCost {
        match self.control.status(group) {
            ProbeStatus::CompiledOut => ProbeCost(0),
            ProbeStatus::Disabled => ProbeCost(self.overhead.disabled_check_cycles),
            ProbeStatus::Enabled => {
                m.gen += 1;
                m.kernel.add_interval(ev, duration);
                m.merged_add(ev, duration);
                m.wall_add(duration);
                let t = self.trace_push(m, ev, TracePoint::Atomic(duration), now);
                ProbeCost(self.overhead.start_cycles + self.overhead.stop_cycles + t)
            }
        }
    }

    /// Folds `n` identical timer-interrupt probe quadruples — outer entry
    /// and inner entry at some time `t`, inner exit and outer exit at
    /// `t + d` — into the measurement state in closed form, and returns the
    /// probe cost in cycles of ONE quadruple (every fold member costs the
    /// same).  This is the batch form of
    /// `kernel_entry(outer); kernel_entry(inner); kernel_exit(inner);
    /// kernel_exit(outer)` repeated `n` times, valid when:
    ///
    /// - the task has no trace buffer (record timestamps would differ),
    /// - neither event is already on the activation stack (no recursion),
    /// - the activation stack does not change between the folds (the
    ///   dynticks engine guarantees this: only event handlers mutate it).
    ///
    /// Handles every per-group control combination: a `Disabled` or
    /// `CompiledOut` half drops out of the recording exactly as the scalar
    /// path would, while still paying its per-call probe cost.
    #[allow(clippy::too_many_arguments)]
    pub fn kernel_pair_batch(
        &self,
        m: &mut TaskMeasurement,
        outer: EventId,
        outer_group: Group,
        inner: EventId,
        inner_group: Group,
        d: Ns,
        n: u64,
    ) -> ProbeCost {
        debug_assert!(m.trace.is_none(), "pair batch on a traced task");
        let per_call = |st: ProbeStatus, start: bool| match st {
            ProbeStatus::CompiledOut => 0,
            ProbeStatus::Disabled => self.overhead.disabled_check_cycles,
            ProbeStatus::Enabled => {
                if start {
                    self.overhead.start_cycles
                } else {
                    self.overhead.stop_cycles
                }
            }
        };
        let so = self.control.status(outer_group);
        let si = self.control.status(inner_group);
        let cost =
            per_call(so, true) + per_call(si, true) + per_call(si, false) + per_call(so, false);
        if n == 0 {
            return ProbeCost(cost);
        }
        let outer_on = so == ProbeStatus::Enabled;
        let inner_on = si == ProbeStatus::Enabled;
        if outer_on || inner_on {
            // One bump per fold, not per folded tick: the count is
            // engine-dependent either way and only inequality matters.
            m.gen += 1;
        }
        let user = m.user.top();
        match (outer_on, inner_on) {
            (true, true) => {
                // Inner nests in outer: inner keeps its full time exclusive,
                // outer's exclusive time is carved down to zero.
                m.kernel.record_repeat(inner, d, d, n);
                m.merged.add_n((user, inner), d, n);
                m.kernel.record_repeat(outer, d, 0, n);
                m.merged.add_n((user, outer), d, n);
            }
            (true, false) => {
                m.kernel.record_repeat(outer, d, d, n);
                m.merged.add_n((user, outer), d, n);
            }
            (false, true) => {
                m.kernel.record_repeat(inner, d, d, n);
                m.merged.add_n((user, inner), d, n);
            }
            (false, false) => return ProbeCost(cost),
        }
        // The quadruple's outermost completed activation spans `d`: when the
        // task is outside any live kernel activation that is wall time under
        // the active user routine, otherwise it is child time of the
        // enclosing activation (e.g. the open syscall the tick interrupted).
        if m.kernel.depth() == 0 {
            m.wall.add(user, d * n);
        } else {
            m.kernel.credit_child_time(d * n);
        }
        ProbeCost(cost)
    }

    /// User-level (TAU) entry probe.  Controlled by the `User`/`Mpi` groups
    /// so the perturbation study can toggle application instrumentation
    /// independently of kernel instrumentation (`ProfAll` vs `ProfAll+Tau`).
    #[inline]
    pub fn user_entry(
        &self,
        m: &mut TaskMeasurement,
        ev: EventId,
        group: Group,
        now: Ns,
    ) -> ProbeCost {
        debug_assert!(!group.is_kernel(), "user probe with kernel group");
        match self.control.status(group) {
            ProbeStatus::CompiledOut => ProbeCost(0),
            ProbeStatus::Disabled => ProbeCost(self.overhead.disabled_check_cycles),
            ProbeStatus::Enabled => {
                m.gen += 1;
                m.user.start(ev, now);
                let t = self.trace_push(m, ev, TracePoint::Entry, now);
                ProbeCost(self.overhead.start_cycles + t)
            }
        }
    }

    /// User-level (TAU) exit probe.
    #[inline]
    pub fn user_exit(
        &self,
        m: &mut TaskMeasurement,
        ev: EventId,
        group: Group,
        now: Ns,
    ) -> ProbeCost {
        debug_assert!(!group.is_kernel(), "user probe with kernel group");
        match self.control.status(group) {
            ProbeStatus::CompiledOut => ProbeCost(0),
            ProbeStatus::Disabled => ProbeCost(self.overhead.disabled_check_cycles),
            ProbeStatus::Enabled => {
                m.gen += 1;
                if let Err(e) = m.user.stop(ev, now) {
                    debug_assert!(false, "user probe nesting error: {e}");
                }
                let t = self.trace_push(m, ev, TracePoint::Exit, now);
                ProbeCost(self.overhead.stop_cycles + t)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::GroupSet;

    fn ev(i: u32) -> EventId {
        EventId(i)
    }

    #[test]
    fn enabled_probes_measure_and_cost_cycles() {
        let eng = ProbeEngine::prof_all();
        let mut m = TaskMeasurement::profiling();
        let c1 = eng.kernel_entry(&mut m, ev(0), Group::Syscall, 100);
        let c2 = eng.kernel_exit(&mut m, ev(0), Group::Syscall, 400);
        assert_eq!(c1.0, 244);
        assert_eq!(c2.0, 295);
        assert_eq!(m.kernel.entry_stats(ev(0)).incl_ns, 300);
    }

    #[test]
    fn disabled_probes_cost_only_flag_check() {
        let eng = ProbeEngine::new(InstrumentationControl::ktau_off(), OverheadModel::default());
        let mut m = TaskMeasurement::profiling();
        let c = eng.kernel_entry(&mut m, ev(0), Group::Syscall, 0);
        assert_eq!(c.0, 4);
        assert_eq!(m.kernel.entry_stats(ev(0)).count, 0);
    }

    #[test]
    fn compiled_out_probes_are_free() {
        let eng = ProbeEngine::new(InstrumentationControl::base(), OverheadModel::default());
        let mut m = TaskMeasurement::profiling();
        let c = eng.kernel_entry(&mut m, ev(0), Group::Syscall, 0);
        assert_eq!(c.0, 0);
    }

    #[test]
    fn partial_group_enable_prof_sched() {
        let eng = ProbeEngine::new(
            InstrumentationControl::only(&[Group::Scheduler]),
            OverheadModel::default(),
        );
        let mut m = TaskMeasurement::profiling();
        eng.kernel_interval(&mut m, ev(1), Group::Scheduler, 500, 1_000);
        eng.kernel_entry(&mut m, ev(0), Group::Tcp, 1_000);
        eng.kernel_exit(&mut m, ev(0), Group::Tcp, 2_000);
        assert_eq!(m.kernel.entry_stats(ev(1)).incl_ns, 500);
        assert_eq!(m.kernel.entry_stats(ev(0)).count, 0);
    }

    #[test]
    fn merged_attribution_to_active_user_routine() {
        let eng = ProbeEngine::prof_all();
        let mut m = TaskMeasurement::profiling();
        let mpi_recv = ev(10);
        let sys_read = ev(20);
        eng.user_entry(&mut m, mpi_recv, Group::Mpi, 0);
        eng.kernel_entry(&mut m, sys_read, Group::Syscall, 100);
        eng.kernel_exit(&mut m, sys_read, Group::Syscall, 700);
        eng.user_exit(&mut m, mpi_recv, Group::Mpi, 1_000);
        let s = m.merged_stats(Some(mpi_recv), sys_read);
        assert_eq!(s.count, 1);
        assert_eq!(s.ns, 600);
        assert_eq!(m.kernel_ns_in_user(mpi_recv), 600);
    }

    #[test]
    fn merged_attribution_outside_user_routine_uses_none() {
        let eng = ProbeEngine::prof_all();
        let mut m = TaskMeasurement::profiling();
        eng.kernel_entry(&mut m, ev(5), Group::Irq, 0);
        eng.kernel_exit(&mut m, ev(5), Group::Irq, 50);
        assert_eq!(m.merged_stats(None, ev(5)).ns, 50);
    }

    #[test]
    fn nested_kernel_events_attribute_per_event_and_wall_once() {
        let eng = ProbeEngine::prof_all();
        let mut m = TaskMeasurement::profiling();
        let outer = ev(1);
        let inner = ev(2);
        eng.kernel_entry(&mut m, outer, Group::Syscall, 0);
        eng.kernel_entry(&mut m, inner, Group::Tcp, 10);
        eng.kernel_exit(&mut m, inner, Group::Tcp, 90);
        eng.kernel_exit(&mut m, outer, Group::Syscall, 100);
        // Every completing event gets its own merged cell (call-group
        // displays want the nested tcp work visible)...
        assert_eq!(m.merged_stats(None, outer).ns, 100);
        assert_eq!(m.merged_stats(None, inner).ns, 80);
        // ...while the non-overlapping wall total counts the outermost only.
        assert_eq!(m.wall.get(None).unwrap_or(0), 100);
    }

    #[test]
    fn descheduled_time_inside_syscall_not_double_counted_in_merged() {
        let eng = ProbeEngine::prof_all();
        let mut m = TaskMeasurement::profiling();
        let mpi_recv = ev(10);
        let sys_read = ev(20);
        let sched_vol = ev(30);
        eng.user_entry(&mut m, mpi_recv, Group::Mpi, 0);
        eng.kernel_entry(&mut m, sys_read, Group::Syscall, 100);
        // Blocked for 700ns inside the read: recorded as schedule_vol.
        eng.kernel_interval(&mut m, sched_vol, Group::Scheduler, 700, 800);
        eng.kernel_exit(&mut m, sys_read, Group::Syscall, 1_100);
        eng.user_exit(&mut m, mpi_recv, Group::Mpi, 1_200);
        // Total kernel time in MPI_Recv must equal the syscall's wall time
        // (1000ns), split between schedule (700) and the syscall rest (300).
        assert_eq!(m.merged_stats(Some(mpi_recv), sched_vol).ns, 700);
        assert_eq!(m.merged_stats(Some(mpi_recv), sys_read).ns, 300);
        assert_eq!(m.kernel_ns_in_user(mpi_recv), 1_000);
    }

    #[test]
    fn tracing_adds_cost_and_records() {
        let eng = ProbeEngine::prof_all();
        let mut m = TaskMeasurement::with_trace(16);
        let c = eng.kernel_entry(&mut m, ev(0), Group::Tcp, 5);
        assert_eq!(c.0, 244 + 120);
        eng.kernel_exit(&mut m, ev(0), Group::Tcp, 9);
        let tb = m.trace.as_ref().unwrap();
        assert_eq!(tb.len(), 2);
        let recs: Vec<_> = tb.iter().collect();
        assert_eq!(recs[0].point, TracePoint::Entry);
        assert_eq!(recs[1].point, TracePoint::Exit);
    }

    #[test]
    fn atomic_probe_records_value() {
        let eng = ProbeEngine::prof_all();
        let mut m = TaskMeasurement::profiling();
        eng.kernel_atomic(&mut m, ev(3), Group::Tcp, 1460, 7);
        assert_eq!(m.kernel.atomic_stats(ev(3)).sum, 1460);
    }

    #[test]
    fn generation_tracks_enabled_probes_only() {
        let eng = ProbeEngine::prof_all();
        let mut m = TaskMeasurement::profiling();
        let g0 = m.generation();
        eng.kernel_entry(&mut m, ev(0), Group::Syscall, 0);
        eng.kernel_exit(&mut m, ev(0), Group::Syscall, 10);
        assert!(m.generation() > g0, "enabled probes must mark dirty");
        let off = ProbeEngine::new(InstrumentationControl::ktau_off(), OverheadModel::default());
        let g1 = m.generation();
        off.kernel_entry(&mut m, ev(0), Group::Syscall, 20);
        off.kernel_atomic(&mut m, ev(1), Group::Tcp, 5, 30);
        assert_eq!(m.generation(), g1, "disabled probes must not mark dirty");
        eng.kernel_pair_batch(&mut m, ev(2), Group::Irq, ev(3), Group::Timer, 10, 4);
        assert!(m.generation() > g1, "the dynticks fold must mark dirty");
    }

    fn observable(m: &TaskMeasurement) -> Vec<u8> {
        let mut w = Writer::new();
        m.encode_observable(&mut w, |_| {});
        w.into_vec()
    }

    #[test]
    fn observable_bytes_exclude_generation() {
        // The cross-engine state digest hashes these bytes; the
        // engine-dependent generation must be invisible to them.
        let mut m = TaskMeasurement::profiling();
        let before = observable(&m);
        m.mark_dirty();
        assert_eq!(before, observable(&m));
        // The image keeps it.
        let mut w = Writer::new();
        m.encode_wire(&mut w);
        assert_eq!(w.as_slice()[before.len()..], 1u64.to_le_bytes());
    }

    #[test]
    fn observable_bytes_ignore_first_fire_order_and_generation() {
        // The same state reached with events first fired in opposite
        // orders, so every arena holds its slots in a different order.
        let fill = |order: &[u32]| {
            let eng = ProbeEngine::prof_all();
            let mut m = TaskMeasurement::profiling();
            for &e in order {
                m.kernel.record_repeat(ev(e), 10 * e as u64, e as u64, 2);
                m.kernel.atomic(ev(e), e as u64);
                m.user.add_interval(ev(e), 5);
                m.merged.add_n((Some(ev(e % 3)), ev(e)), 7, 3);
                m.merged.add_n((None, ev(e)), 1, 1);
                m.wall.add(Some(ev(e)), 11);
                eng.kernel_interval(&mut m, ev(30), Group::Scheduler, 4, 0);
            }
            m
        };
        let a = fill(&[1, 4, 9, 2]);
        let mut b = fill(&[9, 2, 4, 1]);
        for _ in 0..5 {
            b.mark_dirty();
        }
        assert_ne!(format!("{a:?}"), format!("{b:?}"), "layouts should differ");
        assert_ne!(a.generation(), b.generation());
        assert_eq!(observable(&a), observable(&b));
    }

    #[test]
    fn measurement_wire_roundtrip_is_canonical() {
        let eng = ProbeEngine::prof_all();
        let mut m = TaskMeasurement::profiling();
        // Touch columns out of order so chains must sort, leave a kernel
        // activation live, and spread user routines across sparse slots.
        eng.user_entry(&mut m, ev(40), Group::User, 0);
        eng.kernel_entry(&mut m, ev(7), Group::Syscall, 10);
        eng.kernel_exit(&mut m, ev(7), Group::Syscall, 60);
        eng.kernel_entry(&mut m, ev(3), Group::Tcp, 70);
        eng.kernel_exit(&mut m, ev(3), Group::Tcp, 90);
        eng.kernel_atomic(&mut m, ev(9), Group::Tcp, 1460, 95);
        eng.user_exit(&mut m, ev(40), Group::User, 100);
        eng.kernel_entry(&mut m, ev(5), Group::Irq, 110); // stays live

        let mut w = Writer::new();
        m.encode_wire(&mut w);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        let mut d = TaskMeasurement::decode_wire(&mut r).unwrap();
        r.expect_end().unwrap();
        let mut w = Writer::new();
        d.encode_wire(&mut w);
        assert_eq!(w.as_slice(), &bytes[..]);
        assert_eq!(d.generation(), m.generation());
        for user in [None, Some(ev(40))] {
            assert_eq!(d.wall.get(user), m.wall.get(user));
            for k in 0..12 {
                assert_eq!(d.merged_stats(user, ev(k)), m.merged_stats(user, ev(k)));
            }
        }
        for k in 0..12 {
            assert_eq!(d.kernel.entry_stats(ev(k)), m.kernel.entry_stats(ev(k)));
            assert_eq!(d.kernel.atomic_stats(ev(k)), m.kernel.atomic_stats(ev(k)));
        }
        assert_eq!(d.user.entry_stats(ev(40)), m.user.entry_stats(ev(40)));
        // The live kernel frame closes the same way in both.
        eng.kernel_exit(&mut d, ev(5), Group::Irq, 200);
        eng.kernel_exit(&mut m, ev(5), Group::Irq, 200);
        assert_eq!(observable(&d), observable(&m));
    }

    #[test]
    fn arena_layout_cuts_bytes_vs_dense_for_sparse_rows() {
        let eng = ProbeEngine::prof_all();
        let mut m = TaskMeasurement::profiling();
        // One user routine with a high id touching one high-id kernel event:
        // the old layout allocated a full dense row and dense profile rows.
        eng.user_entry(&mut m, ev(48), Group::User, 0);
        eng.kernel_entry(&mut m, ev(30), Group::Syscall, 10);
        eng.kernel_exit(&mut m, ev(30), Group::Syscall, 20);
        eng.user_exit(&mut m, ev(48), Group::User, 30);
        assert!(
            m.measurement_bytes() * 3 <= m.dense_equivalent_bytes(),
            "arena {} vs dense {}",
            m.measurement_bytes(),
            m.dense_equivalent_bytes()
        );
    }

    #[test]
    fn hostile_merged_and_wall_counts_fail_loudly() {
        use crate::profile::MAX_EVENT_ID;
        let merged = |w: Writer| MergedTable::decode_wire(&mut Reader::new(&w.into_vec()));
        let wall = |w: Writer| WallTable::decode_wire(&mut Reader::new(&w.into_vec()));
        // Merged image claiming u32::MAX rows in a tiny input.
        let mut w = Writer::new();
        w.u32(u32::MAX);
        w.u32(0);
        assert!(matches!(
            merged(w),
            Err(CodecError::Corrupt("merged row count"))
        ));
        // Merged image with one row claiming more cells than bytes remain.
        let mut w = Writer::new();
        w.u32(1);
        w.u32(1 << 20);
        w.u64(0);
        assert!(matches!(
            merged(w),
            Err(CodecError::Corrupt("merged cell count"))
        ));
        // Merged cells whose columns reach the id cap or go backwards.
        for cols in [&[MAX_EVENT_ID][..], &[7, 3]] {
            let mut w = Writer::new();
            w.u32(1); // one row
            w.u32(cols.len() as u32);
            for &c in cols {
                w.u32(c);
                w.u64(1);
                w.u64(5);
            }
            assert!(matches!(
                merged(w),
                Err(CodecError::Corrupt("merged cell column"))
            ));
        }
        // Wall image claiming more slots than bytes remain.
        let mut w = Writer::new();
        w.u32(1 << 20);
        w.u8(0);
        assert!(matches!(
            wall(w),
            Err(CodecError::Corrupt("wall slot count"))
        ));
        // Wall slots past the id cap (slot `i + 1` holds user event `i`)
        // or going backwards.
        for slots in [&[MAX_EVENT_ID + 1][..], &[2, 1]] {
            let mut w = Writer::new();
            w.u32(slots.len() as u32);
            for &s in slots {
                w.u32(s);
                w.u64(10);
            }
            assert!(matches!(wall(w), Err(CodecError::Corrupt("wall slot id"))));
        }
    }

    #[test]
    fn wall_preserves_accumulated_zero_vs_never_recorded() {
        let mut wt = WallTable::default();
        wt.add(Some(ev(2)), 0);
        assert_eq!(wt.get(Some(ev(2))), Some(0));
        assert_eq!(wt.get(Some(ev(1))), None);
        assert_eq!(wt.get(None), None);
        // The image records the zero under slot 3 and nothing else, and
        // decodes back to the same distinction.
        let mut w = Writer::new();
        wt.encode_wire(&mut w);
        let mut want = Writer::new();
        want.u32(1);
        want.u32(3);
        want.u64(0);
        assert_eq!(w.as_slice(), want.as_slice());
        let d = WallTable::decode_wire(&mut Reader::new(w.as_slice())).unwrap();
        assert_eq!(d.get(Some(ev(2))), Some(0));
        assert_eq!(d.get(Some(ev(1))), None);
    }

    #[test]
    fn user_groups_follow_their_own_control() {
        // Kernel groups on, user groups off: ProfAll (without +Tau).
        let ctl =
            InstrumentationControl::new(GroupSet::all(), GroupSet::all_kernel(), GroupSet::all());
        let eng = ProbeEngine::new(ctl, OverheadModel::default());
        let mut m = TaskMeasurement::profiling();
        let c = eng.user_entry(&mut m, ev(0), Group::User, 0);
        assert_eq!(c.0, 4); // disabled check only
        assert_eq!(m.user.depth(), 0);
    }
}
